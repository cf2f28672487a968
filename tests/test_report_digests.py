"""Byte identity of reports: the SHA-256 of every built-in report, JSON and
CSV, of random-scheme reports at each benchmark scheme size past 2 x 2 x 2,
of one config per input form that no built-in uses, and of a Curty-Santos
random sweep long enough to cross a stack boundary of ``random_unitaries``.

Reports render floats at full repr precision, so a change in summation order
anywhere on the path (for example a Gram product in place of per-pair inner
products) shows here as a changed digest.
"""

import hashlib
import io
import json

import numpy as np
import pytest

from authsim import cli
from authsim.qmac_framework import random_scheme, scheme_to_json_dict

BUILTIN_DIGESTS = {
    ("affine-p5", "json"): "e24205cdc6f999c6730aa8072c9e656d6ca180e13611f02330aef5e6d3adb49b",
    ("affine-p5", "csv"): "f1b6322075fd4f0e3d34379f87477cb4c9c2c1b0e2cbc4e4067e67a22b778ac8",
    ("poly-p5-l2", "json"): "bf2c0e4dd6b4c4a7861844ffe56a83b155e96cfc60f1aeff2492c46a2b0b42a5",
    ("poly-p5-l2", "csv"): "42ec85d149ac220c0739117ded7e98b220dc5820da8d95936c060a4455d3bc4d",
    ("cs-swapless", "json"): "e98c0a5dc20e3c1a1ba7377ed7ee0274c7c86f1f5427a6808f8e53f893f82555",
    ("cs-swapless", "csv"): "77b75fd938ab555f645ccbbdb10c484d8a51c8d75ee42c98f8bed15e12cd19dd",
    ("cs-hadamard", "json"): "2ee35552c0ea08ce4c04b0fb74fa79aa9b8924c2e6c1ea76feba223cc750b271",
    ("cs-hadamard", "csv"): "9ef9351d1f0810611e24f034dda520366a903b9ebb685e464544bd8f6dfecf6f",
    ("cs-nogo-sweep", "json"): "f680aa63376637c9e51b4fdfaa81e0c4e19514c3bb2114206a2c4595a6514a84",
    ("cs-nogo-sweep", "csv"): "4a547d479f2db60c5ca0e376e8b779d293b10943601d92d46a4f69273794b805",
    ("theorem2-random", "json"): "aea1077e95a3c387dd38fbfb66d4a1e1e33dbc46b1a6a2666ad0e3ec7b5049ef",
    ("theorem2-random", "csv"): "7d3cfd60da8778da2c91e650f076a86dde2e55c9ee4b17cc4d8b9d08b091681c",
    ("symtest-grid", "json"): "8f952ba8df08e26e60f6b7e9638afa001cd1b7eea0f32609390ab5ebf3c9ec5a",
    ("symtest-grid", "csv"): "e20c1c5b93a395a331486906c357f7adb0bcab7ac2c7951acd6ad664f32bf15a",
}

RANDOM_SCHEMES_CONFIG = {
    "scenario": "GenericQmac",
    "parameters": {"random_schemes": {"count": 3, "dim": 16, "num_keys": 16, "num_messages": 16}},
    "seed": 5,
}
RANDOM_SCHEMES_CSV_DIGEST = "c59a8cef6c061c2c407eca604b75a949deed249ef44d82068e7785317468f9cd"

# Taken with one stack of Haar draws per key of each scheme and one vdot per
# tag pair; the reports must not move when draws and overlaps are batched.
LADDER_SHAPES = {
    "4x8x8": {"count": 40, "dim": 4, "num_keys": 8, "num_messages": 8},
    "8x16x16": {"count": 20, "dim": 8, "num_keys": 16, "num_messages": 16},
}
LADDER_DIGESTS = {
    ("4x8x8", "json"): "12b0e6eab484102b357a4f1ce35f6996e81b0f8094d2fb8829fc05dfc9a3d282",
    ("4x8x8", "csv"): "eb987e1e9cb37150baf4572cd4ece90d7a2e6f9e9ade02536e906c4599a38c4a",
    ("8x16x16", "json"): "b2db743dfe9a6e09927d58d4cbd0e0cb96a927ccb0cee92cf754342cbd6207c7",
    ("8x16x16", "csv"): "b69184945f1649d43eaec8c56bfb3fb88279e9ea9b030bf30b79d5613755b1f8",
}


def report_digest(source, path, fmt):
    assert cli.run(str(source), output=str(path), output_format=fmt, stdout=io.StringIO()) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_builtin_catalog_is_pinned():
    assert {name for name, _ in BUILTIN_DIGESTS} == set(cli.BUILTIN_SCENARIOS)


@pytest.mark.parametrize("name,fmt", sorted(BUILTIN_DIGESTS))
def test_builtin_report_bytes(name, fmt, tmp_path):
    assert report_digest(name, tmp_path / f"{name}.{fmt}", fmt) == BUILTIN_DIGESTS[(name, fmt)]


def test_random_schemes_csv_bytes(tmp_path):
    config = tmp_path / "random-schemes.json"
    config.write_text(json.dumps(RANDOM_SCHEMES_CONFIG))
    assert report_digest(config, tmp_path / "report.csv", "csv") == RANDOM_SCHEMES_CSV_DIGEST


@pytest.mark.parametrize("shape,fmt", sorted(LADDER_DIGESTS))
def test_random_schemes_ladder_bytes(shape, fmt, tmp_path):
    config = tmp_path / "random-schemes.json"
    params = {"random_schemes": LADDER_SHAPES[shape]}
    config.write_text(json.dumps({"scenario": "GenericQmac", "parameters": params, "seed": 7}))
    assert report_digest(config, tmp_path / f"report.{fmt}", fmt) == LADDER_DIGESTS[(shape, fmt)]


def input_form_configs(directory):
    """One config per non-built-in input form; writes the scheme file the
    ``scheme_path`` form reads into ``directory``."""
    scheme = scheme_to_json_dict(random_scheme(np.random.default_rng(5), dim=3, num_keys=4, num_messages=3))
    (directory / "scheme.json").write_text(json.dumps(scheme))
    wide = scheme_to_json_dict(random_scheme(np.random.default_rng(13), dim=16, num_keys=6, num_messages=4))
    swap = np.eye(4)[[0, 2, 1, 3]]
    h_on_a = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(2))
    basis = [{"dims": [4], "amplitudes": [[float(x), 0.0] for x in row]} for row in np.eye(4)[[3, 1, 2, 0]]]

    def unitary_doc(matrix):
        return {"dims": [2, 2], "matrix": [[[float(x), 0.0] for x in row] for row in matrix]}

    return {
        "classical-poly": {"scenario": "ClassicalMac", "parameters": {"family": "poly", "p": 7, "blocks": 2}},
        "qmac-inline-symmetry-rule": {
            "scenario": "GenericQmac",
            "parameters": {"scheme": scheme, "rule": {"kind": "symmetry-test", "copies": 3}},
        },
        "qmac-inline-dim16-symmetry-rule": {
            "scenario": "GenericQmac",
            "parameters": {"scheme": wide, "rule": {"kind": "symmetry-test", "copies": 5}},
        },
        "qmac-scheme-path": {
            "scenario": "GenericQmac", "parameters": {"scheme_path": "scheme.json"}, "seed": 9
        },
        "cs-unitary": {"scenario": "CurtySantos", "parameters": {"unitary": unitary_doc(swap)}},
        "cs-instance": {
            "scenario": "CurtySantos",
            "parameters": {
                "instance": {"unitary": unitary_doc(h_on_a), "basis": basis, "accept_set": [2, 0]}
            },
        },
        "cs-sweep-stack-boundary": {
            "scenario": "CurtySantos", "parameters": {"random_sweep": {"count": 5000}}, "seed": 11
        },
        "sweep-t-values": {
            "scenario": "SymmetryTestSweep",
            "parameters": {
                "t_values": [2, 3, 5, 9, 3],
                "delta_fracs": [1, 0.5, 1],
                "lambda_fracs": [0, 0.25, 0],
                "d": 3,
                "message_space_bits": 8,
            },
        },
    }


# Taken with the runners as they were before the declarative config specs; both write these bytes.
INPUT_FORM_DIGESTS = {
    ("classical-poly", "csv"): "2b624b5ccdf278949f0e3235e7867e1dd1c84bddc550db313e6ec0bb39a163da",
    ("classical-poly", "json"): "9ad36c33408321f06957d0d385ec61f6904e14da48e846e0d586f7d2ab262cef",
    ("cs-instance", "csv"): "c5927dee7edd91ea3c50c7f1369c37b7ba2a05e5d2dcaf71fb13113c0075d962",
    ("cs-instance", "json"): "d592771ede6128fc1ffc412c290e6cccdef1bc11826d6a690e0e7ded24a72db6",
    # Taken with one draw and one report per unitary; 5000 draws of 4x4 cross
    # the stack boundaries of random_unitaries.
    ("cs-sweep-stack-boundary", "csv"): "a923aacc97ae1c42557477d8c2635f04a4f43c80f9a0c638faefa50862019778",
    ("cs-sweep-stack-boundary", "json"): "a679f0c6010a9c37e769613b7e21f30bf272c63143b4c2fbb894cda5334b9a13",
    ("cs-unitary", "csv"): "b7b2351ef5f09f3ed27c72a9a8a3a7a61669744cfff3992a6f4c7e61e4e7a312",
    ("cs-unitary", "json"): "e4a985ce840cd379063b3af865f1f39ad510ecfb06b265bd5842c5d3490981a5",
    ("qmac-inline-symmetry-rule", "csv"): "cd25803bc6d748053e557970c16a77e420190ca5a317a164c9019d2f81480486",
    ("qmac-inline-symmetry-rule", "json"): "4b90dfdd4cd27f95756a9b27ad6a9823253618bed832c693994ff38c05451555",
    # Taken with one vdot per tag pair and one acceptance_error_formula call per overlap.
    ("qmac-inline-dim16-symmetry-rule", "csv"): "af364c4cf086e30fa3281d47abddd9abccda52c4e75ca84d6b5439c46a1ae5d6",
    ("qmac-inline-dim16-symmetry-rule", "json"): "ff64a1dc37db19ba243a6bb637b4cf03b356ebe06eb28cf52d7aae3610f55e85",
    ("qmac-scheme-path", "csv"): "3379f4034a39c9d4b991c7c2711782224ad3a8e803ec17d3d734d058082c1016",
    ("qmac-scheme-path", "json"): "1fe62410e238f528705ba62bcaab79586e3afa9efee93854af8a68d9b25bf0d9",
    ("sweep-t-values", "csv"): "5497992baa898f698dfb3d691ce289457386e94599c0faed5c7e100d115c3ca0",
    ("sweep-t-values", "json"): "07a3beab4334090ea93d70fb422acbef8a05832adc6eb8eb3043ed1f524f1058",
}


@pytest.mark.parametrize("name,fmt", sorted(INPUT_FORM_DIGESTS))
def test_input_form_report_bytes(name, fmt, tmp_path):
    config = tmp_path / f"{name}.config.json"
    config.write_text(json.dumps(input_form_configs(tmp_path)[name]))
    assert report_digest(config, tmp_path / f"{name}.{fmt}", fmt) == INPUT_FORM_DIGESTS[(name, fmt)]
