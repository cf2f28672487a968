"""Byte identity of reports: the SHA-256 of every built-in report, JSON and
CSV, and of one random-scheme CSV at the largest benchmark scheme size.

Reports render floats at full repr precision, so a change in summation order
anywhere on the path (for example a Gram product in place of per-pair inner
products) shows here as a changed digest.
"""

import hashlib
import io
import json

import pytest

from authsim import cli

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
