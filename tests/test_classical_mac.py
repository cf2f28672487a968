import itertools
import math
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from authsim import classical_mac, cli
from authsim.classical_mac import (
    BLOCKS,
    ENUMERATION_CAP,
    MODULUS,
    WORK_CAP,
    DeceptionReport,
    FamilyKind,
    HashFamily,
    deception_probabilities,
    is_strongly_universal,
    key_length_lower_bound,
    make_affine_family,
    make_poly_family,
)
from authsim.errors import ParameterError
from authsim.reporting import jsonable
from testkit import CallCounter


def reference_tag_rows(family: HashFamily) -> dict:
    n_keys = family.key_space_size
    if n_keys * len(family.message_space) > ENUMERATION_CAP:
        raise ParameterError(
            f"|K|*|M| = {n_keys * len(family.message_space)} exceeds enumeration cap {ENUMERATION_CAP}"
        )
    return {m: [family.evaluate(k, m) for k in range(n_keys)] for m in family.message_space}


def reference_deception_probabilities(family: HashFamily) -> DeceptionReport:
    """Slow oracle: one Fraction per (m, m', t, t') cell, first maximizer wins."""
    rows = reference_tag_rows(family)
    n_keys = family.key_space_size

    best_count = -1
    best_pair = None
    for m in family.message_space:
        counts = Counter(rows[m])
        for t in family.tag_space:
            c = counts.get(t, 0)
            if c > best_count:
                best_count, best_pair = c, (m, t)
    p0 = Fraction(best_count, n_keys)

    best_sub = None
    best_witness = None
    for m in family.message_space:
        observed_counts = Counter(rows[m])
        for m2 in family.message_space:
            if m2 == m:
                continue
            joint = Counter(zip(rows[m], rows[m2]))
            for t in family.tag_space:
                support = observed_counts.get(t, 0)
                if support == 0:
                    continue
                for t2 in family.tag_space:
                    cand = Fraction(joint.get((t, t2), 0), support)
                    if best_sub is None or cand > best_sub:
                        best_sub, best_witness = cand, ((m, t), (m2, t2))
    return DeceptionReport(
        p0=p0, p1=best_sub, argmax_impersonation=best_pair, argmax_substitution=best_witness
    )


def reference_strongly_universal(family: HashFamily) -> bool:
    """Every (t, t2) cell of every message pair holds exactly |K|/|T|^2 keys,
    counted with one Counter per pair."""
    rows = reference_tag_rows(family)
    cells = list(itertools.product(family.tag_space, repeat=2))
    for m, m2 in itertools.combinations(family.message_space, 2):
        joint = Counter(zip(rows[m], rows[m2]))
        if any(joint[cell] * len(cells) != family.key_space_size for cell in cells):
            return False
    return True


def assert_matches_reference(family):
    report = deception_probabilities(family)
    expected = reference_deception_probabilities(family)
    assert isinstance(report.p0, Fraction) and isinstance(report.p1, Fraction)
    assert report == expected


def table_family(rows, messages, tags):
    """CUSTOM family whose key k tags messages[i] with rows[i][k]."""
    lookup = dict(zip(messages, rows))
    return HashFamily(
        key_space_size=len(rows[0]),
        message_space=tuple(messages),
        tag_space=tuple(tags),
        evaluate=lambda k, m: lookup[m][k],
        family_kind=FamilyKind.CUSTOM,
    )


def constant_family(p=3, value=0):
    return HashFamily(
        key_space_size=p,
        message_space=tuple(range(p)),
        tag_space=tuple(range(p)),
        evaluate=lambda k, m: value,
        family_kind=FamilyKind.CUSTOM,
        name="constant",
    )


def per_call_table(family: HashFamily) -> np.ndarray:
    """|M| x |K| tag positions from one ``evaluate`` call per cell."""
    position = {t: i for i, t in enumerate(family.tag_space)}
    rows = [[position[family.evaluate(k, m)] for k in range(family.key_space_size)] for m in family.message_space]
    return np.array(rows, dtype=np.min_scalar_type(len(family.tag_space) - 1))


def g_table(family: HashFamily) -> np.ndarray:
    """|M| x |K| tag positions derived from ``g``: key a*p + b tags message i with (g[i, a] + b) mod p."""
    p = len(family.tag_space)
    table = (family.g[:, :, None] + np.arange(p)) % p
    return table.reshape(len(family.message_space), family.key_space_size).astype(np.min_scalar_type(p - 1))


def scan_entry_settings(family):
    """SCAN_ENTRIES values giving one observed message per block, a block
    size that does not divide |M| (where |M| > 2 allows one), and one block."""
    n_msgs, n_tags = len(family.message_space), len(family.tag_space)
    per_message = n_msgs * max(family.key_space_size, n_tags**2)
    ragged = next(size for size in itertools.count(2) if n_msgs % size)
    return {"one": 1, "ragged": ragged * per_message, "all": 1 << 30}


def draw_custom_family(data) -> HashFamily:
    """A small CUSTOM family over hashable labels; its few tags give many ties."""
    n_keys = data.draw(st.integers(1, 12), label="n_keys")
    label = st.one_of(st.text(max_size=2), st.tuples(st.integers(0, 2), st.booleans()))
    messages = data.draw(st.lists(label, min_size=2, max_size=5, unique=True), label="messages")
    tags = data.draw(
        st.lists(st.one_of(st.text(max_size=2), st.frozensets(st.integers(0, 2))), min_size=1, max_size=4, unique=True),
        label="tags",
    )
    row = st.lists(st.sampled_from(tags), min_size=n_keys, max_size=n_keys)
    rows = data.draw(st.lists(row, min_size=len(messages), max_size=len(messages)), label="rows")
    return table_family(rows, messages, tags)


PRIMES_TO_61 = [p for p in range(2, 62) if all(p % f for f in range(2, p))]
# poly (p, blocks) with p**blocks <= 2**12 whose per-call table (|M|*|K| cells) stays under 2**18
POLY_TABLE_CASES = [
    (p, blocks) for p in PRIMES_TO_61 for blocks in range(1, 13) if p**blocks <= 1 << 12 and p ** (blocks + 2) <= 1 << 18
]
BUILTIN_FAMILIES = (
    [make_affine_family(p) for p in (2, 3, 5, 7, 11, 13)]
    + [make_poly_family(p, blocks) for p, blocks in ((3, 2), (5, 2), (3, 3))]
    + [constant_family()]
)
# affine (blocks None) and poly (p, blocks) whose generic scan stays cheap: |M|**2 * p**2 <= 2**20
STRUCTURED_CASES = [(p, None) for p in PRIMES_TO_61 if p**4 <= 1 << 20] + [
    (p, blocks) for p in PRIMES_TO_61 for blocks in range(1, 21) if p ** (2 * blocks + 2) <= 1 << 20
]


def without_g(family: HashFamily) -> HashFamily:
    """The family's fields other than ``g`` rebuilt as a ``HashFamily``, which sets no ``g``
    table, so it takes the generic scan."""
    rebuilt = HashFamily(**{key: value for key, value in vars(family).items() if key != "g"})
    assert rebuilt.g is None
    return rebuilt


class TestFamilyConstruction:
    def test_affine_p2_counts(self):
        fam = make_affine_family(2)
        assert fam.key_space_size == 4
        assert fam.tag_space == (0, 1)
        rows = reference_tag_rows(fam)
        counts = Counter(zip(rows[0], rows[1]))
        assert sorted(counts) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert all(c == 1 for c in counts.values())

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_affine_strongly_universal(self, p):
        assert is_strongly_universal(make_affine_family(p))

    def test_poly_kind_and_epsilon(self):
        fam = make_poly_family(5, 2)
        assert fam.family_kind is FamilyKind.EPSILON_ASU
        assert fam.epsilon == Fraction(2, 5)
        assert len(fam.message_space) == 25

    @pytest.mark.parametrize("p", [4, 1, 9, (1 << 20) + 7])
    def test_bad_modulus_rejected(self, p):
        with pytest.raises(ParameterError):
            make_affine_family(p)

    def test_poly_cap(self):
        with pytest.raises(ParameterError):
            make_poly_family(2, 21)  # 21 blocks, over the bound of BLOCKS
        with pytest.raises(ParameterError):
            make_poly_family(5, 0)

    @pytest.mark.parametrize("blocks", [2**64, 10**400], ids=["2**64", "10**400"])
    def test_huge_block_count_rejected_before_the_power(self, blocks):
        # blocks is bounded by the config key's bound before p**blocks is formed, which never returned
        assert BLOCKS == cli.CLASSICAL_MAC_SPEC.fields["blocks"]._replace(default=None, only_with=())
        with pytest.raises(ParameterError, match=rf"^block count must be <= {BLOCKS.hi}, got {blocks}$"):
            make_poly_family(3, blocks)

    def test_modulus_field_is_the_config_key(self):
        assert cli.CLASSICAL_MAC_SPEC.fields["p"] is MODULUS

    @pytest.mark.parametrize("blocks", [True, False, 2.0])
    def test_poly_blocks_must_be_int(self, blocks):
        with pytest.raises(ParameterError):
            make_poly_family(5, blocks)

    @pytest.mark.parametrize("size", [True, False, 2.0, "4"], ids=repr)
    def test_key_space_size_must_be_int(self, size):
        # a bool is not read as a key space of size 1 or 0
        with pytest.raises(ParameterError, match="^key_space_size must be an integer, got "):
            HashFamily(size, (0, 1), (0,), lambda k, m: 0, FamilyKind.CUSTOM)

    def test_family_validation(self):
        with pytest.raises(ParameterError):
            HashFamily(
                key_space_size=0,
                message_space=(0, 1),
                tag_space=(0,),
                evaluate=lambda k, m: 0,
                family_kind=FamilyKind.CUSTOM,
            )
        with pytest.raises(ParameterError):
            HashFamily(
                key_space_size=2,
                message_space=(0,),  # |M| must exceed 1
                tag_space=(0,),
                evaluate=lambda k, m: 0,
                family_kind=FamilyKind.CUSTOM,
            )
        with pytest.raises(ParameterError):
            HashFamily(
                key_space_size=2,
                message_space=(0, 1),
                tag_space=(0, 1),
                evaluate=lambda k, m: 0,
                family_kind=FamilyKind.EPSILON_ASU,  # missing epsilon
            )


class TestTagAndVerify:
    def test_constant_key(self):
        fam = make_affine_family(5)
        assert fam.evaluate(0 * 5 + 3, 4) == 3  # a=0, b=3: constant b

    def test_identity_key(self):
        fam = make_affine_family(5)
        assert fam.evaluate(1 * 5 + 0, 4) == 4  # a=1, b=0

    def test_poly_evaluation(self):
        fam = make_poly_family(5, 2)
        # key (a=2, b=1), m=(3,4): 1 + 3*2 + 4*4 = 23 = 3 mod 5
        assert fam.evaluate(2 * 5 + 1, (3, 4)) == 3
        # cross-check with the reversed evaluation order
        a, b, m = 2, 1, (3, 4)
        alt = (b + sum(mi * pow(a, i + 1, 5) for i, mi in enumerate(m))) % 5
        assert alt == 3

    def test_accepting_fraction_matches_p0(self):
        fam = make_affine_family(5)
        report = deception_probabilities(fam)
        m, t = report.argmax_impersonation
        accepting = sum(fam.evaluate(k, m) == t for k in range(fam.key_space_size))
        assert Fraction(accepting, fam.key_space_size) == report.p0


class TestDeceptionProbabilities:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_affine_floor(self, p):
        report = deception_probabilities(make_affine_family(p))
        assert report.p0 == Fraction(1, p)
        assert report.p1 == Fraction(1, p)
        assert isinstance(report.p0, Fraction) and isinstance(report.p1, Fraction)

    def test_affine_argmax_first_maximizer(self):
        report = deception_probabilities(make_affine_family(5))
        assert report.argmax_impersonation == (0, 0)
        assert report.argmax_substitution == ((0, 0), (1, 0))

    def test_poly_degree_one_matches_affine(self):
        report = deception_probabilities(make_poly_family(5, 1))
        assert report.p0 == Fraction(1, 5)
        assert report.p1 == Fraction(1, 5)

    def test_poly_p5_l2(self):
        fam = make_poly_family(5, 2)
        report = deception_probabilities(fam)
        assert report.p0 == Fraction(1, 5)
        assert report.p1 == Fraction(2, 5)
        assert report.p1 <= fam.epsilon

    def test_poly_p7_l2_conditional_count_oracle(self):
        # independent oracle: direct conditional counting over all 49 keys
        fam = make_poly_family(7, 2)
        report = deception_probabilities(fam)
        best = Fraction(0)
        for m in fam.message_space:
            for m2 in fam.message_space:
                if m2 == m:
                    continue
                for t in fam.tag_space:
                    support = [
                        k for k in range(fam.key_space_size) if fam.evaluate(k, m) == t
                    ]
                    if not support:
                        continue
                    for t2 in fam.tag_space:
                        consistent = sum(fam.evaluate(k, m2) == t2 for k in support)
                        best = max(best, Fraction(consistent, len(support)))
        assert report.p1 == best == Fraction(2, 7)

    def test_constant_family_degenerate(self):
        report = deception_probabilities(constant_family())
        assert report.p0 == 1
        assert report.p1 == 1

    @pytest.mark.parametrize(
        "family",
        [make_affine_family(3), make_affine_family(5), make_poly_family(3, 2), constant_family()],
    )
    def test_p0_floor(self, family):
        report = deception_probabilities(family)
        assert report.p0 >= Fraction(1, len(family.tag_space))

    def test_strongly_universal_hits_floor_exactly(self):
        for p in (2, 3, 5, 7):
            fam = make_affine_family(p)
            report = deception_probabilities(fam)
            assert report.p0 == report.p1 == Fraction(1, len(fam.tag_space))

    def test_enumeration_cap(self):
        fam = HashFamily(
            key_space_size=1 << 21,
            message_space=(0, 1, 2, 3),
            tag_space=(0, 1),
            evaluate=lambda k, m: 0,
            family_kind=FamilyKind.CUSTOM,
        )
        with pytest.raises(ParameterError):
            deception_probabilities(fam)

    def test_work_cap_checked_before_evaluation(self):
        def evaluate(k, m):
            raise AssertionError("evaluated past the work cap")

        fam = HashFamily(
            key_space_size=1,
            message_space=tuple(range(1 << 12)),
            tag_space=tuple(range(16)),
            evaluate=evaluate,
            family_kind=FamilyKind.CUSTOM,
        )
        assert (1 << 12) * ((1 << 12) - 1) * 16**2 > WORK_CAP
        with pytest.raises(ParameterError, match="work cap"):
            deception_probabilities(fam)

    def test_strong_universality_scan_under_the_same_caps(self):
        def evaluate(k, m):
            raise AssertionError("evaluated past a cap")

        # |T|**2 divides |K| in both, so the check reaches its scan
        over_work = HashFamily(256, tuple(range(1 << 12)), tuple(range(16)), evaluate, FamilyKind.CUSTOM)
        over_enumeration = HashFamily(1 << 21, (0, 1, 2, 3), (0, 1), evaluate, FamilyKind.CUSTOM)
        with pytest.raises(ParameterError, match="work cap"):
            is_strongly_universal(over_work)
        with pytest.raises(ParameterError, match="enumeration cap"):
            is_strongly_universal(over_enumeration)

    @pytest.mark.parametrize(
        "family,expected",
        [(make_affine_family(2), True), (make_affine_family(101), True), (make_poly_family(5, 2), False),
         (make_poly_family(7, 2), False)],
        ids=["affine-p2", "affine-p101", "poly-p5-l2", "poly-p7-l2"],
    )
    def test_strong_universality_of_g_families_read_off_the_report(self, family, expected, monkeypatch):
        counter = CallCounter(monkeypatch)
        for name in ("_offset_table", "_joint_blocks"):
            counter.count(classical_mac, name)
        assert is_strongly_universal(family) is expected
        assert counter.calls == {"_offset_table": 0, "_joint_blocks": 0}

    def test_key_count_off_the_tag_square_rejected_before_evaluation_and_caps(self):
        def evaluate(k, m):
            raise AssertionError("evaluated a family whose |T|**2 does not divide |K|")

        fam = HashFamily((1 << 21) + 1, tuple(range(1 << 12)), tuple(range(16)), evaluate, FamilyKind.CUSTOM)
        assert fam.key_space_size % 16**2 and (1 << 12) * ((1 << 12) - 1) * 16**2 > WORK_CAP
        assert fam.key_space_size * (1 << 12) > ENUMERATION_CAP
        assert is_strongly_universal(fam) is False

    def test_work_cap_admits_affine_p101(self):
        report = deception_probabilities(make_affine_family(101))
        assert report.p0 == report.p1 == Fraction(1, 101)
        assert report.argmax_substitution == ((0, 0), (1, 0))

    def test_tag_outside_tag_space_rejected(self):
        fam = HashFamily(
            key_space_size=4,
            message_space=(0, 1),
            tag_space=(0, 1),
            evaluate=lambda k, m: 7 if k == 0 else (k + m) % 2,
            family_kind=FamilyKind.CUSTOM,
        )
        with pytest.raises(ParameterError, match=r"key 0 tags message 0 with 7"):
            deception_probabilities(fam)
        with pytest.raises(ParameterError, match=r"key 0 tags message 0 with 7"):
            is_strongly_universal(fam)

    def test_report_json(self):
        report = deception_probabilities(make_affine_family(5))
        doc = jsonable(vars(report))
        assert doc["p0"] == "1/5" and doc["p1"] == "1/5"
        assert doc["argmax_substitution"] == [[0, 0], [1, 0]]
        poly_doc = jsonable(vars(deception_probabilities(make_poly_family(5, 2))))
        assert poly_doc["p1"] == "2/5"
        assert poly_doc["argmax_impersonation"] == [[0, 0], 0]

    def test_report_bounds_validated(self):
        with pytest.raises(ParameterError):
            DeceptionReport(
                p0=Fraction(0),
                p1=Fraction(0),
                argmax_impersonation=(0, 0),
                argmax_substitution=((0, 0), (1, 0)),
            )


class TestReferenceOracle:
    @pytest.mark.parametrize("family", BUILTIN_FAMILIES, ids=lambda family: family.name)
    def test_builtin_families(self, family):
        strongly_universal = reference_strongly_universal(family)
        for variant in (family, without_g(family)):
            assert_matches_reference(variant)
            assert is_strongly_universal(variant) == strongly_universal

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_custom_families(self, data):
        family = draw_custom_family(data)
        assert_matches_reference(family)
        assert is_strongly_universal(family) == reference_strongly_universal(family)


class TestNumpyKernels:
    """The tag tables ``g`` gives the built-in families against their
    per-call ``evaluate``, the structured report against the generic scan,
    and the blocked joint-count scan against the slow reference at every
    block size."""

    @settings(max_examples=40, deadline=None)
    @given(p=st.sampled_from(PRIMES_TO_61))
    def test_affine_table_matches_evaluate(self, p):
        family = make_affine_family(p)
        table, expected = g_table(family), per_call_table(family)
        assert table.dtype == expected.dtype and np.array_equal(table, expected)

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(POLY_TABLE_CASES))
    def test_poly_table_matches_evaluate(self, case):
        family = make_poly_family(*case)
        table, expected = g_table(family), per_call_table(family)
        assert table.dtype == expected.dtype and np.array_equal(table, expected)

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(STRUCTURED_CASES))
    @example(case=(11, None))  # the classical-ladder points
    @example(case=(17, None))
    @example(case=(23, None))
    @example(case=(7, 2))
    @example(case=(3, 5))
    @example(case=(5, None))  # the affine-p5 and poly-p5-l2 built-in scenarios
    @example(case=(5, 2))
    def test_structured_report_equals_generic_scan(self, case):
        p, blocks = case
        family = make_affine_family(p) if blocks is None else make_poly_family(p, blocks)
        report = deception_probabilities(family)
        assert isinstance(report.p0, Fraction) and isinstance(report.p1, Fraction)
        assert report == deception_probabilities(without_g(family))
        # no caller can hand a family a table of its own, so none can choose the structured path
        with pytest.raises(TypeError, match="'g'"):
            HashFamily(**{**vars(family), "g": np.zeros_like(family.g)})

    @pytest.mark.parametrize("family", BUILTIN_FAMILIES, ids=lambda family: family.name)
    def test_builtin_families_under_every_block_size(self, family):
        expected = reference_deception_probabilities(family)
        strongly_universal = reference_strongly_universal(family)
        for name, entries in scan_entry_settings(family).items():
            with mock.patch.object(classical_mac, "SCAN_ENTRIES", entries):
                for variant in (family, without_g(family)):
                    assert deception_probabilities(variant) == expected, name
                    assert is_strongly_universal(variant) == strongly_universal, name

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_custom_families_under_every_block_size(self, data):
        family = draw_custom_family(data)
        expected = reference_deception_probabilities(family)
        strongly_universal = reference_strongly_universal(family)
        for name, entries in scan_entry_settings(family).items():
            with mock.patch.object(classical_mac, "SCAN_ENTRIES", entries):
                assert deception_probabilities(family) == expected, name
                assert is_strongly_universal(family) == strongly_universal, name


class TestKeyLengthBound:
    def test_reference_values(self):
        assert key_length_lower_bound(1, Fraction(1, 16)) == 8.0
        assert key_length_lower_bound(0, 1) == 0.0
        assert key_length_lower_bound(2, Fraction(1, 2)) == 3.0

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_affine_meets_bound_with_equality(self, p):
        fam = make_affine_family(p)
        actual_bits = math.log2(fam.key_space_size)
        bound = key_length_lower_bound(1, Fraction(1, len(fam.tag_space)))
        assert actual_bits == pytest.approx(bound, abs=1e-12)

    def test_bad_arguments(self):
        with pytest.raises(ParameterError):
            key_length_lower_bound(-1, Fraction(1, 2))
        with pytest.raises(ParameterError):
            key_length_lower_bound(1, Fraction(3, 2))
        with pytest.raises(ParameterError, match="outside"):
            key_length_lower_bound(1, Fraction(10**20 + 1, 10**20))  # 1.0 as a float: the range test is exact
        with pytest.raises(ParameterError):
            key_length_lower_bound(1, 0)

    @pytest.mark.parametrize("epsilon", [True, "1/16", None, math.nan, math.inf, 10**400, Fraction(1, 10**400)])
    def test_epsilon_read_as_a_real_number(self, epsilon):
        with pytest.raises(ParameterError, match="^epsilon "):
            key_length_lower_bound(1, epsilon)

    def test_epsilon_underflowing_to_zero_named(self):
        with pytest.raises(ParameterError, match=rf"^epsilon 1/{2**1076} is 0\.0 as a float$"):
            key_length_lower_bound(1, Fraction(1, 2**1076))
        assert key_length_lower_bound(1, Fraction(1, 2**1074)) == 2148.0  # the smallest subnormal

    @pytest.mark.parametrize("epsilon", [Fraction(1, 3), 0.1, np.float64(0.1), np.float32(0.5), np.int64(1)])
    def test_epsilon_bits_are_log2_of_the_value(self, epsilon):
        # the bound of Fraction(1, 3) is log2 of the float 1/3, not log2(3), which differs in the last bit
        assert key_length_lower_bound(1, epsilon) == 2 * abs(math.log2(float(epsilon)))

    @pytest.mark.parametrize("observed_pairs", [True, False])
    def test_bool_pair_count_rejected(self, observed_pairs):
        with pytest.raises(ParameterError, match="observed pair count"):
            key_length_lower_bound(observed_pairs, Fraction(1, 2))
