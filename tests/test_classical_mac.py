import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from authsim.classical_mac import (
    ENUMERATION_CAP,
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
            make_poly_family(2, 21)  # 2**21 messages over the cap
        with pytest.raises(ParameterError):
            make_poly_family(5, 0)

    @pytest.mark.parametrize("blocks", [True, False, 2.0])
    def test_poly_blocks_must_be_int(self, blocks):
        with pytest.raises(ParameterError):
            make_poly_family(5, blocks)

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
    @pytest.mark.parametrize(
        "family",
        [make_affine_family(p) for p in (2, 3, 5, 7, 11, 13)]
        + [make_poly_family(p, blocks) for p, blocks in ((3, 2), (5, 2), (3, 3))]
        + [constant_family()],
        ids=lambda family: family.name,
    )
    def test_builtin_families(self, family):
        assert_matches_reference(family)
        assert is_strongly_universal(family) == reference_strongly_universal(family)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_custom_families(self, data):
        n_keys = data.draw(st.integers(1, 12), label="n_keys")
        label = st.one_of(st.text(max_size=2), st.tuples(st.integers(0, 2), st.booleans()))
        messages = data.draw(st.lists(label, min_size=2, max_size=5, unique=True), label="messages")
        tags = data.draw(
            st.lists(st.one_of(st.text(max_size=2), st.frozensets(st.integers(0, 2))), min_size=1, max_size=4, unique=True),
            label="tags",
        )
        row = st.lists(st.sampled_from(tags), min_size=n_keys, max_size=n_keys)
        rows = data.draw(st.lists(row, min_size=len(messages), max_size=len(messages)), label="rows")
        family = table_family(rows, messages, tags)
        assert_matches_reference(family)
        assert is_strongly_universal(family) == reference_strongly_universal(family)


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
        with pytest.raises(ParameterError):
            key_length_lower_bound(1, 0)
