"""Brute-force analysis of one-time authentication from keyed hash families.

A family maps (key, message) -> tag over explicit finite spaces. Deception
probabilities are ratios of key counts, so everything here is exact: keys
are counted in integer numpy tables and every probability is a
`fractions.Fraction`; floats appear only in the key-length accounting, which
is measured in bits.

Two concrete constructions are provided:

* the affine family h_(a,b)(m) = a*m + b mod p over a prime field, which is
  strongly universal and meets the 1/|T| floor for both impersonation and
  substitution, and
* the polynomial family h_(a,b)(m_1..m_l) = b + sum_i m_i * a^i mod p, an
  l/p-almost-strongly-universal family trading substitution slack for a key
  that no longer grows with the message length.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from .errors import ParameterError

ENUMERATION_CAP = 1 << 22  # |K| * |M| ceiling for brute-force analysis
PRIME_CAP = 1 << 20
MESSAGE_SPACE_CAP = 1 << 20  # p**blocks ceiling for the polynomial family
WORK_CAP = 1 << 27  # |M| * (|M| - 1) * |T|**2 ceiling for the substitution scan


class FamilyKind(Enum):
    STRONGLY_UNIVERSAL = "strongly-universal"
    EPSILON_ASU = "epsilon-asu"
    CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class HashFamily:
    """Keyed function family over explicit finite key/message/tag spaces.

    ``evaluate`` must be total on [0, key_space_size) x message_space and
    return elements of tag_space. ``epsilon`` carries the substitution bound
    of an almost-strongly-universal family and is required exactly for
    ``FamilyKind.EPSILON_ASU``.
    """

    key_space_size: int
    message_space: tuple
    tag_space: tuple
    evaluate: Callable[[int, Any], Any]
    family_kind: FamilyKind
    epsilon: Fraction | None = None
    name: str = "custom"

    def __post_init__(self):
        if not (isinstance(self.key_space_size, int) and self.key_space_size >= 1):
            raise ParameterError(f"key_space_size must be a positive integer, got {self.key_space_size!r}")
        if len(self.message_space) <= 1:
            raise ParameterError("message space must contain more than one message")
        if not self.tag_space:
            raise ParameterError("tag space must be nonempty")
        if len(set(self.message_space)) != len(self.message_space):
            raise ParameterError("message space contains duplicates")
        if len(set(self.tag_space)) != len(self.tag_space):
            raise ParameterError("tag space contains duplicates")
        if self.family_kind is FamilyKind.EPSILON_ASU:
            if not isinstance(self.epsilon, Fraction) or self.epsilon <= 0:
                raise ParameterError("epsilon-ASU families need a positive Fraction epsilon")
        elif self.epsilon is not None:
            raise ParameterError("epsilon is only meaningful for epsilon-ASU families")


@dataclass(frozen=True)
class DeceptionReport:
    """Exact worst-case forgery probabilities with their witnessing pairs.

    p0: best impersonation success, max over forged (message, tag) of the
        fraction of keys accepting it.
    p1: best substitution success, max over observed valid pairs (m, t) with
        nonzero key support and forged (m', t'), m' != m, of the conditional
        fraction of consistent keys.
    Argmax witnesses are the first maximizers in enumeration order.
    """

    p0: Fraction
    p1: Fraction
    argmax_impersonation: tuple
    argmax_substitution: tuple

    def __post_init__(self):
        if not 0 < self.p0 <= 1:
            raise ParameterError(f"p0 = {self.p0} outside (0, 1]")
        if not 0 <= self.p1 <= 1:
            raise ParameterError(f"p1 = {self.p1} outside [0, 1]")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _check_prime(p) -> int:
    if not isinstance(p, int) or isinstance(p, bool):
        raise ParameterError(f"modulus must be an integer, got {p!r}")
    if not 2 <= p <= PRIME_CAP:
        raise ParameterError(f"modulus {p} outside [2, {PRIME_CAP}]")
    if not _is_prime(p):
        raise ParameterError(f"modulus {p} is not prime")
    return p


def make_affine_family(p: int) -> HashFamily:
    """Strongly universal family h_(a,b)(m) = a*m + b mod p, key (a, b) in Z_p^2.

    Key index k encodes (a, b) = divmod(k, p); messages and tags are Z_p.
    """
    p = _check_prime(p)

    def evaluate(key_index: int, message: int):
        a, b = divmod(key_index, p)
        return (a * message + b) % p

    return HashFamily(
        key_space_size=p * p,
        message_space=tuple(range(p)),
        tag_space=tuple(range(p)),
        evaluate=evaluate,
        family_kind=FamilyKind.STRONGLY_UNIVERSAL,
        name=f"affine-p{p}",
    )


def make_poly_family(p: int, blocks: int) -> HashFamily:
    """blocks/p-ASU family h_(a,b)(m) = b + sum_i m_i * a^i mod p.

    Messages are tuples in Z_p^blocks (lexicographic order); key (a, b) is
    decoded as for the affine family. blocks = 1 coincides with the affine
    family's behavior.
    """
    p = _check_prime(p)
    if not isinstance(blocks, int) or isinstance(blocks, bool) or blocks < 1:
        raise ParameterError(f"block count must be a positive integer, got {blocks!r}")
    if p**blocks > MESSAGE_SPACE_CAP:
        raise ParameterError(f"message space p**blocks = {p**blocks} exceeds cap {MESSAGE_SPACE_CAP}")

    def evaluate(key_index: int, message: tuple):
        a, b = divmod(key_index, p)
        acc, power = b, 1
        for part in message:
            power = (power * a) % p
            acc += part * power
        return acc % p

    return HashFamily(
        key_space_size=p * p,
        message_space=tuple(itertools.product(range(p), repeat=blocks)),
        tag_space=tuple(range(p)),
        evaluate=evaluate,
        family_kind=FamilyKind.EPSILON_ASU,
        epsilon=Fraction(blocks, p),
        name=f"poly-p{p}-l{blocks}",
    )


def _tag_table(family: HashFamily, messages) -> np.ndarray:
    """len(messages) x |K| array whose cell (i, k) is the position of
    h(k, messages[i]) in the tag space."""
    n_keys = family.key_space_size
    if n_keys * len(messages) > ENUMERATION_CAP:
        raise ParameterError(f"|K|*|M| = {n_keys * len(messages)} exceeds enumeration cap {ENUMERATION_CAP}")
    position = {t: i for i, t in enumerate(family.tag_space)}
    evaluate = family.evaluate
    table = np.empty((len(messages), n_keys), dtype=np.min_scalar_type(len(family.tag_space) - 1))
    for row, m in zip(table, messages):
        try:
            row[:] = [position[evaluate(k, m)] for k in range(n_keys)]
        except KeyError:
            for k in range(n_keys):
                value = evaluate(k, m)
                if value not in position:
                    raise ParameterError(
                        f"key {k} tags message {m!r} with {value!r}, which is not in the tag space"
                    ) from None
            raise
    return table


def _pair_counts(row: np.ndarray, row2: np.ndarray, n_tags: int) -> np.ndarray:
    """Flat |T|^2 key counts of (row, row2) tag-index pairs, t-major."""
    return np.bincount(row.astype(np.intp) * n_tags + row2, minlength=n_tags * n_tags)


def deception_probabilities(family: HashFamily) -> DeceptionReport:
    """Exact impersonation and substitution probabilities by key enumeration.

    The family is evaluated once into a |M| x |K| table of tag indices.
    p0 comes from the |M| x |T| count table of one bincount per message.
    For each observed message m, one bincount gives the joint key counts
    over (forged message, observed tag, forged tag); conditional fractions
    are compared by integer cross-multiplication, and a Fraction is formed
    only for the maximum. Counts never exceed |K| <= ENUMERATION_CAP, so
    every product fits in int64.

    Before any evaluation, |K|*|M| must not exceed ENUMERATION_CAP
    (2**22) and the substitution scan's |M|*(|M|-1)*|T|**2 cells must not
    exceed WORK_CAP (2**27, enough for the affine family up to p = 107).
    The joint count table of one observed message holds |M|*|T|**2 int64
    counts, at most 8*WORK_CAP/(|M|-1) bytes.

    Ties are broken toward the first maximizer: impersonation scans
    (message, tag) in space order; substitution scans
    (observed message, forged message, observed tag, forged tag).
    Observed pairs reachable by no key are skipped (the conditional is
    undefined there).
    """
    messages, tags = family.message_space, family.tag_space
    n_keys, n_msgs, n_tags = family.key_space_size, len(messages), len(tags)
    cells = n_msgs * (n_msgs - 1) * n_tags**2
    if cells > WORK_CAP:
        raise ParameterError(f"|M|*(|M|-1)*|T|^2 = {cells} exceeds work cap {WORK_CAP}")
    table = _tag_table(family, messages)

    counts = np.array([np.bincount(row, minlength=n_tags) for row in table])
    best_m, best_t = divmod(int(counts.argmax()), n_tags)
    p0 = Fraction(int(counts[best_m, best_t]), n_keys)

    # joint[i][j, t, t2] = |{k : h(k, m_i) = t and h(k, m_j) = t2}|
    forged = np.arange(n_msgs, dtype=np.intp)[:, None] * (n_tags * n_tags) + table

    def joint(i: int) -> np.ndarray:
        observed = table[i].astype(np.intp) * n_tags
        cells_i = np.bincount((forged + observed).ravel(), minlength=n_msgs * n_tags * n_tags)
        cells_i = cells_i.reshape(n_msgs, n_tags, n_tags)
        cells_i[i] = 0  # m' == m is no forgery; every other maximum is positive
        return cells_i

    best_num, best_den, best_i = -1, 1, None
    for i in range(n_msgs):
        top = joint(i).max(axis=(0, 2)).tolist()
        for c, s in zip(top, counts[i].tolist()):
            if s and c * best_den > best_num * s:
                best_num, best_den, best_i = c, s, i

    support = counts[best_i][None, :, None]
    hits = (joint(best_i) * best_den == best_num * support) & (support > 0)
    j, t, t2 = np.unravel_index(int(hits.argmax()), hits.shape)
    return DeceptionReport(
        p0=p0,
        p1=Fraction(best_num, best_den),
        argmax_impersonation=(messages[best_m], tags[best_t]),
        argmax_substitution=((messages[best_i], tags[t]), (messages[j], tags[t2])),
    )


def is_strongly_universal(family: HashFamily) -> bool:
    """Exhaustive check that every (t, t2) cell holds exactly |K|/|T|^2 keys."""
    n_keys, n_tags = family.key_space_size, len(family.tag_space)
    cell, rem = divmod(n_keys, n_tags**2)
    if rem != 0:
        return False
    table = _tag_table(family, family.message_space)
    return all(
        (_pair_counts(table[i], table[j], n_tags) == cell).all()
        for i, j in itertools.combinations(range(len(table)), 2)
    )


def key_length_lower_bound(observed_pairs: int, epsilon) -> float:
    """Minimum key length in bits for forgery probability epsilon after
    observing the given number of valid pairs: (l + 1) * |log2(epsilon)|."""
    if not isinstance(observed_pairs, int) or observed_pairs < 0:
        raise ParameterError(f"observed pair count must be a nonnegative integer, got {observed_pairs!r}")
    try:
        eps = Fraction(epsilon)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"epsilon {epsilon!r} is not a rational value") from exc
    if not 0 < eps <= 1:
        raise ParameterError(f"epsilon {eps} outside (0, 1]")
    return (observed_pairs + 1) * abs(math.log2(eps))
