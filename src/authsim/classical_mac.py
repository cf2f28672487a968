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
import sys
from enum import Enum
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from .errors import ParameterError
from .spec import Field, read_value

ENUMERATION_CAP = 1 << 22  # |K| * |M| ceiling for brute-force analysis
PRIME_CAP = 1 << 20
MESSAGE_SPACE_CAP = 1 << 20  # p**blocks * p ceiling for the |M| x p table of both built-in families
WORK_CAP = 1 << 27  # |M| * (|M| - 1) * |T|**2 ceiling for the substitution scan
SCAN_ENTRIES = 1 << 14  # entries per joint-count block of observed messages, at least one message
MODULUS = Field(int, lo=2, hi=PRIME_CAP)  # p, a config key too
# p >= 2 and p**blocks * p <= MESSAGE_SPACE_CAP bound blocks before p**blocks is computed
BLOCKS = Field(int, lo=1, hi=MESSAGE_SPACE_CAP.bit_length() - 1)
_KEY_COUNT, _PAIR_COUNT, _REAL = Field(int, lo=1), Field(int, lo=0, hi=sys.float_info.max), Field(float)


class FamilyKind(Enum):
    STRONGLY_UNIVERSAL = "strongly-universal"
    EPSILON_ASU = "epsilon-asu"
    CUSTOM = "custom"


class HashFamily:
    """Keyed function family over explicit finite key/message/tag spaces.

    ``evaluate`` must be total on [0, key_space_size) x message_space and
    return elements of tag_space. ``epsilon`` carries the substitution bound
    of an almost-strongly-universal family and is required exactly for
    ``FamilyKind.EPSILON_ASU``. ``g``, set only by ``make_affine_family`` and
    ``make_poly_family`` on the family they build, is the |M| x p table whose key
    a*p + b tags message i with (g[i, a] + b) mod p, g linear over message_space =
    Z_p^blocks (from the zero message) and tag_space = range(p); it is None for
    every other family, which is decided from ``evaluate``.
    """

    def __init__(
        self, key_space_size: int, message_space: tuple, tag_space: tuple, evaluate: Callable[[int, Any], Any],
        family_kind: FamilyKind, epsilon: Fraction | None = None, name: str = "custom"
    ):
        key_space_size = read_value(_KEY_COUNT, key_space_size, "key_space_size")
        if len(message_space) <= 1:
            raise ParameterError("message space must contain more than one message")
        if not tag_space:
            raise ParameterError("tag space must be nonempty")
        if len(set(message_space)) != len(message_space):
            raise ParameterError("message space contains duplicates")
        if len(set(tag_space)) != len(tag_space):
            raise ParameterError("tag space contains duplicates")
        if family_kind is FamilyKind.EPSILON_ASU:
            if not isinstance(epsilon, Fraction) or epsilon <= 0:
                raise ParameterError("epsilon-ASU families need a positive Fraction epsilon")
        elif epsilon is not None:
            raise ParameterError("epsilon is only meaningful for epsilon-ASU families")
        self.key_space_size, self.message_space, self.tag_space, self.evaluate = (
            key_space_size, message_space, tag_space, evaluate
        )
        self.family_kind, self.epsilon, self.name, self.g = family_kind, epsilon, name, None


class DeceptionReport:
    """Exact worst-case forgery probabilities with their witnessing pairs.

    p0: best impersonation success, max over forged (message, tag) of the
        fraction of keys accepting it.
    p1: best substitution success, max over observed valid pairs (m, t) with
        nonzero key support and forged (m', t'), m' != m, of the conditional
        fraction of consistent keys.
    Argmax witnesses are the first maximizers in enumeration order.
    """

    def __init__(self, p0: Fraction, p1: Fraction, argmax_impersonation: tuple, argmax_substitution: tuple):
        if not 0 < p0 <= 1:
            raise ParameterError(f"p0 = {p0} outside (0, 1]")
        if not 0 <= p1 <= 1:
            raise ParameterError(f"p1 = {p1} outside [0, 1]")
        self.p0, self.p1 = p0, p1
        self.argmax_impersonation, self.argmax_substitution = argmax_impersonation, argmax_substitution

    def __eq__(self, other):
        return type(other) is DeceptionReport and vars(other) == vars(self)

    def __hash__(self):
        return hash(tuple(vars(self).values()))


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
    if not _is_prime(p := read_value(MODULUS, p, "modulus")):
        raise ParameterError(f"modulus {p} is not prime")
    return p


def _poly_g(p: int, blocks: int) -> np.ndarray:
    """The poly family's g[i, a] = sum_j m_ij * a**j mod p (affine at blocks = 1), one message digit at a
    time, most significant first, once p**blocks * p <= MESSAGE_SPACE_CAP; int64 is exact, as a**j < 2**20."""
    if p**blocks * p > MESSAGE_SPACE_CAP:
        raise ParameterError(f"family table p**blocks * p = {p**blocks * p} exceeds cap {MESSAGE_SPACE_CAP}")
    a, g = np.arange(p, dtype=np.int64), np.zeros((1, p), dtype=np.int64)
    for j in range(1, blocks + 1):
        g = ((g[:, None, :] + np.outer(a, a**j)) % p).reshape(-1, p)
    return g


def make_affine_family(p: int) -> HashFamily:
    """Strongly universal family h_(a,b)(m) = a*m + b mod p, key (a, b) in Z_p^2.

    Key index k encodes (a, b) = divmod(k, p); messages and tags are Z_p; the p x p table caps p at 1021.
    """
    p = _check_prime(p)
    g = _poly_g(p, 1)

    def evaluate(key_index: int, message: int):
        a, b = divmod(key_index, p)
        return (a * message + b) % p

    family = HashFamily(
        key_space_size=p * p,
        message_space=tuple(range(p)),
        tag_space=tuple(range(p)),
        evaluate=evaluate,
        family_kind=FamilyKind.STRONGLY_UNIVERSAL,
        name=f"affine-p{p}",
    )
    family.g = g
    return family


def make_poly_family(p: int, blocks: int) -> HashFamily:
    """blocks/p-ASU family h_(a,b)(m) = b + sum_i m_i * a^i mod p.

    Messages are tuples in Z_p^blocks (lexicographic order); key (a, b) is
    decoded as for the affine family. blocks = 1 coincides with the affine family's behavior.
    The capped |M| x p table of ``_poly_g`` is built before the message tuples.
    """
    p = _check_prime(p)
    blocks = read_value(BLOCKS, blocks, "block count")
    g = _poly_g(p, blocks)

    def evaluate(key_index: int, message: tuple):
        a, b = divmod(key_index, p)
        acc, power = b, 1
        for part in message:
            power = (power * a) % p
            acc += part * power
        return acc % p

    family = HashFamily(
        key_space_size=p * p,
        message_space=tuple(itertools.product(range(p), repeat=blocks)),
        tag_space=tuple(range(p)),
        evaluate=evaluate,
        family_kind=FamilyKind.EPSILON_ASU,
        epsilon=Fraction(blocks, p),
        name=f"poly-p{p}-l{blocks}",
    )
    family.g = g
    return family


def check_caps(n_keys: int, n_msgs: int, n_tags: int) -> None:
    """Raise unless a family of these sizes fits the brute-force caps: the
    |M|*(|M|-1)*|T|**2 cells of the joint-count scan within WORK_CAP, then
    |K|*|M| within ENUMERATION_CAP. Needs only the sizes, so a caller can
    check them before a family's message space is built."""
    cells = n_msgs * (n_msgs - 1) * n_tags**2
    if cells > WORK_CAP:
        raise ParameterError(f"|M|*(|M|-1)*|T|^2 = {cells} exceeds work cap {WORK_CAP}")
    if n_keys * n_msgs > ENUMERATION_CAP:
        raise ParameterError(f"|K|*|M| = {n_keys * n_msgs} exceeds enumeration cap {ENUMERATION_CAP}")


def _offset_table(family: HashFamily) -> np.ndarray:
    """|M| x |K| array whose cell (j, k) is the (message, tag) bin j*|T| + (position of
    h(k, message_space[j]) in the tag space), from one ``evaluate`` call per cell;
    the caller checks the caps."""
    messages, n_keys, n_tags = family.message_space, family.key_space_size, len(family.tag_space)
    position = {t: i for i, t in enumerate(family.tag_space)}
    evaluate = family.evaluate
    table = np.empty((len(messages), n_keys), dtype=np.min_scalar_type(n_tags - 1))
    for row, m in zip(table, messages):
        values = [evaluate(k, m) for k in range(n_keys)]
        try:
            row[:] = [position[value] for value in values]
        except KeyError:
            k = next(k for k, value in enumerate(values) if value not in position)
            value = values[k]
            raise ParameterError(f"key {k} tags message {m!r} with {value!r}, which is not in the tag space") from None
    return np.arange(len(table))[:, None] * n_tags + table


def _joint_blocks(forged: np.ndarray, n_tags: int, first: int = 0, step: int = 0):
    """(start, block) over ``step`` observed messages at a time from ``first`` (step 0: as many
    as fit SCAN_ENTRIES entries, at least one), forged being _offset_table and
    block[i - start, t, j, t2] = |{k : h(k, m_i) = t and h(k, m_j) = t2}|, 0 if j == i."""
    n_msgs = len(forged)
    step = step or max(1, SCAN_ENTRIES // max(forged.size, n_msgs * n_tags**2))
    for start in range(first, n_msgs, step):
        size = min(step, n_msgs - start)
        observed = (forged[start : start + size] - start * n_tags) * (n_msgs * n_tags)
        block = np.bincount((observed[:, None, :] + forged).ravel(), minlength=size * n_tags * n_msgs * n_tags)
        block = block.reshape(size, n_tags, n_msgs, n_tags)
        block[np.arange(size), :, np.arange(start, start + size), :] = 0
        yield start, block


def deception_probabilities(family: HashFamily) -> DeceptionReport:
    """Exact impersonation and substitution probabilities.

    A family with ``g`` is decided from its algebra: each (m, t) has p keys,
    and (m_i, t), (m_j, t2) share N = |{a : g(m_j - m_i, a) = t2 - t}| keys,
    so p0 = 1/p and p1 is the largest N/p, one |M| x p bincount of the rows
    m_j - m_0 = m_j; the witnesses, (m_0, tag 0) and then the first (m_j, d)
    in message order, are the generic scan's first maximizers.

    Any other family (the oracle) is evaluated once into a |M| x |K| table of
    tag indices; p0 comes from its |M| x |T| counts, one offset bincount. One
    bincount per block of observed messages counts the joint keys over
    (observed message, observed tag, forged message, forged tag), so each
    observed (m, t) takes one contiguous max. Fractions are compared by
    integer cross-multiplication and made only for the maximum; counts never
    exceed |K| <= ENUMERATION_CAP, so products fit in int64.

    Before either path, ``check_caps`` requires that |K|*|M| not exceed
    ENUMERATION_CAP (2**22) and the substitution scan's |M|*(|M|-1)*|T|**2
    cells not exceed WORK_CAP (2**27, enough for the affine family up to p = 107).
    A block holds as many messages as fit SCAN_ENTRIES (2**14) entries, at
    least one: at most max(SCAN_ENTRIES, |M|*max(|K|, |T|**2)) int64 key
    indices and as many counts, 8*max(2**22, WORK_CAP/(|M|-1)) bytes each.

    Ties are broken toward the first maximizer: impersonation scans
    (message, tag) in space order; substitution scans
    (observed message, forged message, observed tag, forged tag).
    Observed pairs reachable by no key are skipped (the conditional is
    undefined there).
    """
    messages, tags = family.message_space, family.tag_space
    n_keys, n_msgs, n_tags = family.key_space_size, len(messages), len(tags)
    check_caps(n_keys, n_msgs, n_tags)
    if family.g is not None:
        counts = np.bincount((np.arange(n_msgs - 1)[:, None] * n_tags + family.g[1:]).ravel())
        j, d = divmod(int(counts.argmax()), n_tags)
        return DeceptionReport(
            p0=Fraction(1, n_tags),
            p1=Fraction(int(counts.max()), n_tags),
            argmax_impersonation=(messages[0], tags[0]),
            argmax_substitution=((messages[0], tags[0]), (messages[j + 1], tags[d])),
        )
    forged = _offset_table(family)

    counts = np.bincount(forged.ravel(), minlength=n_msgs * n_tags).reshape(n_msgs, n_tags)
    best_m, best_t = divmod(int(counts.argmax()), n_tags)
    p0 = Fraction(int(counts[best_m, best_t]), n_keys)

    support = counts.tolist()
    best_num, best_den, best_i = -1, 1, None
    for start, block in _joint_blocks(forged, n_tags):
        for i, top in enumerate(block.reshape(len(block), n_tags, -1).max(axis=2).tolist(), start):
            for c, s in zip(top, support[i]):
                if s and c * best_den > best_num * s:
                    best_num, best_den, best_i = c, s, i

    joint = next(_joint_blocks(forged, n_tags, best_i, 1))[1][0].transpose(1, 0, 2)  # (j, t, t2)
    observed = counts[best_i][None, :, None]
    hits = (joint * best_den == best_num * observed) & (observed > 0)
    j, t, t2 = np.unravel_index(int(hits.argmax()), hits.shape)
    return DeceptionReport(
        p0=p0,
        p1=Fraction(best_num, best_den),
        argmax_impersonation=(messages[best_m], tags[best_t]),
        argmax_substitution=((messages[best_i], tags[t]), (messages[j], tags[t2])),
    )


def is_strongly_universal(family: HashFamily) -> bool:
    """Whether each (t, t2) cell of each message pair holds |K|/|T|**2 keys: read off
    ``deception_probabilities``, under its caps, as p0 = p1 = 1/|T|, the same condition for
    equiprobable keys (Stinson, Des. Codes Cryptogr. 4 (1994)): if p1 = 1/|T|, an observed (m, t)
    of support s sends at most, so exactly, s/|T| of its keys to each tag of any m' != m.
    False at once, with no evaluation and no cap check, when |T|**2 does not divide |K|."""
    n_tags = len(family.tag_space)
    if family.key_space_size % n_tags**2:
        return False
    report = deception_probabilities(family)
    return report.p0 == report.p1 == Fraction(1, n_tags)


def key_length_lower_bound(observed_pairs: int, epsilon) -> float:
    """Minimum key length in bits for forgery probability epsilon after
    observing the given number of valid pairs: (l + 1) * |log2(epsilon)|,
    with an int or Fraction epsilon range checked exactly."""
    observed_pairs = read_value(_PAIR_COUNT, observed_pairs, "observed pair count")
    value = read_value(_REAL, epsilon, "epsilon")
    eps = Fraction(epsilon) if isinstance(epsilon, (int, Fraction)) else value
    if not 0 < eps <= 1:
        raise ParameterError(f"epsilon {eps} outside (0, 1]")
    if value == 0.0:
        raise ParameterError(f"epsilon {eps} is 0.0 as a float")
    return (observed_pairs + 1) * abs(math.log2(eps))
