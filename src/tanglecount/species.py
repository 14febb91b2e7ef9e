"""Cycle indices of rooted and unrooted binary-tree species, and exact
counts for the tanglegram families built from them.

A family (TanglegramFamily) is a tree kind plus a group: k trees, rooted
or unrooted, on one leaf set, and a group G acting on the k trees, the
identity for ordered families and S_k for unordered ones.  Its count is
one sum over the cycle types lam |- n of the leaf permutation:

  sum over lam of Z_G(a_lam, a_{lam^2}, ...) / z_lam

where a_lam is r_lam or u_lam, the number of labeled rooted or unrooted
binary trees fixed by a permutation of cycle type lam, lam^j is the cycle
type of its j-th power, and Z_G is read off G's cycle types mu and the
number of elements of each.  The seven families of FAMILY_KINDS are

  chain (k)            rooted trees, the identity on k trees
  rooted ordered       the chain with k = 2
  chain unordered (k)  rooted trees, S_k
  rooted unordered     the unordered chain with k = 2
  unrooted chain (k)   unrooted trees, the identity on k trees
  unrooted ordered     the unrooted chain with k = 2
  unrooted unordered   unrooted trees, S_2

r_lam has a product formula (r_closed_form) and vanishes unless every
part of lam is a power of 2, so count_tables sums over binary partitions,
one pass per group of the mu that need the same pass (_key_reads), built
once for all the families of one call.

u_lam vanishes unless lam is binary or 3 times a binary partition, and
on that support it follows from r by two rules (u_direct): on a binary
lam, a step that the dissymmetry decomposition of the unrooted species
gives as each part joins a lam of size m, u' = (2m - 3) u + half and
half' = 2 (m - 1) half with half = 2^l(lam) r_{lam/2}; on lam = 3 nu,
root the tree at the vertex whose three branches the permutation rotates.
The step is diagonal in d = u - half, d' = (2m - 3) d, so D = 3d and half
are products over the parts of lam, as r is, and 3u = D + 3 half.  So
every table, of either tree kind, sums passes of one shape: a running
product over binary partitions (_fixed_point_table), r's or D's or
half's per part of mu, and no term is summed one lam at a time.  The lam
that a mu reads fall into classes (_key_classes) by which lam^j are binary
and which 3 times binary, each class one pass per product of r (rooted
trees: one class) or of D and half, over lam / 3 where some lam^j is 3
times binary: for 1^k on unrooted trees, the passes of D^(k-i) half^i,
i = 0..k, over the binary lam, and one over the lam = 3 nu, whose parts
carry r's factors and powers of 3.

No count goes through a series solve, and cycle_index loads only when a
series is asked for.  closed_form_cycle_index reads either cycle index off
r and u on their support alone, the coefficient of p_lam being
a_lam / z_lam.  The unlabeled tree counts need no series either: they
are the chains of one tree, rooted or unrooted.  The solved series stay
as the independent cross-check: the rooted cycle index solves
Z = p_1 + h_2[Z] (a binary tree is a leaf or an unordered pair of binary
trees), and the unrooted one is Z_U = h_3[Z] + p_1 Z + Z - Z^2 - p_1.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator
from functools import lru_cache

from .partitions import Partition, binary_partitions, is_binary_partition, iter_partitions, z

# CycleIndexSeries in the annotations below is cycle_index.CycleIndexSeries,
# imported only inside the functions that make one (cycle_index loads
# fractions).  The annotations are documentation only: they stay strings,
# and typing.get_type_hints on those functions raises NameError.


class NonIntegerCount(ArithmeticError):
    """A count that must be a nonnegative integer is not; signals an
    upstream bug, never expected on valid inputs."""


def _divide(total: int, divisor: int, what: str) -> int:
    """total / divisor, which must be an integer."""
    value, rest = divmod(total, divisor)
    if rest:
        raise NonIntegerCount(f"{what} evaluated to non-integer {total}/{divisor}")
    return value


# unrooted: the trees are unrooted; chain: k trees for a chain length k
# given with the family, else 2; symmetric: S_k permutes the trees, else
# only the identity.  Not a typing.NamedTuple: typing, with the re and enum
# it loads, would be about half the package's import time.
_Kind = namedtuple("_Kind", "unrooted chain symmetric")


_KINDS = {
    "rooted-ordered": _Kind(False, False, False),
    "rooted-unordered": _Kind(False, False, True),
    "unrooted-ordered": _Kind(True, False, False),
    "unrooted-unordered": _Kind(True, False, True),
    "chain": _Kind(False, True, False),
    "chain-unordered": _Kind(False, True, True),
    "unrooted-chain": _Kind(True, True, False),
}
FAMILY_KINDS = tuple(_KINDS)
TREE_KINDS = ("rooted", "unrooted")  # indexed by TanglegramFamily.unrooted


def takes_k(kind: str) -> bool:
    """Whether the family kind takes its number of trees k (a chain length)."""
    return _KINDS[kind].chain


class TanglegramFamily:
    """k leaf-labeled binary trees on one leaf set, counted up to
    relabeling the leaves: a tree kind, rooted or unrooted, plus a group G
    acting on the k trees, the identity for ordered families and S_k for
    unordered ones.

    The kind (one of FAMILY_KINDS) names both; the chain kinds carry their
    length k, the four tanglegram kinds hold two trees.  G is read through
    its cycle types (group_types), the number of elements of each
    (group_elements) and its order (group_order).

    Immutable, hashable and equal only to a family of the same kind and k.
    A plain class rather than a frozen dataclass, since importing
    dataclasses costs more than the whole counting path at small n."""

    __slots__ = ("kind", "k")

    def __init__(self, kind: str, k: int | None = None):
        spec = _KINDS.get(kind)
        if spec is None:
            raise ValueError(f"unknown family kind {kind!r}")
        if spec.chain:
            # a bool is an int, but chain(True) would label itself k=True
            if k is not None and (not isinstance(k, int) or isinstance(k, bool)):
                raise ValueError(f"{kind} requires an integer chain length k, not {k!r}")
            if k is None or k < 1:
                raise ValueError(f"{kind} requires a chain length k >= 1")
        elif k is not None:
            raise ValueError(f"{kind} does not take a chain length")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "k", k)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuild through __init__: the default would set the slots by
        # __setattr__, which refuses
        return TanglegramFamily, (self.kind, self.k)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.k) == (other.kind, other.k)

    def __hash__(self):
        return hash((self.kind, self.k))

    def __repr__(self):
        return f"TanglegramFamily(kind={self.kind!r}, k={self.k!r})"

    @property
    def unrooted(self) -> bool:
        return _KINDS[self.kind].unrooted

    @property
    def trees(self) -> int:
        """The number k of trees G acts on."""
        return 2 if self.k is None else self.k

    def group_types(self) -> Iterator[Partition]:
        """The cycle types mu |- k of the elements of G, one at a time, so
        that a caller may stop before S_k's p(k) types are listed."""
        if _KINDS[self.kind].symmetric:
            return iter_partitions(self.trees)
        return iter((Partition((1,) * self.trees),))

    def group_elements(self, mu: Partition) -> int:
        """The number of elements of G with cycle type mu: k!/z_mu in S_k,
        and 1, the identity, in the trivial group."""
        if _KINDS[self.kind].symmetric:
            return math.factorial(self.trees) // z(mu)
        return 1

    @property
    def group_order(self) -> int:
        if _KINDS[self.kind].symmetric:
            return math.factorial(self.trees)
        return 1

    @property
    def label(self) -> str:
        if self.k is not None:
            return f"{self.kind}(k={self.k})"
        return self.kind

    @property
    def min_n(self) -> int:
        return 2 if self.unrooted else 1


ROOTED_ORDERED = TanglegramFamily("rooted-ordered")
ROOTED_UNORDERED = TanglegramFamily("rooted-unordered")
UNROOTED_ORDERED = TanglegramFamily("unrooted-ordered")
UNROOTED_UNORDERED = TanglegramFamily("unrooted-unordered")


def chain(k: int) -> TanglegramFamily:
    """Tangled chains of length k (k-tuples of trees on one leaf set)."""
    return TanglegramFamily("chain", k)


def chain_unordered(k: int) -> TanglegramFamily:
    """Multisets of k trees on one leaf set."""
    return TanglegramFamily("chain-unordered", k)


# -- cycle indices --------------------------------------------------------

# Each entry holds every term through degree N, and no count reads the
# series; the CLI asks for one N and the tests reuse a few at a time.
_SERIES_CACHE = 4


@lru_cache(maxsize=_SERIES_CACHE)
def binary_tree_cycle_index(N: int) -> CycleIndexSeries:
    """The unique series Z with zero constant term satisfying
    Z = p_1 + h_2[Z] through degree N, solved one degree at a time: as
    h_2[Z] = (Z^2 + p_2[Z]) / 2, the degree-m part Z_m of Z, m >= 2, is
    the sum of Z_a Z_(m-a) over a < m - a, plus h_2[Z_(m/2)] for even m.
    """
    # here, not at module level, so that counting never loads the series
    from .cycle_index import h_series, p1, zero_series

    if N < 1:
        raise ValueError("N must be >= 1")
    pieces = [zero_series(N), p1(N)]  # pieces[m] is Z_m
    for m in range(2, N + 1):
        piece = h_series(2, N).plethysm(pieces[m // 2]) if m % 2 == 0 else pieces[0]
        for a in range(1, (m + 1) // 2):
            piece = piece + pieces[a] * pieces[m - a]
        pieces.append(piece)
    return sum(pieces[1:], pieces[0])


@lru_cache(maxsize=_SERIES_CACHE)
def unrooted_tree_cycle_index(N: int) -> CycleIndexSeries:
    """Cycle index of unrooted binary trees (leaves labeled, internal
    vertices of degree 3), from the dissymmetry decomposition
    Z_U = h_3[Z_R] + p_1 Z_R + Z_R - Z_R^2 - p_1.

    The one-vertex tree is excluded, so the degree-0 and degree-1
    components vanish and queries need n >= 2.
    """
    from .cycle_index import h_series, p1

    if N < 2:
        raise ValueError("N must be >= 2")
    zr = binary_tree_cycle_index(N)
    one = p1(N)
    return h_series(3, N).plethysm(zr) + one * zr + zr - zr * zr - one


def r_coefficient(lam: Partition, Z: CycleIndexSeries) -> int:
    """Number of labeled binary trees fixed by a permutation of cycle type
    lam, read off the series as coefficient(lam) * z(lam)."""
    value = Z.coefficient(lam) * z(lam)
    if value < 0:
        raise NonIntegerCount(f"r at {lam} evaluated to negative {value}")
    return _divide(value.numerator, value.denominator, f"r at {lam}")


def r_closed_form(lam: Partition) -> int:
    """Product formula for the fixed-tree count r_lam: over i = 2..l(lam),
    multiply 2*(lam_i + ... + lam_l) - 1; zero unless every part is a
    power of 2.  The empty partition gets 0 (no tree has zero leaves)."""
    if not lam.parts or not is_binary_partition(lam):
        return 0
    out, tail = 1, 0
    # from the smallest part up, every part but the largest
    for part in reversed(lam.parts[1:]):
        tail += part
        out *= 2 * tail - 1
    return out


def u_direct(lam: Partition) -> int:
    """Number of labeled unrooted binary trees fixed by a permutation of
    cycle type lam, with no series: zero unless lam is binary or 3 times a
    binary partition, and on that support

      lam binary                 the fold over its parts below
      lam = 3 mu, mu binary      3^(l(mu)-1) r_mu (root the tree at the vertex
                                 whose three branches the permutation rotates)

    On a binary lam with no part 1, let S be the sum over the ordered splits
    (A, R) of the cycles of lam of r_A * 2^l(R) * r_{R/2}, where r of the
    empty partition is 0, and half = 2^l(lam) * r_{lam/2}.  Dissymmetry
    gives 6 u = T3 + 3 S + 6 r - 6 T2 on such a lam, with T2 and T3 the sums
    of r_A r_B and r_A r_B r_C over ordered splits into two and three parts
    (the leaf terms of Z_U = h_3[Z] + p_1 Z + Z - Z^2 - p_1 vanish, and so
    does p_3[Z] on a binary lam).  The rooted equation Z = p_1 + h_2[Z] read
    on lam gives 2 r = T2 + half, and read on each B = lam - A inside
    T3 = sum over A of r_A T2(B) it gives T3 = 2 T2 - S.  So
    3 u = S - r + 2 half.

    Grow lam by a part at least as large as every part of lam, with
    m = |lam|; as in r's product formula, only m enters.  The new cycle c
    joins A or R of each split of lam.  Joining a nonempty A multiplies r_A
    by 2|A| - 1, joining a nonempty R multiplies 2^l(R) r_{R/2} by
    2 (|R| - 1): together 2m - 3.  The splits with A = {c} add half, those
    with R = {c} add 2 r.  So S' = (2m - 3) S + half + 2 r,
    r' = (2m - 1) r and half' = 2 (m - 1) half, and r cancels:

      3 u' = (2m - 3) S + half + 2 r - (2m - 1) r + 4 (m - 1) half
           = (2m - 3) (S - r + 2 half) + 3 half
      u'   = (2m - 3) u + half,   half' = 2 (m - 1) half
      d'   = (2m - 3) d           for d = u - half

    from a single part's u = 1 and half = 2 (S = 0, r = 1).

    A smallest part 1, a fixed leaf, starts at u = 0 and half = 1 instead,
    so that the first step gives u = 1 and half = 0, and from then on
    u' = (2m - 3) u is r's product formula on lam less that leaf.  Either
    way d = -1 at the smallest part, so u = half - prod (2m - 3) over the
    parts after it.
    """
    if is_binary_partition(lam):
        # from the smallest part up; the empty lam, like one leaf, has u = 0
        *rest, size = lam.parts or (1,)
        u, half = (0, 1) if size == 1 else (1, 2)
        for part in reversed(rest):
            u, half = (2 * size - 3) * u + half, 2 * (size - 1) * half
            size += part
        return u
    if all(part % 3 == 0 for part in lam.parts):
        mu = Partition(tuple(part // 3 for part in lam.parts))
        if is_binary_partition(mu):
            # the permutation rotates the three branches at a fixed vertex,
            # and its cube acts with type mu on the leaves of one branch: r_mu
            # trees there, on a leaf set that takes one of the three thirds of
            # each cycle, and any of the three branches could be the first
            return 3 ** (len(mu) - 1) * r_closed_form(mu)
    return 0


def closed_form_cycle_index(N: int, unrooted: bool) -> CycleIndexSeries:
    """unrooted_tree_cycle_index(N) if unrooted, else binary_tree_cycle_index(N),
    with no solve: the coefficient of p_lam is u_direct(lam) / z_lam or
    r_closed_form(lam) / z_lam, read on the support of each n <= N, the
    binary lam |- n and, for U, the lam = 3 nu with nu binary."""
    from fractions import Fraction

    from .cycle_index import CycleIndexSeries

    fixed = u_direct if unrooted else r_closed_form
    terms = {}
    for n in range(1, N + 1):
        support = list(binary_partitions(n))
        if unrooted and n % 3 == 0:
            support += (Partition(tuple(3 * part for part in nu.parts))
                        for nu in binary_partitions(n // 3))
        for lam in support:
            a = fixed(lam)
            if a:
                terms[lam] = Fraction(a, z(lam))
    return CycleIndexSeries(terms, N)


# -- counts ---------------------------------------------------------------


# Largest inputs the command line accepts on each path, so that no accepted
# command runs for much more than a minute.  zindex prints every term of
# closed_form_cycle_index, which reads only the support, so its text holds it
# here: 220 KB for U at N = 40, 1.8 times as much as at N = 35.  counts, and
# gf, which prints the table of the rooted or unrooted chain of one tree,
# are held by the time model below alone (table_guard), with no fixed bound
# on n.
SERIES_LIMIT = 40  # zindex
# count_tables builds one table per store key of its families' cycle types
# (_key_reads), and a pass runs about max_n^2 steps of its inner loop.  Each
# step has a fixed interpreter cost, the STEP_SECONDS * max_n^2 term, which is
# most of the time of S_k's hundreds of passes with few parts at moderate n.
# Each step also adds to, divides and multiplies by small numbers the
# carried product, about (1 + p) n log n bits for a mu of p parts, the
# PASS_SECONDS * (1 + p) term, and multiplies it by a block of about p log n
# bits, the PART_SECONDS * p^1.75 term; max_n^3.2 stands in for max_n^3 log
# max_n.  _key_charge charges the passes of a key's classes and their odd
# cycle lengths from it.  The constants fit the 27 rows of
# test_pass_model_within_15_percent, all timed on one host, within 13%:
# 13 rooted tables, 2 unrooted ones and 2 passes of one cycle type to
# n <= 600, 3 unrooted chains to 600 and 800, and 7 tables to n = 1000 and
# 1500.  Past 1500 the model overestimates (rooted-ordered to 2000 took
# 22.2 s for a modelled 28.6 s), which errs toward refusing.
STEP_SECONDS = 5e-7
PASS_SECONDS = 2.15e-10
PART_SECONDS = 2.4e-11
# The command line then prints each count in decimal, which CPython 3.11
# does in time quadratic in its digits d: PRINT_SECONDS * d^2 fits printing
# the tables of chain(30) to 600, chain(100) to 200 and chain(1000) to 100
# (1.6e-11 to 1.8e-11 s per digit^2 on the same host, 6.5 s, 1.9 s and 15.9 s).
PRINT_SECONDS = 1.8e-11
PASS_SECONDS_LIMIT = 40.0  # between chain-unordered(9) and (10) to 600
# The guard lists G's cycle types until the parts of the passes they read
# would pass this bound (k <= 30 for S_k, and k <= 99 for the unrooted chains,
# whose table runs k + 2 passes of k parts), which takes 0.2 s or less.
PASS_PARTS_LIMIT = 10_000


def _two_adic(j: int) -> int:
    """Exponent of the largest power of 2 dividing j >= 1."""
    return (j & -j).bit_length() - 1


def _pass_seconds(parts: int, max_n: int) -> float:
    """The modelled time of one _fixed_point_table pass to max_n for a mu
    with this many parts."""
    carry = PASS_SECONDS * (1 + parts) + PART_SECONDS * parts**1.75
    return STEP_SECONDS * max_n**2 + carry * max_n**3.2


def _print_seconds(family: TanglegramFamily, max_n: int) -> float:
    """The modelled time of printing the counts of the family to max_n:
    the count at n has about d(n) = log10(((2n-3)!!)^k / (n! |G|)) digits,
    taken with lgamma, so that the counts are not computed."""
    k, log_order = family.trees, math.log(family.group_order)
    digits2 = 0.0
    for n in range(family.min_n, max_n + 1):
        # (2n-3)!! = (2n-2)! / (2^(n-1) (n-1)!)
        trees = math.lgamma(2 * n - 1) - (n - 1) * math.log(2) - math.lgamma(n)
        digits = (k * trees - math.lgamma(n + 1) - log_order) / math.log(10)
        digits2 += max(digits, 0.0) ** 2
    return PRINT_SECONDS * digits2


def _key_reads(families: list[TanglegramFamily]) -> Iterator[tuple[int, Partition, tuple]]:
    """(family index, mu, store key) for each cycle type mu of each family's
    G in turn, one type at a time: the reads that count_tables weighs and
    table_guard charges.  The store key, that of the stored table the family
    reads for mu, is (tree kind, the sorted pairs (2-adic valuation,
    gcd(h, j)) of the parts j of mu), for h the odd part g of gcd(mu) on
    rooted trees, where every gcd(g, j) is g, and 3g on unrooted ones: all
    that _key_classes reads of mu."""
    for i, family in enumerate(families):
        for mu in family.group_types():
            g = math.gcd(*mu.parts)
            h = (g >> _two_adic(g)) * (3 if family.unrooted else 1)
            pairs = sorted((_two_adic(j), math.gcd(h, j)) for j in mu.parts)
            yield i, mu, (TREE_KINDS[family.unrooted], tuple(pairs))


def _odd_lengths(g: int) -> list[int]:
    """The odd e | g: the cycle lengths e * 2^a that a pass of g adds."""
    return [e for e in range(1, g + 1, 2) if g % e == 0]


def _key_charge(key: tuple, max_n: int) -> tuple[int, float]:
    """(parts, seconds) of a store key: the parts of the passes that build
    its table, and the modelled time of building it to max_n.

    A key's table runs, for each of its classes, one pass of p parts per
    product of D and half (q of them: p + 1 for the all-binary class of 1^p,
    1 for a rooted key and for a class with no binary lam^j), each with
    one sub-pass per odd cycle length.  A sub-pass is charged as a whole
    pass to max_n, or to max_n // 3 over lam / 3: on one host the rooted
    passes of g = 3, 5 and 15 took 2.2, 1.9 and 3.3 times that of g = 1.
    The q passes of a class took 1.3 to 2.6 times one pass for 1^p, p = 1
    to 10, and 11.6 times at p = 100, and are charged sqrt(q) times it, or
    q / 8.7 times, the ratio at p = 100, from q = 76 on, where that is more.
    Even so the table of p = 99 to n = 224 took about 1.2 times its charge.
    At p = 1000 it took 103 times, but the parts bound, which counts all
    the p q parts, stops at p = 99."""
    p, classes = len(key[1]), _key_classes(key)
    seconds = sum(
        len(lengths) * max(math.sqrt(len(products)), len(products) / 8.7)
        * _pass_seconds(p, max_n // scale)
        for lengths, scale, products in classes
    )
    return p * sum(len(products) for _, _, products in classes), seconds


def table_guard(families: Iterable[TanglegramFamily], max_n: int) -> str | None:
    """Why the command line refuses one counts command, every family of it
    to max_n, or None.

    The guard sums over the families the modelled time of printing, and of
    the passes that count_tables builds, each store key once (_key_charge) in
    the order count_tables first reads it (_key_reads).  Each family's
    listing reads its own keys, so their parts are summed per family.  An n
    whose step term alone passes the budget, by an exact integer
    comparison, and a k over PASS_PARTS_LIMIT are refused first, so that no
    input is too large to refuse at once.  The types of G are listed one at
    a time, and the sums checked after each new pass key, so that a large k
    is refused without k! or the p(k) types.
    """
    too_slow = (
        f"the passes and printing would take over {PASS_SECONDS_LIMIT:g} s, "
        "the pass guard"
    )
    too_many = f"the passes would have more than {PASS_PARTS_LIMIT} parts, over the pass guard"
    if max_n**2 > PASS_SECONDS_LIMIT / STEP_SECONDS:
        return too_slow
    families = list(families)
    if any(family.trees > PASS_PARTS_LIMIT for family in families):
        return too_many
    seconds = sum(_print_seconds(family, max_n) for family in families)
    parts = 0
    key_parts: dict = {}  # store key: the parts of its passes
    read = set()  # (family index, store key)
    for i, _, key in _key_reads(families):
        if (i, key) in read:
            continue
        read.add((i, key))
        if key not in key_parts:
            key_parts[key], key_seconds = _key_charge(key, max_n)
            seconds += key_seconds
        parts += key_parts[key]
        if parts > PASS_PARTS_LIMIT:
            return too_many
        if seconds > PASS_SECONDS_LIMIT:
            return too_slow
    return None


# The factor that a part multiplies in as it joins a lam of size m, the
# parts read from the smallest up
def _r_factor(m: int) -> int:
    return max(2 * m - 1, 1)  # r's product formula: 1 for the first part


def _d_factor(m: int) -> int:
    return 2 * m - 3  # d' = (2m - 3) d, d = u - half (see u_direct)


def _half_factor(m: int) -> int:
    return 2 * m - 2  # half' = 2 (m - 1) half


def _fixed_point_table(lengths: list[int], parts: tuple, max_n: int) -> list[int]:
    """Index n holds n! times the sum over the lam |- n with parts e * 2^a,
    e in lengths, of the product over the parts (b, f, rho) of mu of the
    running product of f over lam^j, divided by z_lam; index 0 holds the
    empty lam's 1.  _key_table sums these passes over the classes of a key
    (_key_classes); a rooted key's one class runs the odd e | g with r's
    factor and rho = 1, the lam whose lam^j are all binary, off which every
    r_{lam^j} vanishes.

    On those lam, lam^j = nu^j for the binary shadow nu of lam, which
    replaces each part e * 2^a by e parts 2^a, so the pass runs over binary
    nu only: part sizes 2^a from the smallest up, the running size as the
    state, and the lam behind each nu entering one odd e at a time, its
    j cycles of length e * 2^a as j*e parts 2^a of nu.

    Under j = 2^b * o a part 2^a of nu splits into 2^c parts of size
    2^(a-c), c = min(a, b), so only b matters.  Built from the smallest part
    up, each piece gets a factor f of the running size m below it, r's
    product formula's max(2m - 1, 1).  When some rho is 3, n counts the
    points of lam / 3 instead: a part of rho 1 reads the three pieces of
    lam^j that each piece of (lam / 3)^j makes, from 3m up, and a part of
    rho 3 reads (lam / 3)^j with a factor 3 per piece, and z_lam is 3^l
    times z_{lam / 3}, for l the length of lam.
    """
    scale = max(rho for _, _, rho in parts)
    table, s, a = [1] + [0] * max_n, 1, 0
    while s <= max_n:
        splits = Counter((min(a, b), f, rho) for b, f, rho in parts).items()
        # pieces[t]: product over the parts j of mu of the factors that one
        # part s of nu adds when t points lie below it
        pieces = []
        for t in range(max_n - s + 1):
            factor = 1
            for (c, f, rho), times in splits:
                spread, split = scale // rho, 1
                for m in range(spread * t, spread * (t + s), s >> c):
                    split *= rho * f(m)
                factor *= split**times
            pieces.append(factor)
        # the cycles of lam of length e*s, one odd e after another: the
        # parts s of nu are interchangeable, so the lengths may enter in turn
        for e in lengths:
            step = e * s
            # blocks[t]: the product of the e pieces from t up, over the 3 that
            # z_lam has per cycle more than z_{lam / 3} when the pass is over lam / 3
            blocks = [math.prod(pieces[t : t + step : s]) // scale for t in range(max_n - step + 1)]
            # top down, so that each base is read before a smaller one adds to it
            for base in range(max_n - step, -1, -1):
                x = table[base]
                if not x:
                    continue
                for j in range(1, (max_n - base) // step + 1):
                    lo = base + (j - 1) * step
                    top = lo + step
                    # x becomes table[base] * C(top, base) * (the permutations of
                    # top - base points in j cycles of length step) times
                    # blocks[base] * ... * blocks[lo], an integer, so the
                    # quotient is exact
                    x = x * blocks[lo] * math.perm(top, step) // (step * j)
                    table[top] += x
        s, a = 2 * s, a + 1
    return table


def _key_classes(key: tuple) -> list[tuple]:
    """(lengths, scale, products) for each class of the lam that a store
    key reads (_key_reads): the odd lengths of its passes, 3 if they run
    over lam / 3, else 1, and (weight, parts) for each pass.

    a_{lam^j} vanishes unless lam^j is binary, or 3 times binary for u, so
    each odd part E of lam divides g, or 3g on unrooted trees, and
    rho_j = E / gcd(E, j), 1 or 3, is the same for all of them: lam^j is
    binary if rho_j = 1, else 3 times binary.  The E with one vector of rho
    are a class; on rooted trees every rho is 1, so there is one, whose one
    pass takes r's factors.  On unrooted trees a part with rho_j = 3 takes
    3 u_{3 nu^j} = 3^l(nu^j) r_{nu^j} (u_direct) for lam = 3 nu.  One with
    rho_j = 1 takes 3u = D + 3 half of lam^j, and the parts of one
    valuation, which read the same lam^j, expand their product binomially,
    with D and -half the passes of _d_factor and _half_factor."""
    tag, pairs = key
    unrooted = tag == "unrooted"
    g = math.gcd(*(h for _, h in pairs))
    by_rho: dict = {}  # rho vector: the odd E | g, or 3g, with it
    for e in _odd_lengths(3 * g if unrooted else g):
        by_rho.setdefault(tuple(e // math.gcd(e, h) for _, h in pairs), []).append(e)
    classes = []
    for rhos, odd in by_rho.items():
        scale = max(rhos)
        products = [(1, tuple((b, _r_factor, 3) for (b, _), rho in zip(pairs, rhos) if rho == 3))]
        for b, c in Counter(b for (b, _), rho in zip(pairs, rhos) if rho == 1).items():
            products = [
                (weight * math.comb(c, i) * (-3) ** i,
                 parts + ((b, _d_factor if unrooted else _r_factor, 1),) * (c - i)
                 + ((b, _half_factor, 1),) * i)
                for weight, parts in products for i in range(c + 1 if unrooted else 1)
            ]
        classes.append(([e // scale for e in odd], scale, products))
    return classes


def _key_table(key: tuple, max_n: int) -> list[int]:
    """Index n holds n! times the sum over lam |- n of the product over the
    parts j of mu of a_{lam^j} (r or u by the tree kind), divided by z_lam,
    for the mu of a store key (_key_reads): the weighted passes of its
    classes (_key_classes), summed.  A rooted key's one pass is that sum,
    with the empty lam's 1 at index 0.  An unrooted key's make 3^p times
    the product.  From the empty lam's 1 a pass gives D_lam, and -half_lam
    for every lam but (1), where it gives 2 against half's 1: a part added
    at m = 1 has half's factor 2m - 2 = 0, so that entry reaches no n >= 2,
    and indices 0 and 1 hold 0.  A pass over nu |- m adds n!/m! times its
    entry at n = 3m, so one exact division by 3^p ends the table."""
    sums = [0] * (max_n + 1)
    for lengths, scale, products in _key_classes(key):
        for weight, parts in products:
            for m, x in enumerate(_fixed_point_table(lengths, parts, max_n // scale)):
                sums[scale * m] += weight * math.perm(scale * m, scale * m - m) * x
    if key[0] == "unrooted":
        for n in range(max_n + 1):
            sums[n] = _divide(sums[n], 3 ** len(key[1]), f"sum of u at {n}") if n >= 2 else 0
    return sums


# Bytes the pass store may hold, each table charged by _table_bytes.  One
# count_tables call builds each of its keys once whatever the store holds,
# so the store serves only repeated library calls, count and count_table
# over rising or repeated n.  A pass grows about as n^2 log n bytes, and the
# rooted pass of 1^2 outgrows the store past about n = 1260 (0.83 MiB at
# 600, 2.46 MiB at 1000).
PASS_STORE_BYTES = 4 << 20


def _table_bytes(table: tuple) -> int:
    """The bytes charged for a stored table: its tuple, and each entry as
    many as its largest, by sys.getsizeof.

    Entries grow with n, so this is about twice the objects' own bytes.
    The margin is the allocator's: in one process, entries that outlive
    the ints freed around them while each pass was built leave memory
    partly used, and the peak RSS that a full store added measured 1.4 to
    1.7 times its objects' bytes."""
    return sys.getsizeof(table) + len(table) * max(map(sys.getsizeof, table))


class _PassStore:
    """Every table that count_tables reads, one per store key (_key_reads),
    (tree kind, pairs), each built by _key_table from its key alone.
    A pass depends on its key only, never on the family, and entry n is
    summed from smaller bases only, so a table built to the largest max_n
    asked for so far answers any smaller max_n by indexing; a larger max_n
    rebuilds it.

    The tables are tuples, so that no caller can change them.  The store
    holds them to PASS_STORE_BYTES by dropping the least recently used, and
    returns a table larger than that without keeping it."""

    def __init__(self):
        self.tables: dict = {}  # key: (max_n, table, bytes), least recent first
        self.held = 0

    def get(self, key, max_n: int) -> tuple:
        """The table of key to at least max_n, from _key_table if needed."""
        entry = self.tables.pop(key, None)
        if entry is not None:
            if entry[0] >= max_n:
                self.tables[key] = entry
                return entry[1]
            self.held -= entry[2]
        table = tuple(_key_table(key, max_n))
        size = _table_bytes(table)
        if size <= PASS_STORE_BYTES:
            self.tables[key] = (max_n, table, size)
            self.held += size
            while self.held > PASS_STORE_BYTES:
                self.held -= self.tables.pop(next(iter(self.tables)))[2]
        return table


_passes = _PassStore()


def count_tables(families: Iterable[TanglegramFamily], max_n: int) -> list[list[int]]:
    """Counts of each family for every n <= max_n, one list per family in
    their order: index n holds the count with n leaves, and the sizes below
    family.min_n hold 0.

    n! |G| times the count is the sum over the cycle types mu of G, each
    weighted by its number of elements, of the sum over lam |- n of
    n!/z_lam times the product over the parts j of mu of a_{lam^j}, where
    a is r or u.  Each mu reads the one table of its store key
    (_key_reads) that holds that sum for each n (_key_table).  So the weighted
    total divides by |G| n! alone, for any G that a family gives through
    group_types, group_elements and group_order, on either tree kind.

    A table depends on its key only, never on the family, so each distinct
    key of all the families is read once, in the order they first read it,
    and added into every family that reads it before the next key is read.
    The tables are read through the pass store (_PassStore), so a table
    that an earlier call built to at least max_n is not built again.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    families = list(families)
    readers: dict = {}  # store key: {family index: weight}, first read first
    for i, mu, key in _key_reads(families):
        readers.setdefault(key, Counter())[i] += families[i].group_elements(mu)
    totals = [[0] * (max_n + 1) for _ in families]
    for key, weights in readers.items():
        sums = _passes.get(key, max_n)
        for i, weight in weights.items():
            total = totals[i]
            for n in range(families[i].min_n, max_n + 1):
                total[n] += weight * sums[n]
    for family, total in zip(families, totals):
        for n in range(family.min_n, max_n + 1):
            divisor = family.group_order * math.factorial(n)
            total[n] = _divide(total[n], divisor, family.label)
    return totals


def count_table(family: TanglegramFamily, max_n: int) -> list[int]:
    """count_tables([family], max_n)[0]: the counts of one family for
    every n <= max_n."""
    return count_tables([family], max_n)[0]


def count(family: TanglegramFamily, n: int) -> int:
    """Number of unlabeled structures of the family with n leaves:
    count_table(family, n)[n].  Every family and every call shares one
    store of passes, each built once to the largest n asked for so far, so
    a run of count calls builds no pass twice below that n; the store keeps
    at most PASS_STORE_BYTES, dropping the least recently used passes."""
    if n < family.min_n:
        raise ValueError(f"{family.label} requires n >= {family.min_n}, got {n}")
    return count_table(family, n)[n]


# -- independent checks ---------------------------------------------------


def wedderburn_etherington(N: int) -> list[int]:
    """Counts of unlabeled rooted binary trees by leaf number, computed
    directly from the functional equation W(x) = x + (W(x)^2 + W(x^2))/2;
    index n of the returned list is the coefficient of x^n, for n <= N.

    Independent of the cycle-index path, so it cross-checks
    binary_tree_cycle_index(N).unlabeled_gf().
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    a = [0] * (N + 1)
    a[1] = 1
    for n in range(2, N + 1):
        s = sum(a[i] * a[n - i] for i in range(1, n))
        if n % 2 == 0:
            s += a[n // 2]
        a[n] = _divide(s, 2, f"tree count at {n}")
    return a


def labeled_counts(n: int) -> tuple[int, int]:
    """(number of labeled binary trees on n leaves, number of labeled
    tanglegrams) = ((2n-3)!!, ((2n-3)!!)^2), with value 1 at n = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    trees = 1
    for j in range(1, n):
        trees *= 2 * j - 1
    return trees, trees * trees
