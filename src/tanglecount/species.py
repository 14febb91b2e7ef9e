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
number of elements of each.  The six families of FAMILY_KINDS are

  chain (k)            rooted trees, the identity on k trees
  rooted ordered       the chain with k = 2
  chain unordered (k)  rooted trees, S_k
  rooted unordered     the unordered chain with k = 2
  unrooted ordered     unrooted trees, the identity on 2 trees
  unrooted unordered   unrooted trees, S_2

r_lam has a product formula (r_closed_form) and vanishes unless every
part of lam is a power of 2, so count_table sums over binary partitions,
one pass per group of the mu that need the same pass.

u_lam vanishes unless lam is binary or 3 times a binary partition (and
lam^2 lies in that support only when lam does), and on that support it
follows from r by two rules (u_direct): on a binary lam, a step that the
dissymmetry decomposition of the unrooted species gives as each part
joins a lam of size m, u' = (2m - 3) u + half and half' = 2 (m - 1) half
with half = 2^l(lam) r_{lam/2}; on lam = 3 nu, root the tree at the
vertex whose three branches the permutation rotates.  The step is
diagonal in d = u - half, d' = (2m - 3) d, so D = 3d and half are
products over the parts of lam, as r is, and 3u = D + 3 half.  Each rule
gives binary-partition passes of one running product, the same pass as
r's with other factors, so no term is summed one lam at a time: the
binary lam are the passes of D^2, D half and half^2 for mu = 1^2 and of
D and half for mu = (2), each from the empty lam up, and the lam = 3 nu
a rooted pass over nu, with a power of 3 per part, that _unrooted_table
adds in: one table per pass key for either tree kind.

No count goes through a series solve, and cycle_index loads only when a
series is asked for.  closed_form_cycle_index reads either cycle index off
r and u on their support alone, the coefficient of p_lam being
a_lam / z_lam.  The unlabeled tree counts need no series either: the
rooted ones are the chain of one tree, and unrooted_from_rooted takes the
unrooted ones from them by Otter's dissymmetry step.  The solved series
stay as the independent cross-check: the rooted cycle index solves
Z = p_1 + h_2[Z] (a binary tree is a leaf or an unordered pair of binary
trees), and the unrooted one is Z_U = h_3[Z] + p_1 Z + Z - Z^2 - p_1.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator
from functools import lru_cache, partial

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
    Z = p_1 + h_2[Z] through degree N, by successive substitution.

    Each pass stabilizes one more degree, so the truncation degree grows
    with the pass; this keeps every intermediate product within the part
    of the series that is already exact.
    """
    # here, not at module level, so that counting never loads the series
    from .cycle_index import CycleIndexSeries, h_series, p1

    if N < 1:
        raise ValueError("N must be >= 1")
    zr = p1(1)
    for m in range(2, N + 1):
        stable = CycleIndexSeries(zr.terms, m)  # degrees < m already exact
        zr = p1(m) + h_series(2, m).plethysm(stable)
    return zr


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
# gf, which prints the table of chain(1), are held by the time model below
# alone (table_guard), with no fixed bound on n.
SERIES_LIMIT = 40  # zindex
# count_table makes one _fixed_point_table pass per _pass_key of G's cycle
# types, and a pass runs about max_n^2 steps of its inner loop.  Each step
# has a fixed interpreter cost, the STEP_SECONDS * max_n^2 term, which is
# most of the time of S_k's hundreds of passes with few parts at moderate n.
# Each step also adds to, divides and multiplies by small numbers the
# carried product, about (1 + p) n log n bits for a mu of p parts, the
# PASS_SECONDS * (1 + p) term, and multiplies it by a block of about p log n
# bits, the PART_SECONDS * p^1.75 term; max_n^3.2 stands in for max_n^3 log
# max_n.  _pass_costs charges the unrooted passes too.  The constants fit
# the 22 rows of test_pass_model_within_15_percent, all timed on one host:
# 13 rooted and 2 unrooted tables to n <= 600, and 7 tables to n = 1000 and
# 1500.  Past 1500 the model overestimates (rooted-ordered to 2000 took
# 22.2 s for a modelled 34.2 s), which errs toward refusing.
STEP_SECONDS = 5e-7
PASS_SECONDS = 2.65e-10
PART_SECONDS = 2.5e-11
# The command line then prints each count in decimal, which CPython 3.11
# does in time quadratic in its digits d: PRINT_SECONDS * d^2 fits printing
# the tables of chain(30) to 600, chain(100) to 200 and chain(1000) to 100
# (1.6e-11 to 1.8e-11 s per digit^2 on the same host, 6.5 s, 1.9 s and 15.9 s).
PRINT_SECONDS = 1.8e-11
PASS_SECONDS_LIMIT = 40.0  # between chain-unordered(9) and (10) to 600
# The guard lists G's cycle types until the parts of the distinct passes
# would pass this bound (k <= 30 for S_k), which takes 0.2 s or less.
PASS_PARTS_LIMIT = 10_000


def _two_adic(j: int) -> int:
    """Exponent of the largest power of 2 dividing j >= 1."""
    return (j & -j).bit_length() - 1


PassKey = tuple[int, tuple[int, ...]]


def _pass_key(mu: Partition) -> PassKey:
    """What _fixed_point_table needs of mu: the odd part of gcd(mu) and the
    sorted 2-adic valuations of its parts."""
    g = 0
    for j in mu.parts:
        g = math.gcd(g, j)
    return g >> _two_adic(g), tuple(sorted(_two_adic(j) for j in mu.parts))


def _pass_seconds(parts: int, max_n: int) -> float:
    """The modelled time of one _fixed_point_table pass to max_n for a mu
    with this many parts."""
    carry = PASS_SECONDS * (1 + parts) + PART_SECONDS * parts**1.75
    return STEP_SECONDS * max_n**2 + carry * max_n**3.2


def _print_seconds(family: TanglegramFamily, max_n: int) -> float:
    """The modelled time of printing the counts of the family to max_n:
    the count at n has about d(n) = log10(((2n-3)!!)^k / (n! |G|)) digits,
    taken with lgamma, so that neither k! nor the counts are computed."""
    k = family.trees
    log_order = math.lgamma(k + 1) if _KINDS[family.kind].symmetric else 0.0
    digits2 = 0.0
    for n in range(family.min_n, max_n + 1):
        # (2n-3)!! = (2n-2)! / (2^(n-1) (n-1)!)
        trees = math.lgamma(2 * n - 1) - (n - 1) * math.log(2) - math.lgamma(n)
        digits = (k * trees - math.lgamma(n + 1) - log_order) / math.log(10)
        digits2 += max(digits, 0.0) ** 2
    return PRINT_SECONDS * digits2


def _pass_costs(family: TanglegramFamily, max_n: int) -> Iterator[tuple[int, float]]:
    """One (parts, seconds) per _pass_key of G's cycle types, in their
    order: the parts of its mu and the modelled time of the table that
    count_table builds for it to max_n.  An unrooted key's _unrooted_table
    runs parts + 1 scalar passes, charged as one pass of parts + 1 parts,
    and its rotated pass to max_n // 3."""
    keys: set[PassKey] = set()
    for mu in family.group_types():
        parts = len(mu)
        key = _pass_key(mu)
        if key in keys:
            continue
        keys.add(key)
        if family.unrooted:
            yield parts, _pass_seconds(parts + 1, max_n) + _pass_seconds(parts, max_n // 3)
        else:
            yield parts, _pass_seconds(parts, max_n)


def table_guard(families: Iterable[TanglegramFamily], max_n: int) -> str | None:
    """Why the command line refuses one counts command, every family of it
    to max_n, or None.

    The guard sums over the families the modelled time of printing and of
    the passes (_pass_costs; a pass two families share is charged to each),
    and the passes' parts.  An n whose step term alone passes the budget,
    by an exact integer comparison, and a k over PASS_PARTS_LIMIT are
    refused first, so that no input is too large to refuse at once.  The
    types of G are listed one at a time and the sums checked after each new
    pass key, so that a large k is refused without k! or the p(k) types.
    """
    too_slow = (
        f"the passes and printing would take over {PASS_SECONDS_LIMIT:g} s, "
        "the pass guard"
    )
    too_many = f"the passes would have more than {PASS_PARTS_LIMIT} parts, over the pass guard"
    if max_n**2 > PASS_SECONDS_LIMIT / STEP_SECONDS:
        return too_slow
    parts, seconds = 0, 0.0
    for family in families:
        if family.trees > PASS_PARTS_LIMIT:
            return too_many
        seconds += _print_seconds(family, max_n)
        for pass_parts, pass_seconds in _pass_costs(family, max_n):
            parts += pass_parts
            if parts > PASS_PARTS_LIMIT:
                return too_many
            seconds += pass_seconds
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


def _fixed_point_table(
    g: int,
    valuations: tuple[int, ...],
    max_n: int,
    rotated: bool = False,
    factors: tuple | None = None,
) -> list[int]:
    """Index n holds n! times the sum over lam |- n of
    prod over parts j of mu of r_{lam^j}, divided by z_lam, for any mu with
    _pass_key(mu) = (g, valuations); index 0 holds the empty lam's 1.

    With rotated, each part of nu also carries 3^(p - 1), where p, the sum
    over the parts j of mu of 2^min(a, b) below, counts the parts it leaves
    in all the nu^j together: _unrooted_table reads that pass (g = 1) for
    the unrooted terms of the lam = 3 nu.

    The product vanishes unless every lam^j is binary, which holds exactly
    when each part of lam is e * 2^a with e dividing g, the odd part of
    gcd(mu).  Then lam^j = nu^j for the binary shadow nu of lam, which
    replaces each part e * 2^a by e parts 2^a, so the pass runs over binary
    nu only: part sizes 2^a from the smallest up, the running size as the
    state, and the lam behind each nu entering one odd e | g at a time, its
    j cycles of length e * 2^a as j*e parts 2^a of nu.

    Under j = 2^b * o a part 2^a of nu splits into 2^c parts of size
    2^(a-c), c = min(a, b), so only b matters.  Built from the smallest part
    up, each piece gets a factor of the running size m below it, r's
    product formula's max(2m - 1, 1).  factors, one per part of mu in the
    order of valuations, replace r's: _unrooted_table's passes.
    """
    odd_lengths = [e for e in range(1, g + 1, 2) if g % e == 0]
    factors = factors or (_r_factor,) * len(valuations)
    table, s, a = [1] + [0] * max_n, 1, 0
    while s <= max_n:
        splits = Counter((min(a, b), f) for b, f in zip(valuations, factors)).items()
        turns = 3 ** (sum(times << c for (c, _), times in splits) - 1) if rotated else 1
        # pieces[t]: product over the parts j of mu of the factors that one
        # part s of nu adds when t points lie below it
        pieces = []
        for t in range(max_n - s + 1):
            factor = turns
            for (c, f), times in splits:
                size = s >> c
                split = 1
                for i in range(1 << c):
                    split *= f(t + i * size)
                factor *= split**times
            pieces.append(factor)
        # the cycles of lam of length e*s, one odd e | g after another: the
        # parts s of nu are interchangeable, so the lengths may enter in turn
        for e in odd_lengths:
            step = e * s
            # blocks[t]: the product of the e pieces from t up
            blocks = [math.prod(pieces[t : t + step : s]) for t in range(max_n - step + 1)]
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


def _unrooted_table(valuations: tuple[int, ...], max_n: int) -> list[int]:
    """Index n >= 2 holds n! times the sum over lam |- n of
    prod over parts j of mu of u_{lam^j}, divided by z_lam, for mu = 1^2
    (valuations (0, 0)) or (2) (valuations (1,)); indices 0 and 1 hold 0.

    On the binary lam, U = 3u = D + 3 half, where D = 3 (u - half) and
    half are products over the parts of lam (see u_direct), so a product of
    p alike U_{lam^j} is the sum over i of C(p, i) 3^i D^(p-i) half^i:
    scalar passes of D^2, D half and half^2 for 1^2, of D and half of lam^2
    for (2).  From the empty lam's 1 each pass gives D_lam, and -half_lam
    for every lam but (1), where it gives 2 against half's 1: a part added
    at m = 1 has half's factor 2m - 2 = 0, so that entry reaches no n >= 2,
    the only entries read.  The lam = 3 nu add n!/m! times the rotated pass
    over nu |- m to 3^p times the sum at n = 3m, as z_{3nu} = 3^l(nu) z_nu
    and u_{3nu^j} = 3^(l(nu^j)-1) r_{nu^j} (see u_direct), so one exact
    division by 3^p ends the table.
    """
    parts = len(valuations)
    sums = [0] * (max_n + 1)
    for i in range(parts + 1):
        factors = (_d_factor,) * (parts - i) + (_half_factor,) * i
        weight = math.comb(parts, i) * (-3) ** i
        for n, x in enumerate(_fixed_point_table(1, valuations, max_n, factors=factors)):
            sums[n] += weight * x
    rotated = _fixed_point_table(1, valuations, max_n // 3, rotated=True)
    for m in range(1, max_n // 3 + 1):
        sums[3 * m] += math.perm(3 * m, 2 * m) * rotated[m]
    table = [0] * (max_n + 1)
    for n in range(2, max_n + 1):
        table[n] = _divide(sums[n], 3**parts, f"sum of u at {n}")
    return table


# Bytes the pass store may hold, each table charged by _table_bytes: enough
# that a counts run of the six families (k = 3) to n = 600 builds each of
# its 7 tables once (a 2 MiB store rebuilt the 1^3 pass there, 1.0 s).  A
# pass grows about as n^2 log n bytes, and the rooted pass of 1^2 outgrows
# the store past about n = 1260 (0.83 MiB at 600, 2.46 MiB at 1000), so
# table_guard charges a pass that two families share to each of them.
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
    """Every table that count_table reads, one per pass key: (g, valuations)
    for a _fixed_point_table pass, ("unrooted", valuations) for an
    _unrooted_table, which sums its D, half and rotated passes.
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

    def get(self, key, max_n: int, build) -> tuple:
        """The table of key to at least max_n, from build(max_n) if needed."""
        entry = self.tables.pop(key, None)
        if entry is not None:
            if entry[0] >= max_n:
                self.tables[key] = entry
                return entry[1]
            self.held -= entry[2]
        table = tuple(build(max_n))
        size = _table_bytes(table)
        if size <= PASS_STORE_BYTES:
            self.tables[key] = (max_n, table, size)
            self.held += size
            while self.held > PASS_STORE_BYTES:
                self.held -= self.tables.pop(next(iter(self.tables)))[2]
        return table


_passes = _PassStore()


def count_table(family: TanglegramFamily, max_n: int) -> list[int]:
    """Counts of the family for every n <= max_n: index n holds the count
    with n leaves, and the sizes below family.min_n hold 0.

    n! |G| times the count is the sum over the cycle types mu of G, each
    weighted by its number of elements, of the sum over lam |- n of
    n!/z_lam times the product over the parts j of mu of a_{lam^j}, where
    a is r or u.  Each _pass_key of the mu reads one table that holds that
    sum for each n: _fixed_point_table for rooted trees, and for unrooted
    ones, a pair of trees, _unrooted_table, which holds the lam = 3 nu too.
    So the weighted total divides by |G| n! alone.  Every table is
    read through the pass store (_PassStore), so a table that an earlier
    call built, for any family and to at least max_n, is not built again.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    passes: Counter[PassKey] = Counter()
    for mu in family.group_types():
        passes[_pass_key(mu)] += family.group_elements(mu)
    totals = [0] * (max_n + 1)
    for (g, valuations), weight in passes.items():
        if family.unrooted:
            key, build = ("unrooted", valuations), partial(_unrooted_table, valuations)
        else:
            key, build = (g, valuations), partial(_fixed_point_table, g, valuations)
        sums = _passes.get(key, max_n, build)
        for n in range(family.min_n, max_n + 1):
            totals[n] += weight * sums[n]
    table = [0] * (max_n + 1)
    for n in range(family.min_n, max_n + 1):
        divisor = family.group_order * math.factorial(n)
        table[n] = _divide(totals[n], divisor, family.label)
    return table


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


def unrooted_from_rooted(rooted: list[int]) -> list[int]:
    """Counts of unlabeled unrooted binary trees by leaf number, from
    rooted[n], those of rooted ones for n <= N (rooted[0] = 0), by Otter's
    dissymmetry step on ordinary generating functions:

      U = (R^3 + 3 R(x) R(x^2) + 2 R(x^3)) / 6 + x R + R - R^2 - x

    Index n of the returned list is the coefficient of x^n, 0 for n <= 1."""
    r = rooted
    square = [sum(r[i] * r[n - i] for i in range(1, n)) for n in range(len(r))]
    out = [0] * len(r)
    for n in range(2, len(r)):
        cube = sum(r[i] * square[n - i] for i in range(1, n - 1))
        pairs = sum(r[n - 2 * i] * r[i] for i in range(1, (n + 1) // 2))
        triples = r[n // 3] if n % 3 == 0 else 0
        h3 = _divide(cube + 3 * pairs + 2 * triples, 6, f"unrooted tree count at {n}")
        out[n] = h3 + r[n - 1] + r[n] - square[n]
    return out


def labeled_counts(n: int) -> tuple[int, int]:
    """(number of labeled binary trees on n leaves, number of labeled
    tanglegrams) = ((2n-3)!!, ((2n-3)!!)^2), with value 1 at n = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    trees = 1
    for j in range(1, n):
        trees *= 2 * j - 1
    return trees, trees * trees
