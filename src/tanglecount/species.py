"""Cycle indices of rooted and unrooted binary-tree species, and exact
counts for the six tanglegram families built from them.

Every family is a sum over cycle types lam |- n of the leaf permutation:

  tangled chain (k)    sum of r_lam^k / z_lam
  rooted ordered       the chain with k = 2
  chain unordered (k)  sum of Z_{S_k}(r_lam, r_{lam^2}, ...) / z_lam
  rooted unordered     the unordered chain with k = 2
  unrooted ordered     sum of u_lam^2 / z_lam
  unrooted unordered   sum of (u_lam^2 + u_{lam^2}) / (2 z_lam)

where r_lam and u_lam are the numbers of labeled rooted and unrooted
binary trees fixed by a permutation of cycle type lam and lam^j is the
cycle type of its j-th power.  r_lam has a product formula (r_closed_form)
and vanishes unless every part of lam is a power of 2, so the four rooted
families are computed by count_table's pass over binary partitions.

u_lam vanishes unless lam is binary or 3 times a binary partition (and
lam^2 lies in that support only when lam does), so the unrooted families
are summed over that support with u_lam from three rules (u_direct): root
the tree at a fixed leaf, or at a vertex whose three branches the
permutation rotates, or, for a binary lam with no part 1, read u_lam off
the dissymmetry decomposition of the unrooted species.

No count goes through a series.  The series route stays as the
independent cross-check: the rooted cycle index solves Z = p_1 + h_2[Z]
(a binary tree is a leaf or an unordered pair of binary trees), and the
unrooted one is Z_U = h_3[Z] + p_1 Z + Z - Z^2 - p_1.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .cycle_index import CycleIndexSeries, DegreeOutOfRange, h_series, p1
from .partitions import (
    Partition,
    binary_partitions,
    is_binary_partition,
    iter_partitions,
    z,
)


class NonIntegerCoefficient(ArithmeticError):
    """A coefficient that must be a nonnegative integer is not; signals an
    upstream bug, never expected on valid inputs."""


class NonIntegerCount(ArithmeticError):
    """A count that must be a nonnegative integer is not."""


_ROOTED_KINDS = ("rooted-ordered", "rooted-unordered")
_UNROOTED_KINDS = ("unrooted-ordered", "unrooted-unordered")
_CHAIN_KINDS = ("chain", "chain-unordered")


@dataclass(frozen=True)
class TanglegramFamily:
    """One of the counted families; chain kinds carry their length k."""

    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind in _CHAIN_KINDS:
            if self.k is None or self.k < 1:
                raise ValueError(f"{self.kind} requires a chain length k >= 1")
        elif self.kind in _ROOTED_KINDS + _UNROOTED_KINDS:
            if self.k is not None:
                raise ValueError(f"{self.kind} does not take a chain length")
        else:
            raise ValueError(f"unknown family kind {self.kind!r}")

    @property
    def unrooted(self) -> bool:
        return self.kind in _UNROOTED_KINDS

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


@lru_cache(maxsize=None)
def binary_tree_cycle_index(N: int) -> CycleIndexSeries:
    """The unique series Z with zero constant term satisfying
    Z = p_1 + h_2[Z] through degree N, by successive substitution.

    Each pass stabilizes one more degree, so the truncation degree grows
    with the pass; this keeps every intermediate product within the part
    of the series that is already exact.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    zr = p1(1)
    for m in range(2, N + 1):
        stable = CycleIndexSeries(zr.terms, m)  # degrees < m already exact
        zr = p1(m) + h_series(2, m).plethysm(stable)
    return zr


@lru_cache(maxsize=None)
def unrooted_tree_cycle_index(N: int) -> CycleIndexSeries:
    """Cycle index of unrooted binary trees (leaves labeled, internal
    vertices of degree 3), from the dissymmetry decomposition
    Z_U = h_3[Z_R] + p_1 Z_R + Z_R - Z_R^2 - p_1.

    The one-vertex tree is excluded, so the degree-0 and degree-1
    components vanish and queries need n >= 2.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    zr = binary_tree_cycle_index(N)
    one = p1(N)
    return h_series(3, N).plethysm(zr) + one * zr + zr - zr * zr - one


def r_coefficient(lam: Partition, Z: CycleIndexSeries) -> int:
    """Number of labeled binary trees fixed by a permutation of cycle type
    lam, read off the series as coefficient(lam) * z(lam)."""
    value = Z.coefficient(lam) * z(lam)
    if value.denominator != 1 or value < 0:
        raise NonIntegerCoefficient(
            f"coefficient {value} at {lam} is not a nonnegative integer"
        )
    return int(value)


def r_closed_form(lam: Partition) -> int:
    """Product formula for the fixed-tree count r_lam: over i = 2..l(lam),
    multiply 2*(lam_i + ... + lam_l) - 1; zero unless every part is a
    power of 2.  The empty partition gets 0 (no tree has zero leaves)."""
    if not is_binary_partition(lam):
        return 0
    return _r_binary(_binary_vector(lam))


def u_direct(lam: Partition) -> int:
    """Number of labeled unrooted binary trees fixed by a permutation of
    cycle type lam, with no series: zero unless lam is binary or 3 times a
    binary partition, and on that support

      lam binary with a part 1   r of lam less one part 1 (root the tree at
                                 that fixed leaf)
      lam = 3 mu, mu binary      3^(l(mu)-1) r_mu (root it at the vertex
                                 whose three branches the permutation rotates)
      lam binary, no part 1      the dissymmetry count of _NoLeaf
    """
    if is_binary_partition(lam):
        if not lam.parts or lam.parts[-1] == 1:
            return r_closed_form(Partition(lam.parts[:-1]))
        state = _NO_LEAF_EMPTY
        for part in reversed(lam.parts):
            state = state.grow(part)
        return state.u()
    if all(part % 3 == 0 for part in lam.parts):
        mu = Partition(tuple(part // 3 for part in lam.parts))
        if is_binary_partition(mu):
            return _u_rotated(_binary_vector(mu))
    return 0


class _NoLeaf(NamedTuple):
    """What u needs of a binary lam with no part 1, grown one part at a time
    from the smallest part up:

      size    |lam|
      splits  S, the sum over the ordered splits (A, R) of the cycles of lam
              of r_A * 2^l(R) * r_{R/2}, where r of the empty partition is 0
      r       r_lam
      half    2^l(lam) * r_{lam/2}

    Dissymmetry gives 6 u = T3 + 3 S + 6 r - 6 T2 on such a lam, with T2
    and T3 the sums of r_A r_B and r_A r_B r_C over ordered splits into two
    and three parts (the leaf terms of Z_U = h_3[Z] + p_1 Z + Z - Z^2 - p_1
    vanish, and so does p_3[Z] on a binary lam).  The rooted equation
    Z = p_1 + h_2[Z] read on lam gives 2 r = T2 + half, and read on each
    B = lam - A inside T3 = sum over A of r_A T2(B) it gives
    T3 = 2 T2 - S.  So 3 u = S - r + 2 half.
    """

    size: int
    splits: int
    r: int
    half: int

    def grow(self, part: int) -> "_NoLeaf":
        """The state of lam + (part,), for a part at least as large as every
        part of lam; only lam's size enters, as in r's product formula.

        The new cycle c joins A or R of each split of lam.  Joining a
        nonempty A multiplies r_A by 2|A| - 1, joining a nonempty R
        multiplies 2^l(R) r_{R/2} by 2 (|R| - 1): together 2 |lam| - 3.  The
        splits with A = {c} add half(lam), those with R = {c} add 2 r_lam.
        """
        size = self.size
        if not size:
            return _NoLeaf(part, 0, 1, 2)
        return _NoLeaf(
            size + part,
            (2 * size - 3) * self.splits + self.half + 2 * self.r,
            (2 * size - 1) * self.r,
            2 * (size - 1) * self.half,
        )

    def u(self) -> int:
        if not self.size:
            return 0
        value, rest = divmod(self.splits - self.r + 2 * self.half, 3)
        if rest:
            raise NonIntegerCoefficient(f"u at size {self.size} is not an integer")
        return value


_NO_LEAF_EMPTY = _NoLeaf(0, 0, 0, 0)


# -- fixed-tree counts on multiplicity vectors ------------------------------
#
# A binary partition is written as its multiplicity vector: entry a counts
# the parts 2^a, and the last entry is nonzero (partitions.binary_partitions).


def _binary_vector(lam: Partition) -> tuple[int, ...]:
    if not lam.parts:
        return ()
    mult = [0] * lam.parts[0].bit_length()
    for part in lam.parts:
        mult[part.bit_length() - 1] += 1
    return tuple(mult)


def _r_binary(mult: tuple[int, ...]) -> int:
    """r_lam by the product formula, adding parts from the smallest up: each
    part but the largest contributes 2 * (size so far) - 1."""
    out, size = 1, 0
    for a, m in enumerate(mult):
        if m:
            step = 2 << a
            out *= math.prod(range(2 * size + step - 1, 2 * size + m * step, step))
            size += m << a
    return out // (2 * size - 1) if size else 0


def _z_binary(mult: tuple[int, ...], scale: int = 1) -> int:
    """z of the partition with mult[a] parts scale * 2^a."""
    out = 1
    for a, m in enumerate(mult):
        out *= (scale << a) ** m * math.factorial(m)
    return out


def _square(mult: tuple[int, ...]) -> tuple[int, ...]:
    """lam^2: a part 1 stays, a part 2^a with a >= 1 splits into two 2^(a-1).
    The same map takes 3 mu to 3 mu^2."""
    if len(mult) < 2:
        return mult
    return (mult[0] + 2 * mult[1],) + tuple(2 * m for m in mult[2:])


def _u_rotated(mu: tuple[int, ...]) -> int:
    """u of 3 mu for binary mu.  The permutation rotates the three branches
    at a fixed vertex, and its cube fixes each branch, acting on the leaves
    of one branch with type mu: r_mu trees there, on a leaf set that takes
    one of the three thirds of each cycle, and any of the three branches
    could have been the first."""
    return 3 ** (sum(mu) - 1) * _r_binary(mu)


def _no_leaf_sums(max_n: int, ordered: bool) -> list[int]:
    """Index n holds the sum over binary lam |- n with no part 1 of n!/z_lam
    times u_lam^2 (ordered) or u_lam^2 + u_{lam^2} (unordered).

    Every such lam grows from lam less its largest part, so a walk over
    them does a constant number of big-integer steps per partition.  lam^2
    grows alongside by two parts of half the size.  Once lam has a part 2,
    lam^2 has parts 1 and u_{lam^2} is r of lam^2 less one of them, the r
    of a state grown from a single part 1.
    """
    factorials = [math.factorial(n) for n in range(max_n + 1)]
    sums = [0] * (max_n + 1)
    # (lam, lam^2 or lam^2 less a part 1, z_lam, largest part of lam, its
    # multiplicity, whether lam has a part 2)
    stack = []
    for a in range(1, max_n.bit_length()):
        part = 1 << a
        if part == 2:
            square = _NO_LEAF_EMPTY.grow(1)
        else:
            square = _NO_LEAF_EMPTY.grow(part >> 1).grow(part >> 1)
        stack.append((_NO_LEAF_EMPTY.grow(part), square, part, part, 1, part == 2))
    while stack:
        lam, square, z_lam, part, times, has_two = stack.pop()
        u = lam.u()
        term = u * u
        if not ordered:
            term += square.r if has_two else square.u()
        sums[lam.size] += factorials[lam.size] // z_lam * term
        for a in range(part.bit_length() - 1, (max_n - lam.size).bit_length()):
            new = 1 << a
            more = times + 1 if new == part else 1
            half = new >> 1
            stack.append(
                (lam.grow(new), square.grow(half).grow(half), z_lam * new * more, new, more, has_two)
            )
    return sums


# -- counts ---------------------------------------------------------------


def _as_int(total: Fraction, what: str) -> int:
    if total.denominator != 1:
        raise NonIntegerCount(f"{what} evaluated to non-integer {total}")
    return int(total)


# Largest inputs the command line accepts on each path, so that no accepted
# command runs for much more than a minute.  On a 2-core Xeon vCPU with
# CPython 3.11 the four rooted tables (k = 3) take 27 s to n = 600, and
# the series solve for zindex and gf grows about threefold every 5 degrees.
ROOTED_DP_LIMIT = 600  # count_table for a rooted family
SERIES_LIMIT = 40  # anything that solves Z = p_1 + h_2[Z]
UNROOTED_LIMIT = 300  # count_table for an unrooted family: 46 s for both
# chain-unordered(k) makes one pass per _pass_key of the mu |- k, and a
# pass takes about 3e-11 * len(mu) * max_n^4 seconds: 15 s for k = 3 to
# n = 600 (3 passes, 6 parts in all), 5 s for k = 20 to n = 100 (199
# passes, 1696 parts), 27 s for k = 30 to n = 100 (769 passes, 9013 parts).
CHAIN_PARTS_LIMIT = 10_000  # k <= 30; counting them takes 0.2 s or less
CHAIN_WORK_LIMIT = 2 * 10**12  # parts times max_n^4, about a minute


def chain_parts_limit(max_n: int) -> int:
    """Most parts, summed over its passes, that the command line lets
    chain-unordered spend to max_n."""
    return min(CHAIN_PARTS_LIMIT, CHAIN_WORK_LIMIT // max(max_n, 1) ** 4)


def _two_adic(j: int) -> int:
    """Exponent of the largest power of 2 dividing j >= 1."""
    return (j & -j).bit_length() - 1


def _cycle_type_weights(s: int, odd_lengths: list[int], max_n: int) -> list[int]:
    """Index M holds the number of permutations of M*s points whose cycles
    all have a length e*s with e in odd_lengths:
    (M*s)! times the sum of 1/z_lam over the lam whose binary shadow is s^M."""
    top = max_n // s
    perms = [1] + [0] * top
    for m in range(1, top + 1):
        # the cycle through the first point has e*s points
        perms[m] = sum(
            math.perm(m * s - 1, e * s - 1) * perms[m - e]
            for e in odd_lengths
            if e <= m
        )
    return perms


PassKey = tuple[int, tuple[int, ...]]


def _pass_key(mu: Partition) -> PassKey:
    """What _fixed_point_table needs of mu: the odd part of gcd(mu) and the
    sorted 2-adic valuations of its parts."""
    g = 0
    for j in mu.parts:
        g = math.gcd(g, j)
    return g >> _two_adic(g), tuple(sorted(_two_adic(j) for j in mu.parts))


def chain_pass_parts(k: int, limit: float = math.inf) -> int:
    """The parts of the passes count_table makes for chain-unordered(k),
    one pass per _pass_key of the mu |- k, summed over the passes.  Stops
    as soon as the sum exceeds limit, so that a large k enumerates few
    partitions of k."""
    keys: set[PassKey] = set()
    parts = 0
    for mu in iter_partitions(k):
        key = _pass_key(mu)
        if key not in keys:
            keys.add(key)
            parts += len(mu)
            if parts > limit:
                break
    return parts


def _fixed_point_table(
    g: int, valuations: tuple[int, ...], max_n: int, leaf: bool = False
) -> list[int]:
    """Index n holds n! times the sum over lam |- n of
    prod over parts j of mu of (2n-1) * r_{lam^j}, divided by z_lam, for any
    mu with _pass_key(mu) = (g, valuations).

    With leaf, the sum runs over the lam with a part 1 only, and each
    r_{lam^j} becomes r of lam^j less one part 1, the tree rooted at that
    fixed leaf; the factors below drop by 2, so the largest piece's is
    2n - 3, and the leaf's own is -1, one sign per part of mu (n >= 2).

    The product vanishes unless every lam^j is binary, which holds exactly
    when each part of lam is e * 2^a with e dividing g, the odd part of
    gcd(mu).  Then lam^j = nu^j for the binary shadow nu of lam, which
    replaces each part e * 2^a by e parts 2^a, so the pass runs over binary
    nu only: part sizes 2^a from the smallest up, the running size as the
    state, and the lam behind each nu entering through _cycle_type_weights.

    Under j = 2^b * o a part 2^a of nu splits into 2^c parts of size
    2^(a-c), c = min(a, b), so only b matters.  Built from the smallest part
    up, the running size after each piece is its tail, and r's product
    formula gives the piece the factor 2*tail - 1; the largest piece's
    factor is the extra 2n - 1 per part of mu.
    """
    odd_lengths = [e for e in range(1, g + 1, 2) if g % e == 0]
    shift = 2 if leaf else 0
    table = [1] + [0] * max_n
    s, a = 1, 0
    while s <= max_n:
        splits = Counter(min(a, b) for b in valuations).items()
        # pieces[t]: product over the parts j of mu of the factors that one
        # part s of nu adds when t points lie below it
        pieces = []
        for t in range(max_n - s + 1):
            factor = 1
            for c, times in splits:
                size = s >> c
                split = 1
                for i in range(1, (1 << c) + 1):
                    split *= 2 * (t + i * size) - 1 - shift
                factor *= split**times
            pieces.append(factor)
        weights = _cycle_type_weights(s, odd_lengths, max_n)
        grown = table[:]
        for base in range(max_n - s + 1):
            if not table[base]:
                continue
            tails = 1
            for m in range(1, (max_n - base) // s + 1):
                tails *= pieces[base + (m - 1) * s]
                top = base + m * s
                grown[top] += table[base] * math.comb(top, base) * weights[m] * tails
        if leaf and s == 1:
            grown[0] = 0  # no part 1
        table = grown
        s, a = 2 * s, a + 1
    return table


def count_table(family: TanglegramFamily, max_n: int) -> list[int]:
    """Counts of the family for every n <= max_n: index n holds the count
    with n leaves, and the sizes below family.min_n hold 0.

    A rooted family takes one _fixed_point_table pass per _pass_key of the
    cycle types mu of the k trees, each mu weighted as in Z_{S_k} (the
    ordered ones need mu = 1^k only).  An unrooted family sums over the
    support of u, size by size.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if family.unrooted:
        return _unrooted_table(family, max_n)
    k = family.k or 2
    if family.kind in ("rooted-ordered", "chain"):
        order, passes = 1, {(1, (0,) * k): 1}
    else:
        order, passes = math.factorial(k), Counter()
        for mu in iter_partitions(k):
            passes[_pass_key(mu)] += order // z(mu)
    totals = [0] * (max_n + 1)
    for (g, valuations), weight in passes.items():
        sums = _fixed_point_table(g, valuations, max_n)
        for n in range(1, max_n + 1):
            totals[n] += weight * sums[n] * (2 * n - 1) ** (k - len(valuations))
    return [0] + [
        _as_int(
            Fraction(totals[n], order * math.factorial(n) * (2 * n - 1) ** k),
            family.label,
        )
        for n in range(1, max_n + 1)
    ]


def _unrooted_table(family: TanglegramFamily, max_n: int) -> list[int]:
    """n! times the count is the sum over the support of u of n!/z_lam
    times u_lam^2 (ordered) or (u_lam^2 + u_{lam^2}) / 2 (unordered).

    The lam with a part 1 have u_lam = r of lam less that part, and then
    u_{lam^2} = r of lam^2 less it, so they take the rooted pass rooted at a
    leaf: mu = (1, 1) for u_lam^2 and mu = (2,) for u_{lam^2}.  The binary
    lam with no part 1 come from _no_leaf_sums, and the lam = 3 nu are
    summed one at a time.
    """
    ordered = family.kind == "unrooted-ordered"
    leaf_pairs = _fixed_point_table(1, (0, 0), max_n, leaf=True)
    if ordered:
        leaf_squares = [0] * (max_n + 1)
    else:
        leaf_squares = _fixed_point_table(1, (1,), max_n, leaf=True)
    no_leaf = _no_leaf_sums(max_n, ordered)
    table = [0] * (max_n + 1)
    for n in range(2, max_n + 1):
        n_fact = math.factorial(n)
        rest = no_leaf[n]
        for nu in binary_partitions(n // 3) if n % 3 == 0 else ():
            u = _u_rotated(nu)
            term = u * u if ordered else u * u + _u_rotated(_square(nu))
            rest += n_fact // _z_binary(nu, 3) * term
        # the leaf tables carry 2n - 3 per part of mu, and a sign -1 for (2,)
        top = 2 * n - 3
        total = leaf_pairs[n] - top * leaf_squares[n] + rest * top * top
        table[n] = _as_int(
            Fraction(total, n_fact * top * top * (1 if ordered else 2)), family.label
        )
    return table


def count(family: TanglegramFamily, n: int, N: int | None = None) -> int:
    """Number of unlabeled structures of the family with n leaves:
    count_table(family, n)[n].

    N (default n) is accepted for callers that once passed the series'
    truncation degree; it must be at least n and changes nothing.
    """
    if n < family.min_n:
        raise ValueError(f"{family.label} requires n >= {family.min_n}, got {n}")
    if N is None:
        N = n
    if n > N:
        raise DegreeOutOfRange(f"n = {n} exceeds truncation degree N = {N}")
    return count_table(family, n)[n]


# -- independent checks ---------------------------------------------------


def wedderburn_etherington(N: int) -> list[int]:
    """Counts of unlabeled rooted binary trees by leaf number, computed
    directly from the functional equation W(x) = x + (W(x)^2 + W(x^2))/2;
    index n of the returned list is the coefficient of x^n, for n <= N.

    Independent of the cycle-index path, so it cross-checks
    unlabeled_gf(binary_tree_cycle_index(N)).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    a = [Fraction(0)] * (N + 1)
    a[1] = Fraction(1)
    for n in range(2, N + 1):
        s = sum((a[i] * a[n - i] for i in range(1, n)), start=Fraction(0))
        if n % 2 == 0:
            s += a[n // 2]
        a[n] = s / 2
    return [_as_int(c, f"tree count at {i}") for i, c in enumerate(a)]


def labeled_counts(n: int) -> tuple[int, int]:
    """(number of labeled binary trees on n leaves, number of labeled
    tanglegrams) = ((2n-3)!!, ((2n-3)!!)^2), with value 1 at n = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    trees = 1
    for j in range(1, n):
        trees *= 2 * j - 1
    return trees, trees * trees
