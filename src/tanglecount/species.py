"""Cycle indices of rooted and unrooted binary-tree species, and exact
counts for the six tanglegram families built from them.

Every family is a sum over cycle types lam |- n of the leaf permutation:

  tangled chain (k)    sum of r_lam^k / z_lam
  rooted ordered       the chain with k = 2
  chain unordered (k)  sum of Z_{S_k}(r_lam, r_{lam^2}, ...) / z_lam
  rooted unordered     the unordered chain with k = 2
  unrooted ordered     Z_U Kronecker Z_U evaluated at p_lam = 1, degree n
  unrooted unordered   h_2{Z_U} likewise

where r_lam is the number of labeled rooted binary trees fixed by a
permutation of cycle type lam and lam^j is the cycle type of its j-th
power.  r_lam has a product formula (r_closed_form) and vanishes unless
every part of lam is a power of 2, so the four rooted families are
computed by count_table's pass over binary partitions, with no series.

The unrooted families still go through the series: the rooted cycle
index solves Z = p_1 + h_2[Z] (a binary tree is a leaf or an unordered
pair of binary trees), and the unrooted one comes from the dissymmetry
decomposition Z_U = h_3[Z] + p_1 Z + Z - Z^2 - p_1.  The rooted series
stays as the independent cross-check of the pass.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cycle_index import (
    CycleIndexSeries,
    DegreeOutOfRange,
    h_series,
    inner_plethysm_hn,
    p1,
)
from .partitions import Partition, is_binary_partition, partitions_of, z


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
    if len(lam) == 0 or not is_binary_partition(lam):
        return 0
    out = 1
    tail = lam.size
    for part in lam.parts[:-1]:
        tail -= part
        out *= 2 * tail - 1
    return out


# -- counts ---------------------------------------------------------------


def _as_int(total: Fraction, what: str) -> int:
    if total.denominator != 1:
        raise NonIntegerCount(f"{what} evaluated to non-integer {total}")
    return int(total)


# Largest n the command line accepts on each path, so that no accepted
# command runs for much more than a minute.  On a 2-core Xeon vCPU with
# CPython 3.11 the four rooted tables (k = 3) take 27 s to n = 600, and the
# two unrooted tables 67 s to n = 40, about three times more every 5 degrees.
ROOTED_DP_LIMIT = 600  # count_table for a rooted family
SERIES_LIMIT = 40  # anything that solves Z = p_1 + h_2[Z]


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


def _fixed_point_table(mu: Partition, max_n: int) -> list[int]:
    """Index n holds n! times the sum over lam |- n of
    prod over parts j of mu of (2n-1) * r_{lam^j}, divided by z_lam.

    The product vanishes unless every lam^j is binary, which holds exactly
    when each part of lam is e * 2^a with e dividing g, the odd part of
    gcd(mu).  Then lam^j = nu^j for the binary shadow nu of lam, which
    replaces each part e * 2^a by e parts 2^a, so the pass runs over binary
    nu only: part sizes 2^a from the smallest up, the running size as the
    state, and the lam behind each nu entering through _cycle_type_weights.

    Under j = 2^b * o a part 2^a of nu splits into 2^c parts of size
    2^(a-c), c = min(a, b).  Built from the smallest part up, the running
    size after each piece is its tail, and r's product formula gives the
    piece the factor 2*tail - 1; the largest piece's factor is the extra
    2n - 1 per part of mu.
    """
    g = 0
    for j in mu.parts:
        g = math.gcd(g, j)
    g >>= _two_adic(g)
    odd_lengths = [e for e in range(1, g + 1, 2) if g % e == 0]
    valuations = [_two_adic(j) for j in mu.parts]
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
                    split *= 2 * (t + i * size) - 1
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
        table = grown
        s, a = 2 * s, a + 1
    return table


def count_table(family: TanglegramFamily, max_n: int) -> list[int]:
    """Counts of the family for every n <= max_n: index n holds the count
    with n leaves, and the sizes below family.min_n hold 0.

    A rooted family takes one _fixed_point_table pass per cycle type mu of
    the k trees, weighted as in Z_{S_k} (the ordered ones need mu = 1^k
    only).  An unrooted family reads the series at degree max_n row by row.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if family.unrooted:
        rows = [count(family, n, max_n) for n in range(family.min_n, max_n + 1)]
        return ([0] * family.min_n + rows)[: max_n + 1]
    k = family.k or 2
    if family.kind in ("rooted-ordered", "chain"):
        order, types = 1, [(Partition((1,) * k), 1)]
    else:
        order = math.factorial(k)
        types = [(mu, order // z(mu)) for mu in partitions_of(k)]
    totals = [0] * (max_n + 1)
    for mu, weight in types:
        sums = _fixed_point_table(mu, max_n)
        for n in range(1, max_n + 1):
            totals[n] += weight * sums[n] * (2 * n - 1) ** (k - len(mu))
    return [0] + [
        _as_int(
            Fraction(totals[n], order * math.factorial(n) * (2 * n - 1) ** k),
            family.label,
        )
        for n in range(1, max_n + 1)
    ]


@lru_cache(maxsize=None)
def _unrooted_pair_series(N: int) -> CycleIndexSeries:
    zu = unrooted_tree_cycle_index(N)
    return zu.kronecker(zu)


@lru_cache(maxsize=None)
def _unrooted_unordered_series(N: int) -> CycleIndexSeries:
    return inner_plethysm_hn(2, unrooted_tree_cycle_index(N))


def count(family: TanglegramFamily, n: int, N: int | None = None) -> int:
    """Number of unlabeled structures of the family with n leaves.

    N (default n, at least n) is the truncation degree of the series and
    matters only for the unrooted families, whose series are cached per N;
    a rooted count is count_table(family, n)[n] whatever N is.
    """
    if n < family.min_n:
        raise ValueError(f"{family.label} requires n >= {family.min_n}, got {n}")
    if N is None:
        N = n
    if n > N:
        raise DegreeOutOfRange(f"n = {n} exceeds truncation degree N = {N}")
    if not family.unrooted:
        return count_table(family, n)[n]
    if family.kind == "unrooted-ordered":
        series = _unrooted_pair_series(N)
    else:
        series = _unrooted_unordered_series(N)
    return _as_int(series.count_at_degree(n), family.label)


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
