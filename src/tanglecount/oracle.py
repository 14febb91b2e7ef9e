"""Brute-force ground truth at small n: explicit enumeration of labeled
rooted and unrooted binary trees, permutation fixed-point counts, and
Burnside orbit counts for every tanglegram family.

A tree is the sorted tuple of its leaf sets, each an integer bitmask
with leaf i as bit i - 1.  A rooted tree on [n] holds its n - 1 internal
clusters (the leaf sets below each internal vertex), the full set last.
An unrooted tree on [n] holds its n - 3 non-trivial splits, each written
as the side without leaf 1; hanging the tree from leaf 1 makes these the
internal clusters, less the full set {2..n}, of a rooted tree on leaves
2..n.  A binary tree is determined by its clusters, and an unrooted one
by its splits, so equal tuples are equal labeled trees, and a
permutation sigma fixes a tree iff it maps each of its sets onto one of
its sets.  `fix_count` builds the image of every mask under sigma once,
taking a side that gains leaf 1 to its complement for unrooted trees
(told apart by their n - 3 splits against n - 1 clusters), and tests
each tree by lookups.  A sorted tuple, not a frozenset, holds the sets
because it takes about a ninth of the memory (88 against 728 bytes for
six sets), and there are 10395 rooted trees at n = 7.

The fixed-point counts depend only on the cycle type of a permutation,
so `fixed_counts(n, unrooted)` enumerates the trees once and counts the
trees fixed by one representative of each type.  The table (p(n)
integers, never the trees) is cached once per (n, tree kind) and handed
out read-only, so every Burnside sum and `verify` check reads the one
cached mapping in place; a power sigma^m is looked up by its cycle type,
since conjugate permutations fix equally many trees.

Everything here is desk-scale, with one fixed guard: the enumerators,
and so `fixed_counts` and `burnside_count`, raise SizeLimitExceeded for
n > ORACLE_LIMIT = 8.  The symbolic path is the production path.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType

from .partitions import Partition, partitions_of, power_type, z
from .species import TanglegramFamily, _divide

ORACLE_LIMIT = 8

Tree = tuple[int, ...]  # sorted internal clusters (rooted) or splits (unrooted)


class SizeLimitExceeded(ValueError):
    """Requested n is beyond a brute-force guard."""


# -- trees ----------------------------------------------------------------


def _grow(first: int, n: int) -> list[Tree]:
    """Every binary tree on leaves first..n, as its sorted internal
    clusters, each once: insert leaves first+1..n in turn above any
    vertex c, so that every cluster strictly containing c gains the new
    leaf and c plus the new leaf becomes a cluster."""
    trees: list[Tree] = [()]
    for leaf in range(first + 1, n + 1):
        b = 1 << (leaf - 1)
        leaves = [1 << (i - 1) for i in range(first, leaf)]
        trees = [
            tuple(sorted([*(x | b if x & c == c and x != c else x for x in t), c | b]))
            for t in trees
            for c in (*t, *leaves)
        ]
    return trees


def enumerate_rooted(n: int) -> list[Tree]:
    """All binary trees on leaf set {1..n}, each once, as sorted tuples of
    internal clusters, the full set last; (2n-3)!! of them for n > 1.
    Raises SizeLimitExceeded for n > ORACLE_LIMIT."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ORACLE_LIMIT:
        raise SizeLimitExceeded(
            f"n = {n} exceeds rooted enumeration limit {ORACLE_LIMIT}"
        )
    return _grow(1, n)


def enumerate_unrooted(n: int) -> list[Tree]:
    """All unrooted binary trees on leaf set {1..n}, each once, as sorted
    tuples of non-trivial splits: the rooted trees on leaves 2..n less
    their last cluster, the full one; (2n-5)!! of them for n >= 3, one
    (no splits) for n = 2.  Raises SizeLimitExceeded for
    n > ORACLE_LIMIT."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > ORACLE_LIMIT:
        raise SizeLimitExceeded(
            f"n = {n} exceeds unrooted enumeration limit {ORACLE_LIMIT}"
        )
    return [t[:-1] for t in _grow(2, n)]


# -- permutations ---------------------------------------------------------


def permutation_of_type(lam: Partition, n: int) -> tuple[int, ...]:
    """A representative permutation of [n] with cycle type lam, built from
    consecutive blocks."""
    if lam.size != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    sigma = []
    start = 1
    for length in lam.parts:
        sigma.extend(range(start + 1, start + length))
        sigma.append(start)
        start += length
    return tuple(sigma)


# -- fixed points and Burnside counts --------------------------------------


def fix_count(trees: list[Tree], sigma: tuple[int, ...]) -> int:
    """Number of enumerated trees, all rooted or all unrooted, unchanged by
    the leaf relabeling sigma; depends only on the cycle type of sigma."""
    n = len(sigma)
    img = [0] * (1 << n)
    for i, j in enumerate(sigma):
        img[1 << i] = 1 << (j - 1)
    for m in range(1, 1 << n):
        low = m & -m
        img[m] = img[m ^ low] | img[low]
    # a rooted tree on n leaves has n - 1 clusters, an unrooted one fewer
    if trees and len(trees[0]) < n - 1:
        # a split is written as its side without leaf 1
        full = (1 << n) - 1
        img = [m ^ full if m & 1 else m for m in img]
    # fixed iff every set's image is again one of its sets; one filter per
    # position drops each tree at its first miss
    fixed = trees
    for k in range(len(trees[0]) if trees else 0):
        fixed = [t for t in fixed if img[t[k]] in t]
    return len(fixed)


# One table per (n, tree kind) up to the enumeration guard; each holds p(n)
# integers, the trees themselves are dropped once counted.  The enumerators
# raise past the guard, and lru_cache caches no exception.
@lru_cache(maxsize=2 * (ORACLE_LIMIT + 1))
def fixed_counts(n: int, unrooted: bool) -> MappingProxyType[Partition, int]:
    """Map each cycle type lam |- n, in partitions_of(n) order, to the
    number of enumerated labeled trees (unrooted or rooted) fixed by a
    permutation of type lam.

    The trees are enumerated once per (n, kind), and the one cached table
    is shared read-only by every caller; the identity type 1^n fixes every
    tree, so its entry is the number of trees.  Raises SizeLimitExceeded
    for n > ORACLE_LIMIT.
    """
    trees = enumerate_unrooted(n) if unrooted else enumerate_rooted(n)
    return MappingProxyType(
        {lam: fix_count(trees, permutation_of_type(lam, n)) for lam in partitions_of(n)}
    )


def burnside_count(family: TanglegramFamily, n: int) -> int:
    """Orbit count for the family by Burnside's lemma: average over the
    acting group S_n x G of the number of fixed k-tuples of enumerated trees.

    Along each cycle of g, of length m, the first entry of a fixed tuple
    determines the others and must be fixed by sigma^m, so a pair
    (sigma, g) fixes prod over the cycle lengths m of g of fix(sigma^m)
    tuples.  Both factors are grouped by cycle type, with n!/z_lam
    permutations sigma of type lam and family.group_elements(mu) elements
    g of type mu, and fix(sigma^m) is read from `fixed_counts` at the
    cycle type of sigma^m.  Raises SizeLimitExceeded, from `fixed_counts`,
    for n > ORACLE_LIMIT.
    """
    if n < family.min_n:
        raise ValueError(f"{family.label} requires n >= {family.min_n}, got {n}")
    fixes = fixed_counts(n, family.unrooted)
    n_fact = math.factorial(n)
    total = 0
    for mu in family.group_types():
        total += family.group_elements(mu) * sum(
            n_fact // z(lam) * math.prod(fixes[power_type(lam, m)] for m in mu.parts)
            for lam in fixes
        )
    order = n_fact * family.group_order
    return _divide(total, order, f"Burnside sum for {family.label} at n = {n}")
