"""Brute-force ground truth at small n: explicit enumeration of labeled
rooted and unrooted binary trees, permutation fixed-point counts, and
Burnside orbit counts for every tanglegram family.

Rooted trees are nested tuples: a leaf is its integer label, an internal
vertex is a pair of subtrees kept in a canonical order, so structural
equality is isomorphism of labeled trees.  An unrooted tree is compared
through its encoding rooted at leaf 1's only edge: leaves are labeled,
so leaf 1 is already a canonical root and one encoding takes the place
of the minimum over all 2n - 3 edge rootings.

The fixed-point counts depend only on the cycle type of a permutation,
so `fixed_counts(n, unrooted)` enumerates the trees once and counts, by
relabeling and comparing, the trees fixed by one representative of each
type.  The table (p(n) integers, never the trees) is cached per
(n, tree kind), and every Burnside sum and `verify` check reads it; a
power sigma^m is looked up by its cycle type, since conjugate
permutations fix equally many trees.  Everything here is meant for n up
to about 8; the symbolic path is the production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .partitions import Partition, partitions_of, power_type, z
from .species import TREE_KINDS, TanglegramFamily

DEFAULT_ENUMERATION_LIMIT = 8
DEFAULT_BURNSIDE_LIMIT = 7

RootedTree = int | tuple  # leaf label, or canonical (left, right) pair


class SizeLimitExceeded(ValueError):
    """Requested n is beyond the configured brute-force guard."""


# -- rooted trees ---------------------------------------------------------


def _sort_key(tree: RootedTree):
    # tags keep leaf/node encodings comparable at every nesting level
    if isinstance(tree, int):
        return (0, tree)
    return (1, _sort_key(tree[0]), _sort_key(tree[1]))


def node(left: RootedTree, right: RootedTree) -> tuple:
    """Join two subtrees under a new root, children canonically ordered."""
    if _sort_key(left) <= _sort_key(right):
        return (left, right)
    return (right, left)


def _rebuild(tree: RootedTree, leaf_map) -> tuple[RootedTree, tuple]:
    # returns (tree, key); sharing child keys keeps rebuilds linear in size
    if isinstance(tree, int):
        new = leaf_map(tree)
        return new, (0, new)
    left, key_left = _rebuild(tree[0], leaf_map)
    right, key_right = _rebuild(tree[1], leaf_map)
    if key_left <= key_right:
        return (left, right), (1, key_left, key_right)
    return (right, left), (1, key_right, key_left)


def canonicalize(tree: RootedTree) -> RootedTree:
    """Canonical form; idempotent, equal forms iff isomorphic as labeled trees."""
    return _rebuild(tree, lambda label: label)[0]


def relabel(tree: RootedTree, sigma: tuple[int, ...]) -> RootedTree:
    """Apply the leaf relabeling i -> sigma[i-1], re-canonicalizing."""
    return _rebuild(tree, lambda label: sigma[label - 1])[0]


def leaf_labels(tree: RootedTree) -> set[int]:
    if isinstance(tree, int):
        return {tree}
    return leaf_labels(tree[0]) | leaf_labels(tree[1])


def _insertions(tree: RootedTree, leaf: int):
    # attach the new leaf above the root or along any internal position
    yield node(tree, leaf)
    if not isinstance(tree, int):
        left, right = tree
        for new_left in _insertions(left, leaf):
            yield node(new_left, right)
        for new_right in _insertions(right, leaf):
            yield node(left, new_right)


def enumerate_rooted(n: int, limit: int = DEFAULT_ENUMERATION_LIMIT) -> list[RootedTree]:
    """All binary trees on leaf set {1..n}, each once, canonical;
    (2n-3)!! of them for n > 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > limit:
        raise SizeLimitExceeded(f"n = {n} exceeds rooted enumeration limit {limit}")
    trees: list[RootedTree] = [1]
    for leaf in range(2, n + 1):
        trees = [grown for t in trees for grown in _insertions(t, leaf)]
    return trees


# -- unrooted trees -------------------------------------------------------


@dataclass(frozen=True)
class UnrootedTree:
    """Unrooted binary tree: leaves carry labels 1..n_leaves, internal
    vertices (ids above n_leaves) all have degree 3."""

    n_leaves: int
    edges: tuple[tuple[int, int], ...]

    def _adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {}
        for u, v in self.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        return adj

    def _encode_from(self, vertex: int, parent: int, adj) -> tuple:
        if vertex <= self.n_leaves:
            return (0, vertex)
        children = sorted(
            self._encode_from(w, vertex, adj) for w in adj[vertex] if w != parent
        )
        return (1, children[0], children[1])

    @cached_property
    def canonical(self) -> tuple:
        """Encoding of the tree rooted at leaf 1's only edge: equal for two
        trees iff they are the same labeled tree, and invariant under
        renaming internal ids and reordering edges."""
        adj = self._adjacency()
        (hub,) = adj[1]
        return self._encode_from(hub, 1, adj)

    def relabel(self, sigma: tuple[int, ...]) -> "UnrootedTree":
        """Apply the leaf relabeling i -> sigma[i-1]; internal ids unchanged."""

        def m(v: int) -> int:
            return sigma[v - 1] if v <= self.n_leaves else v

        edges = tuple(tuple(sorted((m(u), m(v)))) for u, v in self.edges)
        return UnrootedTree(self.n_leaves, edges)


def enumerate_unrooted(n: int, limit: int = DEFAULT_ENUMERATION_LIMIT) -> list[UnrootedTree]:
    """All unrooted binary trees on leaf set {1..n}, each once, built by
    repeatedly subdividing an edge with a new leaf; (2n-5)!! of them for
    n >= 3, one (the single edge) for n = 2."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > limit:
        raise SizeLimitExceeded(f"n = {n} exceeds unrooted enumeration limit {limit}")
    trees = [UnrootedTree(n, ((1, 2),))]
    next_internal = n + 1
    for leaf in range(3, n + 1):
        grown = []
        for t in trees:
            for i, (u, v) in enumerate(t.edges):
                others = t.edges[:i] + t.edges[i + 1:]
                w = next_internal
                new_edges = others + tuple(
                    tuple(sorted(e)) for e in ((u, w), (v, w), (leaf, w))
                )
                grown.append(UnrootedTree(n, tuple(sorted(new_edges))))
        trees = grown
        next_internal += 1
    return trees


# -- permutations ---------------------------------------------------------


def cycle_type(sigma: tuple[int, ...]) -> Partition:
    """Cycle type of a permutation given as a tuple (i -> sigma[i-1])."""
    n = len(sigma)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = sigma[j] - 1
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return Partition(tuple(lengths))


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


def compose(sigma: tuple[int, ...], tau: tuple[int, ...]) -> tuple[int, ...]:
    """(sigma . tau)(i) = sigma(tau(i))."""
    return tuple(sigma[t - 1] for t in tau)


# -- fixed points and Burnside counts --------------------------------------


def fix_count(trees: list, sigma: tuple[int, ...]) -> int:
    """Number of enumerated trees unchanged by the leaf relabeling sigma;
    depends only on the cycle type of sigma."""
    count = 0
    if trees and isinstance(trees[0], UnrootedTree):
        for t in trees:
            if t.relabel(sigma).canonical == t.canonical:
                count += 1
    else:
        for t in trees:
            if relabel(t, sigma) == t:
                count += 1
    return count


# One table per (n, tree kind) up to the enumeration guard; each holds p(n)
# integers, the trees themselves are dropped once counted.  The guard is
# checked by fixed_counts, so that it stays out of the cache key.
@lru_cache(maxsize=2 * (DEFAULT_ENUMERATION_LIMIT + 1))
def _fixed_table(n: int, unrooted: bool) -> tuple[tuple[Partition, int], ...]:
    if unrooted:
        trees = enumerate_unrooted(n, limit=n)
    else:
        trees = enumerate_rooted(n, limit=n)
    return tuple(
        (lam, fix_count(trees, permutation_of_type(lam, n))) for lam in partitions_of(n)
    )


def fixed_counts(
    n: int, unrooted: bool, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> dict[Partition, int]:
    """Map each cycle type lam |- n to the number of enumerated labeled
    trees (unrooted or rooted) fixed by a permutation of type lam.

    The trees are enumerated once per (n, kind) and the counts cached;
    the identity type 1^n fixes every tree, so its entry is the number
    of trees.  Raises SizeLimitExceeded for n > limit.
    """
    if n > limit:
        raise SizeLimitExceeded(
            f"n = {n} exceeds {TREE_KINDS[unrooted]} enumeration limit {limit}"
        )
    return dict(_fixed_table(n, unrooted))


fixed_counts.cache_clear = _fixed_table.cache_clear  # type: ignore[attr-defined]
fixed_counts.cache_info = _fixed_table.cache_info  # type: ignore[attr-defined]


def burnside_count(
    family: TanglegramFamily, n: int, limit: int = DEFAULT_BURNSIDE_LIMIT
) -> int:
    """Orbit count for the family by Burnside's lemma: average over the
    acting group S_n x G of the number of fixed k-tuples of enumerated trees.

    Along each cycle of g, of length m, the first entry of a fixed tuple
    determines the others and must be fixed by sigma^m, so a pair
    (sigma, g) fixes prod over the cycle lengths m of g of fix(sigma^m)
    tuples.  Both factors are grouped by cycle type, with n!/z_lam
    permutations sigma of type lam and family.group_elements(mu) elements
    g of type mu, and fix(sigma^m) is read from `fixed_counts` at the
    cycle type of sigma^m.
    """
    if n > limit:
        raise SizeLimitExceeded(f"n = {n} exceeds Burnside limit {limit}")
    if n < family.min_n:
        raise ValueError(f"{family.label} requires n >= {family.min_n}, got {n}")
    fixes = fixed_counts(n, family.unrooted, limit=max(limit, DEFAULT_ENUMERATION_LIMIT))
    n_fact = math.factorial(n)
    total = 0
    for mu in family.group_types():
        total += family.group_elements(mu) * sum(
            n_fact // z(lam) * math.prod(fixes[power_type(lam, m)] for m in mu.parts)
            for lam in partitions_of(n)
        )
    order = n_fact * family.group_order
    if total % order != 0:
        raise ArithmeticError(
            f"Burnside sum {total} not divisible by group order {order}"
        )
    return total // order
