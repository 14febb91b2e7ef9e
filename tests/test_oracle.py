import math
from itertools import permutations

import pytest

from helpers import compose, cycle_type
from tanglecount import (
    ROOTED_ORDERED,
    ROOTED_UNORDERED,
    UNROOTED_ORDERED,
    UNROOTED_UNORDERED,
    NonIntegerCount,
    Partition,
    SizeLimitExceeded,
    binary_tree_cycle_index,
    burnside_count,
    chain,
    chain_unordered,
    count,
    count_table,
    enumerate_rooted,
    enumerate_unrooted,
    fix_count,
    fixed_counts,
    labeled_counts,
    partitions_of,
    power_type,
    r_closed_form,
    r_coefficient,
    u_direct,
    unrooted_tree_cycle_index,
    z,
)
from tanglecount import oracle
from tanglecount.oracle import ORACLE_LIMIT, permutation_of_type

# fixed_counts(n, unrooted) as computed by the former nested-tuple oracle,
# one entry per cycle type in the order of sorted(lam.parts): 1^n first
PARENT_TABLES = {
    (False, 1): (1,),
    (False, 2): (1, 1),
    (False, 3): (3, 1, 0),
    (False, 4): (15, 3, 3, 0, 1),
    (False, 5): (105, 15, 5, 0, 0, 1, 0),
    (False, 6): (945, 105, 21, 21, 0, 0, 0, 3, 3, 0, 0),
    (False, 7): (10395, 945, 135, 45, 0, 0, 0, 0, 15, 5, 0, 0, 0, 0, 0),
    (True, 2): (1, 1),
    (True, 3): (1, 1, 1),
    (True, 4): (3, 1, 3, 0, 1),
    (True, 5): (15, 3, 3, 0, 0, 1, 0),
    (True, 6): (105, 15, 5, 19, 0, 0, 3, 1, 3, 0, 1),
    (True, 7): (945, 105, 21, 21, 0, 0, 0, 0, 3, 3, 0, 0, 0, 0, 0),
}


def clusters_of(tree):
    """Internal clusters, as sorted bitmasks, of a rooted tree written as
    nested pairs with integer leaf labels."""
    out = set()

    def walk(t):
        if isinstance(t, int):
            return 1 << (t - 1)
        mask = walk(t[0]) | walk(t[1])
        out.add(mask)
        return mask

    walk(tree)
    return tuple(sorted(out))


def nested_of(tree, n):
    """The rooted tree with these clusters as nested pairs; asserts that
    every internal vertex has exactly two children."""

    def build(mask):
        if mask & (mask - 1) == 0:
            return mask.bit_length()
        inner = [c for c in tree if c != mask and c & mask == c]
        tops = [c for c in inner if not any(c != d and c & d == c for d in inner)]
        covered = sum(tops)
        tops += [1 << i for i in range(n) if mask & ~covered & (1 << i)]
        assert len(tops) == 2, (tree, mask)
        return tuple(build(c) for c in tops)

    return build((1 << n) - 1)


def edges_of(tree, n):
    """Edge list of the unrooted tree with these splits, hung from leaf 1:
    each split and the full set {2..n} becomes an internal vertex above n,
    joined to the smallest cluster strictly containing it."""
    full = (1 << n) - 2
    if n == 2:
        return [(1, 2)]
    clusters = sorted({*tree, full}, key=lambda c: bin(c).count("1"))
    ids = {c: n + 1 + i for i, c in enumerate(clusters)}

    def parent(mask):
        return ids[next(c for c in clusters if c != mask and c & mask == mask)]

    edges = [(1, ids[full])]
    edges += [(leaf, parent(1 << (leaf - 1))) for leaf in range(2, n + 1)]
    edges += [(ids[c], parent(c)) for c in clusters if c != full]
    return edges


def adjacency(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def splits_of(edges, n):
    """Non-trivial splits of an unrooted tree given by its edges (leaves
    1..n, internal vertices above n), each as its side without leaf 1,
    sorted."""
    adj = adjacency(edges)
    splits = set()

    def below(v, parent):
        if v <= n:
            return 1 << (v - 1)
        mask = 0
        for w in adj[v]:
            if w != parent:
                mask |= below(w, v)
        if parent != 1:
            splits.add(mask)
        return mask

    (hub,) = adj[1]
    below(hub, 1)
    return tuple(sorted(splits))


def min_over_rootings(edges, n):
    """An equality key independent of leaf 1: the least sorted pair of
    half-tree encodings over all edge-midpoint rootings."""
    adj = adjacency(edges)

    def encode(v, parent):
        if v <= n:
            return (0, v)
        return (1, *sorted(encode(w, v) for w in adj[v] if w != parent))

    return min(tuple(sorted((encode(u, v), encode(v, u)))) for u, v in edges)


def relabel_edges(edges, sigma, n):
    def m(v):
        return sigma[v - 1] if v <= n else v

    return [(m(u), m(v)) for u, v in edges]


def power(sigma, m):
    out = sigma
    for _ in range(m - 1):
        out = compose(out, sigma)
    return out


def double_factorial_odd(m):
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def nested(a, b):
    """Whether two leaf sets are disjoint or one holds the other."""
    return a & b in (0, a, b)


class TestEnumerateRooted:
    @pytest.mark.parametrize(
        "n,expected", [(1, 1), (2, 1), (3, 3), (4, 15), (5, 105), (6, 945), (7, 10395)]
    )
    def test_counts(self, n, expected):
        assert len(enumerate_rooted(n)) == expected

    def test_all_distinct_and_canonical(self):
        # a tree rebuilt as nested pairs from its clusters has those clusters
        for n in range(1, 8):
            trees = enumerate_rooted(n)
            assert len(set(trees)) == len(trees)
            for t in trees:
                assert clusters_of(nested_of(t, n)) == t

    def test_clusters_laminar_with_full_set(self):
        for n in range(1, 8):
            full = (1 << n) - 1
            for t in enumerate_rooted(n):
                assert len(t) == n - 1 and list(t) == sorted(t)
                assert n == 1 or t[-1] == full
                assert all(c & (c - 1) and c & ~full == 0 for c in t)
                assert all(nested(a, b) for a in t for b in t)

    def test_leaf_label_sets(self):
        for t in enumerate_rooted(5):
            assert max(t) == 0b11111

    def test_guard(self):
        with pytest.raises(SizeLimitExceeded):
            enumerate_rooted(9)

    def test_scrambled_nested_tuple_is_enumerated(self):
        scrambled = ((5, (2, 1)), (4, 3))
        assert clusters_of(scrambled) == clusters_of((((1, 2), 5), (3, 4)))
        assert clusters_of(scrambled) in enumerate_rooted(5)
        assert clusters_of(scrambled) != clusters_of((((1, 5), 2), (3, 4)))


class TestEnumerateUnrooted:
    @pytest.mark.parametrize(
        "n,expected", [(2, 1), (3, 1), (4, 3), (5, 15), (6, 105), (7, 945)]
    )
    def test_counts(self, n, expected):
        assert len(enumerate_unrooted(n)) == expected

    def test_all_distinct(self):
        for n in range(2, 8):
            trees = enumerate_unrooted(n)
            assert len(set(trees)) == len(trees)

    def test_splits_compatible_without_leaf_one(self):
        for n in range(2, 8):
            full = (1 << n) - 1
            for t in enumerate_unrooted(n):
                assert len(t) == max(n - 3, 0) and list(t) == sorted(t)
                for c in t:
                    # both sides hold two leaves or more, leaf 1 outside
                    assert c & 1 == 0 and c & (c - 1)
                    assert (full ^ c) & (full ^ c) - 1
                assert all(nested(a, b) for a in t for b in t)

    def test_degrees_one_or_three_and_connected(self):
        for n in range(2, 8):
            for t in enumerate_unrooted(n):
                edges = edges_of(t, n)
                adj = adjacency(edges)
                assert all(len(adj[v]) == (1 if v <= n else 3) for v in adj)
                assert sorted(v for v in adj if v <= n) == list(range(1, n + 1))
                # connected with |V| - 1 edges, hence a tree
                seen = {1}
                stack = [1]
                while stack:
                    for w in adj[stack.pop()]:
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                assert seen == set(adj)
                assert len(edges) == len(adj) - 1
                assert splits_of(edges, n) == t

    def test_canonical_ignores_internal_ids(self):
        # the sorted splits are the canonical form
        star_a = [(1, 4), (2, 4), (3, 4)]
        star_b = [(1, 9), (2, 9), (3, 9)]
        assert splits_of(star_a, 3) == splits_of(star_b, 3) == ()
        assert enumerate_unrooted(3) == [()]

    def test_canonical_ignores_edge_order(self):
        # the quartet 13|24 with a pendant leaf 5, written two ways
        tree = [(1, 6), (3, 6), (6, 7), (5, 7), (7, 8), (2, 8), (4, 8)]
        scrambled = [(12, 4), (11, 12), (2, 12), (5, 11), (3, 10), (10, 11), (10, 1)]
        other = [(1, 6), (2, 6), (6, 7), (5, 7), (7, 8), (3, 8), (4, 8)]
        assert splits_of(tree, 5) == splits_of(scrambled, 5) == (0b01010, 0b11010)
        assert splits_of(tree, 5) != splits_of(other, 5)
        assert splits_of(tree, 5) in enumerate_unrooted(5)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_leaf_one_rooting_agrees_with_min_over_rootings(self, n):
        # the trees and all their relabelings by cycle-type representatives,
        # as edge lists; splits are read from the rooting at leaf 1
        trees = enumerate_unrooted(n)
        pool = []
        for lam in partitions_of(n):
            sigma = permutation_of_type(lam, n)
            relabeled = [relabel_edges(edges_of(t, n), sigma, n) for t in trees]
            images = [splits_of(e, n) for e in relabeled]
            assert sum(i == t for i, t in zip(images, trees)) == fix_count(trees, sigma)
            pool.extend(relabeled)
        leaf_one = [splits_of(e, n) for e in pool]
        min_over = [min_over_rootings(e, n) for e in pool]
        # the two keys induce the same equivalence on the pool
        assert len(set(leaf_one)) == len(set(min_over)) == len(set(zip(leaf_one, min_over)))
        assert set(leaf_one) == set(trees)

    def test_guard(self):
        with pytest.raises(SizeLimitExceeded):
            enumerate_unrooted(9)


class TestPermutations:
    def test_cycle_type(self):
        assert cycle_type((2, 3, 1, 5, 4)) == Partition((3, 2))
        assert cycle_type((1, 2, 3)) == Partition((1, 1, 1))

    def test_representative_has_right_type(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                assert cycle_type(permutation_of_type(lam, n)) == lam

    def test_compose(self):
        sigma = (2, 1, 3)
        tau = (3, 2, 1)
        assert compose(sigma, tau) == (3, 1, 2)


class TestFixCount:
    def test_identity_fixes_everything(self):
        trees = enumerate_rooted(4)
        assert fix_count(trees, (1, 2, 3, 4)) == 15

    def test_two_two_cycle_type(self):
        trees = enumerate_rooted(4)
        sigma = permutation_of_type(Partition((2, 2)), 4)
        assert fix_count(trees, sigma) == 3
        assert fix_count(trees, sigma) == r_coefficient(
            Partition((2, 2)), binary_tree_cycle_index(4)
        )

    def test_three_cycle_fixes_nothing(self):
        trees = enumerate_rooted(3)
        sigma = permutation_of_type(Partition((3,)), 3)
        assert fix_count(trees, sigma) == 0
        assert r_closed_form(Partition((3,))) == 0

    def test_matches_cycle_index_coefficients(self):
        zr = binary_tree_cycle_index(6)
        for n in range(1, 7):
            trees = enumerate_rooted(n)
            for lam in partitions_of(n):
                sigma = permutation_of_type(lam, n)
                assert fix_count(trees, sigma) == r_coefficient(lam, zr), lam

    def test_depends_only_on_cycle_type_exhaustive(self):
        for unrooted, n in [(False, n) for n in range(1, 7)] + [(True, n) for n in range(2, 7)]:
            trees = enumerate_unrooted(n) if unrooted else enumerate_rooted(n)
            by_type = {}
            for sigma in permutations(range(1, n + 1)):
                by_type.setdefault(cycle_type(sigma), set()).add(
                    fix_count(trees, sigma)
                )
            assert all(len(vals) == 1 for vals in by_type.values())

    def test_unrooted_fix_count(self):
        trees = enumerate_unrooted(4)
        assert fix_count(trees, (1, 2, 3, 4)) == 3
        # swapping leaves 1,2 fixes the 12|34 quartet and swaps the other two
        assert fix_count(trees, (2, 1, 3, 4)) == 1
        # (1 3)(2 4) maps the side 34 of 12|34 to 12, whose complement is 34
        assert fix_count(trees, (3, 4, 1, 2)) == 3


class TestFixedCounts:
    @pytest.mark.parametrize("unrooted", [False, True])
    def test_table_matches_fix_count_on_actual_powers(self, unrooted):
        for n in range(2 if unrooted else 1, 7):
            trees = enumerate_unrooted(n) if unrooted else enumerate_rooted(n)
            table = fixed_counts(n, unrooted)
            assert set(table) == set(partitions_of(n))
            assert table[Partition((1,) * n)] == len(trees)
            for lam in partitions_of(n):
                sigma = permutation_of_type(lam, n)
                for m in range(1, 4):
                    expected = fix_count(trees, power(sigma, m))
                    assert table[power_type(lam, m)] == expected, (n, lam, m)

    def test_cached_once_per_size_and_kind(self):
        fixed_counts.cache_clear()
        first = fixed_counts(5, True)
        with pytest.raises(TypeError):
            first[Partition((5,))] = -1  # every caller shares the one table
        assert fixed_counts(5, True) is first
        assert first[Partition((5,))] == fix_count(
            enumerate_unrooted(5), permutation_of_type(Partition((5,)), 5)
        )
        info = fixed_counts.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert info.maxsize is not None

    def test_tables_match_former_oracle(self):
        for (unrooted, n), counts in PARENT_TABLES.items():
            table = fixed_counts(n, unrooted)
            assert tuple(table[lam] for lam in sorted(table, key=lambda lam: lam.parts)) == (
                counts
            ), (unrooted, n)
        assert len(PARENT_TABLES) == 13

    # the closed forms that the counts read, and the solved series, against
    # the trees they count, at every cycle type up to the oracle's guard
    @pytest.mark.parametrize("unrooted", [False, True])
    def test_match_the_closed_forms(self, unrooted):
        closed_form = u_direct if unrooted else r_closed_form
        solve = unrooted_tree_cycle_index if unrooted else binary_tree_cycle_index
        series = solve(ORACLE_LIMIT)
        for n in range(1 + unrooted, ORACLE_LIMIT + 1):
            table = fixed_counts(n, unrooted)
            for lam in partitions_of(n):
                assert table[lam] == closed_form(lam) == r_coefficient(lam, series), (n, lam)

    def test_guard(self):
        with pytest.raises(SizeLimitExceeded):
            fixed_counts(9, False)
        with pytest.raises(SizeLimitExceeded):
            fixed_counts(9, True)


class TestBurnsideCount:
    def test_spec_examples(self):
        assert burnside_count(ROOTED_ORDERED, 4) == 13
        assert burnside_count(ROOTED_UNORDERED, 4) == 10
        assert burnside_count(UNROOTED_ORDERED, 5) == 4

    def test_guard(self):
        with pytest.raises(SizeLimitExceeded):
            burnside_count(ROOTED_ORDERED, 9)

    def test_agrees_with_count_table_at_the_guard(self):
        n = ORACLE_LIMIT
        for fam in (ROOTED_ORDERED, ROOTED_UNORDERED, UNROOTED_ORDERED,
                    UNROOTED_UNORDERED, chain(3), chain_unordered(3)):
            assert burnside_count(fam, n) == count_table(fam, n)[n], fam.label

    def test_non_integer_sum_raises(self, monkeypatch):
        # 15 trees fixed by the identity alone: 15 over the 4! relabelings
        fixes = {lam: 0 for lam in partitions_of(4)}
        fixes[Partition((1, 1, 1, 1))] = 15
        monkeypatch.setattr(oracle, "fixed_counts", lambda n, unrooted: fixes)
        with pytest.raises(NonIntegerCount, match="^Burnside sum for chain"):
            burnside_count(chain(1), 4)

    def test_agrees_with_species_counts(self):
        families = [
            ROOTED_ORDERED,
            ROOTED_UNORDERED,
            UNROOTED_ORDERED,
            UNROOTED_UNORDERED,
            chain(3),
            chain_unordered(3),
        ]
        for fam in families:
            for n in range(fam.min_n, 7):
                assert burnside_count(fam, n) == count(fam, n), (fam.label, n)

    def test_chains_agree_with_count_table(self):
        # the oracle reads the same group as the passes; the group's own
        # check is the permutation tally in test_species
        for k in range(1, 5):
            for fam in (chain(k), chain_unordered(k)):
                table = count_table(fam, 5)
                for n in range(1, 6):
                    assert burnside_count(fam, n) == table[n], (fam.label, n)

    def test_matches_r_lambda_expansion(self):
        # the Burnside sum regrouped by cycle type: (1/n!) sum (n!/z) r^2
        for n in range(1, 7):
            trees = enumerate_rooted(n)
            total = 0
            for lam in partitions_of(n):
                r = fix_count(trees, permutation_of_type(lam, n))
                total += (math.factorial(n) // z(lam)) * r * r
            assert total % math.factorial(n) == 0
            assert total // math.factorial(n) == burnside_count(ROOTED_ORDERED, n)

    def test_enumeration_matches_labeled_counts(self):
        for n in range(1, 8):
            assert len(enumerate_rooted(n)) == labeled_counts(n)[0]
        for n in range(2, 8):
            assert len(enumerate_unrooted(n)) == double_factorial_odd(2 * n - 5)
