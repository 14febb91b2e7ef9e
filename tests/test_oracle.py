import math
from itertools import permutations

import pytest

from tanglecount import (
    ROOTED_ORDERED,
    ROOTED_UNORDERED,
    UNROOTED_ORDERED,
    UNROOTED_UNORDERED,
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
    z,
)
from tanglecount.oracle import (
    UnrootedTree,
    canonicalize,
    compose,
    cycle_type,
    leaf_labels,
    permutation_of_type,
)


def min_over_rootings(tree):
    """The former canonical form of an unrooted tree: the least sorted pair
    of half-tree encodings over all edge-midpoint rootings, O(n^2)."""
    adj = tree._adjacency()
    return min(
        tuple(sorted((tree._encode_from(u, v, adj), tree._encode_from(v, u, adj))))
        for u, v in tree.edges
    )


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


class TestEnumerateRooted:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 3), (5, 105)])
    def test_counts(self, n, expected):
        assert len(enumerate_rooted(n)) == expected

    def test_all_distinct_and_canonical(self):
        for n in range(1, 7):
            trees = enumerate_rooted(n)
            assert len(set(trees)) == len(trees)
            for t in trees:
                assert canonicalize(t) == t

    def test_leaf_label_sets(self):
        for t in enumerate_rooted(5):
            assert leaf_labels(t) == {1, 2, 3, 4, 5}

    def test_guard(self):
        with pytest.raises(SizeLimitExceeded):
            enumerate_rooted(9)
        assert len(enumerate_rooted(4, limit=4)) == 15

    def test_canonicalize_idempotent_on_scrambled_input(self):
        scrambled = ((5, (2, 1)), (4, 3))
        once = canonicalize(scrambled)
        assert canonicalize(once) == once
        assert once in enumerate_rooted(5)


class TestEnumerateUnrooted:
    @pytest.mark.parametrize("n,expected", [(2, 1), (3, 1), (4, 3), (5, 15)])
    def test_counts(self, n, expected):
        assert len(enumerate_unrooted(n)) == expected

    def test_all_distinct(self):
        for n in range(2, 7):
            trees = enumerate_unrooted(n)
            assert len({t.canonical for t in trees}) == len(trees)

    def test_degrees_one_or_three_and_connected(self):
        for t in enumerate_unrooted(6):
            degree = {}
            adjacency = {}
            for u, v in t.edges:
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
                adjacency.setdefault(u, []).append(v)
                adjacency.setdefault(v, []).append(u)
            assert all(d in (1, 3) for d in degree.values())
            assert sorted(v for v in degree if v <= 6) == [1, 2, 3, 4, 5, 6]
            # connected with |V| - 1 edges, hence a tree
            seen = {1}
            stack = [1]
            while stack:
                for w in adjacency[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            assert seen == set(degree)
            assert len(t.edges) == len(degree) - 1

    def test_canonical_ignores_internal_ids(self):
        star_a = UnrootedTree(3, ((1, 4), (2, 4), (3, 4)))
        star_b = UnrootedTree(3, ((1, 9), (2, 9), (3, 9)))
        assert star_a.canonical == star_b.canonical

    def test_canonical_ignores_edge_order(self):
        # the quartet 13|24 with a pendant leaf 5, written two ways
        tree = UnrootedTree(5, ((1, 6), (3, 6), (6, 7), (5, 7), (7, 8), (2, 8), (4, 8)))
        scrambled = UnrootedTree(
            5, ((12, 4), (11, 12), (2, 12), (5, 11), (3, 10), (10, 11), (10, 1))
        )
        other = UnrootedTree(5, ((1, 6), (2, 6), (6, 7), (5, 7), (7, 8), (3, 8), (4, 8)))
        assert tree.canonical == scrambled.canonical
        assert tree.canonical != other.canonical

    @pytest.mark.parametrize("n", range(2, 7))
    def test_leaf_one_rooting_agrees_with_min_over_rootings(self, n):
        # the trees and all their relabelings by cycle-type representatives
        trees = enumerate_unrooted(n)
        pool = list(trees)
        for lam in partitions_of(n):
            sigma = permutation_of_type(lam, n)
            pool.extend(t.relabel(sigma) for t in trees)
        leaf_one = [t.canonical for t in pool]
        min_over = [min_over_rootings(t) for t in pool]
        # the two keys induce the same equivalence on the pool
        assert len(set(leaf_one)) == len(set(min_over)) == len(set(zip(leaf_one, min_over)))
        assert len(set(leaf_one)) == len(trees)

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
        for n in range(1, 7):
            trees = enumerate_rooted(n)
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
        first[Partition((5,))] = -1  # the caller's copy, not the cache
        assert fixed_counts(5, True)[Partition((5,))] == fix_count(
            enumerate_unrooted(5), permutation_of_type(Partition((5,)), 5)
        )
        info = fixed_counts.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert info.maxsize is not None

    def test_guard(self):
        with pytest.raises(SizeLimitExceeded):
            fixed_counts(9, False)
        with pytest.raises(SizeLimitExceeded):
            fixed_counts(5, True, limit=4)


class TestBurnsideCount:
    def test_spec_examples(self):
        assert burnside_count(ROOTED_ORDERED, 4) == 13
        assert burnside_count(ROOTED_UNORDERED, 4) == 10
        assert burnside_count(UNROOTED_ORDERED, 5) == 4

    def test_guard(self):
        with pytest.raises(SizeLimitExceeded):
            burnside_count(ROOTED_ORDERED, 8)

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
