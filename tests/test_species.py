import copy
import math
import pickle
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from helpers import (
    binary_partitions,
    cycle_type,
    from_vector,
    reference_fixed_point_table,
    reference_u,
    reference_unrooted_table,
    series,
)
from tanglecount import (
    ROOTED_ORDERED,
    ROOTED_UNORDERED,
    UNROOTED_ORDERED,
    UNROOTED_UNORDERED,
    DegreeOutOfRange,
    NonIntegerCount,
    Partition,
    TanglegramFamily,
    binary_tree_cycle_index,
    chain,
    chain_unordered,
    count,
    count_table,
    h_series,
    inner_plethysm_hn,
    is_binary_partition,
    labeled_counts,
    p1,
    partitions_of,
    power_type,
    r_closed_form,
    r_coefficient,
    unrooted_tree_cycle_index,
    wedderburn_etherington,
    z,
)
from tanglecount import species
from tanglecount import u_direct

P = Partition
FOUR_KINDS = [ROOTED_ORDERED, ROOTED_UNORDERED, UNROOTED_ORDERED, UNROOTED_UNORDERED]

# printed expansions of the two cycle indices through degree 4
ZR_GOLDEN = {
    1: {(1,): Fraction(1)},
    2: {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)},
    3: {(1, 1, 1): Fraction(1, 2), (2, 1): Fraction(1, 2)},
    4: {
        (1, 1, 1, 1): Fraction(5, 8),
        (2, 2): Fraction(3, 8),
        (2, 1, 1): Fraction(3, 4),
        (4,): Fraction(1, 4),
    },
}

ZU_GOLDEN = {
    2: {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)},
    3: {(2, 1): Fraction(1, 2), (1, 1, 1): Fraction(1, 6), (3,): Fraction(1, 3)},
    4: {
        (2, 1, 1): Fraction(1, 4),
        (1, 1, 1, 1): Fraction(1, 8),
        (2, 2): Fraction(3, 8),
        (4,): Fraction(1, 4),
    },
}


class TestBinaryTreeCycleIndex:
    def test_golden_degrees(self):
        zr = binary_tree_cycle_index(4)
        got = {n: {} for n in range(5)}
        for lam, c in zr.terms.items():
            got[lam.size][lam.parts] = c
        assert got[0] == {}
        for n in range(1, 5):
            assert got[n] == ZR_GOLDEN[n], f"degree {n}"

    def test_fixed_point_identity(self):
        # the defining equation Z = p1 + h2[Z] holds through the truncation
        zr = binary_tree_cycle_index(10)
        assert p1(10) + h_series(2, 10).plethysm(zr) == zr

    def test_supported_on_binary_partitions_only(self):
        zr = binary_tree_cycle_index(12)
        assert all(is_binary_partition(lam) for lam in zr.terms)

    def test_requires_positive_degree(self):
        with pytest.raises(ValueError):
            binary_tree_cycle_index(0)


class TestUnrootedTreeCycleIndex:
    def test_golden_degrees(self):
        zu = unrooted_tree_cycle_index(4)
        got = {n: {} for n in range(5)}
        for lam, c in zu.terms.items():
            got[lam.size][lam.parts] = c
        assert got[0] == {} and got[1] == {}
        for n in range(2, 5):
            assert got[n] == ZU_GOLDEN[n], f"degree {n}"

    def test_requires_degree_two(self):
        with pytest.raises(ValueError):
            unrooted_tree_cycle_index(1)

    def test_coefficients_times_z_are_fix_counts(self):
        # species coefficients times z(lam) are nonnegative integers
        zu = unrooted_tree_cycle_index(10)
        for lam, c in zu.terms.items():
            value = c * z(lam)
            assert value.denominator == 1 and value >= 0, lam


class TestClosedFormCycleIndex:
    @pytest.fixture(scope="class")
    def solved(self):
        # Z_R and then Z_U at each N, so that Z_U's solve finds Z_R(N) in
        # the solvers' small cache instead of solving it again
        series = {}
        for N in range(1, 21):
            series[N, False] = binary_tree_cycle_index(N)
            if N >= 2:
                series[N, True] = unrooted_tree_cycle_index(N)
        return series

    @pytest.mark.parametrize("unrooted", [False, True], ids=species.TREE_KINDS)
    def test_equals_the_solved_series_through_degree_20(self, unrooted, solved):
        for N in range(1 + unrooted, 21):
            assert species.closed_form_cycle_index(N, unrooted) == solved[N, unrooted], N

    @pytest.mark.parametrize("unrooted", [False, True], ids=species.TREE_KINDS)
    def test_reads_the_support_without_scanning_every_partition(self, unrooted, monkeypatch):
        def forbidden(n):
            raise AssertionError("scanned every partition")

        solved = (unrooted_tree_cycle_index if unrooted else binary_tree_cycle_index)(12)
        monkeypatch.setattr(species, "iter_partitions", forbidden)
        assert species.closed_form_cycle_index(12, unrooted) == solved


class TestRCoefficient:
    def test_examples(self):
        zr = binary_tree_cycle_index(4)
        assert r_coefficient(P((1, 1, 1)), zr) == 3
        assert r_coefficient(P((2, 2)), zr) == 3
        assert r_coefficient(P((3,)), zr) == 0

    def test_all_ones_gives_double_factorial(self):
        zr = binary_tree_cycle_index(12)
        for n in range(2, 13):
            assert r_coefficient(P((1,) * n), zr) == labeled_counts(n)[0]

    def test_non_integer_raises(self):
        bogus = series(2, ((2,), 1, 3))
        with pytest.raises(NonIntegerCount):
            r_coefficient(P((2,)), bogus)
        with pytest.raises(NonIntegerCount, match="negative"):
            r_coefficient(P((2,)), series(2, ((2,), -1, 2)))

    def test_beyond_truncation_raises(self):
        with pytest.raises(DegreeOutOfRange):
            r_coefficient(P((8,)), binary_tree_cycle_index(4))


class TestRClosedForm:
    def test_examples(self):
        assert r_closed_form(P((1, 1, 1, 1, 1))) == 105
        assert r_closed_form(P((2, 1, 1))) == 3
        assert r_closed_form(P((3, 1))) == 0

    def test_single_part_is_one(self):
        for k in (1, 2, 4, 8):
            assert r_closed_form(P((k,))) == 1

    def test_empty_partition_is_zero(self):
        assert r_closed_form(P(())) == 0

    def test_matches_solver_through_degree_12(self):
        zr = binary_tree_cycle_index(12)
        for n in range(0, 13):
            for lam in partitions_of(n):
                assert r_closed_form(lam) == r_coefficient(lam, zr), lam

    def test_zero_exactly_on_non_binary_partitions(self):
        zr = binary_tree_cycle_index(10)
        for n in range(1, 11):
            for lam in partitions_of(n):
                if not is_binary_partition(lam):
                    assert r_coefficient(lam, zr) == 0


class TestUDirect:
    def test_matches_series_through_degree_20(self):
        # every lam, the zeros off the support included
        zu = unrooted_tree_cycle_index(20)
        for n in range(0, 21):
            for lam in partitions_of(n):
                assert u_direct(lam) == zu.coefficient(lam) * z(lam), lam

    def test_examples(self):
        assert u_direct(P((2, 2))) == 3
        assert u_direct(P((3,))) == 1
        assert u_direct(P((2, 2, 2))) == 19
        assert u_direct(P((6, 3))) == 3  # 3 (2, 1): 3 r_(2,1)
        assert u_direct(P((3, 1))) == u_direct(P((5,))) == 0
        assert u_direct(P((1,))) == u_direct(P(())) == 0

    def test_all_leaves_fixed_at_60(self):
        # (2n-5)!! labeled unrooted binary trees on n leaves
        expected = math.prod(range(1, 2 * 60 - 4, 2))
        assert u_direct(P((1,) * 60)) == expected

    def test_part_1_is_r_of_lam_less_that_leaf_through_40(self):
        # the fold's seed (u, half) = (0, 1) for a smallest part 1
        checked = 0
        for n in range(1, 41):
            for mult in binary_partitions(n):
                if mult[0]:
                    lam = from_vector(mult)
                    assert u_direct(lam) == r_closed_form(P(lam.parts[:-1])), lam
                    checked += 1
        assert checked == 3734

    def test_u_is_half_less_the_diagonal_product_through_24(self):
        # d = u - half is -1 at a single part and steps as d' = (2m - 3) d
        checked = 0
        for n in range(1, 25):
            for mult in binary_partitions(n):
                lam = from_vector(mult)
                if lam.parts == (1,):
                    half = 1
                elif all(part % 2 == 0 for part in lam.parts):
                    half = 2 ** len(lam) * r_closed_form(P(tuple(p // 2 for p in lam.parts)))
                else:
                    half = 0
                product, size = 1, lam.parts[-1]
                for part in reversed(lam.parts[:-1]):
                    product *= 2 * size - 3
                    size += part
                assert u_direct(lam) == half - product, lam
                checked += 1
        assert checked == 691

    def test_no_part_1_matches_dissymmetry_terms_through_40(self):
        # the recurrence in (u, half) against (S - r + 2 half)/3
        checked = 0
        for n in range(2, 41, 2):
            for mult in binary_partitions(n // 2):
                lam = from_vector(mult, 2)
                assert u_direct(lam) == reference_u(lam), lam
                checked += 1
        assert checked == 389


class TestTanglegramFamily:
    def test_chain_requires_k(self):
        with pytest.raises(ValueError):
            TanglegramFamily("chain")
        with pytest.raises(ValueError):
            TanglegramFamily("chain-unordered", 0)

    def test_plain_families_reject_k(self):
        with pytest.raises(ValueError):
            TanglegramFamily("rooted-ordered", 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TanglegramFamily("rootled")

    @pytest.mark.parametrize(
        "kind, k, message",
        [
            ("rootled", None, "unknown family kind 'rootled'"),
            ("chain", None, "chain requires a chain length k >= 1"),
            ("chain-unordered", 0, "chain-unordered requires a chain length k >= 1"),
            ("rooted-ordered", 2, "rooted-ordered does not take a chain length"),
            ("chain", 2.5, "chain requires an integer chain length k, not 2.5"),
            ("chain", True, "chain requires an integer chain length k, not True"),
            ("chain-unordered", "3",
             "chain-unordered requires an integer chain length k, not '3'"),
        ],
    )
    def test_validation_messages(self, kind, k, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TanglegramFamily(kind, k)

    def test_equality_and_hash_across_instances(self):
        assert chain(3) == TanglegramFamily("chain", 3) == chain(3)
        assert hash(chain(3)) == hash(TanglegramFamily("chain", 3))
        assert TanglegramFamily("rooted-ordered") == ROOTED_ORDERED
        assert chain(3) != chain(4)
        assert chain(3) != chain_unordered(3)
        assert len({chain(3), chain(3), chain_unordered(3), ROOTED_ORDERED}) == 3

    def test_never_equal_to_a_tuple(self):
        assert chain(3) != ("chain", 3)
        assert ("chain", 3) != chain(3)
        assert ROOTED_ORDERED != ("rooted-ordered", None)

    def test_repr(self):
        assert repr(chain(3)) == "TanglegramFamily(kind='chain', k=3)"
        assert repr(ROOTED_ORDERED) == "TanglegramFamily(kind='rooted-ordered', k=None)"

    def test_immutable(self):
        fam = chain(3)
        with pytest.raises(AttributeError):
            fam.k = 4
        with pytest.raises(AttributeError):
            fam.kind = "chain-unordered"
        with pytest.raises(AttributeError):
            del fam.k
        with pytest.raises(AttributeError):
            fam.extra = 1
        assert fam == chain(3)

    @pytest.mark.parametrize(
        "roundtrip",
        [lambda fam: pickle.loads(pickle.dumps(fam)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_copies_round_trip(self, roundtrip):
        for fam in FOUR_KINDS + [chain(3), chain_unordered(5)]:
            back = roundtrip(fam)
            assert type(back) is TanglegramFamily
            assert back == fam and hash(back) == hash(fam)
            assert repr(back) == repr(fam)
            with pytest.raises(AttributeError):
                back.k = 4

    def test_labels(self):
        assert ROOTED_ORDERED.label == "rooted-ordered"
        assert chain(3).label == "chain(k=3)"

    def test_min_n(self):
        assert ROOTED_ORDERED.min_n == 1
        assert UNROOTED_ORDERED.min_n == 2

    def test_group_elements_sum_to_order(self):
        chains = [f(k) for k in range(1, 7) for f in (chain, chain_unordered)]
        for fam in FOUR_KINDS + chains:
            total = sum(fam.group_elements(mu) for mu in fam.group_types())
            assert total == fam.group_order, fam.label

    def test_symmetric_group_matches_permutation_tally(self):
        for fam in [ROOTED_UNORDERED, UNROOTED_UNORDERED] + [
            chain_unordered(k) for k in range(1, 7)
        ]:
            tally = Counter(
                cycle_type(sigma) for sigma in permutations(range(1, fam.trees + 1))
            )
            assert {mu: fam.group_elements(mu) for mu in fam.group_types()} == tally
            assert fam.group_order == math.factorial(fam.trees)

    def test_group_types_are_lazy(self):
        # S_k for a huge k: the first types come without k! or p(k)
        types = chain_unordered(10**6).group_types()
        assert next(types) == P((10**6,))
        assert len(next(types)) == 2


class TestCount:
    def test_spec_examples(self):
        assert count(ROOTED_UNORDERED, 4) == 10
        assert count(UNROOTED_ORDERED, 6) == 31
        assert count(UNROOTED_UNORDERED, 6) == 22
        assert count(ROOTED_ORDERED, 4) == 13
        assert count(chain(3), 3) == 5

    def test_ordered_rooted_dual_route(self):
        # direct r_lam sum against the Kronecker-square route
        zr = binary_tree_cycle_index(8)
        gf = zr.kronecker(zr).unlabeled_gf()
        for n in range(1, 9):
            assert count(ROOTED_ORDERED, n) == gf[n]

    def test_chain_one_is_unlabeled_trees(self):
        wet = wedderburn_etherington(10)
        for n in range(1, 11):
            assert count(chain(1), n) == wet[n]

    def test_chain_two_matches_pairs(self):
        for n in range(1, 9):
            assert count(chain(2), n) == count(ROOTED_ORDERED, n)
            assert count(chain_unordered(2), n) == count(ROOTED_UNORDERED, n)

    def test_involution_bounds(self):
        for n in range(1, 13):
            ordered = count(ROOTED_ORDERED, n)
            unordered = count(ROOTED_UNORDERED, n)
            assert ordered >= unordered >= Fraction(ordered, 2)
        for n in range(2, 13):
            ordered = count(UNROOTED_ORDERED, n)
            unordered = count(UNROOTED_UNORDERED, n)
            assert ordered >= unordered >= Fraction(ordered, 2)

    def test_counts_positive(self):
        for fam in (ROOTED_ORDERED, ROOTED_UNORDERED, UNROOTED_ORDERED,
                    UNROOTED_UNORDERED, chain(4), chain_unordered(4)):
            for n in range(fam.min_n, 10):
                assert count(fam, n) >= 1

    def test_unrooted_below_two_rejected(self):
        with pytest.raises(ValueError):
            count(UNROOTED_ORDERED, 1)

    def test_count_takes_no_truncation_degree(self):
        with pytest.raises(TypeError):
            count(ROOTED_ORDERED, 6, 6)


ROOTED_SHAPES = (
    [(ROOTED_ORDERED, 2, False), (ROOTED_UNORDERED, 2, True)]
    + [(chain(k), k, False) for k in range(1, 5)]
    + [(chain_unordered(k), k, True) for k in range(1, 5)]
)


def restricted_support_count(k, unordered, n):
    """The cycle-type sum written out over every lam |- n, with each
    r_{lam^j} from the closed form: no series and no binary-partition pass."""
    mus = partitions_of(k) if unordered else [P((1,) * k)]
    total = Fraction(0)
    for lam in partitions_of(n):
        for mu in mus:
            term = Fraction(1, z(lam) * z(mu))
            for j in mu.parts:
                term *= r_closed_form(power_type(lam, j))
            total += term
    if not unordered:
        total *= math.factorial(k)
    return total


def unrooted_support_sum(n, unordered):
    """The unrooted cycle-type sum written out over the support of u: the
    binary partitions of n and 3 times those of n/3, one lam at a time, with
    each u from u_direct."""
    support = [from_vector(mult) for mult in binary_partitions(n)]
    if n % 3 == 0:
        support += [from_vector(mult, 3) for mult in binary_partitions(n // 3)]
    total = 0
    for lam in support:
        term = u_direct(lam) ** 2
        if unordered:
            term += u_direct(power_type(lam, 2))
        total += math.factorial(n) // z(lam) * term
    return Fraction(total, math.factorial(n) * (2 if unordered else 1))


def binary_partition_sum(n, k):
    """count(chain(k), n) written out over the binary partitions of n, one
    lam at a time: the sum of r_lam^k / z_lam, with r from the closed form
    and no pass (Billey, Konvalinka & Matsen's sum for tangled chains)."""
    total = 0
    for mult in binary_partitions(n):
        lam = from_vector(mult)
        total += math.factorial(n) // z(lam) * r_closed_form(lam) ** k
    return Fraction(total, math.factorial(n))


class TestCountTable:
    def test_matches_series_route(self):
        # Kronecker powers of Z_R for tuples, h_k{Z_R} for multisets
        N = 25
        zr = binary_tree_cycle_index(N)
        for fam, k, unordered in ROOTED_SHAPES:
            if unordered:
                route = inner_plethysm_hn(k, zr)
            else:
                route = zr
                for _ in range(k - 1):
                    route = route.kronecker(zr)
            gf = route.unlabeled_gf()
            table = count_table(fam, N)
            for n in range(1, N + 1):
                assert table[n] == gf[n], (fam.label, n)

    def test_matches_restricted_support_sum(self):
        # k up to 6 reaches the non-binary lam of mu = (3,), (3,3), (5,), (6,);
        # from k = 7 on, several mu share one pass
        for k in range(1, 9):
            for fam, unordered in ((chain(k), False), (chain_unordered(k), True)):
                table = count_table(fam, 12)
                for n in range(1, 13):
                    assert table[n] == restricted_support_count(k, unordered, n), (
                        fam.label, n)

    # the mu of chain-unordered(15) include (15), (5,5,5) and (3,3,3,3,3);
    # the unrooted families read 1^2 and (2), whose unrooted table is checked
    # against the leaf and no-leaf passes it replaced plus the rotated pass.
    # The reference tables carry 2n - 1 per part of mu, 2n - 3 for unrooted
    # trees, which the pass tables leave out
    @pytest.mark.parametrize(
        "mu, unrooted, rotated",
        [
            ((1, 1), False, False),
            ((8, 4, 2), False, False),
            ((3, 3, 3, 3, 3), False, False),
            ((5, 5, 5), False, False),
            ((15,), False, False),
            ((12, 6), False, False),
            ((1, 1), True, False),
            ((2,), True, False),
            ((1, 1), False, True),
            ((2,), False, True),
        ],
        ids=lambda value: ",".join(map(str, value)) if isinstance(value, tuple) else None,
    )
    def test_pass_matches_four_factor_reference(self, mu, unrooted, rotated):
        g, valuations = species._pass_key(Partition(mu))
        parts = len(valuations)
        n = 150 if len(mu) > 3 else 200
        if unrooted:
            # the small sizes hold the edges: the half passes' unread entry at
            # lam = (1), and n = 2, the first size the table fills
            for size in (0, 1, 2, 3, 4, n):
                expected = reference_unrooted_table(valuations, size)
                rotated = reference_fixed_point_table(1, valuations, size // 3, rotated=True)
                for m in range(1, size // 3 + 1):
                    expected[3 * m] += math.perm(3 * m, 2 * m) * rotated[m]
                table = species._unrooted_table(valuations, size)
                assert len(table) == len(expected), size
                for m, x in enumerate(table):
                    assert x * (2 * m - 3) ** parts == expected[m], (size, m)
        else:
            table = species._fixed_point_table(g, valuations, n, rotated)
            expected = reference_fixed_point_table(g, valuations, n, rotated=rotated)
            assert len(table) == len(expected)
            assert table[0] == expected[0] == 1
            for m in range(1, n + 1):
                assert table[m] * (2 * m - 1) ** parts == expected[m], m

    # every table holds n! times the sum over all lam |- n of the product
    # over the parts j of mu of a_{lam^j}, divided by z_lam, and nothing else
    @pytest.mark.parametrize(
        "mu", [(1, 1), (2,), (1, 1, 1), (2, 1), (3,), (4, 2), (3, 3)],
        ids=lambda mu: ",".join(map(str, mu)),
    )
    def test_pass_table_is_the_sum_over_all_cycle_types(self, mu):
        N = 14
        mu = P(mu)

        def expected(n, fixed):
            return sum(
                math.factorial(n) // z(lam) * math.prod(fixed(power_type(lam, j)) for j in mu.parts)
                for lam in partitions_of(n)
            )

        table = species._fixed_point_table(*species._pass_key(mu), N)
        assert table[0] == 1  # the empty lam, where r_closed_form gives 0
        for n in range(1, N + 1):
            assert table[n] == expected(n, r_closed_form), n
        if mu in (P((1, 1)), P((2,))):
            table = species._unrooted_table(species._pass_key(mu)[1], N)
            for n in range(N + 1):
                assert table[n] == expected(n, u_direct), n

    def test_single_tree_is_wedderburn_etherington_at_200(self):
        wet = wedderburn_etherington(200)
        assert count_table(chain(1), 200) == wet
        assert count_table(chain_unordered(1), 200) == wet

    def test_multiset_of_two_is_unordered_pair_at_200(self):
        unordered = count_table(ROOTED_UNORDERED, 200)
        assert count_table(chain_unordered(2), 200) == unordered
        ordered = count_table(ROOTED_ORDERED, 200)
        assert count_table(chain(2), 200) == ordered
        for n in range(1, 201):
            assert ordered[n] >= unordered[n] >= Fraction(ordered[n], 2), n

    def test_longer_table_extends_shorter(self):
        for fam, _, _ in ROOTED_SHAPES:
            assert count_table(fam, 50)[:31] == count_table(fam, 30), fam.label

    def test_unrooted_rows_match_count(self):
        for fam in (UNROOTED_ORDERED, UNROOTED_UNORDERED):
            table = count_table(fam, 8)
            assert table[:2] == [0, 0]
            assert table[2:] == [count(fam, n) for n in range(2, 9)]

    def test_unrooted_matches_series_route(self):
        # Kronecker square and h_2{.} of Z_U
        N = 22
        zu = unrooted_tree_cycle_index(N)
        pairs = zu.kronecker(zu).unlabeled_gf()
        unordered = inner_plethysm_hn(2, zu).unlabeled_gf()
        ordered_table = count_table(UNROOTED_ORDERED, N)
        unordered_table = count_table(UNROOTED_UNORDERED, N)
        for n in range(2, N + 1):
            assert ordered_table[n] == pairs[n], n
            assert unordered_table[n] == unordered[n], n

    def test_unrooted_matches_support_sum(self):
        # 8552 lam at n = 96, and none of the form 3 nu at 61
        for fam, unordered in ((UNROOTED_ORDERED, False), (UNROOTED_UNORDERED, True)):
            for n in (61, 96):
                assert count_table(fam, n)[n] == unrooted_support_sum(n, unordered), (
                    fam.label, n)

    def test_rooted_matches_binary_partition_sum_at_100(self):
        # 9828 binary lam |- 100; rooted-ordered is chain(2)
        for fam, k in ((ROOTED_ORDERED, 2), (chain(3), 3)):
            assert count_table(fam, 100)[100] == binary_partition_sum(100, k), fam.label

    def test_unrooted_families_share_the_unrooted_pass(self, monkeypatch):
        builds = []
        build = species._unrooted_table

        def counted(valuations, max_n):
            builds.append((valuations, max_n))
            return build(valuations, max_n)

        monkeypatch.setattr(species, "_unrooted_table", counted)
        monkeypatch.setattr(species, "_passes", species._PassStore())
        ordered = count_table(UNROOTED_ORDERED, 30)
        assert builds == [((0, 0), 30)]  # mu = 1^2 only, never (2)
        unordered = count_table(UNROOTED_UNORDERED, 30)
        assert count_table(UNROOTED_ORDERED, 20) == ordered[:21]
        assert builds == [((0, 0), 30), ((1,), 30)]
        for n in range(2, 31):
            assert ordered[n] == unrooted_support_sum(n, False), n
            assert unordered[n] == unrooted_support_sum(n, True), n

    def test_unrooted_pass_of_one_tree_is_otters_step(self):
        # valuations (0,) are mu = (1): n! times the unlabeled unrooted
        # trees, which Otter's step takes from the rooted ones by another
        # route, the lam = 3 nu its R(x^3) term
        N = 300
        table = species._unrooted_table((0,), N)
        otter = species.unrooted_from_rooted(count_table(chain(1), N))
        for n in range(2, N + 1):
            assert table[n] == math.factorial(n) * otter[n], n

    def test_unrooted_involution_bounds_at_60(self):
        ordered = count_table(UNROOTED_ORDERED, 60)
        unordered = count_table(UNROOTED_UNORDERED, 60)
        for n in range(2, 61):
            assert ordered[n] >= unordered[n] >= Fraction(ordered[n], 2), n

    def test_unrooted_longer_table_extends_shorter(self):
        for fam in (UNROOTED_ORDERED, UNROOTED_UNORDERED):
            assert count_table(fam, 60)[:41] == count_table(fam, 40), fam.label

    def test_small_tables(self):
        assert count_table(ROOTED_ORDERED, 0) == [0]
        assert count_table(ROOTED_ORDERED, 6) == [0, 1, 1, 2, 13, 114, 1509]
        assert count_table(UNROOTED_ORDERED, 1) == [0, 0]
        with pytest.raises(ValueError):
            count_table(ROOTED_ORDERED, -1)

    def test_chain_pass_parts(self):
        # the 769 passes of k = 30 have 9013 parts, those of k = 31 over 10000
        assert species.table_guard([chain_unordered(30)], 1) is None
        assert "parts" in species.table_guard([chain_unordered(31)], 1)
        # a single pass over the bound, refused without listing any type:
        # the type 1^k of k = 10^400 could not even be built
        assert "parts" in species.table_guard([chain(10**6)], 1)
        assert "parts" in species.table_guard([chain(10**400)], 1)
        # the parts are summed over the families
        assert "parts" in species.table_guard([chain_unordered(30)] * 2, 1)

    # whole tables timed on a 2-core Xeon vCPU with CPython 3.11, in-process
    # count_table in a fresh process each: to n <= 600 the median of five
    # runs, past 600 single runs on the same host
    @pytest.mark.parametrize(
        "family, max_n, measured",
        [
            (chain(10), 600, 3.52),
            (chain(50), 400, 7.77),
            (chain(100), 200, 2.34),
            (chain(200), 200, 7.90),
            (chain(1000), 100, 11.33),
            (chain_unordered(3), 600, 2.81),
            (chain_unordered(4), 600, 4.83),
            (chain_unordered(5), 600, 8.11),
            (chain_unordered(20), 60, 0.76),
            (chain_unordered(20), 100, 2.68),
            (chain_unordered(20), 150, 8.92),
            (chain_unordered(30), 60, 3.70),
            (chain_unordered(30), 100, 15.36),
            (UNROOTED_ORDERED, 600, 1.23),
            (UNROOTED_UNORDERED, 600, 1.98),
            (ROOTED_ORDERED, 1000, 3.9),
            (ROOTED_UNORDERED, 1000, 6.0),
            (UNROOTED_ORDERED, 1000, 6.4),
            (UNROOTED_UNORDERED, 1000, 10.4),
            (chain_unordered(3), 1000, 13.1),
            (ROOTED_ORDERED, 1500, 12.3),
            (UNROOTED_UNORDERED, 1500, 30.3),
        ],
    )
    def test_pass_model_within_15_percent(self, family, max_n, measured):
        model = sum(seconds for _, seconds in species._pass_costs(family, max_n))
        assert abs(model / measured - 1) <= 0.15

    # printing the whole table in decimal, timed on the same host
    @pytest.mark.parametrize(
        "family, max_n, measured",
        [(chain(30), 600, 6.51), (chain(100), 200, 1.91), (chain(1000), 100, 15.89)],
    )
    def test_print_model_within_15_percent(self, family, max_n, measured):
        assert abs(species._print_seconds(family, max_n) / measured - 1) <= 0.15

    def test_guard_charges_printing(self):
        # 33.7 s of passes and 48.8 s of printing
        assert "printing" in species.table_guard([chain(500)], 200)
        # 14.1 s and 6.9 s
        assert species.table_guard([chain(30)], 600) is None
        assert species.table_guard([chain(100)], 200) is None

    def test_guard_sums_the_families(self):
        # each alone fits the budget, both together do not
        unrooted = [UNROOTED_ORDERED, UNROOTED_UNORDERED]
        for family in unrooted:
            assert species.table_guard([family], 1500) is None
        assert "printing" in species.table_guard(unrooted, 1500)
        # a pass two families share is charged to each: 25.0 s each
        assert species.table_guard([ROOTED_ORDERED], 1800) is None
        assert "printing" in species.table_guard([ROOTED_ORDERED, chain(2)], 1800)

    @pytest.mark.parametrize("max_n", [8945, 10**30, 10**400])
    def test_guard_refuses_any_n_at_once(self, monkeypatch, max_n):
        # the step term of one pass alone passes the budget, so neither the
        # float model nor the loop over n runs
        def forbidden(*args):
            raise AssertionError("modelled past the step bound")

        monkeypatch.setattr(species, "_print_seconds", forbidden)
        monkeypatch.setattr(species, "_pass_costs", forbidden)
        assert "printing" in species.table_guard([ROOTED_ORDERED], max_n)

    def test_non_integer_count_message(self):
        # total/divisor as given, without reducing the fraction
        with pytest.raises(
            species.NonIntegerCount, match=r"^chain\(k=3\) evaluated to non-integer 14/4$"
        ):
            species._divide(14, 4, "chain(k=3)")
        assert species._divide(12, 4, "chain(k=3)") == 3


STORE_FAMILIES = [
    ROOTED_ORDERED,
    ROOTED_UNORDERED,
    UNROOTED_ORDERED,
    UNROOTED_UNORDERED,
    *(chain(k) for k in (2, 3, 4)),
    *(chain_unordered(k) for k in (2, 3, 4)),
]


class TestPassStore:
    @pytest.fixture(autouse=True)
    def empty_store(self, monkeypatch):
        monkeypatch.setattr(species, "_passes", species._PassStore())

    @pytest.mark.parametrize("order", ["descending", "ascending", "shuffled"])
    def test_count_in_any_order_matches_table(self, order, monkeypatch):
        tables = {}
        for fam in STORE_FAMILIES:
            monkeypatch.setattr(species, "_passes", species._PassStore())
            tables[fam] = count_table(fam, 40)
        monkeypatch.setattr(species, "_passes", species._PassStore())
        queries = [(fam, n) for fam in STORE_FAMILIES for n in range(fam.min_n, 41)]
        if order == "descending":
            queries.sort(key=lambda query: -query[1])
        elif order == "shuffled":
            random.Random(13).shuffle(queries)
        for fam, n in queries:
            assert count(fam, n) == tables[fam][n], (fam.label, n)

    def test_stored_tables_are_tuples(self):
        for fam in STORE_FAMILIES:
            count_table(fam, 20)
        stored = species._passes.tables
        unrooted = {("unrooted", (0, 0)), ("unrooted", (1,))}
        assert unrooted <= set(stored) and len(stored) > 10
        for key, (max_n, table, size) in stored.items():
            # (g, valuations) or ("unrooted", valuations): no rotated flag
            assert len(key) == 2 and not any(isinstance(part, bool) for part in key)
            assert isinstance(table, tuple) and size == species._table_bytes(table)
            assert all(type(entry) is int for entry in table)

    def test_six_families_build_one_table_per_pass_key(self, monkeypatch):
        store = species._passes
        builds = []
        get = store.get

        def counted(key, max_n, build):
            return get(key, max_n, lambda top: builds.append(key) or build(top))

        monkeypatch.setattr(store, "get", counted)
        for fam in (*FOUR_KINDS, chain(3), chain_unordered(3)):
            count_table(fam, 30)
        # S_2 and S_3 of rooted trees, 1^2, (2), 1^3, (2, 1) and (3), and
        # the unrooted 1^2 and (2), each built once
        assert sorted(builds, key=repr) == [
            ("unrooted", (0, 0)), ("unrooted", (1,)),
            (1, (0, 0)), (1, (0, 0, 0)), (1, (0, 1)), (1, (1,)), (3, (0,)),
        ]

    def test_held_bytes_within_budget(self):
        count_table(chain_unordered(20), 100)
        store = species._passes
        assert store.held == sum(size for _, _, size in store.tables.values())
        assert species.PASS_STORE_BYTES / 2 < store.held <= species.PASS_STORE_BYTES

    def test_table_over_budget_is_returned_not_kept(self, monkeypatch):
        expected = count_table(chain(3), 30)
        store = species._PassStore()
        monkeypatch.setattr(species, "_passes", store)
        monkeypatch.setattr(species, "PASS_STORE_BYTES", 500)
        count_table(ROOTED_ORDERED, 3)
        kept = dict(store.tables)
        assert len(kept) == 1 and store.held <= 500
        # chain(3)'s one pass to 30 is over the budget: returned, not kept,
        # and nothing else is dropped for it
        assert count_table(chain(3), 30) == expected
        assert store.tables == kept

    def test_least_recently_used_is_dropped(self, monkeypatch):
        store = species._PassStore()
        size = species._table_bytes((10**20,) * 3)
        monkeypatch.setattr(species, "PASS_STORE_BYTES", 2 * size)
        builds = []

        def build(max_n):
            builds.append(max_n)
            return [10**20] * (max_n + 1)

        store.get("a", 2, build)
        store.get("b", 2, build)
        assert store.get("a", 1, build) == (10**20,) * 3  # a prefix, read by index
        store.get("c", 2, build)  # drops b, the least recently used
        assert list(store.tables) == ["a", "c"] and store.held == 2 * size
        store.get("a", 3, build)  # rebuilt to 3, over budget with c
        assert list(store.tables) == ["a"]
        assert builds == [2, 2, 2, 3]


class TestUnrootedAtTheGuard:
    @pytest.fixture(scope="class")
    def tables(self):
        return count_table(UNROOTED_ORDERED, 300), count_table(UNROOTED_UNORDERED, 300)

    def test_involution_bounds(self, tables):
        ordered, unordered = tables
        for n in range(2, 301):
            assert ordered[n] >= unordered[n] >= Fraction(ordered[n], 2), n

    def test_asymptotic_window(self, tables):
        # Billey, Konvalinka & Matsen: n! t_n / ((2n-5)!!)^2 tends to e^(1/8),
        # about 0.57/n above it; a wrong factor on any class of lam with O(1)
        # weight (1^n, 2 1^(n-2), ...) would move n times the gap off
        ordered, _ = tables
        for n in (100, 200, 300):
            trees = math.prod(range(1, 2 * n - 4, 2))
            gap = math.factorial(n) * ordered[n] / trees**2 - math.exp(1 / 8)
            assert 0.55 <= n * gap <= 0.60, n


class TestRootedAtTheGuard:
    @pytest.fixture(scope="class")
    def tables(self):
        return count_table(ROOTED_ORDERED, 400), count_table(ROOTED_UNORDERED, 400)

    @staticmethod
    def gaps(table, k, limit):
        # n times the gap of n! a_n / ((2n-3)!!)^k above its limit, at n = 100, 200, 400
        for n in (100, 200, 400):
            trees = math.prod(range(1, 2 * n - 2, 2))
            yield n * (math.factorial(n) * table[n] / trees**k - limit)

    def test_involution_bounds(self, tables):
        ordered, unordered = tables
        for n in range(1, 401):
            assert ordered[n] >= unordered[n] >= Fraction(ordered[n], 2), n

    def test_asymptotic_window(self, tables):
        # Billey, Konvalinka & Matsen: n! t_n / ((2n-3)!!)^2 tends to e^(1/8),
        # about 0.29/n above it (0.2895, 0.2864, 0.2848 at n = 100, 200, 400)
        for gap in self.gaps(tables[0], 2, math.exp(1 / 8)):
            assert 0.27 <= gap <= 0.31

    def test_chain_of_three_window(self):
        # n! c_n / ((2n-3)!!)^3 tends to 1, about 0.063/n above it
        # (0.0648, 0.0636, 0.0631 at n = 100, 200, 400)
        for gap in self.gaps(count_table(chain(3), 400), 3, 1):
            assert 0.055 <= gap <= 0.075

    def test_chain_of_two_is_rooted_ordered(self, tables):
        assert count_table(chain(2), 400) == tables[0]

    def test_chain_of_one_is_wedderburn_etherington_at_600(self):
        assert count_table(chain(1), 600) == wedderburn_etherington(600)


class TestWedderburnEtherington:
    def test_first_values(self):
        assert wedderburn_etherington(6) == [0, 1, 1, 1, 2, 3, 6]
        assert all(type(value) is int for value in wedderburn_etherington(6))

    def test_single_cherry(self):
        assert wedderburn_etherington(2)[2] == 1

    def test_matches_unlabeled_gf(self):
        gf = binary_tree_cycle_index(20).unlabeled_gf()
        assert wedderburn_etherington(20) == gf


class TestLabeledCounts:
    def test_examples(self):
        assert labeled_counts(1) == (1, 1)
        assert labeled_counts(3) == (3, 9)
        assert labeled_counts(5) == (105, 11025)

    def test_double_factorial_recurrence(self):
        for n in range(2, 12):
            assert labeled_counts(n)[0] == (2 * n - 3) * labeled_counts(n - 1)[0]
