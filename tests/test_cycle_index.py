import random
from fractions import Fraction

import pytest

from helpers import random_series, series
from tanglecount import (
    CycleIndexSeries,
    DegreeOutOfRange,
    NonZeroConstantTerm,
    Partition,
    binary_tree_cycle_index,
    h_series,
    inner_plethysm_hn,
    inner_plethysm_pk,
    monomial,
    p1,
    unrooted_tree_cycle_index,
    zero_series,
)

P = Partition


class TestConstruction:
    def test_zero_coefficients_not_stored(self):
        f = series(3, ((2,), 0, 1), ((1,), 1, 2))
        assert f.terms == {P((1,)): Fraction(1, 2)}

    def test_terms_above_truncation_dropped(self):
        f = series(2, ((3,), 1, 1), ((2,), 1, 1))
        assert f.terms == {P((2,)): Fraction(1)}

    def test_coefficient_lookup(self):
        f = h_series(2)
        assert f.coefficient(P((2,))) == Fraction(1, 2)
        assert f.coefficient(P((1, 1))) == Fraction(1, 2)
        with pytest.raises(DegreeOutOfRange):
            f.coefficient(P((3,)))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            CycleIndexSeries({}, -1)


class TestAdd:
    def test_additive_identity(self):
        f = series(4, ((2, 1), 3, 4), ((1,), 1, 1))
        assert f + zero_series(4) == f

    def test_halves_sum(self):
        f = series(2, ((2,), 1, 2))
        assert f + f == series(2, ((2,), 1, 1))

    def test_doubling_h2(self):
        assert h_series(2) + h_series(2) == series(2, ((1, 1), 1, 1), ((2,), 1, 1))

    def test_truncation_is_min(self):
        f = series(5, ((4,), 1, 1))
        g = series(3, ((1,), 1, 1))
        assert (f + g).degree == 3
        assert (f + g).terms == {P((1,)): Fraction(1)}  # degree-4 term dropped

    def test_cancellation_removes_term(self):
        f = series(3, ((2,), 1, 2))
        assert (f + (-f)).terms == {}


class TestMultiply:
    def test_p1_squared(self):
        one_part = monomial(P((1,)), 4)
        assert one_part * one_part == monomial(P((1, 1)), 4)

    def test_h2_squared(self):
        # hand expansion of (1/2 (p1^2 + p2))^2
        expected = series(4, ((1, 1, 1, 1), 1, 4), ((2, 1, 1), 1, 2), ((2, 2), 1, 4))
        assert h_series(2, 4) * h_series(2, 4) == expected

    def test_multiplicative_identity(self):
        f = series(4, ((2, 1), 3, 8), ((4,), 1, 1))
        one = monomial(P(()), 4)
        assert f * one == f
        assert one * f == f

    def test_scalar_multiplication(self):
        f = h_series(2)
        assert f * 2 == series(2, ((1, 1), 1, 1), ((2,), 1, 1))
        assert Fraction(1, 2) * (f * 2) == f

    def test_cross_degree_truncation(self):
        f = series(3, ((2,), 1, 1), ((3,), 1, 1))
        assert (f * f).terms == {}  # all products land above degree 3


class TestPlethysm:
    def test_p1_is_right_identity(self):
        f = series(5, ((2, 1), 3, 4), ((1, 1), 1, 3))
        assert f.plethysm(p1(5)) == f

    def test_p1_is_left_identity(self):
        g = random_series(random.Random(3), 5, zero_constant=True)
        assert p1(5).plethysm(g) == g

    def test_part_scaling(self):
        assert monomial(P((2,)), 6).plethysm(monomial(P((3,)), 6)) == monomial(P((6,)), 6)

    def test_h2_of_h2(self):
        # 1/2 (g^2 + p2[g]) with g = h2 expands to this
        expected = series(
            4, ((1, 1, 1, 1), 1, 8), ((2, 1, 1), 1, 4), ((2, 2), 3, 8), ((4,), 1, 4)
        )
        assert h_series(2, 4).plethysm(h_series(2, 4)) == expected

    def test_rejects_nonzero_constant_term(self):
        g = series(3, ((), 1, 1), ((1,), 1, 1))
        with pytest.raises(NonZeroConstantTerm):
            h_series(2, 3).plethysm(g)

    def test_e2_decomposition(self):
        # Z_{E2}[g] = 1/2 (g^2 + p2[g])
        rng = random.Random(17)
        for _ in range(25):
            g = random_series(rng, 6, zero_constant=True)
            direct = h_series(2, 6).plethysm(g)
            p2_of_g = monomial(P((2,)), 6).plethysm(g)
            assert direct == (g * g + p2_of_g) * Fraction(1, 2)


class TestKronecker:
    def test_same_type_scales_by_z(self):
        f = monomial(P((2,)), 2)
        assert f.kronecker(f) == monomial(P((2,)), 2, 2)

    def test_distinct_types_annihilate(self):
        assert monomial(P((1, 1)), 2).kronecker(monomial(P((2,)), 2)).terms == {}

    def test_h2_is_idempotent(self):
        assert h_series(2).kronecker(h_series(2)) == h_series(2)

    def test_hn_is_degree_identity(self):
        rng = random.Random(5)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                f = random_series(rng, n)
                component = f.homogeneous_component(n)
                assert h_series(n, n).kronecker(component) == component.truncate(n)


class TestInnerPlethysmPk:
    def test_k1_is_identity(self):
        g = random_series(random.Random(9), 5)
        assert inner_plethysm_pk(1, g) == g

    def test_p2_fixes_h2(self):
        assert inner_plethysm_pk(2, h_series(2)) == h_series(2)

    def test_p2_on_degree3_of_tree_series(self):
        # degree-3 component of the rooted-tree series has a-values 3, 1, 0
        # at (1,1,1), (2,1), (3); squaring maps those types to (1,1,1),
        # (1,1,1), (3), so the new a-values are 3, 3, 0.
        g = binary_tree_cycle_index(3).homogeneous_component(3)
        expected = series(3, ((1, 1, 1), 1, 2), ((2, 1), 3, 2))
        assert inner_plethysm_pk(2, g) == expected

    def test_degree_preserved(self):
        g = random_series(random.Random(13), 6)
        assert inner_plethysm_pk(3, g).degree == g.degree
        for lam in inner_plethysm_pk(3, g).terms:
            assert lam.size in g.support_degrees()


class TestInnerPlethysmHn:
    def test_h1_is_identity(self):
        g = random_series(random.Random(21), 5)
        assert inner_plethysm_hn(1, g) == g

    def test_unordered_pair_counts_of_trees(self):
        zr = binary_tree_cycle_index(3)
        gf = inner_plethysm_hn(2, zr).unlabeled_gf()
        assert gf[2:] == [1, 2]

    def test_h2_expansion(self):
        rng = random.Random(29)
        for _ in range(40):
            g = random_series(rng, 5)
            expected = (g.kronecker(g) + inner_plethysm_pk(2, g)) * Fraction(1, 2)
            assert inner_plethysm_hn(2, g) == expected

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            inner_plethysm_hn(0, h_series(1))


class TestHSeries:
    def test_h0_is_one(self):
        assert h_series(0) == monomial(P(()), 0)

    def test_h2(self):
        assert h_series(2) == series(2, ((1, 1), 1, 2), ((2,), 1, 2))

    def test_h3(self):
        assert h_series(3) == series(3, ((1, 1, 1), 1, 6), ((2, 1), 1, 2), ((3,), 1, 3))

    def test_explicit_degree(self):
        assert h_series(2, 6).degree == 6


class TestCountingSpecializations:
    def test_unlabeled_gf_of_tree_series(self):
        gf = binary_tree_cycle_index(4).unlabeled_gf()
        assert gf == [0, 1, 1, 1, 2]

    def test_unlabeled_gf_h2(self):
        assert h_series(2).unlabeled_gf() == [0, 0, 1]

    def test_unlabeled_gf_zero_series(self):
        assert zero_series(3).unlabeled_gf() == [0, 0, 0, 0]

    def test_unlabeled_gf_of_unrooted_series(self):
        assert unrooted_tree_cycle_index(4).unlabeled_gf() == [0, 0, 1, 1, 1]

    def test_unlabeled_gf_constant_term(self):
        f = series(3, ((), 7, 2), ((1,), 1, 1))
        assert f.unlabeled_gf() == [Fraction(7, 2), 1, 0, 0]


class TestRendering:
    def test_h2(self):
        assert h_series(2).render() == "1/2 p[1,1] + 1/2 p[2]"

    def test_tree_series_degree2(self):
        assert binary_tree_cycle_index(2).render() == "p[1] + 1/2 p[1,1] + 1/2 p[2]"

    def test_non_unit_coefficient(self):
        assert "5/8 p[1,1,1,1]" in binary_tree_cycle_index(4).render()

    def test_zero(self):
        assert zero_series(5).render() == "0"

    def test_constant_term(self):
        assert monomial(P(()), 2, Fraction(3, 4)).render() == "3/4"

    def test_sorted_by_degree_then_parts(self):
        f = series(3, ((3,), 1, 1), ((1,), 1, 1), ((2, 1), 1, 1), ((1, 1, 1), 1, 1))
        assert f.render() == "p[1] + p[1,1,1] + p[2,1] + p[3]"


class TestRingLaws:
    """Randomized ring-law checks, 60 triples of small series."""

    def test_ring_laws(self):
        rng = random.Random(101)
        for _ in range(60):
            f = random_series(rng, 5)
            g = random_series(rng, 5)
            h = random_series(rng, 5)
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

    def test_plethysm_associativity(self):
        rng = random.Random(103)
        for _ in range(40):
            f = random_series(rng, 6, max_terms=4)
            g = random_series(rng, 6, max_terms=4, zero_constant=True)
            h = random_series(rng, 6, max_terms=4, zero_constant=True)
            assert f.plethysm(g.plethysm(h)) == f.plethysm(g).plethysm(h)

    def test_kronecker_laws(self):
        rng = random.Random(107)
        for _ in range(40):
            f = random_series(rng, 5)
            g = random_series(rng, 5)
            h = random_series(rng, 5)
            assert f.kronecker(g) == g.kronecker(f)
            assert f.kronecker(g).kronecker(h) == f.kronecker(g.kronecker(h))
