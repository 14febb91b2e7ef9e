"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report; timings are asserted where the criterion states a budget.
"""

import random
import time
from fractions import Fraction

from helpers import random_series
from tanglecount import (
    ROOTED_ORDERED,
    ROOTED_UNORDERED,
    UNROOTED_ORDERED,
    UNROOTED_UNORDERED,
    binary_tree_cycle_index,
    burnside_count,
    chain,
    chain_unordered,
    count,
    enumerate_rooted,
    enumerate_unrooted,
    h_series,
    inner_plethysm_hn,
    inner_plethysm_pk,
    p1,
    partitions_of,
    r_closed_form,
    r_coefficient,
    unrooted_tree_cycle_index,
    wedderburn_etherington,
)
from tanglecount import species

UNORDERED_TABLE = [1, 1, 2, 10, 69, 807, 13048, 269221, 6660455, 191411477,
                   6257905519]  # a_n, n = 1..11
UNROOTED_TABLE = [1, 1, 2, 4, 31, 243, 3532, 62810, 1390718, 36080361,
                  1076477512]  # b_n, n = 2..12
UNROOTED_UNORDERED_TABLE = [1, 1, 2, 4, 22, 145, 1875, 31929, 698183,
                            18056523, 538340256]  # c_n, n = 2..12
ORDERED_SMALL = [1, 1, 2, 13, 114, 1509]  # n = 1..6

ZR_GOLDEN = {
    (1,): Fraction(1),
    (1, 1): Fraction(1, 2), (2,): Fraction(1, 2),
    (1, 1, 1): Fraction(1, 2), (2, 1): Fraction(1, 2),
    (1, 1, 1, 1): Fraction(5, 8), (2, 2): Fraction(3, 8),
    (2, 1, 1): Fraction(3, 4), (4,): Fraction(1, 4),
}
ZU_GOLDEN = {
    (1, 1): Fraction(1, 2), (2,): Fraction(1, 2),
    (2, 1): Fraction(1, 2), (1, 1, 1): Fraction(1, 6), (3,): Fraction(1, 3),
    (2, 1, 1): Fraction(1, 4), (1, 1, 1, 1): Fraction(1, 8),
    (2, 2): Fraction(3, 8), (4,): Fraction(1, 4),
}


def report(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
    assert ok, f"{name}{suffix}"


def clear_series_caches():
    binary_tree_cycle_index.cache_clear()
    unrooted_tree_cycle_index.cache_clear()


def test_criterion_01_unordered_tanglegram_table():
    start = time.perf_counter()
    got = [count(ROOTED_UNORDERED, n) for n in range(1, 12)]
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: unordered tanglegrams a_n, n=1..11",
        got == UNORDERED_TABLE and elapsed < 10.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_02_unrooted_tanglegram_table():
    start = time.perf_counter()
    got = [count(UNROOTED_ORDERED, n) for n in range(2, 13)]
    elapsed = time.perf_counter() - start
    report(
        "criterion 2: unrooted tanglegrams b_n, n=2..12",
        got == UNROOTED_TABLE and elapsed < 30.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_03_unrooted_unordered_table():
    got = [count(UNROOTED_UNORDERED, n) for n in range(2, 13)]
    report(
        "criterion 3: unrooted unordered tanglegrams c_n, n=2..12",
        got == UNROOTED_UNORDERED_TABLE,
    )


def test_criterion_04_cycle_index_golden():
    zr = binary_tree_cycle_index(4)
    zu = unrooted_tree_cycle_index(4)
    ok = (
        {lam.parts: c for lam, c in zr.terms.items()} == ZR_GOLDEN
        and {lam.parts: c for lam, c in zu.terms.items()} == ZU_GOLDEN
    )
    report("criterion 4: Z_R and Z_U match printed expansions through degree 4", ok)


def test_criterion_05_closed_form_cross_check():
    zr = binary_tree_cycle_index(12)
    checked = 0
    ok = True
    for n in range(0, 13):
        for lam in partitions_of(n):
            checked += 1
            if r_closed_form(lam) != r_coefficient(lam, zr):
                ok = False
    report(
        "criterion 5: closed form equals solver coefficient for all |lam| <= 12",
        ok,
        f"{checked} partitions",
    )


def test_criterion_06_oracle_equivalence():
    start = time.perf_counter()
    families = [
        ROOTED_ORDERED,
        ROOTED_UNORDERED,
        UNROOTED_ORDERED,
        UNROOTED_UNORDERED,
        chain(3),
        chain_unordered(3),
    ]
    ok = True
    for fam in families:
        for n in range(fam.min_n, 7):
            if burnside_count(fam, n) != count(fam, n):
                ok = False
    # the ordered-rooted values, independently from both paths
    by_oracle = [burnside_count(ROOTED_ORDERED, n) for n in range(1, 7)]
    by_series = [count(ROOTED_ORDERED, n) for n in range(1, 7)]
    zr = binary_tree_cycle_index(6)
    gf = zr.kronecker(zr).unlabeled_gf()
    by_kronecker = [int(gf[n]) for n in range(1, 7)]
    ok = ok and by_oracle == ORDERED_SMALL and by_series == ORDERED_SMALL
    ok = ok and by_kronecker == ORDERED_SMALL
    elapsed = time.perf_counter() - start
    report(
        "criterion 6: Burnside oracle equals species counts, all families, n<=6",
        ok and elapsed < 120.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_07_wedderburn_consistency():
    gf = binary_tree_cycle_index(25).unlabeled_gf()
    wet = wedderburn_etherington(25)
    report(
        "criterion 7: unlabeled GF of Z_R equals functional equation, n<=25",
        all(gf[n] == wet[n] for n in range(26)),
    )


def test_criterion_08_labeled_enumeration_counts():
    rooted_ok = all(
        len(enumerate_rooted(n)) == species.labeled_counts(n)[0]
        for n in range(1, 8)
    )
    unrooted_expected = {2: 1, 3: 1, 4: 3, 5: 15, 6: 105, 7: 945}
    unrooted_ok = all(
        len(enumerate_unrooted(n)) == unrooted_expected[n] for n in range(2, 8)
    )
    report(
        "criterion 8: enumerations hit (2n-3)!! and (2n-5)!! for n<=7",
        rooted_ok and unrooted_ok,
    )


def test_criterion_09_algebra_property_suite():
    rng = random.Random(20150915)
    cases = 0
    ok = True

    for _ in range(60):  # ring laws
        f = random_series(rng, 5)
        g = random_series(rng, 5)
        h = random_series(rng, 5)
        cases += 1
        ok = ok and f + g == g + f and (f + g) + h == f + (g + h)
        ok = ok and f * g == g * f and (f * g) * h == f * (g * h)
        ok = ok and f * (g + h) == f * g + f * h

    for _ in range(50):  # plethysm identity and associativity
        f = random_series(rng, 6, max_terms=4)
        g = random_series(rng, 6, max_terms=4, zero_constant=True)
        h = random_series(rng, 6, max_terms=4, zero_constant=True)
        cases += 1
        ok = ok and f.plethysm(p1(6)) == f and p1(6).plethysm(g) == g
        ok = ok and f.plethysm(g.plethysm(h)) == f.plethysm(g).plethysm(h)

    for _ in range(50):  # Kronecker identity h_n on homogeneous components
        n = rng.randint(1, 5)
        f = random_series(rng, n)
        component = f.homogeneous_component(n)
        cases += 1
        ok = ok and h_series(n, n).kronecker(component) == component.truncate(n)

    for _ in range(50):  # h_2{g} = (g*g + p_2{g}) / 2
        g = random_series(rng, 5)
        cases += 1
        expected = (g.kronecker(g) + inner_plethysm_pk(2, g)) * Fraction(1, 2)
        ok = ok and inner_plethysm_hn(2, g) == expected

    report(
        "criterion 9: algebra property suite",
        ok and cases >= 200,
        f"{cases} random cases",
    )


def test_criterion_10_performance_envelope(monkeypatch):
    clear_series_caches()
    monkeypatch.setattr(species, "_passes", species._PassStore())  # no stored passes
    families = [
        ROOTED_ORDERED,
        ROOTED_UNORDERED,
        UNROOTED_ORDERED,
        UNROOTED_UNORDERED,
        chain(3),
        chain_unordered(3),
    ]
    start = time.perf_counter()
    totals = {}
    for fam in families:
        totals[fam.label] = [count(fam, n) for n in range(fam.min_n, 26)]
    elapsed = time.perf_counter() - start
    positive = all(v >= 1 for values in totals.values() for v in values)
    report(
        "criterion 10: all six families through n=25",
        positive and elapsed < 60.0,
        f"{elapsed:.2f}s from cold caches",
    )
