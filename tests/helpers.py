"""Shared builders for the tests: series, random partitions, and the
binary partitions that the reference sums run over."""

from collections.abc import Iterator
from fractions import Fraction

from tanglecount import CycleIndexSeries, Partition


def series(degree, *terms):
    """Build a series from (parts, numerator, denominator) triples."""
    return CycleIndexSeries(
        {Partition(parts): Fraction(num, den) for parts, num, den in terms}, degree
    )


def random_partition(rng, n):
    parts = []
    remaining = n
    while remaining:
        p = rng.randint(1, remaining)
        parts.append(p)
        remaining -= p
    return Partition(tuple(sorted(parts, reverse=True)))


def random_series(rng, degree, max_terms=6, zero_constant=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        n = rng.randint(1 if zero_constant else 0, degree)
        terms[random_partition(rng, n)] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    return CycleIndexSeries(terms, degree)


def binary_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into powers of 2, each exactly once, as
    multiplicity vectors: entry a counts the parts equal to 2^a, and the
    last entry, for the largest part, is nonzero (n = 0 gives ())."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return

    def fill(mult: list[int], a: int, rest: int, least: int) -> Iterator[tuple[int, ...]]:
        # parts 2^a and below make up rest; the larger ones are chosen
        if a == 0:
            mult[0] = rest
            yield tuple(mult)
            return
        for m in range(rest >> a, least - 1, -1):
            mult[a] = m
            yield from fill(mult, a - 1, rest - (m << a), 0)

    for top in range(n.bit_length() - 1, -1, -1):
        yield from fill([0] * (top + 1), top, n, 1)


def from_vector(mult, scale=1):
    """The partition with mult[a] parts scale * 2^a."""
    return Partition(
        tuple(scale << a for a in reversed(range(len(mult))) for _ in range(mult[a]))
    )
