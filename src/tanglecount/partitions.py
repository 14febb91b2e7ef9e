"""Integer partitions and the partition-level statistics that the
symmetric-function layer is built on: the centralizer order z(lambda),
power types lambda^k, multiset union, and the partitions into powers of
2 and the test for them."""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import total_ordering


@total_ordering
class Partition:
    """A weakly decreasing tuple of positive integers.

    Immutable and hashable, so partitions can key coefficient maps.  The
    total order sorts by size first, then lexicographically by parts,
    which is the order used when serializing series.
    """

    __slots__ = ("parts", "size", "_hash")

    def __init__(self, parts: tuple[int, ...] | list[int] = ()):
        parts = tuple(parts)
        prev = None
        for p in parts:
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")
            if prev is not None and p > prev:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
            prev = p
        self.parts = parts
        self.size = sum(parts)
        self._hash = hash(parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __lt__(self, other: "Partition") -> bool:
        return (self.size, self.parts) < (other.size, other.parts)

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"

    def __str__(self) -> str:
        # serialization format: comma-separated parts in brackets, e.g. [2,1,1]
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    def multiplicities(self) -> dict[int, int]:
        """Map part value -> number of times it occurs."""
        mult: dict[int, int] = {}
        for p in self.parts:
            mult[p] = mult.get(p, 0) + 1
        return mult


EMPTY = Partition(())


def iter_partitions(n: int) -> Iterator[Partition]:
    """The partitions of n in the order of partitions_of, one at a time,
    for callers that may stop early."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield EMPTY
        return
    a = [n]
    while True:
        yield Partition(tuple(a))
        # rightmost part that can still be decreased
        i = len(a) - 1
        while i >= 0 and a[i] == 1:
            i -= 1
        if i < 0:
            break
        a[i] -= 1
        rest = len(a) - i - 1 + 1  # ones removed plus the unit taken off a[i]
        del a[i + 1:]
        while rest > 0:
            nxt = min(a[-1], rest)
            a.append(nxt)
            rest -= nxt


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, each exactly once, in reverse lexicographic
    order: (n) first, (1,...,1) last."""
    return list(iter_partitions(n))


def binary_partitions(n: int) -> Iterator[Partition]:
    """The partitions of n into powers of 2 in the order of partitions_of,
    built part by part, so that none of the other partitions is made."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def tails(rest: int, top: int) -> Iterator[tuple[int, ...]]:
        # the parts, each a power of 2 at most top, that make up rest
        if top == 1:
            yield (1,) * rest
            return
        for m in range(rest // top, -1, -1):
            for tail in tails(rest - m * top, top >> 1):
                yield (top,) * m + tail

    return map(Partition, tails(n, 1 << max(n.bit_length() - 1, 0)))


def z(lam: Partition) -> int:
    """Centralizer order 1^m1 m1! 2^m2 m2! ... of a permutation with cycle
    type lam; n!/z(lam) permutations of S_n share that cycle type."""
    out = 1
    for part, m in lam.multiplicities().items():
        out *= part ** m * math.factorial(m)
    return out


def power_type(lam: Partition, k: int) -> Partition:
    """Cycle type of sigma^k when sigma has cycle type lam: an m-cycle
    falls apart into gcd(m,k) cycles of length m/gcd(m,k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return lam
    parts: list[int] = []
    for m in lam.parts:
        g = math.gcd(m, k)
        parts.extend([m // g] * g)
    parts.sort(reverse=True)
    return Partition(tuple(parts))


def is_binary_partition(lam: Partition) -> bool:
    """True iff every part is a power of 2."""
    return all(p & (p - 1) == 0 for p in lam.parts)


def union(lam: Partition, mu: Partition) -> Partition:
    """Multiset union of parts; realizes p_lam * p_mu = p_{union}."""
    return Partition(tuple(sorted(lam.parts + mu.parts, reverse=True)))

