import importlib
import math
import pkgutil
import random

import pytest

import tanglecount
from helpers import binary_partitions, from_vector
from tanglecount import partitions, species
from tanglecount.partitions import (
    Partition,
    is_binary_partition,
    iter_partitions,
    partitions_of,
    power_type,
    union,
    z,
)

# p(0)..p(20)
PARTITION_NUMBERS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135,
                     176, 231, 297, 385, 490, 627]


def brute_force_partitions(n):
    """Independent oracle: all weakly decreasing positive sequences summing to n."""
    def grow(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in grow(remaining - first, first):
                yield (first,) + rest

    return sorted(grow(n, n))


class TestPartitionType:
    def test_construction_and_fields(self):
        lam = Partition((3, 2, 2, 1))
        assert lam.parts == (3, 2, 2, 1)
        assert lam.size == 8
        assert len(lam) == 4
        assert list(lam) == [3, 2, 2, 1]

    def test_empty_partition(self):
        assert Partition(()).size == 0
        assert Partition(()) == Partition([])

    def test_rejects_increasing_parts(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            Partition((2, 0))
        with pytest.raises(ValueError):
            Partition((-1,))

    def test_equality_and_hash(self):
        assert Partition((2, 1)) == Partition([2, 1])
        assert hash(Partition((2, 1))) == hash(Partition((2, 1)))
        assert Partition((2, 1)) != Partition((3,))
        assert {Partition((2, 1)): "x"}[Partition((2, 1))] == "x"

    def test_total_order_is_size_then_lex(self):
        assert Partition((2,)) < Partition((1, 1, 1))  # smaller size first
        assert Partition((1, 1)) < Partition((2,))     # same size: lex on parts
        assert sorted(partitions_of(4)) == [
            Partition(p) for p in [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
        ]

    def test_serialization_format(self):
        assert str(Partition((2, 1, 1))) == "[2,1,1]"
        assert str(Partition(())) == "[]"

    def test_multiplicities(self):
        assert Partition((3, 2, 2, 1)).multiplicities() == {3: 1, 2: 2, 1: 1}


class TestPartitionsOf:
    def test_zero(self):
        assert partitions_of(0) == [Partition(())]

    def test_four_exhaustive(self):
        assert [p.parts for p in partitions_of(4)] == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
        ]

    def test_six_against_brute_force(self):
        got = partitions_of(6)
        assert len(got) == 11
        assert sorted(p.parts for p in got) == brute_force_partitions(6)

    def test_reverse_lexicographic_order(self):
        for n in range(1, 10):
            parts = [p.parts for p in partitions_of(n)]
            assert parts == sorted(parts, reverse=True)

    @pytest.mark.parametrize("n", range(0, 21))
    def test_partition_numbers(self, n):
        assert len(partitions_of(n)) == PARTITION_NUMBERS[n]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partitions_of(-1)

    def test_cache_is_bounded_above_the_series_degrees(self):
        # partitions_of keeps no cache, even at the largest degree zindex
        # accepts, and each call gives a list the caller owns
        assert not hasattr(partitions_of, "cache_info")
        first = partitions_of(species.SERIES_LIMIT)
        first.clear()
        assert len(partitions_of(species.SERIES_LIMIT)) == 37338  # p(40)


class TestIterPartitions:
    def test_same_as_partitions_of(self):
        for n in range(0, 13):
            assert list(iter_partitions(n)) == partitions_of(n)

    def test_lazy_for_huge_n(self):
        first = list(zip(range(3), iter_partitions(10**9)))
        assert [lam.parts for _, lam in first] == [
            (10**9,), (10**9 - 1, 1), (10**9 - 2, 2)
        ]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            next(iter_partitions(-1))


# b(0)..b(20), partitions into powers of 2
BINARY_PARTITION_NUMBERS = [1, 1, 2, 2, 4, 4, 6, 6, 10, 10, 14, 14, 20, 20, 26,
                            26, 36, 36, 46, 46, 60]


class TestBinaryPartitions:
    def test_against_filtered_partitions(self):
        for n in range(0, 21):
            got = [from_vector(mult) for mult in binary_partitions(n)]
            want = [lam for lam in partitions_of(n) if is_binary_partition(lam)]
            assert sorted(got) == sorted(want), n
            assert len(got) == len(set(got)) == BINARY_PARTITION_NUMBERS[n]

    def test_vectors_end_in_the_largest_part(self):
        assert list(binary_partitions(0)) == [()]
        for n in range(1, 40):
            assert all(mult[-1] for mult in binary_partitions(n)), n

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            next(binary_partitions(-1))


class TestBinaryPartitionWalk:
    # the package's walk of the binary partitions, against the scan it
    # replaced and against the multiplicity vectors of the helpers
    def test_equals_the_filtered_scan_in_its_order(self):
        for n in range(0, 31):
            walked = list(partitions.binary_partitions(n))
            assert walked == [lam for lam in partitions_of(n) if is_binary_partition(lam)], n
            assert sorted(walked) == sorted(map(from_vector, binary_partitions(n))), n

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partitions.binary_partitions(-1)


class TestZ:
    def test_examples(self):
        assert z(Partition((1, 1, 1))) == 6
        assert z(Partition((2, 1))) == 2
        assert z(Partition((2, 2))) == 8
        assert z(Partition(())) == 1

    @pytest.mark.parametrize("n", range(0, 13))
    def test_cycle_types_partition_symmetric_group(self, n):
        assert sum(math.factorial(n) // z(lam) for lam in partitions_of(n)) == math.factorial(n)

    def test_caches_are_bounded(self):
        # z, power_type and partitions_of are recomputed on every call: no
        # counts run reuses them, and verify gains nothing from caching them
        caches = {}
        for info in pkgutil.iter_modules(tanglecount.__path__):
            module = importlib.import_module(f"tanglecount.{info.name}")
            for name, obj in vars(module).items():
                if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                    caches[f"{info.name}.{name}"] = obj.cache_parameters()["maxsize"]
        assert set(caches) == {
            "species.binary_tree_cycle_index",
            "species.unrooted_tree_cycle_index",
            "oracle._fixed_table",
        }
        assert all(maxsize is not None for maxsize in caches.values()), caches
        # the fourth cache, the pass store, is held to a byte budget
        assert isinstance(species._passes, species._PassStore)
        assert 0 < species.PASS_STORE_BYTES <= 4 << 20


class TestPowerType:
    def test_examples(self):
        assert power_type(Partition((4,)), 2) == Partition((2, 2))
        assert power_type(Partition((2, 1)), 2) == Partition((1, 1, 1))

    def test_identity(self):
        for n in range(0, 7):
            for lam in partitions_of(n):
                assert power_type(lam, 1) == lam

    def test_composition_law(self):
        for n in range(0, 9):
            for lam in partitions_of(n):
                for a in range(1, 5):
                    for b in range(1, 5):
                        assert power_type(power_type(lam, a), b) == power_type(lam, a * b)

    def test_size_preserved(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(0, 12)
            lam = rng.choice(partitions_of(n))
            k = rng.randint(1, 6)
            assert power_type(lam, k).size == lam.size

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            power_type(Partition((2,)), 0)


class TestIsBinaryPartition:
    def test_examples(self):
        assert is_binary_partition(Partition((4, 2, 1, 1)))
        assert not is_binary_partition(Partition((3, 1)))
        assert is_binary_partition(Partition(()))
        assert is_binary_partition(Partition((16, 8, 8, 1)))
        assert not is_binary_partition(Partition((6,)))


class TestUnion:
    def test_examples(self):
        assert union(Partition((2, 1)), Partition((1,))) == Partition((2, 1, 1))
        assert union(Partition(()), Partition((3,))) == Partition((3,))
        assert union(Partition((2, 2)), Partition((4, 1))) == Partition((4, 2, 2, 1))

    def test_size_adds(self):
        rng = random.Random(11)
        for _ in range(100):
            lam = rng.choice(partitions_of(rng.randint(0, 10)))
            mu = rng.choice(partitions_of(rng.randint(0, 10)))
            assert union(lam, mu).size == lam.size + mu.size
            assert union(lam, mu) == union(mu, lam)
