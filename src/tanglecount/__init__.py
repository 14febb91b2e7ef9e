"""Exact enumeration of tanglegram variants.

The package counts unlabeled tanglegrams exactly: ordered and unordered,
rooted and unrooted, plus tangled chains of any length: chain(k) and
chain_unordered(k) of rooted trees, and TanglegramFamily("unrooted-chain",
k) of unrooted ones, the ordered chain of k unrooted trees, each as a sum
over the cycle types of the leaf permutation of the numbers of labeled
trees that a permutation fixes.  The cycle indices of rooted and unrooted
leaf-labeled binary trees, in exact rational arithmetic, give a second
route, and a brute-force Burnside oracle over explicitly enumerated trees
cross-checks everything at small sizes.

No count reads a series or the oracle, and only verify solves a series
(zindex prints the cycle indices read off the closed forms that the counts
use, and gf prints count tables), so the series names
(CycleIndexSeries, p1, h_series, the inner plethysms and the rest from
cycle_index) and the oracle's (burnside_count, fixed_counts and the rest)
load on first use: `import tanglecount` and the counting path never import
cycle_index, oracle or fractions.

>>> from tanglecount import ROOTED_ORDERED, count
>>> [count(ROOTED_ORDERED, n) for n in range(1, 7)]
[1, 1, 2, 13, 114, 1509]
"""

from .partitions import (
    Partition,
    is_binary_partition,
    partitions_of,
    power_type,
    union,
    z,
)
from .species import (
    ROOTED_ORDERED,
    ROOTED_UNORDERED,
    UNROOTED_ORDERED,
    UNROOTED_UNORDERED,
    NonIntegerCount,
    TanglegramFamily,
    binary_tree_cycle_index,
    chain,
    chain_unordered,
    count,
    count_table,
    count_tables,
    labeled_counts,
    r_closed_form,
    r_coefficient,
    u_direct,
    unrooted_tree_cycle_index,
    wedderburn_etherington,
)

__version__ = "0.1.0"

# resolved by __getattr__ (PEP 562) when first asked for: these from
# cycle_index, _ORACLE_NAMES from oracle
_SERIES_NAMES = frozenset(
    {
        "CycleIndexSeries",
        "DegreeOutOfRange",
        "NonZeroConstantTerm",
        "h_series",
        "inner_plethysm_hn",
        "inner_plethysm_pk",
        "monomial",
        "p1",
        "zero_series",
    }
)
_ORACLE_NAMES = frozenset(
    {
        "SizeLimitExceeded",
        "burnside_count",
        "enumerate_rooted",
        "enumerate_unrooted",
        "fix_count",
        "fixed_counts",
    }
)


def __getattr__(name: str):
    if name in _SERIES_NAMES:
        from . import cycle_index as module
    elif name in _ORACLE_NAMES:
        from . import oracle as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SERIES_NAMES | _ORACLE_NAMES)

__all__ = [
    "CycleIndexSeries",
    "DegreeOutOfRange",
    "NonIntegerCount",
    "NonZeroConstantTerm",
    "Partition",
    "ROOTED_ORDERED",
    "ROOTED_UNORDERED",
    "SizeLimitExceeded",
    "TanglegramFamily",
    "UNROOTED_ORDERED",
    "UNROOTED_UNORDERED",
    "binary_tree_cycle_index",
    "burnside_count",
    "chain",
    "chain_unordered",
    "count",
    "count_table",
    "count_tables",
    "enumerate_rooted",
    "enumerate_unrooted",
    "fix_count",
    "fixed_counts",
    "h_series",
    "inner_plethysm_hn",
    "inner_plethysm_pk",
    "is_binary_partition",
    "labeled_counts",
    "monomial",
    "p1",
    "partitions_of",
    "power_type",
    "r_closed_form",
    "r_coefficient",
    "u_direct",
    "union",
    "unrooted_tree_cycle_index",
    "wedderburn_etherington",
    "z",
    "zero_series",
]
