"""Exact enumeration of tanglegram variants.

The package counts unlabeled tanglegrams exactly: ordered and unordered,
rooted and unrooted, plus tangled chains of any length, each as a sum
over the cycle types of the leaf permutation of the numbers of labeled
trees that a permutation fixes.  The cycle indices of rooted and unrooted
leaf-labeled binary trees, in exact rational arithmetic, give a second
route, and a brute-force Burnside oracle over explicitly enumerated trees
cross-checks everything at small sizes.

>>> from tanglecount import ROOTED_ORDERED, count
>>> [count(ROOTED_ORDERED, n) for n in range(1, 7)]
[1, 1, 2, 13, 114, 1509]
"""

from .cycle_index import (
    CycleIndexSeries,
    DegreeOutOfRange,
    NonZeroConstantTerm,
    h_series,
    inner_plethysm_hn,
    inner_plethysm_pk,
    monomial,
    p1,
    zero_series,
)
from .oracle import (
    SizeLimitExceeded,
    burnside_count,
    enumerate_rooted,
    enumerate_unrooted,
    fix_count,
    fixed_counts,
)
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
    NonIntegerCoefficient,
    NonIntegerCount,
    TanglegramFamily,
    binary_tree_cycle_index,
    chain,
    chain_unordered,
    count,
    count_table,
    labeled_counts,
    r_closed_form,
    r_coefficient,
    u_direct,
    unrooted_tree_cycle_index,
    wedderburn_etherington,
)

__version__ = "0.1.0"

__all__ = [
    "CycleIndexSeries",
    "DegreeOutOfRange",
    "NonIntegerCoefficient",
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
