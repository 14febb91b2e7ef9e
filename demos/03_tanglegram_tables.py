#!/usr/bin/env python3
"""The six count families side by side.

A tanglegram is a pair of binary trees sharing a leaf set; variants drop
the ordering of the pair, unroot the trees, or lengthen the pair to a
chain of k trees.  All counts are exact integers, summed over the cycle
types of the leaf permutation with no series, by passes over binary
partitions: the rooted ones with r_lam, the unrooted ones with u_lam on
its support, the binary partitions and 3 times them.
"""

from tanglecount import (
    ROOTED_ORDERED,
    ROOTED_UNORDERED,
    UNROOTED_ORDERED,
    UNROOTED_UNORDERED,
    chain,
    chain_unordered,
    count_table,
    labeled_counts,
)

MAX_N = 12
FAMILIES = [
    ROOTED_ORDERED,
    ROOTED_UNORDERED,
    UNROOTED_ORDERED,
    UNROOTED_UNORDERED,
    chain(3),
    chain_unordered(3),
]
# one table per family: each holds the counts for every n up to MAX_N
tables = [count_table(fam, MAX_N) for fam in FAMILIES]

header = f"{'n':>3}  " + "  ".join(f"{fam.label:>24}" for fam in FAMILIES)
print(header)
print("-" * len(header))
for n in range(1, MAX_N + 1):
    cells = []
    for fam, table in zip(FAMILIES, tables):
        if n < fam.min_n:
            cells.append(f"{'-':>24}")
        else:
            cells.append(f"{table[n]:>24}")
    print(f"{n:>3}  " + "  ".join(cells))

pairs = tables[0]
print()
print("labeled vs unlabeled, ordered rooted pairs:")
print(f"{'n':>3} {'labeled':>16} {'unlabeled':>16}")
for n in range(1, 11):
    print(f"{n:>3} {labeled_counts(n)[1]:>16} {pairs[n]:>16}")

print()
print("sanity: a chain of length 2 is an ordered tanglegram:")
print("  ", count_table(chain(2), 10) == pairs[:11])
