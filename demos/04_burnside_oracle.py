#!/usr/bin/env python3
"""Brute force against symbols.

The oracle enumerates every labeled tree explicitly, counts the trees
fixed by one permutation of each cycle type (`fixed_counts`, one table
per n and tree kind), and applies Burnside's lemma: the number of
unlabeled structures is the average number of fixed labeled structures
over the group.  At small n this must agree with the cycle-index route,
and it does.
"""

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
    fixed_counts,
    partitions_of,
    r_coefficient,
)

print("explicit enumeration sizes:")
for n in range(1, 8):
    row = f"  n={n}: {len(enumerate_rooted(n)):6d} rooted"
    if n >= 2:
        row += f" {len(enumerate_unrooted(n)):6d} unrooted"
    print(row)

print()
print("fix counts by cycle type at n = 5 (match the r_lam column of Z_R):")
fixes = fixed_counts(5, unrooted=False)
zr = binary_tree_cycle_index(5)
for lam in partitions_of(5):
    print(f"  {str(lam):14} fixes {fixes[lam]:4d}"
          f"   r_lam = {r_coefficient(lam, zr):4d}")

print()
print("Burnside orbit counts vs symbolic counts, n <= 6:")
families = [
    ROOTED_ORDERED,
    ROOTED_UNORDERED,
    UNROOTED_ORDERED,
    UNROOTED_UNORDERED,
    chain(3),
    chain_unordered(3),
]
for fam in families:
    pairs = [
        (burnside_count(fam, n), count(fam, n))
        for n in range(fam.min_n, 7)
    ]
    status = "agree" if all(a == b for a, b in pairs) else "DISAGREE"
    print(f"  {fam.label:24} {[a for a, _ in pairs]}  <- {status}")
