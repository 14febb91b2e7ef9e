#!/usr/bin/env python3
"""The two tree species.

A rooted binary tree is a leaf or an unordered pair of binary trees, so
its cycle index solves Z = p_1 + h_2[Z].  The unrooted series follows by
the dissymmetry decomposition.  The coefficient of p_lam/z_lam in Z_R is
the number of labeled trees fixed by a permutation of cycle type lam,
which also has a closed product form that we cross-check here.  The
unrooted counts u_lam follow from r_lam by two rules, checked against
Z_U.
"""

from tanglecount import (
    Partition,
    binary_tree_cycle_index,
    h_series,
    is_binary_partition,
    p1,
    partitions_of,
    r_closed_form,
    r_coefficient,
    u_direct,
    unrooted_tree_cycle_index,
    wedderburn_etherington,
    z,
)

N = 8
zr = binary_tree_cycle_index(N)
zu = unrooted_tree_cycle_index(N)

print("Z_R through degree 4:")
print(" ", binary_tree_cycle_index(4).render())
print("fixed point of Z = p_1 + h_2[Z]:",
      zr == p1(N) + h_series(2, N).plethysm(zr))
print("every p_n occurring has n a power of 2:",
      all(is_binary_partition(lam) for lam in zr.terms))

print()
print("Z_U through degree 4:")
print(" ", unrooted_tree_cycle_index(4).render())

print()
print("fixed-tree counts r_lam, solver vs closed form, n = 6:")
for lam in partitions_of(6):
    solved = r_coefficient(lam, zr)
    closed = r_closed_form(lam)
    marker = "" if solved == closed else "  <-- MISMATCH"
    print(f"  {str(lam):16} {solved:6d} {closed:6d}{marker}")

print()
print("fixed unrooted trees u_lam, Z_U vs the two rules, n = 6:")
for lam in partitions_of(6):
    series = int(zu.coefficient(lam) * z(lam))
    rules = u_direct(lam)
    marker = "" if series == rules else "  <-- MISMATCH"
    print(f"  {str(lam):16} {series:6d} {rules:6d}{marker}")

print()
print("unlabeled rooted trees (Wedderburn-Etherington), two routes:")
print("  from Z_R          :", [int(c) for c in zr.unlabeled_gf()][1:])
print("  functional equation:", wedderburn_etherington(N)[1:])

print()
print("special values: r at (1,...,1) is the labeled tree count (2n-3)!!")
for n in (2, 4, 6, 8):
    print(f"  n={n}: {r_coefficient(Partition((1,) * n), zr)}")
