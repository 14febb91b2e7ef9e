"""The benchmark's workloads and the seeded input generator for library-rows.

Each workload runs in its own fresh interpreter (see child.py).  The three
CLI workloads are fixed command lines, so their seed only labels the result;
library-rows draws its query list from the seed, and the program receives
nothing but that list.

Why these four:
  rooted-table    the Z_R solve dominates; no dissymmetry step runs.
  unrooted-table  the same solve plus the h3[Z] dissymmetry and a Kronecker
                  product; a rooted-only change should leave it unchanged.
  oracle-verify   most of the time in the Burnside oracle; the series work is
                  negligible, so it bypasses every series optimisation.
  library-rows    in-process count(family, n) calls with the default N, so
                  every distinct N costs a fresh solve (the "pass the same N"
                  trap); it is where caching and the N argument show.
"""

from __future__ import annotations

import random
from collections import Counter

FAMILY_KINDS = (
    "rooted-ordered",
    "rooted-unordered",
    "unrooted-ordered",
    "unrooted-unordered",
    "chain",
    "chain-unordered",
)
CHAIN_KINDS = ("chain", "chain-unordered")
UNROOTED_KINDS = ("unrooted-ordered", "unrooted-unordered")

# Seed held back from tuning: a later performance claim must also hold on it.
HELD_BACK_SEED = 977


def _counts_argv(families: list[str], max_n: int, k: int | None = None) -> list[str]:
    argv = ["counts"]
    for fam in families:
        argv += ["--family", fam]
    if k is not None:
        argv += ["--k", str(k)]
    return argv + ["--max-n", str(max_n)]


def cli_argv(name: str, small: bool = False) -> list[str]:
    """Command line of a CLI workload; `small` gives the self-test sizes.

    Samples last about a second: the host's speed drifts within seconds,
    and run.py rescales each sample by a calibration taken right around it,
    which tracks short samples far better than long ones."""
    max_n = 8 if small else 22
    if name == "rooted-table":
        return _counts_argv(
            ["rooted-ordered", "rooted-unordered", "chain", "chain-unordered"], max_n, k=3
        )
    if name == "unrooted-table":
        return _counts_argv(["unrooted-ordered", "unrooted-unordered"], max_n)
    if name == "oracle-verify":
        return ["verify", "--max-n", "4" if small else "6"]
    raise KeyError(name)


WORKLOADS = ("rooted-table", "unrooted-table", "oracle-verify", "library-rows")
CLI_WORKLOADS = WORKLOADS[:3]


def library_rows(seed: int, per_family: int = 10, max_n: int = 18) -> list[tuple[str, int, int]]:
    """Seeded (kind, k, n) queries, `per_family` for each of the six
    families, in seeded order; k is 0 for the families that take no chain
    length and 2..4 for chains.

    Every family asks for n = max_n once, as a table's top row does; its
    other n values are stratified, one draw from each of `per_family - 1`
    equal bins of [min_n, max_n - 1].  The cost is dominated by the solves
    at the largest N, so this keeps run time nearly independent of the seed
    while the queries, their order and the chain lengths still vary.
    """
    rng = random.Random(seed)
    rows = []
    for kind in FAMILY_KINDS:
        lo = 2 if kind in UNROOTED_KINDS else 1
        bins = per_family - 1
        width = (max_n - lo) / bins
        ns = [
            rng.randint(lo + round(b * width), lo + round((b + 1) * width) - 1)
            for b in range(bins)
        ]
        for n in ns + [max_n]:
            k = rng.randint(2, 4) if kind in CHAIN_KINDS else 0
            rows.append((kind, k, n))
    rng.shuffle(rows)
    return rows


def row_label(kind: str, k: int) -> str:
    """The family label the package prints, e.g. `chain(k=3)`."""
    return f"{kind}(k={k})" if k else kind


def library_properties(rows: list[tuple[str, int, int]]) -> dict:
    """Input properties the caches depend on: the share of queries whose N
    (= n, the default) was not asked before, and the share per family."""
    seen: set[int] = set()
    new_n = 0
    for _, _, n in rows:
        if n not in seen:
            seen.add(n)
            new_n += 1
    per_family = Counter(kind for kind, _, _ in rows)
    return {
        "queries": len(rows),
        "distinct_n_share": new_n / len(rows),
        "family_share": {kind: per_family[kind] / len(rows) for kind in FAMILY_KINDS},
    }
