"""Output checks, run after each workload process has exited.

A row (for `verify`, a check line) fails when it is wrong, missing or
unparsable, or when the process exited non-zero, raised or timed out.
Three independent sources stand behind the expected rows:

* rooted-ordered and chain(k) rows are recomputed here from the product
  formula for r_lam summed over binary partitions, without the solver;
* rows of the unordered and unrooted families with small n must match the
  published tables (the same ones tests/test_acceptance.py pins);
* every row must match reference.json, recorded from the program at the
  commit that introduced the benchmark, whose CLI stdout digests it also
  stores.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

REFERENCE_PATH = Path(__file__).parent / "reference.json"

# Published tables, index 0 is the smallest n.  An unordered pair of trees
# is a multiset of two, so chain-unordered(k=2) shares the first table.
_UNORDERED = [1, 1, 2, 10, 69, 807, 13048, 269221, 6660455, 191411477, 6257905519]
PUBLISHED = {
    "rooted-unordered": (1, _UNORDERED),
    "chain-unordered(k=2)": (1, _UNORDERED),
    "unrooted-ordered": (2, [1, 1, 2, 4, 31, 243, 3532, 62810, 1390718,
                             36080361, 1076477512]),
    "unrooted-unordered": (2, [1, 1, 2, 4, 22, 145, 1875, 31929, 698183,
                               18056523, 538340256]),
}


def _binary_partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    part = largest
    while part >= 1:
        if part <= n:
            for rest in _binary_partitions(n - part, part):
                yield (part,) + rest
        part //= 2


@lru_cache(maxsize=None)
def _fixed_tree_terms(n: int) -> tuple[tuple[int, int], ...]:
    """(r_lam, z_lam) over binary partitions lam of n, where r_lam is the
    product over i >= 2 of 2*(lam_i + ... + lam_l) - 1."""
    out = []
    for parts in _binary_partitions(n, 1 << n.bit_length()):
        r, tail = 1, n
        for part in parts[:-1]:
            tail -= part
            r *= 2 * tail - 1
        z = 1
        for part in set(parts):
            m = parts.count(part)
            z *= part**m * math.factorial(m)
        out.append((r, z))
    return tuple(out)


def closed_form_count(n: int, k: int) -> int:
    """k-tuples of rooted binary trees on n leaves up to relabeling."""
    total = sum(Fraction(r**k, z) for r, z in _fixed_tree_terms(n))
    if total.denominator != 1:
        raise ArithmeticError(f"closed form for n={n}, k={k} is not integral")
    return int(total)


def independent_value(label: str, n: int) -> int | None:
    """The row's value from a source other than the program, if one exists."""
    if label == "rooted-ordered":
        return closed_form_count(n, 2)
    if label.startswith("chain(k="):
        return closed_form_count(n, int(label[len("chain(k="):-1]))
    if label in PUBLISHED:
        first, table = PUBLISHED[label]
        if n - first < len(table):
            return table[n - first]
    return None


@lru_cache(maxsize=None)
def reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def reference_value(label: str, n: int) -> int:
    entry = reference()["counts"][label]
    return int(entry["values"][n - entry["min_n"]])


def row_ok(line: str, label: str, n: int) -> bool:
    """The line is `label<TAB>n<TAB>value` with value a non-negative integer
    equal to the reference and to the independent value where one exists."""
    fields = line.split("\t")
    if len(fields) != 3 or fields[0] != label or fields[1] != str(n):
        return False
    if not fields[2].isdigit():
        return False
    value = int(fields[2])
    independent = independent_value(label, n)
    if independent is not None and value != independent:
        return False
    return value == reference_value(label, n)


def table_rows(argv: list[str]) -> list[tuple[str, int]]:
    """The (label, n) rows `tanglecount counts` prints for argv, in order."""
    families = [argv[i + 1] for i, a in enumerate(argv) if a == "--family"]
    k = int(argv[argv.index("--k") + 1]) if "--k" in argv else 2
    max_n = int(argv[argv.index("--max-n") + 1])
    rows = []
    for fam in families:
        label = f"{fam}(k={k})" if fam in ("chain", "chain-unordered") else fam
        first = 2 if fam.startswith("unrooted") else 1
        rows.extend((label, n) for n in range(first, max_n + 1))
    return rows


def check_rows(stdout: str, rows: list[tuple[str, int]], header: str | None) -> int:
    """Number of failed rows: each expected row must be on its own line in
    order, after `header` if given; surplus lines count as failures too."""
    lines = stdout.splitlines()
    if header is not None:
        if not lines or lines[0] != header:
            return len(rows)
        lines = lines[1:]
    failed = sum(
        1
        for i, (label, n) in enumerate(rows)
        if i >= len(lines) or not row_ok(lines[i], label, n)
    )
    return min(len(rows), failed + max(0, len(lines) - len(rows)))


def check_verify(stdout: str) -> tuple[int, int]:
    """(attempted, failed) for `tanglecount verify`: every recorded check
    must appear, in order, as a PASS line."""
    expected = reference()["verify_lines"]
    lines = stdout.splitlines()
    failed = sum(
        1
        for i, want in enumerate(expected)
        if i >= len(lines) or lines[i] != want or not want.startswith("PASS ")
    )
    return len(expected), min(len(expected), failed + max(0, len(lines) - len(expected)))
