"""Command-line front end: count tables, cycle-index expansions, unlabeled
generating functions, and the oracle-vs-series verification report.

Exit codes: 0 success, 1 verification failure or internal error, 2 usage
error or guard (an input the command line refuses as too large to finish).
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import species
from .partitions import Partition, partitions_of
from .species import (
    ROOTED_ORDERED,
    ROOTED_UNORDERED,
    UNROOTED_ORDERED,
    UNROOTED_UNORDERED,
    TanglegramFamily,
    binary_tree_cycle_index,
    unrooted_tree_cycle_index,
)


def _resolve_families(names: list[str], k: int) -> list[TanglegramFamily]:
    families = []
    for name in names:
        try:
            families.append(TanglegramFamily(name, k if species.takes_k(name) else None))
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
    # drop duplicates, keep command-line order
    return list(dict.fromkeys(families))


# -- output rendering -----------------------------------------------------

Rows = list[tuple[str, int, int]]  # (family label, n, count)


def _render_delimited(sep: str, rows: Rows) -> str:
    lines = [sep.join(("family", "n", "count"))]
    lines.extend(f"{fam}{sep}{n}{sep}{value}" for fam, n, value in rows)
    return "\n".join(lines) + "\n"


def _group(rows: Rows) -> list[tuple[str, list[tuple[int, int]]]]:
    grouped: list[tuple[str, list[tuple[int, int]]]] = []
    for fam, n, value in rows:
        if not grouped or grouped[-1][0] != fam:
            grouped.append((fam, []))
        grouped[-1][1].append((n, value))
    return grouped


def _render_json(rows: Rows) -> str:
    import json  # only for this format: keeps it out of start-up time

    objects = [
        {"family": fam, "counts": [{"n": n, "value": str(v)} for n, v in pairs]}
        for fam, pairs in _group(rows)
    ]
    payload = objects[0] if len(objects) == 1 else objects
    return json.dumps(payload, indent=2) + "\n"


def _render_bfile(rows: Rows) -> str:
    lines = []
    for fam, pairs in _group(rows):
        lines.append(f"# {fam}")
        lines.extend(f"{n} {v}" for n, v in pairs)
    return "\n".join(lines) + "\n"


_RENDERERS = {
    "table": functools.partial(_render_delimited, "\t"),
    "csv": functools.partial(_render_delimited, ","),
    "json": _render_json,
    "bfile": _render_bfile,
}


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as handle:
            handle.write(text)


# -- subcommands ----------------------------------------------------------


def _check_guard(option: str, value: int, limit: int, path: str) -> None:
    if value > limit:
        raise _UsageError(f"{option} {value} exceeds the {path} guard {limit}")


def cmd_counts(args: argparse.Namespace) -> int:
    families = _resolve_families(args.family, args.k)
    max_n = args.max_n
    for fam in families:
        if max_n < fam.min_n:
            raise _UsageError(f"{fam.label} requires --max-n >= {fam.min_n}")
        reason = species.table_guard(fam, max_n)
        if reason is not None:
            raise _UsageError(f"{fam.label} to --max-n {max_n}: {reason}")
    rows: Rows = []
    for fam in families:
        table = species.count_table(fam, max_n)
        rows.extend((fam.label, n, table[n]) for n in range(fam.min_n, max_n + 1))
    _emit(_RENDERERS[args.format](rows), args.output)
    return 0


def cmd_zindex(args: argparse.Namespace) -> int:
    least = 1 if args.which == "R" else 2
    if args.max_degree < least:
        raise _UsageError(f"zindex {args.which} requires --max-degree >= {least}")
    _check_guard("--max-degree", args.max_degree, species.SERIES_LIMIT, "series")
    if args.which == "R":
        series = binary_tree_cycle_index(args.max_degree)
    else:
        series = unrooted_tree_cycle_index(args.max_degree)
    _emit(series.render() + "\n", args.output)
    return 0


def cmd_gf(args: argparse.Namespace) -> int:
    start = 1 if args.which == "R" else 2
    if args.max_n < start:
        raise _UsageError(f"gf {args.which} requires --max-n >= {start}")
    _check_guard("--max-n", args.max_n, species.SERIES_LIMIT, "series")
    if args.which == "R":
        series = binary_tree_cycle_index(args.max_n)
        label = "R-unlabeled"
    else:
        series = unrooted_tree_cycle_index(args.max_n)
        label = "U-unlabeled"
    gf = series.unlabeled_gf()
    rows: Rows = []
    for n in range(start, args.max_n + 1):
        value = gf[n]
        count = species._divide(value.numerator, value.denominator, f"{label} at n = {n}")
        rows.append((label, n, count))
    _emit(_RENDERERS[args.format](rows), args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # here, not at module level, so that no other command loads the oracle
    from . import oracle

    max_n = args.max_n
    if max_n < 1:
        raise _UsageError("--max-n must be >= 1")
    if max_n > oracle.ORACLE_LIMIT:
        raise _UsageError(
            f"--max-n {max_n} exceeds the brute-force guard "
            f"{oracle.ORACLE_LIMIT}; the oracle is desk-scale only"
        )

    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}{': ' + detail if detail else ''}")

    # enumeration sizes against the double-factorial counts: the identity
    # type 1^n fixes every enumerated tree, so its entry counts them
    def n_trees(n: int, unrooted: bool) -> int:
        return oracle.fixed_counts(n, unrooted)[Partition((1,) * n)]

    for unrooted in (False, True):
        # an unrooted tree on n leaves is a rooted one on n - 1, hung from leaf n
        sizes = range(1 + unrooted, max_n + 1)
        if sizes:
            ok = all(
                n_trees(n, unrooted) == species.labeled_counts(n - unrooted)[0]
                for n in sizes
            )
            report(f"{species.TREE_KINDS[unrooted]}-enumeration-count", ok)

    # fixed points of every cycle type against the series coefficients
    zr = binary_tree_cycle_index(max_n)
    ok = True
    first_bad = ""
    for n in range(1, max_n + 1):
        fixes = oracle.fixed_counts(n, False)
        for lam in partitions_of(n):
            if fixes[lam] != species.r_coefficient(lam, zr):
                ok = False
                first_bad = f"cycle type {lam}"
                break
    report("fix-count-vs-cycle-index", ok, first_bad)

    # closed form against the fixed-point solver
    ok = all(
        species.r_closed_form(lam) == species.r_coefficient(lam, zr)
        for n in range(0, max_n + 1)
        for lam in partitions_of(n)
    )
    report("closed-form-vs-solver", ok)

    # Burnside orbit counts against the symbolic counts, per family
    families = [
        ROOTED_ORDERED,
        ROOTED_UNORDERED,
        species.chain(3),
        species.chain_unordered(3),
        UNROOTED_ORDERED,
        UNROOTED_UNORDERED,
    ]
    for fam in families:
        table = species.count_table(fam, max_n)
        ok = True
        first_bad = ""
        for n in range(fam.min_n, max_n + 1):
            got = oracle.burnside_count(fam, n)
            if got != table[n]:
                ok = False
                first_bad = f"n={n}: oracle {got} vs count_table {table[n]}"
                break
        report(f"burnside-vs-series[{fam.label}]", ok, first_bad)

    # functional equation against the unlabeled GF of the series
    gf = zr.unlabeled_gf()
    wet = species.wedderburn_etherington(max_n)
    report(
        "wedderburn-etherington-consistency",
        all(gf[n] == wet[n] for n in range(0, max_n + 1)),
    )

    return 1 if failures else 0


# -- argument parsing -------------------------------------------------------


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tanglecount",
        description="Count unlabeled tanglegrams, tangled chains, and binary "
        "tree shapes exactly, by integer passes over binary partitions; the "
        "cycle-index series are kept as the cross-check (zindex, gf, verify).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_counts = sub.add_parser("counts", help="tables of counts per family")
    p_counts.add_argument(
        "--family",
        action="append",
        required=True,
        choices=species.FAMILY_KINDS,
        help="family to count (repeatable)",
    )
    p_counts.add_argument(
        "--k", type=int, default=2, help="number of trees in a chain (default 2)"
    )
    p_counts.add_argument("--max-n", type=int, required=True, help="largest leaf count")
    p_counts.add_argument(
        "--format", default="table", choices=sorted(_RENDERERS), help="output format"
    )
    p_counts.add_argument("--output", default=None, help="write to file instead of stdout")
    p_counts.set_defaults(func=cmd_counts)

    p_zindex = sub.add_parser("zindex", help="print a cycle-index expansion")
    p_zindex.add_argument(
        "which", choices=("R", "U"), help="R for rooted trees, U for unrooted"
    )
    p_zindex.add_argument("--max-degree", type=int, required=True)
    p_zindex.add_argument("--output", default=None)
    p_zindex.set_defaults(func=cmd_zindex)

    p_gf = sub.add_parser("gf", help="print unlabeled tree generating functions")
    p_gf.add_argument("which", choices=("R", "U"))
    p_gf.add_argument("--max-n", type=int, required=True)
    p_gf.add_argument("--format", default="table", choices=sorted(_RENDERERS))
    p_gf.add_argument("--output", default=None)
    p_gf.set_defaults(func=cmd_gf)

    p_verify = sub.add_parser(
        "verify", help="cross-check the series against the brute-force oracle"
    )
    p_verify.add_argument("--max-n", type=int, default=5)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    # counts are exact and can run to thousands of digits; the interpreter's
    # default cap on int-to-str conversion is for parsing untrusted input
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # only on this path: keeps it out of start-up time

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
