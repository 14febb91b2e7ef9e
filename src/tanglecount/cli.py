"""Command-line front end: count tables, cycle-index expansions, unlabeled
generating functions, and the oracle-vs-series verification report.

One table, `_COMMANDS`, lists the subcommands and their arguments; `parse`
reads argv from it and `--help` prints it.  A command line in the plain form
(each option by its full name, `--opt value` or `--opt=value`) is read by
hand; argparse reads any other, and is imported only then.  Argparse alone
was slower in ten of ten alternating benchmark pairs (perfbench medians,
CPython 3.11.7, 2-core Xeon vCPU): the rooted-table workload took 71 ms
(58 ms of set-up) against 65 (53), and `verify --max-n 6` 82 ms (59) against
74 (52) at 14.77 MB peak RSS against 14.45.  `main` calls the
`cmd_<command>` function of this module that is bound when it runs.

Exit codes: 0 success or help, 1 verification failure, internal error, a
write that failed (a full disk) or a stdout the reader closed, 2 usage
error (a bad command line or an --output that cannot be opened) or guard
(an input the command line refuses as too large to finish).
"""

from __future__ import annotations

import functools
import os
import sys
from collections.abc import Callable
from types import SimpleNamespace

from . import species
from .partitions import Partition, partitions_of
from .species import (
    ROOTED_ORDERED,
    ROOTED_UNORDERED,
    UNROOTED_ORDERED,
    UNROOTED_UNORDERED,
    TanglegramFamily,
    binary_tree_cycle_index,
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


def _emit(output: str | None, render: Callable[[], str]) -> None:
    """Write render() to stdout, or to the file output.  The file is opened
    first, so that a path that cannot be written fails before any counting,
    and emptied only once the text is ready, so that a run that fails or is
    interrupted leaves it as it was."""
    if output is None:
        sys.stdout.write(render())
        return
    try:
        handle = open(output, "a")
    except OSError as exc:
        raise _UsageError(f"cannot write {output}: {exc.strerror}") from exc
    with handle:
        text = render()
        # opened for appending, a file stands at its end: 0 for a new one, and
        # for /dev/null, which refuses truncate; a pipe cannot tell()
        if handle.seekable() and handle.tell():
            handle.truncate(0)
        handle.write(text)


# -- subcommands ----------------------------------------------------------


def _print_tables(args: SimpleNamespace, families: list, name: str = "", label: str = "") -> int:
    # name names the tables in a refusal, label every row; by default the
    # families' own labels do both
    max_n = args.max_n
    for fam in families:
        if max_n < fam.min_n:
            raise _UsageError(f"{name or fam.label} requires --max-n >= {fam.min_n}")
    reason = species.table_guard(families, max_n)
    if reason is not None:
        name = name or ", ".join(fam.label for fam in families)
        raise _UsageError(f"{name} to --max-n {max_n}: {reason}")

    def render() -> str:
        rows: Rows = []
        for fam, table in zip(families, species.count_tables(families, max_n)):
            rows.extend((label or fam.label, n, table[n]) for n in range(fam.min_n, max_n + 1))
        return _RENDERERS[args.format](rows)

    _emit(args.output, render)
    return 0


def cmd_counts(args: SimpleNamespace) -> int:
    return _print_tables(args, _resolve_families(args.family, args.k))


def cmd_zindex(args: SimpleNamespace) -> int:
    N, unrooted = args.max_degree, args.which == "U"
    if N < 1 + unrooted:
        raise _UsageError(f"zindex {args.which} requires --max-degree >= {1 + unrooted}")
    if N > species.SERIES_LIMIT:
        raise _UsageError(f"--max-degree {N} exceeds the series guard {species.SERIES_LIMIT}")
    _emit(args.output, lambda: species.closed_form_cycle_index(N, unrooted).render() + "\n")
    return 0


def cmd_gf(args: SimpleNamespace) -> int:
    # the trees of either kind are the chain of one tree: gf is counts of it
    family = TanglegramFamily("unrooted-chain" if args.which == "U" else "chain", 1)
    return _print_tables(args, [family], f"gf {args.which}", f"{args.which}-unlabeled")


def cmd_verify(args: SimpleNamespace) -> int:
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
    for unrooted in (False, True):
        # an unrooted tree on n leaves is a rooted one on n - 1, hung from leaf n
        sizes = range(1 + unrooted, max_n + 1)
        if sizes:
            ok = all(
                oracle.fixed_counts(n, unrooted)[Partition((1,) * n)]
                == species.labeled_counts(n - unrooted)[0]
                for n in sizes
            )
            report(f"{species.TREE_KINDS[unrooted]}-enumeration-count", ok)

    # the series coefficient of every cycle type, read once, against the
    # oracle's fixed points and against the closed form; each check names the
    # first cycle type where it fails
    zr = binary_tree_cycle_index(max_n)
    fix_bad = closed_bad = ""
    for n in range(max_n + 1):
        fixes = oracle.fixed_counts(n, False) if n else {}
        for lam in partitions_of(n):
            r = species.r_coefficient(lam, zr)
            if n and not fix_bad and fixes[lam] != r:
                fix_bad = f"cycle type {lam}"
            if not closed_bad and species.r_closed_form(lam) != r:
                closed_bad = f"cycle type {lam}"
    report("fix-count-vs-cycle-index", not fix_bad, fix_bad)
    report("closed-form-vs-solver", not closed_bad, closed_bad)

    # Burnside orbit counts against the count tables, per family; no series
    # takes part, but the check keeps the name "burnside-vs-series" that the
    # benchmark's reference output pins
    families = [
        ROOTED_ORDERED,
        ROOTED_UNORDERED,
        species.chain(3),
        species.chain_unordered(3),
        UNROOTED_ORDERED,
        UNROOTED_UNORDERED,
    ]
    for fam, table in zip(families, species.count_tables(families, max_n)):
        first_bad = ""
        for n in range(fam.min_n, max_n + 1):
            got = oracle.burnside_count(fam, n)
            if got != table[n]:
                first_bad = f"n={n}: oracle {got} vs count_table {table[n]}"
                break
        report(f"burnside-vs-series[{fam.label}]", not first_bad, first_bad)

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


_PROG = "tanglecount"
_DESCRIPTION = """\
Count unlabeled tanglegrams, tangled chains, and binary tree shapes exactly,
by integer passes over binary partitions; the solved cycle-index series are
kept as the cross-check (verify)."""

_REQUIRED = "(required)"
_REPEATED = "(required, repeatable)"
_FORMATS = tuple(sorted(_RENDERERS))
_WHICH = (("R", "U"), _REQUIRED, "R for rooted trees, U for unrooted")
_OUTPUT = (str, None, "write to file instead of stdout")

# Every subcommand: its help line and its arguments, each as (name, values,
# default, help).  A name without "--" is a positional.  values is int, str
# or a tuple of the choices.  default is the value an absent option takes,
# _REQUIRED, or _REPEATED for a required option that may repeat and collects
# its values in command-line order.  _plain, _argparse and --help read it.
_COMMANDS = {
    "counts": ("tables of counts per family", (
        ("--family", species.FAMILY_KINDS, _REPEATED, "family to count"),
        ("--k", int, 2, "number of trees in a chain (default 2)"),
        ("--max-n", int, _REQUIRED, "largest leaf count"),
        ("--format", _FORMATS, "table", "output format (default table)"),
        ("--output", *_OUTPUT),
    )),
    "zindex": ("print a cycle-index expansion", (
        ("which", *_WHICH),
        ("--max-degree", int, _REQUIRED, "largest degree"),
        ("--output", *_OUTPUT),
    )),
    "gf": ("print unlabeled tree generating functions", (
        ("which", *_WHICH),
        ("--max-n", int, _REQUIRED, "largest leaf count"),
        ("--format", _FORMATS, "table", "output format (default table)"),
        ("--output", *_OUTPUT),
    )),
    "verify": ("cross-check the series against the brute-force oracle", (
        ("--max-n", int, 5, "largest leaf count (default 5)"),
    )),
}


def _word(name: str) -> str:
    # how an argument reads in the usage line: its name and metavar
    return name if name[0] != "-" else f"{name} {name[2:].replace('-', '_').upper()}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"{_PROG} [-h] {{{','.join(_COMMANDS)}}} ..."
    words = [f"{_PROG} {command} [-h]"]
    for name, _, default, _ in _COMMANDS[command][1]:
        word = _word(name)
        words.append(word if default in (_REQUIRED, _REPEATED) else f"[{word}]")
    return " ".join(words)


def _help(command: str | None) -> str:
    rows = [("-h, --help", "show this help and exit")]
    if command is None:
        about = _DESCRIPTION
        rows += [(name, line) for name, (line, _) in _COMMANDS.items()]
        footer = f"\nRun '{_PROG} COMMAND --help' for the options of a command.\n"
    else:
        about = _COMMANDS[command][0]
        for name, values, default, line in _COMMANDS[command][1]:
            if default in (_REQUIRED, _REPEATED):
                line += " " + default
            if isinstance(values, tuple):
                line += "; one of:\n" + ", ".join(values)
            rows.append((_word(name), line))
        footer = ""
    width = max(len(word) for word, _ in rows) + 4
    indent = "\n" + " " * (width + 2)
    table = "".join(
        "  " + word.ljust(width) + line.replace("\n", indent) + "\n" for word, line in rows
    )
    return f"usage: {_usage(command)}\n\n{about}\n\n{table}{footer}"


def _plain(argv: list[str]) -> SimpleNamespace | None:
    """argv read in the plain form: the command first, then each option by
    its exact name with its value as the next token or after "=", and the
    positionals in order.  None for any other argv (help, a prefix, "--", a
    value that starts with "-") and for any error: _argparse reads those."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, tokens = argv[0], iter(argv[1:])
    specs = {spec[0]: spec for spec in _COMMANDS[command][1]}
    positionals = [name for name in specs if name[0] != "-"]
    given: dict[str, object] = {}
    for token in tokens:
        if token[:2] == "--":
            name, eq, value = token.partition("=")
            if not eq:
                value = next(tokens, "-")  # none left: refused as "-" is
        elif positionals and token[:1] != "-":
            name, value = positionals.pop(0), token
        else:
            return None
        if name not in specs or value[:1] == "-":
            return None
        _, values, default, _ = specs[name]
        if values is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif values is not str and value not in values:
            return None
        if default is _REPEATED:
            given.setdefault(name, []).append(value)
        else:
            given[name] = value
    for name, _, default, _ in specs.values():
        if default in (_REQUIRED, _REPEATED) and name not in given:
            return None
    return SimpleNamespace(command=command, **{
        name.lstrip("-").replace("-", "_"): given.get(name, default)
        for name, (_, _, default, _) in specs.items()
    })


def _argparse(argv: list[str]) -> SimpleNamespace:
    """argv read by argparse, from parsers built from _COMMANDS: the usage
    line and the help are this module's, every error message argparse's."""
    import argparse  # here, so that a plain command line never loads it

    class Help(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            sys.stdout.write(_help(self.const))
            sys.stdout.flush()  # here, so that main sees a closed stdout
            raise SystemExit(0)

    class Value(argparse.Action):
        # "store", or "append" when const is set.  argparse before 3.13 hands
        # on the value of --opt=-- as [], where 3.13 reads it as "--"
        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                values = parser._get_value(self, "--")
                parser._check_value(self, values)
            if self.const:
                values = [*(getattr(namespace, self.dest) or ()), values]
            setattr(namespace, self.dest, values)

    def add_help(parser: argparse.ArgumentParser, command: str | None) -> None:
        parser.add_argument(
            "-h", "--help", action=Help, nargs=0, const=command, default=argparse.SUPPRESS
        )

    top = argparse.ArgumentParser(prog=_PROG, usage=_usage(None), add_help=False)
    add_help(top, None)
    # prog: each subparser's is "tanglecount COMMAND", not built from the usage
    subparsers = top.add_subparsers(prog=_PROG, dest="command", required=True)
    for command, (_, arguments) in _COMMANDS.items():
        parser = subparsers.add_parser(command, usage=_usage(command), add_help=False)
        add_help(parser, command)
        for name, values, default, _ in arguments:
            required = default in (_REQUIRED, _REPEATED)
            options = {"type": values} if isinstance(values, type) else {"choices": values}
            if name[0] == "-":
                options["required"] = required  # argparse refuses it for a positional
            parser.add_argument(
                name, action=Value, const=default is _REPEATED,
                default=None if required else default, **options,
            )
    return SimpleNamespace(**vars(top.parse_args(argv)))


def parse(argv: list[str]) -> SimpleNamespace:
    """The subcommand and its options from argv, as argparse reads them:
    --opt value or --opt=value, any unique prefix of an option, options and
    positionals in any order, and "--" to end the options.  A bad command
    line prints the usage and an error to stderr and exits 2; -h or --help
    prints the help and exits 0.  The result has `command` and one attribute
    per argument, named like it with "-" as "_".  _plain reads the plain
    form that scripts and examples use, and _argparse every other argv."""
    return _plain(argv) or _argparse(argv)


def main(argv: list[str] | None = None) -> int:
    # counts are exact and can run to thousands of digits; the interpreter's
    # default cap on int-to-str conversion is for parsing untrusted input
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = None
    try:
        args = parse(sys.argv[1:] if argv is None else argv)
        # looked up now, not bound at import, so that a rebound cmd_* is called
        code = globals()["cmd_" + args.command](args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a write failed, the only I/O of a command: to --output or to stdout.
        # As the SIGPIPE note in the docs of Python's signal module advises,
        # a failed stdout is pointed at devnull, so that the flush at exit
        # cannot fail again
        output = getattr(args, "output", None)
        if output is None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # a closed reader stops quietly
            print(f"error: cannot write {output or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return 1
    except Exception as exc:
        import traceback  # only on this path: keeps it out of start-up time

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
