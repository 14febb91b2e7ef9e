"""Command-line front end: count tables, cycle-index expansions, unlabeled
generating functions, and the oracle-vs-series verification report.

One table, `_COMMANDS`, lists the subcommands and their arguments; `parse`
reads argv from it as argparse would (`--opt value`, `--opt=value`, unique
prefixes, a repeated `--family`) and `--help` prints it.  The module does
not import argparse, which with gettext and locale cost about 5 ms of every
run's start-up.  `main` calls the `cmd_<command>` function of this module
that is bound when it runs.

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


def cmd_counts(args: SimpleNamespace) -> int:
    families = _resolve_families(args.family, args.k)
    max_n = args.max_n
    for fam in families:
        if max_n < fam.min_n:
            raise _UsageError(f"{fam.label} requires --max-n >= {fam.min_n}")
    reason = species.table_guard(families, max_n)
    if reason is not None:
        labels = ", ".join(fam.label for fam in families)
        raise _UsageError(f"{labels} to --max-n {max_n}: {reason}")

    def render() -> str:
        rows: Rows = []
        for fam in families:
            table = species.count_table(fam, max_n)
            rows.extend((fam.label, n, table[n]) for n in range(fam.min_n, max_n + 1))
        return _RENDERERS[args.format](rows)

    _emit(args.output, render)
    return 0


def cmd_zindex(args: SimpleNamespace) -> int:
    N, unrooted = args.max_degree, args.which == "U"
    if N < 1 + unrooted:
        raise _UsageError(f"zindex {args.which} requires --max-degree >= {1 + unrooted}")
    if N > species.SERIES_LIMIT:
        raise _UsageError(f"--max-degree {N} exceeds the series guard {species.SERIES_LIMIT}")
    _emit(args.output, lambda: species.closed_form_cycle_index(N, unrooted).render() + "\n")
    return 0


def cmd_gf(args: SimpleNamespace) -> int:
    # the rooted trees are the chain of one tree, so gf is that count table,
    # and for U Otter's dissymmetry step on it, under the same guard as counts
    N, unrooted = args.max_n, args.which == "U"
    if N < 1 + unrooted:
        raise _UsageError(f"gf {args.which} requires --max-n >= {1 + unrooted}")
    rooted = species.chain(1)
    reason = species.table_guard([rooted], N)
    if reason is not None:
        raise _UsageError(f"gf {args.which} to --max-n {N}: {reason}")
    label = f"{args.which}-unlabeled"

    def render() -> str:
        table = species.count_table(rooted, N)
        if unrooted:
            table = species.unrooted_from_rooted(table)
        rows: Rows = [(label, n, table[n]) for n in range(1 + unrooted, N + 1)]
        return _RENDERERS[args.format](rows)

    _emit(args.output, render)
    return 0


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

    # Burnside orbit counts against count_table, per family; no series takes
    # part, but the check keeps the name "burnside-vs-series" that the
    # benchmark's reference output pins
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
# its values in command-line order.  parse() and --help both read this table.
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
_HELP = ("-h", "--help")


def _word(name: str) -> str:
    # how an argument reads in the usage line: its name and metavar
    return name if name[0] != "-" else f"{name} {name[2:].replace('-', '_').upper()}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: {_PROG} [-h] {{{','.join(_COMMANDS)}}} ..."
    words = [f"usage: {_PROG} {command} [-h]"]
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
    return f"{_usage(command)}\n\n{about}\n\n{table}{footer}"


def _print_help(command: str | None, name: str, inline: str | None):
    # argparse reads "-hh" as -h twice, and any other value given to -h or
    # --help as an error
    if inline is not None and (name == "--help" or not inline or inline.strip("h")):
        _fail(command, f"argument -h/--help: ignored explicit argument {inline!r}")
    sys.stdout.write(_help(command))
    sys.stdout.flush()  # here, so that main sees a closed stdout
    raise SystemExit(0)


def _fail(command: str | None, message: str):
    prog = _PROG if command is None else f"{_PROG} {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _is_negative_number(token: str) -> bool:
    # argparse's ^-\d+$|^-\d*\.\d+$: such a token is a value, not an option
    whole, dot, fraction = token[1:].partition(".")
    if dot:
        return (not whole or whole.isdecimal()) and fraction.isdecimal()
    return whole.isdecimal()


def _option(
    command: str | None, token: str, names: tuple[str, ...]
) -> tuple[str, str | None] | None:
    """Read token as argparse does: None for a value or positional, else
    (the option it names, or "" for an unknown option; the value given
    inline after "=", or after "-h", or None).  "--" is a positional here."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    head, eq, inline = token.partition("=")
    if token in names:
        return token, None
    if eq and head in names:
        return head, inline
    if token[:2] == "--":
        found = [name for name in names if name.startswith(head)]
        if len(found) > 1:
            _fail(command, f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return found[0], inline if eq else None
    elif token[:2] in names:
        return token[:2], token[2:]
    if _is_negative_number(token) or " " in token:
        return None
    return "", None


def _value(command: str, name: str, values, token: str):
    if values is int:
        try:
            return int(token)
        except ValueError:
            _fail(command, f"argument {name}: invalid int value: {token!r}")
    if values is not str and token not in values:
        choices = ", ".join(map(repr, values))
        _fail(command, f"argument {name}: invalid choice: {token!r} (choose from {choices})")
    return token


def _parse_command(command: str, tokens: list[str], extras: list[str]) -> SimpleNamespace:
    specs = {spec[0]: spec for spec in _COMMANDS[command][1]}
    positionals = [name for name in specs if name[0] != "-"]
    names = (*_HELP, *(name for name in specs if name[0] == "-"))
    # no token after the first "--" is an option; argparse reads every token
    # before it acts on any, so an ambiguous prefix fails even after a -h
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    read = [_option(command, token, names) for token in tokens[:cut]]
    read += [None] * (len(tokens) - cut)
    given: dict[str, object] = {}
    taken = None  # the index of the token the last positional took
    i = 0
    while i < len(tokens):
        token, option = tokens[i], read[i]
        i += 1
        if option is None:
            if i - 1 == cut:
                # argparse drops this "--" only beside a positional's token
                if taken != cut - 1 and not (positionals and i < len(tokens)):
                    extras.append(token)
            elif positionals:
                name = positionals.pop(0)
                given[name] = _value(command, name, specs[name][1], token)
                taken = i - 1
            else:
                extras.append(token)
            continue
        name, inline = option
        if not name:
            extras.append(token)
            continue
        if name in _HELP:
            _print_help(command, name, inline)
        if inline is None:
            if i >= cut or read[i] is not None:
                _fail(command, f"argument {name}: expected one argument")
            inline = tokens[i]
            i += 1
        _, values, default, _ = specs[name]
        value = _value(command, name, values, inline)
        if default is _REPEATED:
            given.setdefault(name, []).append(value)
        else:
            given[name] = value
    missing = [
        name for name, (_, _, default, _) in specs.items()
        if default in (_REQUIRED, _REPEATED) and name not in given
    ]
    if missing:
        _fail(command, "the following arguments are required: " + ", ".join(missing))
    return SimpleNamespace(command=command, **{
        name.lstrip("-").replace("-", "_"): given.get(name, default)
        for name, (_, _, default, _) in specs.items()
    })


def parse(argv: list[str]) -> SimpleNamespace:
    """The subcommand and its options from argv, read as argparse read them:
    --opt value or --opt=value, any unique prefix of an option, options and
    positionals in any order, and "--" to end the options.  A bad command
    line prints the usage and an error to stderr and exits 2; -h or --help
    prints the help and exits 0.  The result has `command` and one attribute
    per argument, named like it with "-" as "_"."""
    extras: list[str] = []
    for i, token in enumerate(argv):
        option = _option(None, token, _HELP)
        if option is None:
            if token not in _COMMANDS:
                choices = ", ".join(map(repr, _COMMANDS))
                _fail(None, f"argument command: invalid choice: {token!r} (choose from {choices})")
            args = _parse_command(token, argv[i + 1:], extras)
            break
        name, inline = option
        if not name:
            extras.append(token)
        else:
            _print_help(None, name, inline)
    else:
        _fail(None, "the following arguments are required: command")
    if extras:
        _fail(None, "unrecognized arguments: " + " ".join(extras))
    return args


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
