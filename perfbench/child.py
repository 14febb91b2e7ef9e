"""One workload process, started fresh by run.py for every sample.

    python3 child.py META MODE TRACE SPANS cli ARGV...
    python3 child.py META MODE TRACE SPANS rows ROWS_JSON

MODE is `run`, or `setup` to exit at the end of set-up.  TRACE is 1 to
wrap the package's entry points (tracing.py) and write spans to SPANS.
`cli` runs `tanglecount.cli.main(ARGV)` as the console script does;
`rows` reads a list of [kind, k, n] and prints `label<TAB>n<TAB>count`
for each, calling `tanglecount.count(family, n)` with the default N.

Set-up ends at the first call into a layer: for `cli`, when argument
parsing hands over to the subcommand; for `rows`, once the list is read.
Its monotonic timestamp, comparable with the parent's launch time, goes to
META, a JSON file written at exit together with the layer summary.
"""

import json
import os
import sys
import time


def main() -> int:
    meta_path, mode, trace, spans_path, kind, *rest = sys.argv[1:]
    import tanglecount
    from tanglecount import cli

    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.install()
    meta = {"module": tanglecount.__file__}

    def end_setup() -> None:
        meta["setup_end_ns"] = time.monotonic_ns()
        if mode == "setup":
            _write(meta_path, meta)
            os._exit(0)

    try:
        if kind == "cli":
            # build_parser() reads these names when main() calls it
            for name in [n for n in vars(cli) if n.startswith("cmd_")]:
                setattr(cli, name, _after_setup(getattr(cli, name), end_setup))
            return cli.main(rest)
        with open(rest[0]) as handle:
            queries = [
                (tanglecount.TanglegramFamily(family_kind, k or None), n)
                for family_kind, k, n in json.load(handle)
            ]
        end_setup()
        count = tanglecount.count
        for family, n in queries:
            print(f"{family.label}\t{n}\t{count(family, n)}")
        return 0
    finally:
        sys.stdout.flush()
        if tracer is not None:
            meta["layers"] = tracer.summary()
            tracer.write(spans_path)
        _write(meta_path, meta)


def _after_setup(fn, end_setup):
    def subcommand(args):
        end_setup()
        return fn(args)

    return subcommand


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    sys.exit(main())
