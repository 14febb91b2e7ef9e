"""Record reference.json from the program as it stands.

    python3 perfbench/make_reference.py      # from the repository root

Stores every count the workloads can print (all six families, chains with
k = 2..4, n up to 30), the lines of `tanglecount verify --max-n 6`, and the
sha256 of each CLI workload's stdout.  Every value is first checked against
the closed form and the published tables in check.py.  Run it only when
the output is meant to change; the benchmark compares against this file.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import check
import workloads

ROOT = Path(__file__).resolve().parent.parent
MAX_N = 30


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from tanglecount import TanglegramFamily, count

    families = [
        TanglegramFamily(kind, k)
        for kind in workloads.FAMILY_KINDS
        for k in ((2, 3, 4) if kind in workloads.CHAIN_KINDS else (None,))
    ]
    counts = {}
    for fam in families:
        values = [count(fam, n, MAX_N) for n in range(fam.min_n, MAX_N + 1)]
        for n, value in zip(range(fam.min_n, MAX_N + 1), values):
            independent = check.independent_value(fam.label, n)
            if independent is not None and independent != value:
                raise SystemExit(f"{fam.label} n={n}: {value} != independent {independent}")
        counts[fam.label] = {"min_n": fam.min_n, "values": [str(v) for v in values]}

    env = {"PYTHONPATH": str(ROOT / "src")}
    stdout = {
        name: subprocess.run(
            [sys.executable, "-m", "tanglecount.cli", *workloads.cli_argv(name)],
            capture_output=True, check=True, env=env, cwd=ROOT, text=True,
        ).stdout
        for name in workloads.CLI_WORKLOADS
    }
    digests = {name: hashlib.sha256(out.encode()).hexdigest() for name, out in stdout.items()}
    verify_lines = stdout["oracle-verify"].splitlines()
    if not all(line.startswith("PASS ") for line in verify_lines):
        raise SystemExit("verify reported a failure")

    payload = {"counts": counts, "verify_lines": verify_lines, "stdout_sha256": digests}
    check.REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    check.reference.cache_clear()
    for name in ("rooted-table", "unrooted-table"):
        rows = check.table_rows(workloads.cli_argv(name))
        if check.check_rows(stdout[name], rows, "family\tn\tcount"):
            raise SystemExit(f"{name}: stdout disagrees with the recorded counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
