"""Quick self-test of the benchmark at small sizes (counts to n = 8,
`verify --max-n 4`, library lists to n = 8), one sample per workload.

    python3 perfbench/selftest.py      # from the repository root

Checks that every output row passes, that every metric BENCHMARK.json names
is reported with its unit, that each layer records spans in the workloads
where it runs, and that traced stdout is byte-identical to untraced stdout.
"""

import json
import sys
from pathlib import Path

import run

# Span groups each workload must record.  Only oracle-verify enumerates
# trees; only the unrooted families need the dissymmetry step.
SERIES = {"species.solve_R", "species.count", "cycle_index.plethysm", "cycle_index.mul",
          "partitions.partitions_of"}
EXPECTED_GROUPS = {
    "rooted-table": SERIES | {"cli", "species.r_coefficient", "cycle_index.inner_plethysm",
                              "cycle_index.kronecker"},
    "unrooted-table": SERIES | {"cli", "species.dissymmetry_U", "cycle_index.inner_plethysm",
                                "cycle_index.kronecker"},
    "oracle-verify": SERIES | {"cli", "species.r_coefficient", "oracle.enumerate",
                               "oracle.fix_count", "oracle.burnside_count"},
    "library-rows": SERIES | {"species.r_coefficient", "species.dissymmetry_U",
                              "cycle_index.inner_plethysm", "cycle_index.kronecker"},
}
ABSENT_GROUPS = {
    "rooted-table": {"species.dissymmetry_U", "oracle.enumerate"},
    "unrooted-table": {"oracle.enumerate", "species.r_coefficient"},
    "library-rows": {"cli", "oracle.enumerate"},
    "oracle-verify": set(),
}


def main() -> int:
    root = Path.cwd()
    declared = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for section, metrics in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        got = {m["name"]: m["unit"] for m in declared[section]}
        if got != metrics:
            problems.append(f"BENCHMARK.json {section} differs from run.py: {got} vs {metrics}")
    if [w["name"] for w in declared["workloads"]] != list(run.workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for name in run.workloads.WORKLOADS:
        for trace in (False, True):
            out = run.run(name, seed=1, seconds=0, trace=trace, root=root, small=True)
            label = f"{name} trace={int(trace)}"
            if not out["correct"] or out["failed"]:
                problems.append(f"{label}: not correct ({out['failed']}/{out['attempted']} failed)")
            wanted = run.PER_LAYER if trace else run.END_TO_END
            for metric, unit in wanted.items():
                if out["metrics"].get(metric, {}).get("unit") != unit:
                    problems.append(f"{label}: {metric} missing or without unit {unit}")
            if not trace:
                continue
            if not out["record"]["traced_stdout_identical"]:
                problems.append(f"{label}: traced stdout differs from untraced")
            spans = json.loads(Path(out["record"]["spans"][0]).read_text())
            groups = {spans["groups"][s[0]] for s in spans["spans"]}
            for group in sorted(EXPECTED_GROUPS[name] - groups):
                problems.append(f"{label}: no span for {group}")
            for group in sorted(ABSENT_GROUPS[name] & groups):
                problems.append(f"{label}: unexpected span for {group}")
        print(f"{name}: checked")
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
