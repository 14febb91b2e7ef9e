"""tanglecount benchmark: each sample is a fresh `tanglecount` process with
cold series caches and compiled bytecode in place, timed from outside.

    python3 perfbench/run.py --workload rooted-table --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout.  Set-up compiles src/ to bytecode,
as installing the package does.  Then the run starts workload processes one
after another (a closed loop, one client) while the next one still fits in
--seconds, and checks every output row once the timing is done.

--trace 0 prints the end-to-end metrics: wall_s (launch to exit, median
over samples), setup_s (launch to the first call into a layer, median over
the samples and the set-up-only launches between them) and peak_rss_mb
(ru_maxrss of the workload process alone, median).  --trace 1 alternates
untraced and traced processes and prints the per-layer metrics of
tracing.py, medians over the traced samples, plus trace.overhead_frac.

The last stdout line is the JSON result; a longer record, with the machine,
interpreter and source digest, goes to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {**LAYER_METRICS, "trace.overhead_frac": "ratio"}

SETUP_PER_SAMPLE = 2  # set-up-only launches before each untraced sample
MIN_SETUP_LAUNCHES = 12
LAUNCH_TIMEOUT_S = 120
# spawn.calibrate() on the reference host (Intel Xeon vCPU, CPython 3.11.7)
# takes this long in its typical state; times are reported at that speed.
CAL_REF_S = 0.045
TABLE_HEADER = "family\tn\tcount"


class Launch:
    """One finished workload process.

    wall_s and setup_s are rescaled to the reference host speed: the raw
    time times CAL_REF_S over the mean calibration time measured just
    before and just after the launch (spawn.calibrate).  The raw times are
    kept too.
    """

    def __init__(self, reply: dict, stdout: bytes, meta: dict):
        self.exit_code = reply["exit_code"]
        self.rss_mb = reply["maxrss_kb"] / 1024
        self.stdout = stdout
        self.meta = meta
        self.scale = CAL_REF_S / statistics.fmean(reply["calibration_s"])
        self.raw_wall_s = (reply["ended_ns"] - reply["launched_ns"]) / 1e9
        self.wall_s = self.raw_wall_s * self.scale
        setup_end = meta.get("setup_end_ns")
        self.raw_setup_s = None
        self.setup_s = None
        if setup_end is not None:
            self.raw_setup_s = (setup_end - reply["launched_ns"]) / 1e9
            self.setup_s = self.raw_setup_s * self.scale


class Runner:
    """Starts workload processes, through spawn.py, from a checkout whose
    src/ holds the package.  Use as a context manager."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        env.pop("PYTHONHOME", None)
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=root, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.spawner.stdin.close()
        self.spawner.wait()

    def launch(self, child_args: list[str], mode: str = "run", trace: bool = False,
               tag: str = "sample") -> Launch:
        meta_path = self.work / f"{tag}.meta.json"
        out_path = self.work / f"{tag}.stdout"
        meta_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "child.py"), str(meta_path), mode,
                "1" if trace else "0", str(self.work / f"{tag}.spans.json"), *child_args]
        request = {"argv": argv, "stdout": str(out_path),
                   "stderr": str(self.work / f"{tag}.stderr"), "timeout": LAUNCH_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise RuntimeError("the process spawner exited")
        meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
        return Launch(json.loads(line), out_path.read_bytes(), meta)


class Workload:
    """Child arguments and output checks for one named workload."""

    def __init__(self, name: str, seed: int, runner: Runner, small: bool = False):
        self.name = name
        self.seed = seed
        self.small = small
        self.runner = runner
        self.lists: dict[int, list] = {}

    def queries(self, i: int) -> list:
        """library-rows: sample i of a run gets its own seeded list, so a
        run's median spans several lists and depends little on one draw."""
        if i not in self.lists:
            sizes = {"per_family": 2, "max_n": 8} if self.small else {}
            self.lists[i] = workloads.library_rows(self.seed * 1000 + i, **sizes)
        return self.lists[i]

    def child_args(self, i: int) -> list[str]:
        if self.name != "library-rows":
            return ["cli", *workloads.cli_argv(self.name, self.small)]
        path = self.runner.work / f"queries-{i}.json"
        path.write_text(json.dumps(self.queries(i)))
        return ["rows", str(path)]

    def check(self, launch: Launch, i: int) -> tuple[int, int]:
        """(rows attempted, rows failed) for one sample."""
        text = launch.stdout.decode("utf-8", "replace")
        if self.name == "oracle-verify":
            attempted, failed = check.check_verify(text)
        else:
            if self.name == "library-rows":
                rows = [(workloads.row_label(kind, k), n) for kind, k, n in self.queries(i)]
                header = None
            else:
                rows = check.table_rows(workloads.cli_argv(self.name, self.small))
                header = TABLE_HEADER
            attempted, failed = len(rows), check.check_rows(text, rows, header)
        if launch.exit_code != 0 or not self._own_package(launch):
            return attempted, attempted
        if not self.small and self.name in workloads.CLI_WORKLOADS and failed == 0:
            digest = hashlib.sha256(launch.stdout).hexdigest()
            if digest != check.reference()["stdout_sha256"][self.name]:
                failed = 1  # every row right, yet the bytes differ
        return attempted, failed

    def _own_package(self, launch: Launch) -> bool:
        module = launch.meta.get("module", "")
        return Path(module).resolve().is_relative_to(self.runner.root / "src")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(workload: Workload, seconds: float, trace: bool) -> dict:
    """Launch samples until the next one would overrun `seconds`; at least
    one sample (with --trace 1, one untraced and one traced).

    The host's speed drifts over tens of seconds, so untraced runs spread
    their set-up-only launches over the whole window instead of bunching
    them at the start.
    """
    runner = workload.runner
    setup_runs: list[Launch] = []

    def setup_launches(count: int) -> None:
        for _ in range(count):
            setup_runs.append(runner.launch(workload.child_args(0), mode="setup",
                                            tag=f"setup-{len(setup_runs)}"))

    plain: list[tuple[int, Launch]] = []
    traced: list[tuple[int, Launch]] = []
    start = time.monotonic()
    i = 0
    while True:
        if not trace:
            setup_launches(SETUP_PER_SAMPLE)
        plain.append((i, runner.launch(workload.child_args(i), tag=f"plain-{i}")))
        if trace:
            traced.append((i, runner.launch(workload.child_args(i), trace=True,
                                            tag=f"traced-{i}")))
        i += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / i > seconds:
            break
    if not trace:
        setup_launches(MIN_SETUP_LAUNCHES - len(setup_runs))
    return {"setup_runs": setup_runs, "plain": plain, "traced": traced}


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        small: bool = False) -> dict:
    work = root / ".bench_build" / "perfbench" / f"{name}-seed{seed}-trace{int(trace)}"
    work.mkdir(parents=True, exist_ok=True)
    build(root)
    with Runner(root, work) as runner:
        workload = Workload(name, seed, runner, small)
        samples = measure(workload, seconds, trace)

    # everything below is outside the timed launches
    attempted = failed = 0
    for i, launch in samples["plain"] + samples["traced"]:
        a, f = workload.check(launch, i)
        attempted += a
        failed += f
    setup_ok = all(l.exit_code == 0 and l.setup_s is not None for l in samples["setup_runs"])
    plain = [l for _, l in samples["plain"]]
    traced = [l for _, l in samples["traced"]]
    identical = all(p.stdout == t.stdout for p, t in zip(plain, traced))

    walls = [l.wall_s for l in plain]
    setup_launches = samples["setup_runs"] + plain
    setups = [l.setup_s for l in setup_launches if l.setup_s is not None]
    result = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "peak_rss_mb": statistics.median(l.rss_mb for l in plain),
    }
    if trace:
        layers = [l.meta.get("layers") for l in traced]
        if all(layers):
            for metric, unit in LAYER_METRICS.items():
                # counts repeat exactly; median_low keeps them integers
                pick = statistics.median if unit == "s" else statistics.median_low
                result[metric] = pick(x[metric] for x in layers)
        result["trace.overhead_frac"] = (
            statistics.median(l.wall_s for l in traced) / result["wall_s"]
        )
    units = PER_LAYER if trace else END_TO_END
    metrics = {m: {"value": result[m], "unit": u} for m, u in units.items() if m in result}
    correct = (failed == 0 and setup_ok and identical and len(metrics) == len(units))

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "small": small,
        "environment": environment(root),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "traced_stdout_identical": identical,
        "wall_s": {
            "samples": len(walls),
            "quartiles": quartiles(walls),
            "values": walls,
            "raw_values": [l.raw_wall_s for l in plain],
            "scales": [l.scale for l in plain],
        },
        "setup_s": {
            "samples": len(setups),
            "values": setups,
            "raw_median": statistics.median(
                l.raw_setup_s for l in setup_launches if l.raw_setup_s is not None
            ) if setups else None,
        },
        "peak_rss_mb": [l.rss_mb for l in plain],
        "exit_codes": [l.exit_code for l in plain + traced],
        "metrics": result,
        "spans": [str(work / f"traced-{i}.spans.json") for i, _ in samples["traced"]],
    }
    if name == "library-rows":
        record["queries"] = {
            str(i): workloads.library_properties(rows) for i, rows in workload.lists.items()
        }
    if trace:
        record["layers_per_sample"] = [l.meta.get("layers") for l in traced]
    out = work.parent / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record, "record_path": str(out),
            "samples": samples}


def build(root: Path) -> None:
    """Compile the package's bytecode, as an install does; a no-op once the
    .pyc files are current."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src" / "tanglecount"), str(HERE)],
        check=True, stdout=subprocess.DEVNULL,
    )


def environment(root: Path) -> dict:
    """What makes numbers comparable: commit, interpreter and machine."""
    sha = "unknown"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    source = hashlib.sha256()
    for path in sorted((root / "src" / "tanglecount").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "tanglecount" / "__init__.py").is_file():
        print("error: run from the root of a tanglecount checkout (no src/tanglecount)",
              file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    record = out["record"]
    wall = record["wall_s"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"record={out['record_path']}")
    print(f"# wall_s quartiles {wall['quartiles']} over {wall['samples']} samples; "
          f"unscaled median {statistics.median(wall['raw_values'])} s")
    print(f"# failed_frac {record['failed_frac']} ({out['failed']}/{out['attempted']} rows)")
    for name, metric in out["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
