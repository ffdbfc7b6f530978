"""
Benchmark for dqes: a landscape sweep, a multi-start VQE and a parameter-fit
VQE, run through the library's public API on one thread.

    python3 benchmarks/run.py [--workload sweep_k3|vqe_multistart|fit_h2|all]
                              [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree; dqes is imported from its `src/`. A
workload runs whole units of work until --seconds have passed and checks
every unit. With --trace 0 it prints the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it alternates traced and untraced units and
prints the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Without --workload, or
with `all`, every workload runs in its own process and the metrics are keyed
`<workload>.<metric>`. The exit code is 1 when a check fails and 2 when the
source tree has no dqes package.
"""

import os

# one thread: set before numpy is imported, here and in every child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up time drifts with the load on the machine over tens of seconds, so the
# cold starts are spread over the run, one before each unit, and at least this many.
COLD_STARTS = 5

# counts the traced run takes from the return values of these layers
OBSERVERS = {
    "optimize.minimize": lambda trace: [("optimize.evals", trace.evaluations)],
    "vqe.fit_parameters_to_state": lambda fit: [("vqe.fit.starts_used", fit.starts_used)],
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_times():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_share(before, after):
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def cold_setup_seconds(name: str, input_path: Path) -> float:
    """Wall time from starting a fresh interpreter to the end of the workload's
    set-up: import dqes, load the input, build its MUB sets from a cold cache."""
    cmd = [sys.executable, str(HERE / "coldstart.py"), name, str(input_path)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"cold start of {name} failed with exit code {proc.returncode}")
    return t1 - t0


class Run:
    """Units of one workload, with their wall times, evaluations and counts."""

    def __init__(self, workload):
        self.workload = workload
        self.walls: list[float] = []
        self.evals: list[int] = []
        self.counts: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def unit(self, run_unit) -> None:
        """Run, time and check one unit; a unit that raises counts as failed."""
        gc.collect()
        self.attempted += 1
        t0 = perf_counter()
        try:
            outputs = run_unit()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return
        self.walls.append(perf_counter() - t0)
        evals, counts = self.workload.check_unit(outputs)
        self.evals.append(evals)
        self.counts.append(counts)


def measure(wl, seconds: float, runs: list) -> tuple[dict, dict]:
    """End-to-end metrics; the Run it makes is appended to `runs` at once."""
    cold_setup_seconds(wl.name, wl.input_path)  # fills the bytecode and page caches
    setups = []
    wl.start()
    run = Run(wl)
    runs.append(run)
    before = cpu_times()
    t_end = perf_counter() + seconds
    while run.attempted == 0 or perf_counter() < t_end:
        setups.append(cold_setup_seconds(wl.name, wl.input_path))
        run.unit(wl.run_unit)
    while len(setups) < COLD_STARTS:
        setups.append(cold_setup_seconds(wl.name, wl.input_path))
    info = {"steal_share": steal_share(before, cpu_times()), "setup_runs_s": setups}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wl.check_dense()
    if not run.walls:
        return {}, info
    return {
        "wall_s": statistics.median(run.walls),
        "evals_per_s": statistics.median(e / w for e, w in zip(run.evals, run.walls)),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }, info


def measure_traced(wl, seconds: float, runs: list) -> tuple[dict, dict]:
    """Per-layer metrics from alternate traced and untraced units; the traced
    Run, then the untraced one, are appended to `runs` at once."""
    import tracing

    tracer = tracing.Tracer()
    with tracing.installed(tracer, "dqes", OBSERVERS), tracer.span("bench.setup") as setup_root:
        wl.start()
    roots = []

    def traced_unit():
        with tracing.installed(tracer, "dqes", OBSERVERS), tracer.span("bench.unit") as root:
            outputs = wl.run_unit()
        roots.append(root)
        return outputs

    traced, plain = Run(wl), Run(wl)
    runs += [traced, plain]
    before = cpu_times()
    t_end = perf_counter() + seconds
    while traced.attempted == 0 or perf_counter() < t_end:
        traced.unit(traced_unit)
        plain.unit(wl.run_unit)
    info = {"steal_share": steal_share(before, cpu_times()), "untraced_walls_s": plain.walls}
    wl.check_dense()
    tracer.write(wl.out_dir / "spans.csv.gz")
    if not (traced.walls and plain.walls):
        return {}, info
    per_root = tracer.per_root([setup_root, *roots])
    setup = per_root[setup_root]
    units = [{**per_root[r], **c} for r, c in zip(roots, traced.counts)]
    layers = {key: setup.get(key, 0) + statistics.median(u.get(key, 0) for u in units)
              for key in sorted(set(setup).union(*units))}
    layers["tracing.overhead_s"] = statistics.median(traced.walls) - statistics.median(plain.walls)
    layers["tracing.covered_share"] = statistics.median(
        1 - u["bench.uncovered_s"] / (tracer.end[r] - tracer.start[r]) for r, u in zip(roots, units))
    return layers, info


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> int:
    import numpy
    import workloads

    out_dir = OUT / f"{name}-s{seed}{'-traced' if trace else ''}"
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, out_dir)
    error, runs, values, info = None, [], {}, {}
    try:
        values, info = (measure_traced if trace else measure)(wl, seconds, runs)
    except workloads.CheckFailed as e:
        error = str(e)
    if error is None and not values:
        error = "no unit completed"
    # a layer that no unit called reports 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]} if error is None else {}
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "units_attempted": sum(r.attempted for r in runs),
        "units_failed": sum(r.failed for r in runs),
        "unit_walls_s": runs[0].walls if runs else [], "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        **info, "check_error": error, "metrics": values,
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    steal = info.get("steal_share")
    print(f"{name}: seed {seed}, {report['units_attempted']} units attempted, "
          f"{report['units_failed']} failed, cpu_count {os.cpu_count()}, "
          f"python {report['python']}, numpy {report['numpy']}, "
          f"steal {'n/a' if steal is None else f'{100 * steal:.2f}%'}")
    for key, m in metrics.items():
        print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}")
    if error:
        print(f"{name}: CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps({"correct": error is None, "attempted": report["units_attempted"],
                      "failed": report["units_failed"], "metrics": metrics}))
    return 0 if error is None else 1


def run_all(args, spec: dict) -> int:
    """Each workload in its own process; metrics keyed <workload>.<metric>."""
    correct, attempted, failed, metrics, status = True, 0, 0, {}, 0
    for wl in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"{wl['name']}: no result line", file=sys.stderr)
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{wl['name']}.{k}": v for k, v in result["metrics"].items()})
        status = max(status, proc.returncode)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dqes" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no dqes source tree at {ROOT} (expected src/dqes and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(names)} or all",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_workload(args.workload, args.seed, args.seconds, args.trace, spec)


if __name__ == "__main__":
    sys.exit(main())
