"""purepole benchmark: one workload, one process, one operation in flight.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports purepole from its
``src/`` directory.  The run first times the set-up of fresh interpreters,
then drives operations of the workload in a closed loop: the next starts
when the previous one and its output check have finished, and none starts
whose operation and check would be expected to end after ``--seconds``
(at least one always runs).  BLAS is pinned to one thread before numpy is imported.
A fixed reference kernel (``refkernel.py``) is timed before and after every
operation; ``wall_norm_s`` is the operation's wall time scaled to the
reference speed, so that the host's drift in speed cancels.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over the run's operations; the raw
``wall_s`` is printed before it but not gated); with
``--trace 1`` operations alternate between untraced and traced, and the
object holds the per-layer metrics of the traced ones.  Spans of a traced
run are written to ``.perfbench_out/``.  Lines before the last describe the
environment and every metric with its median, quartiles and sample count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import envinfo  # noqa: E402
import refkernel  # noqa: E402
from summary import quartiles  # noqa: E402
from workloads import WORKLOADS, warm_up  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def describe(name: str, unit: str, values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{name:<42} {unit:<6} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}"


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import and warm purepole."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], cwd=ROOT,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return times


def run_loop(workload, seconds: float, trace: bool, tracer):
    """Closed loop of operations; returns (durations, reference times, traced
    flags, failures, purities).  Operation i lies between reference times i
    and i + 1."""
    durations, traced, purities, cycles = [], [], [], []
    refs = [refkernel.reference()]
    failed = 0
    work_dir = OUT / f"work-{workload.name}"
    start = time.perf_counter()
    while True:
        with_trace = trace and len(durations) % 2 == 1
        cycle_start = time.perf_counter()
        try:
            if with_trace:
                tracer.op = len(durations)
                tracer.install()
            t0 = time.perf_counter()
            try:
                output = workload.run(work_dir)
            finally:
                durations.append(time.perf_counter() - t0)
                traced.append(with_trace)
                if with_trace:
                    tracer.uninstall()
                refs.append(refkernel.reference())
            purity = workload.check(output)
            if purity is not None:
                purities.append(purity)
        except Exception:  # noqa: BLE001 - an operation failure is counted, not fatal
            failed += 1
            traceback.print_exc(file=sys.stderr)
        now = time.perf_counter()
        cycles.append(now - cycle_start)
        enough = not trace or (any(traced) and not all(traced))
        if enough and now - start + statistics.median(cycles) > seconds:
            break
    shutil.rmtree(work_dir, ignore_errors=True)
    return durations, refs, traced, failed, purities


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "purepole" / "__init__.py").is_file():
        print(f"error: no purepole sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = envinfo.record(ROOT)
    env["start_busy_cores"] = envinfo.busy_cores(0.5)
    env["loaded_at_start"] = (env["start_busy_cores"] or 0.0) > envinfo.LOADED_CORES
    env["loadavg_before"] = os.getloadavg()

    setup = measure_setup()
    warm_up()
    refkernel.reference()
    seed = args.seed % 2**32
    workload = WORKLOADS[args.workload](seed)

    tracer = None
    if args.trace:
        from tracing import Tracer, median_metrics

        tracer = Tracer()
    durations, refs, traced, failed, purities = run_loop(workload, args.seconds, bool(args.trace), tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env["loadavg_after"] = os.getloadavg()

    untraced = [d for d, t in zip(durations, traced) if not t]
    normalised = [d * refkernel.NOMINAL_S / (0.5 * (refs[i] + refs[i + 1]))
                  for i, (d, t) in enumerate(zip(durations, traced)) if not t]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if env["loaded_at_start"]:
        print(f"warning: {env['start_busy_cores']:.2f} cores busy before the run started")
    print(describe("wall_norm_s", "s", normalised))
    print(describe("wall_s", "s", untraced))
    print(describe("reference_s", "s", refs))
    print(describe("setup_s", "s", setup))
    print(describe("peak_rss_mb", "MB", [peak_rss_mb]))
    print(f"{'error_rate':<42} {'1':<6} {failed / len(durations):.6g}  "
          f"({failed} failed of {len(durations)} attempted)")
    if purities:
        print(describe("design_purity", "1", purities))

    if args.trace:
        traced_ops = [i for i, t in enumerate(traced) if t]
        per_op = [tracer.op_metrics(i, durations[i]) for i in traced_ops]
        metrics = median_metrics(per_op)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_csv(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        for key, value in metrics.items():
            share = ""
            if key.endswith(".self_s"):
                share = f"  ({100.0 * value / metrics['trace.wall_s']:.1f} % of traced wall)"
            print(f"{key:<42} {value:.6g}{share}")
        units = {k: ("s" if k.endswith("_s") else "count") for k in metrics}
    else:
        metrics = {
            "wall_norm_s": statistics.median(normalised),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    result = {
        "correct": failed == 0,
        "attempted": len(durations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
