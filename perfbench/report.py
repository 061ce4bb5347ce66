"""Run the benchmark over several seeds and print every metric per workload.

    python3 perfbench/report.py --runs 10 [--first-seed 1] [--trace 0|1]

Each run is a fresh ``perfbench/run.py`` process of ``run_seconds`` from
``BENCHMARK.json``, one after the other, on every workload it names.  For
every end-to-end metric the table gives its unit, median, quartiles and
sample count over the runs, and the spread (Q3 - Q1) / median against the
metric's bound: "steady" below a third of the bound, "within" below the
bound.  The raw ``wall_s`` gets the same summary, ungated.  The design
workloads also get the median and lowest design purity.
With ``--trace 1`` it prints the per-layer metrics instead, with each self
time as a share of the traced wall time.  All run results are saved to
``.perfbench_out/report-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from summary import quartiles, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    purity = next((float(line.split()[3]) for line in lines
                   if line.startswith("design_purity ")), None)
    raw_wall = next((float(line.split()[3]) for line in lines if line.startswith("wall_s ")), None)
    return {"workload": workload, "seed": seed, "run_s": elapsed, "env": env,
            "design_purity": purity, "raw_wall_s": raw_wall, "result": json.loads(lines[-1])}


def print_end_to_end(bench: dict, workload: str, runs: list[dict]) -> None:
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    loaded = sum(1 for r in runs if r["env"].get("loaded_at_start"))
    run_s = [r["run_s"] for r in runs]
    print(f"\n{workload}: {len(runs)} runs, {attempted} operations, error_rate "
          f"{failed / attempted:.4g}, {loaded} runs started on a loaded machine, "
          f"run length median {statistics.median(run_s):.1f} s max {max(run_s):.1f} s")
    print(f"  {'metric':<14}{'unit':<6}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        if len(values) < 2:
            print(f"  {name:<14}{metric['unit']:<6}{values[0]:>12.6g}")
            continue
        q1, med, q3 = quartiles(values)
        s = spread(values)
        verdict = ("steady" if s < metric["bound"] / 3 else "within" if s <= metric["bound"]
                   else "TOO WIDE")
        print(f"  {name:<14}{metric['unit']:<6}{med:>12.6g}{q1:>12.6g}"
              f"{q3:>12.6g}{len(values):>4}{s:>9.4f}{metric['bound']:>7}  {verdict}")
    raw = [r["raw_wall_s"] for r in runs if r["raw_wall_s"] is not None]
    if len(raw) > 1:
        q1, med, q3 = quartiles(raw)
        print(f"  raw wall_s (not gated) median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, "
              f"spread {spread(raw):.4f}")
    purities = [r["design_purity"] for r in runs if r["design_purity"] is not None]
    if purities:
        print(f"  design_purity median {statistics.median(purities):.6g}, "
              f"lowest {min(purities):.6g} over {len(purities)} runs")


def print_per_layer(bench: dict, workload: str, runs: list[dict]) -> None:
    print(f"\n{workload} (traced): {len(runs)} runs")
    medians = {m["name"]: statistics.median(r["result"]["metrics"][m["name"]]["value"]
                                            for r in runs) for m in bench["per_layer"]}
    wall = medians["trace.wall_s"]
    for metric in bench["per_layer"]:
        name = metric["name"]
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        note = ""
        if metric["unit"] == "count" and len(set(values)) > 1:
            note = f"  varies: {sorted(set(values))}"
        if name.endswith(".self_s") and wall:
            note += f"  {100 * medians[name] / wall:.1f} % of traced wall"
        print(f"  {name:<50}{medians[name]:>14.6g} {metric['unit']:<6}{note}")


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    results = {}
    for workload in (w["name"] for w in bench["workloads"]):
        results[workload] = []
        for seed in seeds:
            run = run_once(workload, seed, bench["run_seconds"], args.trace)
            results[workload].append(run)
            values = {k: round(v["value"], 4) for k, v in run["result"]["metrics"].items()
                      if k in ("wall_norm_s", "setup_s", "trace.wall_s")}
            print(f"  {workload} seed {seed}: {run['result']['attempted']} ops, {values}, "
                  f"run {run['run_s']:.1f} s", flush=True)
        if args.trace:
            print_per_layer(bench, workload, results[workload])
        else:
            print_end_to_end(bench, workload, results[workload])
        sys.stdout.flush()

    out = ROOT / ".perfbench_out" / f"report-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"\nresults saved to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
