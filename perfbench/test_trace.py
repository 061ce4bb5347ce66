"""The benchmark's own checks: tracing covers every namespace, counts repeat.

    python3 -m pytest perfbench/test_trace.py -q

The workload tests run every workload twice with ``--trace 1`` and a
one-second budget (one untraced and one traced operation per run), which
takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
COUNTS = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]


def _run(workload: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _traced(workload: str) -> dict:
    proc = _run(workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    return {name: value["value"] for name, value in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_and_every_build_reaches_the_kernel(workload):
    first, second = _traced(workload), _traced(workload)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    # a build_jsa binding left unpatched would show as fewer builds than kernels
    assert first["spectrum.build_jsa.calls"] == first["spectrum.pmf_piecewise.calls"]
    if workload == "gvm-map":
        assert first["spectrum.spans"] == 0
    else:
        assert first["spectrum.build_jsa.calls"] > 0


def test_install_patches_every_binding_and_uninstall_restores():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import purepole
    from purepole import analysis, cli, design, spectrum
    from tracing import Tracer

    bindings = [(purepole, "build_jsa"), (spectrum, "build_jsa"), (analysis, "build_jsa"),
                (cli, "build_jsa"), (analysis, "measure_delta_omega"),
                (cli, "measure_delta_omega"), (cli, "schmidt_decompose"),
                (design, "optimize_pump_bandwidth"), (cli, "optimize_pump_bandwidth")]
    originals = [getattr(ns, name) for ns, name in bindings]
    tracer = Tracer()
    tracer.install()
    try:
        for (ns, name), original in zip(bindings, originals):
            assert getattr(ns, name) is not original, f"{ns.__name__}.{name}"
            assert getattr(ns, name).__wrapped__ is original
    finally:
        tracer.uninstall()
    assert [getattr(ns, name) for ns, name in bindings] == originals


def test_fails_without_the_program():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(WORKLOADS[0], cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
