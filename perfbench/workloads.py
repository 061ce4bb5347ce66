"""The four benchmark workloads: inputs, one operation, and its output check.

Every workload drives purepole only through public entry points:
``purepole.cli.run`` for the CLI workloads and the library API for
``range-sweep``.  ``check`` raises `CheckFailed` when an operation's output
is wrong; it returns the design purity where the workload has one.

Only ``design-dc`` depends on the seed (it is passed to the CLI as
``--seed``); the other three workloads are deterministic and ignore it.
Reference values were taken from the seed commit of the repository.
"""

from __future__ import annotations

import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EXIT_OK, EXIT_BELOW_THRESHOLD = 0, 3
PURITY_THRESHOLD = 0.995  # the CLI default
PURITY_ABS_TOL = 1e-6  # range-sweep purities against the seed values
REEVALUATION_ABS_TOL = 1e-9  # design-dc reported against re-evaluated purity
# design-dc: at the seed commit the lowest purity over 56 seeds (1-40,
# 101-110, the held-out 7919 and six others up to 2^32 - 1) was 0.973864,
# the purity of the swarm's first particle, the erf profile; the floor is
# that minus a margin of 0.001.
DC_PURITY_FLOOR = 0.9728


class CheckFailed(Exception):
    """An operation's output does not match its reference."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class CliOutput:
    code: int
    out_dir: Path
    log: str


def _cli(argv: list[str], out_dir: Path) -> CliOutput:
    # looked up at call time so a traced run sees the patched entry point
    from purepole import cli

    shutil.rmtree(out_dir, ignore_errors=True)
    log = io.StringIO()
    with redirect_stdout(log), redirect_stderr(log):
        code = cli.run([*argv, "--out-dir", str(out_dir)])
    return CliOutput(code, out_dir, log.getvalue())


def _design_result(out: CliOutput) -> dict:
    path = out.out_dir / "design_result.json"
    _expect(path.is_file(), f"exit {out.code}, no design_result.json: {out.log[-300:]!r}")
    return json.loads(path.read_text())


def warm_up() -> None:
    """Import purepole and run one tiny JSA build and SVD, so that lazy
    imports and first-call set-up are done before anything is timed."""
    from purepole import (
        KTP_KATO_2002, Axis, PhaseMatchConfig, PumpSpec, build_jsa, make_grid,
        periodic_domains, phase_mismatch_and_lc, schmidt_decompose,
    )
    import purepole.cli  # noqa: F401  (the CLI workloads' entry point)

    cfg = PhaseMatchConfig.from_pump_signal(0.710, 1.310, Axis.Z)
    gp = phase_mismatch_and_lc(KTP_KATO_2002, cfg)
    grid = make_grid(gp.theta_deg, 8e12, cfg.omega_s0, cfg.omega_i0, r_mult=2.0, step_divisor=10)
    pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, 3.0)
    jsa = build_jsa(KTP_KATO_2002, cfg, periodic_domains(cfg.length_m, gp.coherence_length_m),
                    pump, grid, mask_invalid=True)
    schmidt_decompose(jsa)


def gram_purity(amplitude: np.ndarray) -> float:
    """Tr(rho_s^2) = ||F^H F||_F^2 / ||F||_F^4, equal to sum c_j^4 of the SVD."""
    gram = amplitude.conj().T @ amplitude
    return float(np.vdot(gram, gram).real) / float(np.vdot(amplitude, amplitude).real) ** 2


def exact_purity(model, case, structure, pump, theta_deg: float) -> float:
    """Purity of `structure` on the standard grid, with the phase-matching
    function summed segment by segment here rather than by purepole's
    kernel, and purity from the Gram matrix rather than the SVD.

    The JSA is not sign-normalised: flipping the sign of dk conjugates it,
    which leaves the purity unchanged.
    """
    from purepole import make_grid, measure_delta_omega, pump_envelope
    from purepole.spectrum import delta_k_grid

    dw = measure_delta_omega(model, case, structure, pump, theta_deg)
    grid = make_grid(theta_deg, dw, case.omega_s0, case.omega_i0)
    dk, valid = delta_k_grid(model, case, grid, mask_invalid=True)
    phi = np.zeros(dk.shape, dtype=complex)
    for z0, z1, sign in zip(*structure.segments()):
        width = z1 - z0
        phi += sign * width * np.sinc(0.5 * width * dk / np.pi) * np.exp(0.5j * (z0 + z1) * dk)
    f = pump_envelope(grid.omega_s[:, None], grid.omega_i[None, :], pump) * phi
    return gram_purity(np.where(valid, f, 0.0))


class DesignLadder:
    """c-band-x CL/SCL design in a 3 mm crystal with the default beta ladder:
    climbs beta 1 -> 2 -> 3, four bandwidth searches with the PP baseline."""

    name = "design-ladder"
    argv = ["design", "--preset", "c-band-x", "--scheme", "cl-scl", "--length-mm", "3"]

    def __init__(self, seed: int):
        pass

    def run(self, out_dir: Path) -> CliOutput:
        return _cli(self.argv, out_dir)

    def check(self, out: CliOutput) -> float:
        data = _design_result(out)
        _expect(out.code == EXIT_OK, f"exit code {out.code}")
        _expect(data["beta"] == 3.0, f"beta {data['beta']} != 3")
        _expect(abs(data["alpha"] - 4.6) < 1e-9, f"alpha {data['alpha']} != 4.6")
        _expect(data["purity"] >= PURITY_THRESHOLD, f"purity {data['purity']} < {PURITY_THRESHOLD}")
        return float(data["purity"])


class DesignDc:
    """o-band-i duty-cycle design in a 1.5 mm crystal (39 periods, 78
    segments), 5 particles x 3 iterations at a fixed 10 nm pump; the seed
    drives the swarm.  Exit 3 (below threshold) is the expected outcome at
    this budget."""

    name = "design-dc"
    length_mm = 1.5
    pump_bw_nm = 10.0

    def __init__(self, seed: int):
        self.argv = ["design", "--preset", "o-band-i", "--scheme", "dc",
                     "--length-mm", str(self.length_mm), "--pump-bw-nm", str(self.pump_bw_nm),
                     "--pso-particles", "5", "--pso-iterations", "3", "--seed", str(seed)]

    def run(self, out_dir: Path) -> CliOutput:
        return _cli(self.argv, out_dir)

    def check(self, out: CliOutput) -> float:
        from purepole import KTP_KATO_2002, Axis, DutyCycleStructure, PhaseMatchConfig, PumpSpec

        data = _design_result(out)
        reported = float(data["purity"])
        below = reported < PURITY_THRESHOLD
        _expect(out.code == (EXIT_BELOW_THRESHOLD if below else EXIT_OK),
                f"exit code {out.code} for purity {reported}")
        _expect(data["below_threshold"] == below, "below_threshold flag disagrees with purity")
        structure = DutyCycleStructure(period_m=data["structure"]["period_m"],
                                       fractions=np.array(data["structure"]["fractions"]))
        case = PhaseMatchConfig.from_pump_signal(0.710, 1.310, Axis.Z,
                                                 length_m=self.length_mm * 1e-3)
        _expect(abs(structure.period_m - 2e-6 * data["l_c_um"]) < 1e-15, "period is not 2 l_c")
        _expect(structure.n_periods == int(math.floor(case.length_m / structure.period_m + 1e-12)),
                f"{structure.n_periods} periods do not fill the crystal")
        _expect(bool(np.all((structure.fractions >= 0.02) & (structure.fractions <= 0.98))),
                "duty cycle outside the PSO bounds [0.02, 0.98]")
        pump = PumpSpec.from_bandwidth_nm(case.lambda_p_um, self.pump_bw_nm)
        exact = exact_purity(KTP_KATO_2002, case, structure, pump, data["theta_deg"])
        _expect(abs(exact - reported) <= REEVALUATION_ABS_TOL,
                f"reported purity {reported!r} != re-evaluated {exact!r}")
        _expect(reported >= DC_PURITY_FLOOR, f"purity {reported} < floor {DC_PURITY_FLOOR}")
        return reported


# (label, preset pump/signal um, alpha, beta or None for PP, pump bw nm, R values,
#  purities at the seed commit)
RANGE_ROWS = (
    ("i-pp", 0.710, 1.310, None, None, 1.71, (10.0, 50.0),
     (0.8384949807262612, 0.8147195799562316)),
    ("i-cl", 0.710, 1.310, 5.1, 1.0, 3.07, (10.0, 50.0),
     (0.9986616477539099, 0.785976256343579)),
)


class RangeSweep:
    """purity_vs_range on the published case-i PP and CL rows at fixed pump
    bandwidths, at R = 10 and 50 dw (grids of 200 x 200 and 1000 x 1000)."""

    name = "range-sweep"

    def __init__(self, seed: int):
        from purepole import (
            KTP_KATO_2002, Axis, PhaseMatchConfig, PumpSpec, TargetProfile, greedy_track,
            periodic_domains, phase_mismatch_and_lc,
        )

        self.model = KTP_KATO_2002
        self.rows = []
        for label, pump_um, signal_um, alpha, beta, bw_nm, r_values, _ in RANGE_ROWS:
            case = PhaseMatchConfig.from_pump_signal(pump_um, signal_um, Axis.Z)
            gp = phase_mismatch_and_lc(self.model, case)
            lc = gp.coherence_length_m
            if beta is None:
                structure = periodic_domains(case.length_m, lc)
            else:
                profile = TargetProfile.from_alpha(alpha, case.length_m, math.pi / lc)
                structure = greedy_track(profile, beta, lc, case.length_m)
            pump = PumpSpec.from_bandwidth_nm(case.lambda_p_um, bw_nm)
            self.rows.append((label, case, structure, pump, list(r_values), gp.theta_deg))

    def run(self, out_dir: Path) -> list:
        from purepole import analysis

        return [
            analysis.purity_vs_range(self.model, case, structure, pump, r_values, theta, tag=label)
            for label, case, structure, pump, r_values, theta in self.rows
        ]

    def check(self, curves: list) -> None:
        for curve, row in zip(curves, RANGE_ROWS):
            label, expected = row[0], row[-1]
            for r, got, want in zip(curve.r_values, curve.purities, expected):
                _expect(abs(got - want) <= PURITY_ABS_TOL,
                        f"{label} R={r:g}: purity {got!r}, seed value {want!r}")
        pp, cl = curves[0].purities, curves[1].purities
        _expect(cl[0] > pp[0], "CL does not beat PP at R = 10")
        _expect(cl[1] < pp[1], "CL beats PP at R = 50")


# cell (pump nm, signal nm) -> (theta deg or None, l_c um): the published
# table rows of the presets that lie on the scan grid, checked at the
# tolerances of acceptance criteria 01 (l_c within 5 %) and 02 (theta within
# 2 deg, cases i-viii only)
GVM_CELLS = {
    ("710.0000", "1310.0000"): (26.0, 18.86),   # o-band-i
    ("655.0000", "1310.0000"): (10.0, 27.33),   # o-band-iii
    ("779.5000", "1310.0000"): (45.0, 14.99),   # o-band-iv
    ("775.0000", "1550.0000"): (None, 22.52),   # c-band-x
}


class GvmMap:
    """Pump 550-1000 nm by 0.5 nm, signal 1270-1590 nm by 20 nm (15.3k cells)."""

    name = "gvm-map"
    argv = ["gvm-map", "--pump-range-nm", "550:1000:0.5",
            "--signal-range-nm", "1270:1590:20", "--signal-axis", "Z"]

    def __init__(self, seed: int):
        pass

    def run(self, out_dir: Path) -> CliOutput:
        return _cli(self.argv, out_dir)

    def check(self, out: CliOutput) -> None:
        _expect(out.code == EXIT_OK, f"exit code {out.code}: {out.log[-300:]!r}")
        found = {}
        with open(out.out_dir / "gvm_theta_map.csv") as fh:
            for line in fh:
                key = tuple(line.split(",", 2)[:2])
                if key in GVM_CELLS:
                    found[key] = line.rstrip("\n").split(",")
        _expect(len(found) == len(GVM_CELLS), f"preset cells missing from the map: {sorted(found)}")
        for key, (theta_ref, lc_ref) in GVM_CELLS.items():
            theta, lc = float(found[key][3]), float(found[key][4])
            if theta_ref is not None:
                _expect(abs(theta - theta_ref) <= 2.0, f"{key}: theta {theta} vs {theta_ref}")
            _expect(abs(lc - lc_ref) <= 0.05 * lc_ref, f"{key}: l_c {lc} vs {lc_ref}")


WORKLOADS = {w.name: w for w in (DesignLadder, DesignDc, RangeSweep, GvmMap)}
