"""Schmidt purity, heralding efficiency, pump-bandwidth and duty-cycle optimization.

Heralded single-photon spectral purity is P = sum_j c_j^4 where the c_j are
the normalized singular values of the JSA matrix F (sum c_j^2 = 1).  Purity
is invariant under global scaling/phase and under transposition of the matrix.

P also equals Tr(rho_s^2) = ||F^H F||_F^2 / ||F||_F^4 (Law, Walmsley & Eberly,
PRL 84, 5304 (2000)), which needs no singular values: `jsa_purity`, used
wherever only the purity is needed, computes it from a blocked Gram matrix of
a unit-norm copy of F whose parts below sqrt(tiny) ~ 1.5e-154 are flushed to
zero, so that no product is subnormal (the flush drops at most 2 N^2 tiny ~
1e-302 of the weight).  It agrees with the SVD purity of `schmidt_decompose`,
which still gives the Schmidt coefficients themselves, to 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dispersion import DispersionModel
from .gvm import PhaseMatchConfig, phase_mismatch_and_lc
from .poling import (
    DesignResult,
    DomainArray,
    DutyCycleStructure,
    dc_domains,
    erf_duty_profile,
)
from .spectrum import (
    JointSpectrum,
    PumpSpec,
    _JsaEvaluator,
    _ridge_slopes,
    build_jsa,  # noqa: F401  (perfbench/test_trace.py checks that analysis binds it)
    make_grid,
    measure_delta_omega,
    standard_jsa,
)

__all__ = [
    "ZeroSpectrum",
    "WindowExceedsGrid",
    "NoInteriorMaximum",
    "SchmidtSpectrum",
    "RangeSweepCurve",
    "PsoSettings",
    "MIN_RANGE_DW",
    "schmidt_decompose",
    "purity",
    "jsa_purity",
    "heralding_efficiency",
    "heralding_efficiency_extended",
    "optimize_pump_bandwidth",
    "purity_vs_range",
    "pso_optimize_dc",
    "write_schmidt_csv",
    "write_curve_csv",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Pump-bandwidth search: a log-spaced lattice of _N_COARSE points over the
# bounds, scored outward from a seed until the best point has _SCAN_MARGIN
# scored neighbours on each side, then golden-section refinement down to this
# width in log bandwidth.
_N_COARSE, _SCAN_MARGIN, _LOG_BW_TOL = 21, 2, 1e-3
# Gaussian fit of the sinc phase-matching function, sinc(x) ~ exp(-gamma x^2)
# (Branczyk et al., Opt. Express 19, 55 (2011)).
_SINC_GAMMA = 0.193
# Constriction-style particle-swarm coefficients and duty-cycle bounds.
_PSO_INERTIA, _PSO_COGNITIVE, _PSO_SOCIAL = 0.729, 1.49, 1.49
_DUTY_MIN, _DUTY_MAX = 0.02, 0.98
# Gram purity: real and imaginary parts of the unit-norm amplitude below the
# floor are zeroed, so that no product inside the Gram is subnormal; the Gram
# is built in column blocks of this width.
_FLUSH_FLOOR = math.sqrt(np.finfo(float).tiny)
_GRAM_BLOCK = 128
_FLUSH_BLOCK = 1 << 16  # parts per block of the flush to zero
# Smallest spectral range R, in units of dw, that a purity grid may span.
MIN_RANGE_DW = 2.0


class ZeroSpectrum(ValueError):
    """The JSA matrix is identically zero."""


class WindowExceedsGrid(ValueError):
    """A collection window is not contained in the evaluation grid."""


class NoInteriorMaximum(RuntimeError):
    """The bandwidth search's best lattice point is a search bound."""


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Schmidt coefficients c_j: descending, nonnegative, sum c_j^2 = 1."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", c)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-D array")
        if np.any(c < 0) or np.any(np.diff(c) > 0):
            raise ValueError("coefficients must be nonnegative and descending")
        if abs(float(np.sum(c**2)) - 1.0) > 1e-9:
            raise ValueError("coefficients must satisfy sum c_j^2 = 1")


def schmidt_decompose(jsa: JointSpectrum | np.ndarray) -> SchmidtSpectrum:
    """Normalized singular values of the JSA amplitude matrix."""
    amp = jsa.amplitude if isinstance(jsa, JointSpectrum) else np.asarray(jsa)
    if not np.all(np.isfinite(amp)):
        raise ValueError("JSA contains non-finite entries")
    svals = np.linalg.svd(amp, compute_uv=False)
    total = float(np.sum(svals**2))
    if total == 0.0:
        raise ZeroSpectrum("all singular values vanish")
    return SchmidtSpectrum(coefficients=svals / math.sqrt(total))


def purity(spectrum: SchmidtSpectrum | np.ndarray) -> float:
    """P = sum_j c_j^4; equals 1 iff the spectrum is rank one."""
    c = spectrum.coefficients if isinstance(spectrum, SchmidtSpectrum) else np.asarray(spectrum)
    return float(np.sum(c**4))


def _unit_working_copy(amp: np.ndarray) -> np.ndarray:
    """A copy of `amp` scaled to unit Frobenius norm by way of its largest
    part, with every real or imaginary part below `_FLUSH_FLOOR` set to zero.

    Raises ValueError for non-finite entries and ZeroSpectrum for an
    all-zero amplitude.
    """
    work = np.array(amp, dtype=np.result_type(amp.dtype, float))
    parts = work.view(float).reshape(-1)  # real and imaginary parts, in place
    high, low = float(parts.max()), float(parts.min())
    if not (math.isfinite(high) and math.isfinite(low)):
        raise ValueError("JSA contains non-finite entries")
    peak = max(high, -low)
    if peak == 0.0:
        raise ZeroSpectrum("the JSA amplitude vanishes")
    parts /= peak
    parts /= math.sqrt(float(np.dot(parts, parts)))
    for start in range(0, parts.size, _FLUSH_BLOCK):
        chunk = parts[start : start + _FLUSH_BLOCK]
        chunk[np.abs(chunk) < _FLUSH_FLOOR] = 0.0
    return work


def jsa_purity(jsa: JointSpectrum | np.ndarray) -> float:
    """Schmidt purity Tr(rho_s^2) = sum_j c_j^4 of a joint spectrum, from the
    Gram matrix: P = ||F^H F||_F^2 / ||F||_F^4, with no singular values.

    A working copy of the amplitude F is scaled to unit Frobenius norm (by
    way of its largest part, so that no scale overflows or underflows), and
    every real or imaginary part below `_FLUSH_FLOOR` = sqrt(tiny) is set to
    zero, so that each product inside the Gram is a normal float; this drops
    at most 2 N^2 tiny (about 1e-302) of the weight.  The Gram is built in
    column blocks of `_GRAM_BLOCK`, only its upper block triangle, and each
    block's squared norm is accumulated, off-diagonal blocks twice.  Agrees
    with `purity(schmidt_decompose(jsa))` to 1e-12.

    Raises ValueError for non-finite entries and ZeroSpectrum for an
    all-zero amplitude.
    """
    amp = jsa.amplitude if isinstance(jsa, JointSpectrum) else np.asarray(jsa)
    if amp.ndim != 2:
        raise ValueError("JSA amplitude must be a 2-D array")
    work = _unit_working_copy(amp)
    parts = work.view(float).reshape(-1)
    gram_sq = 0.0
    for c0 in range(0, work.shape[1], _GRAM_BLOCK):
        c1 = min(c0 + _GRAM_BLOCK, work.shape[1])
        block = (work[:, :c1].T @ work[:, c0:c1].conj()).reshape(-1)
        split = c0 * (c1 - c0)  # rows above c0 are off the diagonal block
        gram_sq += 2.0 * float(np.vdot(block[:split], block[:split]).real)
        gram_sq += float(np.vdot(block[split:], block[split:]).real)
    return gram_sq / float(np.dot(parts, parts)) ** 2


def heralding_efficiency(
    jsa: JointSpectrum,
    signal_window: tuple[float, float],
    idler_window: tuple[float, float],
) -> float:
    """Probability the signal lies in its window given the idler is in its own.

    eta = sum |f|^2 over (signal in W_s and idler in W_i)
          / sum |f|^2 over (idler in W_i),
    with the signal marginal taken over the whole (extended) grid.
    """
    ws = jsa.grid.omega_s
    wi = jsa.grid.omega_i
    for (lo, hi), axis in ((signal_window, ws), (idler_window, wi)):
        if lo >= hi:
            raise ValueError("window bounds must be ordered")
        if lo < axis[0] or hi > axis[-1]:
            raise WindowExceedsGrid(
                f"window [{lo:.6e}, {hi:.6e}] not contained in grid "
                f"[{axis[0]:.6e}, {axis[-1]:.6e}]"
            )
    power = np.abs(jsa.amplitude) ** 2
    in_s = (ws >= signal_window[0]) & (ws <= signal_window[1])
    in_i = (wi >= idler_window[0]) & (wi <= idler_window[1])
    denominator = float(power[:, in_i].sum())
    if denominator == 0.0:
        raise ZeroSpectrum("no weight in the idler window")
    numerator = float(power[np.ix_(in_s, in_i)].sum())
    return numerator / denominator


def heralding_efficiency_extended(
    model: DispersionModel,
    cfg: PhaseMatchConfig,
    structure: DomainArray | DutyCycleStructure,
    pump: PumpSpec,
    theta_deg: float,
    delta_omega: float,
    r_window: float = 10.0,
    extension: float = 7.0,
) -> float:
    """Heralding efficiency for symmetric +-(r_window/2) dw windows, with the
    signal marginal integrated on an `extension`-times-wider grid."""
    jsa = standard_jsa(model, cfg, structure, pump, theta_deg, delta_omega, extension * r_window)
    half = 0.5 * r_window * delta_omega
    return heralding_efficiency(
        jsa,
        (cfg.omega_s0 - half, cfg.omega_s0 + half),
        (cfg.omega_i0 - half, cfg.omega_i0 + half),
    )


def _seed_index(model: DispersionModel, cfg: PhaseMatchConfig, logs: np.ndarray) -> int:
    """Index of the lattice point nearest in log bandwidth to the Gaussian-PMF
    optimum: the pump width that makes the Gaussian-PMF JSA separable,
    1/sigma_p^2 = (gamma L^2/4) |(k'_p - k'_s)(k'_p - k'_i)| for the envelope
    exp(-(Omega/sigma_p)^2).  A zero slope product (no finite optimum) gives
    the upper end, an infinite or NaN one the lower end."""
    slope_s, slope_i = _ridge_slopes(model, cfg)
    inv_var = 0.25 * _SINC_GAMMA * cfg.length_m**2 * abs(slope_s * slope_i)
    if inv_var == 0.0:
        return logs.size - 1
    if not math.isfinite(inv_var):
        return 0
    bw_nm = PumpSpec(omega_p0=cfg.omega_p0, sigma_p=1.0 / math.sqrt(inv_var)).bandwidth_nm
    return int(np.argmin(np.abs(logs - math.log(bw_nm))))


def optimize_pump_bandwidth(
    model: DispersionModel,
    cfg: PhaseMatchConfig,
    structure: DomainArray | DutyCycleStructure,
    theta_deg: float,
    bounds_nm: tuple[float, float] = (0.05, 50.0),
) -> tuple[float, float]:
    """Maximize purity over the pump bandwidth; returns (bandwidth_nm, purity).

    The search runs on a lattice of `_N_COARSE` log-spaced bandwidths over
    `bounds_nm`, which must be finite with 0 < lo < hi (ValueError naming
    `bounds_nm` otherwise).  It does not score the whole lattice: it starts
    from the point nearest the Gaussian-PMF optimum (`_seed_index`), scores
    the window of `_SCAN_MARGIN` points on each side of it, and widens the
    window by one point on each side whose edge lies fewer than
    `_SCAN_MARGIN` points from the best point so far, until the best point
    has `_SCAN_MARGIN` scored neighbours on each side or the window reaches
    a bound.  Ties go to the lowest index.  A best point at either end of
    the lattice raises NoInteriorMaximum.  Golden-section refinement in log
    bandwidth between the best point's two neighbours, down to a width of
    1e-3, follows; the spectral grid is rebuilt (dw re-measured) for every
    candidate.

    Contract: the walk finds the best point of a window, which is the whole
    lattice's maximum whenever purity has no higher maximum beyond a dip
    outside that window; wherever the two agree, (bandwidth, purity) equals
    that of a scan of all `_N_COARSE` points bit for bit.
    """
    lo, hi = bounds_nm
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
        raise ValueError(f"bounds_nm: must be finite with 0 < lo < hi, got {bounds_nm!r}")

    def purity_at(log_bw: float) -> float:
        pump = PumpSpec.from_bandwidth_nm(cfg.lambda_p_um, math.exp(log_bw))
        return jsa_purity(standard_jsa(model, cfg, structure, pump, theta_deg))

    logs = np.log(np.geomspace(lo, hi, _N_COARSE))
    seed = _seed_index(model, cfg, logs)
    first = max(seed - _SCAN_MARGIN, 0)
    values = [purity_at(x) for x in logs[first:min(seed + _SCAN_MARGIN, _N_COARSE - 1) + 1]]
    while True:
        best = first + int(np.argmax(values))
        last = first + len(values) - 1
        grow_down = first > 0 and best - first < _SCAN_MARGIN
        grow_up = last < _N_COARSE - 1 and last - best < _SCAN_MARGIN
        if not (grow_down or grow_up):
            break
        if grow_down:
            first -= 1
            values.insert(0, purity_at(logs[first]))
        if grow_up:
            values.append(purity_at(logs[last + 1]))
    if best in (0, _N_COARSE - 1):
        raise NoInteriorMaximum(
            f"purity maximal at search bound {math.exp(logs[best]):.3g} nm"
        )

    a, b = logs[best - 1], logs[best + 1]
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = purity_at(x1), purity_at(x2)
    while (b - a) > _LOG_BW_TOL:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = purity_at(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = purity_at(x1)
    x_best = 0.5 * (a + b)
    return math.exp(x_best), purity_at(x_best)


@dataclass
class RangeSweepCurve:
    """Purity versus spectral range R (in dw units) for one poling scheme."""

    r_values: np.ndarray
    purities: np.ndarray
    scheme: str
    masked_fractions: np.ndarray = field(default=None)  # type: ignore[assignment]
    delta_omega: float = 0.0

    def __post_init__(self):
        r = np.asarray(self.r_values, dtype=float)
        p = np.asarray(self.purities, dtype=float)
        if np.any(np.diff(r) <= 0):
            raise ValueError("R values must be ascending")
        if np.any((p <= 0) | (p > 1 + 1e-12)):
            raise ValueError("purities must lie in (0, 1]")
        self.r_values = r
        self.purities = p
        if self.masked_fractions is None:
            self.masked_fractions = np.zeros_like(r)


def purity_vs_range(
    model: DispersionModel,
    cfg: PhaseMatchConfig,
    structure: DomainArray | DutyCycleStructure,
    pump: PumpSpec,
    r_values: list[float] | np.ndarray,
    theta_deg: float,
    delta_omega: float | None = None,
    tag: str = "piecewise",
) -> RangeSweepCurve:
    """Purity for each spectral range R (in dw units) at the fixed D rule.

    dw is measured once at the R = 10 baseline and frozen for the whole sweep
    so the R axis keeps a single unit; grid points that leave the transparency
    window are masked to zero and the masked fraction reported per point.
    `tag` labels the curve (poling scheme name) in exports.
    """
    r_values = np.asarray(r_values, dtype=float)
    if np.any(r_values < MIN_RANGE_DW):
        raise ValueError(f"spectral range must be at least {MIN_RANGE_DW:g} dw")
    if delta_omega is None:
        delta_omega = measure_delta_omega(model, cfg, structure, pump, theta_deg)
    purities = np.empty(r_values.size)
    masked = np.empty(r_values.size)
    for n, r in enumerate(r_values):
        jsa = standard_jsa(model, cfg, structure, pump, theta_deg, delta_omega, float(r))
        purities[n] = jsa_purity(jsa)
        masked[n] = jsa.masked_fraction
    return RangeSweepCurve(
        r_values=r_values,
        purities=purities,
        scheme=tag,
        masked_fractions=masked,
        delta_omega=delta_omega,
    )


@dataclass(frozen=True)
class PsoSettings:
    """Particle-swarm budget, start spread, coarse grid size and stop target.

    `coarse_points` is the side of the coarse R = 10 dw scoring grid, so it
    must be a positive multiple of 10; `n_particles` must be at least 1 and
    `n_iterations` at least 0.  Each violation raises ValueError naming the
    field.
    """

    n_particles: int = 40
    n_iterations: int = 200
    init_spread: float = 0.05
    coarse_points: int = 100
    target_purity: float | None = None

    def __post_init__(self):
        if not (self.coarse_points >= 10 and self.coarse_points % 10 == 0):
            raise ValueError(
                f"coarse_points must be a positive multiple of 10, got {self.coarse_points!r}")
        if not self.n_particles >= 1:
            raise ValueError(f"n_particles must be at least 1, got {self.n_particles!r}")
        if not self.n_iterations >= 0:
            raise ValueError(f"n_iterations must be at least 0, got {self.n_iterations!r}")


def _swarm_purities(evaluator: _JsaEvaluator, period_m: float, fractions: np.ndarray) -> np.ndarray:
    """Gram purity of each duty-cycle profile (rows of `fractions`) on the
    evaluator's grid, all profiles assembled in one batch."""
    return np.array([jsa_purity(f) for f in evaluator.duty_cycle_amplitudes(period_m, fractions)])


def pso_optimize_dc(
    model: DispersionModel,
    cfg: PhaseMatchConfig,
    pump: PumpSpec,
    settings: PsoSettings = PsoSettings(),
    seed: int = 0,
    initial_profile: np.ndarray | None = None,
) -> tuple[np.ndarray, DesignResult]:
    """Particle-swarm optimization of the per-period duty-cycle profile.

    The profile holds one duty cycle per period, floor(L / 2 l_c) of them.
    The swarm is initialized around the error-function profile (first
    particle exactly on it; `initial_profile` overrides it) and moves with
    reflecting bounds.  Particles are scored on a coarse
    `coarse_points`-squared R = 10 dw grid: one `_JsaEvaluator` is built on
    it, and the initial swarm and each iteration are scored as one batch
    (`_JsaEvaluator.duty_cycle_amplitudes`, then the Gram purity of each
    particle), within 1e-12 of `jsa_purity(build_jsa(...))` per particle.
    The best profile is re-scored on the standard grid.  Fully deterministic
    for a fixed seed.
    """
    gp = phase_mismatch_and_lc(model, cfg)
    lc = gp.coherence_length_m
    n_periods = int(math.floor(cfg.length_m / (2.0 * lc) + 1e-12))

    if initial_profile is None:
        init = erf_duty_profile(cfg.length_m, lc, alpha=5.0)
    else:
        init = np.asarray(initial_profile, dtype=float)
        if init.size != n_periods:
            raise ValueError(f"initial profile must have floor(L / 2 l_c) = {n_periods} entries")
    lo, hi = _DUTY_MIN, _DUTY_MAX
    init = np.clip(init, lo, hi)

    dw = measure_delta_omega(
        model, cfg, dc_domains(cfg.length_m, lc, init), pump, gp.theta_deg
    )
    coarse_grid = make_grid(
        gp.theta_deg,
        dw,
        cfg.omega_s0,
        cfg.omega_i0,
        r_mult=10.0,
        step_divisor=settings.coarse_points // 10,
    )

    evaluator = _JsaEvaluator(model, cfg, coarse_grid, pump)
    period = 2.0 * lc

    rng = np.random.default_rng(seed)
    x = np.clip(
        init[None, :]
        + settings.init_spread * rng.uniform(-1.0, 1.0, (settings.n_particles, n_periods)),
        lo,
        hi,
    )
    x[0] = init
    v = np.zeros_like(x)
    best_x = x.copy()
    best_f = _swarm_purities(evaluator, period, x)
    g_idx = int(np.argmax(best_f))
    g_x = best_x[g_idx].copy()
    g_f = float(best_f[g_idx])

    exhausted = True
    for _ in range(settings.n_iterations):
        r1 = rng.uniform(size=x.shape)
        r2 = rng.uniform(size=x.shape)
        v = (
            _PSO_INERTIA * v
            + _PSO_COGNITIVE * r1 * (best_x - x)
            + _PSO_SOCIAL * r2 * (g_x[None, :] - x)
        )
        x = x + v
        # reflecting bounds
        over = x > hi
        under = x < lo
        x[over] = 2 * hi - x[over]
        x[under] = 2 * lo - x[under]
        v[over | under] *= -1.0
        x = np.clip(x, lo, hi)
        f = _swarm_purities(evaluator, period, x)
        improved = f > best_f
        best_x[improved] = x[improved]
        best_f[improved] = f[improved]
        if float(best_f.max()) > g_f:
            g_idx = int(np.argmax(best_f))
            g_x = best_x[g_idx].copy()
            g_f = float(best_f[g_idx])
        if settings.target_purity is not None and g_f >= settings.target_purity:
            exhausted = False
            break

    structure = dc_domains(cfg.length_m, lc, g_x)
    final_purity = jsa_purity(standard_jsa(model, cfg, structure, pump, gp.theta_deg))
    result = DesignResult(
        domains=structure,
        scheme="dc",
        config=cfg,
        alpha=None,
        beta=None,
        pump_bandwidth_nm=pump.bandwidth_nm,
        purity=final_purity,
        theta_deg=gp.theta_deg,
        coherence_length_m=lc,
        below_threshold=exhausted and settings.target_purity is not None,
    )
    return g_x, result


def write_schmidt_csv(path: str | Path, spectrum: SchmidtSpectrum, header_lines: list[str] | None = None) -> None:
    lines = [f"# {h}" for h in (header_lines or [])]
    lines.append("j,c_j")
    for j, cj in enumerate(spectrum.coefficients, start=1):
        lines.append(f"{j},{cj:.12e}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_curve_csv(path: str | Path, curve: RangeSweepCurve, header_lines: list[str] | None = None) -> None:
    lines = [f"# {h}" for h in (header_lines or [])]
    lines.append(f"# delta_omega_rad_s: {curve.delta_omega!r}")
    lines.append("R_over_dw,purity,scheme,masked_fraction")
    for r, p, m in zip(curve.r_values, curve.purities, curve.masked_fractions):
        lines.append(f"{r:g},{p:.10f},{curve.scheme},{m:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")
