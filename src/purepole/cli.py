"""Batch command-line front end.

Three subcommands:

    gvm-map      scan pump/signal wavelengths, export GVM angle and coherence
                 length maps as plot-ready CSV
    design       design one source (schemes: pp, cl-scl, mqpm, dc), export
                 the poling structure, JSA, Schmidt spectrum and a summary row
    sweep-range  purity versus spectral range for one or more schemes

Every machine-readable output embeds the run-configuration digest and the
Sellmeier set name, and a fixed seed makes reruns byte-identical.  Exit
codes: 0 success, 2 configuration error, 3 design finished below the purity
threshold (best effort still written).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .analysis import (
    MIN_RANGE_DW,
    PsoSettings,
    jsa_purity,
    pso_optimize_dc,
    optimize_pump_bandwidth,
    purity_vs_range,
    schmidt_decompose,
    write_curve_csv,
    write_schmidt_csv,
)
from .design import DesignOptions, design_cl_scl
from .dispersion import Axis, DispersionModel, KTP_KATO_2002
from .gvm import (
    EmptyRange,
    GvmPoint,
    PhaseMatchConfig,
    gvm_map,
    phase_mismatch_and_lc,
    write_gvm_map_csv,
)
from .poling import (
    MIN_DOMAIN_WIDTH_M,
    DesignResult,
    DomainArray,
    DutyCycleStructure,
    InvalidOrderList,
    TargetProfile,
    check_mqpm_orders,
    mqpm_domains,
    periodic_domains,
    write_poling_file,
)
from .spectrum import (
    PumpSpec,
    build_jsa,
    make_grid,
    measure_delta_omega,
    standard_jsa,
    write_jsa_binary,
    write_jsa_csv,
)

__all__ = ["RunConfig", "PRESETS", "main", "run"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BELOW_THRESHOLD = 3

# (pump nm, heralded signal nm, signal axis); the idler follows from energy
# conservation and sits on the other axis.
PRESETS: dict[str, tuple[float, float, str]] = {
    "o-band-i": (710.0, 1310.0, "Z"),
    "o-band-ii": (626.3, 1310.0, "Z"),
    "o-band-iii": (655.0, 1310.0, "Z"),
    "o-band-iv": (779.5, 1310.0, "Z"),
    "o-band-v": (887.3, 1310.0, "Z"),
    "o-band-vi": (710.0, 1310.0, "Y"),
    "o-band-vii": (603.8, 1310.0, "Y"),
    "o-band-viii": (787.8, 1310.0, "Y"),
    "c-band-ix": (643.4, 1550.0, "Z"),
    "c-band-x": (775.0, 1550.0, "Z"),
    "c-band-xi": (797.7, 1550.0, "Z"),
    "c-band-xii": (971.1, 1550.0, "Z"),
    "c-band-xiii": (569.4, 1550.0, "Y"),
    "c-band-xiv": (799.2, 1550.0, "Y"),
}

MQPM_DEFAULT_ORDERS = (1, 3, 5, 7, 9, 11)


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


# bounds on config numbers: (what the message says, test of one number)
_POSITIVE = ("positive", lambda v: v > 0)
_NONNEGATIVE = ("nonnegative", lambda v: v >= 0)
_RANGE = (f"at least {MIN_RANGE_DW:g}", lambda v: v >= MIN_RANGE_DW)
_STEP = ("LO:HI:STEP with a positive STEP", lambda r: r[2] > 0)
_AXES = [axis.value for axis in Axis]

# type and bound of each config key that is not a free string.  A type is
# float, int, str or a tuple shape (entry type, length or ...); text from
# flags and key = value lines is parsed into it.  A list's bound holds for
# every entry, a fixed-length tuple's for the whole tuple.
_TYPES: dict[str, tuple] = {
    "pump_nm": (float, None),
    "signal_nm": (float, None),
    "signal_axis": (str, (" or ".join(_AXES), lambda v: v in _AXES)),
    "length_mm": (float, _POSITIVE),
    "r_mult": (float, _RANGE),
    "seed": (int, _NONNEGATIVE),
    "pump_range_nm": ((float, 3), _STEP),
    "signal_range_nm": ((float, 3), _STEP),
    "schemes": ((str, ...), ("a design scheme", lambda s: s in _READS["design"])),
    "r_list": ((float, ...), _RANGE),
    "mqpm_orders": ((int, ...), None),
    "alpha": (float, _POSITIVE),
    "beta_ladder": ((float, ...), _POSITIVE),
    "purity_threshold": (float, ("in (0, 1]", lambda v: 0 < v <= 1)),
    "pso_particles": (int, _POSITIVE),
    "pso_iterations": (int, _NONNEGATIVE),
    "pump_bandwidth_nm": (float, _POSITIVE),
}

# the keys each command reads, and for design each scheme; any other key
# away from its field default is an error.  Only dc draws from seed, but
# every design scheme and sweep-range accept it, so configs that carry it
# keep replaying.
_CASE = frozenset({"command", "out_dir", "sellmeier", "seed", "preset", "pump_nm",
                   "signal_nm", "signal_axis", "length_mm"})
_DESIGN = _CASE | {"scheme", "r_mult"}
_PRESET_SETS = frozenset({"pump_nm", "signal_nm", "signal_axis"})
_READS: dict[str, frozenset[str] | dict[str, frozenset[str]]] = {
    "gvm-map": frozenset({"command", "out_dir", "sellmeier", "signal_axis",
                          "pump_range_nm", "signal_range_nm"}),
    "design": {
        "pp": _DESIGN | {"pump_bandwidth_nm"},
        "cl-scl": _DESIGN | {"purity_threshold", "beta_ladder"},
        "mqpm": _DESIGN | {"pump_bandwidth_nm", "alpha", "mqpm_orders"},
        "dc": _DESIGN | {"pump_bandwidth_nm", "purity_threshold", "pso_particles",
                         "pso_iterations"},
    },
    "sweep-range": _CASE | {"schemes", "r_list", "design_dir", "pump_bandwidth_nm"},
}


def _describe(kind) -> str:
    if isinstance(kind, tuple):
        entry, length = kind
        return f"a list{'' if length is ... else f' of {length}'}, each {_describe(entry)}"
    return {float: "a finite number", int: "an integer", str: "a string"}[kind]


def _scalar(kind: type, value):
    """value as one number or string of type kind; text is parsed, a bool is no int."""
    if isinstance(value, str) and kind is not str:
        value = kind(value)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise TypeError(value)
    if kind is float:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(value)
    return value


def _typed(key: str, value, default):
    """value of config key in the type _TYPES gives it, within its bound;
    None only where the default is None.  Raise ConfigError naming key."""
    if value is None and default is None:
        return None
    kind, bound = _TYPES.get(key, (str, None))
    each = isinstance(kind, tuple) and kind[1] is ...
    try:
        if isinstance(kind, tuple):
            items = value
            if isinstance(value, str):
                items = [item.strip() for item in value.replace(":", ",").split(",")]
            if not isinstance(items, (list, tuple)) or (not each and len(items) != kind[1]):
                raise TypeError(value)
            typed = tuple(_scalar(kind[0], item) for item in items)
        else:
            typed = _scalar(kind, value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: expected {_describe(kind)}, got {value!r}") from None
    if bound is not None and not all(map(bound[1], typed if each else (typed,))):
        raise ConfigError(
            f"{key}: {'every entry ' if each else ''}must be {bound[0]}, got {value!r}")
    return typed


@dataclass
class RunConfig:
    """Fully serializable description of one CLI run."""

    command: str
    preset: str | None = None
    pump_nm: float | None = None
    signal_nm: float | None = None
    signal_axis: str = "Z"
    length_mm: float = 5.0
    scheme: str = "cl-scl"
    r_mult: float = 10.0
    out_dir: str = "."
    seed: int = 0
    sellmeier: str = "ktp-kato-takaoka-2002"
    # gvm-map ranges, nm: (lo, hi, step)
    pump_range_nm: tuple[float, float, float] | None = None
    signal_range_nm: tuple[float, float, float] | None = None
    # sweep-range inputs
    schemes: tuple[str, ...] = ()
    r_list: tuple[float, ...] = ()
    design_dir: str | None = None
    # scheme-specific knobs
    mqpm_orders: tuple[int, ...] = MQPM_DEFAULT_ORDERS
    alpha: float | None = None
    beta_ladder: tuple[float, ...] | None = None
    purity_threshold: float = 0.995
    pso_particles: int = 40
    pso_iterations: int = 200
    pump_bandwidth_nm: float | None = None

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, _typed(f.name, getattr(self, f.name), f.default))
        try:
            check_mqpm_orders(self.mqpm_orders)
        except InvalidOrderList as exc:
            raise ConfigError(f"mqpm_orders: {exc}, got {self.mqpm_orders}") from exc
        # an input that the run would not read is an error, not a no-op
        if self.command not in _READS:
            raise ConfigError(f"command: unknown command {self.command!r}")
        reads, label = _READS[self.command], self.command
        if isinstance(reads, dict):
            if self.scheme not in reads:
                raise ConfigError(f"scheme: unknown scheme {self.scheme!r}")
            reads, label = reads[self.scheme], f"{label} --scheme {self.scheme}"
        if self.preset is not None and "preset" in reads:
            # the preset sets the wavelengths and the signal axis
            reads, label = reads - _PRESET_SETS, f"{label} --preset {self.preset}"
        for f in fields(self):
            if f.name not in reads and getattr(self, f.name) != f.default:
                raise ConfigError(f"{f.name}: {label} does not read it")

    def digest(self) -> str:
        """sha256 over the canonical JSON, omitting the execution-only out_dir
        so identical physics gives identical artifacts."""
        payload = asdict(self)
        payload.pop("out_dir")
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        # run_config.json files written before the thread-count option was
        # removed carry a "threads" key; it never changed a result
        data = {key: value for key, value in data.items() if key != "threads"}
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config key: {sorted(unknown)[0]}")
        return cls(**data)


def _sellmeier_name(name: str) -> str:
    """The Sellmeier set a config value names: the built-in one for its aliases."""
    return KTP_KATO_2002.name if name in ("", KTP_KATO_2002.name, "default") else name


def _resolve_model(cfg: RunConfig) -> DispersionModel:
    if _sellmeier_name(cfg.sellmeier) == KTP_KATO_2002.name:
        return KTP_KATO_2002
    path = Path(cfg.sellmeier)
    if not path.exists():
        raise ConfigError(f"sellmeier: no built-in set or file named {cfg.sellmeier!r}")
    return DispersionModel.from_file(path)


def _resolve_phase_match(cfg: RunConfig, model: DispersionModel) -> tuple[PhaseMatchConfig, GvmPoint]:
    """The run's wavelength case and its GVM angle and coherence length l_c.
    Every scheme poles at least two coherence lengths, so a crystal of 2 l_c
    or less is an error naming length_mm."""
    if cfg.preset is not None:
        if cfg.preset not in PRESETS:
            raise ConfigError(f"preset: unknown preset {cfg.preset!r}")
        pump_nm, signal_nm, axis = PRESETS[cfg.preset]
    else:
        if cfg.pump_nm is None or cfg.signal_nm is None:
            raise ConfigError("pump_nm: required when no preset is given")
        pump_nm, signal_nm, axis = cfg.pump_nm, cfg.signal_nm, cfg.signal_axis
    try:
        case = PhaseMatchConfig.from_pump_signal(
            pump_nm * 1e-3,
            signal_nm * 1e-3,
            Axis(axis),
            length_m=cfg.length_mm * 1e-3,
            model=model,
        )
    except ValueError as exc:
        raise ConfigError(f"pump_nm/signal_nm: {exc}") from exc
    gp = phase_mismatch_and_lc(model, case)
    if case.length_m <= 2.0 * gp.coherence_length_m:
        raise ConfigError(
            f"length_mm: the crystal must be longer than 2 l_c = "
            f"{2e3 * gp.coherence_length_m:.6g} mm, got {cfg.length_mm!r}")
    return case, gp


def _header(cfg: RunConfig) -> list[str]:
    return [f"run_config_digest: {cfg.digest()}", f"sellmeier: {cfg.sellmeier}"]


def _structure_to_dict(structure: DomainArray | DutyCycleStructure) -> dict:
    if isinstance(structure, DomainArray):
        return {
            "kind": "uniform",
            "width_m": structure.width_m,
            "signs": "".join("+" if s > 0 else "-" for s in structure.signs),
        }
    return {
        "kind": "duty-cycle",
        "period_m": structure.period_m,
        "fractions": [float(v) for v in structure.fractions],
    }


def _structure_from_dict(data: dict) -> DomainArray | DutyCycleStructure:
    if data["kind"] == "uniform":
        signs = np.array([1 if ch == "+" else -1 for ch in data["signs"]], dtype=np.int8)
        return DomainArray(width_m=data["width_m"], signs=signs)
    return DutyCycleStructure(
        period_m=data["period_m"], fractions=np.array(data["fractions"])
    )


# -- subcommands ---------------------------------------------------------------


def cmd_gvm_map(cfg: RunConfig) -> int:
    model = _resolve_model(cfg)
    if cfg.pump_range_nm is None or cfg.signal_range_nm is None:
        raise ConfigError("pump_range_nm: gvm-map requires pump and signal ranges")
    axis = Axis(cfg.signal_axis)
    try:
        gmap = gvm_map(
            model,
            (cfg.pump_range_nm[0] * 1e-3, cfg.pump_range_nm[1] * 1e-3),
            (cfg.signal_range_nm[0] * 1e-3, cfg.signal_range_nm[1] * 1e-3),
            axis,
            pump_step_um=cfg.pump_range_nm[2] * 1e-3,
            signal_step_um=cfg.signal_range_nm[2] * 1e-3,
        )
    except EmptyRange as exc:
        raise ConfigError(f"pump_range_nm/signal_range_nm: {exc}") from exc

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_gvm_map_csv(out / "gvm_theta_map.csv", gmap, _header(cfg), lc_path=out / "gvm_lc_map.csv")
    (out / "mask_legend.txt").write_text(
        "\n".join(
            [
                *(f"# {h}" for h in _header(cfg)),
                "nan in theta_deg: cell invalid (wavelength outside the transparency",
                "window or signal <= pump) or GVM angle outside the [0, 90] degree map",
                "convention.",
                "nan in l_c_um: cell invalid only.",
            ]
        )
        + "\n"
    )
    (out / "run_config.json").write_text(cfg.to_json() + "\n")
    print(f"gvm-map: wrote {out / 'gvm_theta_map.csv'} and {out / 'gvm_lc_map.csv'}")
    return EXIT_OK


def _design_structure(
    cfg: RunConfig, model: DispersionModel, case: PhaseMatchConfig, gp: GvmPoint
) -> DesignResult:
    """Run the scheme selected in the config and return its DesignResult."""
    lc = gp.coherence_length_m

    if cfg.scheme == "cl-scl":
        # the ladder stops at the first rung whose domains are below the
        # fabrication floor, so such a rung would never run
        for beta in cfg.beta_ladder or ():
            if lc / beta < MIN_DOMAIN_WIDTH_M:
                raise ConfigError(
                    f"beta_ladder: rung {beta:g} gives domains of l_c/{beta:g} = "
                    f"{lc / beta * 1e6:.4g} um, below the {MIN_DOMAIN_WIDTH_M * 1e6:g} um "
                    "fabrication floor")
        options = DesignOptions(
            purity_threshold=cfg.purity_threshold,
            **({"beta_ladder": cfg.beta_ladder} if cfg.beta_ladder else {}),
        )
        return design_cl_scl(model, case, options)

    if cfg.scheme == "dc":
        pp_bw = pp_purity = None
        if cfg.pump_bandwidth_nm is None:
            # seed the duty-cycle optimization with the periodic optimum,
            # which is also the summary row's periodic baseline
            pp_bw, pp_purity = optimize_pump_bandwidth(
                model, case, periodic_domains(case.length_m, lc), gp.theta_deg
            )
        pump = PumpSpec.from_bandwidth_nm(case.lambda_p_um, cfg.pump_bandwidth_nm or pp_bw)
        settings = PsoSettings(
            n_particles=cfg.pso_particles,
            n_iterations=cfg.pso_iterations,
            target_purity=cfg.purity_threshold,
        )
        _, result = pso_optimize_dc(model, case, pump, settings, seed=cfg.seed)
        result.pp_pump_bandwidth_nm, result.pp_purity = pp_bw, pp_purity
        return result

    if cfg.scheme == "pp":
        structure = periodic_domains(case.length_m, lc)
        alpha = beta = None
    else:  # mqpm
        alpha = cfg.alpha if cfg.alpha is not None else 5.0
        profile = TargetProfile.from_alpha(alpha, case.length_m, math.pi / lc)
        structure = mqpm_domains(case.length_m, lc, list(cfg.mqpm_orders), profile)
        beta = None

    if cfg.pump_bandwidth_nm is not None:
        bw_nm = cfg.pump_bandwidth_nm
        pump = PumpSpec.from_bandwidth_nm(case.lambda_p_um, bw_nm)
        pur = jsa_purity(standard_jsa(model, case, structure, pump, gp.theta_deg))
    else:
        bw_nm, pur = optimize_pump_bandwidth(model, case, structure, gp.theta_deg)
    return DesignResult(
        domains=structure,
        scheme=cfg.scheme,
        config=case,
        alpha=alpha,
        beta=beta,
        pump_bandwidth_nm=bw_nm,
        purity=pur,
        theta_deg=gp.theta_deg,
        coherence_length_m=lc,
    )


def _fmt(value, spec=".4g", empty="-"):
    return empty if value is None else format(value, spec)


def cmd_design(cfg: RunConfig) -> int:
    model = _resolve_model(cfg)
    case, gp = _resolve_phase_match(cfg, model)
    result = _design_structure(cfg, model, case, gp)

    # periodic baseline purity for the summary row
    if cfg.scheme == "pp":
        result.pp_purity = result.purity
        result.pp_pump_bandwidth_nm = result.pump_bandwidth_nm
    elif result.pp_purity is None:
        pp = periodic_domains(case.length_m, result.coherence_length_m)
        result.pp_pump_bandwidth_nm, result.pp_purity = optimize_pump_bandwidth(
            model, case, pp, result.theta_deg
        )

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = _header(cfg)

    pump = PumpSpec.from_bandwidth_nm(case.lambda_p_um, result.pump_bandwidth_nm)
    dw = measure_delta_omega(model, case, result.domains, pump, result.theta_deg)
    grid = make_grid(result.theta_deg, dw, case.omega_s0, case.omega_i0, r_mult=cfg.r_mult)
    jsa = build_jsa(model, case, result.domains, pump, grid, mask_invalid=True)
    schmidt = schmidt_decompose(jsa)

    write_poling_file(
        out / "poling.txt",
        result.domains,
        header={
            "run_config_digest": cfg.digest(),
            "sellmeier": cfg.sellmeier,
            "scheme": result.scheme,
            "alpha": result.alpha,
            "beta": result.beta,
            "l_c_um": f"{result.coherence_length_m * 1e6:.6f}",
            "crystal_length_mm": f"{case.length_m * 1e3:.6f}",
        },
    )
    write_jsa_csv(out / "jsa_abs.csv", jsa, header)
    write_jsa_binary(out / "jsa.bin", jsa, cfg.digest(), cfg.sellmeier)
    write_schmidt_csv(out / "schmidt.csv", schmidt, header)

    summary = {
        "run_config_digest": cfg.digest(),
        "sellmeier": cfg.sellmeier,
        "preset": cfg.preset,
        "lambda_p_nm": case.lambda_p_um * 1e3,
        "lambda_s_nm": case.lambda_s_um * 1e3,
        "lambda_i_nm": case.lambda_i_um * 1e3,
        "signal_axis": case.signal_axis.value,
        "theta_deg": result.theta_deg,
        "l_c_um": result.coherence_length_m * 1e6,
        "scheme": result.scheme,
        "alpha": result.alpha,
        "beta": result.beta,
        "pump_bandwidth_nm": result.pump_bandwidth_nm,
        "purity": result.purity,
        "pp_purity": result.pp_purity,
        "pp_pump_bandwidth_nm": result.pp_pump_bandwidth_nm,
        "below_threshold": result.below_threshold,
        "delta_omega_rad_s": dw,
        "structure": _structure_to_dict(result.domains),
    }
    (out / "design_result.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    (out / "run_config.json").write_text(cfg.to_json() + "\n")

    row = (
        f"{case.lambda_p_um * 1e3:.1f} -> {case.lambda_s_um * 1e3:.1f} + "
        f"{case.lambda_i_um * 1e3:.1f} nm | theta {result.theta_deg:6.2f} deg | "
        f"l_c {result.coherence_length_m * 1e6:6.2f} um | alpha {_fmt(result.alpha, '.1f')} | "
        f"beta {_fmt(result.beta, 'g')} | pump bw {result.pump_bandwidth_nm:.3g} nm | "
        f"P_PP {100 * result.pp_purity:.2f}% | P_opt {100 * result.purity:.2f}%"
    )
    summary_text = "\n".join([*(f"# {h}" for h in header), row]) + "\n"
    (out / "design_summary.txt").write_text(summary_text)
    print(row)
    if result.below_threshold:
        print(
            f"design: purity {result.purity:.4f} below threshold "
            f"{cfg.purity_threshold}; best effort written",
            file=sys.stderr,
        )
        return EXIT_BELOW_THRESHOLD
    return EXIT_OK


# the scheme a design artifact records for each design scheme: cl-scl
# records the rung it stopped on, "cl" at beta 1 and "scl" above
_ARTIFACT_SCHEMES = {"cl-scl": ("cl", "scl"), "mqpm": ("mqpm",), "dc": ("dc",)}


def _read_design_artifact(
    cfg: RunConfig, case: PhaseMatchConfig
) -> tuple[DomainArray | DutyCycleStructure, float]:
    """(structure, pump bandwidth in nm) of the design artifact in
    `cfg.design_dir`, which must have been made for this run: every
    optimized scheme swept is the artifact's (naming `schemes`), and the
    wavelengths, signal axis, Sellmeier set and crystal length are the run's
    (naming `design_dir`).  A missing, unparseable or incomplete artifact is
    an error naming design_dir too."""
    path = Path(cfg.design_dir) / "design_result.json"
    if not path.exists():
        raise ConfigError(f"design_dir: missing design artifact {path}")
    try:
        data = json.loads(path.read_text())
        recorded = data["scheme"]
        structure = _structure_from_dict(data["structure"])
        bandwidth = data["pump_bandwidth_nm"]
        PumpSpec.from_bandwidth_nm(case.lambda_p_um, bandwidth)
        unit = structure.width_m if isinstance(structure, DomainArray) else structure.period_m
        checks = []
        for band in ("p", "s", "i"):
            key, run = f"lambda_{band}_nm", getattr(case, f"lambda_{band}_um") * 1e3
            checks.append((key, data[key], run, math.isclose(data[key], run, rel_tol=1e-12)))
        checks += [
            ("signal_axis", data["signal_axis"], case.signal_axis.value,
             data["signal_axis"] == case.signal_axis.value),
            ("sellmeier", data["sellmeier"], cfg.sellmeier,
             _sellmeier_name(data["sellmeier"]) == _sellmeier_name(cfg.sellmeier)),
            # the structure fills the crystal the way the design rules do: a
            # whole number of domains or periods with less than one left over
            ("structure length (mm)", structure.length_m * 1e3, cfg.length_mm,
             -1e-9 * unit <= case.length_m - structure.length_m < unit),
        ]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"design_dir: {path} is not a readable design artifact "
            f"({type(exc).__name__}: {exc})") from exc
    for scheme in cfg.schemes:
        if scheme != "pp" and recorded not in _ARTIFACT_SCHEMES[scheme]:
            raise ConfigError(
                f"schemes: {scheme!r} cannot be swept from the {recorded!r} design in {path}")
    for what, artifact, run, ok in checks:
        if not ok:
            raise ConfigError(f"design_dir: {path} holds a design with {what} {artifact!r}, "
                              f"this run has {run!r}")
    return structure, bandwidth


def cmd_sweep_range(cfg: RunConfig) -> int:
    model = _resolve_model(cfg)
    case, gp = _resolve_phase_match(cfg, model)
    if not cfg.schemes:
        raise ConfigError("schemes: sweep-range requires at least one scheme")
    if not cfg.r_list:
        raise ConfigError("r_list: sweep-range requires a list of spectral ranges")

    optimized = [scheme for scheme in cfg.schemes if scheme != "pp"]
    if optimized and cfg.design_dir is None:
        raise ConfigError(f"design_dir: scheme {optimized[0]!r} needs an existing design artifact")
    design = None if cfg.design_dir is None else _read_design_artifact(cfg, case)

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for scheme in cfg.schemes:
        if scheme == "pp":
            structure = periodic_domains(case.length_m, gp.coherence_length_m)
            if cfg.pump_bandwidth_nm is not None:
                bw = cfg.pump_bandwidth_nm
            else:
                bw, _ = optimize_pump_bandwidth(model, case, structure, gp.theta_deg)
        else:
            structure, bw = design
        pump = PumpSpec.from_bandwidth_nm(case.lambda_p_um, bw)
        curve = purity_vs_range(
            model, case, structure, pump, list(cfg.r_list), gp.theta_deg, tag=scheme
        )
        dest = out / f"purity_vs_range_{scheme}.csv"
        write_curve_csv(dest, curve, _header(cfg) + [f"pump_bandwidth_nm: {bw!r}"])
        written.append(dest)
    (out / "run_config.json").write_text(cfg.to_json() + "\n")
    print("sweep-range: wrote " + ", ".join(str(p) for p in written))
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="purepole",
        description="Design custom-poled KTP sources of spectrally pure heralded photons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key-value or JSON config file; flags override it")
        p.add_argument("--preset", choices=sorted(PRESETS), help="named wavelength case")
        p.add_argument("--pump-nm", dest="pump_nm")
        p.add_argument("--signal-nm", dest="signal_nm")
        p.add_argument("--signal-axis", choices=_AXES, dest="signal_axis")
        p.add_argument("--length-mm", dest="length_mm")
        p.add_argument("--r-mult", dest="r_mult")
        p.add_argument("--out-dir", dest="out_dir")
        p.add_argument("--seed", dest="seed")
        p.add_argument("--sellmeier", dest="sellmeier", help="set name or coefficient file")

    p_map = sub.add_parser("gvm-map", help="scan GVM angle and coherence length maps")
    common(p_map)
    p_map.add_argument("--pump-range-nm", dest="pump_range_nm", help="LO:HI:STEP in nm")
    p_map.add_argument("--signal-range-nm", dest="signal_range_nm", help="LO:HI:STEP in nm")

    p_design = sub.add_parser("design", help="design and evaluate one source")
    common(p_design)
    p_design.add_argument("--scheme", choices=list(_READS["design"]), dest="scheme")
    p_design.add_argument("--alpha", dest="alpha", help="Gaussian width factor for mqpm")
    p_design.add_argument("--beta-ladder", dest="beta_ladder",
                          help="comma list overriding the division-factor ladder")
    p_design.add_argument("--purity-threshold", dest="purity_threshold")
    p_design.add_argument("--mqpm-orders", dest="mqpm_orders",
                          help="comma list of odd QPM orders")
    p_design.add_argument("--pso-particles", dest="pso_particles")
    p_design.add_argument("--pso-iterations", dest="pso_iterations")
    p_design.add_argument("--pump-bw-nm", dest="pump_bandwidth_nm",
                          help="fix the pump bandwidth instead of optimizing it")

    p_sweep = sub.add_parser("sweep-range", help="purity versus spectral range")
    common(p_sweep)
    p_sweep.add_argument("--schemes", dest="schemes",
                         help="comma list from {pp, cl-scl, mqpm, dc}")
    p_sweep.add_argument("--r-list", dest="r_list", help="comma list of R in dw units")
    p_sweep.add_argument("--design-dir", dest="design_dir",
                         help="directory holding design_result.json for optimized schemes")
    p_sweep.add_argument("--pump-bw-nm", dest="pump_bandwidth_nm")
    return parser


def _read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: malformed JSON in {path}: {exc}") from exc
    data: dict = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config file: malformed line {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        data[key.replace("-", "_")] = value
    return data


def build_run_config(argv: list[str]) -> RunConfig:
    args = vars(_build_parser().parse_args(argv))
    config_path = args.pop("config", None)
    # flags arrive as text and win over the file; RunConfig types both
    merged = _read_config_file(config_path) if config_path else {}
    merged.update((key, value) for key, value in args.items() if value is not None)
    return RunConfig.from_dict(merged)


def run(argv: list[str]) -> int:
    try:
        cfg = build_run_config(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:
        # argparse exits on bad flags (status 2) and on --help (status 0)
        return int(exc.code or 0)

    handlers = {
        "gvm-map": cmd_gvm_map,
        "design": cmd_design,
        "sweep-range": cmd_sweep_range,
    }
    try:
        return handlers[cfg.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
