"""Design toolkit for spectrally pure heralded single-photon sources in KTP.

Searches group-velocity-matched configurations, shapes poling structures
(periodic, coherence-length / sub-coherence-length tracked, multi-order QPM,
duty-cycle), builds joint spectral amplitudes and quantifies heralded-photon
purity and heralding efficiency.
"""

from .dispersion import (
    Axis,
    DispersionModel,
    KTP_KATO_2002,
    OutOfTransparencyWindow,
    omega_from_wavelength_um,
    wavelength_um_from_omega,
)
from .gvm import (
    EmptyRange,
    GvmMap,
    GvmPoint,
    NonPositiveIdler,
    PhaseMatchConfig,
    gvm_angle,
    gvm_map,
    idler_wavelength,
    phase_mismatch_and_lc,
)
from .poling import (
    DomainArray,
    DomainTooNarrow,
    CrystalTooShort,
    DutyCycleStructure,
    DutyOutOfRange,
    DesignResult,
    InvalidOrderList,
    MIN_DOMAIN_WIDTH_M,
    TargetProfile,
    ZeroPhaseMismatch,
    dc_domains,
    effective_pmf_tracked,
    erf_duty_profile,
    greedy_track,
    mqpm_domains,
    mqpm_order_map,
    periodic_domains,
    target_pmf,
)
from .spectrum import (
    JointSpectrum,
    PeakOnBoundary,
    PumpSpec,
    SpectralGrid,
    build_jsa,
    estimate_bandwidths,
    make_grid,
    measure_delta_omega,
    pmf_piecewise,
    pmf_pp_analytic,
    pump_envelope,
    standard_jsa,
)
from .analysis import (
    NoInteriorMaximum,
    PsoSettings,
    RangeSweepCurve,
    SchmidtSpectrum,
    WindowExceedsGrid,
    ZeroSpectrum,
    heralding_efficiency,
    heralding_efficiency_extended,
    jsa_purity,
    optimize_pump_bandwidth,
    pso_optimize_dc,
    purity,
    purity_vs_range,
    schmidt_decompose,
)
from .design import DesignOptions, design_cl_scl

__version__ = "0.1.0"
