"""polphase: Pancharatnam-phase simulation and retrieval toolkit.

The package covers the full desk-scale chain: exact SU(2) polarization
algebra (su2), compilation into quarter/half-wave-plate arrays (plates), the
Mach-Zehnder overlap law with the drift-immune dual-polarization
split-beam scheme (interferometer), the rotating five-plate single-beam
method (polarimetry), and synthetic dual-half interferograms whose fringe
shift the Fourier read at the carrier takes from raw profiles, which also
reads the visibility, with minima matching on smoothed profiles as
method="both"'s cross-check (fringes), over the shared harmonic fit,
smoothing and peak interpolation of dsp.
"""

from .su2 import (
    EPS_DEGENERATE,
    EPS_MAT,
    IDENTITY2,
    KET_H,
    KET_V,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    OrthogonalStates,
    YzyParams,
    ZyzParams,
    anticommutation_phase,
    apply,
    from_yzy,
    from_zyz,
    pancharatnam_phase,
    to_zyz,
    wrap_angle,
    yzy_to_zyz,
)
from .plates import (
    WavePlate,
    compose,
    decompose_qhq,
    format_plate_array,
    half_wave,
    jones,
    merge_qhh,
    parse_plate_array,
    polarimetric_array,
    polarimetric_target,
    quarter_wave,
    reduced_array_xi_minus_pi,
    reduced_array_zeta_2pi,
    simplify_qh,
    split_frame,
)
from .dsp import UnresolvableGrid, harmonic_fit
from .interferometer import (
    NonUnitary,
    ZeroVisibility,
    output_intensity,
    split_beam_shift,
    visibility_plates,
    visibility_yzy,
)
from .polarimetry import (
    DegenerateDenominator,
    InvalidExtrema,
    PolarimetricSweep,
    add_scan_noise,
    extract_cos2_phase,
    measure_phase,
    polarimetric_intensity,
    polarimetric_sweep,
    scan_plate_array,
    sweep_extrema,
)
from .fringes import (
    AmbiguousPairing,
    Interferogram,
    NoCarrier,
    Region,
    RetrievalResult,
    TooFewMinima,
    column_average,
    default_regions,
    estimate_carrier,
    generate,
    load_interferogram,
    measure_visibility,
    retrieve_phase,
    savitzky_golay,
    save_interferogram,
    shift_by_fourier,
    shift_by_minima,
)

__version__ = "0.1.0"
