"""Near-field covert-communication simulator for frequency diverse arrays.

Computes distance-angle beampatterns of a uniform linear array whose
elements may transmit at per-antenna frequency offsets, derives the
warden-detection threshold from a KL-divergence covertness budget, maps the
non-covert region around the legitimate receiver on a spatial grid, and
selects offsets that minimize the analytic boundary-ellipse area, then,
given the grid and threshold of a map, the measured non-covert region.
"""

from .channel import (
    SCHEMES,
    ChannelVector,
    FrequencyPlan,
    LinkBudget,
    beam_gain,
    channel_gain_amplitude,
    channel_vector,
    covert_rate,
    covert_rate_components,
    dbm_to_watts,
    element_channel,
    inverse_q,
    mrt_weights,
    snr_bob,
    watts_to_dbm,
)
from .covertness import (
    CovertnessBudget,
    detection_threshold,
    is_covert_point,
    kl_divergence,
    xi,
    xi_inv,
)
from .ellipse import (
    DegenerateEllipseError,
    DegenerateGeometryError,
    OptimizeResult,
    build_ellipse_model,
    ellipse_area,
    g_coefficients,
    hessian_consistency,
    objective_and_gradient,
    optimize_offsets,
    psi_vector,
)
from .fieldmap import (
    GridSpec,
    beampattern_at,
    evaluate_grid,
    extract_noncovert,
    monte_carlo_rate,
    noncovert_region,
    sweep,
)
from .geometry import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    CartesianPoint,
    DomainError,
    PolarPoint,
    cartesian_to_polar,
    exact_element_distance,
    fresnel_element_distance,
    in_near_field,
    polar_to_cartesian,
    rayleigh_distance,
)
from .schemes import (
    RegionSpec,
    build_plan,
    linear_fda_plan,
    lpa_plan,
    optimized_fda_plan,
    random_fda_plan,
)

__version__ = "0.1.0"
