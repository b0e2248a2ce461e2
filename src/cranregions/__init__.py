"""Rate-fronthaul regions for finite-alphabet relay networks.

Exact (dense-tensor) computations of the uplink joint-decoding and
downlink joint-encoding regions, their corner points, the dominant face
and its product structure, and the rate/quantization-splitting map onto
the dominant face, plus its numerical inverse.
"""

from .prob import (
    DownlinkSpec,
    JointLaw,
    LawError,
    UplinkSpec,
    build_downlink_joint,
    build_uplink_joint,
    entropy,
    mutual_info,
)
from .uplink import (
    RateFronthaulPoint,
    corner_closed,
    corner_iterative,
    enumerate_corners,
    in_jd_region,
    jd_slack,
    sd_corner,
    verify_corner,
)
from .face import (
    FaceQuery,
    check_degenerate_factorization,
    check_face_decomposition,
    degeneracy_condition,
    dominant_face_dimension,
    face_gap,
    in_face_FST,
    on_dominant_face,
    on_dominant_face_alt,
    sample_face_points,
)
from .splitting import (
    InversionResult,
    NotOnDominantFaceError,
    SplitConfig,
    alpha_to_indices,
    beta_rates,
    build_virtual_cran,
    decode_order_from_alpha,
    generalized_order,
    invert_psi,
    make_quant_split,
    make_rate_split,
    psi,
    psi_detail,
)
from .downlink import (
    downlink_corner_closed,
    downlink_corner_iterative,
    downlink_enumerate_corners,
    in_je_region,
    istar,
    je_slack,
    se_corner,
    verify_downlink_corner,
)
from .specio import SpecFileError, load_spec, parse_spec, save_spec, spec_to_dict

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
