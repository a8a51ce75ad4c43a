"""Motion planning over spheres and tube fibrations."""

from . import errors, fibration, geometry, milnor, sphere_planner, verify
from .errors import (
    AmbiguousAssignment,
    AntipodalPair,
    AtPole,
    BadMargin,
    DomainError,
    EqualPair,
    EvenAmbientDim,
    LiftFailure,
    OddAmbientDim,
    PoleOfField,
    TooFewPoints,
    Uncovered,
    WrongCodomain,
    ZeroVector,
)
from .fibration import (
    ExactCircleOracle,
    NumericOracle,
    TaskingPlanner,
    WorkMap,
    pullback_planner,
    rr_arm_workmap,
)
from .geometry import (
    CircleActionLift,
    Concat,
    NormalizedSegment,
    NumericLift,
    PathExpr,
    Scaled,
    StereoSegment,
    newton_project,
    normalize,
    path_from_dict,
    path_from_json,
    path_to_json,
    stereo_inv,
    stereo_proj,
    tangent_even,
    tangent_odd,
    write_path_csv,
)
from .milnor import (
    FiberSample,
    Germ,
    GermFlags,
    LinkSample,
    RegularityProbe,
    brieskorn_germ,
    hopf_germ,
    load_germ,
    monodromy_components,
    permutation_cycles,
    polish_to_tube,
    power_germ,
    product_germ,
    regularity_probe,
    sample_fiber,
    sample_link,
    sample_workmap_fiber,
    save_germ,
    tube_fibration,
)
from .sphere_planner import (
    DEFAULT_MARGIN,
    Region,
    SpherePlanner,
    build_planner,
    chart_planner,
    detour_planner_even,
    detour_planner_odd,
    segment_planner,
)
from .verify import (
    Certificate,
    CertifyInputs,
    VerificationReport,
    certify_sec,
    certify_tc,
    continuity_probe,
    probe_is_monotone,
    run_contract_suite,
)

__version__ = "0.1.0"
