"""Dual degree Cech bifiltrations for finite metric measure spaces.

Builds two-parameter (mass, radius) filtered complexes from weighted point
data, computes their Betti tables and slice barcodes, measures Prohorov
distances and interleavings, and ships randomized suites that verify the
structural theorems the construction rests on.
"""

from . import builders, core, errors, homology, instances, io, metrics, planar, verify
from .builders import (
    DegreeBifiltration,
    DistanceToMeasureBifiltration,
    DowkerBifiltrationPair,
    DowkerDissimilarity,
    SetBifiltration,
    TableBifiltration,
    ambient_dc_finite,
    cover_nerve,
    dowker_dual,
    intrinsic_dc,
    measure_bifiltration_points,
    nerve_bifiltration,
    rectangle_complex,
    restrict_to_support,
)
from .core import (
    BifilteredComplex,
    DiscreteMeasure,
    FiniteMetricSpace,
    ForwardShift,
    SimplicialComplex,
    Staircase,
    as_simplex,
    grid_with_midpoints,
    validate_metric,
)
from .errors import (
    AsymmetryError,
    CoordMismatch,
    DcechError,
    DifferentSpaces,
    DimensionMismatch,
    DowkerConditionViolation,
    EmptySimplex,
    EmptySupport,
    EmptyTarget,
    IndexOutOfRange,
    InvalidComplex,
    InvalidStaircase,
    MetricError,
    MissingCoordinates,
    MonotonicityError,
    NegativeDistanceError,
    NonMonotonePath,
    NonPositiveP,
    NotAnInclusion,
    NotDistancePreserving,
    ParseError,
    TriangleViolation,
    UnsupportedDimension,
)
from .homology import (
    Barcode,
    BettiTable,
    BettiVector,
    betti,
    betti_table,
    bottleneck_distance,
    diagonal_barcode,
    inclusion_induces_iso,
    slice_persistence,
)
from .instances import (
    perturbed_cloud,
    random_coords,
    random_dowker,
    random_measure,
    random_metric_space,
    random_planar_space,
)
from .io import (
    format_barcode,
    load_matrix_csv,
    load_planar_csv,
    read_staircase_table,
    write_betti_csv,
    write_betti_svg,
    write_firep,
    write_staircase_table,
)
from .metrics import (
    CommonEmbedding,
    ConditionSlack,
    InterleavingReport,
    ProhorovCheck,
    ProjectionReport,
    check_projection_inequality,
    gp_upper_bound,
    nearest_neighbor_projection,
    prohorov_check,
    prohorov_distance,
    pushforward,
    verify_sandwich,
    verify_set_interleaving_shift,
)
from .planar import (
    ambient_dc_planar,
    circumcenter,
    minimum_enclosing_ball,
    planar_breakpoints,
)
from .verify import (
    DEFAULT_TRIALS,
    SUITES,
    SuiteResult,
    rectangle_betti,
    run_all,
    run_suite,
)

__version__ = "0.1.0"

# Everything each submodule declares public is public here too.
__all__ = ["__version__"] + sorted(
    {
        name
        for module in (builders, core, errors, homology, instances, io, metrics, planar, verify)
        for name in module.__all__
    }
)
