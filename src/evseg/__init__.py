"""Motion segmentation for event cameras by contrast maximisation.

Events are soft-assigned to a small set of motion hypotheses; each
hypothesis is scored by the sharpness of the image its events form after
being transported to a common reference time, and assignments and motions
are refined in alternation.  Includes a labeled scene simulator, two
alternative clustering back-ends, evaluation utilities and a CLI.
"""

from .events import (
    EmptyPacketError,
    Event,
    EventPacket,
    ImageGeometry,
    OutOfBoundsError,
    count_windows,
    make_packet,
    sliding_windows,
    validate_packet,
)
from .iwe import (
    Iwe,
    NegativeWeightError,
    accumulate_unweighted,
    accumulate_weighted,
    sample_local,
    smooth,
    variance_contrast,
)
from .metrics import (
    AccuracyReport,
    BenchPoint,
    CurvePoint,
    ShapeMismatchError,
    accuracy_vs_displacement,
    compare_methods,
    detection_success,
    hard_assignments,
    per_event_accuracy,
    spans_for_displacements,
    throughput_benchmark,
)
from .simulate import (
    LabeledEvents,
    Rect,
    SceneConfigError,
    SceneObject,
    SimConfig,
    preset_fan_and_coin,
    preset_two_pebbles,
    simulate,
)
from .solver import (
    ClusterSet,
    DegenerateInitError,
    SegmentationResult,
    SolverConfig,
    apply_collapse,
    ascend_motion,
    build_count,
    cluster_contrast,
    initialize_greedy,
    maximize_single_cluster,
    objective,
    segment,
    segment_stream,
    update_associations,
)
from .variants import (
    component_likelihood,
    fuzzy_affinity,
    fuzzy_e_step,
    fuzzy_m_step,
    mixture_e_step,
    mixture_m_step,
    segment_fuzzy,
    segment_mixture,
)
from .warps import (
    MODEL_PARAM_COUNT,
    WarpParams,
    displacement_sensitivity,
    numeric_warp_jacobian,
    warp_packet,
    warp_point,
    warp_points,
    zero_params,
)

__version__ = "0.1.0"
