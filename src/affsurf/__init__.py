"""Numerics for a family of glued affine surfaces and its enriched limit."""

from .similitude import Similitude
from .surface import (
    ChartId,
    SurfacePoint,
    corner_holonomy,
    gluing_map,
    hole_monodromy,
)
from .develop import DevelopingMap, prevertex_ring
from .embedding import (
    EmbedChart,
    VirtualPointRep,
    edge_strip_chart,
    embed_eval,
    embed_invert,
    half_strip_chart,
    outer_chart,
    spiral_ball_chart,
)
from .limitset import (
    HAUSDORFF_ACCEPT,
    CurveCloud,
    convergence_report,
    hausdorff_distance,
    limit_image_cloud,
    rectangle_image_boundary,
    resample_curve,
)
from .pointcloud import PointCloud, read_points, write_points
from .quadrature import QuadratureError, integrate_segment
from .solver import (
    LimitEstimate,
    SolveResult,
    continuation_sweep,
    corner_residual,
    extract_limit,
    solve_prevertex,
)
from .svg import PALETTE, PlaneCurve, figure
from .tracking import (
    TrackResult,
    arc_target,
    segment_target,
    track_level_curve,
)
from .cli import RunConfig, RunReport, UsageError, make_config, run

__all__ = [
    "Similitude",
    "ChartId",
    "SurfacePoint",
    "corner_holonomy",
    "gluing_map",
    "hole_monodromy",
    "DevelopingMap",
    "prevertex_ring",
    "QuadratureError",
    "integrate_segment",
    "LimitEstimate",
    "SolveResult",
    "continuation_sweep",
    "corner_residual",
    "extract_limit",
    "solve_prevertex",
    "TrackResult",
    "arc_target",
    "segment_target",
    "track_level_curve",
    "HAUSDORFF_ACCEPT",
    "CurveCloud",
    "convergence_report",
    "hausdorff_distance",
    "limit_image_cloud",
    "rectangle_image_boundary",
    "resample_curve",
    "EmbedChart",
    "VirtualPointRep",
    "edge_strip_chart",
    "embed_eval",
    "embed_invert",
    "half_strip_chart",
    "outer_chart",
    "spiral_ball_chart",
    "PointCloud",
    "read_points",
    "write_points",
    "PALETTE",
    "PlaneCurve",
    "figure",
    "RunConfig",
    "RunReport",
    "UsageError",
    "make_config",
    "run",
]

__version__ = "0.1.0"
