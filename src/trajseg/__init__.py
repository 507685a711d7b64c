"""Low-rank trajectory grouping for unsupervised motion segmentation.

The package provides trajectory and flow losses with analytic gradients,
a per-sequence optimizer that minimises one trajectory loss and refines
its hard labels under the same loss, subspace-clustering baselines,
clustering metrics, a synthetic rigid-scene generator, corruption sweeps
of the loss landscape, and a CLI tying them together.
"""

from .errors import (
    DegenerateInputError,
    DivergenceError,
    InvalidInputError,
    RangeError,
    TrajsegError,
    UndefinedMetricError,
)
from .losses import SoftAssignment
from .numkernel import SvdFactors
from .optimizer import OptimConfig, OptimTrace, optimize_sequence, segment_tracks
from .scene_synth import SceneConfig, SceneTruth, TrajectoryMatrix, make_scene

__version__ = "0.1.0"

__all__ = [
    "TrajsegError",
    "InvalidInputError",
    "RangeError",
    "DegenerateInputError",
    "UndefinedMetricError",
    "DivergenceError",
    "SvdFactors",
    "SoftAssignment",
    "OptimConfig",
    "OptimTrace",
    "optimize_sequence",
    "segment_tracks",
    "SceneConfig",
    "SceneTruth",
    "TrajectoryMatrix",
    "make_scene",
    "__version__",
]
