"""skillsim: scripted-expert grasp data collection in a small kinematic
simulator, plus an imitation-learning stack (image autoencoders + recurrent
one-step state predictor) trained and evaluated on the collected episodes.
"""

__version__ = "0.1.0"

from .sim import (  # noqa: F401
    BaseCommand,
    CameraIntrinsics,
    ObjectSpec,
    RobotState,
    SensorFrame,
    World,
    WorldConfig,
)
from .perception import (  # noqa: F401
    PerceptionError,
    PerceptionParams,
    PointCloud,
    centroid,
    color_segment,
    locate_object,
    statistical_outlier_removal,
    voxel_grid_filter,
)
from .nav import OccupancyGrid, Path, PlanningError, astar, follow_path  # noqa: F401
from .kinematics import IkError, fk, ik  # noqa: F401
from .expert import (  # noqa: F401
    ArmPlanError,
    ExpertParams,
    ExpertPhase,
    ExpertTranscript,
    plan_arm,
    run_expert,
)
from .dataset import (  # noqa: F401
    DatasetError,
    Episode,
    NormStats,
    compute_norm_stats,
    denormalize_state,
    load_dataset,
    load_episode,
    normalize_state,
    record,
    save_episode,
)
from .scene import load_scene, make_long_scene, make_short_scene, save_scene  # noqa: F401
from .evaluate import RolloutReport, evaluate_suite, rollout  # noqa: F401
