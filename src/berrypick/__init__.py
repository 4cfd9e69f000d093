"""berrypick: deterministic strawberry-harvesting simulator and perception stack."""

from .geometry import (
    Aabb,
    ColoredPointCloud,
    RigidTransform,
    Vec3,
    dump_cloud,
    load_cloud,
    merge_clouds,
    transform_cloud,
)
from .scene import Scene, StrawberryTruth, generate_scene
from .camera import CameraModel, CameraRig, capture_rig, default_rig
from .localization import (
    LocalizationParams,
    StrawberryBox,
    boxes_of,
    crop_window,
    localize,
    threshold_red,
)
from .motion import MoveRecord, RobotState, compute_z_min, plan_cycle_waypoints, robot_move
from .cutter import (
    CutModel,
    ToolGeometry,
    TrapResult,
    free_fall_detect,
    laser_step,
    trap_stem,
)
from .controller import (
    ControllerPhase,
    HarvestEventLog,
    cycle_metrics,
    inject_localization_error,
    run_harvest,
)

__version__ = "0.1.0"
