"""Bent three-link magnetic microswimmer: dynamics, controllability, tracking."""

from .controllability import (
    LinearizedSystem,
    PartialControllabilityResult,
    bent_submatrix_determinant,
    kalman_matrix,
    linearize,
    numeric_bent_submatrix_determinant,
    partial_controllability,
)
from .dynamics import (
    control_vector_fields,
    equilibrium_state,
    state_derivative,
)
from .integrators import (
    IntegrationResult,
    IntegrationSignal,
    IntegratorOptions,
    integrate,
)
from .model import (
    ControlField,
    SwimmerParams,
    SwimmerState,
    joint_points,
    rotation_block,
)
from .records import SimRecord, emit_lab_frame_controls, write_csv
from .scenario import (
    FieldProgram,
    Scenario,
    ScenarioError,
    load_scenario,
    run_scenario,
    scenario_from_dict,
    simulate_open_loop,
)
from .tracking import (
    TrackingSingularity,
    Trajectory,
    circle_trajectory,
    line_trajectory,
    scan_determinant,
    simulate_closed_loop,
    solve_tracking_controls,
    tracking_determinant,
    waypoint_trajectory,
)

__version__ = "0.1.0"
