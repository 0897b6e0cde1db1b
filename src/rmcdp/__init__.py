"""Single-depot ready-mixed-concrete delivery scheduling."""

from .model import (
    DepotSpec,
    Instance,
    InputError,
    SiteSpec,
    TripId,
    ValidationError,
    loading_time,
    solution_space_size,
    total_trips,
    trips_for_site,
    truck_upper_bound,
)
from .schedule import (
    FeasibilityReport,
    ObjectiveReport,
    Schedule,
    ScheduleEntry,
    Violation,
    check,
    evaluate,
    expand_consecutive,
    schedule_from_slots,
    trucks_required,
)
from .graphs import (
    RmcdpGraph,
    SizeCapError,
    build_graph,
    enumerate_exact,
    greedy_solve,
    grid_exact,
)
from .priority import (
    PriorityResult,
    PrioritySearchStats,
    priority_solve,
)
from .mip import MipModel, build_mip, emit_lp

__all__ = [name for name in dir() if not name.startswith("_")]
