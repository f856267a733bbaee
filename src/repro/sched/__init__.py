"""Schedule IR: compute ops, op-stream recording/replay, and legality checks.

Algorithms in this library drive a :class:`~repro.machine.machine.TwoLevelMachine`
imperatively, but every machine call can also be *recorded* into a flat op
stream (:class:`~repro.sched.schedule.Schedule`), replayed on another
machine, and validated without any machine at all
(:func:`~repro.sched.validate.validate_schedule`).  This is what lets the
test suite prove schedule legality independently of the simulator that
produced the counts.
"""

from .ops import (
    OPS,
    ComputeOp,
    OuterColsUpdate,
    syrk_outer_update,
    TriangleUpdate,
    TriangleCrossUpdate,
    GemmOuterUpdate,
    TrsmSolveStep,
    UpperSolveStep,
    UnitLowerSolveStep,
    CholFactorResident,
    LuFactorResident,
    cholesky_mults,
    cholesky_flops,
)
from .schedule import (
    Schedule,
    LoadStep,
    EvictStep,
    ComputeStep,
    access_sequence,
    access_sequence_reference,
    record_schedule,
    replay_schedule,
)
from .validate import validate_schedule, schedule_footprint

__all__ = [
    "OPS",
    "ComputeOp",
    "OuterColsUpdate",
    "syrk_outer_update",
    "TriangleUpdate",
    "TriangleCrossUpdate",
    "GemmOuterUpdate",
    "TrsmSolveStep",
    "UpperSolveStep",
    "UnitLowerSolveStep",
    "CholFactorResident",
    "LuFactorResident",
    "cholesky_mults",
    "cholesky_flops",
    "Schedule",
    "LoadStep",
    "EvictStep",
    "ComputeStep",
    "access_sequence",
    "access_sequence_reference",
    "record_schedule",
    "replay_schedule",
    "validate_schedule",
    "schedule_footprint",
]
