from .accelerating import accelerating_force
from .build3 import build3_record, build_3tree
from .common import (
    LabeledCondition,
    RunRecord,
    check_label_invariants,
    schedule,
)
from .surviving import diagonalize_surviving
from .traceable import initial_condition, traceable_prune
from .verify import verify_record

__all__ = [
    "LabeledCondition",
    "RunRecord",
    "accelerating_force",
    "build3_record",
    "build_3tree",
    "check_label_invariants",
    "diagonalize_surviving",
    "initial_condition",
    "schedule",
    "traceable_prune",
    "verify_record",
]
