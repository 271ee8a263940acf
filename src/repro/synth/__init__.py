"""Synthesis engine: optimisation scripts, technology mapping, area reports."""

from .area import AreaReport, area_in_ge, area_report
from .mapper import MappingError, map_to_cells
from .script import (
    SCHEDULER_NAMES,
    AdaptiveScheduler,
    FixedScheduler,
    PassScheduler,
    SynthesisEffort,
    SynthesisResult,
    optimize_aig,
    resolve_scheduler,
    synthesis_telemetry,
    synthesize,
)

__all__ = [
    "SynthesisEffort",
    "SynthesisResult",
    "PassScheduler",
    "FixedScheduler",
    "AdaptiveScheduler",
    "SCHEDULER_NAMES",
    "resolve_scheduler",
    "optimize_aig",
    "synthesize",
    "synthesis_telemetry",
    "map_to_cells",
    "MappingError",
    "AreaReport",
    "area_in_ge",
    "area_report",
]
