"""Steady-state availability modelling for repairable systems.

A component's fields give its availability directly, as an MTBF/MDT
pair, or as MTBF with the maintainability pipeline (MTTRes, MLDT, MADT,
PNRS, TAT). Systems are reliability block diagram trees (series,
parallel, k-of-n, bridge) or two-terminal networks evaluated by
reduction and a frontier sweep.
Brute-force oracles (exhaustive enumeration and a reproducible Monte
Carlo sampler) cross-check every evaluator, and a small model-file
format plus CLI wrap the lot.
"""

from .blocks import Block, Bridge, KofN, Leaf, Parallel, Series, leaves
from .components import FORMS, Component, check_field, derive_environment
from .evaluate import (
    EvaluationError,
    eval_block,
    eval_bridge,
    eval_kofn,
    eval_parallel,
    eval_series,
)
from .maintainability import availability_from_times, mean_down_time
from .model import Diagnostic, Model, validate
from .modelfile import ParseDiagnostic, SourceSpan, format_model, parse_model
from .network import (
    DEFAULT_MAX_STATES,
    Edge,
    Network,
    ReducedNetwork,
    StateBudgetError,
    eval_network,
    reduce_network,
)
from .oracle import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    enumerate_availability,
    instances,
    monte_carlo_availability,
    structure_function,
)
from .probability import PROBABILITY_TOLERANCE, Probability, unavailability
from .report import (
    MINUTES_PER_YEAR,
    AvailabilityReport,
    ComponentLine,
    build_report,
    nines,
    render_json,
    render_text,
)

__version__ = "0.1.0"

__all__ = [
    "AvailabilityReport",
    "Block",
    "Bridge",
    "Component",
    "ComponentLine",
    "DEFAULT_ENUMERATION_CAP",
    "DEFAULT_MAX_STATES",
    "Diagnostic",
    "Edge",
    "EnumerationCapError",
    "EvaluationError",
    "FORMS",
    "KofN",
    "Leaf",
    "MINUTES_PER_YEAR",
    "Model",
    "Network",
    "PROBABILITY_TOLERANCE",
    "Parallel",
    "ParseDiagnostic",
    "Probability",
    "ReducedNetwork",
    "Series",
    "SourceSpan",
    "StateBudgetError",
    "availability_from_times",
    "build_report",
    "check_field",
    "derive_environment",
    "enumerate_availability",
    "eval_block",
    "eval_bridge",
    "eval_kofn",
    "eval_network",
    "eval_parallel",
    "eval_series",
    "format_model",
    "instances",
    "leaves",
    "mean_down_time",
    "monte_carlo_availability",
    "nines",
    "parse_model",
    "reduce_network",
    "render_json",
    "render_text",
    "structure_function",
    "unavailability",
    "validate",
]
