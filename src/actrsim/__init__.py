"""Production-rule cognitive engine with pluggable conflict resolution.

Typed chunks live in a store, buffers hold at most one chunk each, and rules
match buffer contents and modify them through a 50 ms match-select-apply
cycle driven by a discrete-event queue. Conflict resolution is pluggable:
reinforcement utility learning, success/cost utility learning, random
estimated costs, and rule refraction. An experiment harness plays the
bundled rock-paper-scissors model against three opponent profiles.
"""

from .buffers import BufferSystem
from .chunks import Chunk, ChunkStore, ChunkType, NIL
from .engine import (Engine, Instantiation, Program, TraceEntry, compile_model,
                     format_trace_entry)
from .errors import EngineError
from .model import (
    Annotation,
    BufferTest,
    ModelAST,
    Production,
    format_model,
    parse_model,
    validate_model,
)
from .scheduler import Event, EventQueue
from .strategies import (
    RandomCostUtility,
    ReinforcementUtility,
    SuccessCostUtility,
    draw_random_cost,
    rc_utility,
    refraction_prune,
    reinforcement_update,
    sc_recompute,
    select_winner,
)

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "BufferSystem",
    "BufferTest",
    "Chunk",
    "ChunkStore",
    "ChunkType",
    "Engine",
    "EngineError",
    "Event",
    "EventQueue",
    "Instantiation",
    "ModelAST",
    "NIL",
    "Production",
    "Program",
    "RandomCostUtility",
    "ReinforcementUtility",
    "SuccessCostUtility",
    "TraceEntry",
    "compile_model",
    "draw_random_cost",
    "format_model",
    "format_trace_entry",
    "parse_model",
    "rc_utility",
    "refraction_prune",
    "reinforcement_update",
    "sc_recompute",
    "select_winner",
    "validate_model",
]
