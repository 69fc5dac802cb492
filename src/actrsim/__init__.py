"""Production-rule cognitive engine with pluggable conflict resolution.

``parse_model`` reads a model's text and ``validate_model`` checks it;
``compile_model`` turns it into a ``Program`` that many runs share. An
``Engine`` is one run: its buffers each name at most one chunk, and a 50 ms
match-select-apply cycle fires one rule at a time. Conflict resolution is
the one exchangeable part: reinforcement utility learning, success/cost
utility learning, or random estimated costs, each with optional rule
refraction. The experiment harness (``actrsim.experiment``) and the CLI
(``actrsim.cli``) play the bundled rock-paper-scissors model against three
opponent profiles.
"""

from .chunks import Chunk, ChunkType
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
from .strategies import RandomCostUtility, ReinforcementUtility, SuccessCostUtility

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "BufferTest",
    "Chunk",
    "ChunkType",
    "Engine",
    "EngineError",
    "Instantiation",
    "ModelAST",
    "Production",
    "Program",
    "RandomCostUtility",
    "ReinforcementUtility",
    "SuccessCostUtility",
    "TraceEntry",
    "compile_model",
    "format_model",
    "format_trace_entry",
    "parse_model",
    "validate_model",
]
