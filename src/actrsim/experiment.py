"""Rock-paper-scissors harness: samples, runs, and result aggregation.

A sample is one line of 20 space-separated moves from {r, p, s}, read as the
tuple of its move letters. Opponent 1 always plays rock and is generated;
opponents 2 and 3 ship as data files.
Each run wires the sample into the ``next-move`` provider, plays to the time
limit (20 rounds in 2 s of simulated time), counts wins/draws/defeats from
the outcome-rule firings in the trace, and reads the final utilities of the
three play rules from the strategy; a model without one of them is refused
before any run (UnscorableModel). Its records are NamedTuples, and the bundled
model and samples are read from ``data/`` beside this module.
"""

import os
import random
from collections import Counter
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from .engine import Engine, Program, compile_model
from .errors import EmptyResults, MalformedMove, UnscorableModel, WrongLength
from .model import ModelAST
from .strategies import STRATEGIES, RandomCostUtility

MOVES_PER_SAMPLE = 20
MOVE_NAMES = {"r": "rock", "p": "paper", "s": "scissors"}
PROVIDERS = ("next-move",)  # the providers a run registers: the opponent's moves

PLAY_RULES = ("play-rock", "play-paper", "play-scissors")
OUTCOME_PREFIXES = (
    ("detect-win-", "win"),
    ("detect-draw-", "draw"),
    ("detect-defeat-", "defeat"),
)
DATA = os.path.join(os.path.dirname(__file__), "data")


class RunResult(NamedTuple):
    index: int
    utilities: tuple  # (U_r, U_p, U_s) as Fractions or floats
    wins: int
    draws: int
    defeats: int


class HarnessConfig(NamedTuple):
    strategy: str = "reinforcement"
    alpha: Fraction = Fraction(1, 5)
    goal_value: Fraction = Fraction(20)
    tiebreak: str | None = None  # None picks the strategy's default
    refraction: bool = False
    seed: int = 0
    runs: int = 1
    t_limit: Fraction = Fraction(2)


class Report(NamedTuple):
    rows: tuple[RunResult, ...]
    averages: RunResult
    config: dict


# -- samples -----------------------------------------------------------------

def parse_samples(text: str) -> list[tuple[str, ...]]:
    samples = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        moves = tuple(line.split())
        for move in moves:
            if move not in MOVE_NAMES:
                raise MalformedMove(f"sample {len(samples) + 1}: bad move {move!r}")
        if len(moves) != MOVES_PER_SAMPLE:
            raise WrongLength(
                f"sample {len(samples) + 1} has {len(moves)} moves, "
                f"expected {MOVES_PER_SAMPLE}"
            )
        samples.append(moves)
    return samples


def load_samples(path) -> list[tuple[str, ...]]:
    with open(path, encoding="utf-8") as handle:
        return parse_samples(handle.read())


def builtin_samples(player: int) -> list[tuple[str, ...]]:
    if player == 1:
        return [("r",) * MOVES_PER_SAMPLE]
    if player in (2, 3):
        return load_samples(os.path.join(DATA, f"player{player}_samples.txt"))
    raise ValueError(f"no builtin player {player}")


def builtin_model_text() -> str:
    with open(os.path.join(DATA, "rps.model"), encoding="utf-8") as handle:
        return handle.read()


# -- running -------------------------------------------------------------------

def build_strategy(config: HarnessConfig, run_seed: int):
    cls = STRATEGIES.get(config.strategy)
    if cls is None:
        raise ValueError(f"unknown strategy {config.strategy!r}")
    if cls is RandomCostUtility:
        return cls(
            goal_value=config.goal_value,
            rng=random.Random(run_seed),
            tiebreak=config.tiebreak,
        )
    if config.strategy == "reinforcement":
        return cls(alpha=config.alpha, tiebreak=config.tiebreak)
    return cls(goal_value=config.goal_value, tiebreak=config.tiebreak)


def run_single(model: Program | ModelAST, config: HarnessConfig, sample: tuple[str, ...],
               row_index: int, run_seed: int, trace_sink=None) -> RunResult:
    strategy = build_strategy(config, run_seed)
    providers = {PROVIDERS[0]: map(MOVE_NAMES.__getitem__, sample)}
    engine = Engine(model, strategy, providers, refraction=config.refraction)
    trace = engine.run(config.t_limit)
    if trace_sink is not None:
        trace_sink.extend((row_index, entry) for entry in trace)
    tally = {"win": 0, "draw": 0, "defeat": 0}
    for rule, count in Counter(map(itemgetter(1), trace)).items():  # a few distinct rules
        for prefix, kind in OUTCOME_PREFIXES:
            if rule.startswith(prefix):
                tally[kind] += count
                break
    utilities = tuple(strategy.utility(rule) for rule in PLAY_RULES)
    return RunResult(row_index, utilities, tally["win"], tally["draw"], tally["defeat"])


def check_play_rules(program: Program) -> None:
    """Raise UnscorableModel unless the program has each of PLAY_RULES."""
    names = {rule[0] for rule in program.rules}
    missing = [rule for rule in PLAY_RULES if rule not in names]
    if missing:
        raise UnscorableModel(
            f"no rule named {', '.join(map(repr, missing))} in the model: "
            f"the report gives the utility of each of {', '.join(PLAY_RULES)}"
        )


def run_experiment(model: Program | ModelAST, config: HarnessConfig, samples,
                   trace_sink=None) -> Report:
    program = compile_model(model)  # once: every run shares it
    check_play_rules(program)
    rows = []
    for sample in samples:
        for _ in range(config.runs):
            ordinal = len(rows) + 1
            rows.append(run_single(
                program, config, sample, ordinal, config.seed + ordinal - 1, trace_sink
            ))
    return summarize(rows)._replace(config=config_echo(config))


def summarize(results) -> Report:
    """Arithmetic means over the rows; values display-rounded to 3 decimals."""
    rows = tuple(results)
    if not rows:
        raise EmptyResults("no run results to summarize")
    n = len(rows)
    _, utilities, *counts = zip(*rows)  # the columns: a RunResult is a tuple
    averages = RunResult(0, tuple(sum(column) / n for column in zip(*utilities)),
                         *(Fraction(sum(column), n) for column in counts))
    return Report(rows, averages, {})


def config_echo(config: HarnessConfig) -> dict:
    """The config's fields in order, Fraction-typed ones as text, the tie-break resolved."""
    types = HarnessConfig.__annotations__
    echo = {name: str(value) if types[name] is Fraction else value
            for name, value in zip(config._fields, config)}
    echo["tiebreak"] = config.tiebreak or STRATEGIES[config.strategy].default_tiebreak
    return echo


# -- formatting ---------------------------------------------------------------------

def _thousandths(value) -> int:
    """value * 1000 rounded half away from zero: one divmod on its integer ratio."""
    n, d = value.as_integer_ratio()
    units, rest = divmod(abs(n) * 1000, d)
    if 2 * rest >= d:
        units += 1
    return units if n >= 0 else -units


def round_thousandths(value) -> Fraction:
    """Exact half-away-from-zero rounding to 3 decimals."""
    return Fraction(_thousandths(value), 1000)


def format_utility(value) -> str:
    units = _thousandths(value)
    whole, rest = divmod(abs(units), 1000)
    return f"{'-' if units < 0 else ''}{whole}.{rest:03d}"


def format_count(value) -> str:
    """format_utility without trailing zeros: 2, 8.9, 0.063."""
    return format_utility(value).rstrip("0").rstrip(".")


def report_to_csv(report: Report) -> str:
    lines = ["sample,U_r,U_p,U_s,wins,draws,defeats"]
    for row in report.rows:
        utils = ",".join(format_utility(u) for u in row.utilities)
        lines.append(f"{row.index},{utils},{row.wins},{row.draws},{row.defeats}")
    avg = report.averages
    utils = ",".join(format_utility(u) for u in avg.utilities)
    counts = ",".join(format_count(c) for c in (avg.wins, avg.draws, avg.defeats))
    lines.append(f"avg,{utils},{counts}")
    return "\n".join(lines) + "\n"


def report_to_json(report: Report) -> str:
    import json  # here, so that a CSV report does not load it

    def count(value):  # a row's counts are ints; the averages' round as in CSV
        return value if isinstance(value, int) else float(round_thousandths(value))

    def row_obj(row, index):
        return {
            "sample": index,
            "U_r": float(round_thousandths(row.utilities[0])),
            "U_p": float(round_thousandths(row.utilities[1])),
            "U_s": float(round_thousandths(row.utilities[2])),
            "wins": count(row.wins),
            "draws": count(row.draws),
            "defeats": count(row.defeats),
        }

    payload = {
        "config": report.config,
        "rows": [row_obj(row, row.index) for row in report.rows],
        "average": row_obj(report.averages, "avg"),
    }
    return json.dumps(payload, indent=2) + "\n"
