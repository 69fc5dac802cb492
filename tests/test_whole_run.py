"""Engine runs against reference_run, the run read straight off the semantics."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from hypothesis import HealthCheck, Phase, given, settings

from actrsim.engine import Engine
from actrsim.model import validate_model
from actrsim.strategies import RandomCostUtility, ReinforcementUtility, SuccessCostUtility

from oracle import (
    ReferenceRandomCost,
    ReferenceReinforcement,
    ReferenceSuccessCost,
    reference_run,
)
from test_engine import two_buffer_model
from test_model_parser import model_asts
from test_refraction import random_model

MOVES = ("rock", "paper", "scissors")


def strategy_pair(index, seed):
    """The engine's strategy and the reference run's, drawing alike."""
    kind = index % 3
    if kind == 0:
        return ReinforcementUtility(), ReferenceReinforcement()
    if kind == 1:
        return SuccessCostUtility(), ReferenceSuccessCost()
    return RandomCostUtility(seed=seed), ReferenceRandomCost(seed=seed)


def chunk_state(chunks):
    return {name: (chunk.type, dict(chunk.slot_values)) for name, chunk in chunks.items()}


def clearing_model(rng):
    """A two_buffer_model where some rules also clear a buffer they modify."""
    model = two_buffer_model(rng)
    productions = []
    for production in model.productions:
        modified = [buffer for buffer, _ in production.modifications]
        if modified and rng.random() < 0.5:
            clearings = production.clearings + (rng.choice(modified),)
            production = production._replace(clearings=clearings)
        productions.append(production)
    return model._replace(productions=tuple(productions))


def modifies_and_clears(production):
    """Whether a rule modifies a buffer and also clears it."""
    return any(buffer in production.clearings for buffer, _ in production.modifications)


def compare(model, index, seed, t_limit, providers=lambda: {"next-move": iter(())},
            program=None):
    """Run model on the engine and on the reference; return the engine's trace.

    providers() gives each side its own fresh !bind! providers. The engine
    runs program, model's compiled Program, when one is given.
    """
    rules = [p.name for p in model.productions]
    ours, theirs = strategy_pair(index, seed)
    refraction = index >= 3
    engine = Engine(model if program is None else program, ours, providers(), refraction)
    engine.run(t_limit)
    trace, held, chunks = reference_run(model, theirs, providers(), refraction, t_limit)
    assert [(e.time, e.rule, e.bindings) for e in engine.trace] == trace
    assert engine.held == held
    assert chunk_state(engine.chunks) == chunk_state(chunks)
    assert [ours.utility(r) for r in rules] == [theirs.utility(r) for r in rules]
    return engine.trace


def test_engine_equals_the_reference_run_on_generated_models():
    rng = random.Random(1010)
    models = ([random_model(rng) for _ in range(100)]
              + [two_buffer_model(rng) for _ in range(100)]
              + [clearing_model(rng) for _ in range(150)])
    firings = both = 0
    for number, model in enumerate(models):
        shapes = {p.name: modifies_and_clears(p) for p in model.productions}
        for index in range(6):  # three strategies, without and with refraction
            trace = compare(model, index, number, Fraction(1))
            firings += len(trace)
            both += sum(shapes[entry.rule] for entry in trace)
    assert firings > 18000
    assert both > 150  # rules that modify and clear one buffer do fire


def test_engine_equals_the_reference_run_on_the_bundled_model(rps_model):
    rng = random.Random(2020)
    firings = 0
    for number in range(12):
        moves = [rng.choice(MOVES) for _ in range(20)]
        for index in range(6):
            firings += len(compare(rps_model, index, number, Fraction(2),
                                   lambda: {"next-move": iter(moves)}))
    assert firings > 12 * 3 * 40  # without refraction every run plays 20 rounds


def test_engine_equals_the_reference_run_on_annotated_generated_models():
    drawn = []

    @settings(max_examples=300, derandomize=True, database=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(model_asts())
    def record(ast):
        drawn.append(ast)

    record()
    models = [ast for ast in drawn if not validate_model(ast)]
    firings = annotated = 0
    for number, model in enumerate(models):
        names = {provider for p in model.productions for _, provider in p.binds}
        for index in range(6):  # three strategies, without and with refraction
            trace = compare(model, index, number, Fraction(1),
                            lambda: {name: itertools.cycle(MOVES) for name in names})
            firings += len(trace)
            annotated += sum(entry.rule in model.annotations for entry in trace)
    # samples of 300 draws hold 169-246 such models, whose annotated rules fire
    # 938-1,841 times
    assert len(models) >= 120
    assert annotated > 500  # rules that trigger learning do fire
