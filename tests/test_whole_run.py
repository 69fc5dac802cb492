"""Engine runs against reference_run, the run read straight off the semantics."""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

from hypothesis import HealthCheck, Phase, given, settings

from actrsim.engine import Engine
from actrsim.model import validate_model
from actrsim.strategies import RandomCostUtility, ReinforcementUtility, SuccessCostUtility

from oracle import (
    LATENCY,
    ReferenceRandomCost,
    ReferenceReinforcement,
    ReferenceSuccessCost,
    reference_run,
)
from test_engine import two_buffer_model
from test_model_parser import model_asts
from test_strategies import logged_seconds
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


def strategy_state(strategy, rules):
    """What a strategy holds: utilities, its log, and counters and draws if it has them."""
    state = [[strategy.utility(r) for r in rules], logged_seconds(strategy)]
    if hasattr(strategy, "counters"):
        state.append([tuple(strategy.counters(r)) for r in rules])
    if hasattr(strategy, "rng"):
        state.append(strategy.rng.getstate())
    return state


def compare(model, index, seed, t_limit, providers=lambda: {"next-move": iter(())},
            program=None, steps=()):
    """Run model on the engine and on the reference; return the engine.

    providers() gives each side its own fresh !bind! providers. The engine
    runs program, model's compiled Program, when one is given, and stops at
    each limit of steps before it runs to t_limit; the reference runs to
    t_limit in one call.
    """
    rules = [p.name for p in model.productions]
    ours, theirs = strategy_pair(index, seed)
    refraction = index >= 3
    engine = Engine(model if program is None else program, ours, providers(), refraction)
    for limit in (*steps, t_limit):
        engine.run(limit)
        # now() reads the queue's clock, which refuses events before it: the last firing's
        assert engine.now() == (engine.trace[-1].time if engine.trace else 0)
    trace, held, chunks = reference_run(model, theirs, providers(), refraction, t_limit)
    assert [(e.time, e.rule, e.bindings) for e in engine.trace] == trace
    assert engine.held == held
    assert chunk_state(engine.chunks) == chunk_state(chunks)
    assert strategy_state(ours, rules) == strategy_state(theirs, rules)
    assert engine.now() == (trace[-1][0] if trace else 0)  # the last processed event
    return engine


def test_engine_equals_the_reference_run_on_generated_models():
    rng = random.Random(1010)
    models = ([random_model(rng) for _ in range(100)]
              + [two_buffer_model(rng) for _ in range(100)]
              + [clearing_model(rng) for _ in range(150)])
    firings = both = 0
    for number, model in enumerate(models):
        shapes = {p.name: modifies_and_clears(p) for p in model.productions}
        for index in range(6):  # three strategies, without and with refraction
            trace = compare(model, index, number, Fraction(1)).trace
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
                                   lambda: {"next-move": iter(moves)}).trace)
    assert firings > 12 * 3 * 40  # without refraction every run plays 20 rounds


@functools.cache  # drawing takes seconds; two tests share the models
def validated_model_asts():
    """The models of 300 derandomized model_asts() draws that validate."""
    drawn = []

    @settings(max_examples=300, derandomize=True, database=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(model_asts())
    def record(ast):
        drawn.append(ast)

    record()
    return tuple(ast for ast in drawn if not validate_model(ast))


def cycling_providers(model):
    """Fresh providers for every !bind! of model, each cycling the moves."""
    names = {provider for p in model.productions for _, provider in p.binds}
    return lambda: {name: itertools.cycle(MOVES) for name in names}


def test_engine_equals_the_reference_run_on_annotated_generated_models():
    models = validated_model_asts()
    firings = annotated = 0
    for number, model in enumerate(models):
        for index in range(6):  # three strategies, without and with refraction
            trace = compare(model, index, number, Fraction(1), cycling_providers(model)).trace
            firings += len(trace)
            annotated += sum(entry.rule in model.annotations for entry in trace)
    # samples of 300 draws hold 169-246 such models, whose annotated rules fire
    # 938-1,841 times
    assert len(models) >= 120
    assert annotated > 500  # rules that trigger learning do fire


# -- a run in steps against the reference run in one call -----------------------------

def split_limits(rng, span):
    """The limits of a run stepped up to span seconds, span excluded.

    They fall off the 50 ms grid, repeat the one before, fall below the
    clock (50 ms or more below every limit before them) or are -inf; some
    are floats.
    """
    limits = []
    for _ in range(rng.randrange(1, 7)):
        kind = rng.randrange(4) if limits else 0
        if kind == 0:
            limit = Fraction(rng.randrange(-100, span * 1000), 1000)
        elif kind == 1:
            limit = limits[-1]
        elif kind == 2:
            limit = max(limits) - Fraction(rng.randrange(50, 300), 1000)
        else:
            limit = -math.inf
        limits.append(float(limit) if rng.random() < 0.3 else limit)
    return limits


def compare_stepped(model, index, seed, rng, span, providers):
    """compare() a run stepped through split_limits with one reference run.

    The steps end at span or, when the reference halts by span, at span or
    math.inf. Also checks that the queue holds the pending firing, and is
    empty exactly when the run halted. Returns (firings, halted, ended at inf).
    """
    refraction = index >= 3
    by_span, beyond = (
        len(reference_run(model, strategy_pair(index, seed)[1], providers(), refraction, t)[0])
        for t in (span, span + LATENCY))
    halted = by_span == beyond  # 50 ms more fire nothing more
    final = math.inf if halted and rng.random() < 0.5 else span
    engine = compare(model, index, seed, final, providers, steps=split_limits(rng, span))
    assert len(engine.queue) == (0 if halted else 1)
    return len(engine.trace), halted, final == math.inf


def test_stepped_runs_equal_one_reference_run_on_the_bundled_model(rps_model):
    rng = random.Random(3030)
    outcomes = []
    for number in range(8):
        moves = [rng.choice(MOVES) for _ in range(21)]  # 20 rounds and 50 ms beyond
        for index in range(6):
            outcomes.append(compare_stepped(rps_model, index, number, rng, 2,
                                            lambda: {"next-move": iter(moves)}))
    firings, halted, at_inf = zip(*outcomes)
    assert sum(firings) > 8 * 3 * 40  # without refraction every run plays 20 rounds
    assert 0 < sum(halted) < len(outcomes) and any(at_inf)


def logs_first_at(strategy, at, rule, time):
    """Have strategy log (rule, time) just before the first application whose
    selection time is at or after `at`: where a call made between run(at) and
    the next run() call puts it in an engine's run."""
    record, pending = strategy.record_application, [(rule, time)]

    def record_application(applied, selected):
        if pending and selected >= at:
            record(*pending.pop())
        record(applied, selected)

    strategy.record_application = record_application


def test_a_clock_refined_between_runs_equals_one_reference_run(rps_model):
    # times off the millisecond grid refine the clock to 3,000 and then 21,000
    # ticks a second; the engine reads the new rate at its next run() call
    rng = random.Random(5050)
    moves = [rng.choice(MOVES) for _ in range(31)]  # 30 rounds and 50 ms beyond
    calls = ((1, "play-rock", Fraction(1, 3)), (2, "detect-win-paper", Fraction(9, 7)))
    rules = [p.name for p in rps_model.productions]
    for index in range(3):
        ours, theirs = strategy_pair(index, index)
        engine = Engine(rps_model, ours, {"next-move": iter(moves)})
        for at, rule, time in calls:
            engine.run(at)
            ours.record_application(rule, time)
            logs_first_at(theirs, at, rule, time)
        engine.run(3)
        assert ours.ticks == 21000
        trace, _, _ = reference_run(rps_model, theirs, {"next-move": iter(moves)}, False, 3)
        assert [(e.time, e.rule, e.bindings) for e in engine.trace] == trace
        assert strategy_state(ours, rules) == strategy_state(theirs, rules)


def test_stepped_runs_equal_one_reference_run_on_generated_models():
    rng = random.Random(4040)
    models = validated_model_asts()
    outcomes = []
    for number, model in enumerate(models):
        for index in range(6):
            outcomes.append(compare_stepped(model, index, number, rng, 1,
                                            cycling_providers(model)))
    firings, halted, at_inf = zip(*outcomes)
    assert sum(firings) > 4000
    assert 0 < sum(halted) < len(outcomes) and sum(at_inf) > 100
