from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from actrsim.engine import Engine, format_trace_entry
from actrsim.errors import ModelSyntaxError, ProviderExhausted
from actrsim.experiment import (
    HarnessConfig,
    builtin_samples,
    report_to_csv,
    run_experiment,
)
from actrsim.model import validate_model
from actrsim.strategies import (
    ReinforcementUtility,
    SuccessCostUtility,
    draw_random_cost,
    sc_recompute,
)

from oracle import replay_reinforcement, replay_success_cost
from test_engine import two_buffer_model
from test_model_parser import model_asts
from test_refraction import random_model, strategy_for


def test_random_cost_draws_are_nonnegative():
    rng = random.Random(5)
    for _ in range(10_000):
        assert draw_random_cost(rng.uniform(0, 3), rng.random()) >= 0.0


def test_random_cost_mean_approaches_theta():
    n = 100_000
    theta = 0.8
    rng = random.Random(12345)
    mean = sum(draw_random_cost(theta, rng.random()) for _ in range(n)) / n
    assert abs(mean - theta) < 4 * theta / math.sqrt(n)


@settings(max_examples=200)
@given(st.data())
def test_success_cost_incremental_matches_recompute(data):
    strategy = SuccessCostUtility()
    rules = ["a", "b", "c"]
    clock = Fraction(0)
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        clock += Fraction(data.draw(st.integers(1, 4), label="dt"), 20)
        action = data.draw(st.integers(0, 2), label="action")
        if action == 0:
            strategy.record_application(data.draw(st.sampled_from(rules)), clock)
        else:
            strategy.trigger_outcome("success" if action == 1 else "failure", clock)
            for rule in rules:
                counters = strategy.counters(rule)
                assert strategy.utility(rule) == sc_recompute(
                    *counters, strategy.goal_value
                )[2]


def test_engine_trace_replays_through_oracles(rps_model):
    sample = builtin_samples(2)[4]
    moves = iter({"r": "rock", "p": "paper", "s": "scissors"}[m] for m in sample)
    strategy = ReinforcementUtility()
    engine = Engine(rps_model, strategy, {"next-move": moves})
    trace = engine.run(Fraction(2))
    assert strategy.utilities == replay_reinforcement(trace, rps_model.annotations)

    moves = iter({"r": "rock", "p": "paper", "s": "scissors"}[m] for m in sample)
    sc = SuccessCostUtility()
    engine = Engine(rps_model, sc, {"next-move": moves})
    trace = engine.run(Fraction(2))
    for rule, expected in replay_success_cost(trace, rps_model.annotations).items():
        assert sc.counters(rule) == expected


def test_full_report_and_trace_are_byte_deterministic(rps_model):
    def one_round():
        config = HarnessConfig(strategy="random-cost", seed=21, runs=3)
        report = run_experiment(rps_model, config, builtin_samples(3)[:2])
        strategy = SuccessCostUtility()
        moves = iter(["rock", "paper"] * 10)
        engine = Engine(rps_model, strategy, {"next-move": moves})
        trace_text = "\n".join(
            format_trace_entry(e) for e in engine.run(Fraction(2))
        )
        return report_to_csv(report).encode() + trace_text.encode()

    assert one_round() == one_round()


def assert_consistent(engine, model):
    """Each buffer holds a known chunk or none; chunks fill only their type's slots."""
    slots = {ctype.name: set(ctype.slots) for ctype in model.chunk_types}
    assert set(engine.held) == {buffer for buffer, _ in model.buffer_inits}
    for chunk in engine.held.values():
        assert chunk is None or chunk in engine.chunks
    for name, chunk in engine.chunks.items():
        assert chunk.name == name and set(chunk.slot_values) <= slots[chunk.type]


def test_buffers_always_hold_known_chunks(rps_model):
    engine = Engine(
        rps_model, SuccessCostUtility(), {"next-move": iter(["paper"] * 20)}
    )
    engine.run(Fraction(2))
    assert engine.held == {"goal": "g1"}
    assert_consistent(engine, rps_model)


# -- a validated model fails at run time only when a provider runs out -------------

def run_under_every_strategy(model) -> int:
    """Run `model` to 2 s under each strategy, with and without refraction.

    Every !bind! provider yields three moves. Returns how many runs ended
    with ProviderExhausted; any other error fails the calling test.
    """
    providers = {provider for p in model.productions for _, provider in p.binds}
    exhausted = 0
    for index in range(6):
        engine = Engine(model, strategy_for(index, index),
                        {name: iter(["rock", "paper", "rock"]) for name in providers},
                        refraction=index >= 3)
        try:
            engine.run(Fraction(2))
        except ProviderExhausted:
            exhausted += 1
    return exhausted


@given(model_asts())
def test_engine_accepts_exactly_the_validated_models(ast):
    diagnostics = validate_model(ast)
    if diagnostics:
        with pytest.raises(ModelSyntaxError) as error:
            Engine(ast, ReinforcementUtility())
        assert str(error.value) == "; ".join(diagnostics)
    else:
        run_under_every_strategy(ast)


def test_validated_models_raise_only_provider_exhausted(rps_model):
    rng = random.Random(63)
    for _ in range(100):
        for model in (random_model(rng), two_buffer_model(rng)):
            assert validate_model(model) == []
            assert run_under_every_strategy(model) == 0  # no !bind! to run out
    # 3 moves last 3 of 20 rounds; under refraction the game halts after round 3
    assert run_under_every_strategy(rps_model) == 3
