from __future__ import annotations

import random
from fractions import Fraction

import pytest

from actrsim.chunks import ChunkType
from actrsim.engine import Engine
from actrsim.model import BufferTest, ChunkSpec, ModelAST, Production
from actrsim.strategies import (
    RandomCostUtility,
    ReinforcementUtility,
    SuccessCostUtility,
)

from oracle import expected_sc_utilities, replay_reinforcement, replay_success_cost


def random_model(rng: random.Random) -> ModelAST:
    """A tiny two-slot model with a handful of constant/variable rules."""
    values = ["x", "y"]
    slots = ("a", "b")
    productions = []
    for i in range(rng.randint(3, 6)):
        tests = []
        variables = []
        for slot in slots:
            drawn = rng.random()
            if drawn < 0.4:
                tests.append((slot, rng.choice(values)))
            elif drawn < 0.6:
                var = f"=v{slot}"
                tests.append((slot, var))
                variables.append(var)
        updates = []
        for slot in slots:
            drawn = rng.random()
            if drawn < 0.4:
                updates.append((slot, rng.choice(values)))
            elif drawn < 0.5 and variables:
                updates.append((slot, rng.choice(variables)))
        productions.append(
            Production(
                f"rule{i}",
                (BufferTest("buf", "t", tuple(tests)),),
                modifications=(("buf", tuple(updates)),),
            )
        )
    initial = tuple((slot, rng.choice(values)) for slot in slots)
    return ModelAST(
        chunk_types=(ChunkType("t", slots),),
        initial_chunks=(ChunkSpec("c1", "t", initial),),
        buffer_inits=(("buf", "c1"),),
        productions=tuple(productions),
        annotations={},
    )


def strategy_for(index: int, seed: int = 0):
    cls = (ReinforcementUtility, SuccessCostUtility, RandomCostUtility)[index % 3]
    if cls is RandomCostUtility:
        return cls(seed=seed)
    return cls()


def test_no_identity_fires_twice_across_random_models():
    rng = random.Random(2024)
    fired_total = 0
    for index in range(300):
        engine = Engine(
            random_model(rng), strategy_for(index, index), refraction=True
        )
        trace = engine.run(Fraction(10))
        identities = [entry.identity for entry in trace]
        assert len(identities) == len(set(identities))
        fired_total += len(identities)
    assert fired_total > 300  # the models genuinely fire, not all empty


@pytest.mark.parametrize("make_strategy", [
    ReinforcementUtility,
    SuccessCostUtility,
    lambda: RandomCostUtility(seed=7),
])
def test_rps_with_refraction_halts(rps_model, make_strategy):
    engine = Engine(
        rps_model,
        make_strategy(),
        {"next-move": iter(["rock"] * 20)},
        refraction=True,
    )
    trace = engine.run(Fraction(2))
    # three play rules and three outcome identities, then no candidates remain
    assert len(trace) == 6
    assert engine.now() == Fraction(3, 10)
    identities = [entry.identity for entry in trace]
    assert len(identities) == len(set(identities))
    assert len(engine.queue) == 0


def test_refraction_preserves_reinforcement_arithmetic(rps_model):
    strategy = ReinforcementUtility()
    engine = Engine(
        rps_model, strategy, {"next-move": iter(["rock"] * 20)}, refraction=True
    )
    trace = engine.run(Fraction(2))
    assert strategy.utilities == replay_reinforcement(trace, rps_model.annotations)


def test_refraction_preserves_success_cost_arithmetic(rps_model):
    strategy = SuccessCostUtility()
    engine = Engine(
        rps_model, strategy, {"next-move": iter(["rock"] * 20)}, refraction=True
    )
    trace = engine.run(Fraction(2))
    counters = replay_success_cost(trace, rps_model.annotations)
    for rule, expected in counters.items():
        assert strategy.counters(rule) == expected
    for rule, utility in expected_sc_utilities(counters).items():
        assert strategy.utility(rule) == utility


class RecordingRandomCost(RandomCostUtility):
    """Random-cost strategy that checks each draw against its own inputs.

    select() draws every candidate's utility in one pass, into _last_utility;
    each candidate's entry is dropped first, so one select() did not draw
    fails with a KeyError.
    """

    checked = 0

    def select(self, candidates):
        ceilings = {
            c.rule: float(self.success_probability(c.rule) * self.goal_value)
            for c in candidates
        }
        for rule in ceilings:
            self._last_utility.pop(rule, None)
        winner = super().select(candidates)
        # a drawn cost is nonnegative, so every utility sits at or below P*G
        for rule, ceiling in ceilings.items():
            assert self._last_utility[rule] <= ceiling
        self.checked += len(ceilings)
        return winner


def test_refraction_preserves_random_cost_counters(rps_model):
    strategy = RecordingRandomCost(seed=3)
    engine = Engine(
        rps_model, strategy, {"next-move": iter(["rock"] * 20)}, refraction=True
    )
    trace = engine.run(Fraction(2))
    counters = replay_success_cost(trace, rps_model.annotations)
    for rule, expected in counters.items():
        assert strategy.counters(rule) == expected
    assert strategy.checked >= len(trace)  # every firing's cycle drew


def test_refraction_off_allows_refiring(rps_model):
    engine = Engine(
        rps_model,
        SuccessCostUtility(),
        {"next-move": iter(["rock"] * 20)},
        refraction=False,
    )
    trace = engine.run(Fraction(2))
    identities = [entry.identity for entry in trace]
    assert len(identities) == 40
    assert len(set(identities)) < 40  # rock keeps drawing and re-firing
