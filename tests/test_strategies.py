from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from actrsim import strategies
from actrsim.engine import Engine, Instantiation
from actrsim.experiment import PLAY_RULES
from actrsim.strategies import (
    FIRST_DECLARED,
    LAST_DECLARED,
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
from oracle import ReferenceRandomCost, ReferenceReinforcement, ReferenceSuccessCost


def inst(rule, index):
    return Instantiation(rule, index, {}, ())


# -- reinforcement ----------------------------------------------------------------

def test_reinforcement_update_values():
    assert reinforcement_update(0, Fraction(1, 5), Fraction("1.9")) == Fraction("0.38")
    assert reinforcement_update(0, Fraction(1, 5), Fraction("-0.1")) == Fraction("-0.02")


def test_reinforcement_update_identity_cases():
    assert reinforcement_update(Fraction(3), 0, Fraction(9)) == 3
    assert reinforcement_update(Fraction(5), Fraction(1, 5), Fraction(5)) == 5


@given(
    u=st.fractions(min_value=-10, max_value=10),
    alpha=st.fractions(min_value=0, max_value=1),
    r=st.fractions(min_value=-10, max_value=10),
)
def test_reinforcement_update_contracts_toward_reward(u, alpha, r):
    updated = reinforcement_update(u, alpha, r)
    assert abs(updated - r) == (1 - alpha) * abs(u - r)


@given(
    u=st.fractions(min_value=-5, max_value=5),
    r=st.fractions(min_value=-5, max_value=5),
    n=st.integers(min_value=1, max_value=30),
)
def test_repeated_updates_converge_geometrically(u, r, n):
    alpha = Fraction(1, 5)
    current = u
    for _ in range(n):
        current = reinforcement_update(current, alpha, r)
    assert abs(current - r) == (1 - alpha) ** n * abs(u - r)


@settings(max_examples=50, deadline=None)
@given(
    u=st.fractions(min_value=-5, max_value=5, max_denominator=100),
    alpha=st.fractions(min_value=0, max_value=1, max_denominator=100).filter(bool),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_chained_updates_equal_the_three_operation_form(u, alpha, seed):
    # the update as it was written before, U + alpha (R - U), step for step
    rng = random.Random(seed)
    current = previous = u
    for _ in range(400):
        reward = Fraction(rng.randint(-100, 100), 20)
        current = reinforcement_update(current, alpha, reward)
        previous = previous + alpha * (reward - previous)
        assert current == previous


def test_trigger_reward_walks_log_in_order():
    strategy = ReinforcementUtility()
    strategy.record_application("play-paper", Fraction(0))
    strategy.record_application("detect-win-paper", Fraction(1, 20))
    strategy.trigger_reward(Fraction(2), Fraction(1, 10))
    assert strategy.utility("play-paper") == Fraction("0.38")
    assert strategy.utility("detect-win-paper") == Fraction("0.39")
    assert strategy.applied_log == []


def test_trigger_reward_defeat_round():
    strategy = ReinforcementUtility()
    strategy.record_application("play-scissors", Fraction(0))
    strategy.record_application("detect-defeat-scissors", Fraction(1, 20))
    strategy.trigger_reward(Fraction(0), Fraction(1, 10))
    assert strategy.utility("play-scissors") == Fraction("-0.02")


def test_trigger_reward_empty_log_is_noop():
    strategy = ReinforcementUtility()
    strategy.trigger_reward(Fraction(2), Fraction(1))
    assert strategy.utilities == {}


def test_never_logged_rules_keep_zero_utility():
    strategy = ReinforcementUtility()
    strategy.record_application("play-paper", Fraction(0))
    strategy.trigger_reward(Fraction(2), Fraction(1, 10))
    assert strategy.utility("play-rock") == 0


def test_reinforcement_rejects_bad_alpha():
    with pytest.raises(ValueError):
        ReinforcementUtility(alpha=Fraction(0))
    with pytest.raises(ValueError):
        ReinforcementUtility(alpha=Fraction(2))


def test_float_alpha_and_goal_value_are_type_errors():
    # a float would learn on its exact binary value, not on 1/5 or 20
    with pytest.raises(TypeError):
        ReinforcementUtility(alpha=0.2)
    with pytest.raises(TypeError):
        SuccessCostUtility(goal_value=20.0)
    with pytest.raises(TypeError):
        RandomCostUtility(goal_value=20.0)


def test_int_alpha_and_goal_value_are_accepted():
    assert ReinforcementUtility(alpha=1).alpha == 1
    assert SuccessCostUtility(goal_value=20).utility("r") == Fraction(20) - Fraction(1, 20)
    assert RandomCostUtility(goal_value=20).utility("r") == 20.0


def test_multiple_applications_update_through_one_trigger():
    # two applications of the same rule share one trigger, earlier one first
    strategy = ReinforcementUtility()
    strategy.record_application("play-paper", Fraction(3, 10))
    strategy.record_application("play-paper", Fraction(4, 10))
    strategy.trigger_reward(Fraction(2), Fraction(1, 2))
    first = reinforcement_update(0, Fraction(1, 5), Fraction("1.8"))
    second = reinforcement_update(first, Fraction(1, 5), Fraction("1.9"))
    assert strategy.utility("play-paper") == second


# -- success/cost -------------------------------------------------------------------

def test_sc_recompute_values():
    assert sc_recompute(1, 0, Fraction("0.05"), 20) == (1, Fraction("0.05"), Fraction("19.95"))
    assert sc_recompute(1, 1, Fraction("0.15"), 20) == (
        Fraction(1, 2), Fraction("0.075"), Fraction("9.925"),
    )
    p, c, u = sc_recompute(2, 1, Fraction("0.25"), 20)
    assert (p, c) == (Fraction(2, 3), Fraction(1, 12))
    assert u == Fraction("13.25")


def test_initial_counters():
    strategy = SuccessCostUtility()
    assert strategy.counters("play-rock") == (1, 0, Fraction(1, 20))
    assert strategy.utility("play-rock") == Fraction("19.95")


def test_trigger_success_updates_whole_log():
    strategy = SuccessCostUtility()
    strategy.record_application("play-paper", Fraction(0))
    strategy.record_application("detect-win-paper", Fraction(1, 20))
    strategy.trigger_outcome("success", Fraction(1, 10))
    assert strategy.counters("play-paper") == (2, 0, Fraction("0.15"))
    assert strategy.utility("play-paper") == Fraction("19.925")
    assert strategy.counters("detect-win-paper") == (2, 0, Fraction("0.10"))
    assert strategy.utility("detect-win-paper") == Fraction("19.95")
    assert strategy.applied_log == []


def test_trigger_failure_updates_counters():
    strategy = SuccessCostUtility()
    strategy.record_application("play-rock", Fraction(0))
    strategy.trigger_outcome("failure", Fraction(1, 10))
    assert strategy.counters("play-rock") == (1, 1, Fraction("0.15"))
    assert strategy.utility("play-rock") == Fraction("9.925")


def test_trigger_outcome_empty_log_is_noop():
    strategy = SuccessCostUtility()
    strategy.trigger_outcome("success", Fraction(1))
    assert strategy.utility("play-rock") == Fraction("19.95")


def test_incremental_state_matches_recompute():
    strategy = SuccessCostUtility()
    strategy.record_application("a", Fraction(0))
    strategy.record_application("a", Fraction(1, 10))
    strategy.trigger_outcome("failure", Fraction(3, 10))
    s, f, e = strategy.counters("a")
    assert strategy.utility("a") == sc_recompute(s, f, e, strategy.goal_value)[2]


@pytest.fixture
def sc_calls(monkeypatch):
    """The argument tuples of every sc_recompute call the strategies make."""
    calls = []

    def spy(*args):
        calls.append(args)
        return sc_recompute(*args)

    monkeypatch.setattr(strategies, "sc_recompute", spy)
    return calls


@pytest.mark.parametrize("log", [["a"], ["a", "a"], ["a", "b", "a", "c", "b"]])
def test_success_cost_trigger_rescores_each_distinct_rule_once(sc_calls, log):
    strategy = SuccessCostUtility()
    sc_calls.clear()
    for i, rule in enumerate(log):
        strategy.record_application(rule, Fraction(i, 10))
    strategy.trigger_outcome("success", Fraction(1))
    assert sorted(args[:3] for args in sc_calls) == sorted(
        strategy.counters(rule) for rule in set(log)
    )


def test_scoring_untouched_rules_rescores_nothing(sc_calls):
    strategy = SuccessCostUtility()
    sc_calls.clear()
    assert strategy.score([inst("a", 0), inst("b", 1)]) == {
        "a": Fraction("19.95"), "b": Fraction("19.95"),
    }
    assert strategy.success_probability("a") == 1
    assert strategy.counters("b") == (1, 0, Fraction(1, 20))
    assert sc_calls == []


def test_random_cost_run_never_computes_the_exact_triple(sc_calls, rps_model):
    strategy = RandomCostUtility(seed=3)  # building it computes none either
    engine = Engine(rps_model, strategy, {"next-move": iter(["rock", "paper"] * 10)})
    engine.run(Fraction(2))
    # triggers ran: some play rule's counters moved
    assert [r for r in PLAY_RULES if strategy.counters(r) != (1, 0, Fraction(1, 20))]
    assert sc_calls == []


# -- random costs ----------------------------------------------------------------------

def test_draw_random_cost_edges():
    assert draw_random_cost(0.7, 0.0) == 0.0
    assert draw_random_cost(0.0, 0.99) == 0.0
    assert draw_random_cost(1.0, 1 - math.exp(-1)) == pytest.approx(1.0)


def test_rc_utility_values():
    assert rc_utility(1.0, 20, 0.1) == pytest.approx(19.9)
    assert rc_utility(0.75, 0, 0.3) == pytest.approx(-0.3)
    assert rc_utility(0.5, 20, 0.0) == pytest.approx(10.0)


def test_random_cost_theta_tracks_counters():
    strategy = RandomCostUtility(seed=1)
    successes, _, efforts = strategy.counters("play-rock")
    assert efforts / successes == Fraction(1, 20)  # theta, the expected cost
    strategy.record_application("play-rock", Fraction(0))
    strategy.trigger_outcome("success", Fraction(1, 10))
    successes, _, efforts = strategy.counters("play-rock")
    assert efforts / successes == Fraction("0.15") / 2


BIG = st.integers(min_value=2**64 + 1, max_value=2**512)


@given(n=BIG, d=BIG, s=st.integers(min_value=1, max_value=10**6))
def test_random_cost_theta_is_the_float_of_the_exact_quotient(n, d, s):
    assume(math.gcd(n, d) == 1)  # numerator and denominator both above 2**64
    e = Fraction(n, d)
    assert e.numerator / (e.denominator * s) == float(e / s)
    theta, p = RandomCostUtility()._state(s, 0, e)
    assert theta == float(e / s) and p == 1


def test_random_cost_scores_every_candidate_each_cycle():
    strategy = RandomCostUtility(seed=5)
    candidates = [inst("a", 0), inst("b", 1)]
    first = strategy.score(candidates)
    second = strategy.score(candidates)
    assert set(first) == {"a", "b"}
    assert first != second  # fresh draws every conflict-resolution cycle
    assert all(u <= 20.0 for u in first.values())
    assert strategy.utility("a") == second["a"]


def test_random_cost_draws_are_reproducible():
    a = RandomCostUtility(seed=42)
    b = RandomCostUtility(seed=42)
    candidates = [inst("a", 0), inst("b", 1)]
    assert a.score(candidates) == b.score(candidates)


# -- selection and refraction ------------------------------------------------------------

def test_select_winner_tie_break_last_declared():
    candidates = [inst("rock", 0), inst("paper", 1), inst("scissors", 2)]
    utilities = {"rock": Fraction("19.95"), "paper": Fraction("19.95"),
                 "scissors": Fraction("19.95")}
    assert select_winner(candidates, utilities, LAST_DECLARED).rule == "scissors"
    assert select_winner(candidates, utilities, FIRST_DECLARED).rule == "rock"


def test_select_winner_strict_maximum_ignores_policy():
    candidates = [inst("a", 0), inst("b", 1)]
    utilities = {"a": 1.0, "b": 0.5}
    assert select_winner(candidates, utilities, FIRST_DECLARED).rule == "a"
    assert select_winner(candidates, utilities, LAST_DECLARED).rule == "a"


def test_select_winner_empty_set():
    assert select_winner([], {}, FIRST_DECLARED) is None


@pytest.mark.parametrize(
    "cls", [ReinforcementUtility, SuccessCostUtility, RandomCostUtility]
)
def test_constructor_rejects_unknown_policy(cls):
    with pytest.raises(ValueError):
        cls(tiebreak="random")


@given(
    utilities=st.lists(st.fractions(min_value=-5, max_value=5), min_size=1, max_size=6),
    shift=st.fractions(min_value=-100, max_value=100),
    last=st.booleans(),
)
def test_argmax_invariant_under_common_shift(utilities, shift, last):
    candidates = [inst(f"r{i}", i) for i in range(len(utilities))]
    policy = LAST_DECLARED if last else FIRST_DECLARED
    base = {c.rule: u for c, u in zip(candidates, utilities)}
    shifted = {rule: u + shift for rule, u in base.items()}
    assert (select_winner(candidates, base, policy).rule
            == select_winner(candidates, shifted, policy).rule)


def max_min_select(candidates, utilities, tiebreak):
    """The two-pass formula: the maximum, then the declaration-order extreme."""
    best = max(utilities[c.rule] for c in candidates)
    tied = [c for c in candidates if utilities[c.rule] == best]
    if tiebreak == FIRST_DECLARED:
        return min(tied, key=lambda c: c.source_index)
    return max(tied, key=lambda c: c.source_index)


@given(
    utilities=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=8),
    order=st.randoms(use_true_random=False),
    last=st.booleans(),
)
def test_one_pass_select_equals_max_min_on_any_order(utilities, order, last):
    candidates = [inst(f"r{i}", i) for i in range(len(utilities))]
    policy = LAST_DECLARED if last else FIRST_DECLARED
    table = {c.rule: Fraction(u, 2) for c, u in zip(candidates, utilities)}
    expected = max_min_select(candidates, table, policy)
    order.shuffle(candidates)
    assert select_winner(candidates, table, policy) is expected
    assert max_min_select(candidates, table, policy) is expected


def test_refraction_prune_removes_applied_identities():
    candidates = [inst("play-rock", 0), inst("play-paper", 1)]
    history = {candidates[0].identity()}
    assert refraction_prune(candidates, history) == [candidates[1]]


def test_refraction_prune_empty_history_keeps_all():
    candidates = [inst("a", 0)]
    assert refraction_prune(candidates, set()) == candidates


def test_refraction_prune_can_empty_the_set():
    candidates = [inst("a", 0), inst("b", 1)]
    history = {c.identity() for c in candidates}
    assert refraction_prune(candidates, history) == []


def test_applied_log_times_are_nondecreasing():
    strategy = SuccessCostUtility()
    for i in range(5):
        strategy.record_application("r", Fraction(i, 10))
    times = [t for _, t in strategy.applied_log]
    assert times == sorted(times)


# -- against the strategies before they kept only what they read ---------------------------

RULES = ("a", "b", "c")
STEPS = st.fractions(min_value=0, max_value=1)
OPERATIONS = st.lists(
    st.tuples(st.just("record"), st.sampled_from(RULES), STEPS)
    | st.tuples(st.sampled_from(("success", "failure")), st.none(), STEPS)
    | st.tuples(st.just("reward"), st.fractions(min_value=-2, max_value=2), STEPS)
    | st.tuples(st.just("score"), st.sets(st.sampled_from(RULES)), st.none()),
    max_size=40,
)
READERS = ("counters", "utility", "success_probability")  # theta is read off the counters


def learning_state(strategy):
    """Everything a reader can ask a strategy about each rule."""
    readers = [getattr(strategy, name) for name in READERS if hasattr(strategy, name)]
    state = {r: tuple(read(r) for read in readers) for r in RULES}
    return state, list(strategy.applied_log)


PAIRS = {
    "reinforcement": lambda alpha, goal, seed: (
        ReinforcementUtility(alpha), ReferenceReinforcement(alpha)),
    "success-cost": lambda alpha, goal, seed: (
        SuccessCostUtility(goal), ReferenceSuccessCost(goal)),
    "random-cost": lambda alpha, goal, seed: (
        RandomCostUtility(goal, seed=seed), ReferenceRandomCost(goal, seed=seed)),
}


@pytest.mark.parametrize("kind", sorted(PAIRS))
@settings(max_examples=300, deadline=None)
@given(
    operations=OPERATIONS,
    alpha=st.fractions(min_value=0, max_value=1).filter(bool),
    goal=st.fractions(min_value=-30, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_strategy_equals_the_reference_strategy(kind, operations, alpha, goal, seed):
    strategy, reference = PAIRS[kind](alpha, goal, seed)
    now = Fraction(0)
    for op, arg, step in operations:
        if op == "score":
            candidates = [inst(r, RULES.index(r)) for r in sorted(arg)]
            assert strategy.score(candidates) == reference.score(candidates)
        else:
            now += step
            for side in (strategy, reference):
                if op == "record":
                    side.record_application(arg, now)
                elif op == "reward":
                    side.trigger_reward(arg, now)
                else:
                    side.trigger_outcome(op, now)
        assert learning_state(strategy) == learning_state(reference)
