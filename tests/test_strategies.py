from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from actrsim import strategies as strategies_module
from actrsim.engine import Engine, Instantiation
from actrsim.experiment import PLAY_RULES
from actrsim.strategies import (
    FIRST_DECLARED,
    LAST_DECLARED,
    RandomCostUtility,
    ReinforcementUtility,
    SuccessCostUtility,
    draw_random_cost,
    refraction_prune,
    reinforcement_update,
    sc_recompute,
    select_winner,
)
from oracle import ReferenceRandomCost, ReferenceReinforcement, ReferenceSuccessCost, rc_utility


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
def rescorings(monkeypatch):
    """The counters, as counters() gives them, of every exact rescoring of a rule."""
    calls = []
    state = SuccessCostUtility._state

    def spy(self, s, f, efforts):
        calls.append((s, f, Fraction(efforts, self.ticks)))
        return state(self, s, f, efforts)

    monkeypatch.setattr(SuccessCostUtility, "_state", spy)
    return calls


@pytest.mark.parametrize("log", [["a"], ["a", "a"], ["a", "b", "a", "c", "b"]])
def test_success_cost_trigger_rescores_each_distinct_rule_once(rescorings, log):
    strategy = SuccessCostUtility()
    rescorings.clear()
    for i, rule in enumerate(log):
        strategy.record_application(rule, Fraction(i, 10))
    strategy.trigger_outcome("success", Fraction(1))
    assert sorted(rescorings) == sorted(strategy.counters(rule) for rule in set(log))


def test_scoring_untouched_rules_rescores_nothing(rescorings):
    strategy = SuccessCostUtility()
    rescorings.clear()
    assert strategy.score([inst("a", 0), inst("b", 1)]) == {
        "a": Fraction("19.95"), "b": Fraction("19.95"),
    }
    assert strategy.success_probability("a") == 1
    assert strategy.counters("b") == (1, 0, Fraction(1, 20))
    assert rescorings == []


def test_random_cost_run_never_computes_the_exact_triple(rescorings, rps_model):
    strategy = RandomCostUtility(seed=3)  # building it computes none either
    engine = Engine(rps_model, strategy, {"next-move": iter(["rock", "paper"] * 10)})
    engine.run(Fraction(2))
    # triggers ran: some play rule's counters moved
    assert [r for r in PLAY_RULES if strategy.counters(r) != (1, 0, Fraction(1, 20))]
    assert rescorings == []


# -- random costs ----------------------------------------------------------------------

def test_draw_random_cost_edges():
    assert draw_random_cost(0.7, 0.0) == 0.0
    assert draw_random_cost(0.0, 0.99) == 0.0
    assert draw_random_cost(1.0, 1 - math.exp(-1)) == pytest.approx(1.0)


def test_rc_utility_values():
    assert rc_utility(1.0, 20, 0.1) == pytest.approx(19.9)
    assert rc_utility(0.75, 0, 0.3) == pytest.approx(-0.3)
    assert rc_utility(0.5, 20, 0.0) == pytest.approx(10.0)


@pytest.mark.parametrize("goal_value, text", [
    (Fraction(10) ** 400, "1e+400"), (-Fraction(10) ** 400, "-1e+400"),
    (Fraction(2) ** 1024, "1.8e+308"), (Fraction(-(10 ** 999), 3), "-3.33e+998"),
    (Fraction(9996, 1000) * 10 ** 400, "1e+401"), (Fraction(10) ** 5000, "1e+5000")])
def test_random_cost_refuses_a_goal_value_beyond_float_range(goal_value, text):
    # random-cost draws in floats; the exact strategies take any rational. The
    # message names the value in a few characters: 10**5000 has 5,001 digits
    with pytest.raises(ValueError,
                       match=f"^goal value about {re.escape(text)} is beyond float range$"):
        RandomCostUtility(goal_value=goal_value)
    assert SuccessCostUtility(goal_value=goal_value).utility("r") == goal_value - Fraction(1, 20)
    assert RandomCostUtility(goal_value=Fraction(2) ** 1023).utility("r") == 2.0 ** 1023


def test_random_cost_theta_tracks_counters():
    strategy = RandomCostUtility(seed=1)
    successes, _, efforts = strategy.counters("play-rock")
    assert efforts / successes == Fraction(1, 20)  # theta, the expected cost
    strategy.record_application("play-rock", Fraction(0))
    strategy.trigger_outcome("success", Fraction(1, 10))
    successes, _, efforts = strategy.counters("play-rock")
    assert efforts / successes == Fraction("0.15") / 2


BIG = st.integers(min_value=2**64 + 1, max_value=2**512)


ONE = 1 - math.exp(-1)  # -log(1 - ONE) is 1.0: a draw of ONE costs exactly theta


@given(n=BIG, d=BIG, s=st.integers(min_value=2, max_value=40))
def test_random_cost_theta_is_the_float_of_the_exact_quotient(n, d, s):
    assume(math.gcd(n, d) == 1)  # numerator and denominator both above 2**64
    e = Fraction(n, d)
    assert e.numerator / (e.denominator * s) == float(e / s)
    assert draw_random_cost(1.0, ONE) == 1.0
    strategy = RandomCostUtility(goal_value=0, rng=SimpleNamespace(random=lambda: ONE))
    # s - 1 applications and one success: s successes, efforts 1/20 + (e - 1/20)
    now = Fraction(1)
    strategy.record_application("r", now - e + Fraction(1, 20))
    for _ in range(s - 2):
        strategy.record_application("r", now)
    strategy.trigger_outcome("success", now)
    assert strategy.counters("r") == (s, 0, e)
    assert strategy.score([inst("r", 0)]) == {"r": -float(e / s)}  # P G - theta, G = 0


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


TINY = Fraction(1, 10**40)  # far below a float's precision at 1/3 or at 10**400
UTILITIES = (
    st.sampled_from([Fraction(1, 3), Fraction(1, 3) + TINY, Fraction(1, 3) - TINY,
                     Fraction(0), -TINY, TINY, Fraction(-1, 20), Fraction(-1, 20) + TINY,
                     Fraction(10**400), Fraction(10**400) + 1, Fraction(10**400, 3),
                     Fraction(-10**400), Fraction(-10**400) - TINY])
    | st.fractions(min_value=-5, max_value=5, max_denominator=12)
    | st.none()  # a rule no trigger touched
)


def exact_strategy(kind, targets, tiebreak):
    """(strategy, utilities): rules r0, r1, ... learn the targets through the triggers.

    Reinforcement at alpha = 1 learns U = R - (t - t_sel); success-cost at
    G = 0 learns U = -efforts / 2 after one success. A None target leaves
    its rule untouched, at the initial utility.
    """
    now = Fraction(1)
    if kind == "reinforcement":
        strategy, initial = ReinforcementUtility(alpha=1, tiebreak=tiebreak), Fraction(0)
    else:
        strategy, initial = SuccessCostUtility(goal_value=0, tiebreak=tiebreak), Fraction(-1, 20)
    utilities = {}
    for i, target in enumerate(targets):
        rule = f"r{i}"
        utilities[rule] = initial if target is None else target
        if target is None:
            continue
        if kind == "reinforcement":
            strategy.record_application(rule, now)
            strategy.trigger_reward(target, now)
        else:  # efforts 1/20 + (now - selected) = -2 target
            strategy.record_application(rule, now + 2 * target + Fraction(1, 20))
            strategy.trigger_outcome("success", now)
    return strategy, utilities


@pytest.mark.parametrize("kind", ["reinforcement", "success-cost"])
@settings(max_examples=300, deadline=None)
@given(
    targets=st.lists(UTILITIES | st.integers(min_value=-2, max_value=2), max_size=8),
    base=st.builds(Fraction, st.integers(2**53, 2**80), st.integers(2**53, 2**80)),
    tiebreak=st.sampled_from([FIRST_DECLARED, LAST_DECLARED]),
    order=st.randoms(use_true_random=False),
)
def test_select_on_float_keys_equals_select_winner_on_exact_utilities(
        kind, targets, base, tiebreak, order):
    # an int k stands for base + k TINY: neighbours whose n and d a float cannot hold
    targets = [base + t * TINY if isinstance(t, int) else t for t in targets]
    strategy, utilities = exact_strategy(kind, targets, tiebreak)
    assert {rule: strategy.utility(rule) for rule in utilities} == utilities
    candidates = [inst(rule, i) for i, rule in enumerate(utilities)]
    order.shuffle(candidates)
    expected = select_winner(candidates, utilities, tiebreak)
    assert strategy.select(candidates) is expected


@pytest.mark.parametrize("kind", ["reinforcement", "success-cost"])
@pytest.mark.parametrize("tiebreak", [FIRST_DECLARED, LAST_DECLARED])
def test_select_compares_exactly_where_floats_are_equal(kind, tiebreak):
    # each pair is one float apart by less than a float can hold
    for low, high in [(Fraction(1, 3), Fraction(1, 3) + TINY),
                      (Fraction(10**400), Fraction(10**400) + 1),
                      (Fraction(-10**400) - TINY, Fraction(-10**400))]:
        for targets in ([low, high], [high, low]):
            strategy, _ = exact_strategy(kind, targets, tiebreak)
            winner = targets.index(high)
            assert strategy.select([inst("r0", 0), inst("r1", 1)]).rule == f"r{winner}"
        strategy, _ = exact_strategy(kind, [high, low, high], tiebreak)
        candidates = [inst("r0", 0), inst("r1", 1), inst("r2", 2)]
        assert strategy.select(candidates).rule == ("r0" if tiebreak == FIRST_DECLARED else "r2")


@pytest.mark.parametrize("kind", ["reinforcement", "success-cost", "random-cost"])
@pytest.mark.parametrize("tiebreak", [FIRST_DECLARED, LAST_DECLARED])
@settings(max_examples=200, deadline=None)
@given(
    copies=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4),
    targets=st.lists(st.sampled_from([None, 0, 1]), min_size=4, max_size=4),
    order=st.randoms(use_true_random=False),
)
def test_select_keeps_the_first_of_candidates_that_share_a_source_index(
        kind, tiebreak, copies, targets, order):
    # rule ri, declared at index i, has copies[i] instantiations told apart by
    # their bindings; max() keeps the first of equal keys, and so must select()
    if kind == "random-cost":
        # every draw is 0, so u = P G: equal for rules of equal counters
        strategy = RandomCostUtility(rng=SimpleNamespace(random=lambda: 0.0), tiebreak=tiebreak)
        for i, target in enumerate(targets[:len(copies)]):
            if target == 1:  # one failure: P = 1/2
                strategy.record_application(f"r{i}", Fraction(i))
                strategy.trigger_outcome("failure", Fraction(i))
    else:
        strategy, _ = exact_strategy(kind, targets[:len(copies)], tiebreak)
    candidates = [Instantiation(f"r{i}", i, {"=x": j}, ())
                  for i, count in enumerate(copies) for j in range(count)]
    order.shuffle(candidates)
    utilities = strategy.score(candidates)
    assert strategy.select(candidates) is select_winner(candidates, utilities, tiebreak)


@pytest.mark.parametrize("cls", [ReinforcementUtility, SuccessCostUtility])
def test_exact_select_scores_no_lone_candidate(cls, monkeypatch):
    strategy = cls()
    monkeypatch.setattr(strategy, "score", None)  # calling it would raise
    lone = inst("a", 0)
    assert strategy.select([lone]) is lone
    assert strategy.select([]) is None


@pytest.mark.parametrize("cls", [ReinforcementUtility, SuccessCostUtility])
@pytest.mark.parametrize("tiebreak", [FIRST_DECLARED, LAST_DECLARED])
def test_exact_select_scores_no_tie(cls, tiebreak, monkeypatch):
    # every rule at its initial utility: the tie is decided on the stored pairs
    strategy = cls(tiebreak=tiebreak)
    monkeypatch.setattr(strategy, "score", None)  # calling it would raise
    monkeypatch.setattr(strategies_module, "Fraction", None)  # so would building one
    candidates = [inst("b", 1), inst("c", 2), inst("a", 0)]
    expected = "a" if tiebreak == FIRST_DECLARED else "c"
    assert strategy.select(candidates).rule == expected


@settings(max_examples=100, deadline=None)
@given(
    alpha=st.fractions(min_value=0, max_value=1, max_denominator=60).filter(bool),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_reinforcement_denominator_divides_b_to_the_k_times_1000(alpha, seed):
    # after k updates at alpha = a/b, on a millisecond clock with integer rewards
    rng = random.Random(seed)
    b = alpha.denominator
    strategy = ReinforcementUtility(alpha)
    updates = dict.fromkeys(RULES, 0)
    reference = {}
    tick = 0
    for _ in range(60):
        tick += rng.randint(1, 200)
        rule = rng.choice(RULES)
        strategy.record_application(rule, Fraction(tick, 1000))
        if rng.random() < 0.5:
            tick += rng.randint(0, 200)
            reward, now = rng.randint(-20, 20), Fraction(tick, 1000)
            for logged, selected in logged_seconds(strategy):
                updates[logged] += 1
                reference[logged] = reinforcement_update(
                    reference.get(logged, 0), alpha, reward - (now - selected))
            strategy.trigger_reward(reward, now)
    assert strategy.utilities == reference
    for rule, (n, c, p) in strategy._learned.items():  # the utility n / (c p)
        assert (b ** updates[rule] * 1000) % (c * p) == 0


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
    | st.tuples(st.just("score"), st.sets(st.sampled_from(RULES)), st.none())
    | st.tuples(st.just("select"), st.permutations(RULES), st.integers(0, len(RULES))),
    max_size=40,
)
READERS = ("counters", "utility", "success_probability")  # theta is read off the counters


def logged_seconds(strategy):
    """The applied log with each time in seconds, whether it counts ticks or not."""
    ticks = getattr(strategy, "ticks", None)
    if ticks is None:  # a strategy on the base class logs seconds
        return list(strategy.applied_log)
    return [(rule, Fraction(tick, ticks)) for rule, tick in strategy.applied_log]


def learning_state(strategy):
    """Everything a reader can ask a strategy about each rule."""
    readers = [getattr(strategy, name) for name in READERS if hasattr(strategy, name)]
    state = {r: tuple(read(r) for read in readers) for r in RULES}
    return state, logged_seconds(strategy)


PAIRS = {
    "reinforcement": lambda alpha, goal, seed, tiebreak: (
        ReinforcementUtility(alpha, tiebreak), ReferenceReinforcement(alpha, tiebreak)),
    "success-cost": lambda alpha, goal, seed, tiebreak: (
        SuccessCostUtility(goal, tiebreak), ReferenceSuccessCost(goal, tiebreak)),
    "random-cost": lambda alpha, goal, seed, tiebreak: (
        RandomCostUtility(goal, seed=seed, tiebreak=tiebreak),
        ReferenceRandomCost(goal, seed=seed, tiebreak=tiebreak)),
}


@pytest.mark.parametrize("kind", sorted(PAIRS))
@settings(max_examples=300, deadline=None)
@given(
    operations=OPERATIONS,
    alpha=st.fractions(min_value=0, max_value=1).filter(bool),
    goal=st.fractions(min_value=-30, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32),
    tiebreak=st.sampled_from([FIRST_DECLARED, LAST_DECLARED]),
)
def test_strategy_equals_the_reference_strategy(kind, operations, alpha, goal, seed, tiebreak):
    strategy, reference = PAIRS[kind](alpha, goal, seed, tiebreak)
    now = Fraction(0)
    for op, arg, step in operations:
        if op == "score":
            candidates = [inst(r, RULES.index(r)) for r in sorted(arg)]
            assert strategy.score(candidates) == reference.score(candidates)
        elif op == "select":  # a conflict set of `step` rules, in any order
            candidates = [inst(r, RULES.index(r)) for r in arg[:step]]
            assert strategy.select(candidates) is reference.select(candidates)
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
