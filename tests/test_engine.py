from __future__ import annotations

import math
import random
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from actrsim import engine as engine_module
from actrsim.chunks import ChunkType
from actrsim.engine import (
    FIRE_LATENCY_TICKS,
    Engine,
    TraceEntry,
    compile_model,
    format_trace_entry,
    seconds,
)
from actrsim.errors import (
    EngineError,
    ModelSyntaxError,
    ProviderExhausted,
    TimeInPast,
    UnhashableValue,
)
from actrsim.experiment import builtin_model_text, builtin_samples
from actrsim.model import (
    BufferTest,
    ChunkSpec,
    ModelAST,
    Production,
    is_variable,
    parse_model,
    validate_model,
)
from actrsim.strategies import (
    RandomCostUtility,
    ReinforcementUtility,
    SuccessCostUtility,
    refraction_prune,
)

from oracle import linear_scan
from test_refraction import random_model, strategy_for


def goal_model(me="rock", opponent="scissors", extra_rules=""):
    return parse_model(
        "(chunk-type game me opponent result)"
        f"(add-dm (g1 isa game me {me} opponent {opponent}))"
        "(goal-focus goal g1)"
        "(p recognize-win"
        "   =goal> isa game me rock opponent scissors"
        " ==>"
        "   =goal> result win)"
        + extra_rules
    )


def engine_for(model, strategy=None, providers=None, refraction=False):
    return Engine(model, strategy or ReinforcementUtility(), providers, refraction)


# -- matching ---------------------------------------------------------------------

def test_find_instantiations_constant_match():
    engine = engine_for(goal_model())
    (inst,) = engine.find_instantiations()
    assert inst.rule == "recognize-win"
    assert inst.bindings == {}
    assert inst.matched == (
        ("goal", "g1", (("me", "rock"), ("opponent", "scissors"))),
    )


def test_find_instantiations_constant_mismatch():
    engine = engine_for(goal_model(me="paper"))
    assert engine.find_instantiations() == ()


def test_find_instantiations_variable_capture():
    model = parse_model(
        "(chunk-type game me opponent result)"
        "(add-dm (g1 isa game opponent scissors))"
        "(goal-focus goal g1)"
        "(p watch =goal> isa game opponent =x ==> =goal> me =x)"
    )
    (inst,) = engine_for(model).find_instantiations()
    assert inst.bindings == {"=x": "scissors"}


def test_find_instantiations_variable_must_bind_consistently():
    model = parse_model(
        "(chunk-type game me opponent result)"
        "(add-dm (g1 isa game me rock opponent scissors))"
        "(goal-focus goal g1)"
        "(p same =goal> isa game me =x opponent =x ==> -goal>)"
    )
    assert engine_for(model).find_instantiations() == ()


def test_unset_slot_does_not_match_nil():
    model = parse_model(
        "(chunk-type game me opponent result)"
        "(add-dm (g1 isa game))"  # no slots filled
        "(goal-focus goal g1)"
        "(p r =goal> isa game me nil ==> -goal>)"
    )
    assert engine_for(model).find_instantiations() == ()


def test_type_must_match_exactly():
    model = parse_model(
        "(chunk-type game me opponent result)(chunk-type deal me)"
        "(add-dm (g1 isa deal me rock))"
        "(goal-focus goal g1)"
        "(p r =goal> isa game me rock ==> -goal>)"
    )
    assert engine_for(model).find_instantiations() == ()


# -- cycle timing --------------------------------------------------------------------

def pending_firing(engine):
    """Pop the one pending event; it is the selected instantiation's firing."""
    assert len(engine.queue) == 1
    return engine.queue.pop_next()


def test_selection_schedules_apply_after_fire_latency(rps_model):
    strategy = ReinforcementUtility()  # last-declared tie-break
    engine = Engine(rps_model, strategy, {"next-move": iter(["rock"])})
    engine.run(Fraction(0))  # processes only the t=0 match
    event = pending_firing(engine)
    assert event.time == FIRE_LATENCY_TICKS
    assert event.payload.rule == "play-scissors"
    engine.queue.schedule(event.time, 0, event.payload)  # put it back, then fire it
    engine.run(Fraction(1, 20))
    assert strategy.applied_log == [("play-scissors", 0)]  # selected at t=0


@given(tick=st.integers(min_value=-FIRE_LATENCY_TICKS, max_value=10**7))
def test_seconds_is_the_exact_time_of_a_tick(tick):
    assert seconds(tick) == Fraction(tick, 1000)
    assert type(seconds(tick)) is Fraction


def test_seconds_table_is_bounded():
    assert seconds.cache_info().maxsize == 4096


def test_time_text_table_is_bounded():
    table = engine_module._time_text
    assert table.cache_info().maxsize == 4096
    # more distinct times than the table holds, then the first ones again
    times = [Fraction(tick, 1000) for tick in range(-50, 5000)]
    times += [Fraction(1, n) for n in range(3, 200)]
    for time in times + times[:300]:
        for bindings in ({}, {"=x": "rock"}, {"=y": 2, "=x": "a"}):
            entry = TraceEntry(time, "r", bindings, ())
            assert format_trace_entry(entry) == reference_format_trace_entry(entry)
    assert table.cache_info().currsize == 4096


def test_trace_time_prints_as_its_float():
    # every millisecond over the span of the 4,096 ticks the table holds, 50 ms apart
    for tick in range(-FIRE_LATENCY_TICKS, FIRE_LATENCY_TICKS * 4096):
        time = Fraction(tick, 1000)
        line = format_trace_entry(TraceEntry(time, "r", {}, ()))
        assert line == f"{float(time):.3f}\tr\t-"


def reference_format_trace_entry(entry):
    """format_trace_entry as one line builds it: sorted names, '-' for none."""
    bindings = ",".join(f"{v}={entry.bindings[v]}" for v in sorted(entry.bindings))
    time = entry.time  # n / d is the correctly rounded float that float() gives
    return f"{time.numerator / time.denominator:.3f}\t{entry.rule}\t{bindings or '-'}"


TRACE_TIMES = [
    Fraction(0), Fraction(1, 20), Fraction(1, 3), Fraction(-2, 3), Fraction(7, 1000),
    Fraction(1, 2000), Fraction(3, 2000), Fraction(2001, 2000), Fraction(-1, 2000),
    Fraction(10**30 + 1, 10**30), Fraction(2**64 - 1, 2**61), Fraction(1, 10**40),
    Fraction(10**20 * 2001, 2000 * 10**20 + 1),
]


@given(
    time=st.one_of(st.sampled_from(TRACE_TIMES), st.fractions(),
                   st.integers(-10**6, 10**8).map(lambda tick: Fraction(tick, 1000)),
                   st.integers(-10**6, 10**6).map(lambda n: Fraction(2 * n + 1, 2000))),
    bindings=st.dictionaries(st.from_regex(r"=[a-z]{1,3}", fullmatch=True),
                             st.one_of(st.text(max_size=4), st.integers()), max_size=5),
    order=st.randoms(use_true_random=False),
)
def test_trace_lines_equal_the_one_line_formatting(time, bindings, order):
    items = list(bindings.items())
    order.shuffle(items)  # the names in any insertion order
    entry = TraceEntry(time, "rule-1", dict(items), ())
    assert format_trace_entry(entry) == reference_format_trace_entry(entry)


def test_trace_lines_for_none_one_and_several_bindings():
    for bindings, text in [({}, "-"), ({"=x": "rock"}, "=x=rock"),
                           ({"=y": 2, "=x": "a", "=b": ""}, "=b=,=x=a,=y=2")]:
        for time in TRACE_TIMES:
            entry = TraceEntry(time, "r", bindings, ())
            assert format_trace_entry(entry) == reference_format_trace_entry(entry)
            assert format_trace_entry(entry).endswith(f"\tr\t{text}")


@pytest.mark.parametrize("refraction, now", [(False, 2), (True, Fraction(3, 10))])
def test_nothing_can_be_queued_before_the_engine_clock(rps_model, refraction, now):
    # the run stops on its limit, or halts under refraction at 0.3 s
    engine = Engine(rps_model, ReinforcementUtility(), {"next-move": iter(["rock"] * 20)},
                    refraction)
    engine.run(Fraction(2))
    assert engine.now() == now
    assert engine.queue.now() == now * 1000
    with pytest.raises(TimeInPast):
        engine.queue.schedule(now * 1000 - 1000, 0, None)  # 1 s in the engine's past


def serve_every_event(engine, t_limit):
    """Engine.run as one event per firing: pop every due event in the queue's order."""
    limit = math.floor(Fraction(t_limit) * 1000)
    queue = engine.queue
    while queue.peek_time() is not None and queue.peek_time() <= limit:
        event = queue.pop_next()
        if event.payload is not None:
            engine._apply(event.payload, event.time)
        candidates = engine.find_instantiations()
        if engine.refraction:
            candidates = refraction_prune(candidates, engine.refraction_history)
        winner = engine.strategy.select(candidates)
        if winner is not None:
            queue.schedule(event.time + FIRE_LATENCY_TICKS, 0, winner)


@pytest.mark.parametrize("refraction", [False, True])
@pytest.mark.parametrize("events", [[(1000, 0)], [(1000, -1)], [(1020, 0), (1500, 3)]])
def test_an_event_queued_beside_the_pending_firing_is_served_in_time_order(
        rps_model, refraction, events):
    engines = [Engine(rps_model, RandomCostUtility(seed=5), {"next-move": iter(["rock"] * 200)},
                      refraction) for _ in range(2)]
    for engine in engines:
        engine.run(0)
        for time, priority in events:  # a match at time, beside the pending firing
            engine.queue.schedule(time, priority, None)
    engine, reference = engines
    for limit in (Fraction(1, 2), 1, Fraction(21, 20), 2, 3):
        engine.run(limit)
        serve_every_event(reference, limit)
        assert engine.trace == reference.trace
        assert engine.queue.now() == reference.queue.now()
        assert len(engine.queue) == len(reference.queue)
    assert [entry.time for entry in engine.trace] == sorted(entry.time for entry in engine.trace)
    assert refraction or engine.trace[-1].time == 3  # not halted: it fired on past the events


def test_a_firing_that_raises_beside_a_queued_event_raises_its_own_error(rps_model):
    engine = Engine(rps_model, ReinforcementUtility(), {"next-move": iter(["rock"] * 10)})
    engine.run(0)
    engine.queue.schedule(1000, 0, None)
    with pytest.raises(ProviderExhausted):  # the eleventh play, at 1.05 s, past the event
        engine.run(Fraction(2))
    assert engine.now() == Fraction(21, 20)  # the firing that ran out was processed
    assert engine.trace[-1].time == Fraction(21, 20)  # the other firing at 1.05 s
    assert len(engine.queue) == 1


def test_halts_when_nothing_matches_and_queue_empty():
    engine = engine_for(goal_model(me="paper"))
    engine.run(Fraction(10))
    assert engine.now() == 0
    assert engine.trace == []


def test_round_structure_and_latency(rps_model):
    engine = Engine(
        rps_model, ReinforcementUtility(), {"next-move": iter(["rock"] * 20)}
    )
    trace = engine.run(Fraction(2))
    assert len(trace) == 40  # 20 rounds, one play and one outcome rule each
    plays = trace[0::2]
    outcomes = trace[1::2]
    for round_index, (play, outcome) in enumerate(zip(plays, outcomes)):
        start = Fraction(round_index, 10)
        assert play.time == start + Fraction(1, 20)
        assert outcome.time == start + Fraction(1, 10)
        assert play.rule.startswith("play-")
        assert outcome.rule.startswith("detect-")


def test_rule_with_no_actions_only_reschedules_match():
    model = parse_model(
        "(chunk-type game me opponent result)"
        "(add-dm (g1 isa game me rock))"
        "(goal-focus goal g1)"
        "(p idle =goal> isa game me rock ==> )"
    )
    engine = engine_for(model)
    engine.run(Fraction(1, 20))
    assert [e.rule for e in engine.trace] == ["idle"]
    # buffers untouched; the follow-up match re-selected on the unchanged state
    assert engine.chunks["g1"].slot_values.get("me") == "rock"
    event = pending_firing(engine)
    assert event.payload.rule == "idle" and event.time == 100  # 0.1 s


class KeepsLog(ReinforcementUtility):
    """Reinforcement whose rewards leave the applied log as it is."""

    def trigger_reward(self, amount, now):
        pass


def test_effects_apply_before_next_match(rps_model):
    strategy = KeepsLog()
    engine = Engine(rps_model, strategy, {"next-move": iter(["rock"])})
    engine.run(Fraction(1, 20))  # play-scissors fires at 0.05
    assert engine.chunks["g1"].slot_values.get("me") == "scissors"
    assert engine.chunks["g1"].slot_values.get("opponent") == "rock"
    # the 0.05 match already selected detect-defeat-scissors on the new state
    event = pending_firing(engine)
    assert event.payload.rule == "detect-defeat-scissors"
    engine.queue.schedule(event.time, 0, event.payload)  # put it back, then fire it
    engine.run(Fraction(1, 10))
    assert strategy.ticks == 1000  # the log counts milliseconds: selected at 0.05 s
    assert strategy.applied_log[-1] == ("detect-defeat-scissors", 50)


def test_provider_consumed_once_per_application(rps_model):
    moves = iter(["rock", "paper"])
    engine = Engine(rps_model, ReinforcementUtility(), {"next-move": moves})
    engine.run(Fraction(1, 10))  # one full round: one play, one outcome
    assert next(moves) == "paper"  # second value still unconsumed after round 1


def test_provider_exhausted(rps_model):
    engine = Engine(rps_model, ReinforcementUtility(), {"next-move": iter([])})
    with pytest.raises(ProviderExhausted):
        engine.run(Fraction(2))
    assert engine.now() == Fraction(1, 20)  # the firing that ran out was processed
    assert len(engine.queue) == 0


def test_binds_are_drawn_in_text_order():
    # =b is read first, but =a is bound first, so =a takes the first value
    model = parse_model(
        "(chunk-type t s1 s2)(add-dm (c1 isa t s1 start))(goal-focus goal c1)"
        "(p r =goal> isa t s1 start ==> !bind! =a p !bind! =b p =goal> s1 =b s2 =a)"
    )
    engine = engine_for(model, providers={"p": iter(["first", "second"])})
    engine.run(Fraction(1))
    assert [entry.bindings for entry in engine.trace] == [{"=a": "first", "=b": "second"}]
    assert engine.chunks["c1"].slot_values == {"s1": "second", "s2": "first"}


def test_provider_running_out_applies_no_action_of_the_rule():
    # the bind stands before the second modification, which alone reads it
    model = parse_model(
        "(chunk-type game me)(chunk-type count n)"
        "(add-dm (g1 isa game me rock) (c1 isa count n one))"
        "(goal-focus goal g1)(goal-focus counter c1)"
        "(p r =goal> isa game me rock =counter> isa count n one"
        " ==> =goal> me paper !bind! =x p =counter> n =x -counter>)"
    )
    engine = engine_for(model, providers={"p": iter([])})
    with pytest.raises(ProviderExhausted):
        engine.run(Fraction(1))
    assert engine.held == {"goal": "g1", "counter": "c1"}
    assert engine.chunks["g1"].slot_values == {"me": "rock"}
    assert engine.chunks["c1"].slot_values == {"n": "one"}
    assert engine.trace == []


def test_missing_provider(rps_model):
    with pytest.raises(ProviderExhausted, match="no provider"):
        Engine(rps_model, ReinforcementUtility(), {})


def test_clearing_action_empties_buffer():
    model = parse_model(
        "(chunk-type game me opponent result)"
        "(add-dm (g1 isa game me rock))"
        "(goal-focus goal g1)"
        "(p done =goal> isa game me rock ==> -goal>)"
    )
    engine = engine_for(model)
    engine.run(Fraction(1))
    assert engine.held["goal"] is None
    assert engine.chunks["g1"].slot_values.get("me") == "rock"  # chunk survives
    assert [e.rule for e in engine.trace] == ["done"]  # cannot rematch, halts


@pytest.mark.parametrize("limit", ["2", None, 2 + 0j])
def test_a_limit_that_is_no_real_number_is_a_type_error(limit, rps_model):
    engine = engine_for(rps_model, providers={"next-move": iter(["rock"])})
    with pytest.raises(TypeError, match=re.escape(f"the limit {limit!r} is not")):
        engine.run(limit)
    assert engine.trace == [] and len(engine.queue) == 1


# 0.1 as a float lies just above 1/10, its lower neighbour just below
@pytest.mark.parametrize("limit", [
    Fraction(1, 10), Fraction(999, 10000), 0.1, 0.09999999999999999, math.inf,
    -math.inf, math.nan,
])
def test_limits_compare_exactly_with_the_tick_clock(limit):
    model = parse_model(
        "(chunk-type count n)(add-dm (c1 isa count n one))(goal-focus goal c1)"
        "(p one =goal> isa count n one ==> =goal> n two)"
        "(p two =goal> isa count n two ==> -goal>)"
    )
    engine = engine_for(model)
    if limit != limit:  # NaN is no limit: the run refuses it and fires nothing
        with pytest.raises(ValueError, match="cannot run to the limit nan"):
            engine.run(limit)
        assert engine.trace == [] and len(engine.queue) == 1
        return
    trace = engine.run(limit)
    times = [Fraction(1, 20), Fraction(1, 10)]  # fire at 0.05 s and 0.1 s
    assert [e.time for e in trace] == [time for time in times if time <= limit]


def chain_program(steps):
    """steps rules, each firing once in turn: ticks 50, 100, ..., 50 * steps."""
    rules = "".join(f"(p s{i} =goal> isa count n n{i} ==> =goal> n n{i + 1})"
                    for i in range(steps))
    return compile_model(parse_model(
        "(chunk-type count n)(add-dm (c1 isa count n n0))(goal-focus goal c1)" + rules))


CHAIN_STEPS = 42
CHAIN = chain_program(CHAIN_STEPS)
CHAIN_TICKS = range(FIRE_LATENCY_TICKS, FIRE_LATENCY_TICKS * CHAIN_STEPS + 1, FIRE_LATENCY_TICKS)
LIMIT_EDGES = [
    0, 1, 2, -1, 10**30, 1e300, -1e300, 5e-324, -5e-324, 0.0, -0.0, 0.05, 0.1, 1.033,
    math.nextafter(0.05, 0), math.nextafter(0.1, 1), Fraction(1, 3), Fraction(-1, 20),
    Fraction(1033, 1000), Fraction(1, 20) - Fraction(1, 10**40),
    Fraction(10**40 + 1, 2 * 10**40 - 1), Fraction(-(10**40) - 1, 10**40),
]
LIMITS = st.one_of(
    st.sampled_from(LIMIT_EDGES),
    st.integers(-3, 3),
    st.integers(),
    # negative, off the 50 ms grid, and with denominators of up to 40 digits
    st.fractions(min_value=-1, max_value=3, max_denominator=10**40),
    st.builds(lambda tick, offset, d: Fraction(tick, 1000) + Fraction(offset, d),
              st.integers(-60, 2200), st.integers(-2, 2), st.sampled_from([10**40, 3, 10**39 + 7])),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-0.2, 2.3),
    st.integers(-60, 2200).map(lambda tick: tick / 1000),  # the floats nearest the ticks
    st.integers(-60, 2200).map(lambda tick: math.nextafter(tick / 1000, 0)),
)


@given(limit=LIMITS)
def test_drawn_limits_fire_the_ticks_at_or_below_their_floor_in_ticks(limit):
    floor = math.floor(Fraction(limit) * 1000)
    trace = Engine(CHAIN, ReinforcementUtility()).run(limit)
    assert [entry.time * 1000 for entry in trace] == [t for t in CHAIN_TICKS if t <= floor]


def test_trace_determinism(rps_model):
    def run_once():
        engine = Engine(
            rps_model,
            SuccessCostUtility(),
            {"next-move": iter(["rock", "paper"] * 10)},
        )
        return [format_trace_entry(e) for e in engine.run(Fraction(2))]

    assert run_once() == run_once()


def test_t_limit_zero_applies_nothing(rps_model):
    strategy = ReinforcementUtility()
    engine = Engine(rps_model, strategy, {"next-move": iter(["rock"] * 20)})
    engine.run(Fraction(0))
    assert engine.trace == []
    assert strategy.utilities == {}


def test_only_one_apply_pending_at_a_time(rps_model):
    moves = [{"r": "rock", "p": "paper", "s": "scissors"}[m]
             for m in builtin_samples(3)[0]]
    engines = [
        Engine(rps_model, make(), {"next-move": iter(moves)}, refraction)
        for make in (ReinforcementUtility, SuccessCostUtility,
                     lambda: RandomCostUtility(seed=3))
        for refraction in (False, True)
    ]
    rng = random.Random(11)
    engines += [
        Engine(random_model(rng), strategy_for(index, index), refraction=index % 2 == 0)
        for index in range(200)
    ]
    depths = []  # len(engine.queue) after every schedule
    for engine in engines:
        original = engine.queue.schedule

        def counting_schedule(time, priority, payload, engine=engine, original=original):
            original(time, priority, payload)
            depths.append(len(engine.queue))

        engine.queue.schedule = counting_schedule
        # a firing is queued only when a run stops on its limit: stop every 50 ms
        for step in range(1, 41):
            engine.run(Fraction(step, 20))
    assert max(depths) == 1
    assert len(depths) > 1000  # the engines genuinely fire


def test_modifications_apply_before_clearings():
    model = parse_model(
        "(chunk-type game me opponent result)"
        "(add-dm (g1 isa game me rock))"
        "(goal-focus goal g1)"
        "(p reset =goal> isa game me rock ==> -goal> =goal> me paper)"
    )
    engine = engine_for(model)
    engine.run(Fraction(1))
    assert engine.held["goal"] is None
    assert engine.chunks["g1"].slot_values.get("me") == "paper"
    assert [e.rule for e in engine.trace] == ["reset"]


def one_buffer_model(*productions):
    return ModelAST(
        chunk_types=(ChunkType("game", ("me",)),),
        initial_chunks=(ChunkSpec("g1", "game", (("me", "rock"),)),),
        buffer_inits=(("goal", "g1"),),
        productions=productions,
    )


def write_me(name, expects, writes):
    return Production(name, (BufferTest("goal", "game", (("me", expects),)),),
                      modifications=(("goal", (("me", writes),)),))


def test_unbound_rhs_variable_is_rejected_when_the_engine_is_built():
    # parse_model reads this rule from text too: validate_model is what rejects it
    model = one_buffer_model(write_me("r", "rock", "=x"))
    diagnostic = "rule 'r' updates slot 'me' with unbound variable '=x'"
    assert validate_model(model) == [diagnostic]
    with pytest.raises(ModelSyntaxError, match=diagnostic):
        engine_for(model)


# -- indexed matcher against the uncompiled linear scan ----------------------------

def check_every_cycle(engine, model):
    """Make `engine` compare its matcher with the oracle on every match cycle."""
    compiled = engine.find_instantiations
    cycles = []

    def both():
        got = compiled()
        assert got == tuple(linear_scan(engine, model.productions))  # same order, too
        cycles.append(len(got))
        return got

    engine.find_instantiations = both
    return cycles


def test_compiled_matcher_equals_oracle_on_random_models():
    rng = random.Random(31)
    cycles = []
    states = 0  # what the engines' memos hold: each engine compiles its own Program
    for index in range(500):
        model = random_model(rng)
        engine = Engine(model, strategy_for(index, index), refraction=index % 2 == 0)
        checked = check_every_cycle(engine, model)
        engine.run(Fraction(1))
        cycles += checked
        states += len(engine.program.memo)
    assert len(cycles) > 5000 and sum(cycles) > len(cycles)  # real conflict sets
    assert states < len(cycles) / 2  # most cycles were memo hits, checked all the same


def test_compiled_matcher_equals_oracle_on_bundled_model(rps_model):
    moves = [{"r": "rock", "p": "paper", "s": "scissors"}[m]
             for m in builtin_samples(3)[0]]
    for make in (ReinforcementUtility, SuccessCostUtility,
                 lambda: RandomCostUtility(seed=3)):
        for refraction in (False, True):
            engine = Engine(rps_model, make(), {"next-move": iter(moves)}, refraction)
            cycles = check_every_cycle(engine, rps_model)
            engine.run(Fraction(2))
            assert cycles
            assert len(engine.program.memo) < len(cycles)  # a state recurred


ACROSS_BUFFERS = (
    "(chunk-type game me opponent result)(chunk-type count n)"
    "(add-dm (g1 isa game me rock) (c1 isa count n one))"
    "(goal-focus goal g1)(goal-focus counter c1)"
    "(p step =goal> isa game me =m =counter> isa count n =n"
    " ==> =goal> result =n =counter> n two)"
    "(p wrong-type =goal> isa count n one ==> -goal>)"
    "(p finish =goal> isa game result two =counter> isa count n two"
    " ==> -goal> =counter> n three)"
    "(p after =counter> isa count n three ==> -counter>)"
)


def test_compiled_matcher_equals_oracle_across_buffers_and_types():
    # two buffers, clearings and a type mismatch
    model = parse_model(ACROSS_BUFFERS)
    engine = engine_for(model)
    cycles = check_every_cycle(engine, model)
    engine.run(Fraction(1))
    assert [e.rule for e in engine.trace] == ["step", "step", "finish", "after"]
    assert len(cycles) == 5
    # a rule testing an undeclared buffer never reaches the matcher
    elsewhere = ACROSS_BUFFERS + "(p elsewhere =visual> isa game ==> -goal>)"
    with pytest.raises(ModelSyntaxError, match="undeclared buffer 'visual'"):
        engine_for(parse_model(elsewhere))


# each buffer's type; the last slot of each type is never set
TWO_BUFFER_TYPES = {"goal": ChunkType("game", ("me", "opponent", "result")),
                    "counter": ChunkType("count", ("n", "extra"))}


def two_buffer_model(rng: random.Random) -> ModelAST:
    """Rules with 0-2 tests over two buffers and two types, for the matcher.

    Tests mostly use the buffer's type, sometimes the other one; slots get
    constants, variables shared across buffers (so a first test may hold
    only variables), or nothing. Rules modify only buffers they test, with
    constants or bound variables, and may clear any buffer.
    """
    values, variables = ["x", "y"], ["=a", "=b"]
    buffers = list(TWO_BUFFER_TYPES)
    productions = []
    for i in range(rng.randint(4, 10)):
        tests, bound = [], []
        for buffer in rng.sample(buffers, rng.choice([0, 1, 1, 2, 2])):
            ctype = TWO_BUFFER_TYPES[buffer]
            if rng.random() < 0.15:
                ctype = TWO_BUFFER_TYPES[buffers[buffers.index(buffer) - 1]]
            slot_tests = []
            for slot in ctype.slots:
                drawn = rng.random()
                if drawn < 0.35:
                    slot_tests.append((slot, rng.choice(values)))
                elif drawn < 0.65:
                    slot_tests.append((slot, rng.choice(variables)))
            bound += [v for _, v in slot_tests if is_variable(v)]
            tests.append(BufferTest(buffer, ctype.name, tuple(slot_tests)))
        modifications = []
        for test in tests:
            if rng.random() < 0.7:
                settable = TWO_BUFFER_TYPES[test.buffer].slots[:-1]
                updates = tuple(
                    (slot, rng.choice(values + bound))
                    for slot in settable if rng.random() < 0.6
                )
                modifications.append((test.buffer, updates))
        clearings = (rng.choice(buffers),) if rng.random() < 0.3 else ()
        productions.append(Production(f"rule{i}", tuple(tests),
                                      modifications=tuple(modifications),
                                      clearings=clearings))
    return ModelAST(
        chunk_types=tuple(TWO_BUFFER_TYPES.values()),
        initial_chunks=(
            ChunkSpec("g1", "game", (("me", rng.choice(values)),
                                     ("opponent", rng.choice(values)))),
            ChunkSpec("c1", "count", (("n", rng.choice(values)),)),
        ),
        buffer_inits=(("goal", "g1"), ("counter", "c1")),
        productions=tuple(productions),
        annotations={},
    )


def test_indexed_matcher_equals_oracle_on_two_buffer_models():
    rng = random.Random(47)
    cycles = []
    merged = 0  # engines whose survivors can come from more than one group
    for index in range(400):
        model = two_buffer_model(rng)
        engine = Engine(model, strategy_for(index, index), refraction=index % 2 == 0)
        merged += len(engine.program.index) + bool(engine.program.untested) > 1
        checked = check_every_cycle(engine, model)
        engine.run(Fraction(1))
        cycles += checked
    assert merged > 300
    assert len(cycles) > 4000 and sum(cycles) > len(cycles)
    assert cycles.count(0) > 40  # and empty ones, where a run halts


def test_indexed_matcher_equals_oracle_on_a_shuffled_400_rule_chain():
    order = list(range(400))
    random.Random(5).shuffle(order)
    model = parse_model(
        "(chunk-type link state tag)(add-dm (c0 isa link state s0 tag t0))"
        "(goal-focus goal c0)"
        + "".join(
            f"(p r{k} =goal> isa link state s{k} tag =v"
            f" ==> =goal> state s{k + 1} tag t{k + 1})"
            for k in order
        )
    )
    engine = engine_for(model)
    cycles = check_every_cycle(engine, model)
    engine.run(math.inf)
    assert [e.rule for e in engine.trace] == [f"r{k}" for k in range(400)]
    assert cycles == [1] * 400 + [0]


# -- runs sharing one compiled Program against runs from the AST ---------------------

def outcome(engine, rules):
    """Trace, final buffers and chunk slots, and each rule's utility."""
    return (
        [(e.time, e.rule, e.bindings, e.identity) for e in engine.trace],
        dict(engine.held),
        {name: dict(chunk.slot_values) for name, chunk in engine.chunks.items()},
        [engine.strategy.utility(rule) for rule in rules],
    )


def test_runs_sharing_a_program_equal_runs_from_the_ast():
    rng = random.Random(71)
    models = ([random_model(rng) for _ in range(100)]
              + [two_buffer_model(rng) for _ in range(100)])
    firings = 0
    for number, model in enumerate(models):
        program = compile_model(model)
        rules = [p.name for p in model.productions]
        for index in range(6):  # three strategies, without and with refraction
            shared, fresh = (
                Engine(source, strategy_for(index, number), refraction=index >= 3)
                for source in (program, model)
            )
            shared.run(Fraction(1))
            fresh.run(Fraction(1))
            assert outcome(shared, rules) == outcome(fresh, rules)
            firings += len(shared.trace)
        # the runs left it as compiled, but for the memo they wrote
        assert program._replace(memo={}) == compile_model(model)
    assert firings > 10000  # the runs fire


# -- the conflict-set memo each Program keeps -------------------------------------

def compare(*args):
    """test_whole_run.compare, imported when first called: it imports this module."""
    from test_whole_run import compare as against_reference_run
    return against_reference_run(*args)


def memo_cases(rps_model):
    """(model, t_limit, providers) for the bundled model and generated ones."""
    rng = random.Random(83)
    moves = [rng.choice(["rock", "paper", "scissors"]) for _ in range(20)]
    cases = [(rps_model, Fraction(2), lambda: {"next-move": iter(moves)})]
    cases += [(random_model(rng), Fraction(1), dict) for _ in range(40)]
    cases += [(two_buffer_model(rng), Fraction(1), dict) for _ in range(40)]
    return cases


def test_engines_sharing_a_program_and_its_memo_equal_the_reference_run(rps_model):
    firings = states = 0
    for number, (model, t_limit, providers) in enumerate(memo_cases(rps_model)):
        program = compile_model(model)
        for index in range(6):  # three strategies, without and with refraction
            firings += len(compare(model, index, number, t_limit, providers, program).trace)
        states += len(program.memo)
    assert states < firings / 4  # the later runs matched from the earlier ones' memo


def test_a_full_memo_stores_no_more_states(monkeypatch, rps_model):
    monkeypatch.setattr(engine_module, "MATCH_MEMO_STATES", 2)
    full = 0
    for number, (model, t_limit, providers) in enumerate(memo_cases(rps_model)):
        program = compile_model(model)
        for index in range(6):  # a memo only grows: its size after a run bounds it
            engine = Engine(program, strategy_for(index, number), providers(), index >= 3)
            check_every_cycle(engine, model)
            engine.run(t_limit)
            assert len(program.memo) <= 2
            compare(model, index, number, t_limit, providers, program)
            assert len(program.memo) <= 2
        full += len(program.memo) == 2
    assert full > 40  # the cap, not the runs, stopped most memos


def test_engines_in_threads_share_a_program_and_its_memo(rps_model):
    moves = [random.Random(89).choice(["rock", "paper", "scissors"]) for _ in range(20)]

    def runs(program):  # three strategies, without and with refraction
        traces = []
        for index in range(6):
            engine = Engine(program, strategy_for(index, index),
                            {"next-move": iter(moves)}, index >= 3)
            engine.run(Fraction(2))
            traces.append([(e.time, e.rule, e.bindings, e.identity) for e in engine.trace])
        return traces

    expected = runs(compile_model(rps_model))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for _ in range(5):  # each round starts from an empty memo
            program = compile_model(rps_model)
            results = []
            threads = [threading.Thread(target=lambda: results.append(runs(program)))
                       for _ in range(4)]  # four threads race for one empty memo
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


def test_changing_a_trace_entry_leaves_the_memo_as_it_was(rps_model):
    # the detect rules bind nothing: their entries' empty dicts are changed as well
    moves = [{"r": "rock", "p": "paper", "s": "scissors"}[m] for m in builtin_samples(2)[0]]

    def trace(source, index):
        engine = Engine(source, strategy_for(index, 7), {"next-move": iter(moves)}, index >= 3)
        return engine.run(Fraction(2))

    program = compile_model(rps_model)
    for index in range(6):  # three strategies, without and with refraction
        changed = trace(program, index)
        assert any(not entry.bindings for entry in changed)
        for entry in changed:
            for variable in entry.bindings:
                entry.bindings[variable] = "changed"
            entry.bindings["=changed"] = "changed"
        assert trace(program, index) == trace(compile_model(rps_model), index)


def test_a_caller_cannot_change_a_memoized_conflict_set(rps_model):
    # the memo's own entry is handed out, and a tuple has no way to change it
    engine = engine_for(rps_model, providers={"next-move": iter(["rock"])})
    found = engine.find_instantiations()
    assert isinstance(found, tuple)
    assert engine.find_instantiations() == found
    assert found == tuple(linear_scan(engine, rps_model.productions)) != ()


def test_the_memo_tells_apart_chunks_that_hold_equal_slots():
    # held is the engine's state: a buffer focused on another chunk is another state
    model = parse_model(
        "(chunk-type game me)(add-dm (g1 isa game me rock) (g2 isa game me rock))"
        "(goal-focus goal g1)(p r =goal> isa game me rock ==> -goal>)"
    )
    engine = engine_for(model)
    for name in ("g1", "g2", None, "g1"):
        engine.held["goal"] = name
        assert engine.find_instantiations() == tuple(linear_scan(engine, model.productions))
    assert len(engine.program.memo) == 3


# -- links between memoized states ------------------------------------------------

def linked(program):
    """The rule of each link's instantiation, one per link in the program's memo."""
    return [inst.rule for _, links in program.memo.values() for inst, _ in links.values()]


# copy's instantiation depends on a, which the move rules change: a copy selected
# while a is x can fire after a became y, and then writes x
COPY = (
    "(chunk-type g a b)(add-dm (g1 isa g a x b nil))(goal-focus goal g1)"
    "(p copy =goal> isa g a =v b nil ==> =goal> b =v)"
    "(p to-y =goal> isa g a x ==> =goal> a y)"
    "(p to-x =goal> isa g a y ==> =goal> a x)"
    "(p reset =goal> isa g b =w ==> =goal> b nil)"
)


def test_a_link_is_followed_only_for_the_instantiation_it_recorded():
    model = parse_model(COPY)
    program = compile_model(model)
    late = 0  # firings selected before the state they fired from
    for seed in range(12):  # engines sharing the program and its links
        engine = Engine(program, RandomCostUtility(seed=seed))
        check_every_cycle(engine, model)
        engine.run(0)
        rng = random.Random(seed)
        for _ in range(30):  # a match beside the pending firing
            engine.queue.schedule(rng.randrange(1, 3000), rng.choice([-1, 0, 1]), None)
        for limit in (Fraction(1, 2), 1, Fraction(7, 4), 3):
            engine.run(limit)
        times = [entry.time for entry in engine.trace]
        late += len(times) - len(set(times))  # two firings at one time: one fired late
    assert late > 50
    assert len(linked(program)) > 10


def test_a_rule_that_modifies_an_untested_buffer_links_as_well():
    # flip writes the chunk other holds, which no rule tests; the key records it
    model = parse_model(
        "(chunk-type g a)(add-dm (g1 isa g a x) (g2 isa g a x))"
        "(goal-focus goal g1)(goal-focus other g2)"
        "(p flip =goal> isa g a x ==> =other> a y)"
        "(p back =goal> isa g a y ==> =goal> a x)"
    )
    program = compile_model(model)
    for other in ("g2", "g1", "g2", "g1"):  # focused on the tested chunk in every other engine
        engine = Engine(program, SuccessCostUtility())
        engine.held["other"] = other
        cycles = check_every_cycle(engine, model)
        engine.run(1)
        assert len(cycles) == 21
        assert [entry.rule for entry in engine.trace[:2]] == (
            ["flip", "back"] if other == "g1" else ["flip", "flip"])
    assert set(linked(program)) == {"back", "flip"}


def test_a_buffer_that_no_rule_tests_or_writes_adds_no_state(rps_model):
    # the key records the chunk notes holds, which no firing changes
    noted = parse_model(builtin_model_text() + (
        "(chunk-type note last)(add-dm (n1 isa note last nil))(goal-focus notes n1)"))
    moves = [{"r": "rock", "p": "paper", "s": "scissors"}[m] for m in builtin_samples(3)[0]]
    programs = compile_model(rps_model), compile_model(noted)
    traces = []
    for program in programs:
        for index in range(6):  # three strategies, without and with refraction
            engine = Engine(program, strategy_for(index, index), {"next-move": iter(moves)},
                            index >= 3)
            traces.append(engine.run(Fraction(2)))
    assert traces[:6] == traces[6:]
    assert len(programs[1].memo) == len(programs[0].memo) == 10  # (nil, nil) and 9 pairs


def test_a_run_forgets_its_state_when_a_caller_changes_a_chunk_between_calls():
    # no rule writes on, which every rule tests: only the caller changes it
    model = parse_model(
        "(chunk-type g a on)(add-dm (g1 isa g a x on yes))(goal-focus goal g1)"
        "(p to-y =goal> isa g a x on yes ==> =goal> a y)"
        "(p to-x =goal> isa g a y on yes ==> =goal> a x)"
        "(p halt =goal> isa g a =v on no ==> -goal>)"
    )
    program = compile_model(model)
    for index in range(6):  # three strategies, two engines each
        engine = Engine(program, strategy_for(index, index))
        cycles = check_every_cycle(engine, model)
        for step in range(1, 5):  # the firing pending at 1 s fires in the changed state
            engine.chunks["g1"].slot_values["on"] = "yes" if step < 3 else "no"
            engine.run(Fraction(step, 2))
        assert [entry.time for entry in engine.trace[-2:]] == [Fraction(21, 20), Fraction(11, 10)]
        assert engine.trace[-1].rule == "halt"
        assert len(cycles) == 23  # 21 by 1 s, then after the firings at 1.05 s and 1.1 s
    assert linked(program)


def test_a_state_stores_at_most_match_memo_links_links():
    # take writes its draw to aux and clears it: every engine leaves the first
    # state for the same one, by a key of its own
    model = parse_model(
        "(chunk-type g a)(chunk-type h c)(add-dm (g1 isa g a x) (h1 isa h c nil))"
        "(goal-focus goal g1)(goal-focus aux h1)"
        "(p take =goal> isa g a x =aux> isa h c nil ==> !bind! =v src =aux> c =v -aux>)"
    )
    program = compile_model(model)
    for number in range(100):
        engine = Engine(program, ReinforcementUtility(), {"src": iter([f"v{number}"])})
        check_every_cycle(engine, model)
        engine.run(1)
        assert engine.chunks["h1"].slot_values == {"c": f"v{number}"}
    assert len(linked(program)) == engine_module.MATCH_MEMO_LINKS == 64


def test_states_that_never_recur_are_never_linked():
    model = parse_model(
        "(chunk-type link state)(add-dm (c0 isa link state s0))(goal-focus goal c0)"
        + "".join(f"(p r{k} =goal> isa link state s{k} ==> =goal> state s{k + 1})"
                  for k in range(50))
    )
    engine = engine_for(model)
    engine.run(math.inf)
    assert len(engine.trace) == 50
    assert all(links == {} for _, links in engine.program.memo.values())


# start's first test compares me with a constant, so its value is a lookup key
UNHASHABLE = (
    "(chunk-type game me)(add-dm (g1 isa game me nil))(goal-focus goal g1)"
    "(p start =goal> isa game me nil ==> !bind! =x src =goal> me =x)"
)


@pytest.mark.parametrize("refraction", [False, True])
@pytest.mark.parametrize("value", [["a", "b"], ("a", ["b"])])
def test_a_provider_value_that_cannot_be_hashed_raises_before_any_modification(
        refraction, value):
    model = parse_model(UNHASHABLE)
    engine = engine_for(model, providers={"src": iter([value])}, refraction=refraction)
    with pytest.raises(UnhashableValue, match="provider 'src'") as raised:
        engine.run(Fraction(1))
    assert isinstance(raised.value, EngineError)
    # the strategy logged the firing, the slot and the trace are untouched
    assert engine.strategy.applied_log == [("start", 0)]
    assert engine.chunks["g1"].slot_values == dict(model.initial_chunks[0].slot_values)
    assert engine.trace == []
    assert len(engine.refraction_history) == refraction
