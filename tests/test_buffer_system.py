from __future__ import annotations

from fractions import Fraction

import pytest

from actrsim.buffers import BufferSystem
from actrsim.chunks import ChunkStore
from actrsim.engine import Engine
from actrsim.errors import DuplicateBuffer, ModelSyntaxError, UnknownBuffer, UnknownChunk
from actrsim.model import parse_model
from actrsim.strategies import ReinforcementUtility

from test_properties import assert_consistent


@pytest.fixture
def system():
    store = ChunkStore()
    store.define_chunk_type("game", ["me", "opponent", "result"])
    store.create_chunk("g1", "game", {"me": "rock", "opponent": "scissors"})
    store.create_chunk("g2", "game", {})
    buffers = BufferSystem(store)
    buffers.declare_buffer("goal")
    return buffers


def test_declared_buffer_starts_empty(system):
    assert system.held("goal") is None


def test_duplicate_buffer_rejected(system):
    with pytest.raises(DuplicateBuffer):
        system.declare_buffer("goal")


def test_set_buffer(system):
    system.set_buffer("goal", "g1")
    assert system.held("goal") == "g1"


def test_set_buffer_replaces_held_chunk(system):
    system.set_buffer("goal", "g1")
    system.set_buffer("goal", "g2")
    assert system.held("goal") == "g2"


def test_set_unknown_buffer(system):
    with pytest.raises(UnknownBuffer):
        system.set_buffer("visual", "g1")


def test_set_unknown_chunk(system):
    with pytest.raises(UnknownChunk):
        system.set_buffer("goal", "g9")


# -- modifications and clearings, applied by the engine's firing cycle -------------

GAME = (
    "(chunk-type game me opponent result)"
    "(add-dm (g1 isa game me rock opponent scissors))"
    "(goal-focus goal g1)"
)


def fire(model_text, t_limit=Fraction(1)):
    engine = Engine(parse_model(model_text), ReinforcementUtility())
    engine.run(t_limit)
    return engine


def test_modification_overwrites_listed_slots():
    engine = fire(GAME + "(p win =goal> isa game me rock ==> =goal> result win)",
                  Fraction(1, 20))
    assert engine.chunks["g1"].slot_values == {
        "me": "rock", "opponent": "scissors", "result": "win"}


def test_empty_modification_is_noop():
    engine = fire(GAME + "(p idle =goal> isa game me rock ==> =goal>)", Fraction(1, 10))
    assert [e.rule for e in engine.trace] == ["idle", "idle"]
    assert engine.chunks["g1"].slot_values == {"me": "rock", "opponent": "scissors"}


def test_modification_resets_slots_to_nil():
    engine = fire(GAME + "(p reset =goal> isa game me rock ==> =goal> me nil opponent nil)")
    assert [e.rule for e in engine.trace] == ["reset"]
    assert engine.chunks["g1"].slot_values == {"me": "nil", "opponent": "nil"}


def test_modify_empty_buffer():
    # drop may empty counter before tally, which does not test it, modifies it
    text = (
        "(chunk-type game me)(chunk-type count n)"
        "(add-dm (g1 isa game me rock) (c1 isa count n one))"
        "(goal-focus goal g1)(goal-focus counter c1)"
        "(p drop =goal> isa game me rock ==> -counter> =goal> me paper)"
        "(p tally =goal> isa game me paper ==> =counter> n two)"
    )
    with pytest.raises(ModelSyntaxError, match="modifies buffer 'counter' without"):
        fire(text)


def test_modify_unknown_slot():
    with pytest.raises(ModelSyntaxError, match="unknown slot 'score'"):
        fire(GAME + "(p r =goal> isa game me rock ==> =goal> score three)")


def test_clearing_empties_the_buffer():
    engine = fire(GAME + "(p done =goal> isa game me rock ==> -goal>)")
    assert engine.held["goal"] is None
    assert [e.rule for e in engine.trace] == ["done"]


def test_clear_is_idempotent():
    engine = fire(
        "(chunk-type count n)(add-dm (c1 isa count n one) (c2 isa count n one))"
        "(goal-focus goal c1)(goal-focus counter c2)"
        "(p one =goal> isa count n one ==> =goal> n two -counter>)"
        "(p two =goal> isa count n two ==> -counter> -goal>)"  # counter is empty
    )
    assert [e.rule for e in engine.trace] == ["one", "two"]
    assert engine.held["goal"] is None and engine.held["counter"] is None


def test_cleared_chunk_stays_in_store():
    engine = fire(GAME + "(p done =goal> isa game me rock ==> -goal>)")
    assert engine.chunks["g1"].slot_values == {"me": "rock", "opponent": "scissors"}


def test_clear_unknown_buffer():
    with pytest.raises(ModelSyntaxError, match="acts on undeclared buffer 'visual'"):
        fire(GAME + "(p r =goal> isa game me rock ==> -visual>)")


def test_consistency_after_operations():
    model = parse_model(
        GAME + "(p reset =goal> isa game me rock ==> =goal> me paper -goal>)")
    engine = Engine(model, ReinforcementUtility())
    engine.run(Fraction(1))
    assert engine.held == {"goal": None}
    assert engine.chunks["g1"].slot_values == {"me": "paper", "opponent": "scissors"}
    assert_consistent(engine, model)
