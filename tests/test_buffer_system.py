from __future__ import annotations

import pytest

from actrsim.buffers import BufferSystem
from actrsim.chunks import ChunkStore
from actrsim.errors import (
    DuplicateBuffer,
    EmptyBuffer,
    UnknownBuffer,
    UnknownChunk,
    UnknownSlot,
)


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


def test_modify_buffer_overwrites_listed_slots(system):
    system.set_buffer("goal", "g1")
    system.modify_buffer("goal", (("result", "win"),))
    chunk = system.store.chunk("g1")
    assert chunk.slot_values == {"me": "rock", "opponent": "scissors", "result": "win"}


def test_modify_buffer_empty_description_is_noop(system):
    system.set_buffer("goal", "g1")
    before = dict(system.store.chunk("g1").slot_values)
    system.modify_buffer("goal", ())
    assert system.store.chunk("g1").slot_values == before


def test_modify_buffer_resets_slots(system):
    system.set_buffer("goal", "g1")
    system.modify_buffer("goal", (("me", "nil"), ("opponent", "nil")))
    assert system.store.get_slot("g1", "me") == "nil"
    assert system.store.get_slot("g1", "opponent") == "nil"


def test_modify_empty_buffer(system):
    with pytest.raises(EmptyBuffer):
        system.modify_buffer("goal", ())


def test_modify_unknown_slot(system):
    system.set_buffer("goal", "g1")
    with pytest.raises(UnknownSlot):
        system.modify_buffer("goal", (("score", "3"),))


def test_clear_buffer(system):
    system.set_buffer("goal", "g1")
    system.clear_buffer("goal")
    assert system.held("goal") is None


def test_clear_is_idempotent(system):
    system.clear_buffer("goal")
    system.clear_buffer("goal")
    assert system.held("goal") is None


def test_cleared_chunk_stays_in_store(system):
    system.set_buffer("goal", "g1")
    system.clear_buffer("goal")
    assert system.store.get_slot("g1", "me") == "rock"


def test_clear_unknown_buffer(system):
    with pytest.raises(UnknownBuffer):
        system.clear_buffer("visual")


def test_consistency_after_operations(system):
    system.set_buffer("goal", "g1")
    system.modify_buffer("goal", (("me", "paper"),))
    system.clear_buffer("goal")
    system.set_buffer("goal", "g2")
    system.check_consistency()
