from __future__ import annotations

import random

import pytest

from actrsim.chunks import ChunkStore
from actrsim.errors import (
    DuplicateChunkName,
    DuplicateSlot,
    DuplicateType,
    UnknownChunk,
    UnknownSlot,
    UnknownType,
)


@pytest.fixture
def store():
    s = ChunkStore()
    s.define_chunk_type("game", ["me", "opponent", "result"])
    return s


def test_define_chunk_type(store):
    ctype = store.chunk_type("game")
    assert ctype.name == "game"
    assert ctype.slots == ("me", "opponent", "result")


def test_define_slotless_type(store):
    assert store.define_chunk_type("t", []).slots == ()


def test_duplicate_type_rejected(store):
    with pytest.raises(DuplicateType):
        store.define_chunk_type("game", ["me"])


def test_duplicate_slot_rejected(store):
    with pytest.raises(DuplicateSlot):
        store.define_chunk_type("pair", ["a", "a"])


def test_create_chunk(store):
    chunk = store.create_chunk("g1", "game", {"me": "nil", "opponent": "nil"})
    assert chunk.slot_values == {"me": "nil", "opponent": "nil"}
    assert store.chunk("g1").slot_values.get("me") == "nil"


def test_create_chunk_generates_fresh_names(store):
    first = store.create_chunk(None, "game", {})
    second = store.create_chunk(None, "game", {})
    assert (first.name, second.name) == ("gen1", "gen2")
    assert first.slot_values == {}


def test_generated_name_skips_taken_names(store):
    store.create_chunk("gen1", "game", {})
    assert store.create_chunk(None, "game", {}).name == "gen2"


def test_create_chunk_unknown_slot(store):
    with pytest.raises(UnknownSlot):
        store.create_chunk("c", "game", {"color": "red"})


def test_create_chunk_unknown_type(store):
    with pytest.raises(UnknownType):
        store.create_chunk("c", "deal", {})


def test_create_chunk_duplicate_name(store):
    store.create_chunk("g1", "game", {})
    with pytest.raises(DuplicateChunkName):
        store.create_chunk("g1", "game", {})


def test_set_slot(store):
    store.create_chunk("g1", "game", {})
    store.set_slot("g1", "result", "win")
    assert store.chunk("g1").slot_values.get("result") == "win"


def test_set_slot_overwrites_single_value(store):
    store.create_chunk("g1", "game", {})
    store.set_slot("g1", "me", "rock")
    store.set_slot("g1", "me", "paper")
    assert store.chunk("g1").slot_values.get("me") == "paper"
    assert list(store.chunk("g1").slot_values.items()) == [("me", "paper")]


def test_set_slot_unknown_slot(store):
    store.create_chunk("g1", "game", {})
    with pytest.raises(UnknownSlot):
        store.set_slot("g1", "score", "3")


def test_set_slot_unknown_chunk(store):
    with pytest.raises(UnknownChunk):
        store.set_slot("missing", "me", "rock")


def test_unset_slot_reads_none(store):
    store.create_chunk("g1", "game", {})
    assert store.chunk("g1").slot_values.get("me") is None


def test_chunk_lookup_of_unknown_name(store):
    with pytest.raises(UnknownChunk):
        store.chunk("missing")


def test_consistency_after_random_operations():
    rng = random.Random(7)
    store = ChunkStore()
    slots = ["a", "b", "c"]
    store.define_chunk_type("t", slots)
    names = []
    for step in range(300):
        op = rng.random()
        if op < 0.3 or not names:
            chunk = store.create_chunk(None, "t", {})
            names.append(chunk.name)
        elif op < 0.9:
            store.set_slot(rng.choice(names), rng.choice(slots), rng.choice("xyz"))
        else:
            with pytest.raises(UnknownSlot):
                store.set_slot(rng.choice(names), "nope", "x")
        store.check_consistency()
    # every chunk still has exactly one type and only declared slots
    for chunk in map(store.chunk, names):
        assert chunk.type == "t"
        assert set(chunk.slot_values) <= set(slots)
