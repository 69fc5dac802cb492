"""Typed declarative memory: chunk types, chunks, and their slot values.

Symbols are plain strings under the unique-name assumption (equal names denote
the same symbol). ``nil`` is an ordinary constant, not a marker for "unset":
a slot that was never written holds no value at all and does not match ``nil``.
"""

from typing import NamedTuple

from .errors import (
    DuplicateChunkName,
    DuplicateSlot,
    DuplicateType,
    UnknownChunk,
    UnknownSlot,
    UnknownType,
)

class ChunkType(NamedTuple):
    name: str
    slots: tuple[str, ...]


class Chunk(NamedTuple):
    name: str
    type: str
    slot_values: dict[str, str]


class ChunkStore:
    """Holds chunk types and chunks, enforcing type consistency.

    Every chunk has exactly one type, every filled slot belongs to that type,
    and every slot holds at most one value.
    """

    def __init__(self):
        self._types: dict[str, ChunkType] = {}
        self._chunks: dict[str, Chunk] = {}
        self._gen_counter = 0

    def define_chunk_type(self, name: str, slots) -> ChunkType:
        if name in self._types:
            raise DuplicateType(f"chunk type {name!r} already defined")
        slots = tuple(slots)
        if len(set(slots)) != len(slots):
            raise DuplicateSlot(f"chunk type {name!r} repeats a slot name")
        ctype = ChunkType(name, slots)
        self._types[name] = ctype
        return ctype

    def create_chunk(self, name: str | None, type: str, values=None) -> Chunk:
        ctype = self.chunk_type(type)
        values = dict(values or {})
        for slot in values:
            if slot not in ctype.slots:
                raise UnknownSlot(f"type {type!r} has no slot {slot!r}")
        if name is None:
            self._gen_counter += 1
            name = f"gen{self._gen_counter}"
            while name in self._chunks:  # a user chunk may already use the name
                self._gen_counter += 1
                name = f"gen{self._gen_counter}"
        elif name in self._chunks:
            raise DuplicateChunkName(f"chunk {name!r} already exists")
        chunk = Chunk(name, type, values)
        self._chunks[name] = chunk
        return chunk

    def set_slot(self, chunk: str, slot: str, value: str) -> None:
        c = self.chunk(chunk)
        if slot not in self._types[c.type].slots:
            raise UnknownSlot(f"type {c.type!r} has no slot {slot!r}")
        c.slot_values[slot] = value

    def chunk(self, name: str) -> Chunk:
        try:
            return self._chunks[name]
        except KeyError:
            raise UnknownChunk(f"no chunk named {name!r}") from None

    def chunk_type(self, name: str) -> ChunkType:
        try:
            return self._types[name]
        except KeyError:
            raise UnknownType(f"no chunk type named {name!r}") from None

    def has_chunk(self, name: str) -> bool:
        return name in self._chunks

    def check_consistency(self) -> None:
        """Assert the type-consistency conditions; used by property tests."""
        for c in self._chunks.values():
            ctype = self._types[c.type]  # exactly one type per chunk
            for slot in c.slot_values:
                assert slot in ctype.slots, (c.name, slot)
            # dict keys are unique, so each slot holds at most one value
