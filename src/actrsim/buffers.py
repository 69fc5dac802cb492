"""Named buffers, each holding at most one chunk from a shared store."""

from .chunks import ChunkStore
from .errors import DuplicateBuffer, EmptyBuffer, UnknownBuffer, UnknownSlot


class BufferSystem:
    def __init__(self, store: ChunkStore):
        self.store = store
        self._held: dict[str, str | None] = {}

    def declare_buffer(self, name: str) -> None:
        if name in self._held:
            raise DuplicateBuffer(f"buffer {name!r} already declared")
        self._held[name] = None

    def held(self, buffer: str) -> str | None:
        """Name of the held chunk, or None for an empty buffer."""
        try:
            return self._held[buffer]
        except KeyError:
            raise UnknownBuffer(f"no buffer named {buffer!r}") from None

    def set_buffer(self, buffer: str, chunk: str) -> None:
        self.held(buffer)  # raises on unknown buffer
        self.store.chunk(chunk)  # raises on unknown chunk
        self._held[buffer] = chunk

    def modify_buffer(self, buffer: str, updates) -> None:
        """Overwrite the held chunk's slots in ((slot, value), ...); others stay."""
        chunk_name = self.held(buffer)
        if chunk_name is None:
            raise EmptyBuffer(f"buffer {buffer!r} holds no chunk")
        chunk = self.store.chunk(chunk_name)
        ctype = self.store.chunk_type(chunk.type)
        for slot, _ in updates:
            if slot not in ctype.slots:
                raise UnknownSlot(f"type {chunk.type!r} has no slot {slot!r}")
        chunk.slot_values.update(updates)

    def clear_buffer(self, buffer: str) -> None:
        """Empty the buffer; the chunk stays in the store. Idempotent."""
        self.held(buffer)
        self._held[buffer] = None

    def check_consistency(self) -> None:
        for chunk in self._held.values():
            assert chunk is None or self.store.has_chunk(chunk)
