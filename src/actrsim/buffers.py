"""Named buffers, each holding at most one chunk from a shared store."""

from .chunks import ChunkStore
from .errors import DuplicateBuffer, UnknownBuffer


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

    def check_consistency(self) -> None:
        for chunk in self._held.values():
            assert chunk is None or self.store.has_chunk(chunk)
