"""Symmetric per-rank communication buffers.

HiCCL's API is SPMD: every rank calls ``add_reduction(sendbuf + j*count, ...)``
with *its own* pointer, but the pointer arithmetic is identical on all ranks
(Listing 2).  This reproduction is a single-process simulation of all ranks,
so a buffer is *symmetric*: one logical allocation that materializes as one
numpy array per rank, and a view ``buf[off:]`` denotes "offset ``off`` into
this allocation **on whichever rank the primitive addresses**".

:class:`BufferHandle`
    A named symmetric allocation of ``count`` elements per rank.

:class:`BufferView`
    ``(handle, offset)`` — the Python analogue of ``sendbuf + j * count``.
    Views are cheap value objects; slicing a handle or a view never copies.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CompositionError


@dataclass(frozen=True)
class BufferHandle:
    """A named symmetric buffer: ``count`` elements on every rank."""

    name: str
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise CompositionError(f"buffer {self.name!r}: negative count")

    def view(self, offset: int = 0) -> "BufferView":
        """View starting ``offset`` elements into this buffer."""
        return BufferView(self, offset)

    def __getitem__(self, key) -> "BufferView":
        """``buf[off:]`` mirrors the C pointer arithmetic ``buf + off``."""
        if isinstance(key, slice):
            if key.step is not None:
                raise CompositionError("strided buffer views are not supported")
            start = key.start or 0
            if key.stop is not None:
                # A bounded slice is allowed as documentation; capacity checks
                # happen at registration time against the declared count.
                if key.stop < start:
                    raise CompositionError("buffer slice stop precedes start")
            return self.view(start)
        if isinstance(key, int):
            return self.view(key)
        raise CompositionError(f"cannot index buffer with {key!r}")

    def __repr__(self) -> str:
        return f"BufferHandle({self.name!r}, count={self.count})"


@dataclass(frozen=True)
class BufferView:
    """Offset view into a symmetric buffer (``base + offset`` on any rank)."""

    handle: BufferHandle
    offset: int

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise CompositionError("buffer view offset must be non-negative")
        if self.offset > self.handle.count:
            raise CompositionError(
                f"view offset {self.offset} exceeds buffer "
                f"{self.handle.name!r} of {self.handle.count} elements"
            )

    @property
    def name(self) -> str:
        """Name of the viewed buffer."""
        return self.handle.name

    @property
    def capacity(self) -> int:
        """Elements available from this view to the end of the buffer."""
        return self.handle.count - self.offset

    def shifted(self, delta: int) -> "BufferView":
        """View ``delta`` elements further in (used for chunk/channel slicing)."""
        return BufferView(self.handle, self.offset + delta)

    def check_capacity(self, count: int, what: str) -> None:
        """Raise :class:`CompositionError` unless ``count`` elements fit
        from this view on; ``what`` names the caller in the message."""
        if count < 0:
            raise CompositionError(f"{what}: negative element count {count}")
        if count > self.capacity:
            raise CompositionError(
                f"{what}: needs {count} elements but view into "
                f"{self.handle.name!r} at offset {self.offset} only has "
                f"{self.capacity} left"
            )

    def loc(self) -> tuple[str, int]:
        """(buffer name, offset) pair used by the lowered IR."""
        return (self.name, self.offset)

    def __repr__(self) -> str:
        return f"{self.handle.name}[{self.offset}:]"


def as_view(obj) -> BufferView:
    """Accept a handle or a view wherever the API wants a view."""
    if isinstance(obj, BufferView):
        return obj
    if isinstance(obj, BufferHandle):
        return obj.view(0)
    raise CompositionError(f"expected a buffer or buffer view, got {type(obj).__name__}")
