"""Column-oriented packet streams.

A :class:`Packets` holds parallel NumPy arrays — one column per header
field — rather than an array of packet objects.  At telescope scale
(``2^30`` packets per window in the paper) per-packet Python objects are
out of the question; columns keep every downstream operation (filtering,
windowing, matrix construction) inside vectorized kernels.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from ..hypersparse.merge import sorted_unique

__all__ = ["Packets", "PROTO_TCP", "PROTO_UDP", "PROTO_ICMP"]

#: IANA protocol numbers for the protocols the simulators emit.
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17


class Packets:
    """An immutable-by-convention packet stream.

    Parameters
    ----------
    time:
        Arrival times, float64 seconds since an arbitrary epoch.  Need not
        be sorted; :meth:`sort_by_time` canonicalizes.
    src, dst:
        Source / destination addresses as integers (uint64, IPv4 range).
    proto:
        Optional per-packet protocol numbers (uint8); defaults to TCP.
    """

    __slots__ = ("time", "src", "dst", "proto")

    def __init__(
        self,
        time: Sequence[float],
        src: Sequence[int],
        dst: Sequence[int],
        proto: Optional[Sequence[int]] = None,
    ):
        self.time = np.ascontiguousarray(np.asarray(time, dtype=np.float64))
        self.src = np.ascontiguousarray(np.asarray(src).astype(np.uint64))
        self.dst = np.ascontiguousarray(np.asarray(dst).astype(np.uint64))
        if proto is None:
            self.proto = np.full(self.time.size, PROTO_TCP, dtype=np.uint8)
        else:
            self.proto = np.ascontiguousarray(np.asarray(proto, dtype=np.uint8))
        n = self.time.size
        if not (self.src.size == self.dst.size == self.proto.size == n):
            raise ValueError("all packet columns must have equal length")

    # -- protocol ----------------------------------------------------------

    def __len__(self) -> int:
        return int(self.time.size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if len(self) == 0:
            return "Packets(empty)"
        return (
            f"Packets(n={len(self)}, t=[{self.time.min():.3f}, {self.time.max():.3f}])"
        )

    def __getitem__(self, index) -> "Packets":
        """Slice / boolean-mask / fancy-index into a new stream (views where
        NumPy allows)."""
        return Packets(
            self.time[index], self.src[index], self.dst[index], self.proto[index]
        )

    # -- canonicalization --------------------------------------------------

    def sort_by_time(self) -> "Packets":
        """Stable sort by arrival time."""
        order = np.argsort(self.time, kind="stable")
        return self[order]

    def is_time_sorted(self) -> bool:
        """True when arrival times are non-decreasing."""
        return bool(np.all(self.time[1:] >= self.time[:-1])) if len(self) > 1 else True

    # -- combination ----------------------------------------------------------

    @classmethod
    def concat(cls, streams: Iterable["Packets"]) -> "Packets":
        """Concatenate streams (callers sort afterwards if order matters)."""
        streams = [s for s in streams if len(s)]
        if not streams:
            return cls.empty()
        return cls(
            np.concatenate([s.time for s in streams]),
            np.concatenate([s.src for s in streams]),
            np.concatenate([s.dst for s in streams]),
            np.concatenate([s.proto for s in streams]),
        )

    @classmethod
    def empty(cls) -> "Packets":
        """A packet set with zero packets."""
        return cls(
            np.zeros(0, dtype=np.float64),
            np.zeros(0, dtype=np.uint64),
            np.zeros(0, dtype=np.uint64),
            np.zeros(0, dtype=np.uint8),
        )

    # -- summaries --------------------------------------------------------------

    def span(self) -> Tuple[float, float]:
        """(first, last) arrival time; (0, 0) when empty."""
        if len(self) == 0:
            return (0.0, 0.0)
        return (float(self.time.min()), float(self.time.max()))

    def duration(self) -> float:
        """Elapsed seconds between first and last packet."""
        lo, hi = self.span()
        return hi - lo

    def unique_sources(self) -> np.ndarray:
        """Sorted unique source addresses."""
        return sorted_unique(self.src)

    def unique_destinations(self) -> np.ndarray:
        """Sorted unique destination addresses."""
        return sorted_unique(self.dst)
