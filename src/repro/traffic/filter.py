"""Composable packet filters.

Section II: "It is common to filter the packets down to a valid set for
any particular analysis.  Such filters may limit particular sources,
destinations, protocols, and time windows."  A filter here is any callable
``Packets -> boolean mask``; :func:`compose_filters` ANDs them, and
:meth:`PacketFilter.apply` materializes the filtered stream.

The telescope's own validity filter — discard the trace of legitimate
traffic reaching a darkspace — is expressed with these primitives in
``repro.synth.telescope``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from ..hypersparse.merge import sorted_unique
from .packet import Packets

__all__ = [
    "PacketFilter",
    "src_in_range",
    "dst_in_range",
    "protocol_is",
    "time_between",
    "exclude_sources",
    "compose_filters",
]

MaskFn = Callable[[Packets], np.ndarray]


class PacketFilter:
    """A named predicate over packet streams.

    Wraps a mask function with a label (for pipeline diagnostics) and
    provides combinators: ``f & g``, ``f | g``, ``~f``.
    """

    def __init__(self, fn: MaskFn, name: str = "filter"):
        self._fn = fn
        self.name = name

    def mask(self, packets: Packets) -> np.ndarray:
        """Boolean keep-mask for the stream."""
        out = np.asarray(self._fn(packets), dtype=bool)
        if out.shape != (len(packets),):
            raise ValueError(f"filter {self.name!r} returned a wrong-shaped mask")
        return out

    def apply(self, packets: Packets) -> Packets:
        """The packets passing the filter."""
        return packets[self.mask(packets)]

    def __call__(self, packets: Packets) -> np.ndarray:
        return self.mask(packets)

    def __and__(self, other: "PacketFilter") -> "PacketFilter":
        return PacketFilter(
            lambda p: self.mask(p) & other.mask(p), f"({self.name} & {other.name})"
        )

    def __or__(self, other: "PacketFilter") -> "PacketFilter":
        return PacketFilter(
            lambda p: self.mask(p) | other.mask(p), f"({self.name} | {other.name})"
        )

    def __invert__(self) -> "PacketFilter":
        return PacketFilter(lambda p: ~self.mask(p), f"~{self.name}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PacketFilter({self.name})"


def src_in_range(lo: int, hi: int) -> PacketFilter:
    """Keep packets whose source lies in ``[lo, hi)``."""
    lo_, hi_ = np.uint64(lo), np.uint64(hi)
    return PacketFilter(
        lambda p: (p.src >= lo_) & (p.src < hi_), f"src_in[{lo},{hi})"
    )


def dst_in_range(lo: int, hi: int) -> PacketFilter:
    """Keep packets whose destination lies in ``[lo, hi)``."""
    lo_, hi_ = np.uint64(lo), np.uint64(hi)
    return PacketFilter(
        lambda p: (p.dst >= lo_) & (p.dst < hi_), f"dst_in[{lo},{hi})"
    )


def protocol_is(*protocols: int) -> PacketFilter:
    """Keep packets whose protocol number is one of the given values."""
    allowed = np.asarray(sorted(protocols), dtype=np.uint8)
    return PacketFilter(
        lambda p: np.isin(p.proto, allowed), f"proto_in{tuple(sorted(protocols))}"
    )


def time_between(t0: float, t1: float) -> PacketFilter:
    """Keep packets with ``t0 <= time < t1``."""
    return PacketFilter(
        lambda p: (p.time >= t0) & (p.time < t1), f"time_in[{t0},{t1})"
    )


def exclude_sources(sources: Sequence[int]) -> PacketFilter:
    """Drop packets from the given source addresses (e.g. known-legitimate
    senders misdirected into the darkspace)."""
    banned = sorted_unique(np.asarray(sources, dtype=np.uint64))
    return PacketFilter(
        lambda p: ~np.isin(p.src, banned), f"exclude_sources[{banned.size}]"
    )


def compose_filters(filters: Iterable[PacketFilter]) -> PacketFilter:
    """AND a sequence of filters into one (empty sequence keeps everything)."""
    filters = list(filters)
    if not filters:
        return PacketFilter(lambda p: np.ones(len(p), dtype=bool), "all")
    out = filters[0]
    for f in filters[1:]:
        out = out & f
    return out
