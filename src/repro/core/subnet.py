"""Subnet-level correlation — what prefix preservation buys (paper §I).

The telescope archives its matrices under *CryptoPAN* rather than an
arbitrary permutation precisely because prefix-preserving anonymization
keeps network structure analyzable: two addresses in the same /k map to
the same anonymized /k.  Consequence: **subnet-granularity correlation
between two instruments can be computed entirely in anonymized space** —
both parties re-key to a common prefix-preserving scheme (sharing mode 2)
and count prefix overlaps without anyone revealing a single address.

This module provides the aggregation and overlap primitives; the
``subnets`` experiment verifies that anonymized-space counts equal
plain-space counts at every prefix length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..anonymize import AnonymizationDomain
from ..hypersparse.merge import sorted_unique

__all__ = ["aggregate_to_prefix", "subnet_overlap", "anonymized_subnet_overlap", "SubnetOverlap"]


def aggregate_to_prefix(addrs: np.ndarray, prefix_len: int) -> np.ndarray:
    """Distinct /``prefix_len`` prefixes covering the given addresses.

    Prefix values are the top ``prefix_len`` bits (as integers); length 0
    collapses everything to one prefix, 32 is address granularity.
    """
    if not 0 <= prefix_len <= 32:
        raise ValueError("prefix_len must be in [0, 32]")
    a = np.asarray(addrs, dtype=np.uint64)
    if prefix_len == 0:
        return np.zeros(min(a.size, 1), dtype=np.uint64)
    return sorted_unique(a >> np.uint64(32 - prefix_len))


@dataclass(frozen=True)
class SubnetOverlap:
    """Overlap of two source sets at one prefix granularity."""

    prefix_len: int
    n_a: int
    n_b: int
    n_common: int

    @property
    def fraction_a(self) -> float:
        """Fraction of A's prefixes also present in B."""
        return self.n_common / self.n_a if self.n_a else 0.0


def subnet_overlap(
    sources_a: np.ndarray, sources_b: np.ndarray, prefix_len: int
) -> SubnetOverlap:
    """Prefix-level overlap of two plain source sets."""
    pa = aggregate_to_prefix(sources_a, prefix_len)
    pb = aggregate_to_prefix(sources_b, prefix_len)
    return SubnetOverlap(
        prefix_len=prefix_len,
        n_a=int(pa.size),
        n_b=int(pb.size),
        n_common=int(np.intersect1d(pa, pb).size),
    )


def anonymized_subnet_overlap(
    domain_a: AnonymizationDomain,
    anon_a: np.ndarray,
    domain_b: AnonymizationDomain,
    anon_b: np.ndarray,
    prefix_len: int,
    *,
    common_key: bytes = b"subnet-common-scheme",
) -> SubnetOverlap:
    """Prefix-level overlap computed *without leaving anonymized space*.

    Both domains re-key their published sets into a shared
    prefix-preserving scheme (mode 2); aggregation and intersection then
    happen on common-scheme values.  Because the common scheme preserves
    prefixes, the resulting *counts* equal the plain-space counts exactly
    — property-tested — while no plain address is ever materialized by
    the analyst.
    """
    common = AnonymizationDomain("subnet-common", common_key)
    ca = domain_a.reanonymize_to(np.asarray(anon_a), common)
    cb = domain_b.reanonymize_to(np.asarray(anon_b), common)
    return subnet_overlap(ca, cb, prefix_len)


def overlap_profile(
    sources_a: np.ndarray,
    sources_b: np.ndarray,
    prefix_lengths: Sequence[int] = (8, 12, 16, 20, 24, 28, 32),
) -> List[SubnetOverlap]:
    """Overlap at each granularity, coarse to fine."""
    return [subnet_overlap(sources_a, sources_b, k) for k in prefix_lengths]
