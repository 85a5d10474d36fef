"""Trusted-sharing workflows for correlating anonymized data (paper §I).

Within CAIDA's trusted-sharing framework, anonymized subsets from multiple
sources can be correlated three ways:

1. **Return to source** — if the subset is small and low-risk, anonymized
   keys are sent back to the owning source for deanonymization.  *This is
   the mode the paper used* to match telescope sources against the
   honeyfarm database.
2. **Common scheme** — a third, shared anonymization scheme: each source
   deanonymizes its own subset and re-anonymizes under the common key, so
   subsets become directly comparable without exposing real addresses to
   the counterparty.
3. **Translation table** — for larger sets, the source publishes a mapping
   from its anonymized keys to the common scheme, letting holders of its
   data re-key without another round trip.

:class:`AnonymizationDomain` models one data owner.  The private key never
leaves the instance; the workflow functions below only call the public
methods a real counterparty could call.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

import numpy as np

from ..hypersparse.merge import sorted_unique
from .cryptopan import CryptoPan

__all__ = [
    "AnonymizationDomain",
    "share_mode1_return_to_source",
    "share_mode2_common_scheme",
    "share_mode3_translation_table",
    "correlate_anonymized",
]


class AnonymizationDomain:
    """A data owner with a private prefix-preserving anonymization key.

    Parameters
    ----------
    name:
        Label for diagnostics ("CAIDA", "GreyNoise", ...).
    key:
        Private key material.  Held internally; the only outward-facing
        operations are anonymize (publishing) and the three sharing modes.
    """

    def __init__(self, name: str, key: Union[bytes, str]):
        self.name = str(name)
        self._pan = CryptoPan(key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AnonymizationDomain({self.name!r})"

    # -- publishing ---------------------------------------------------------

    def publish(self, addrs: np.ndarray) -> np.ndarray:
        """Anonymize addresses for release outside the domain."""
        return self._pan.anonymize(addrs)

    # -- sharing primitives (the owner's side of each mode) -------------------

    def deanonymize_subset(self, anon: np.ndarray, *, max_subset: int = 1 << 20) -> np.ndarray:
        """Mode 1 service: deanonymize a returned subset.

        ``max_subset`` enforces the "small and low-risk" constraint of the
        framework — bulk deanonymization requests are refused.
        """
        anon = np.asarray(anon)
        if anon.size > max_subset:
            raise ValueError(
                f"{self.name}: refusing to deanonymize {anon.size} keys "
                f"(mode-1 limit {max_subset}); use mode 3"
            )
        return self._pan.deanonymize(anon)

    def reanonymize_to(self, anon: np.ndarray, common: "AnonymizationDomain") -> np.ndarray:
        """Mode 2 service: re-key a subset of *this domain's* data into
        ``common``'s scheme without revealing plaintext to the caller."""
        plain = self._pan.deanonymize(np.asarray(anon))
        return common.publish(plain)

    def translation_table(
        self, anon: np.ndarray, common: "AnonymizationDomain"
    ) -> Dict[int, int]:
        """Mode 3 service: mapping from this domain's anonymized keys to the
        common scheme, for the requested key set."""
        anon = sorted_unique(anon)
        rekeyed = self.reanonymize_to(anon, common)
        return {int(a): int(c) for a, c in zip(anon, rekeyed)}


def share_mode1_return_to_source(
    domain: AnonymizationDomain, anon_subset: np.ndarray
) -> np.ndarray:
    """Workflow 1: send an anonymized subset back to its source for
    deanonymization.  Returns real addresses (the paper's approach)."""
    return domain.deanonymize_subset(anon_subset)


def share_mode2_common_scheme(
    domain_a: AnonymizationDomain,
    anon_a: np.ndarray,
    domain_b: AnonymizationDomain,
    anon_b: np.ndarray,
    common: AnonymizationDomain,
) -> Tuple[np.ndarray, np.ndarray]:
    """Workflow 2: both sources re-key their subsets under a common scheme.

    Returns the two subsets in the common key space, directly comparable.
    """
    return (
        domain_a.reanonymize_to(anon_a, common),
        domain_b.reanonymize_to(anon_b, common),
    )


def share_mode3_translation_table(
    domain: AnonymizationDomain,
    anon_keys: np.ndarray,
    common: AnonymizationDomain,
) -> Dict[int, int]:
    """Workflow 3: obtain an anonymized→common translation table from a
    source, for bulk re-keying by the data holder."""
    return domain.translation_table(anon_keys, common)


def correlate_anonymized(
    domain_a: AnonymizationDomain,
    anon_a: np.ndarray,
    domain_b: AnonymizationDomain,
    anon_b: np.ndarray,
    *,
    mode: int = 1,
) -> np.ndarray:
    """Intersect two anonymized source sets across domains.

    Returns the overlap in *plain* address space for mode 1 and in the
    *common* key space for modes 2 and 3 (the caller never learns plain
    addresses in those modes).  This is the cross-domain primitive under
    every correlation figure in the paper.
    """
    anon_a = sorted_unique(anon_a)
    anon_b = sorted_unique(anon_b)
    if mode == 1:
        plain_a = share_mode1_return_to_source(domain_a, anon_a)
        plain_b = share_mode1_return_to_source(domain_b, anon_b)
        return np.intersect1d(plain_a, plain_b)
    if mode == 2:
        common = AnonymizationDomain("common", b"shared-scheme-key")
        ca, cb = share_mode2_common_scheme(domain_a, anon_a, domain_b, anon_b, common)
        return np.intersect1d(ca, cb)
    if mode == 3:
        common = AnonymizationDomain("common", b"shared-scheme-key")
        ta = share_mode3_translation_table(domain_a, anon_a, common)
        tb = share_mode3_translation_table(domain_b, anon_b, common)
        ca = np.asarray(sorted(ta.values()), dtype=np.uint64)
        cb = np.asarray(sorted(tb.values()), dtype=np.uint64)
        return np.intersect1d(ca, cb)
    raise ValueError(f"unknown sharing mode {mode}; expected 1, 2 or 3")
