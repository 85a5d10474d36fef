"""Consistency experiment: the coeval overlap view."""

import dataclasses
import warnings

import numpy as np

from repro.core import CorrelationStudy
from repro.experiments import consistency
from repro.hypersparse.coo import SparseVec


def test_sourceless_sample_has_zero_coeval_overlap(tiny_model, tiny_study):
    # A fresh study over the shared model, so the session study is untouched.
    study = CorrelationStudy(tiny_model, min_bin_sources=25)
    samples = list(tiny_study.samples)
    samples[1] = dataclasses.replace(
        samples[1],
        source_packets=SparseVec(np.zeros(0, dtype=np.uint64), np.zeros(0)),
    )
    study.__dict__["samples"] = samples
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coeval = consistency.coeval_overlap(study)
    assert coeval[1][1] == 0.0
    assert all(0.0 < frac <= 1.0 for i, (_, frac) in enumerate(coeval) if i != 1)

