"""Honeyfarm simulator: monthly enriched source observations."""

import pickle

import numpy as np
import pytest

from repro.obs.spans import reset_tracing, take_spans, tracing
from repro.synth import HoneyfarmSimulator, ModelConfig, SourcePopulation
from repro.synth.calibration import CONFIG_CHANGE_MONTHS


@pytest.fixture(scope="module")
def pop():
    return SourcePopulation(ModelConfig(log2_nv=13, n_sources=1500, seed=13))


@pytest.fixture(scope="module")
def farm(pop):
    return HoneyfarmSimulator(pop)


@pytest.fixture(scope="module")
def month(farm):
    return farm.observe_month(6)


class TestObservation:
    def test_metadata_fields(self, month):
        assert month.label == "2020-08"
        assert month.days == 31
        assert month.month_index == 6

    def test_sources_sorted_unique(self, month):
        assert np.all(np.diff(month.sources.astype(np.int64)) > 0)

    def test_sources_are_population_or_noise(self, pop, month):
        known = np.concatenate([pop.addresses, pop.noise_addresses])
        assert np.all(np.isin(month.sources, known))

    def test_detected_population_sources_were_active(self, pop, month):
        det = month.sources[np.isin(month.sources, pop.addresses)]
        active = pop.addresses[pop.active_mask(6)]
        assert np.all(np.isin(det, active))

    def test_deterministic(self, farm, month):
        again = farm.observe_month(6)
        np.testing.assert_array_equal(month.sources, again.sources)
        assert month.enrichment == again.enrichment

    def test_n_sources_property(self, month):
        assert month.n_sources == month.sources.size
        np.testing.assert_array_equal(month.source_set(), month.sources)


class TestEnrichment:
    def test_schema(self, month):
        cols = set(month.enrichment.col_set().tolist())
        assert {"classification", "intent", "first_seen"} <= cols

    def test_every_source_classified(self, month):
        from repro.ip import ints_to_ips

        classified = month.enrichment[":", ["classification"]]
        assert set(classified.row_set().tolist()) == set(
            ints_to_ips(month.sources).tolist()
        )

    def test_classification_values(self, month):
        _, _, vals = month.enrichment[":", ["classification"]].triples()
        assert set(np.unique(vals).tolist()) <= {"malicious", "benign", "unknown"}

    def test_first_seen_is_month_label(self, month):
        _, _, vals = month.enrichment[":", ["first_seen"]].triples()
        assert set(np.unique(vals).tolist()) == {month.label}

    def test_hits_positive(self, month):
        _, _, vals = month.hits.triples()
        assert np.all(vals >= 1.0)


class TestLazyMetadata:
    @staticmethod
    def _eager(farm, m):
        """The metadata as an eager build for month ``m`` would produce it."""
        pop = farm.population
        boost = farm.boost_for(m)
        det_idx = np.flatnonzero(pop.detected_mask(m, boost=boost))
        det_addrs = pop.addresses[det_idx]
        noise = pop.noise_addresses[pop.noise_detected_mask(m, boost=boost)]
        label = farm._labels[m]
        return (
            farm._build_enrichment(det_idx, det_addrs, noise, label),
            farm._build_hits(det_idx, det_addrs, noise, m),
        )

    def test_observe_builds_no_metadata(self, pop, monkeypatch):
        farm = HoneyfarmSimulator(pop)

        def forbidden(*args):
            raise AssertionError("metadata built eagerly")

        monkeypatch.setattr(farm, "_build_enrichment", forbidden)
        monkeypatch.setattr(farm, "_build_hits", forbidden)
        farm.observe_month(3)

    def test_first_read_equals_eager_build(self, farm):
        month = farm.observe_month(3)
        enrichment, hits = self._eager(farm, 3)
        assert month.enrichment == enrichment
        assert month.hits == hits

    def test_second_read_is_cached(self, farm):
        month = farm.observe_month(3)
        assert month.enrichment is month.enrichment
        assert month.hits is month.hits

    def test_pickles_before_metadata_is_built(self, farm):
        month = farm.observe_month(3)
        assert "enrichment" not in vars(month)
        restored = pickle.loads(pickle.dumps(month))
        np.testing.assert_array_equal(restored.sources, month.sources)
        assert restored.enrichment == month.enrichment
        assert restored.hits == month.hits

    def test_build_is_traced(self, farm):
        month = farm.observe_month(3)
        with tracing():
            reset_tracing()
            month.enrichment
            month.hits
            spans = take_spans()
        assert [s.name for s in spans] == ["honeyfarm_metadata"] * 2
        assert [s.attrs for s in spans] == [
            {"month": 3, "nnz": month.enrichment.nnz},
            {"month": 3, "nnz": month.hits.nnz},
        ]


class TestResponses:
    def test_both_directions_present(self, pop, month):
        sensors = pop.sensor_addresses
        src_is_sensor = np.isin(month.responses.src, sensors)
        dst_is_sensor = np.isin(month.responses.dst, sensors)
        assert src_is_sensor.any() and dst_is_sensor.any()
        # Every packet touches a sensor on exactly one side.
        assert np.all(src_is_sensor ^ dst_is_sensor)

    def test_time_sorted_within_month(self, month):
        assert month.responses.is_time_sorted()

    def test_bounded_size(self, farm, month):
        assert len(month.responses) <= farm.max_response_packets


class TestBoost:
    def test_config_months_spike(self, farm):
        normal = farm.observe_month(6).n_sources
        for m in CONFIG_CHANGE_MONTHS:
            assert farm.observe_month(m).n_sources > 2 * normal

    def test_boost_for(self, farm):
        assert farm.boost_for(CONFIG_CHANGE_MONTHS[0]) == farm.config_boost
        assert farm.boost_for(6) == 1.0

    def test_custom_boost_months(self, pop):
        farm = HoneyfarmSimulator(pop, boost_months=(3,), config_boost=10.0)
        assert farm.observe_month(3).n_sources > farm.observe_month(6).n_sources


def test_month_summary(farm):
    s = farm.month_summary(2)
    assert s["label"] == "2020-04" and s["days"] == 30 and s["sources"] > 0


def test_invalid_month(farm):
    with pytest.raises(ValueError):
        farm.observe_month(15)
