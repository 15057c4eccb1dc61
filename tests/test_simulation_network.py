"""Unit tests for the seeded random distributions.

The file keeps its historical name: it once also tested a message-passing
network model, which the simulator no longer has (control-plane hops are
latencies, see ``repro.simulation``).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import PiecewiseCDFSampler, SeededRandom


def test_seeded_random_substreams_are_independent_and_deterministic():
    rng = SeededRandom(42)
    a1 = rng.substream("workload").random()
    b1 = rng.substream("network").random()
    rng2 = SeededRandom(42)
    assert rng2.substream("workload").random() == a1
    assert rng2.substream("network").random() == b1
    assert a1 != b1


def test_piecewise_cdf_matches_knot_percentiles():
    rng = SeededRandom(5)
    # AdobeTrace task-duration percentiles from the paper (§2.3.1).
    knots = [(0.0, 15.0), (0.5, 120.0), (0.75, 300.0), (0.9, 1020.0),
             (0.95, 2160.0), (0.99, 10920.0), (1.0, 40000.0)]
    sampler = PiecewiseCDFSampler(knots, rng)
    assert sampler.quantile(0.5) == pytest.approx(120.0)
    assert sampler.quantile(0.9) == pytest.approx(1020.0)
    samples = sorted(sampler.sample() for _ in range(8000))
    p50 = samples[int(0.5 * len(samples))]
    p90 = samples[int(0.9 * len(samples))]
    assert 90.0 < p50 < 160.0
    assert 750.0 < p90 < 1400.0


def test_piecewise_cdf_validation():
    rng = SeededRandom(6)
    with pytest.raises(ValueError):
        PiecewiseCDFSampler([(0.0, 1.0)], rng)
    with pytest.raises(ValueError):
        PiecewiseCDFSampler([(0.5, 10.0), (0.5, 20.0)], rng)
    with pytest.raises(ValueError):
        PiecewiseCDFSampler([(0.0, -1.0), (1.0, 5.0)], rng)


@settings(max_examples=50, deadline=None)
@given(q=st.floats(min_value=0.0, max_value=1.0))
def test_piecewise_cdf_quantile_is_monotone_property(q):
    rng = SeededRandom(11)
    knots = [(0.0, 10.0), (0.5, 100.0), (1.0, 1000.0)]
    sampler = PiecewiseCDFSampler(knots, rng)
    value = sampler.quantile(q)
    assert 10.0 <= value <= 1000.0
    if q > 0.0:
        assert sampler.quantile(q) >= sampler.quantile(q * 0.5) - 1e-9
    assert not math.isnan(value)
