"""In-order pipeline validator: checks the analytic hide fractions."""

import pytest

from repro.hardware import DEFAULT_PARAMS
from repro.hardware.latency import hide_fraction
from repro.hardware.profile import Pattern

from .pipeline_model import Event, InOrderPipeline


@pytest.fixture
def pipe():
    return InOrderPipeline(DEFAULT_PARAMS)


class TestMechanics:
    def test_ops_are_single_cycle(self, pipe):
        assert pipe.run([Event.op()] * 10) == 10.0

    def test_unused_load_overlaps(self, pipe):
        # load issued, never used: only the tail waits for it
        cycles = pipe.run([Event.load(50.0)] + [Event.op()] * 100)
        assert cycles == pytest.approx(101.0)

    def test_immediate_use_exposes_latency(self, pipe):
        cycles = pipe.run([Event.load(50.0), Event.use()])
        assert cycles >= 50.0

    def test_dependent_chain_serialises(self, pipe):
        n = 20
        cycles = pipe.run([Event.load(30.0, dependent=True) for _ in range(n)])
        assert cycles >= (n - 1) * 30.0

    def test_mshr_limit_throttles(self):
        few = InOrderPipeline(DEFAULT_PARAMS.with_overrides(mshrs=1))
        many = InOrderPipeline(DEFAULT_PARAMS.with_overrides(mshrs=16))
        sched = [Event.load(40.0) for _ in range(32)]
        assert few.run(list(sched)) > 2 * many.run(list(sched))

    def test_store_buffer_hides_stores(self, pipe):
        cycles = pipe.run([Event.store() for _ in range(6)])
        assert cycles <= 6 + 2.0  # issue slots + final drain

    def test_store_buffer_backpressure(self, pipe):
        # hundreds of back-to-back stores drain at ~1/cycle anyway
        cycles = pipe.run([Event.store() for _ in range(200)])
        assert cycles < 250.0


class TestHideFractionValidation:
    """The analytic constants must sit inside what the pipeline measures.

    The analytic model is a *mean* over mixed access streams, so we
    bracket rather than pin: dependent accesses must expose nearly
    everything, independent gathers must expose something in between,
    and the ordering must match.
    """

    def test_dependent_exposes_nearly_all(self, pipe):
        exposed = pipe.measure_exposure(
            DEFAULT_PARAMS.dram_latency, n=50, pattern="dependent"
        )
        analytic = hide_fraction(Pattern.DEPENDENT, DEFAULT_PARAMS)
        assert exposed > 0.8
        assert abs(exposed - analytic) < 0.25

    def test_independent_gathers_partially_hidden(self, pipe):
        exposed = pipe.measure_exposure(
            DEFAULT_PARAMS.dram_latency, n=50, pattern="random", use_gap=2
        )
        # with 8 MSHRs and a short use distance the core still eats a
        # large visible share, but clearly less than pointer chasing
        dep = pipe.measure_exposure(
            DEFAULT_PARAMS.dram_latency, n=50, pattern="dependent"
        )
        assert exposed < dep
        analytic = hide_fraction(Pattern.RANDOM, DEFAULT_PARAMS)
        assert exposed > analytic / 2  # the model is not optimistic by 2x

    def test_ordering_matches_model(self, pipe):
        dep = pipe.measure_exposure(60.0, n=40, pattern="dependent")
        rand = pipe.measure_exposure(60.0, n=40, pattern="random", use_gap=4)
        a_dep = hide_fraction(Pattern.DEPENDENT, DEFAULT_PARAMS)
        a_rand = hide_fraction(Pattern.RANDOM, DEFAULT_PARAMS)
        assert (dep > rand) == (a_dep > a_rand)
