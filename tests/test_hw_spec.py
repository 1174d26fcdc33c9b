"""Tests for repro.hwmodel.spec: ladders, server specs, allocations."""


import pytest
from hypothesis import given, strategies as st

from repro.errors import AllocationError, ConfigError
from repro.hwmodel.spec import (
    Allocation,
    FrequencyLadder,
    ServerSpec,
    spare_of,
)


class TestFrequencyLadder:
    def test_default_ladder_matches_table1(self):
        ladder = FrequencyLadder()
        assert ladder.min_ghz == 1.2
        assert ladder.max_ghz == 2.2
        assert ladder.num_steps == 11

    def test_steps_are_ascending_and_inclusive(self):
        steps = FrequencyLadder().steps()
        assert steps[0] == 1.2
        assert steps[-1] == 2.2
        assert list(steps) == sorted(steps)

    def test_clamp_below_above_and_snap(self):
        ladder = FrequencyLadder()
        assert ladder.clamp(0.5) == 1.2
        assert ladder.clamp(9.9) == 2.2
        assert ladder.clamp(1.74) == pytest.approx(1.7)
        assert ladder.clamp(1.76) == pytest.approx(1.8)

    def test_contains_only_ladder_points(self):
        ladder = FrequencyLadder()
        assert ladder.contains(1.5)
        assert not ladder.contains(1.55)
        assert not ladder.contains(1.1)
        assert not ladder.contains(2.3)

    def test_step_down_and_up_clamp_at_ends(self):
        ladder = FrequencyLadder()
        assert ladder.step_down(1.2) == 1.2
        assert ladder.step_up(2.2) == 2.2
        assert ladder.step_down(2.2) == pytest.approx(2.1)
        assert ladder.step_up(1.2) == pytest.approx(1.3)

    def test_invalid_ladders_rejected(self):
        with pytest.raises(ConfigError):
            FrequencyLadder(min_ghz=-1.0)
        with pytest.raises(ConfigError):
            FrequencyLadder(min_ghz=2.0, max_ghz=1.0)

    @given(st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
    def test_clamp_always_lands_on_ladder(self, freq):
        ladder = FrequencyLadder()
        assert ladder.contains(ladder.clamp(freq))

    @given(st.floats(min_value=1.2, max_value=2.2))
    def test_step_down_never_increases(self, freq):
        ladder = FrequencyLadder()
        assert ladder.step_down(freq) <= ladder.clamp(freq) + 1e-9


class TestServerSpec:
    def test_table1_defaults(self, spec):
        assert spec.cores == 12
        assert spec.llc_ways == 20
        assert spec.idle_power_w == 50.0
        assert spec.nameplate_power_w == 135.0
        assert spec.max_freq_ghz == 2.2
        assert spec.min_freq_ghz == 1.2

    def test_full_allocation(self, spec):
        full = spec.full_allocation()
        assert full.cores == 12
        assert full.ways == 20
        assert full.freq_ghz == 2.2

    def test_validate_rejects_oversubscription(self, spec):
        with pytest.raises(AllocationError):
            spec.validate(Allocation(cores=13, ways=5))
        with pytest.raises(AllocationError):
            spec.validate(Allocation(cores=2, ways=21))
        with pytest.raises(AllocationError):
            spec.validate(Allocation(cores=2, ways=2, freq_ghz=1.55))

    def test_validate_accepts_valid_and_empty(self, spec):
        spec.validate(Allocation(cores=3, ways=7, freq_ghz=1.8))
        spec.validate(Allocation.empty())

    def test_iter_allocations_covers_grid(self, spec):
        allocs = list(spec.iter_allocations())
        assert len(allocs) == 12 * 20
        assert all(a.freq_ghz == 2.2 for a in allocs)

    def test_iter_allocations_custom_frequency(self, spec):
        allocs = list(spec.iter_allocations(freq_ghz=1.5, min_cores=11, min_ways=19))
        assert len(allocs) == 4
        assert all(a.freq_ghz == 1.5 for a in allocs)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            ServerSpec(cores=0)
        with pytest.raises(ConfigError):
            ServerSpec(llc_ways=0)
        with pytest.raises(ConfigError):
            ServerSpec(idle_power_w=-1.0)


class TestAllocation:
    def test_empty_allocation(self):
        empty = Allocation.empty()
        assert empty.is_empty
        assert empty.cores == 0 and empty.ways == 0

    def test_cores_without_ways_rejected(self):
        with pytest.raises(AllocationError):
            Allocation(cores=2, ways=0)

    def test_negative_counts_rejected(self):
        with pytest.raises(AllocationError):
            Allocation(cores=-1, ways=2)
        with pytest.raises(AllocationError):
            Allocation(cores=1, ways=-1)

    def test_duty_cycle_bounds(self):
        Allocation(cores=1, ways=1, duty_cycle=0.0)
        Allocation(cores=1, ways=1, duty_cycle=1.0)
        with pytest.raises(AllocationError):
            Allocation(cores=1, ways=1, duty_cycle=1.2)
        with pytest.raises(AllocationError):
            Allocation(cores=1, ways=1, duty_cycle=-0.1)

    def test_with_helpers_produce_copies(self):
        alloc = Allocation(cores=4, ways=6, freq_ghz=2.0)
        assert alloc.with_freq(1.8).freq_ghz == 1.8
        assert alloc.with_freq(1.8) is not alloc
        assert alloc.with_duty_cycle(0.5).duty_cycle == 0.5
        assert alloc.with_resources(2, 3).cores == 2
        assert alloc.freq_ghz == 2.0  # original untouched

    def test_resource_vector(self):
        assert Allocation(cores=4, ways=6).resource_vector() == (4.0, 6.0)


class TestSpareOf:
    def test_complement_of_partial_allocation(self, spec):
        spare = spare_of(spec, Allocation(cores=4, ways=6))
        assert spare.cores == 8
        assert spare.ways == 14
        assert spare.freq_ghz == spec.max_freq_ghz

    def test_full_primary_leaves_nothing(self, spec):
        assert spare_of(spec, spec.full_allocation()).is_empty

    def test_all_cores_taken_leaves_nothing(self, spec):
        assert spare_of(spec, Allocation(cores=12, ways=5)).is_empty

    @given(st.integers(min_value=1, max_value=11), st.integers(min_value=1, max_value=19))
    def test_primary_plus_spare_covers_server(self, cores, ways):
        spec = ServerSpec()
        primary = Allocation(cores=cores, ways=ways)
        spare = spare_of(spec, primary)
        assert primary.cores + spare.cores == spec.cores
        assert primary.ways + spare.ways == spec.llc_ways
