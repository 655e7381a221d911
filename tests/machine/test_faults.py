"""FaultSet unit + property suite: declaration, fingerprinting, cache keys.

The fault layer's contracts at the machine level:

* invalid declarations (out-of-range indices, scales outside ``(0, 1]``,
  draining every node) raise :class:`~repro.errors.FaultError` at
  declaration or ``apply`` time — never a numpy index error downstream;
* an empty fault set is the identity: ``apply`` returns the machine
  unchanged and the plan-cache fingerprint is the healthy one;
* a non-empty fault set always produces a *distinct* fingerprint — even a
  scale-1.0 derate whose rates are numerically healthy — so degraded plans
  can never alias healthy plan-cache entries (fuzzed through the ``.npz``
  disk layer below);
* ``FaultSet.random`` is a pure function of ``(machine shape, seed)``;
* elastic-shrink survivor maps reject malformed input with a FaultError
  naming the offending entry (fuzzed against random rank sequences).
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.communicator import Communicator
from repro.core.composition import compose
from repro.core.plancache import (
    CachedPlan,
    PlanCache,
    machine_fingerprint,
    schedule_key,
    timing_key,
)
from repro.errors import FaultError
from repro.machine.faults import DOWN_SCALE, FaultSet, rates_for, resource_rate
from repro.machine.machines import by_name
from repro.transport.library import Library
from repro.workloads.elastic import shrink_rank_map, survivor_ranks

FUZZ = dict(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def delta2():
    return by_name("delta", nodes=2)


@pytest.fixture(scope="module")
def perl2():
    return by_name("perlmutter", nodes=2)


class TestValidation:
    def test_nic_node_out_of_range(self, delta2):
        with pytest.raises(FaultError):
            FaultSet(down_nics=((9, 0),)).apply(delta2)

    def test_nic_index_out_of_range(self, delta2):
        with pytest.raises(FaultError):
            FaultSet(down_nics=((0, 1),)).apply(delta2)  # delta has 1 NIC

    def test_link_level_out_of_range(self, delta2):
        with pytest.raises(FaultError):
            FaultSet(down_links=((0, 5),)).apply(delta2)

    def test_straggler_rank_out_of_range(self, delta2):
        with pytest.raises(FaultError):
            FaultSet(stragglers=((99, 0.5),)).apply(delta2)

    @pytest.mark.parametrize("scale", (0.0, -0.5, 1.5))
    def test_scales_must_be_in_unit_interval(self, scale):
        with pytest.raises(FaultError):
            FaultSet(stragglers=((0, scale),))
        with pytest.raises(FaultError):
            FaultSet(nic_derate=((0, 0, scale),))
        with pytest.raises(FaultError):
            FaultSet(link_derate=((0, 0, scale),))

    def test_cannot_drain_all_nodes(self, delta2):
        with pytest.raises(FaultError):
            FaultSet(drained_nodes=(0, 1)).apply(delta2)

    def test_unknown_resource_kind_rejected(self, delta2):
        degraded = FaultSet(stragglers=((0, 0.5),)).apply(delta2)
        with pytest.raises(FaultError):
            resource_rate(degraded, ("warp_drive", 0))


class TestIdentity:
    def test_empty_apply_is_the_machine(self, delta2):
        assert FaultSet().apply(delta2) is delta2
        assert FaultSet().is_empty()
        assert FaultSet().describe() == "healthy"
        assert rates_for(delta2) is None

    def test_empty_fingerprint_matches_healthy(self, delta2):
        unfaulted = FaultSet().apply(delta2)
        assert machine_fingerprint(unfaulted) == machine_fingerprint(delta2)

    def test_apply_replaces_prior_faults(self, delta2):
        first = FaultSet(stragglers=((0, 0.5),)).apply(delta2)
        second = FaultSet(stragglers=((1, 0.75),)).apply(first)
        assert second.faults == FaultSet(stragglers=((1, 0.75),))
        # And an empty set strips faults entirely.
        assert FaultSet().apply(first).faults is None

    def test_scale_one_derate_is_numerically_healthy_but_keyed_apart(
            self, delta2):
        degraded = FaultSet(nic_derate=((0, 0, 1.0),)).apply(delta2)
        rates = rates_for(degraded)
        assert rates is not None
        assert float(rates.nic_scale.min()) == 1.0
        key = ("nic_tx", 0, 0)
        assert resource_rate(degraded, key) == resource_rate(delta2, key)
        assert machine_fingerprint(degraded) != machine_fingerprint(delta2)


class TestResourceRates:
    def test_down_nic_rate(self, perl2):
        degraded = FaultSet(down_nics=((1, 3),)).apply(perl2)
        assert resource_rate(degraded, ("nic_tx", 1, 3)) == pytest.approx(
            perl2.nic_bandwidth * DOWN_SCALE)
        assert resource_rate(degraded, ("nic_rx", 1, 3)) == pytest.approx(
            perl2.nic_bandwidth * DOWN_SCALE)
        # Unfaulted NICs keep their healthy rate.
        assert resource_rate(degraded, ("nic_tx", 0, 3)) == pytest.approx(
            perl2.nic_bandwidth)

    def test_straggler_scales_injection_and_links(self, delta2):
        degraded = FaultSet(stragglers=((5, 0.5),)).apply(delta2)
        assert resource_rate(degraded, ("inj_tx", 5)) == pytest.approx(
            delta2.gpu_injection_bandwidth * 0.5)
        for lvl in range(len(delta2.levels)):
            assert resource_rate(degraded, ("link_tx", 5, lvl)) == (
                pytest.approx(delta2.levels[lvl].bandwidth * 0.5))
        assert resource_rate(degraded, ("inj_tx", 4)) == pytest.approx(
            delta2.gpu_injection_bandwidth)

    def test_link_derate_touches_one_level_only(self, delta2):
        degraded = FaultSet(link_derate=((4, 0, 0.6),)).apply(delta2)
        assert resource_rate(degraded, ("link_tx", 4, 0)) == pytest.approx(
            delta2.levels[0].bandwidth * 0.6)
        assert resource_rate(degraded, ("copy", 4)) == pytest.approx(
            delta2.copy_bandwidth)


class TestRandomAndWithNodes:
    def test_random_is_seed_deterministic(self, perl2):
        a = FaultSet.random(perl2, 7)
        b = FaultSet.random(perl2, 7)
        assert a == b
        assert a.fingerprint() == b.fingerprint()
        assert FaultSet.random(perl2, 8) != a

    def test_random_is_nonempty_and_applies(self, delta2):
        faults = FaultSet.random(delta2, 3)
        assert not faults.is_empty()
        assert faults.apply(delta2).faults == faults

    def test_with_nodes_reapplies_faults(self, perl2):
        degraded = FaultSet(down_nics=((0, 0),)).apply(perl2)
        grown = degraded.with_nodes(4)
        assert grown.nodes == 4
        assert grown.faults == degraded.faults

    def test_with_nodes_revalidates_indices(self):
        machine = by_name("perlmutter", nodes=4)
        degraded = FaultSet(down_nics=((3, 0),)).apply(machine)
        with pytest.raises(FaultError):
            degraded.with_nodes(2)  # node 3 no longer exists


class TestShrinkRankMap:
    def test_default_map_is_survivors_in_order(self):
        machine = by_name("delta", nodes=4)
        assert survivor_ranks(machine, (3,)) == tuple(range(12))
        assert shrink_rank_map(machine, (1,)) == (
            0, 1, 2, 3, 8, 9, 10, 11, 12, 13, 14, 15)

    @pytest.mark.parametrize("bad, fragment", [
        (tuple(range(11)), "needs exactly 12"),
        (tuple(range(11)) + (99,), "out of range"),
        (tuple(range(11)) + (12,), "drained node 3"),
        (tuple(range(11)) + (0,), "repeats rank 0"),
    ])
    def test_invalid_maps_raise_named_fault_errors(self, bad, fragment):
        machine = by_name("delta", nodes=4)
        with pytest.raises(FaultError, match=fragment):
            shrink_rank_map(machine, (3,), bad)


@given(entries=st.lists(st.integers(-5, 40), max_size=24))
@settings(**FUZZ)
def test_shrink_rank_map_never_index_errors(entries):
    """Arbitrary rank sequences either validate or raise FaultError —
    the error path never degenerates into a numpy/list IndexError."""
    machine = by_name("delta", nodes=4)
    try:
        got = shrink_rank_map(machine, (3,), entries)
    except FaultError:
        return
    assert got == tuple(entries)
    assert len(got) == 12


@pytest.fixture(scope="module")
def small_plan(delta2):
    """One real synthesized plan to push through the cache layers."""
    comm = Communicator(delta2, materialize=False)
    compose(comm, "all_reduce", 1 << 12)
    comm.init(hierarchy=[2, 4], library=[Library.MPI, Library.IPC])
    return comm


@given(seed=st.integers(0, 1 << 20))
@settings(**FUZZ)
def test_fault_sets_round_trip_the_plan_cache_without_collisions(
        seed, delta2, small_plan):
    """Random fault sets key their own ``.npz`` plan-cache entries in both
    layers: the degraded keys never collide with healthy ones, the entries
    round-trip through the disk layer intact, and the healthy keys stay
    misses."""
    faults = FaultSet.random(delta2, seed)
    degraded = faults.apply(delta2)

    def _keys(machine):
        skey = schedule_key(small_plan.program, machine, (2, 4), stripe=1,
                            ring=1, pipeline=1)
        return skey, timing_key(skey, machine, small_plan.plan.libraries,
                                elem_bytes=4, dtype_name="float32")

    healthy, damaged = _keys(delta2), _keys(degraded)
    for good, bad in zip(healthy, damaged):
        assert bad.digest != good.digest

    entries = (CachedPlan(small_plan.schedule, None, 0.0),
               CachedPlan(None, small_plan.timing, 0.0))
    with tempfile.TemporaryDirectory() as tmp:
        writer = PlanCache(disk_dir=tmp)
        for key, entry in zip(damaged, entries):
            writer.put(key, entry)
        fresh = PlanCache(disk_dir=tmp)
        schedule = fresh.get(damaged[0])
        timing = fresh.get(damaged[1])
        assert schedule is not None and timing is not None
        assert timing.timing.elapsed == small_plan.timing.elapsed
        assert len(schedule.schedule) == len(small_plan.schedule)
        assert all(fresh.get(key) is None for key in healthy)
