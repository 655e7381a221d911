"""Planner staged-search tests: equivalence, budget, determinism."""

from __future__ import annotations

import pytest

import repro
from repro import Library
from repro.core.communicator import Communicator
from repro.errors import InitializationError
from repro.machine.machines import by_name, generic
from repro.planner import (
    CollectiveBuilder,
    SearchBudget,
    SearchSpace,
    default_inter_libraries,
    library_vectors,
    plan_collective,
    policy_libraries,
    search_program,
)

PAYLOAD = 1 << 22  # 4 MiB


def small_machine():
    return by_name("perlmutter", nodes=2)


class TestSpace:
    def test_policy_seed_leads_library_vectors(self):
        m = small_machine()
        vectors = library_vectors(m, (2, 4), default_inter_libraries(m))
        assert vectors[0] == policy_libraries(m, (2, 4), Library.NCCL)
        assert len(vectors) > 2  # the searchable dimension actually exists

    def test_grid_is_policy_subset_of_candidates(self):
        m = small_machine()
        space = SearchSpace.build(m, pipelines=(1, 8))
        cands = set(space.candidates())
        grid = space.grid_candidates()
        assert grid and set(grid) <= cands
        assert len(cands) > len(grid)  # library dimension widens the space
        policy = policy_libraries(m, (2, 4), Library.NCCL)
        assert all(
            c.libraries == policy for c in grid if c.hierarchy == (2, 4)
        )

    def test_candidates_are_valid(self):
        m = small_machine()
        for cand in SearchSpace.build(m, pipelines=(1,)).candidates():
            comm = Communicator(m, materialize=False)
            repro.compose(comm, "broadcast", 64)
            comm.init(**cand.init_kwargs())  # must not raise

    def test_no_search_libraries_matches_legacy(self):
        m = small_machine()
        space = SearchSpace.build(m, pipelines=(1, 8),
                                  search_libraries=False)
        assert set(space.candidates()) == set(space.grid_candidates())


class TestStagedSearch:
    @pytest.mark.parametrize("collective", ["broadcast", "all_gather"])
    def test_matches_exhaustive_best(self, collective):
        m = small_machine()
        space = SearchSpace.build(m, pipelines=(1, 8))
        staged = plan_collective(m, collective, PAYLOAD, space=space)
        grid = plan_collective(m, collective, PAYLOAD, space=space,
                               strategy="grid")
        assert staged.best.seconds <= grid.best.seconds * (1 + 1e-12)

    def test_budget_pruning_and_halving_counters(self):
        m = small_machine()
        space = SearchSpace.build(m, pipelines=(1, 4, 16))
        result = plan_collective(m, "broadcast", PAYLOAD, space=space)
        stats = result.stats
        assert stats.generated > stats.grid_size
        assert stats.pruned > 0
        assert stats.truncated_evals > 0
        assert len(stats.rung_sizes) == 2  # both halving rungs ran
        assert stats.rung_sizes[0] >= stats.rung_sizes[1]
        # The headline contract: full-payload simulations on at most a
        # third of the candidates the exhaustive grid search prices.
        assert stats.full_evals * 3 <= stats.grid_size

    def test_deterministic_under_jobs(self):
        m = generic(2, 2, 1, name="det")
        serial = plan_collective(m, "all_gather", 1 << 20, jobs=1)
        parallel = plan_collective(m, "all_gather", 1 << 20, jobs=2)
        assert [(e.candidate, e.seconds) for e in serial.evaluated] == \
            [(e.candidate, e.seconds) for e in parallel.evaluated]
        assert serial.stats.full_evals == parallel.stats.full_evals

    def test_render_reports_counters(self):
        m = generic(2, 2, 1, name="rnd")
        result = plan_collective(m, "broadcast", 1 << 20)
        text = result.render(2)
        assert "pruned analytically" in text
        assert "full-payload evals" in text

    def test_collective_builder_scales_payload(self):
        m = small_machine()
        builder = CollectiveBuilder(m, "broadcast", 4096)
        assert builder(1).max_count() == 4096 * m.world_size
        assert builder(16).max_count() == 256 * m.world_size

    def test_unknown_strategy_rejected(self):
        m = generic(2, 2, 1, name="bad")
        with pytest.raises(InitializationError, match="strategy"):
            plan_collective(m, "broadcast", 1 << 20, strategy="annealing")

    def test_program_without_truncation_stays_in_budget(self):
        m = small_machine()
        comm = Communicator(m, materialize=False)
        repro.compose(comm, "broadcast", 1 << 14)
        space = SearchSpace.build(m, pipelines=(1, 8))
        result = search_program(comm.program, m, space=space)
        assert result.stats.truncated_evals == 0  # no builder, no rungs
        assert result.stats.full_evals * 3 <= result.stats.grid_size


class TestInitTuned:
    def test_picks_and_applies_best_plan(self):
        m = generic(2, 2, 1, name="tun")
        comm = Communicator(m, materialize=False)
        repro.compose(comm, "broadcast", 4096)
        result = comm.init_tuned()
        assert comm.plan is not None
        assert comm.plan.pipeline == result.best.candidate.pipeline
        assert comm.run() == pytest.approx(result.best.seconds)

    def test_requires_composition(self):
        m = generic(2, 2, 1, name="emp")
        comm = Communicator(m, materialize=False)
        with pytest.raises(InitializationError, match="no primitives"):
            comm.init_tuned()

    def test_rejects_double_init(self):
        m = generic(2, 2, 1, name="dbl")
        comm = Communicator(m, materialize=False)
        repro.compose(comm, "broadcast", 256)
        comm.init(hierarchy=[4], library=[Library.MPI])
        with pytest.raises(InitializationError, match="already initialized"):
            comm.init_tuned()
