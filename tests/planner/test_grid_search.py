"""Exhaustive grid strategy: Table 5 rediscovery and the search space edges.

``search_program(..., strategy="grid")`` over a space built with
``search_libraries=False`` prices every (hierarchy, stripe, ring, pipeline)
point with the Table 5 policy libraries; these tests pin what that search
finds and what the space offers it.
"""

from __future__ import annotations

import numpy as np

import repro
from repro import Library, machines
from repro.core.communicator import Communicator
from repro.machine.machines import by_name, generic
from repro.planner import SearchSpace, hierarchy_candidates, search_program

PAYLOAD_COUNT = (1 << 24) // (16 * 4)  # 16 MB total on p=16


def _bcast_program(machine, count, dtype=np.float32):
    comm = Communicator(machine, dtype=dtype, materialize=False)
    repro.compose(comm, "broadcast", count)
    return comm.program


def _search(machine, count=PAYLOAD_COUNT, *, dtype=np.float32,
            strategy="grid", search_libraries=False, **space_kwargs):
    """Search a broadcast of ``count`` elements per chunk on ``machine``."""
    space = SearchSpace.build(machine, search_libraries=search_libraries,
                              **space_kwargs)
    return search_program(_bcast_program(machine, count, dtype), machine,
                          dtype=dtype, space=space, strategy=strategy)


class TestHierarchyCandidates:
    def test_includes_flat_and_physical(self):
        m = machines.perlmutter(4)
        cands = hierarchy_candidates(m)
        assert [16] in cands
        assert [4, 4] in cands
        assert [2, 2, 4] in cands

    def test_multi_level_nodes_get_merged_variant(self):
        m = machines.frontier(4)
        cands = hierarchy_candidates(m)
        assert [4, 4, 2] in cands  # physical
        assert [4, 8] in cands  # die level merged away

    def test_single_node(self):
        m = machines.frontier(1)
        cands = hierarchy_candidates(m)
        assert [8] in cands
        assert [4, 2] in cands

    def test_no_duplicates(self):
        m = machines.perlmutter(2)
        cands = [tuple(c) for c in hierarchy_candidates(m)]
        assert len(cands) == len(set(cands))


class TestGridSearch:
    def test_finds_ring_for_broadcast_on_perlmutter(self):
        """The grid rediscovers Table 5: ring {4,4}, stripe 4, deep pipeline."""
        m = machines.perlmutter(4)
        best = _search(m, pipelines=(1, 8, 32)).best.candidate
        assert best.ring == 4
        assert best.stripe == 4
        assert best.pipeline >= 8
        assert best.hierarchy == (4, 4)

    def test_flat_is_never_best_on_multinode(self):
        m = machines.perlmutter(4)
        res = _search(m, pipelines=(1, 8))
        assert res.best.candidate.hierarchy != (16,)
        flat = [e for e in res.evaluated if e.candidate.hierarchy == (16,)]
        assert flat and all(e.seconds > res.best.seconds for e in flat)

    def test_results_sorted(self):
        m = generic(2, 2, 1, name="tn")
        res = _search(m, (1 << 20) // 16, pipelines=(1, 4))
        times = [e.seconds for e in res.evaluated]
        assert times == sorted(times)

    def test_ipc_only_within_nodes(self):
        m = machines.perlmutter(4)
        for e in _search(m, pipelines=(1,)).evaluated:
            # Any IPC level must sit at an intra-node depth.
            block = m.world_size
            for factor, lib in zip(e.candidate.hierarchy,
                                   e.candidate.libraries):
                if lib is Library.IPC:
                    assert block <= m.gpus_per_node
                block //= factor

    def test_render_and_kwargs(self):
        m = generic(2, 2, 1, name="tr")
        res = _search(m, (1 << 20) // 16, pipelines=(1,))
        assert res.best.seconds == min(e.seconds for e in res.evaluated)
        assert "best:" in res.render(2)
        kwargs = res.best.candidate.init_kwargs()
        assert set(kwargs) == {"hierarchy", "library", "stripe", "ring",
                               "pipeline"}

    def test_explicit_inter_library(self):
        m = machines.frontier(2)
        res = _search(m, (1 << 22) // 16, inter_library=Library.RCCL,
                      pipelines=(1,))
        assert any(Library.RCCL in e.candidate.libraries
                   for e in res.evaluated)

    def test_search_libraries_widens_the_grid(self):
        m = by_name("perlmutter", nodes=2)
        narrow = _search(m, 1024, pipelines=(1,))
        wide = _search(m, 1024, pipelines=(1,), search_libraries=True)
        assert len(wide.evaluated) > len(narrow.evaluated)
        assert wide.best.seconds <= narrow.best.seconds * (1 + 1e-12)

    def test_staged_never_worse_than_grid(self):
        m = by_name("perlmutter", nodes=2)
        grid = _search(m, 1 << 14, pipelines=(1, 8))
        staged = _search(m, 1 << 14, pipelines=(1, 8), strategy="staged",
                         search_libraries=True)
        assert staged.best.seconds <= grid.best.seconds * (1 + 1e-12)

    def test_dtype_respected(self):
        m = generic(2, 2, 1, name="dt")
        res = _search(m, 512, dtype=np.float64, pipelines=(1,))
        assert res.evaluated
