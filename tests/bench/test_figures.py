"""Tests for the figure generators (fast subset; full runs live in
benchmarks/), rendered through the ``repro.analysis`` renderers."""

from __future__ import annotations

import pytest

from repro import machines
from repro.analysis.structure import (
    FIG5_FACTORIZATIONS,
    gen_fig1_volume,
    gen_fig2_bindings,
    gen_fig5_trees,
    gen_fig6_stages,
    gen_fig7_matrices,
    render_fig1_volume,
    render_fig2_bindings,
    render_fig5_trees,
    render_fig7_matrices,
)
from repro.analysis.throughput import gen_fig9, render_fig9
from repro.bench.configs import ring_config, tree_config


def _rows(records, row):
    return [r for r in records if r["row"] == row]


class TestFig1:
    def test_volumes(self):
        inter = {r["strategy"]: r["inter_node"]
                 for r in _rows(gen_fig1_volume(2, 3, 300), "strategy")}
        assert inter == {"direct": 900, "hierarchical": 300}

    def test_render_mentions_both(self):
        text = render_fig1_volume(gen_fig1_volume(2, 3, 300))
        assert "direct" in text and "hierarchical" in text


class TestFig2:
    def test_three_panels(self):
        records = _rows(gen_fig2_bindings(), "binding")
        assert [case["panel"] for case in records] == ["a", "b", "c"]

    def test_render(self):
        assert "75%" in render_fig2_bindings(gen_fig2_bindings())


class TestFig5:
    def test_six_factorizations(self):
        assert len(FIG5_FACTORIZATIONS) == 6
        assert len(_rows(gen_fig5_trees(), "tree")) == 6

    def test_render_contains_vectors(self):
        text = render_fig5_trees(gen_fig5_trees())
        assert "{3, 2, 4}" in text and "{2, 2, 6}" in text


class TestFig6:
    def test_stage_counts(self):
        counts = {r["label"]: r["stages"]
                  for r in _rows(gen_fig6_stages(), "stages")}
        assert counts == {"tree {2,2,3}": 4, "ring {4,3}": 5}


class TestFig7:
    def test_matrices_shapes(self):
        mats = _rows(gen_fig7_matrices(), "matrix")
        assert {case["case"] for case in mats} == {"tree", "ring"}
        for case in mats:
            assert len(case["volume"]) == 12
            assert len(case["library"]) == 12

    def test_render(self):
        text = render_fig7_matrices(gen_fig7_matrices())
        assert "tree" in text and "ring" in text


class TestFig9Small:
    def test_curves_structure(self):
        points = _rows(gen_fig9("broadcast", payloads_bytes=[1 << 18, 1 << 22],
                                depths=(1, 4)), "point")
        assert {r["depth"] for r in points} == {1, 4}
        assert len([r for r in points if r["depth"] == 1]) == 2

    def test_render(self):
        records = gen_fig9("broadcast", payloads_bytes=[1 << 18, 1 << 22],
                           depths=(1, 4))
        text = render_fig9(records)
        assert "m=1" in text and "m=4" in text


class TestConfigsUsedByFigures:
    def test_ring_tree_configs_validate_on_all_systems(self):
        for name in machines.PAPER_SYSTEMS:
            m = machines.by_name(name, nodes=4)
            tree_config(m)
            ring_config(m)

    @pytest.mark.parametrize("nodes", [2, 8])
    def test_configs_scale_with_nodes(self, nodes):
        m = machines.frontier(nodes)
        assert tree_config(m).hierarchy[-2:] == (4, 2)
        assert ring_config(m).hierarchy[0] == nodes
