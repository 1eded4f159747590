"""Tests for the triangle-free lower-bound construction pipeline."""

import json
import random
import time
from itertools import combinations, islice

import pytest

from orw.coloring import (
    color_of,
    decide_blue_closed_3,
    decide_red_closed_omega_plus_n,
)
from orw.lowerbound import (
    GnGraph,
    build_gn,
    build_partition,
    check_triangle_free,
    export_dot,
    induced_lower_coloring,
    lower_bound_gamma,
    verify_lower_bound,
)
from orw.ordinals import (
    NodeClassId,
    OrdinalError,
    classify,
    node_class,
    parse,
    valid_classes,
)
from orw.ramsey import (
    RamseyError,
    RamseyRecord,
    WitnessGraph,
    builtin_record,
    canonical_form,
    relabel_red_prefix,
)

from test_coloring import witness_coloring_3


def pipeline(n):
    rec = relabel_red_prefix(builtin_record(n))
    spec = build_partition(n, rec)
    g = build_gn(spec)
    return spec, g, induced_lower_coloring(g)


def vertex_of(spec, cid):
    """The one vertex whose classes hold cid."""
    (name,) = [name for name, classes in spec.vertices.items()
               if cid in classes]
    return name


class TestPartition:
    def test_gamma_formula(self):
        assert lower_bound_gamma(3, 6) == parse("w^2*3+w*3+2")
        assert lower_bound_gamma(5, 14) == parse("w^2*5+w*9+4")

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_partition_is_exact(self, n):
        spec, _, _ = pipeline(n)
        assigned = [cid for classes in spec.vertices.values()
                    for cid in classes]
        assert sorted(assigned) == sorted(valid_classes(spec.gamma))
        assert len(assigned) == len(set(assigned))

    def test_named_memberships_for_3(self):
        spec, _, _ = pipeline(3)
        assert spec.vertices["A1"] == (NodeClassId(1, 0),)
        assert spec.vertices["B2"] == (NodeClassId(2, 1),)
        assert spec.vertices["L5"] == (NodeClassId(5, 1),)
        assert spec.vertices["R"] == (NodeClassId(7, 0),)

    def test_r_has_n_minus_2_classes(self):
        for n in (3, 4, 5):
            spec, _, _ = pipeline(n)
            assert len(spec.vertices["R"]) == n - 2

    def test_sampled_points_land_in_vertices(self):
        spec, _, _ = pipeline(4)
        rng = random.Random(5)
        exprs = ["0", "17", "w*2+3", "w^2", "w^2*2+w*4+9", "w^2*4+w*2",
                 "w^2*4+w*4+2", "w^2*4+w*5", "w^2*3"]
        for e in exprs:
            x = parse(e)
            name = vertex_of(spec, classify(spec.gamma, x))
            assert name in spec.vertices

    def test_rejects_small_n(self):
        with pytest.raises(OrdinalError):
            build_partition(2, builtin_record(3))

    def test_rejects_mismatched_record(self):
        with pytest.raises(OrdinalError):
            build_partition(4, builtin_record(3))

    def test_rejects_bad_record(self):
        rec = builtin_record(3)
        bad = RamseyRecord(3, rec.value,
                           WitnessGraph.from_pairs(5, [(0, 1)]), "builtin")
        with pytest.raises(RamseyError):
            build_partition(3, bad)


class TestGraph:
    def test_stratum_sizes_for_3(self):
        # oracle: 12 spine edges, 2 pendant pairs, 5 witness edges, 5*3 hub
        _, g, _ = pipeline(3)
        sizes = {k: len(v) for k, v in g.strata.items()}
        assert sizes == {"E1": 12, "E2": 2, "E3": 5, "E4": 15}

    def test_unrelabeled_witness_is_rejected(self):
        rec = builtin_record(3)  # vertices 0,1 adjacent in the 5-cycle
        spec = build_partition(3, rec)
        with pytest.raises(RamseyError):
            build_gn(spec)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_triangle_free(self, n):
        _, g, _ = pipeline(n)
        ok, tri = check_triangle_free(g)
        assert ok and tri is None

    def test_planted_triangle_is_found(self):
        spec, g, _ = pipeline(3)
        strata = dict(g.strata)
        strata["E1"] = frozenset(set(strata["E1"]) | {("A1", "L1")})
        bad = GnGraph(spec, strata)
        ok, tri = check_triangle_free(bad)
        assert not ok
        a, b, c = tri
        assert {(a, b), (a, c), (b, c)} <= bad.edges

    def test_planted_triangle_is_the_first_in_name_order(self):
        # the triple the exhaustive scan of sorted names met first
        spec, g, _ = pipeline(3)
        strata = dict(g.strata)
        strata["E1"] = frozenset(set(strata["E1"]) | {("A1", "L1")})
        bad = GnGraph(spec, strata)
        assert check_triangle_free(bad) == (False, ("A1", "B1", "L1"))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_spine_neighborhoods(self, n):
        _, g, _ = pipeline(n)
        e1 = g.strata["E1"]
        for j in range(1, n + 1):
            nb = {x for p in e1 if f"A{j}" in p for x in p if x != f"A{j}"}
            want = ({f"B{k}" for k in range(j, n + 1)}
                    | {f"L{i}" for i in range(1, j)})
            assert nb == want

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_limit_vertices_touch_one_b(self, n):
        _, g, _ = pipeline(n)
        e1 = g.strata["E1"]
        for i in range(1, n + 1):
            bs = {x for p in e1 if f"L{i}" in p for x in p
                  if x.startswith("B")}
            assert bs == {f"B{i}"}

    def test_last_pendant_is_absent(self):
        # C_{n+K} keeps no pendant edge; its limit joins the hub W instead
        _, g, _ = pipeline(3)
        assert ("C6", "L6") not in g.edges
        w = {x for _, x in g.strata["E4"]}  # every E4 pair is (A_i, x)
        assert "L6" in w and "C6" in w

    def test_dot_export(self):
        _, g, _ = pipeline(3)
        dot = export_dot(g)
        assert dot == export_dot(g)
        assert dot.count(" -- ") == len(g.edges)
        assert 'stratum="E3"' in dot and dot.startswith("graph")


class TestInducedColoring:
    def test_example_colors_for_3(self):
        _, _, c = pipeline(3)
        assert color_of(c, parse("w"), parse("w^2")) == 1
        assert color_of(c, parse("0"), parse("5")) == 0
        assert color_of(c, parse("w^2*3+1"), parse("7")) == 1

    def test_within_all_red_and_no_overrides(self):
        _, _, c = pipeline(4)
        assert set(c.within.values()) == {0}
        assert c.overrides == {} or len(c.overrides) == 0

    def test_merged_classes_pair_red(self):
        spec, _, c = pipeline(5)
        r_classes = spec.vertices["R"]
        assert len(r_classes) == 3
        for a, b in combinations(r_classes, 2):
            assert c.class_pair_color(a, b) == 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_homogeneous_and_normal(self, n):
        # with no overrides every pair takes its class-table color, so the
        # coloring is omega-homogeneous and its colors depend on classes only
        _, _, c = pipeline(n)
        assert c.overrides == {}
        pts = sorted({x for cid in valid_classes(c.gamma)
                      for x in islice(node_class(c.gamma, cid), 2)})
        for a, b in combinations(pts, 2):
            assert color_of(c, a, b) == c.class_pair_color(
                classify(c.gamma, a), classify(c.gamma, b))

    def test_agrees_with_handmade_coloring_up_to_isomorphism(self):
        # the hand-built copy uses a different (isomorphic) witness labeling
        _, g, built = pipeline(3)
        hand = witness_coloring_3()
        assert built.gamma == hand.gamma
        built_l = WitnessGraph.from_pairs(
            5, [(int(a[1:]) - 1, int(b[1:]) - 1)
                for a, b in g.strata["E3"]])
        hand_l = WitnessGraph.from_pairs(
            5, [(i - 1, j - 1) for (i, j) in
                [(1, 3), (2, 4), (3, 5), (1, 4), (2, 5)]])
        assert canonical_form(built_l) == canonical_form(hand_l)
        blue = lambda c: sum(c.cross.values()) + sum(c.within.values())
        assert blue(built) == blue(hand)
        for c in (built, hand):
            assert decide_blue_closed_3(c) is None
            assert decide_red_closed_omega_plus_n(c, 3) is None


class TestVerifyPipeline:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_passes_within_budget(self, n):
        t0 = time.time()
        rep = verify_lower_bound(n)
        assert time.time() - t0 < 10.0
        assert rep.passed
        assert [s.name for s in rep.stages] == [
            "witness", "triangle-free", "no-blue-3",
            "no-red-omega-plus-n", "red-control-at-n-minus-1"]
        assert all(s.ok for s in rep.stages)

    def test_control_certificate_is_reported(self):
        rep = verify_lower_bound(3)
        ctrl = rep.stages[-1]
        assert ctrl.name == "red-control-at-n-minus-1" and ctrl.ok
        doc = json.loads(ctrl.detail)
        assert doc["kind"] == "red-omega-plus-n"
        # weakened target omega+2: the limit point plus a single top above it
        assert len(doc["top_points"]) == 1

    def test_report_json(self):
        rep = verify_lower_bound(3)
        doc = json.loads(rep.to_json())
        assert doc["passed"] is True and doc["gamma"] == "w^2*3+w*3+2"
        assert [s["name"] for s in doc["stages"]][0] == "witness"

    def test_unrelabeled_builtin_is_accepted(self):
        # the pipeline relabels internally, so raw builtins work
        rep = verify_lower_bound(5, builtin_record(5))
        assert rep.passed

    def test_unverified_witness_fails_its_stage(self):
        # the witness stage reports the record; nothing is relabeled first
        rec = RamseyRecord(3, 6, WitnessGraph.from_pairs(5, [(0, 1)]),
                           "user-file")
        rep = verify_lower_bound(3, rec=rec)
        assert not rep.passed
        assert [(s.name, s.ok, s.detail) for s in rep.stages] == [
            ("witness", False, "order 5, source user-file")]

    def test_missing_builtin_errors(self):
        with pytest.raises(RamseyError):
            verify_lower_bound(6)


class TestSabotage:
    def test_dropped_witness_edge_yields_red_certificate(self):
        spec, g, _ = pipeline(3)
        victim = sorted(g.strata["E3"])[0]
        strata = dict(g.strata)
        strata["E3"] = frozenset(set(strata["E3"]) - {victim})
        broken = induced_lower_coloring(GnGraph(spec, strata))
        cert = decide_red_closed_omega_plus_n(broken, 3)
        assert cert is not None
        # the omega-limits of the two no-longer-adjacent blocks top the copy
        tops = {vertex_of(spec, classify(spec.gamma, t))
                for t in cert.top_points}
        assert tops <= {f"L{i}" for i in range(1, 7)}
        assert decide_blue_closed_3(broken) is None
