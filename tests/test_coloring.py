"""Tests for the class-table coloring model and its decision procedures."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, islice
from typing import Iterator

import pytest

import orw.coloring
from orw.coloring import (
    _limit_candidates,
    _pool,
    BLUE,
    MAX_CLASSES,
    RED,
    CopyCertificate,
    QuotientColoring,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    color_of,
    coloring_from_json,
    coloring_to_json,
    decide_blue_closed_3,
    decide_red_closed_omega_plus_n,
)
from orw.lowerbound import build_gn, build_partition, induced_lower_coloring
from orw.ordinals import (
    NodeClassId,
    Ordinal,
    OrdinalError,
    classify,
    node_class,
    parse as o,
    valid_classes,
)
from orw.ramsey import builtin_record, relabel_red_prefix

from oracles import limit_candidates_all_gaps


def witness_coloring_3() -> QuotientColoring:
    """The triangle-free lower-bound coloring for n=3 on w^2*3+w*3+2.

    Built directly from its blue class pairs; the L-block pattern is the
    5-cycle written so that the first two L points are non-adjacent.
    """
    A = {i: NodeClassId(i, 0) for i in (1, 2, 3)}
    B = {i: NodeClassId(i, 1) for i in (1, 2, 3)}
    L = {1: NodeClassId(1, 2), 2: NodeClassId(2, 2), 3: NodeClassId(3, 2),
         4: NodeClassId(4, 1), 5: NodeClassId(5, 1), 6: NodeClassId(6, 1)}
    C = {i: NodeClassId(i, 0) for i in (4, 5, 6)}
    R = NodeClassId(7, 0)
    blue = []
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i < j:
                blue += [(L[i], A[j]), (A[i], B[j])]
        blue += [(A[i], B[i]), (B[i], L[i])]
    blue += [(C[4], L[4]), (C[5], L[5])]
    blue += [(L[a], L[b]) for a, b in [(1, 3), (2, 4), (3, 5), (1, 4), (2, 5)]]
    for x in (C[4], C[5], C[6], L[6], R):
        blue += [(x, A[i]) for i in (1, 2, 3)]
    return QuotientColoring.build("w^2*3+w*3+2", cross={p: 1 for p in blue})


def all_blue(gamma: str) -> QuotientColoring:
    """Every pair of gamma blue, given as explicit class tables."""
    classes = valid_classes(o(gamma))
    return QuotientColoring.build(
        gamma, within=dict.fromkeys(classes, BLUE),
        cross=dict.fromkeys(combinations(classes, 2), BLUE))


def random_coloring(rng: random.Random, gamma, blue_bias=0.5,
                    max_overrides=3) -> QuotientColoring:
    g = o(gamma) if isinstance(gamma, str) else gamma
    classes = valid_classes(g)
    within = {cid: int(rng.random() < blue_bias) for cid in classes}
    cross = {pair: int(rng.random() < blue_bias)
             for pair in combinations(classes, 2)}
    pts = []
    for cid in classes:
        pts.extend(islice(node_class(g, cid), 4))
    overrides = {}
    for _ in range(rng.randrange(max_overrides + 1)):
        a, b = rng.sample(pts, 2)
        overrides[(min(a, b), max(a, b))] = rng.randrange(2)
    return QuotientColoring.build(g, within=within, cross=cross,
                                  overrides=overrides)


def sample_universe(c: QuotientColoring, per_class=None) -> list[Ordinal]:
    """Touched points plus an initial chunk of every class; covers all
    points any decision procedure of this module can ever materialize."""
    depth = per_class or (len(c.touched()) + 4)
    pts = set(c.touched())
    for cid in valid_classes(c.gamma):
        pts.update(islice(node_class(c.gamma, cid), depth))
    return sorted(pts)


# -- construction and color_of ----------------------------------------------


class TestBuildAndColorOf:
    def test_within_cross_override_layers(self):
        c = QuotientColoring.build(
            "w*2+1", within={(1, 0): 1}, cross={((1, 0), (1, 1)): 1},
            overrides={("1", "2"): 0})
        assert color_of(c, 1, 2) == 0          # override wins
        assert color_of(c, 3, 5) == 1          # within (1,0)
        assert color_of(c, 3, o("w")) == 1     # cross (1,0)-(1,1)
        assert color_of(c, o("w"), o("w*2")) == 0  # cross default

    def test_witness_fixture_spot_colors(self):
        c = witness_coloring_3()
        assert color_of(c, 1, o("w")) == 1        # first-component level pair
        assert color_of(c, 1, 2) == 0             # same class
        assert color_of(c, o("w"), o("w^2")) == 1  # level 1 vs top of comp 1
        assert color_of(c, 1, o("w^2")) == 0       # level 0 vs top of comp 1

    def test_color_of_total_on_sample(self):
        c = witness_coloring_3()
        pts = sample_universe(c, per_class=3)
        for a, b in combinations(pts, 2):
            assert color_of(c, a, b) in (0, 1)

    def test_errors(self):
        c = QuotientColoring.build("w")
        with pytest.raises(OrdinalError):
            color_of(c, 1, 1)
        with pytest.raises(OrdinalError):
            color_of(c, 1, o("w"))
        with pytest.raises(OrdinalError):
            QuotientColoring.build("w", overrides={("w", "w+1"): 1})
        with pytest.raises(OrdinalError):
            QuotientColoring.build("w", within={(1, 0): 2})
        with pytest.raises(OrdinalError):
            QuotientColoring.build("w", within={(2, 0): 1})
        with pytest.raises(OrdinalError):
            QuotientColoring.build(
                "w^2", cross={((1, 0), (1, 1)): 1, ((1, 1), (1, 0)): 0})

    @pytest.mark.parametrize("kwargs, message", [
        ({"within": {(1.9, 0): 1}}, "class [1.9, 0] is not a pair of integers"),
        ({"within": {(True, 0): 1}},
         "class [true, 0] is not a pair of integers"),
        ({"within": {("1", "0"): 1}},
         'class ["1", "0"] is not a pair of integers'),
        ({"within": {(1, 0): True}}, "color true is not 0 or 1"),
        ({"cross": {((1, 0), (2, 0)): 1.0}}, "color 1.0 is not 0 or 1"),
        ({"cross": {((1, 0), (2, 0)): "1"}}, 'color "1" is not 0 or 1'),
        ({"overrides": {(True, "w"): 1}}, "point true is not an ordinal"),
        ({"gamma": True}, "gamma true is not an ordinal"),
        ({"gamma": 2.0}, "gamma 2.0 is not an ordinal"),
        ({"within": {(Fraction(1), 0): 1}},
         "class (Fraction(1, 1), 0) is not a pair of integers"),
        ({"within": {(1, 0): Fraction(1)}}, "color Fraction(1, 1) is not 0 or 1"),
        ({"overrides": {(Fraction(1), "w"): 1}},
         "point Fraction(1, 1) is not an ordinal"),
    ], ids=["class-float", "class-bool", "class-strings", "within-color-bool",
            "cross-color-float", "cross-color-string", "point-bool",
            "gamma-bool", "gamma-float", "class-fraction",
            "within-color-fraction", "point-fraction"])
    def test_build_reads_exact_types(self, kwargs, message):
        # each value was once coerced: (1.9, 0) colored class (1, 0), and a
        # boolean point or gamma was built as the ordinal 'True'.  A value
        # that is not JSON (a Fraction) is named by its repr
        with pytest.raises(OrdinalError) as info:
            QuotientColoring.build(**{"gamma": "w*2", **kwargs})
        assert str(info.value) == message

    def test_build_checks_a_color_given_twice(self):
        # 1.0 == 1, so the pair stores one color; the other is checked too
        for first, second in ((1, 1.0), (1.0, 1)):
            with pytest.raises(OrdinalError, match="color 1.0 is not 0 or 1"):
                QuotientColoring.build("w*2", cross={
                    ((1, 0), (2, 0)): first, ((2, 0), (1, 0)): second})

    def test_oversized_gamma_is_refused(self):
        # far above every shipped coloring (36 classes at the n = 5 lower
        # bound); the refusal comes from the counted classes, before any
        # table (w^2*100000 would need about 4.5e10 class pairs)
        spec = build_partition(5, relabel_red_prefix(builtin_record(5)))
        assert len(induced_lower_coloring(build_gn(spec)).within) == 36
        assert 36 * 20 < MAX_CLASSES
        for gamma in ("w^2*334", "w^2*100000", "w^100000"):
            with pytest.raises(OrdinalError, match="node classes"):
                QuotientColoring.build(gamma)

    def test_json_round_trip(self):
        c = QuotientColoring.build(
            "w^2+w", within={(1, 1): 1}, cross={((1, 0), (2, 0)): 1},
            overrides={("w+1", "w^2+2"): 1, ("0", "3"): 0})
        again = coloring_from_json(coloring_to_json(c))
        assert again == c
        doc = json.loads(coloring_to_json(c))
        assert doc["gamma"] == "w^2+w"
        assert {"a": "w+1", "b": "w^2+2", "color": 1} in doc["overrides"]

    def test_json_serialization_deterministic(self):
        c = witness_coloring_3()
        assert coloring_to_json(c) == coloring_to_json(
            coloring_from_json(coloring_to_json(c)))

    def test_all_red_stores_no_cross_pair(self):
        # a pair not stored reads RED; building w+997 once stored about
        # half a million RED entries
        c = QuotientColoring.build("w+997")
        assert len(c.cross) == 0 and len(c.within) == 998
        classes = valid_classes(c.gamma)
        assert all(c.class_pair_color(a, b) == RED
                   for a, b in combinations(classes, 2))

    @pytest.mark.parametrize("n, blue_pairs, sha256", [
        (3, 34, "962e5b9023277c40f0a11acb7dfe3f3d"
                "d1cc93b2e7f4488ceef7708c3076d264"),
        (4, 68, "7ffb401571e449ef8f0dc4468715405a"
                "7f91973c491bb3b660c407906fdd42a5"),
        (5, 129, "0b2e1c7fc7d3634eb40a77248d2b97ce"
                 "5af099ecf17477e9cb6d5438388d11dd"),
    ], ids=["3", "4", "5"])
    def test_construction_stores_its_blue_pairs_and_writes_all(
            self, n, blue_pairs, sha256):
        # only the blue class pairs are stored (of 120, 276 and 630), but
        # the file still lists every class pair: these bytes are the base
        # tables a reader of the complete file (such as perfbench) reads
        spec = build_partition(n, relabel_red_prefix(builtin_record(n)))
        c = induced_lower_coloring(build_gn(spec))
        assert len(c.cross) == blue_pairs
        assert set(c.cross.values()) == {BLUE}
        text = coloring_to_json(c)
        assert hashlib.sha256(text.encode()).hexdigest() == sha256
        assert coloring_from_json(text) == c

    def test_build_reads_a_list_of_entries(self):
        # a key given twice with one color is one entry, in either order
        ab, ba = ((1, 0), (2, 0)), ((2, 0), (1, 0))
        for second in (ab, ba):
            c = QuotientColoring.build(
                "w*2", within=[((1, 1), 1), ((1, 1), 1)],
                cross=[(ab, 1), (second, 1)],
                overrides=[(("3", "w"), 0), (("w", "3"), 0)])
            assert c == QuotientColoring.build(
                "w*2", within={(1, 1): 1}, cross={ab: 1},
                overrides={("3", "w"): 0})

    @pytest.mark.parametrize("table, entries, message", [
        ("within", [((1, 1), 1), ((1, 1), 0)],
         "conflicting within colors for NodeClassId(index=1, level=1)"),
        ("cross", [(((1, 0), (2, 0)), 0), (((2, 0), (1, 0)), 1)],
         "conflicting cross colors for (NodeClassId(index=1, level=0), "
         "NodeClassId(index=2, level=0))"),
        ("overrides", [(("w", "3"), 1), (("3", "w"), 0)],
         "conflicting overrides for (Ordinal('3'), Ordinal('w'))"),
    ], ids=["within", "cross", "overrides"])
    def test_build_refuses_two_colors_for_one_entry(self, table, entries,
                                                    message):
        with pytest.raises(OrdinalError) as info:
            QuotientColoring.build("w*2", **{table: entries})
        assert str(info.value) == message


# -- blue triangles ----------------------------------------------------------


def brute_force_triangle(c, pts):
    colors = {}
    for a, b in combinations(pts, 2):
        colors[(a, b)] = color_of(c, a, b)
    for a, b, d in combinations(pts, 3):
        if colors[(a, b)] == colors[(a, d)] == colors[(b, d)] == BLUE:
            return (a, b, d)
    return None


class TestDecideBlue:
    def test_witness_fixture_has_none(self):
        assert decide_blue_closed_3(witness_coloring_3()) is None

    def test_all_blue_triangle(self):
        cert = decide_blue_closed_3(
            all_blue("w^2"))
        assert cert.triangle == (o("0"), o("1"), o("2"))
        assert check_certificate(
            all_blue("w^2"), cert)

    def test_three_classes_pairwise_blue(self):
        c = QuotientColoring.build(
            "w^2+w+1",
            cross={((1, 0), (1, 1)): 1, ((1, 0), (2, 0)): 1,
                   ((1, 1), (2, 0)): 1})
        cert = decide_blue_closed_3(c)
        assert cert is not None
        cls = {classify(c.gamma, x) for x in cert.triangle}
        assert cls == {NodeClassId(1, 0), NodeClassId(1, 1), NodeClassId(2, 0)}
        assert check_certificate(c, cert)

    def test_override_created_triangle(self):
        c = QuotientColoring.build(
            "w", overrides={("1", "4"): 1, ("1", "6"): 1, ("4", "6"): 1})
        cert = decide_blue_closed_3(c)
        assert cert.triangle == (o("1"), o("4"), o("6"))

    def test_within_blue_pair_plus_cross(self):
        c = QuotientColoring.build(
            "w+2", within={(1, 0): 1}, cross={((1, 0), (2, 0)): 1})
        cert = decide_blue_closed_3(c)
        assert cert is not None and check_certificate(c, cert)

    def test_too_few_points(self):
        assert decide_blue_closed_3(
            all_blue("2")) is None
        cert = decide_blue_closed_3(all_blue("3"))
        assert cert.triangle == (o("0"), o("1"), o("2"))

    def test_against_sampling_oracle(self):
        rng = random.Random(2024)
        gammas = ["w^2*2+1", "w^2+w*2+2", "w*4+3", "w^2+1", "w*2"]
        for k in range(200):
            c = random_coloring(rng, gammas[k % len(gammas)], blue_bias=0.3)
            cert = decide_blue_closed_3(c)
            pts = sample_universe(c)
            found = brute_force_triangle(c, pts)
            if cert is None:
                assert found is None
            else:
                assert found is not None
                assert check_certificate(c, cert)
                assert set(cert.triangle) <= set(pts)

    def test_against_initial_segment(self):
        rng = random.Random(31)
        for k in range(10):
            c = random_coloring(rng, "w*3+2", blue_bias=0.25)
            pts = [Ordinal.from_int(i) for i in range(100)]
            found = brute_force_triangle(c, pts)
            cert = decide_blue_closed_3(c)
            if found is not None:
                assert cert is not None
            if cert is None:
                assert found is None


# -- red closed copies of omega+n --------------------------------------------


class TestDecideRed:
    def test_whole_space_all_red(self):
        c = QuotientColoring.build("w+3")
        cert = decide_red_closed_omega_plus_n(c, 3)
        assert cert.tail_class == NodeClassId(1, 0)
        assert cert.limit_point == o("w")
        assert cert.top_points == (o("w+1"), o("w+2"))
        assert check_certificate(c, cert)
        assert decide_red_closed_omega_plus_n(c, 4) is None

    def test_witness_fixture_none_at_3(self):
        assert decide_red_closed_omega_plus_n(witness_coloring_3(), 3) is None

    def test_witness_fixture_positive_control_at_2(self):
        c = witness_coloring_3()
        cert = decide_red_closed_omega_plus_n(c, 2)
        assert cert is not None
        assert cert.tail_class == NodeClassId(1, 0)
        assert cert.limit_point == o("w^2")
        assert cert.top_points == (o("w^2*2"),)
        assert check_certificate(c, cert)

    def test_availability_of_finite_top_classes(self):
        # block every infinite class from serving as a top point: only the
        # two singletons above w remain, so n=3 works but n=4 does not
        c = QuotientColoring.build(
            "w*2+2", within={(2, 0): 1},
            cross={((1, 1), (2, 0)): 1})
        cert = decide_red_closed_omega_plus_n(c, 3)
        assert cert is not None
        assert cert.top_points == (o("w*2"), o("w*2+1"))
        assert decide_red_closed_omega_plus_n(c, 4) is None

    def test_limit_may_be_overridden_point(self):
        # all cross colors blue except tail (1,0) to the touched point w*3
        blocked = QuotientColoring.build(
            "w^2", cross={((1, 0), (1, 1)): 1})
        assert decide_red_closed_omega_plus_n(blocked, 1) is None
        c = QuotientColoring.build(
            "w^2", cross={((1, 0), (1, 1)): 1},
            overrides={("w*3+5", "w*3"): 0})
        # a single red pair cannot un-block the class-level tail
        assert decide_red_closed_omega_plus_n(c, 1) is None

    def test_tail_class_must_be_red_to_limit(self):
        c = QuotientColoring.build(
            "w^2+1", cross={((1, 0), (1, 1)): 1})
        # limit w^2 (class (1,2)) still reachable via tail (1,1) or (1,0)
        cert = decide_red_closed_omega_plus_n(c, 1)
        assert cert is not None
        assert cert.limit_point == o("w^2")

    def test_monotonicity_on_random_colorings(self):
        rng = random.Random(99)
        for _ in range(40):
            c = random_coloring(rng, "w^2+w*2+2", blue_bias=0.4)
            results = {n: decide_red_closed_omega_plus_n(c, n)
                       for n in (1, 2, 3)}
            for n in (2, 3):
                if results[n] is not None:
                    assert results[n - 1] is not None
            for n, cert in results.items():
                if cert is not None:
                    assert len(cert.top_points) == n - 1
                    assert check_certificate(c, cert)

    def test_none_means_random_certificates_fail(self):
        c = witness_coloring_3()
        assert decide_red_closed_omega_plus_n(c, 3) is None
        rng = random.Random(13)
        pts = sample_universe(c, per_class=4)
        classes = valid_classes(c.gamma)
        failures = 0
        for _ in range(1000):
            tail = rng.choice(classes)
            limit = rng.choice(pts)
            tops = tuple(sorted(rng.sample(pts, 2)))
            cert = CopyCertificate(
                kind="red-omega-plus-n", tail_class=tail, limit_point=limit,
                excluded=(), top_points=tops)
            assert not check_certificate(c, cert)
            failures += 1
        assert failures == 1000


class TestCheckCertificate:
    def test_top_below_limit_rejected(self):
        c = QuotientColoring.build("w*2+2")
        cert = CopyCertificate(
            kind="red-omega-plus-n", tail_class=NodeClassId(1, 0),
            limit_point=o("w*2"), top_points=(o("w"),))
        assert not check_certificate(c, cert)

    def test_wrong_tail_cross_color_rejected(self):
        c = witness_coloring_3()
        # tail (1,0) toward w^2 with a top in class (1,1): cross is blue
        cert = CopyCertificate(
            kind="red-omega-plus-n", tail_class=NodeClassId(1, 0),
            limit_point=o("w^2"), top_points=(o("w^2+w"),))
        assert not check_certificate(c, cert)

    def test_non_accumulating_tail_rejected(self):
        c = QuotientColoring.build("w^2+w+1")
        cert = CopyCertificate(
            kind="red-omega-plus-n", tail_class=NodeClassId(2, 0),
            limit_point=o("w^2"), top_points=())
        assert not check_certificate(c, cert)

    def test_excluded_points_are_skipped(self):
        c = QuotientColoring.build(
            "w+1", overrides={("3", "w"): 1, ("4", "7"): 1})
        bad = CopyCertificate(
            kind="red-omega-plus-n", tail_class=NodeClassId(1, 0),
            limit_point=o("w"))
        good = CopyCertificate(
            kind="red-omega-plus-n", tail_class=NodeClassId(1, 0),
            limit_point=o("w"), excluded=(o("3"), o("4")))
        assert not check_certificate(c, bad)
        assert check_certificate(c, good)

    @pytest.mark.parametrize("pair", [("30", "w"), ("30", "w*2"),
                                      ("30", "45")])
    def test_override_deep_in_the_tail_rejected(self, pair):
        # the tail toward w is 1, 2, 3, ...: a blue pair from its 30th
        # point to the limit, a top or a later tail point breaks the copy
        c = QuotientColoring.build("w^2", overrides={pair: BLUE})
        cert = CopyCertificate(
            kind="red-omega-plus-n", tail_class=NodeClassId(1, 0),
            limit_point=o("w"), top_points=(o("w*2"),))
        assert not check_certificate(c, cert)
        dodged = CopyCertificate(
            kind="red-omega-plus-n", tail_class=NodeClassId(1, 0),
            limit_point=o("w"), excluded=(o("30"),), top_points=(o("w*2"),))
        assert check_certificate(c, dodged)

    def test_override_off_the_copy_ignored(self):
        # w*2+5 is neither in the tail toward w nor a top
        c = QuotientColoring.build("w^2", overrides={("30", "w*2+5"): BLUE})
        cert = CopyCertificate(
            kind="red-omega-plus-n", tail_class=NodeClassId(1, 0),
            limit_point=o("w"), top_points=(o("w*2"),))
        assert check_certificate(c, cert)

    def test_malformed_raises(self):
        c = QuotientColoring.build("w")
        with pytest.raises(ValueError):
            check_certificate(c, CopyCertificate(kind="mystery"))
        with pytest.raises(ValueError):
            check_certificate(c, CopyCertificate(kind="blue-3"))
        with pytest.raises(ValueError):
            check_certificate(c, CopyCertificate(kind="red-omega-plus-n"))

    def test_certificate_json_round_trip(self):
        cert = CopyCertificate(
            kind="red-omega-plus-n", tail_class=NodeClassId(1, 0),
            limit_point=o("w^2"), excluded=(o("3"),),
            top_points=(o("w^2*2"), o("w^2*3")))
        assert certificate_from_json(certificate_to_json(cert)) == cert
        blue = CopyCertificate(kind="blue-3",
                               triangle=(o("0"), o("w"), o("w*2")))
        assert certificate_from_json(certificate_to_json(blue)) == blue


# -- the deciders' exact answers, pinned -------------------------------------


def pinned_family() -> Iterator[QuotientColoring]:
    """The 150 seeded random colorings behind the pinned decider digest."""
    rng = random.Random(2020)
    gammas = ["w+3", "w*2+2", "w^2", "w^2+w*2+2", "w^2*3+w*3+2"]
    for k in range(150):
        yield random_coloring(rng, gammas[k % 5],
                              blue_bias=(0.1, 0.3, 0.5)[k // 5 % 3],
                              max_overrides=(0, 3, 8)[k // 15 % 3])


def decider_digest() -> str:
    """sha256 over every certificate (or "none") the two deciders return on
    a seeded random family and on the n = 3, 4, 5 construction colorings."""
    h = hashlib.sha256()

    def feed(c: QuotientColoring, ns) -> None:
        answers = [decide_blue_closed_3(c)]
        answers += [decide_red_closed_omega_plus_n(c, n) for n in ns]
        for cert in answers:
            h.update((certificate_to_json(cert) if cert else "none").encode())

    for c in pinned_family():
        feed(c, (1, 2, 3, 4))
    for n in (3, 4, 5):
        spec = build_partition(n, relabel_red_prefix(builtin_record(n)))
        feed(induced_lower_coloring(build_gn(spec)), (n - 1, n))
    return h.hexdigest()


def test_decider_outputs_are_pinned():
    # the digest pins which certificate each decider returns first, so a
    # change to the pool order, the candidate order or the start-index
    # rule of the clique search shows here
    assert decider_digest() == (
        "d5cd403c635a588ae58f1cc70ac34c97faa94bebbbd3f16c48a3b51178379c50")


def test_limit_candidates_walk_only_reachable_gaps():
    # skipping the gaps outside a class's component, and stopping each walk
    # at its first usable member, leaves the candidate list unchanged
    fresh = 0
    for c in pinned_family():
        pool = _pool(c)
        explicit = [s.point for s in pool if s.point is not None]
        got = _limit_candidates(c, pool)
        assert got == limit_candidates_all_gaps(c, explicit), c.gamma
        fresh += len(set(got) - set(explicit))
    assert fresh > 100


def test_red_decider_fills_conflict_rows_lazily(monkeypatch):
    # at n = 2 the all-red w+997 has its copy at the first limit candidate
    # and the first slot above it: one pair color per slot to test the
    # slots against the limit, and no conflict row at all.  Filling every
    # row up front would read about half a million pair colors.
    c = QuotientColoring.build("w+997")
    calls = 0
    real = orw.coloring._slot_color

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(orw.coloring, "_slot_color", counted)
    assert decide_red_closed_omega_plus_n(c, 2) is not None
    assert calls <= 2 * len(_pool(c))
