"""Tests for triangle-free Ramsey witnesses, search, and the value table."""

import hashlib
import json
import random
import time
from itertools import combinations

import pytest

import orw.ramsey
from oracles import canonical_form_oracle, independent_set_oracle
from orw.ordinals import SizeLimitError
from orw.ramsey import (
    MAX_ORDER,
    RamseyError,
    RamseyRecord,
    TableEntry,
    WitnessGraph,
    brute_force_ramsey,
    builtin_record,
    canonical_form,
    circulant,
    find_triangle,
    independent_set,
    load_ramsey_table,
    ramsey_value,
    relabel_red_prefix,
    search_witnesses,
    verify_witness,
    witness_from_json,
    witness_graph_from_doc,
    witness_to_json,
)


def degrees(g):
    """The sorted vertex degrees of g."""
    return tuple(sorted(m.bit_count() for m in g.adjacency_masks()))


class TestWitnessGraph:
    def test_from_pairs_normalizes(self):
        g = WitnessGraph.from_pairs(4, [(3, 1), (1, 3), (0, 2)])
        assert g.edges == frozenset({(1, 3), (0, 2)})
        assert g.has_edge(3, 1) and g.has_edge(1, 3)
        assert not g.has_edge(0, 1)

    def test_rejects_loops_and_range(self):
        with pytest.raises(RamseyError):
            WitnessGraph.from_pairs(3, [(1, 1)])
        with pytest.raises(RamseyError):
            WitnessGraph.from_pairs(3, [(0, 3)])

    def test_degree_multiset(self):
        g = circulant(5, (1,))
        assert degrees(g) == (2, 2, 2, 2, 2)

    def test_relabel_preserves_structure(self):
        g = circulant(8, (1, 4))
        perm = [3, 1, 4, 0, 6, 2, 7, 5]
        h = g.relabel(perm)
        assert len(h.edges) == len(g.edges)
        assert degrees(h) == degrees(g)
        for a, b in combinations(range(8), 2):
            assert h.has_edge(perm[a], perm[b]) == g.has_edge(a, b)

    def test_circulant_edge_count(self):
        # each of the 13 vertices picks up both steps; 13*2 edges counted twice
        g = circulant(13, (1, 5))
        assert g.order == 13
        assert len(g.edges) == 13 * 2
        assert degrees(g) == (4,) * 13


class TestVerifyWitness:
    def test_five_cycle_is_a_witness_for_3(self):
        # oracle: exhaustive check of all 10 triples of C5
        rep = verify_witness(circulant(5, (1,)), 3)
        assert rep.ok and rep.triangle is None and rep.independent_set is None

    def test_thirteen_cycle_witness_for_5_is_fast(self):
        t0 = time.time()
        rep = verify_witness(circulant(13, (1, 5)), 5)
        assert rep.ok
        assert time.time() - t0 < 1.0

    def test_triangle_is_reported(self):
        k3 = WitnessGraph.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
        rep = verify_witness(k3, 3)
        assert not rep.ok
        assert rep.triangle == (0, 1, 2)

    def test_independent_set_is_reported(self):
        empty = WitnessGraph.from_pairs(5, [])
        rep = verify_witness(empty, 3)
        assert not rep.ok and rep.triangle is None
        s = rep.independent_set
        assert len(s) == 3 and len(set(s)) == 3

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_1_refused(self, n):
        # refused, not answered: with -1 every triangle-free graph would
        # pass, with 0 none would
        with pytest.raises(RamseyError,
                           match=f"^the search needs n >= 1, got {n}$"):
            verify_witness(circulant(5, (1,)), n)

    def test_reported_triangle_is_real(self):
        rng = random.Random(7)
        for _ in range(50):
            order = rng.randrange(4, 9)
            pairs = [p for p in combinations(range(order), 2)
                     if rng.random() < 0.45]
            g = WitnessGraph.from_pairs(order, pairs)
            rep = verify_witness(g, 3)
            if rep.triangle is not None:
                a, b, c = rep.triangle
                assert g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
            if rep.independent_set is not None:
                assert all(not g.has_edge(a, b) for a, b in
                           combinations(rep.independent_set, 2))

    def test_searches_answer_lexicographically_first(self):
        # the first triple or set in combinations' order, as the pinned
        # stage details and brute-force digests read them
        rng = random.Random(25)
        for _ in range(300):
            order = rng.randrange(0, 12)
            pairs = [p for p in combinations(range(order), 2)
                     if rng.random() < rng.random()]
            g = WitnessGraph.from_pairs(order, pairs)
            assert find_triangle(g) == next(
                (t for t in combinations(range(order), 3)
                 if all(g.has_edge(a, b) for a, b in combinations(t, 2))),
                None)
            assert orw.ramsey._find_independent_set(g, -1) is None
            for size in range(order + 2):
                want = next((s for s in combinations(range(order), size)
                             if g.is_independent(s)), None)
                assert orw.ramsey._find_independent_set(g, size) == want

    def test_independent_set_with_repeats_matches_oracle(self):
        # a repeat vertex, once picked, fills the remaining picks; the
        # answer is the first pick list in lexicographic order
        rng = random.Random(26)
        for _ in range(300):
            order = rng.randrange(0, 11)
            g = WitnessGraph.from_pairs(order, [
                p for p in combinations(range(order), 2)
                if rng.random() < rng.random()])
            masks = g.adjacency_masks()
            within = rng.getrandbits(order)
            repeat = rng.getrandbits(order) & rng.getrandbits(order)
            for size in range(-1, order + 3):
                assert independent_set(masks, within, size, repeat) == \
                    independent_set_oracle(masks, within, size, repeat), \
                    (masks, within, size, repeat)

    def test_independent_set_reads_only_later_bits(self):
        # every candidate left is above the pick, so rows without the
        # earlier vertices give the same answers as full rows
        rng = random.Random(27)
        for _ in range(300):
            order = rng.randrange(0, 11)
            g = WitnessGraph.from_pairs(order, [
                p for p in combinations(range(order), 2)
                if rng.random() < rng.random()])
            full = g.adjacency_masks()
            later = [m >> v + 1 << v + 1 for v, m in enumerate(full)]
            within = rng.getrandbits(order)
            repeat = rng.getrandbits(order) & rng.getrandbits(order)
            for size in range(-1, order + 3):
                assert independent_set(later, within, size, repeat) == \
                    independent_set(full, within, size, repeat)

    def test_independent_set_search_is_not_bounded_by_recursion(self):
        # one pick per vertex: the recursive search ended in RecursionError
        g = WitnessGraph.from_pairs(3000, [])
        rep = verify_witness(g, 2000)
        assert (rep.ok, rep.independent_set) == (False, tuple(range(2000)))


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        rng = random.Random(11)
        for _ in range(30):
            order = rng.randrange(2, 8)
            pairs = [p for p in combinations(range(order), 2)
                     if rng.random() < 0.4]
            g = WitnessGraph.from_pairs(order, pairs)
            perm = list(range(order))
            rng.shuffle(perm)
            assert canonical_form(g) == canonical_form(g.relabel(perm))

    def test_distinguishes_non_isomorphic(self):
        path = WitnessGraph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        star = WitnessGraph.from_pairs(4, [(0, 1), (0, 2), (0, 3)])
        assert canonical_form(path) != canonical_form(star)

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(1998)
        for order in range(8):
            for density in (0.2, 0.4, 0.6, 0.8):
                pairs = [p for p in combinations(range(order), 2)
                         if rng.random() < density]
                g = WitnessGraph.from_pairs(order, pairs)
                assert canonical_form(g) == \
                    canonical_form_oracle(order, g.edges), (order, pairs)

    def test_matches_oracle_on_every_survivor_for_3(self):
        for order in range(1, 6):
            for g in search_witnesses(order, 3):
                assert canonical_form(g) == \
                    canonical_form_oracle(order, g.edges), g


def _random_graph(rng, order):
    density = rng.choice((0.2, 0.4, 0.5, 0.6, 0.8))
    return WitnessGraph.from_pairs(
        order, [p for p in combinations(range(order), 2)
                if rng.random() < density])


def _shuffled(rng, g):
    perm = list(range(g.order))
    rng.shuffle(perm)
    return g.relabel(perm)


def _flipped(rng, g):
    """g with one random vertex pair toggled."""
    pair = tuple(sorted(rng.sample(range(g.order), 2)))
    return WitnessGraph(g.order, g.edges ^ {pair})


def _switched(rng, g):
    """g with edges ab, cd replaced by ac, bd where those are non-edges, a
    move that keeps every degree; g itself when no tried move applies."""
    edges = sorted(g.edges)
    for _ in range(10):
        if len(edges) < 2:
            break
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) == 4 and not (g.has_edge(a, c)
                                           or g.has_edge(b, d)):
            return WitnessGraph.from_pairs(g.order, (
                g.edges - {(a, b), (c, d)}) | {(a, c), (b, d)})
    return g


class TestIsomorphic:
    """The search's duplicate test: equal sorted labels and a
    label-preserving isomorphism, against the brute-force canonical form."""

    # pairs of one order with equal vertex labels that are not isomorphic
    HARD = [
        (circulant(6, (1,)), WitnessGraph.from_pairs(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
        (circulant(6, (1, 3)), WitnessGraph.from_pairs(  # K3,3 and the prism
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                (0, 3), (1, 4), (2, 5)])),
        (circulant(7, (1,)), WitnessGraph.from_pairs(
            7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])),
    ]

    @staticmethod
    def labels(g):
        return sorted(orw.ramsey._labels(g.adjacency_masks()))

    @staticmethod
    def same_class(g, h):
        a, b = g.adjacency_masks(), h.adjacency_masks()
        la, lb = orw.ramsey._labels(a), orw.ramsey._labels(b)
        return (sorted(la) == sorted(lb)
                and orw.ramsey._isomorphic(a, la, b, lb))

    def test_agrees_with_the_oracle(self):
        # per order, random graphs with a relabeling, a relabeling with one
        # pair toggled and one with two edges switched (degrees kept), each
        # graph's oracle form computed once; every pair of one order is
        # compared
        rng = random.Random(2014)
        pairs = isomorphic = hard = 0
        for order in range(8):
            pool = []
            for _ in range(8):
                g = _random_graph(rng, order)
                pool += [g, _shuffled(rng, g)]
                if order >= 2:
                    pool += [_flipped(rng, _shuffled(rng, g)),
                             _switched(rng, _shuffled(rng, g))]
            pool += [_shuffled(rng, g) for pair in self.HARD for g in pair
                     if g.order == order]
            forms = [canonical_form_oracle(order, g.edges) for g in pool]
            for i, j in combinations(range(len(pool)), 2):
                same = self.same_class(pool[i], pool[j])
                assert same == (forms[i] == forms[j]), (pool[i], pool[j])
                pairs += 1
                isomorphic += same
                hard += not same and self.labels(pool[i]) == \
                    self.labels(pool[j])
        # fixed by the seed and the oracle alone
        assert (pairs, isomorphic) == (3415, 794)
        assert hard >= len(self.HARD)  # the backtracking's refusal is run

    @pytest.mark.parametrize("g,h", HARD)
    def test_equal_labels_not_isomorphic(self, g, h):
        assert self.labels(g) == self.labels(h)
        assert not self.same_class(g, h)
        assert self.same_class(g, _shuffled(random.Random(1), g))


# (n, order) -> (survivor count, sha256 of the repr of their canonical forms,
# sha256 of the repr of their sorted edge lists), in search_witnesses order
SEARCH_PINS = {
    (3, 1): (1, "b18a48f02566e6150fce7a3ece72478f44afc0341489d43f01f25f0351984bab",
              "cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05"),
    (3, 2): (2, "cde8a43d1e27e69a0ef66e61fcbfe02dec4893775b4d36e679382ff36d7b9ed6",
              "5966fecad2e05ece63219feec68426a1929fcff75826ae6ba102aa266f514976"),
    (3, 3): (2, "bdbd7b81748c3928a3afcb5923dbcf0c52ecc6fab170b3bab9c234a755202b6d",
              "d6b9379cb5a0bc22043b9db514cdf295c55dfa08cfe6df08a2a65712502c29aa"),
    (3, 4): (3, "ede5c4120b72358c260a2fccee79deebdd3af3b31ead36c18760d74ce2d7c4c7",
              "89ded26041a6747d5daf343cbf5b935789c7689f8ea341a1dc443727be427239"),
    (3, 5): (1, "a55a2f104b9f12709f51c57cccd854edb3a50f82f68c48021d14a2322cae0f89",
              "2fed458f1e8036073dbed1d5aea240262733ea051f058c2fabe2453a843908de"),
    (3, 6): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
              "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (4, 1): (1, "b18a48f02566e6150fce7a3ece72478f44afc0341489d43f01f25f0351984bab",
              "cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05"),
    (4, 2): (2, "cde8a43d1e27e69a0ef66e61fcbfe02dec4893775b4d36e679382ff36d7b9ed6",
              "5966fecad2e05ece63219feec68426a1929fcff75826ae6ba102aa266f514976"),
    (4, 3): (3, "b08a408595a7e765af1e076efdbe47629dbb6b2b62392e584b179549642be18b",
              "2c31ebfc20a4b6b945d9fe96e4c99c5270ff0e4cd71d058bd36a6fcc99840249"),
    (4, 4): (6, "c3d064c2000ce7314c238fb969b9c26937b4e80c94100378272c08178b8dc815",
              "bae7b72c59cff25a935b5b2a7ade1cd76db50183017cd54c579dcddeaeed8c94"),
    (4, 5): (9, "12a5c62eb30c173702a4ad8ac459e2607e5ce008393a2aa624465f378e40c830",
              "0c0ade861ddb20a9ab3e3fc48c7e06190686f355469fe8e63498dee16a100055"),
    (4, 6): (15, "b0de53172e90547aabd5f6db04f74c22e828dbe550cbed904877343ef2ae62b7",
              "063f839344d6888b13dc46f215b8e9bbe4443cb17c9702962a53d23d4d226fb0"),
    (4, 7): (9, "23f0287ebdf5d18cff2c964f7913d85d83dbf0db6ae40f4582eaa5aabdd3ae4c",
              "2d65c7d68ed548fabefc9e601465e3970218a0a39d47a3daa0fedd822e24607f"),
    (4, 8): (3, "8a12667b6f67d2e606edf7d345dfd0f67a9eef23361453ea050142559a5bda51",
              "6b1331f970d96b09b7c0b988a60978d5d936fd09a2467f501b11e2ac8ff67150"),
    (4, 9): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
              "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
}


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestSearch:
    def test_unique_extremal_graph_for_3(self):
        found = search_witnesses(5, 3)
        assert len(found) == 1
        assert canonical_form(found[0]) == canonical_form(circulant(5, (1,)))

    def test_no_witness_of_order_6_for_3(self):
        # oracle: exhaustive canonical search over order-6 graphs
        assert search_witnesses(6, 3) == []

    @pytest.mark.parametrize("n", [3, 4])
    def test_survivors_are_pinned(self, n):
        # orders 1..R(n,3): the last one is empty
        for order in sorted(k for m, k in SEARCH_PINS if m == n):
            found = search_witnesses(order, n)
            count, forms, graphs = SEARCH_PINS[(n, order)]
            assert len(found) == count, order
            assert _sha([canonical_form(g) for g in found]) == forms, order
            assert _sha([sorted(g.edges) for g in found]) == graphs, order

    def test_r53_is_14_by_the_search(self):
        # survivors per order 1..14; the one order-13 survivor is the
        # circulant witness
        t0 = time.perf_counter()
        levels = list(orw.ramsey._levels(5))
        assert time.perf_counter() - t0 < 10.0
        assert [len(level) for level in levels] == [
            1, 2, 3, 7, 13, 32, 71, 179, 290, 313, 105, 12, 1, 0]
        (last,) = levels[12]
        assert canonical_form(orw.ramsey._graph_from_masks(13, last)) == \
            canonical_form(circulant(13, (1, 5)))

    def test_empty_order_and_small_n(self):
        assert search_witnesses(0, 3) == [WitnessGraph(0, frozenset())]
        # every vertex is an independent 1-set
        assert search_witnesses(1, 1) == []
        with pytest.raises(RamseyError):
            search_witnesses(3, 0)


class TestBruteForce:
    def test_value_for_2_is_3(self):
        rec = brute_force_ramsey(2)
        assert rec.value == 3 and rec.source == "computed"
        assert rec.witness.order == 2 and rec.verified()

    def test_value_for_3_is_6(self):
        rec = brute_force_ramsey(3)
        assert rec.value == 6
        assert canonical_form(rec.witness) == canonical_form(circulant(5, (1,)))
        assert rec.verified()

    def test_value_for_4_is_9(self):
        t0 = time.time()
        rec = brute_force_ramsey(4)
        assert rec.value == 9
        assert rec.witness.order == 8 and rec.verified()
        assert time.time() - t0 < 300.0

    def test_rejects_out_of_range(self):
        with pytest.raises(RamseyError):
            brute_force_ramsey(5)


class TestWork:
    """Canonical forms are computed for the graphs an answer is drawn from,
    not for every extension the search makes."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        bits = orw.ramsey._canonical_bits

        def counted(masks, order):
            made.append(order)
            return bits(masks, order)

        monkeypatch.setattr(orw.ramsey, "_canonical_bits", counted)
        return made

    def test_brute_ranks_the_last_level_only(self, calls):
        assert brute_force_ramsey(4).value == 9
        assert calls == [8, 8, 8]  # the order-8 survivors, not 221 extensions

    @pytest.mark.parametrize("n,order", [(3, 5), (4, 6), (4, 9), (3, 0)])
    def test_search_ranks_what_it_returns(self, calls, n, order):
        found = search_witnesses(order, n)
        assert calls == [order] * len(found)


class TestBuiltins:
    @pytest.mark.parametrize("n,value,order", [(3, 6, 5), (4, 9, 8), (5, 14, 13)])
    def test_builtin_verifies(self, n, value, order):
        rec = builtin_record(n)
        assert rec.value == value and rec.witness.order == order
        assert rec.verified()

    def test_verified_false_on_tampered_value(self):
        rec = builtin_record(3)
        bad = RamseyRecord(rec.n, rec.value + 1, rec.witness, rec.source)
        assert not bad.verified()

    def test_unknown_builtin(self):
        with pytest.raises(RamseyError):
            builtin_record(6)


class TestRelabelRedPrefix:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_prefix_independent_and_still_verifies(self, n):
        rec = relabel_red_prefix(builtin_record(n))
        g = rec.witness
        assert all(not g.has_edge(a, b)
                   for a, b in combinations(range(n - 1), 2))
        assert rec.verified()

    def test_preserves_edge_count_and_degrees(self):
        before = builtin_record(5)
        after = relabel_red_prefix(before)
        assert len(after.witness.edges) == len(before.witness.edges)
        assert degrees(after.witness) == degrees(before.witness)

    def test_identity_when_already_prefixed(self):
        once = relabel_red_prefix(builtin_record(4))
        twice = relabel_red_prefix(once)
        assert twice.witness.edges == once.witness.edges


class TestTable:
    def test_default_table_values(self):
        table = load_ramsey_table()
        want = {3: 6, 4: 9, 5: 14, 6: 18, 7: 23, 8: 28,
                9: 36, 10: 40, 11: 46, 12: 52, 13: 59}
        for n, v in want.items():
            assert table[n].value == v

    def test_provenance_flags(self):
        table = load_ramsey_table()
        assert table[3].source == "computed"
        assert table[4].source == "computed"
        for n in range(5, 14):
            assert table[n].source == "external"

    def test_computed_entries_reproduce(self):
        table = load_ramsey_table()
        for n in (3, 4):
            assert brute_force_ramsey(n).value == table[n].value

    def test_ramsey_value_lookup(self):
        assert ramsey_value(5) == TableEntry(14, "external")

    def test_r23_is_computed_when_the_table_has_none(self):
        assert 2 not in load_ramsey_table()
        assert ramsey_value(2) == TableEntry(3, "computed")
        assert ramsey_value(2, {2: TableEntry(3, "external")}) == \
            TableEntry(3, "external")

    def test_user_computed_claim_is_checked(self, tmp_path):
        # a true claim loads; a false one, or one for an n the search does
        # not reach, is refused
        p = tmp_path / "table.json"
        p.write_text(json.dumps({"values": {
            "3": {"value": 6, "source": "computed"}, "5": 14}}))
        assert load_ramsey_table(str(p)) == {3: TableEntry(6, "computed"),
                                             5: TableEntry(14, "external")}
        for values, why in [
                ({"4": {"value": 10, "source": "computed"}},
                 "R(4,3) value 10 is not the computed value 9"),
                ({"6": {"value": 18, "source": "computed"}},
                 'R(6,3) is not computed in-tree; its source must be '
                 '"external"')]:
            p.write_text(json.dumps({"values": values}))
            with pytest.raises(RamseyError) as e:
                load_ramsey_table(str(p))
            assert str(e.value) == \
                f"malformed table file: ValueError({why!r})"

    def test_missing_value_names_the_argument(self):
        with pytest.raises(RamseyError, match="14"):
            ramsey_value(14)

    @pytest.mark.parametrize("values, why", [
        ({"3": -6}, "R(3,3) value -6 is below 3"),
        ({"2": 3, "3": 2}, "R(3,3) value 2 is below 3"),
        ({"4": {"value": 3, "source": "computed"}},
         "R(4,3) value 3 is below 4"),
    ])
    def test_value_below_n_refused(self, tmp_path, values, why):
        # the edgeless graph on n-1 vertices shows R(n,3) >= n
        p = tmp_path / "table.json"
        p.write_text(json.dumps({"values": values}))
        with pytest.raises(RamseyError) as e:
            load_ramsey_table(str(p))
        assert str(e.value) == f"malformed table file: ValueError('{why}')"

    def test_value_n_accepted(self, tmp_path):
        p = tmp_path / "table.json"
        p.write_text(json.dumps({"values": {"1": 1, "2": 2}}))
        assert load_ramsey_table(str(p)) == {1: TableEntry(1, "external"),
                                             2: TableEntry(2, "external")}

    def test_custom_table_file(self, tmp_path):
        p = tmp_path / "table.json"
        p.write_text(json.dumps({"format": 1, "values": {"3": 6}}))
        table = load_ramsey_table(str(p))
        assert table[3].value == 6 and 4 not in table


class TestWitnessJson:
    def test_round_trip(self):
        rec = builtin_record(4)
        text = witness_to_json(rec)
        back = witness_from_json(text)
        assert back.n == rec.n and back.value == rec.value
        assert back.witness.edges == rec.witness.edges
        assert back.source == "user-file"

    def test_loading_verifies(self):
        # the record is verified on the first read of its report, which
        # `lower verify` makes before building (TestLower in test_cli)
        k3 = WitnessGraph.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
        text = json.dumps({"n": 3, "order": 3,
                           "edges": sorted(map(list, k3.edges))})
        rec = witness_from_json(text)
        assert rec.report == (False, (0, 1, 2), None)
        assert not rec.verified()

    def test_rejects_malformed(self):
        # the CLI's reader calls the file malformed (test_cli)
        with pytest.raises(KeyError, match="'n'"):
            witness_from_json(json.dumps({"order": 5, "edges": []}))

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_1_is_malformed(self, n):
        doc = json.loads(witness_to_json(builtin_record(3)))
        with pytest.raises(RamseyError, match=(
                f"^the search needs n >= 1, got {n}$")):
            witness_from_json(json.dumps(dict(doc, n=n)))

    def test_order_above_the_limit_refused_unbuilt(self):
        # 10^9 adjacency masks would take about 8 GB; the order is read
        # and refused before any list is built
        assert witness_graph_from_doc(
            {"order": MAX_ORDER, "edges": []}).order == MAX_ORDER
        start = time.perf_counter()
        with pytest.raises(SizeLimitError) as err:
            witness_from_json(json.dumps(
                {"n": 3, "order": 10**9, "edges": []}))
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == ("the witness has order 1000000000, more "
                                  "than the limit of 10000")
