"""Tests for the CNF solver core and the clause-catalogue replay."""

import gc
import hashlib
import json
import random
import sys
import time
import tracemalloc
from array import array

import pytest

from oracles import check_trace_sets, rup_implied, truth_table_status
from orw.lowerbound import build_gn, build_partition, induced_lower_coloring
from orw.ordinals import NodeClassId, OrdinalError, parse
from orw.ramsey import builtin_record, relabel_red_prefix
from orw.replay import (
    MAX_CLAUSES,
    MAX_VARIABLES,
    ClauseSystem,
    ClauseTag,
    VariableSpace,
    assignment_from_coloring,
    catalogue_size,
    first_violated_clause,
    instantiate_clauses,
    replay_theorem,
    schema_sizes,
    space_size,
)
from orw.solver import (
    REDUCE_FIRST,
    RESTART_UNIT,
    BudgetExceeded,
    StepColumns,
    Trace,
    check_trace,
    solve,
)


def php_clauses(holes):
    """Pigeonhole: holes+1 objects into `holes` slots (unsatisfiable)."""
    var = {}
    for p in range(holes + 1):
        for h in range(holes):
            var[p, h] = len(var) + 1
    cls = [tuple(var[p, h] for h in range(holes)) for p in range(holes + 1)]
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                cls.append((-var[p1, h], -var[p2, h]))
    return cls, len(var)


def trace_of(rows, final):
    """A Trace packed from (left, right, pivot) rows; an axiom has right -1
    and pivot 0, a resolution right >= 0."""
    steps = StepColumns()
    for left, right, pivot in rows:
        steps.left.append(left)
        steps.right.append(right)
        steps.pivot.append(pivot)
    return Trace(steps, final)


def rows_of(trace):
    """The (left, right, pivot) rows of a trace's columns."""
    cols = trace.steps
    return list(zip(cols.left, cols.right, cols.pivot))


class TestSolver:
    def test_empty_system_is_sat(self):
        r = solve([], 0)
        assert r.status == "sat" and r.model == {}

    def test_contradictory_units(self):
        cls = [(1,), (-1,)]
        r = solve(cls, 1)
        assert r.status == "unsat"
        assert check_trace(cls, r.trace)

    def test_propagation_chain_unsat(self):
        cls = [(1, 2), (-1, 2), (-2,)]
        r = solve(cls, 2)
        assert r.status == "unsat" and check_trace(cls, r.trace)

    def test_sat_model_is_total_and_satisfying(self):
        cls = [(1, 2), (-1,), (3, -2)]
        r = solve(cls, 4)
        assert r.status == "sat"
        assert set(r.model) == {1, 2, 3, 4}
        for c in cls:
            assert any(r.model[abs(l)] == (l > 0) for l in c)

    def test_agrees_with_truth_table(self):
        # oracle: exhaustive enumeration oracle on small random systems
        rng = random.Random(42)
        for _ in range(500):
            nv = rng.randrange(1, 10)
            cls = []
            for _ in range(rng.randrange(0, 30)):
                cls.append(tuple((v if rng.random() < 0.5 else -v) for v in
                                 (rng.randrange(1, nv + 1)
                                  for _ in range(rng.randrange(1, 4)))))
            got = solve(cls, nv)
            want, _ = truth_table_status(cls, nv)
            assert got.status == want
            if got.status == "unsat":
                assert check_trace(cls, got.trace)
            else:
                for c in cls:
                    assert any(got.model[abs(l)] == (l > 0) for l in c)

    def test_pigeonhole_refutations_verify(self):
        for holes in (3, 4, 5):
            cls, nv = php_clauses(holes)
            r = solve(cls, nv)
            assert r.status == "unsat"
            assert check_trace(cls, r.trace)

    def test_budget_is_distinct_from_answers(self):
        cls, nv = php_clauses(6)
        with pytest.raises(BudgetExceeded):
            solve(cls, nv, budget=5)

    def test_deterministic(self):
        # 5 holes end before the first restart, 7 holes restart and reduce
        for holes in (5, 7):
            cls, nv = php_clauses(holes)
            a, b = solve(cls, nv), solve(cls, nv)
            assert (a.nodes, a.conflicts, a.restarts, a.reductions) == \
                (b.nodes, b.conflicts, b.restarts, b.reductions)
            for col in ("left", "right", "pivot"):
                assert getattr(a.trace.steps, col) == \
                    getattr(b.trace.steps, col)

    def test_search_is_pinned(self):
        # every decision of four core solves: the counters, the three trace
        # columns, the final step and the model.  A change of the solver's
        # data layout must leave this digest as it is
        digest = hashlib.sha256()
        for n, k, drop in ((3, 5, ()), (3, 7, ()), (4, 12, ()),
                           (4, 12, ("C8",))):
            core = instantiate_clauses(n, k, drop).select(
                include_redundant=False)
            r = solve(core.clauses, core.space.num_vars)
            t = r.trace
            digest.update(repr((
                n, k, drop, r.status, r.nodes, r.conflicts, r.restarts,
                r.reductions,
                None if t is None else (t.final, t.steps.left.tolist(),
                                        t.steps.right.tolist(),
                                        t.steps.pivot.tolist()),
                None if r.model is None else sorted(r.model.items()),
            )).encode())
        assert digest.hexdigest() == ("837a8c68866b927cd3fb8413d1b0744b"
                                      "ecb39bef16e30f0ff1d05a0296180f2e")

    def test_restarts_on_pigeonhole_7(self):
        # past RESTART_UNIT conflicts the search restarts and decides by
        # activity; the refutation still verifies
        cls, nv = php_clauses(7)
        r = solve(cls, nv)
        assert r.status == "unsat" and check_trace(cls, r.trace)
        assert r.conflicts > RESTART_UNIT and r.restarts >= 1

    def test_reduces_on_pigeonhole_7(self):
        # the restart at conflict 2048 is the first past REDUCE_FIRST, so
        # half the learned clauses go there; the refutation cites steps,
        # not clauses, and still verifies
        cls, nv = php_clauses(7)
        r = solve(cls, nv)
        assert r.conflicts > REDUCE_FIRST and r.reductions >= 1
        assert r.status == "unsat" and check_trace(cls, r.trace)

    def test_short_solve_never_restarts(self):
        cls, nv = php_clauses(5)
        r = solve(cls, nv)
        assert 0 < r.conflicts < RESTART_UNIT and r.restarts == 0

    def test_random_3sat_at_threshold(self):
        # 100 variables at clause ratio 4.26: a mix of sat and unsat
        # instances, several of them long enough to restart
        rng = random.Random(4260)
        nv = 100
        statuses, restarted = set(), 0
        for _ in range(10):
            cls = [tuple(v if rng.random() < 0.5 else -v
                         for v in rng.sample(range(1, nv + 1), 3))
                   for _ in range(426)]
            r = solve(cls, nv)
            statuses.add(r.status)
            restarted += r.restarts > 0
            if r.status == "unsat":
                assert check_trace(cls, r.trace)
            else:
                for c in cls:
                    assert any(r.model[abs(l)] == (l > 0) for l in c)
        assert statuses == {"sat", "unsat"} and restarted

    def test_literal_out_of_range(self):
        for bad in ([(1, 0)], [(1, 3)], [(-3,)], [(), (2, -3)]):
            with pytest.raises(ValueError, match="out of range"):
                solve(bad, 2)

    def test_checker_rejects_tampering(self):
        cls = [(1,), (-1,)]
        r = solve(cls, 1)
        steps = rows_of(r.trace)
        assert check_trace(cls, r.trace)

        def swap(i, step):
            bad = steps.copy()
            bad[i] = step
            return trace_of(bad, r.trace.final)

        i = next(i for i, (_, right, _) in enumerate(steps) if right == -1)
        # an axiom citing the other input clause derives the wrong clause
        wrong = 1 - steps[i][0]
        assert not check_trace(cls, swap(i, (wrong, -1, 0)))
        # an axiom citing no input clause at all
        for ci in (len(cls), -1):
            assert not check_trace(cls, swap(i, (ci, -1, 0)))
        # a resolution citing itself or a later step
        j = r.trace.final
        left_j, right_j, pivot_j = steps[j]
        assert right_j >= 0
        for left, right in ((j, right_j), (left_j, j), (j + 1, right_j)):
            assert not check_trace(cls, swap(j, (left, right, pivot_j)))
        assert not check_trace(cls, swap(i, (j, j, 1)))
        # a step that is neither an axiom (right -1) nor a resolution
        assert not check_trace(cls, swap(i, (0, -2, 0)))
        # the final step must exist and be empty
        assert not check_trace(cls, trace_of(steps, i))
        assert not check_trace(cls, trace_of(steps, len(steps)))

    def test_checker_rejects_bad_pivot(self):
        # each bad step below would derive (2) if let through, and the next
        # step resolves (2) with (-2), so only the pivot check rejects it
        cls = [(1, 2), (-1, 2), (-2,), (2,)]
        ax = [(ci, -1, 0) for ci in range(4)]

        def refute(step):
            return trace_of(ax + [step, (4, 2, 2)], 5)

        assert check_trace(cls, refute((0, 1, 1)))
        # pivot absent from the first premise: (2) with (-1 2) on 1
        assert not check_trace(cls, refute((3, 1, 1)))
        # pivot's negation absent from the second premise: (1 2) with (2)
        assert not check_trace(cls, refute((0, 3, 1)))
        # a pivot must be a positive variable
        assert not check_trace(cls, refute((1, 0, -1)))
        assert not check_trace(cls, refute((0, 1, 0)))
        # a legal resolution that leaves a literal is not a refutation
        assert not check_trace(cls, trace_of(ax + [(0, 1, 1)], 4))
        # resolving (1) with (2) on 1 is no resolution
        steps = [(0, -1, 0), (1, -1, 0), (0, 1, 1)]
        assert not check_trace([(1,), (2,)], trace_of(steps, 2))

    def test_checker_agrees_with_set_oracle(self):
        # the bitmask checker and the frozenset oracle accept the solver's
        # refutations and reject the same corruptions of them
        rng = random.Random(7)
        systems = [php_clauses(h) for h in (3, 4)]
        while len(systems) < 8:
            nv = rng.randrange(3, 9)
            cls = [tuple(v if rng.random() < 0.5 else -v
                         for v in rng.sample(range(1, nv + 1), 2))
                   for _ in range(rng.randrange(8, 20))]
            if truth_table_status(cls, nv)[0] == "unsat":
                systems.append((cls, nv))
        for cls, nv in systems:
            r = solve(cls, nv)
            steps, final = rows_of(r.trace), r.trace.final
            assert check_trace(cls, r.trace) and check_trace_sets(cls, r.trace)
            res = [i for i, (_, right, _) in enumerate(steps) if right >= 0]
            ax = [i for i, (_, right, _) in enumerate(steps) if right == -1]
            bad = []
            for i in rng.sample(res, min(len(res), 5)):
                left, right, pivot = steps[i]
                # the pivot looked up in the wrong premise
                bad.append((i, (right, left, pivot)))
                # a forward reference, and a self-reference
                bad.append((i, (left, i + 1, pivot)))
                bad.append((i, (i, right, pivot)))
            for i in rng.sample(ax, min(len(ax), 3)):
                for ci in (len(cls), -1):  # an axiom citing no input
                    bad.append((i, (ci, -1, 0)))
                # neither an axiom (right -1) nor a resolution (right >= 0)
                bad.append((i, (steps[i][0], -2, 0)))
            traces = [trace_of(steps[:i] + [st] + steps[i + 1:], final)
                      for i, st in bad]
            # a final step that derives a non-empty clause
            traces += [trace_of(steps, i) for i in ax[:3]]
            traces.append(trace_of(steps, len(steps)))
            for t in traces:
                assert check_trace(cls, t) == check_trace_sets(cls, t)
                assert not check_trace(cls, t)

    def test_checker_accepts_reused_resolvent(self):
        # (2) is derived once and cited twice, with a step in between, so
        # freeing a resolvent after its last use must keep it alive
        cls = [(1, 2), (-1, 2), (-2, 3), (-2, -3)]
        steps = [(0, -1, 0),
                 (1, -1, 0),
                 (0, 1, 1),   # (2)
                 (2, -1, 0),
                 (2, 3, 2),   # (3)
                 (3, -1, 0),
                 (2, 5, 2),   # (-3)
                 (4, 6, 3)]   # ()
        assert check_trace(cls, trace_of(steps, 7))
        # the same proof with a premise gone is rejected
        broken = steps[:6] + [(0, 5, 2)] + steps[7:]
        assert not check_trace(cls, trace_of(broken, 7))

    def test_trace_is_packed_at_12_bytes_a_step(self):
        cls, nv = php_clauses(6)
        steps = solve(cls, nv).trace.steps
        header = sys.getsizeof(array("i"))
        held = sum(sys.getsizeof(col) - header
                   for col in (steps.left, steps.right, steps.pivot))
        assert len(steps) > 1000 and held <= 12 * len(steps)

    def test_column_values_never_wrap(self):
        # the columns are what solve appends to, so a step past 32 bits
        # raises there instead of being stored wrapped
        top = 2**31 - 1
        row = (top, -2**31, top)
        assert rows_of(trace_of([row], 0)) == [row]
        for bad in (2**31, -2**31 - 1, 2**32, 2**40):
            for row in ((bad, -1, 0), (0, bad, 1), (0, 1, bad)):
                with pytest.raises(OverflowError):
                    trace_of([row], 0)

    def test_solve_keeps_little_beyond_its_trace(self):
        # with the collector off, only what refcounting frees is freed.
        # After this solve a trace of one tuple a step would hold about
        # 200 000 memory blocks, and a reference cycle through the
        # solver's closures keeps about 30 000.  The packed trace is three
        # arrays; the blocks left are CPython's tuple free lists, emptied
        # by the first collection and refilled by the solve's freed clauses
        core = instantiate_clauses(4, 7).select(include_redundant=False)
        gc.collect()
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            r = solve(core.clauses, core.space.num_vars)
            held = sys.getallocatedblocks() - before
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert r.status == "unsat" and r.model is None
        assert unreachable == 0 and held <= 10_000

    def test_truth_table_size_limit(self):
        with pytest.raises(ValueError):
            truth_table_status([(1,)], 25)


class TestVariableSpace:
    def test_counts_for_3_7(self):
        # oracle: 23 classes, C(23,2)-16 cross-component pairs, plus 6
        sp = VariableSpace(3, 7)
        assert sp.num_vars == 243
        assert len(sp.classes) == 23

    def test_symmetric_lookup(self):
        sp = VariableSpace(3, 7)
        a, b = NodeClassId(2, 1), NodeClassId(5, 0)
        assert sp.tilde_var(a, b) == sp.tilde_var(b, a)

    def test_same_component_pair_is_undeclared(self):
        sp = VariableSpace(3, 7)
        with pytest.raises(OrdinalError):
            sp.tilde_var(NodeClassId(2, 0), NodeClassId(2, 1))

    def test_limit_aliases(self):
        sp = VariableSpace(3, 7)
        assert sp.limit_class(2) == NodeClassId(2, 2)
        assert sp.limit_class(9) == NodeClassId(9, 1)
        with pytest.raises(OrdinalError):
            sp.limit_class(11)

    def test_names_round_trip(self):
        sp = VariableSpace(3, 7)
        v = sp.tilde_var(NodeClassId(1, 0), NodeClassId(4, 1))
        assert sp.names[v] == "t(1,0;4,1)"
        assert sp.names[sp.hat_var(3, 1)] == "h(3,1)"

    def test_lookups_are_pinned(self):
        sp = VariableSpace(3, 7)
        C = NodeClassId
        assert [sp.hat_var(i, lvl) for i in (1, 2, 3) for lvl in (0, 1)] \
            == [1, 2, 63, 64, 116, 117]
        assert sp.hat_var(1, True) == 2
        pairs = [((1, 0), (2, 0)), ((10, 1), (1, 2)), ((3, 2), (4, 0)),
                 ((10, 0), (9, 1))]
        assert [sp.tilde_var(C(*a), C(*b)) for a, b in pairs] \
            == [3, 62, 146, 242]

    @pytest.mark.parametrize("i, level", [(0, 0), (4, 0), (-1, 0), (1, 2),
                                          (1, -1)])
    def test_hat_var_refusals_are_pinned(self, i, level):
        # a negative or out-of-range index never wraps around
        sp = VariableSpace(3, 7)
        with pytest.raises(OrdinalError) as exc:
            sp.hat_var(i, level)
        assert str(exc.value) == f"no top-pair variable for ({i},{level})"

    @pytest.mark.parametrize("a, b", [
        ((2, 0), (2, 1)), ((1, 0), (1, 0)), ((1, 0), (11, 0)),
        ((-1, 0), (1, 0)), ((0, 0), (1, 0)), ((1, 3), (2, 0)),
        ((4, 2), (1, 0))],
        ids=["same-component", "same-class", "index-past-the-end",
             "index-negative", "index-zero", "level-past-the-top",
             "level-past-a-limit-top"])
    def test_tilde_var_refusals_are_pinned(self, a, b):
        sp = VariableSpace(3, 7)
        a, b = NodeClassId(*a), NodeClassId(*b)
        with pytest.raises(OrdinalError) as exc:
            sp.tilde_var(a, b)
        assert str(exc.value) == f"no color variable for classes {a}, {b}"

    def test_rejects_small_parameters(self):
        with pytest.raises(OrdinalError):
            VariableSpace(2, 7)
        with pytest.raises(OrdinalError):
            VariableSpace(3, 1)

    def test_numbering_is_pinned(self):
        # every variable's index over n = 3..6, K = 2..29: hats first within
        # a squared component, then its pairs, component by component
        digest = hashlib.sha256()
        for n in range(3, 7):
            for k in range(2, 30):
                sp = VariableSpace(n, k)
                digest.update(repr((n, k, sp.names, sp.hat_items(),
                                    sp.tilde_items())).encode())
        assert digest.hexdigest() == ("e41c5d2a41eeb78cc43dc4da2f829372"
                                      "9057bbe40bdcd9b2f8c7e235a21be5f1")

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_space_size_is_exact(self, n):
        for k in range(2, 10):
            assert space_size(n, k) == VariableSpace(n, k).num_vars, (n, k)

    def test_oversized_space_is_refused(self):
        # the paper's (5,21) system and the (7,45) square-K space stay
        # allowed; a K that only a run dropping the large schemas reaches
        # is refused from its closed-form size, before any entry is built
        assert space_size(5, 21) == 1_570
        assert space_size(7, 45) == 6_053 <= MAX_VARIABLES
        assert space_size(3, 300) == 184_833 > MAX_VARIABLES
        with pytest.raises(OrdinalError, match="variables, more than"):
            VariableSpace(3, 300)
        assert catalogue_size(3, 300, ("C8", "C12", "C13")) <= MAX_CLAUSES
        with pytest.raises(OrdinalError, match="variables, more than"):
            instantiate_clauses(3, 300, ("C8", "C12", "C13"))


class TestInstantiation:
    def test_schema_counts_for_3_7(self):
        # oracle: per-schema combinatorial counts at n=3, K=7
        sys_ = instantiate_clauses(3, 7)
        assert sys_.schema_counts() == {
            "C1": 60, "C2": 18, "C3": 3, "C4": 189, "C5": 54, "C6": 20,
            "C7": 2, "C8": 170, "C9": 40, "C10": 64, "C11": 36,
            "C12": 1561, "C13": 120, "C14": 72}

    def test_tags_are_total_and_redundancy_flagged(self):
        sys_ = instantiate_clauses(3, 5)
        assert len(sys_.tags) == len(sys_.clauses)
        for t in sys_.tags:
            assert t.redundant == (t.schema in ("C4", "C10"))

    def test_clauses_reference_declared_variables(self):
        sys_ = instantiate_clauses(3, 5)
        nv = sys_.space.num_vars
        for c in sys_.clauses:
            assert c, "empty clause at construction"
            assert len(set(c)) == len(c)
            assert all(1 <= abs(l) <= nv for l in c)

    def test_example_clause_spread_over_two_tops(self):
        sys_ = instantiate_clauses(3, 7)
        sp = sys_.space
        L = sp.limit_class
        want = sorted([
            sp.tilde_var(L(3), L(2)),
            sp.tilde_var(L(2), NodeClassId(1, 0)),
            sp.tilde_var(L(3), NodeClassId(1, 0)),
            sp.tilde_var(L(2), L(1)),
            sp.tilde_var(L(3), L(1)),
            sp.hat_var(1, 0)])
        found = [sorted(c) for c, t in zip(sys_.clauses, sys_.tags)
                 if t.schema == "C8" and t.params == (1, 0, 2, 3)]
        assert found == [want]

    def test_example_clause_top_exclusivity(self):
        sys_ = instantiate_clauses(3, 7)
        sp = sys_.space
        found = [sorted(c) for c, t in zip(sys_.clauses, sys_.tags)
                 if t.schema == "C3" and t.params == (2,)]
        assert found == [sorted([-sp.hat_var(2, 0), -sp.hat_var(2, 1)])]

    def test_example_clause_red_top_forces_blue(self):
        sys_ = instantiate_clauses(3, 7)
        sp = sys_.space
        found = [sorted(c) for c, t in zip(sys_.clauses, sys_.tags)
                 if t.schema == "C5" and t.params == (4, 0, 1, 1)]
        want = sorted([sp.hat_var(1, 1),
                       sp.tilde_var(NodeClassId(4, 0), NodeClassId(1, 1)),
                       sp.tilde_var(NodeClassId(4, 0), NodeClassId(1, 2))])
        assert found == [want]

    def test_pendant_exclusion_arity(self):
        sys_ = instantiate_clauses(3, 7)
        lens = {len(c) for c, t in zip(sys_.clauses, sys_.tags)
                if t.schema == "C11"}
        assert lens == {8}  # K falsity literals plus the excluded top

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_catalogue_size_is_exact(self, n):
        for k in range(2, 10):
            for drop in ((), ("C8",)):
                assert catalogue_size(n, k, drop) == \
                    len(instantiate_clauses(n, k, drop)), (n, k, drop)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_schema_sizes_are_the_schema_counts(self, n):
        for k in range(2, 10):
            for drop in ((), ("C8",), ("C4", "C10")):
                assert schema_sizes(n, k, drop) == \
                    instantiate_clauses(n, k, drop).schema_counts(), \
                    (n, k, drop)

    def test_one_int_object_per_literal_value(self):
        # a catalogue holds each literal value once, however many clauses
        # cite it
        lits = [l for c in instantiate_clauses(3, 7).clauses for l in c]
        assert len({id(l) for l in lits}) == len(set(lits)) < len(lits)

    def test_clause_guard_refuses_early_without_exact_count(self):
        # n = 10^6 at square K, with C8 kept or dropped: the variable count
        # is checked first and refuses at once, before the exact
        # comb(n+K, n) that would take minutes
        for drop in ((), ("C8",)):
            start = time.perf_counter()
            with pytest.raises(OrdinalError) as err:
                instantiate_clauses(10**6, 10**12 - 4, drop)
            assert time.perf_counter() - start < 1.0, drop
            assert str(err.value) == (
                "the variable space at n=1000000 K=999999999996 has "
                "2000005999986499973500040 variables, more than the limit "
                "of 100000")

    @pytest.mark.parametrize("n, k", [(148, 2), (3, 219)])
    def test_exact_count_is_fast_at_the_space_limit(self, n, k):
        # the two corners of MAX_VARIABLES (3n + 2K <= 448 on every space
        # that fits): the exact count stays cheap on any space it meets
        assert space_size(n, k) <= MAX_VARIABLES
        assert space_size(n + 1, k) > MAX_VARIABLES
        assert space_size(n, k + 1) > MAX_VARIABLES
        start = time.perf_counter()
        assert catalogue_size(n, k) > 0
        assert time.perf_counter() - start < 0.1

    def test_oversized_catalogue_is_refused(self):
        # the square-K catalogue at n = 5 stays allowed; n = 6 does not
        assert catalogue_size(5, 21) == 126_671 <= MAX_CLAUSES
        assert catalogue_size(6, 32) > MAX_CLAUSES
        with pytest.raises(OrdinalError, match="more than the limit"):
            instantiate_clauses(6, 32)
        # a dropped schema is not counted: C8 is most of (6,32)
        assert catalogue_size(6, 32, ("C8",)) == 107_298
        # parameter checks come first, as in VariableSpace
        with pytest.raises(OrdinalError):
            catalogue_size(2, 7)
        with pytest.raises(ValueError, match="unknown schema"):
            catalogue_size(3, 7, drop=("C99",))

    def test_drop_removes_schema(self):
        sys_ = instantiate_clauses(3, 5, drop=("C8",))
        assert "C8" not in sys_.schema_counts()
        with pytest.raises(ValueError):
            instantiate_clauses(3, 5, drop=("C99",))
        with pytest.raises(OrdinalError, match="schema 'C8' dropped twice"):
            instantiate_clauses(3, 5, drop=("C8", "C8"))

    @pytest.mark.parametrize("n,k", [(3, 3), (3, 5), (3, 7), (4, 6), (4, 7),
                                     (4, 12), (5, 10)])
    def test_duplicate_schemas(self, n, k):
        # every C2 clause is a C1 clause and every C13 clause a C12 clause,
        # as literal sets: which is why dropping C13 alone never gives a
        # model.  At (4,12) that is 36 + 560 of the 10 608 core clauses.
        sys_ = instantiate_clauses(n, k)
        by: dict[str, list[frozenset]] = {}
        for c, t in zip(sys_.clauses, sys_.tags):
            by.setdefault(t.schema, []).append(frozenset(c))
        assert set(by["C2"]) <= set(by["C1"])
        assert set(by["C13"]) <= set(by["C12"])
        if (n, k) == (4, 12):
            assert len(by["C2"]) + len(by["C13"]) == 596
            assert len(sys_.select(include_redundant=False)) == 10608

    def test_catalogue_is_pinned(self):
        # every clause and tag, in order, over a grid of sizes and drops
        digest = hashlib.sha256()
        for n, k in ([(n, k) for n in (3, 4) for k in range(2, 9)]
                     + [(5, 2), (5, 3)]):
            for drop in ((), ("C8",), ("C4", "C10")):
                s = instantiate_clauses(n, k, drop=drop)
                digest.update(repr((n, k, drop, s.clauses, s.tags)).encode())
        assert digest.hexdigest() == ("ca0807cc6d9468750eb561634be67a3a"
                                      "0cab6586a93100ec528115eb0531d19d")

    def test_select_strips_redundant(self):
        full = instantiate_clauses(3, 5)
        core = full.select(include_redundant=False)
        assert len(core) < len(full)
        assert all(not t.redundant for t in core.tags)


def lower_coloring(n):
    rec = relabel_red_prefix(builtin_record(n))
    return induced_lower_coloring(build_gn(build_partition(n, rec)))


class TestConsistencyBridge:
    @pytest.mark.parametrize("n,k", [(3, 3), (4, 5), (5, 9)])
    def test_catalogue_holds_on_the_construction(self, n, k):
        # the lower-bound coloring has no blue triple and no red closed
        # omega+n, so every constraint must evaluate true on its tables
        sys_ = instantiate_clauses(n, k)
        asg = assignment_from_coloring(sys_.space, lower_coloring(n))
        assert first_violated_clause(sys_, asg) is None

    def test_violations_are_detected(self):
        sys_ = instantiate_clauses(3, 3)
        asg = assignment_from_coloring(sys_.space, lower_coloring(3))
        # force both top-pair colors blue for component 1: violates C3
        asg[sys_.space.hat_var(1, 0)] = True
        asg[sys_.space.hat_var(1, 1)] = True
        bad = first_violated_clause(sys_, asg)
        assert bad is not None


class TestReplay:
    @pytest.mark.parametrize("mode,k", [("square-K", 5), ("ramsey-K", 7)])
    def test_replay_3_is_unsat(self, mode, k):
        rep = replay_theorem(3, mode)
        assert rep.status == "unsat"
        assert rep.k == k
        assert rep.gamma == parse(f"w^2*3+w*{k}+1")
        assert rep.nodes <= 10_000_000
        assert rep.trace_verified is True
        assert rep.redundant_status == "unsat"

    def test_ramsey_value_provenance(self):
        rep = replay_theorem(3, "ramsey-K")
        assert rep.ramsey_used.value == 6
        assert rep.ramsey_used.source == "computed"
        assert replay_theorem(3, "square-K").ramsey_used is None

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            replay_theorem(3, "cubic-K")

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceeded):
            replay_theorem(3, "ramsey-K", budget=3)

    def test_negative_budget_refused(self):
        with pytest.raises(OrdinalError,
                           match=r"^budget must be >= 0, got -1$"):
            replay_theorem(3, "ramsey-K", budget=-1)

    def test_replay_peak_is_small(self):
        # only the core is built, and the solver copies its trace after
        # its search state is released: about 0.65 MB, against 1.13 MB
        # when the full catalogue was built and the trace copied on top
        # of the search
        tracemalloc.start()
        try:
            rep = replay_theorem(3, "ramsey-K")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.status == "unsat" and peak <= 850_000

    def test_dropping_spread_schema_gives_model(self):
        # negative control: without C8 the system is satisfiable and the
        # solver's first model leaves every top-top pair red
        rep = replay_theorem(3, "ramsey-K", drop=("C8",))
        assert rep.status == "sat"
        assert rep.trace_verified is None
        sp = VariableSpace(3, 7)
        tops = {tuple(sp.limit_class(i)) for i in range(1, 11)}
        block = [e for e in rep.model["tilde"]
                 if tuple(e["a"]) in tops and tuple(e["b"]) in tops]
        assert len(block) == 45
        assert all(e["color"] == 0 for e in block)

    @pytest.mark.parametrize("k", [5, 7])
    def test_n3_replays_never_reduce(self, k):
        # n = 3 solves end before REDUCE_FIRST conflicts, so they keep the
        # search and the bytes they had before learned clauses were deleted
        for drop in ((), ("C8",)):
            core = instantiate_clauses(3, k, drop=drop).select(
                include_redundant=False)
            r = solve(core.clauses, core.space.num_vars)
            assert r.conflicts < REDUCE_FIRST and r.reductions == 0

    def test_monotone_in_k(self):
        # more space means more instances of every schema: still unsat
        for k in (5, 6, 7, 8):
            sys_ = instantiate_clauses(3, k).select(include_redundant=False)
            assert solve(sys_.clauses, sys_.space.num_vars).status == "unsat"

    def test_report_json_round_trip_and_determinism(self):
        a = replay_theorem(3, "square-K")
        b = replay_theorem(3, "square-K")
        assert a.to_json() == b.to_json()
        doc = json.loads(a.to_json())
        assert doc["status"] == "unsat"
        # oracle: k=1..3 give (C(7,2)+C(6,2)+C(5,2))*2 = 92 at n=3, K=5
        assert doc["schema_counts"]["C8"] == 92
        assert doc["ramsey_used"] is None

    def test_model_tables_cover_space(self):
        rep = replay_theorem(3, "ramsey-K", drop=("C8",))
        assert len(rep.model["tilde"]) == 237
        assert len(rep.model["hat"]) == 6


class TestRedundancy:
    """C4 and C10 are flagged redundant: each of their clauses follows from
    the core catalogue by reverse unit propagation."""

    @pytest.mark.parametrize("k,count", [(5, 146), (7, 253)])
    def test_redundant_schemas_are_rup_implied_by_core(self, k, count):
        full = instantiate_clauses(3, k)
        core = full.select(include_redundant=False).clauses
        redundant = [c for c, t in zip(full.clauses, full.tags)
                     if t.redundant]
        assert len(redundant) == count
        assert sum(rup_implied(core, c) for c in redundant) == count

    def test_rup_oracle_can_answer_not_implied(self):
        cls = [(1, 2), (-1, 2)]
        assert rup_implied(cls, (2,))
        assert not rup_implied(cls, (1,))  # 1 false, 2 true satisfies both
        assert not rup_implied(cls, (-2,))


def sidecar_oracle(sys_):
    """The sidecar document, written by the stdlib encoder."""
    space = sys_.space
    return json.dumps({
        "n": space.n,
        "k": space.k,
        "variables": {str(i): space.names[i]
                      for i in range(1, space.num_vars + 1)},
        "clauses": [{"schema": t.schema, "redundant": t.redundant,
                     "params": list(t.params)} for t in sys_.tags],
    }, indent=2)


class TestDimacs:
    def test_header_and_shape(self):
        sys_ = instantiate_clauses(3, 7)
        text = sys_.to_dimacs()
        lines = text.strip().splitlines()
        assert lines[1] == "p cnf 243 2409"
        assert all(line.endswith(" 0") for line in lines[2:])
        assert len(lines) == 2 + 2409

    def test_sidecar_aligns(self):
        sys_ = instantiate_clauses(3, 5)
        doc = json.loads(sys_.sidecar_json())
        assert len(doc["variables"]) == sys_.space.num_vars
        assert len(doc["clauses"]) == len(sys_)
        assert doc["variables"]["1"] == sys_.space.names[1]
        assert {c["schema"] for c in doc["clauses"]} == set(
            sys_.schema_counts())

    @pytest.mark.parametrize("n,k,cnf,sidecar", [
        (3, 5, "ac40df09e9f7e8b17ebf386d5fff5108d571119f1e4ed712ffc5a85911300f8d",
         "8a51282ed48e9d93ae50f55e1684be731ecc505b3b32d218f3d9cbbcc8f5b169"),
        (3, 7, "c522a5c118836a2921ce3cc9858289ec86d2185cbe0a4056798dec05c5aa194a",
         "7be1481023a6154e2c46d7ec614bc31351328fae0c4c63d1173c0fcaf8f03ad3"),
        (4, 12, "076548b7f734e20bdeb0922d98dbe62dee22bf0b2f3e847e8a37c6d989d47c8c",
         "95d729e4db3e38cca89bd16e2c830a00f902d38605232580184d1e0416e96cac"),
    ])
    def test_export_bytes_are_pinned(self, n, k, cnf, sidecar):
        sys_ = instantiate_clauses(n, k)
        assert hashlib.sha256(sys_.to_dimacs().encode()).hexdigest() == cnf
        assert hashlib.sha256(
            sys_.sidecar_json().encode()).hexdigest() == sidecar

    @pytest.mark.parametrize("n,k", [(3, 2), (3, 4), (4, 7)])
    @pytest.mark.parametrize("drop", [(), ("C8", "C12")])
    def test_sidecar_matches_json_dumps(self, n, k, drop):
        sys_ = instantiate_clauses(n, k, drop=drop)
        assert sys_.sidecar_json() == sidecar_oracle(sys_)

    def test_sidecar_of_odd_tags_matches_json_dumps(self):
        space = VariableSpace(3, 2)
        tags = (ClauseTag("C1", False, ()),
                ClauseTag('q"\\é', True, ("\n\u00e9", -3, 10**20,
                                          NodeClassId(4, 1))))
        for sys_ in (ClauseSystem(space, ((1,), (-1,)), tags),
                     ClauseSystem(space, (), ())):
            assert sys_.sidecar_json() == sidecar_oracle(sys_)

    @pytest.mark.parametrize("param", [1.0, True, None, (1, 0),
                                       NodeClassId(1.0, 0)],
                             ids=["float", "bool", "null", "tuple",
                                  "class-of-float"])
    def test_sidecar_refuses_other_param_types(self, param):
        # 1.0 and True equal the int 1: neither may reuse its text
        space = VariableSpace(3, 2)
        tags = (ClauseTag("C1", False, (1, NodeClassId(1, 0))),
                ClauseTag("C1", False, (param,)))
        with pytest.raises(TypeError):
            ClauseSystem(space, ((1,), (2,)), tags).sidecar_json()

    def test_export_round_trips_through_solver(self):
        sys_ = instantiate_clauses(3, 5).select(include_redundant=False)
        lines = sys_.to_dimacs().strip().splitlines()
        nv = int(lines[1].split()[2])
        parsed = [tuple(map(int, line.split()[:-1])) for line in lines[2:]]
        assert parsed == list(sys_.clauses)
        assert solve(parsed, nv).status == "unsat"
