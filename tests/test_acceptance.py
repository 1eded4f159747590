"""Acceptance gate: every shipped claim, one pass/fail line per criterion.

Run as `pytest tests/test_acceptance.py -v -s`.  The heavyweight entries are
the two n=4 clause replays (tens of seconds each); everything else is fast.
"""

import json
import random
import time

from click.testing import CliRunner

from oracles import truth_table_status
from orw.cli import main as cli_main
from orw.coloring import check_certificate, decide_blue_closed_3
from orw.lowerbound import build_gn, build_partition, induced_lower_coloring
from orw.ordinals import Ordinal, parse
from orw.ramsey import brute_force_ramsey, builtin_record, relabel_red_prefix, verify_witness
from orw.replay import (
    assignment_from_coloring,
    first_violated_clause,
    instantiate_clauses,
    replay_theorem,
)
from orw.solver import solve
from test_coloring import brute_force_triangle, random_coloring, sample_universe


def _line(ok: bool, text: str) -> None:
    print(("PASS" if ok else "FAIL") + f" | {text}")
    assert ok, text


def test_criterion_1_lower_bound_construction():
    runner = CliRunner()
    details = []
    for n in (3, 4, 5):
        t0 = time.time()
        r = runner.invoke(cli_main, ["lower", "verify", "-n", str(n),
                                     "--json"], catch_exceptions=False)
        dt = time.time() - t0
        doc = json.loads(r.output)
        stages = {s["name"]: s["ok"] for s in doc["stages"]}
        assert r.exit_code == 0 and doc["passed"], (n, r.output)
        assert stages["triangle-free"], n
        assert stages["no-blue-3"], n
        assert stages["no-red-omega-plus-n"], n
        # positive control: the weakened target does admit a red copy
        assert stages["red-control-at-n-minus-1"], n
        assert dt < 10.0, (n, dt)
        details.append(f"n={n} {dt:.1f}s")
    _line(True, "criterion 1: lower-bound pipeline passes for n=3,4,5 "
          "with positive control (" + ", ".join(details) + ")")


def test_criterion_2_ramsey_core():
    t0 = time.time()
    r3 = brute_force_ramsey(3)
    r4 = brute_force_ramsey(4)
    dt = time.time() - t0
    assert r3.value == 6 and r3.verified()
    assert r4.value == 9 and r4.verified()
    assert dt < 300.0, dt
    t0 = time.time()
    rec5 = builtin_record(5)
    rep = verify_witness(rec5.witness, 5)
    dt5 = time.time() - t0
    assert rep.ok and rec5.witness.order == 13
    assert dt5 < 1.0, dt5
    _line(True, f"criterion 2: R(3,3)=6 and R(4,3)=9 by exhaustion with "
          f"verified witnesses ({dt:.1f}s); order-13 witness verifies "
          f"for n=5 ({dt5:.2f}s)")


def test_criterion_3_upper_bound_replay():
    details = []
    # (nodes, trace_steps) pin the deterministic search: a solver change
    # that alters a decision, a learned clause or a resolution shows here
    for n, mode, k, search in ((3, "ramsey-K", 7, (887, 2370)),
                               (3, "square-K", 5, (588, 1935)),
                               (4, "ramsey-K", 15, (25489, 84907)),
                               (4, "square-K", 12, (19513, 63274))):
        rep = replay_theorem(n, mode)
        assert rep.k == k
        if rep.status != "unsat":  # the model is the diagnostic artifact
            print(json.dumps(rep.model, indent=2))
            _line(False, f"criterion 3: expected UNSAT at n={n} K={k}, "
                  "got a model (printed above)")
        assert rep.nodes <= 10_000_000, (n, mode, rep.nodes)
        assert (rep.nodes, rep.trace_steps) == search, (n, mode)
        assert rep.trace_verified is True, (n, mode)
        assert rep.redundant_status == "unsat", (n, mode)
        details.append(f"({n},{k}):{rep.nodes}")
    neg = replay_theorem(3, "ramsey-K", drop=("C8",))
    assert neg.status == "sat" and neg.model is not None
    _line(True, "criterion 3: all four clause systems UNSAT within budget "
          "with verified traces [nodes " + " ".join(details)
          + "]; dropping C8 yields a model")


def test_criterion_4_bound_comparison():
    r = CliRunner().invoke(cli_main, ["bounds", "--nmax", "8", "--json"],
                           catch_exceptions=False)
    doc = json.loads(r.output)
    flags = {row["n"]: row["square_better_than_ramsey"]
             for row in doc["rows"]}
    assert flags == {3: True, 4: True, 5: True, 6: True, 7: True, 8: False}
    used = {k: v for row in doc["rows"]
            for k, v in row["ramsey_values_used"].items()}
    assert used["R(3,3)"]["source"] == "computed"
    assert used["R(4,3)"]["source"] == "computed"
    externals = {k for k, v in used.items() if v["source"] == "external"}
    assert {"R(5,3)", "R(13,3)"} <= externals
    _line(True, "criterion 4: square-K bound beats ramsey-K bound exactly "
          "for 3<=n<=7, not n=8; external values flagged")


def _random_ordinal(rng: random.Random) -> Ordinal:
    # stays below w^3*5: leading coefficient capped at 4
    terms = []
    for exp, cap in ((3, 4), (2, 5), (1, 5), (0, 5)):
        c = rng.randrange(cap + 1)
        if c:
            terms.append((exp, c))
    return Ordinal(tuple(terms))


def _laws_suite() -> None:
    rng = random.Random(99)
    zero = parse("0")
    for _ in range(1000):
        a, b, c = (_random_ordinal(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + zero == a and zero + a == a
        assert a <= a + b and b <= a + b
        assert parse(str(a)) == a
        assert (a < b) + (a == b) + (b < a) == 1
        if a < b:
            assert c + a < c + b
        if a <= b:
            assert a + c <= b + c
        s = a + b
        assert s.cb_rank() == (b.cb_rank() if not b.is_zero()
                               else a.cb_rank())
        assert not (a + Ordinal.from_int(1)).is_limit()


def _blue3_oracle_suite() -> None:
    rng = random.Random(2024)
    gammas = ["w^2*2+1", "w^2+w*2+2", "w*4+3", "w^2+1", "w*2"]
    for k in range(200):
        c = random_coloring(rng, gammas[k % len(gammas)], blue_bias=0.3)
        cert = decide_blue_closed_3(c)
        found = brute_force_triangle(c, sample_universe(c))
        if cert is None:
            assert found is None
        else:
            assert found is not None and check_certificate(c, cert)


def _solver_oracle_suite() -> None:
    rng = random.Random(11)
    for _ in range(500):
        nv = rng.randrange(1, 21)
        cls = []
        for _ in range(rng.randrange(0, 4 * nv + 1)):
            width = rng.randrange(1, 4)
            cls.append(tuple((v if rng.random() < 0.5 else -v) for v in
                             (rng.randrange(1, nv + 1)
                              for _ in range(width))))
        got = solve(cls, nv)
        want, _ = truth_table_status(cls, nv)
        assert got.status == want, (nv, cls)
        if got.status == "sat":
            for c in cls:
                assert any(got.model[abs(l)] == (l > 0) for l in c)


def _bridge_suite() -> None:
    rec = relabel_red_prefix(builtin_record(3))
    coloring = induced_lower_coloring(build_gn(build_partition(3, rec)))
    system = instantiate_clauses(3, 3)
    asg = assignment_from_coloring(system.space, coloring)
    assert first_violated_clause(system, asg) is None


def test_criterion_5_property_suites():
    _laws_suite()
    _blue3_oracle_suite()
    _solver_oracle_suite()
    _bridge_suite()
    _line(True, "criterion 5: ordinal laws (1000 cases), blue-triple decider "
          "vs sampling (200), solver vs truth table (500), and the "
          "catalogue/construction bridge all agree")
