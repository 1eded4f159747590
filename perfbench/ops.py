"""The operations each workload runs, and their traced replays.

An operation is one `orw` command.  Untraced, it runs through the real CLI
(`orw.cli.main` under click's CliRunner).  Traced, it is replayed as the
sequence of public calls the command makes, with a span around each call;
the replay must print the same bytes as the command, which the worker
checks.  If a command's call sequence changes, `trace.coverage` moves away
from 1 and the replay here needs updating.
"""

from __future__ import annotations

import json
import os
import random
import resource
from dataclasses import dataclass

from orw.cli import BoundsRow
from orw.coloring import (
    certificate_to_json,
    coloring_from_json,
    coloring_to_json,
    decide_blue_closed_3,
    decide_red_closed_omega_plus_n,
)
from orw.lowerbound import (
    LowerBoundReport,
    StageResult,
    build_gn,
    build_partition,
    check_triangle_free,
    induced_lower_coloring,
    lower_bound_gamma,
)
from orw.ordinals import Ordinal
from orw.ramsey import (
    RamseyRecord,
    TableEntry,
    brute_force_ramsey,
    builtin_record,
    load_ramsey_table,
    relabel_red_prefix,
    search_witnesses,
    witness_to_json,
)
from orw.replay import (
    ReplayReport,
    instantiate_clauses,
    model_tables,
    resolve_k,
)
from orw.solver import check_trace, solve

from colorings import BaseColoring

BUDGET = 10_000_000  # the CLI's default decision budget
MODES = {"ramsey": "ramsey-K", "square": "square-K"}


@dataclass(frozen=True)
class Op:
    key: str  # identifies the input; equal keys must give equal counters
    kind: str  # replay | export | lower | brute | bounds | decide
    args: tuple[str, ...]  # the `orw` command line
    n: int = 0
    k_choice: str = ""
    drop: tuple[str, ...] = ()
    path: str = ""  # export basename or coloring file
    fresh: bool = False  # input made from the seed, new every round
    case: object = None  # the ColoringCase behind a decide input


def replay_op(n: int, k_choice: str, drop: tuple[str, ...] = ()) -> Op:
    args = ["upper", "replay", "-n", str(n), "--k", k_choice, "--json"]
    for s in drop:
        args += ["--drop", s]
    key = f"replay n={n} k={k_choice}" + "".join(f" drop={s}" for s in drop)
    return Op(key, "replay", tuple(args), n=n, k_choice=k_choice, drop=drop)


def export_op(n: int, k_choice: str, workdir: str) -> Op:
    base = os.path.join(workdir, f"export-n{n}-{k_choice}")
    return Op(f"export n={n} k={k_choice}", "export",
              ("upper", "export", "-n", str(n), "--k", k_choice, "-o", base),
              n=n, k_choice=k_choice, path=base)


def lower_op(n: int) -> Op:
    return Op(f"lower verify n={n}", "lower",
              ("lower", "verify", "-n", str(n), "--json"), n=n)


def brute_op(n: int) -> Op:
    return Op(f"ramsey brute n={n}", "brute",
              ("ramsey", "brute", "-n", str(n), "--json"), n=n)


BOUNDS_OP = Op("bounds", "bounds", ("bounds", "--json"))


class Workload:
    """Makes each round's operation list; inputs depend only on the seed."""

    name = ""
    round_s = 1.0  # nominal cost of one round, sizes the traced run

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError


class ReplayN4(Workload):
    name = "replay-n4"
    round_s = 50.0

    def round_ops(self, r: int) -> list[Op]:
        return [replay_op(4, "square"), replay_op(4, "square", ("C8",))]


class CertifyMix(Workload):
    """Shipped checks and n = 3 exports that repeat every round, plus 12
    fresh colorings."""

    name = "certify-mix"
    round_s = 1.5
    COLORINGS = 12

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.bases = {}
        for n in (3, 4, 5):
            rec = relabel_red_prefix(builtin_record(n))
            graph = build_gn(build_partition(n, rec))
            self.bases[n] = BaseColoring(
                n, rec.value, coloring_to_json(induced_lower_coloring(graph)))

    def round_ops(self, r: int) -> list[Op]:
        rng = random.Random(f"certify-mix:{self.seed}:{r}")
        ops = [lower_op(n) for n in (3, 4, 5)]
        ops += [brute_op(3), brute_op(4), BOUNDS_OP]
        ops += [replay_op(3, k, drop) for k in ("ramsey", "square")
                for drop in ((), ("C8",))]
        ops += [export_op(3, k, self.workdir) for k in ("ramsey", "square")]
        for i in range(self.COLORINGS):
            n = (3, 4, 5)[i % 3]
            case = self.bases[n].random_case(rng)
            path = os.path.join(self.workdir, f"coloring-{r}-{i}.json")
            with open(path, "w") as fh:
                fh.write(case.to_json())
            ops.append(Op(f"decide seed={self.seed} round={r} #{i}", "decide",
                          ("coloring", "decide", path, "-n", str(n), "--json"),
                          n=n, path=path, fresh=True, case=case))
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (ReplayN4, CertifyMix)}


# -- traced replays -----------------------------------------------------------


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _solve(tr, role: str, system):
    """solve() under a span named by its role and outcome."""
    rss = _maxrss_mb()
    with tr.span(f"solver.solve_{role}") as rec:
        res = solve(system.clauses, system.space.num_vars, budget=BUDGET)
    tr.count("solver.rss_growth_mb", _maxrss_mb() - rss)
    tr.count("solver.solves")
    if role == "redundant":
        tr.count("solver.decisions_redundant", res.nodes)
    elif res.status == "unsat":
        tr.count("solver.decisions_core", res.nodes)
        tr.count("solver.trace_steps_core", len(res.trace.steps))
    else:
        rec[0] = "solver.solve_sat"
        tr.count("solver.sat_decisions", res.nodes)
    return res


def _replay(tr, op: Op) -> tuple[int, str]:
    """cmd_upper_replay -> replay_theorem, call by call."""
    mode = MODES[op.k_choice]
    table = tr.call("ramsey.load_table", load_ramsey_table)
    k, used = tr.call("replay.resolve_k", resolve_k, op.n, mode, table=table)
    full = tr.call("replay.instantiate", instantiate_clauses, op.n, k,
                   drop=op.drop)
    core = tr.call("replay.select", full.select, include_redundant=False)
    tr.count("replay.vars", full.space.num_vars)
    tr.count("replay.clauses_full", len(full))
    tr.count("replay.clauses_core", len(core))
    res = _solve(tr, "core", core)
    trace_verified = redundant_status = model = None
    trace_steps = 0
    if res.status == "unsat":
        trace_steps = len(res.trace.steps)
        trace_verified = tr.call("solver.check_trace", check_trace,
                                 core.clauses, res.trace)
        redundant_status = _solve(tr, "redundant", full).status
    else:
        model = tr.call("replay.model_tables", model_tables, full.space,
                        res.model)
    rep = ReplayReport(
        n=op.n, mode=mode, k=k, gamma=full.space.gamma, ramsey_used=used,
        dropped=tuple(op.drop), num_vars=full.space.num_vars,
        num_clauses=len(core),
        schema_counts=tr.call("replay.schema_counts", full.schema_counts),
        status=res.status, nodes=res.nodes, trace_steps=trace_steps,
        trace_verified=trace_verified, redundant_status=redundant_status,
        model=model)
    out = tr.call("cli.render", rep.to_json) + "\n"
    ok = (rep.status == "unsat" and rep.trace_verified
          and rep.redundant_status == "unsat")
    return (0 if ok else 1), out


def _export(tr, op: Op) -> tuple[int, str]:
    """cmd_upper_export, call by call."""
    base = op.path
    table = tr.call("ramsey.load_table", load_ramsey_table)
    k, _ = tr.call("replay.resolve_k", resolve_k, op.n, MODES[op.k_choice],
                   table=table)
    system = tr.call("replay.instantiate", instantiate_clauses, op.n, k)
    tr.count("replay.vars", system.space.num_vars)
    tr.count("replay.clauses_full", len(system))
    dimacs = tr.call("replay.to_dimacs", system.to_dimacs)
    with tr.span("cli.write"), open(base + ".cnf", "w") as fh:
        fh.write(dimacs)
    sidecar = tr.call("replay.sidecar", system.sidecar_json)
    with tr.span("cli.write"), open(base + ".json", "w") as fh:
        fh.write(sidecar)
    tr.count("replay.dimacs_bytes", len(dimacs))
    tr.count("replay.sidecar_bytes", len(sidecar))
    return 0, (f"wrote {base}.cnf ({len(system)} clauses, "
               f"{system.space.num_vars} variables) and {base}.json\n")


def _lower(tr, op: Op) -> tuple[int, str]:
    """cmd_lower_verify -> verify_lower_bound, call by call."""
    n = op.n
    stages: list[StageResult] = []
    rec = tr.call("ramsey.builtin_record", builtin_record, n)
    rec = tr.call("ramsey.relabel_red_prefix", relabel_red_prefix, rec)
    gamma = tr.call("lowerbound.gamma", lower_bound_gamma, n, rec.value)
    ok = tr.call("ramsey.verify_witness", rec.verified)
    stages.append(StageResult("witness", ok, f"order {rec.witness.order}, "
                                             f"source {rec.source}"))
    if ok:
        spec = tr.call("lowerbound.build_partition", build_partition, n, rec)
        graph = tr.call("lowerbound.build_gn", build_gn, spec)
        tr.count("lowerbound.vertices", len(spec.vertices))
        tr.count("lowerbound.edges", len(graph.edges))
        ok, tri = tr.call("lowerbound.triangle_free", check_triangle_free,
                          graph)
        stages.append(StageResult("triangle-free", ok,
                                  None if ok else str(tri)))
    if ok:
        coloring = tr.call("lowerbound.induced_coloring",
                           induced_lower_coloring, graph)
        for stage, span, target, want in (
                ("no-blue-3", "coloring.blue3", None, False),
                ("no-red-omega-plus-n", "coloring.red", n, False),
                ("red-control-at-n-minus-1", "coloring.red_control", n - 1,
                 True)):
            cert = (tr.call(span, decide_blue_closed_3, coloring)
                    if target is None
                    else tr.call(span, decide_red_closed_omega_plus_n,
                                 coloring, target))
            ok = (cert is not None) == want
            detail = (None if cert is None
                      else tr.call("cli.render", certificate_to_json, cert))
            stages.append(StageResult(stage, ok, detail))
            if not ok:
                break
    report = LowerBoundReport(n, gamma, tuple(stages), ok)
    return (0 if ok else 1), tr.call("cli.render", report.to_json) + "\n"


def _brute(tr, op: Op) -> tuple[int, str]:
    """cmd_ramsey_brute -> brute_force_ramsey, one order at a time."""
    previous: list = []
    order = 1
    while True:
        found = tr.call("ramsey.search_witnesses", search_witnesses, order,
                        op.n)
        tr.count("ramsey.survivors_total", len(found))
        if not found:
            break
        previous = found
        order += 1
    rec = RamseyRecord(op.n, order, previous[0], "computed")
    return 0, tr.call("cli.render", witness_to_json, rec) + "\n"


def _bounds(tr, op: Op) -> tuple[int, str]:
    """cmd_bounds -> bounds_rows for n = 3..8, formula by formula."""
    table = tr.call("ramsey.load_table", load_ramsey_table)
    w = Ordinal.omega_power

    def entry(m: int) -> TableEntry:
        if m in table:
            return table[m]
        rec = tr.call("ramsey.brute_force_ramsey", brute_force_ramsey, m)
        return TableEntry(rec.value, rec.source)

    rows = []
    for n in range(3, 9):
        used = {f"R({m},3)": entry(m) for m in (n, 2 * n - 3, n - 1)}
        val = {m: used[f"R({m},3)"].value for m in (n, 2 * n - 3, n - 1)}
        with tr.span("ordinals.arith"):
            values = (w(2, n) + w(1, val[n] - n) + w(0, n),
                      w(2, n) + w(1, n * n - 4) + w(0, 1),
                      w(2, n) + w(1, val[2 * n - 3] + 1) + w(0, 1),
                      w(2, val[n - 1] + 1) + w(1, n - 1) + w(0, n))
            better = values[1] < values[2]
        rows.append(tr.call("cli.bounds_row", BoundsRow, n, *values, better,
                            used))

    def render() -> str:
        return json.dumps({"nmax": 8, "rows": [{
            "n": r.n,
            "lower": str(r.lower),
            "upper_square": str(r.upper_square),
            "upper_ramsey": str(r.upper_ramsey),
            "upper_prior": str(r.upper_prior),
            "square_better_than_ramsey": r.square_better,
            "ramsey_values_used": {
                k: {"value": e.value, "source": e.source}
                for k, e in sorted(r.ramsey_values_used.items())},
        } for r in rows]}, indent=2)

    return 0, tr.call("cli.render", render) + "\n"


def _decide(tr, op: Op) -> tuple[int, str]:
    """cmd_coloring_decide, call by call."""
    with tr.span("cli.read"), open(op.path) as fh:
        text = fh.read()
    c = tr.call("coloring.load", coloring_from_json, text)
    tr.count("coloring.classes", len(c.within))
    tr.count("coloring.cross_entries", len(c.cross))
    blue = tr.call("coloring.blue3", decide_blue_closed_3, c)
    red = tr.call("coloring.red", decide_red_closed_omega_plus_n, c, op.n)
    for cert in (blue, red):
        tr.count("coloring.certificates_found" if cert
                 else "coloring.none_answers")

    def render() -> str:
        return json.dumps({
            "gamma": str(c.gamma), "n": op.n,
            "blue_triple": (json.loads(certificate_to_json(blue))
                            if blue else None),
            "red_omega_plus_n": (json.loads(certificate_to_json(red))
                                 if red else None)}, indent=2)

    return (1 if blue or red else 0), tr.call("cli.render", render) + "\n"


_TRACED = {"replay": _replay, "export": _export, "lower": _lower,
           "brute": _brute, "bounds": _bounds, "decide": _decide}


def run_traced(tr, op: Op) -> tuple[int, str]:
    """Replay one command under an "op." root span; returns (exit, stdout)."""
    with tr.span("op." + op.key):
        code, out = _TRACED[op.kind](tr, op)
    tr.count("cli.output_bytes", len(out))
    return code, out
