"""One workload in one fresh process; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --t0 T --workdir DIR [--setup-only]

`--t0` is the launcher's CLOCK_MONOTONIC reading just before it started
this process, so setup time covers interpreter start, importing orw (which
verifies the builtin witnesses) and making the first round's inputs.
Prints one JSON line: the metrics, `attempted`, `failed` and the
operations' deterministic counters.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import orw  # noqa: E402
from click.testing import CliRunner  # noqa: E402
from orw.cli import main as orw_main  # noqa: E402

from checks import Checker  # noqa: E402
from ops import WORKLOADS, run_traced  # noqa: E402
from tracing import Tracer  # noqa: E402

if not Path(orw.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"orw imported from {orw.__file__}, not from {ROOT / 'src'}")

TRACE_DIR = ROOT / ".perfbench_trace"

# per-layer metrics that sum the spans of the given names
SPAN_METRICS = {
    "solver.solve_core_s": ("solver.solve_core",),
    "solver.solve_sat_s": ("solver.solve_sat",),
    "solver.solve_redundant_s": ("solver.solve_redundant",),
    "solver.check_trace_s": ("solver.check_trace",),
    "replay.instantiate_s": ("replay.instantiate",),
    "replay.to_dimacs_s": ("replay.to_dimacs",),
    "replay.sidecar_s": ("replay.sidecar",),
    "coloring.load_s": ("coloring.load",),
    "coloring.blue3_s": ("coloring.blue3",),
    "coloring.red_s": ("coloring.red",),
    "coloring.red_control_s": ("coloring.red_control",),
    "coloring.check_certificate_s": ("coloring.check_certificate",),
    "lowerbound.build_s": ("lowerbound.build_partition",
                           "lowerbound.build_gn"),
    "lowerbound.triangle_free_s": ("lowerbound.triangle_free",),
    "lowerbound.induced_coloring_s": ("lowerbound.induced_coloring",),
    "ramsey.brute_s": ("ramsey.search_witnesses",
                       "ramsey.brute_force_ramsey"),
    "ramsey.verify_witness_s": ("ramsey.verify_witness",),
    "cli.render_s": ("cli.render",),
}
COUNT_METRICS = (
    "solver.decisions_core", "solver.trace_steps_core",
    "solver.decisions_redundant", "solver.rss_growth_mb",
    "solver.sat_decisions", "solver.solves",
    "replay.vars", "replay.clauses_full", "replay.clauses_core",
    "replay.dimacs_bytes", "replay.sidecar_bytes",
    "coloring.classes", "coloring.cross_entries",
    "coloring.certificates_found", "coloring.certificates_verified",
    "coloring.none_answers",
    "lowerbound.vertices", "lowerbound.edges",
    "ramsey.survivors_total", "cli.output_bytes",
)


class Gate:
    """Determinism gate: every result for one input key must carry the same
    counters, and every operation's verdict must pass its check."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.counters: dict[str, dict] = {}
        self.fresh: set[str] = set()
        self.attempted = 0
        self.failed = 0

    def judge(self, op, code: int, out: str, error=None) -> None:
        self.attempted += 1
        if error is not None:
            problems, counters = [f"raised {error!r}"], {}
        else:
            problems, counters = self.checker.check(op, code, out)
        seen = self.counters.setdefault(op.key, counters)
        if seen != counters:
            problems.append(f"counters {counters} differ from {seen}")
        if op.fresh:
            self.fresh.add(op.key)
        if problems:
            self.failed += 1
            print(f"FAIL {op.key}: {'; '.join(problems)}", file=sys.stderr)

    def summary(self) -> dict:
        fixed = {k: v for k, v in sorted(self.counters.items())
                 if k not in self.fresh}
        fresh = json.dumps({k: self.counters[k] for k in sorted(self.fresh)},
                           sort_keys=True)
        return {"fixed": fixed,
                "fresh_sha256": hashlib.sha256(fresh.encode()).hexdigest()}


def _usage_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_cli_round(runner: CliRunner, ops) -> tuple[float, float, list]:
    """Run one round's commands back to back; checks come afterwards."""
    results = []
    cpu0, t0 = _usage_s(), time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        res = runner.invoke(orw_main, list(op.args))
        results.append((op, res, time.perf_counter() - t))
    return time.perf_counter() - t0, _usage_s() - cpu0, results


def judge_cli(gate: Gate, results) -> None:
    for op, res, _ in results:
        error = res.exception
        if isinstance(error, SystemExit):
            error = None
        gate.judge(op, res.exit_code, res.stdout, error)


def untraced(workload, first_round, seconds: float, gate: Gate) -> dict:
    runner = CliRunner()
    walls, cpus, op_times, laps = [], [], [], []
    start = time.perf_counter()
    ops, r = first_round, 0
    while True:
        lap = time.perf_counter()
        wall, cpu, results = run_cli_round(runner, ops)
        walls.append(wall)
        cpus.append(cpu)
        op_times += [dt for _, _, dt in results]
        judge_cli(gate, results)
        r += 1
        laps.append(time.perf_counter() - lap)
        # start no round that would end past `seconds`; the first always runs
        if time.perf_counter() - start + statistics.median(laps) > seconds:
            break
        ops = workload.round_ops(r)
    q = statistics.quantiles(op_times, n=10, method="inclusive")
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdicts_per_s": (gate.attempted - gate.failed) / sum(walls),
        "verdict_s.p50": statistics.median(op_times),
        "verdict_s.p90": q[8],
        "_rounds": r,
        "_samples": len(op_times),
    }


def traced(workload, first_round, seconds: float, gate: Gate,
           trace_path: Path) -> dict:
    """Replay `m` rounds traced, then run the same rounds through the CLI."""
    m = max(1, round(seconds / (2 * workload.round_s)))
    rounds = [first_round] + [workload.round_ops(r) for r in range(1, m)]
    tr = gate.checker.tr
    for ops in rounds:
        outs = []
        for op in ops:
            tr.op += 1
            try:
                outs.append((op, *run_traced(tr, op), None))
            except Exception as exc:  # reported as a failed operation
                outs.append((op, 2, "", exc))
        for op, code, out, error in outs:
            gate.judge(op, code, out, error)
    gc.collect()
    gate.checker.tr = Tracer()  # untraced phase: keep its checks out
    runner = CliRunner()
    cli_time = 0.0
    for ops in rounds:
        wall, _, results = run_cli_round(runner, ops)
        cli_time += sum(dt for _, _, dt in results)
        judge_cli(gate, results)
    gate.checker.tr = tr
    tr.dump(str(trace_path))

    metrics = {f"{layer}.self_s": t / m
               for layer, t in tr.self_times().items()}
    for name, spans in SPAN_METRICS.items():
        metrics[name] = tr.total(*spans) / m
    for name in COUNT_METRICS:
        metrics[name] = tr.counts.get(name, 0) / m
    solve_s = tr.total("solver.solve_core", "solver.solve_sat",
                       "solver.solve_redundant")
    metrics["solver.redundant_share"] = (
        tr.total("solver.solve_redundant") / solve_s if solve_s else 0.0)
    metrics["trace.coverage"] = tr.layer_time() / cli_time
    metrics["trace.overhead"] = tr.op_time() / cli_time
    ops = [op for r in rounds for op in r]
    metrics["inputs.repeat_share"] = sum(not op.fresh for op in ops) / len(ops)
    metrics["_rounds"] = m
    return metrics


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    with open(Path(__file__).with_name("expected.json")) as fh:
        expected = json.load(fh)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    first_round = workload.round_ops(0)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    gate = Gate(Checker(expected, Tracer()))
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        metrics = traced(workload, first_round, args.seconds, gate,
                         TRACE_DIR / f"{args.workload}-seed{args.seed}.json")
    else:
        metrics = untraced(workload, first_round, args.seconds, gate)
        metrics["setup_s"] = setup_s
    print(json.dumps({"metrics": metrics, "attempted": gate.attempted,
                      "failed": gate.failed, "counters": gate.summary()}))


if __name__ == "__main__":
    main()
