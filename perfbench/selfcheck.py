"""Self-check of the benchmark; takes about five minutes.

    python3 perfbench/selfcheck.py

1. Runs every workload at its shortest length (--seconds 1), untraced and
   traced, through run.py, and asserts that every metric BENCHMARK.json
   names is printed with its unit, that no verdict failed, and that the
   deterministic counters equal the record in baseline.json.
2. Runs certify-mix traced again with the same seed and with another
   seed: the same seed must give identical counters, another seed must
   change only the counters of the seeded colorings.
3. For each case in WRONG_VERDICTS, runs one round of its workload in this
   process against a copy of expected.json holding that one wrong expected
   verdict, and asserts that the workload fails.

Exits 1 if any assertion fails.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import worker  # puts the checkout's src/ on sys.path
from checks import Checker
from ops import WORKLOADS
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WRONG_VERDICTS = (
    ("replay-n4", "replay", "replay n=4 k=square drop=C8", "status", "unsat"),
    ("certify-mix", "export", "export n=3 k=square", "cnf_sha256", "0" * 64),
    ("certify-mix", "ramsey", "4", None, 10),
)

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """Run run.py; return its result and the counters line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    counters = next(json.loads(ln[len("counters: "):]) for ln in lines
                    if ln.startswith("counters: "))
    return json.loads(lines[-1]), counters


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads((HERE / "baseline.json").read_text())["workloads"]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    traced_counters = {}
    for name in WORKLOADS:
        base = baseline[name]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, counters = bench(name, 1, trace)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == {m["name"]: units[m["name"]]
                               for m in spec[group]},
                   f"{name} trace {trace}: every {group} metric, with unit")
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace {trace}: all {result['attempted']} "
                   "verdicts pass")
            # an untraced run's length follows the clock; a traced run's
            # rounds, and so its seeded inputs, are fixed by --seconds
            same = (counters == base["counters"] if trace
                    else counters["fixed"] == base["counters"]["fixed"])
            expect(same, f"{name} trace {trace}: operation counters equal "
                         "the baseline")
            if trace:
                traced_counters[name] = counters
                got = {k: v["value"] for k, v in result["metrics"].items()
                       if k in base["per_layer_counts"]}
                diff = {k: (v, base["per_layer_counts"][k])
                        for k, v in got.items()
                        if v != base["per_layer_counts"][k]}
                expect(not diff, f"{name}: per-layer counts equal the "
                                 f"baseline {diff or ''}")

    _, again = bench("certify-mix", 1, 1)
    _, other = bench("certify-mix", 2, 1)
    expect(again == traced_counters["certify-mix"],
           "certify-mix: same seed, same counters")
    expect(other["fixed"] == again["fixed"]
           and other["fresh_sha256"] != again["fresh_sha256"],
           "certify-mix: another seed changes only the seeded inputs")

    expected = json.loads((HERE / "expected.json").read_text())
    for name, section, key, field, wrong in WRONG_VERDICTS:
        bad = copy.deepcopy(expected)
        if field is None:
            bad[section][key] = wrong
        else:
            bad[section][key][field] = wrong
        (ROOT / ".perfbench_work").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as wd:
            workload = WORKLOADS[name](1, wd)
            gate = worker.Gate(Checker(bad, Tracer()))
            worker.untraced(workload, workload.round_ops(0), 0, gate)
        expect(gate.failed > 0,
               f"{name}: a wrong expected {section} verdict fails the run")

    print(f"{len(failures)} failed" if failures else "all checks pass")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
