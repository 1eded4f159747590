"""orw benchmark: run one workload, check every verdict, print the metrics.

    python3 perfbench/run.py --workload replay-n4|certify-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is the checkout's
own `src/orw`.  The workload runs in a fresh single-threaded worker process
(worker.py).  With --trace 0 the end-to-end metrics are measured untraced,
and set-up is repeated in SETUP_SAMPLES fresh processes and reported as
their median.  With --trace 1 the worker replays the same operations with
a span around every public layer call and reports the per-layer metrics;
the spans are written to .perfbench_trace/.  Metric names and units come
from BENCHMARK.json.  The last line of stdout is the JSON result; a missing
program, a crashed worker or a timeout exits non-zero without one.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
SETUP_SAMPLES = 7
DEADLINE_S = 170  # a run must end within 180 s


def run_worker(args, workdir: str, deadline: float,
               setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("error: worker exceeded the run deadline")
    if proc.returncode != 0:
        raise SystemExit(f"error: worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "orw" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {ROOT / 'src' / 'orw'}")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".perfbench_work")
    try:
        setups = [] if args.trace else [
            run_worker(args, workdir, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        result = run_worker(args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = result["metrics"]
    if not args.trace:
        setups.append(measured["setup_s"])
        measured["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {measured['_rounds']} rounds, "
          f"fail_ratio {failed / attempted:.4f}")
    if not args.trace:
        print(f"verdict_s samples: {measured['_samples']}; "
              f"setup samples: {len(setups)}")
    for m in wanted:
        print(f"  {m['name']:34s} {measured[m['name']]:>16.6f} {m['unit']}")
    print("counters: " + json.dumps(result["counters"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
