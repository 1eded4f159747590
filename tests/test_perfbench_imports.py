"""The benchmark's operation and check modules still import against orw.

perfbench/ imports its sibling modules by bare name (`ops`, `checks`,
`colorings`), so the directory goes on sys.path for this test only, and
the modules it loads are dropped afterwards.  A renamed or removed orw
name then fails here instead of in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SIBLINGS = ("ops", "checks", "colorings")


def test_ops_and_checks_import(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in SIBLINGS:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        ops = importlib.import_module("ops")
        checks = importlib.import_module("checks")
        assert {"replay-n4", "certify-mix"} <= set(ops.WORKLOADS)
        assert hasattr(checks, "Checker")
    finally:
        for name in SIBLINGS:
            sys.modules.pop(name, None)
