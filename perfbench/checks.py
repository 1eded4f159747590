"""Verdict checks behind `failed`: each runs after the timed region.

`Checker.check` takes an operation, its exit code and its stdout, and
returns the problems found plus the operation's deterministic counters.
Every check rests on something other than the code path being timed: the
exit code and the report's own verification flags, an independent
re-check of a model or certificate, a brute-force oracle in this
directory, or a digest recorded in expected.json.
"""

from __future__ import annotations

import hashlib
import json
import os
from itertools import combinations

from orw.coloring import (
    certificate_from_json,
    check_certificate,
    coloring_from_json,
)
from orw.ordinals import NodeClassId
from orw.replay import first_violated_clause, instantiate_clauses, resolve_k

from colorings import unfmt
from ops import MODES, Op


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _independent_set(order: int, edges: set, size: int) -> bool:
    return any(all((a, b) not in edges for a, b in combinations(group, 2))
               for group in combinations(range(order), size))


class Checker:
    def __init__(self, expected: dict, tracer):
        self.expected = expected
        self.tr = tracer
        self._dropped_systems: dict = {}

    def check(self, op: Op, code: int, out: str) -> tuple[list[str], dict]:
        """Problems with one result, and its counters."""
        problems: list[str] = []
        try:
            with self.tr.span("check." + op.key):
                counters = getattr(self, "_" + op.kind)(op, code, out,
                                                        problems)
        except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            problems.append(f"unreadable result: {exc!r}")
            counters = {}
        if op.kind != "export":
            counters["stdout_sha256"] = sha256(out.encode())
        return problems, counters

    # -- one method per operation kind ----------------------------------------

    def _replay(self, op, code, out, problems) -> dict:
        doc = json.loads(out)
        want = self.expected["replay"][op.key]
        for field in ("n", "k", "num_vars", "num_clauses", "status"):
            if doc[field] != want[field]:
                problems.append(f"{field} = {doc[field]!r}, "
                                f"expected {want[field]!r}")
        if doc["status"] == "unsat":
            flags = {k: v for k, v in doc.items() if k.endswith("_verified")}
            if not flags or not all(v is True for v in flags.values()):
                problems.append(f"verification flags {flags}")
            if doc.get("redundant_status") not in (None, "unsat"):
                problems.append(f"redundant_status {doc['redundant_status']}")
            if code != 0:
                problems.append(f"exit {code} on unsat")
        else:
            if code != 1:
                problems.append(f"exit {code} on sat")
            bad = self._model_violation(op, doc)
            if bad is not None:
                problems.append(bad)
        return {"status": doc["status"], "nodes": doc["nodes"],
                "trace_steps": doc["trace_steps"],
                "num_vars": doc["num_vars"],
                "num_clauses": doc["num_clauses"]}

    def _model_violation(self, op: Op, doc: dict):
        """Rebuild the assignment from the model tables and evaluate it on
        the system that was solved (the dropped core)."""
        key = (op.n, op.k_choice, op.drop)
        if key not in self._dropped_systems:
            k, _ = resolve_k(op.n, MODES[op.k_choice])
            full = instantiate_clauses(op.n, k, drop=op.drop)
            self._dropped_systems[key] = full.select(include_redundant=False)
        system = self._dropped_systems[key]
        space = system.space
        model = doc["model"] or {}
        assignment = {}
        for e in model.get("hat", []):
            assignment[space.hat_var(e["component"], e["level"])] = \
                bool(e["color"])
        for e in model.get("tilde", []):
            var = space.tilde_var(NodeClassId(*e["a"]), NodeClassId(*e["b"]))
            assignment[var] = bool(e["color"])
        if sorted(assignment) != list(range(1, space.num_vars + 1)):
            return (f"model assigns {len(assignment)} of "
                    f"{space.num_vars} variables")
        bad = first_violated_clause(system, assignment)
        return None if bad is None else f"model falsifies clause {bad}"

    def _export(self, op, code, out, problems) -> dict:
        want = self.expected["export"][op.key]
        if code != 0:
            problems.append(f"exit {code}")
        counters = {}
        for ext in ("cnf", "json"):
            path = f"{op.path}.{ext}"
            with open(path, "rb") as fh:
                data = fh.read()
            os.remove(path)
            counters[f"{ext}_bytes"] = len(data)
            counters[f"{ext}_sha256"] = sha256(data)
            if counters[f"{ext}_sha256"] != want[f"{ext}_sha256"]:
                problems.append(f".{ext} digest differs from the record")
            if ext == "cnf":
                lines = data.decode().splitlines()
                header = lines[1].split()
                clauses = [ln for ln in lines[2:] if ln.endswith(" 0")]
                if header[:2] != ["p", "cnf"] or \
                        [int(header[2]), int(header[3])] != \
                        [want["vars"], want["clauses"]] or \
                        len(clauses) != want["clauses"] or \
                        len(lines) != want["clauses"] + 2:
                    problems.append(f"CNF header {header} or clause lines "
                                    f"({len(clauses)}) off the record")
        return counters

    def _lower(self, op, code, out, problems) -> dict:
        doc = json.loads(out)
        names = [s["name"] for s in doc["stages"]]
        if code != 0 or doc["passed"] is not True or doc["n"] != op.n:
            problems.append(f"exit {code}, passed {doc['passed']}")
        if names != self.expected["lower_stages"] or \
                not all(s["ok"] for s in doc["stages"]):
            problems.append("stages " + ", ".join(
                f"{s['name']}={s['ok']}" for s in doc["stages"]))
        return {"bytes": len(out)}

    def _brute(self, op, code, out, problems) -> dict:
        doc = json.loads(out)
        value = doc["order"] + 1
        if code != 0 or value != self.expected["ramsey"][str(op.n)]:
            problems.append(f"exit {code}, R({op.n},3) = {value}")
        edges = {tuple(e) for e in doc["edges"]}
        order = doc["order"]
        triangle = any((a, b) in edges and (a, c) in edges and (b, c) in edges
                       for a, b, c in combinations(range(order), 3))
        if triangle or _independent_set(order, edges, op.n):
            problems.append("witness has a triangle or an independent "
                            f"{op.n}-set")
        return {"value": value, "edges": len(edges)}

    def _bounds(self, op, code, out, problems) -> dict:
        if code != 0 or sha256(out.encode()) != self.expected["bounds_sha256"]:
            problems.append(f"exit {code} or digest differs from the record")
        return {"bytes": len(out)}

    def _decide(self, op, code, out, problems) -> dict:
        doc = json.loads(out)
        case = op.case
        blue, red = doc["blue_triple"], doc["red_omega_plus_n"]
        if code != (1 if blue or red else 0):
            problems.append(f"exit {code} with blue={bool(blue)} "
                            f"red={bool(red)}")
        oracle = case.blue_triangle()
        if oracle != (blue is not None):
            problems.append(f"decider blue={blue is not None}, "
                            f"brute-force search {oracle}")
        if blue is not None:
            pts = [unfmt(x) for x in blue["triangle"]]
            if len(set(pts)) != 3 or any(case.color(p, q) != 1
                                         for p, q in combinations(pts, 2)):
                problems.append(f"blue triangle {blue['triangle']} not blue")
        certs = [c for c in (blue, red) if c is not None]
        if certs:
            coloring = coloring_from_json(case.to_json())
            for cert in certs:
                ok = self.tr.call("coloring.check_certificate",
                                  check_certificate, coloring,
                                  certificate_from_json(json.dumps(cert)))
                if ok:
                    self.tr.count("coloring.certificates_verified")
                else:
                    problems.append(f"{cert['kind']} certificate rejected")
        return {"blue": blue is not None, "red": red is not None,
                "bytes": len(out)}
