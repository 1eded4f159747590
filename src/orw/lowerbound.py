"""The triangle-free lower-bound construction and its full verification.

For n >= 3 and K = R(n,3) - n, the space [0, gamma) with
gamma = w^2*n + w*K + (n-1) is partitioned into named vertices, each a union
of node classes; a graph on those vertices (four edge strata, one driven by a
relabeled Ramsey witness) induces a pair coloring with blue = adjacent.  The
verification pipeline checks triangle-freeness and runs both exact decision
procedures, certifying that the coloring has no blue triangle and no red
closed copy of omega+n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Mapping, Optional

from .coloring import (
    BLUE,
    QuotientColoring,
    certificate_to_json,
    decide_blue_closed_3,
    decide_red_closed_omega_plus_n,
)
from .ordinals import (
    NodeClassId,
    Ordinal,
    OrdinalError,
    valid_classes,
)
from .ramsey import (RamseyRecord, RamseyError, WitnessGraph, builtin_record,
                     find_triangle, relabel_red_prefix)

__all__ = [
    "VertexClassSpec",
    "GnGraph",
    "StageResult",
    "LowerBoundReport",
    "build_partition",
    "build_gn",
    "check_triangle_free",
    "induced_lower_coloring",
    "verify_lower_bound",
    "lower_bound_gamma",
    "export_dot",
]


def lower_bound_gamma(n: int, ramsey_n3: int) -> Ordinal:
    """gamma = w^2*n + w*(R(n,3)-n) + (n-1), the space the coloring lives on."""
    k = ramsey_n3 - n
    return (Ordinal.omega_power(2, n) + Ordinal.omega_power(1, k)
            + Ordinal.from_int(n - 1))


@dataclass(frozen=True)
class VertexClassSpec:
    """The named-vertex partition of [0, gamma) into unions of node classes."""

    n: int
    ramsey: RamseyRecord
    gamma: Ordinal
    vertices: Mapping[str, tuple[NodeClassId, ...]]

    @property
    def k(self) -> int:
        return self.ramsey.value - self.n


def _check_record_n(n: int, rec: RamseyRecord) -> None:
    if rec.n != n:
        raise OrdinalError(f"record is for n={rec.n}, wanted {n}")


def build_partition(n: int, rec: RamseyRecord) -> VertexClassSpec:
    """Assign every valid class of gamma to a named vertex.

    Components 1..n carry A_i (level 0), B_i (level 1), L_i (level 2);
    components n+1..n+K carry C_i (level 0) and L_i (level 1); the n-2
    remaining singleton components together form the single vertex R.
    """
    if n < 3:
        raise OrdinalError(f"construction needs n >= 3, got {n}")
    _check_record_n(n, rec)
    if not rec.verified():
        raise RamseyError("record's witness does not verify; refusing to build")
    k = rec.value - n
    gamma = lower_bound_gamma(n, rec.value)
    vertices: dict[str, tuple[NodeClassId, ...]] = {}
    for i in range(1, n + 1):
        vertices[f"A{i}"] = (NodeClassId(i, 0),)
        vertices[f"B{i}"] = (NodeClassId(i, 1),)
        vertices[f"L{i}"] = (NodeClassId(i, 2),)
    for i in range(n + 1, n + k + 1):
        vertices[f"C{i}"] = (NodeClassId(i, 0),)
        vertices[f"L{i}"] = (NodeClassId(i, 1),)
    vertices["R"] = tuple(NodeClassId(i, 0)
                          for i in range(n + k + 1, n + k + n - 1))
    spec = VertexClassSpec(n, rec, gamma, vertices)
    assigned = [cid for classes in vertices.values() for cid in classes]
    if sorted(assigned) != sorted(valid_classes(gamma)):
        raise OrdinalError("vertex classes do not partition the space")
    return spec


@dataclass(frozen=True)
class GnGraph:
    """The vertex graph, with edges stratified into the four defining groups."""

    spec: VertexClassSpec
    strata: Mapping[str, frozenset[tuple[str, str]]]

    @cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        out = set()
        for group in self.strata.values():
            out |= group
        return frozenset(out)


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def build_gn(spec: VertexClassSpec) -> GnGraph:
    """Build the four edge strata over the named vertices.

    The witness graph colors the L-block: L_i and L_j are adjacent iff the
    witness has the edge {i-1, j-1}; the witness must arrive with its first
    n-1 vertices pairwise non-adjacent so that L_1..L_{n-1} stay a red block.
    """
    n, k = spec.n, spec.k
    g = spec.ramsey.witness
    if not g.is_independent(range(n - 1)):
        raise RamseyError("witness prefix is not independent; relabel first")
    e1 = set()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            e1.add(_pair(f"L{i}", f"A{j}"))
            e1.add(_pair(f"A{i}", f"B{j}"))
        e1.add(_pair(f"A{i}", f"B{i}"))
        e1.add(_pair(f"B{i}", f"L{i}"))
    e2 = {_pair(f"C{i}", f"L{i}") for i in range(n + 1, n + k)}
    e3 = {_pair(f"L{i}", f"L{j}")
          for i in range(1, n + k) for j in range(i + 1, n + k)
          if g.has_edge(i - 1, j - 1)}
    w = tuple([f"C{i}" for i in range(n + 1, n + k + 1)] + [f"L{n + k}", "R"])
    e4 = {_pair(x, f"A{i}") for x in w for i in range(1, n + 1)}
    strata = {"E1": frozenset(e1), "E2": frozenset(e2),
              "E3": frozenset(e3), "E4": frozenset(e4)}
    groups = list(strata.values())
    for s, t in combinations(groups, 2):
        if s & t:
            raise OrdinalError(f"edge strata overlap: {sorted(s & t)}")
    return GnGraph(spec, strata)


def check_triangle_free(g: GnGraph):
    """(True, None), or (False, the first triangle in name order)."""
    names = sorted(g.spec.vertices)
    index = {name: i for i, name in enumerate(names)}
    tri = find_triangle(WitnessGraph.from_pairs(
        len(names), ((index[a], index[b]) for a, b in g.edges)))
    if tri is None:
        return True, None
    return False, tuple(names[i] for i in tri)


def induced_lower_coloring(g: GnGraph) -> QuotientColoring:
    """The pair coloring: blue iff the containing vertices are adjacent.

    Classes merged into one vertex (the R singletons) pair red with each
    other; within colors are all red; there are no overrides.
    """
    vertices = g.spec.vertices
    blue = {(a, b): BLUE for u, v in g.edges
            for a in vertices[u] for b in vertices[v]}
    return QuotientColoring.build(g.spec.gamma, cross=blue)


@dataclass(frozen=True)
class StageResult:
    name: str
    ok: bool
    detail: Optional[str] = None


@dataclass(frozen=True)
class LowerBoundReport:
    n: int
    gamma: Ordinal
    stages: tuple[StageResult, ...]
    passed: bool
    # the vertex graph the stages checked; None if the witness failed
    graph: Optional[GnGraph] = field(default=None, compare=False, repr=False)

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "gamma": str(self.gamma),
            "passed": self.passed,
            "stages": [{"name": s.name, "ok": s.ok, "detail": s.detail}
                       for s in self.stages],
        }, indent=2)


def verify_lower_bound(n: int,
                       rec: Optional[RamseyRecord] = None) -> LowerBoundReport:
    """Full pipeline: build, check triangle-freeness, run both deciders.

    Passing certifies that the induced coloring of w^2*n + w*(R(n,3)-n) +
    (n-1) has no blue triangle and no red closed copy of omega+n.  It also
    demands that weakening the target to omega+(n-1) does produce a
    certificate, guarding against a vacuous pass.
    """
    if n < 3:
        raise OrdinalError(f"construction needs n >= 3, got {n}")
    if rec is None:
        rec = builtin_record(n)
    _check_record_n(n, rec)  # before relabeling looks for an (n-1)-set
    stages: list[StageResult] = []

    def stage(name: str, ok: bool, detail: Optional[str] = None) -> bool:
        stages.append(StageResult(name, ok, detail))
        return ok

    gamma = lower_bound_gamma(n, rec.value)
    graph = None
    ok = stage("witness", rec.verified(),
               f"order {rec.witness.order}, source {rec.source}")
    if ok:
        spec = build_partition(n, relabel_red_prefix(rec))
        graph = build_gn(spec)
        tri_ok, tri = check_triangle_free(graph)
        ok = stage("triangle-free", tri_ok, None if tri_ok else str(tri))
    if ok:
        coloring = induced_lower_coloring(graph)
        blue = decide_blue_closed_3(coloring)
        ok = stage("no-blue-3", blue is None,
                   None if blue is None else certificate_to_json(blue))
    if ok:
        red = decide_red_closed_omega_plus_n(coloring, n)
        ok = stage("no-red-omega-plus-n", red is None,
                   None if red is None else certificate_to_json(red))
    if ok:
        ctrl = decide_red_closed_omega_plus_n(coloring, n - 1)
        ok = stage("red-control-at-n-minus-1", ctrl is not None,
                   None if ctrl is None else certificate_to_json(ctrl))
    return LowerBoundReport(n, gamma, tuple(stages), ok, graph)


def export_dot(g: GnGraph) -> str:
    """DOT rendering with the stratum recorded on every edge."""
    colors = {"E1": "black", "E2": "blue", "E3": "red", "E4": "gray"}
    lines = ["graph lower_bound_witness {"]
    for name in sorted(g.spec.vertices):
        lines.append(f'  "{name}";')
    for stratum in ("E1", "E2", "E3", "E4"):
        for a, b in sorted(g.strata[stratum]):
            lines.append(f'  "{a}" -- "{b}" '
                         f'[stratum="{stratum}", color={colors[stratum]}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
