"""Propositional replay of the upper-bound arguments.

Over the space [0, w^2*n + w*K + 1), a normal omega-homogeneous coloring with
no blue triangle and no red closed omega+n satisfies a catalogue of boolean
constraints on its class-pair color table.  This module instantiates that
catalogue over one variable per cross-component class pair (plus one per
within-component pair against a singleton top), decides satisfiability with
the deterministic solver, and reports.  Joint unsatisfiability mechanically
replays the contradiction behind the two upper bounds; a satisfiable outcome
is surfaced as a structured color table for analysis, never patched over.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations
from json.encoder import encode_basestring_ascii
from math import comb
from typing import NamedTuple, Optional

from .coloring import QuotientColoring
from .ordinals import NodeClassId, Ordinal, OrdinalError, valid_classes
from .ramsey import TableEntry, ramsey_value
from .solver import check_trace, solve

__all__ = [
    "VariableSpace",
    "ClauseTag",
    "ClauseSystem",
    "instantiate_clauses",
    "catalogue_size",
    "schema_sizes",
    "space_size",
    "MAX_CLAUSES",
    "MAX_VARIABLES",
    "replay_theorem",
    "resolve_k",
    "ReplayReport",
    "assignment_from_coloring",
    "first_violated_clause",
    "model_tables",
    "replay_gamma",
    "SCHEMAS",
    "REDUNDANT_SCHEMAS",
]

SCHEMAS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10",
           "C11", "C12", "C13", "C14")
REDUNDANT_SCHEMAS = ("C4", "C10")
MAX_CLAUSES = 1_000_000  # larger catalogues are refused before any is built
MAX_VARIABLES = 100_000  # larger variable spaces are refused unbuilt


def replay_gamma(n: int, k: int) -> Ordinal:
    return (Ordinal.omega_power(2, n) + Ordinal.omega_power(1, k)
            + Ordinal.from_int(1))


def _check_parameters(n: int, k: int) -> None:
    if n < 3:
        raise OrdinalError(f"replay needs n >= 3, got {n}")
    if k < 2:
        raise OrdinalError(f"replay needs K >= 2, got {k}")


def space_size(n: int, k: int) -> int:
    """The number of variables `VariableSpace(n, k)` assigns: two hats per
    squared component, and one tilde per pair of the 3n+2K classes that lie
    in distinct components (a squared component has 3 inner pairs, a limit
    component 1)."""
    _check_parameters(n, k)
    return 2 * n + comb(3 * n + 2 * k, 2) - 3 * n - k


def _check_space(n: int, k: int) -> None:
    """Refuse a variable space of more than MAX_VARIABLES, unbuilt."""
    size = space_size(n, k)
    if size > MAX_VARIABLES:
        raise OrdinalError(
            f"the variable space at n={n} K={k} has {size} variables, "
            f"more than the limit of {MAX_VARIABLES}")


class VariableSpace:
    """Boolean variables for the color table of [0, w^2*n + w*K + 1).

    One variable per unordered pair of classes in distinct components
    ("t(i,j;k,l)"), and one per pair (component top, lower level of the same
    component) for components 1..n ("h(i,l)").  Indices are assigned in
    component-major order, a squared component's two hats before its pairs,
    so the solver's first decisions, taken in index order, scan components
    in sequence.
    """

    def __init__(self, n: int, k: int):
        _check_space(n, k)
        self.n = n
        self.k = k
        self.gamma = replay_gamma(n, k)
        self.classes = tuple(valid_classes(self.gamma))
        # Classes are numbered by position: component i's lower level first,
        # its top last.  var[pa][pb] is the pair's variable, None within a
        # component; hat[i] is component i's two top-pair variables.
        self.pos = {c: p for p, c in enumerate(self.classes)}
        self.var: list[list[Optional[int]]] = [[None] * len(self.classes)
                                               for _ in self.classes]
        self.hat: list[Optional[tuple[int, int]]] = [None] * (n + 1)
        self.names: list[str] = [""]  # 1-based
        # classes run in (index, level) order, so the pairs do too
        for (pa, a), (pb, b) in combinations(enumerate(self.classes), 2):
            if a.index == b.index:
                continue
            if a.index <= n and self.hat[a.index] is None:
                self.hat[a.index] = (len(self.names), len(self.names) + 1)
                self.names += [f"h({a.index},0)", f"h({a.index},1)"]
            self.var[pa][pb] = self.var[pb][pa] = len(self.names)
            self.names.append(f"t({a.index},{a.level};{b.index},{b.level})")

    @property
    def num_vars(self) -> int:
        return len(self.names) - 1

    def tilde_var(self, a: NodeClassId, b: NodeClassId) -> int:
        pa, pb = self.pos.get(a), self.pos.get(b)
        got = None if pa is None or pb is None else self.var[pa][pb]
        if got is None:
            raise OrdinalError(f"no color variable for classes {a}, {b}")
        return got

    def hat_var(self, i: int, level: int) -> int:
        if not (1 <= i <= self.n and level in (0, 1)):
            raise OrdinalError(f"no top-pair variable for ({i},{level})")
        return self.hat[i][level]

    def limit_class(self, i: int) -> NodeClassId:
        """The singleton top class of component i (written L_i)."""
        if not 1 <= i <= self.n + self.k:
            raise OrdinalError(f"component {i} out of range")
        return NodeClassId(i, 2 if i <= self.n else 1)

    def hat_items(self):
        """((i, level), variable) for every hat, in numbering order."""
        return [((i, lvl), v) for i in range(1, self.n + 1)
                for lvl, v in enumerate(self.hat[i])]

    def tilde_items(self):
        """((a, b), variable) for every pair, in numbering order."""
        return [((a, b), self.var[pa][pb]) for (pa, a), (pb, b)
                in combinations(enumerate(self.classes), 2)
                if a.index != b.index]


class ClauseTag(NamedTuple):
    schema: str
    redundant: bool
    params: tuple


@dataclass(frozen=True)
class ClauseSystem:
    space: VariableSpace
    clauses: tuple[tuple[int, ...], ...]
    tags: tuple[ClauseTag, ...]

    def __len__(self) -> int:
        return len(self.clauses)

    def schema_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for t in self.tags:
            out[t.schema] = out.get(t.schema, 0) + 1
        return out

    def select(self, include_redundant: bool = True) -> "ClauseSystem":
        if include_redundant:
            return self
        keep = [(c, t) for c, t in zip(self.clauses, self.tags)
                if not t.redundant]
        return ClauseSystem(self.space,
                            tuple(c for c, _ in keep),
                            tuple(t for _, t in keep))

    def to_dimacs(self) -> str:
        lines = [f"c class-pair color constraints, n={self.space.n} "
                 f"K={self.space.k}",
                 f"p cnf {self.space.num_vars} {len(self.clauses)}"]
        for c in self.clauses:
            lines.append(" ".join(map(str, c)) + " 0")
        return "\n".join(lines) + "\n"

    def sidecar_json(self) -> str:
        """The variable names and clause tags, written directly in the bytes
        json.dumps(doc, indent=2) gives for {"n", "k", "variables": {index:
        name}, "clauses": [{"schema", "redundant", "params"}]}.  A param is
        an int, a str or a NodeClassId of two ints, else TypeError."""
        enc = encode_basestring_ascii
        flat = list(chain.from_iterable(t.params for t in self.tags))
        # types first: 1, 1.0 and True are one key of the memo below
        if not (set(map(type, flat)) <= {int, str, NodeClassId}
                and set(map(type, chain.from_iterable(
                    filter(NodeClassId.__instancecheck__, flat)))) <= {int}):
            raise TypeError("a clause param is not an int, a str or a "
                            "NodeClassId of two ints")
        text = {p: str(p) if type(p) is int else enc(p) if type(p) is str
                else f"[\n          {p.index},\n          {p.level}\n        ]"
                for p in set(flat)}
        sep = ",\n        "
        clauses = ",\n".join(
            f'    {{\n      "schema": {enc(t.schema)},\n      "redundant": '
            f'{"true" if t.redundant else "false"},\n      "params": '
            + (f"[\n        {sep.join(map(text.__getitem__, t.params))}"
               "\n      ]" if t.params else "[]") + "\n    }"
            for t in self.tags)
        names = self.space.names
        variables = ",\n".join(f'    "{i}": {enc(names[i])}'
                                for i in range(1, len(names)))
        return (f'{{\n  "n": {self.space.n},\n  "k": {self.space.k},\n'
                f'  "variables": {{\n{variables}\n  }},\n  "clauses": '
                + (f"[\n{clauses}\n  ]" if clauses else "[]") + "\n}")


def _check_request(n: int, k: int, drop: tuple[str, ...]) -> None:
    _check_parameters(n, k)
    for s in drop:
        if s not in SCHEMAS:
            raise OrdinalError(f"unknown schema {s!r}")
        if drop.count(s) > 1:
            raise OrdinalError(f"schema {s!r} dropped twice")


def schema_sizes(n: int, k: int,
                 drop: tuple[str, ...] = ()) -> dict[str, int]:
    """The number of clauses each schema of `instantiate_clauses(n, k,
    drop)` builds, as its `schema_counts()` gives them: a dropped schema
    and a schema of no clauses are left out.

    Each term counts one schema's loops below.  The space has n squared
    components of three classes and k limit components of two, and
    sources(k0) yields 2(n-k0)+k classes.  The counts are exact, and meant
    for spaces within MAX_VARIABLES: C8's comb(n+k, n) takes minutes at a
    square K with n in the millions.
    """
    _check_request(n, k, drop)
    classes = 3 * n + 2 * k
    # class triples from three distinct components, by how many are squared
    triples = (27 * comb(n, 3) + 18 * comb(n, 2) * k + 12 * n * comb(k, 2)
               + 8 * comb(k, 3))
    sizes = {
        "C1": n * (classes - 3),
        "C2": 3 * n * (n - 1),
        "C3": n,
        "C4": 3 * n * comb(k, 2),
        "C5": 2 * n * (n - 1 + k),
        "C6": (n - 1) * (n + k),
        "C7": n - 1,
        # 2 * sum over k0 = 1..n of C(n+k-k0, n-1), by the hockey stick
        "C8": 2 * (comb(n + k, n) - comb(k, n)),
        "C9": 2 * (n - 1) * (n + k),
        "C10": 2 * (n - 1) * (k + 3 * n),
        "C11": 3 * (n - 1) * (k - 1),
        "C12": triples + 2 * n * (classes - 3),
        "C13": comb(n + k, 3),
        "C14": 2 * n * (n - 1) * (k - 1),
    }
    return {s: size for s, size in sizes.items() if size and s not in drop}


def catalogue_size(n: int, k: int, drop: tuple[str, ...] = ()) -> int:
    """The number of clauses `instantiate_clauses(n, k, drop)` builds: the
    sum of `schema_sizes(n, k, drop)`."""
    return sum(schema_sizes(n, k, drop).values())


def _check_catalogue(n: int, k: int, drop: tuple[str, ...]) -> None:
    """Refuse a catalogue request before anything is built, cheapest
    first: the parameters and schema names, then the variable space
    against MAX_VARIABLES, and only for a space that fits, the exact
    clause count against MAX_CLAUSES."""
    _check_request(n, k, drop)
    _check_space(n, k)
    size = catalogue_size(n, k, drop)
    if size > MAX_CLAUSES:
        raise OrdinalError(
            f"the catalogue at n={n} K={k} has {size} clauses, more than "
            f"the limit of {MAX_CLAUSES}")


def instantiate_clauses(n: int, k: int,
                        drop: tuple[str, ...] = ()) -> ClauseSystem:
    """Build the full tagged catalogue C1..C14 (C4/C10 flagged redundant).

    `drop` removes whole schemas, for ablation experiments.  The request is
    checked by `_check_catalogue` before anything is built.  The clauses
    hold one int object per literal value: a negative literal -v is read
    from `neg[v]`, not made anew by negation.
    """
    _check_catalogue(n, k, drop)
    space = VariableSpace(n, k)
    pos, var, hat = space.pos, space.var, space.hat
    neg = [-v for v in range(space.num_vars + 1)]  # neg[v] is -v
    base = [None] + [pos[NodeClassId(i, 0)] for i in range(1, n + k + 1)]
    lim = [None] + [pos[space.limit_class(i)] for i in range(1, n + k + 1)]
    clauses: list[tuple[int, ...]] = []
    tags: list[ClauseTag] = []

    def add(schema: str, items) -> None:
        # a dropped schema's (params, literals) generator is never run
        if schema in drop:
            return
        redundant = schema in REDUNDANT_SCHEMAS
        for params, lits in items:
            # a repeated variable is a repeated literal or a complementary
            # pair; abs or neg refuses a same-component None
            if not lits or len(set(map(abs, lits))) != len(lits):
                raise AssertionError(f"{schema} clause {params}: {lits}")
            clauses.append(lits)
            tags.append(ClauseTag(schema, redundant, params))

    def sources(k0: int) -> list[tuple[int, int, int]]:
        # (index, level, position) of the lower levels above component k0
        return ([(i, j, base[i] + j) for i in range(k0 + 1, n + 1)
                 for j in (0, 1)]
                + [(i, 0, base[i]) for i in range(n + 1, n + k + 1)])

    # C1: nothing is blue to both lower levels of a squared component
    add("C1", (((s.index, s.level, k0),
                (neg[var[p][base[k0]]], neg[var[p][base[k0] + 1]]))
               for k0 in range(1, n + 1)
               for p, s in enumerate(space.classes) if s.index != k0))

    # C2: no target is blue to both lower levels of another squared component
    add("C2", (((i, k0, lvl), (neg[var[base[i]][base[k0] + lvl]],
                               neg[var[base[i] + 1][base[k0] + lvl]]))
               for i in range(1, n + 1) for k0 in range(1, n + 1) if i != k0
               for lvl in (0, 1, 2)))

    # C3: a component top is blue to at most one of its levels
    add("C3", (((i,), (neg[hat[i][0]], neg[hat[i][1]]))
               for i in range(1, n + 1)))

    # C4 (redundant): two sources blue to a common target are not blue
    add("C4", (((i, m, k0, lvl), (neg[var[base[m]][base[k0] + lvl]],
                                  neg[var[base[i]][base[k0] + lvl]],
                                  neg[var[base[m]][base[i]]]))
               for k0 in range(1, n + 1) for lvl in (0, 1, 2)
               for i, m in combinations(range(n + 1, n + k + 1), 2)))

    # C5: a red top-level forces blue toward the level or the top
    add("C5", (((i, j, k0, lvl),
                (hat[k0][lvl], var[p][base[k0] + lvl], var[p][lim[k0]]))
               for k0 in range(1, n + 1) for lvl in (0, 1)
               for i, j, p in sources(k0)))

    # C6: every source is blue to some level of a lower squared component
    add("C6", (((i, j, k0),
                (var[p][base[k0]], var[p][base[k0] + 1], var[p][lim[k0]]))
               for k0 in range(1, n) for i, j, p in sources(k0)))

    # C7: each lower component top is blue to at least one of its levels
    add("C7", (((i,), (hat[i][0], hat[i][1])) for i in range(1, n)))

    # C8: a fully red spread over n-1 higher tops forces a blue top pair
    def c8():
        for k0 in range(1, n + 1):
            for lvl in (0, 1):
                low, top = base[k0] + lvl, lim[k0]
                for subset in combinations(range(k0 + 1, n + k + 1), n - 1):
                    tops = [lim[i] for i in subset]
                    lits = [var[b][a] for a, b in combinations(tops, 2)]
                    lits += [var[t][low] for t in tops]
                    lits += [var[t][top] for t in tops]
                    lits.append(hat[k0][lvl])
                    yield (k0, lvl) + subset, tuple(lits)
    add("C8", c8())

    # C9: nothing above is blue to the level the top is blue to
    add("C9", (((i, j, k0, lvl),
                (neg[hat[k0][lvl]], neg[var[p][base[k0] + lvl]]))
               for k0 in range(1, n) for lvl in (0, 1)
               for i, j, p in sources(k0)))

    # C10 (redundant): the two guarded corollaries of C5/C6/C9
    def c10():
        for k0 in range(1, n):
            for lvl in (0, 1):
                g = hat[k0][lvl]  # active when (k0,lvl) is red-named
                low, top = base[k0] + lvl, lim[k0]
                for i in range(n + 1, n + k + 1):
                    yield (("pair", i, k0, lvl),
                           (g, var[base[i]][low], var[base[i]][top]))
                for i in range(k0 + 1, n + 1):
                    r0, r1 = var[base[i]], var[base[i] + 1]
                    a, b = r1[top], r0[low]
                    yield ("iff-fwd", i, k0, lvl), (g, neg[a], b)
                    yield ("iff-bwd", i, k0, lvl), (g, neg[b], a)
                    for name, x in (("c", r1[low]), ("d", r0[top])):
                        yield ("excl-" + name, i, k0, lvl), (g, neg[a], neg[x])
                        yield ("cover-" + name, i, k0, lvl), (g, a, x)
    add("C10", c10())

    # C11: all pendant bases blue to a low target bar its pendant tops
    def c11():
        for i in range(1, n):
            for j in (0, 1, 2):
                tgt = base[i] + j
                bases = tuple(neg[var[base[m]][tgt]]
                              for m in range(n + 1, n + k + 1))
                for m2 in range(n + 1, n + k):
                    yield (i, j, m2), bases + (neg[var[lim[m2]][tgt]],)
    add("C11", c11())

    # C12: no three classes in distinct components are pairwise blue,
    # and no top/level pair of one component is jointly blue to a third
    add("C12", (((a, b, c),
                 (neg[var[pa][pb]], neg[var[pa][pc]], neg[var[pb][pc]]))
                for (pa, a), (pb, b), (pc, c)
                in combinations(enumerate(space.classes), 3)
                if a.index != b.index != c.index != a.index))
    add("C12", ((("mixed", i, j, x),
                 (neg[var[lim[i]][p]], neg[var[base[i] + j][p]],
                  neg[hat[i][j]]))
                for i in range(1, n + 1) for j in (0, 1)
                for p, x in enumerate(space.classes) if x.index != i))

    # C13: no blue triangle among the component tops
    add("C13", (((a, b, c), (neg[var[lim[b]][lim[a]]],
                             neg[var[lim[c]][lim[a]]],
                             neg[var[lim[c]][lim[b]]]))
                for a, b, c in combinations(range(1, n + k + 1), 3)))

    # C14: a top blue toward one name of a lower component excludes
    # pendant tops from the swapped name
    def c14():
        for k0 in range(1, n):
            for i in range(k0 + 1, n + 1):
                for lvl in (0, 1):
                    g = neg[hat[k0][1 - lvl]]  # active when (k0,lvl) is red
                    low, top, ri = base[k0] + lvl, lim[k0], var[lim[i]]
                    for m in range(n + 1, n + k):
                        rm = var[lim[m]]
                        yield (("a", k0, i, lvl, m),
                               (g, neg[ri[low]], neg[rm[top]]))
                        yield (("b", k0, i, lvl, m),
                               (g, neg[ri[top]], neg[rm[low]]))
    add("C14", c14())

    return ClauseSystem(space, tuple(clauses), tuple(tags))


def model_tables(space: VariableSpace, model: dict[int, bool]) -> dict:
    """Render a satisfying assignment as structured color tables."""
    return {
        "hat": [{"component": i, "level": lvl, "color": int(model[v])}
                for (i, lvl), v in space.hat_items()],
        "tilde": [{"a": list(a), "b": list(b), "color": int(model[v])}
                  for (a, b), v in space.tilde_items()],
    }


def assignment_from_coloring(space: VariableSpace,
                             coloring: QuotientColoring) -> dict[int, bool]:
    """Read the variables of `space` off a concrete coloring's class tables.

    The coloring's class system must contain every class of `space`; this
    lets constraints instantiated over a shorter space be evaluated against
    a coloring living on a longer one.
    """
    out: dict[int, bool] = {}
    for (i, lvl), v in space.hat_items():
        out[v] = bool(coloring.class_pair_color(NodeClassId(i, 2),
                                                NodeClassId(i, lvl)))
    for (a, b), v in space.tilde_items():
        out[v] = bool(coloring.class_pair_color(a, b))
    return out


def first_violated_clause(system: ClauseSystem,
                          assignment: dict[int, bool]) -> Optional[int]:
    """Index of the first clause the assignment falsifies, if any."""
    for idx, c in enumerate(system.clauses):
        if not any(assignment[abs(l)] == (l > 0) for l in c):
            return idx
    return None


@dataclass(frozen=True)
class ReplayReport:
    n: int
    mode: str
    k: int
    gamma: Ordinal
    ramsey_used: Optional[TableEntry]
    dropped: tuple[str, ...]
    num_vars: int
    num_clauses: int
    schema_counts: dict[str, int]
    status: str
    nodes: int
    trace_steps: int
    trace_verified: Optional[bool]
    redundant_status: Optional[str]
    model: Optional[dict]

    def to_json(self) -> str:
        doc = {
            "n": self.n, "mode": self.mode, "k": self.k,
            "gamma": str(self.gamma),
            "ramsey_used": (None if self.ramsey_used is None else
                            {"value": self.ramsey_used.value,
                             "source": self.ramsey_used.source}),
            "dropped": list(self.dropped),
            "num_vars": self.num_vars,
            "num_clauses": self.num_clauses,
            "schema_counts": dict(sorted(self.schema_counts.items())),
            "status": self.status,
            "nodes": self.nodes,
            "trace_steps": self.trace_steps,
            "trace_verified": self.trace_verified,
            "redundant_status": self.redundant_status,
            "model": self.model,
        }
        return json.dumps(doc, indent=2)


def resolve_k(n: int, mode: str,
              table: Optional[dict[int, TableEntry]] = None,
              ) -> tuple[int, Optional[TableEntry]]:
    """The limit-row budget K for a mode, with the Ramsey value it used.

    mode "ramsey-K" gives K = R(2n-3,3)+1, the value read from the table; a
    witness graph cannot supply it, since it only bounds R(2n-3,3) below.
    mode "square-K" gives K = n^2-4 and uses no Ramsey value.
    """
    if mode == "ramsey-K":
        used = ramsey_value(2 * n - 3, table)
        return used.value + 1, used
    if mode == "square-K":
        return n * n - 4, None
    raise ValueError(f"unknown mode {mode!r}")


def replay_theorem(n: int, mode: str, budget: int = 10_000_000,
                   drop: tuple[str, ...] = (),
                   table: Optional[dict[int, TableEntry]] = None,
                   ) -> ReplayReport:
    """Instantiate the catalogue at the bound-specific K and decide it.

    mode "ramsey-K" uses K = R(2n-3,3)+1; mode "square-K" uses K = n^2-4.
    Unsatisfiability of the non-redundant catalogue replays the upper-bound
    contradiction, and its refutation trace is re-verified independently.
    The full catalogue is not decided again: it contains every core clause,
    so a verified refutation of the core refutes it too, and
    `redundant_status` reads "unsat" exactly when the trace verified.
    A negative budget is refused first.  The full catalogue is refused as
    `instantiate_clauses` would refuse it, but only its core (C4 and C10
    dropped) is built; its schema counts come from `schema_sizes`.
    """
    if budget < 0:
        raise OrdinalError(f"budget must be >= 0, got {budget}")
    k, used = resolve_k(n, mode, table=table)
    drop = tuple(drop)
    _check_catalogue(n, k, drop)
    schema_counts = schema_sizes(n, k, drop)
    core = instantiate_clauses(n, k, drop + tuple(
        s for s in REDUNDANT_SCHEMAS if s not in drop))
    space, clauses = core.space, core.clauses
    del core  # its tags are not read
    res = solve(clauses, space.num_vars, budget=budget)
    trace_verified = None
    redundant_status = None
    model = None
    trace_steps = 0
    if res.status == "unsat":
        trace_steps = len(res.trace.steps)
        trace_verified = check_trace(clauses, res.trace)
        redundant_status = "unsat" if trace_verified else None
    else:
        model = model_tables(space, res.model)
    return ReplayReport(
        n=n, mode=mode, k=k, gamma=space.gamma, ramsey_used=used,
        dropped=drop, num_vars=space.num_vars,
        num_clauses=len(clauses), schema_counts=schema_counts,
        status=res.status, nodes=res.nodes, trace_steps=trace_steps,
        trace_verified=trace_verified, redundant_status=redundant_status,
        model=model)
