"""Deterministic CNF decision core with verifiable resolution traces.

Variables are positive integers; a literal is a signed integer; a clause is a
tuple of literals.  The solver does unit propagation with two-literal
watching, branches on the first unassigned variable of a fixed order with
false tried first, and learns a clause at every conflict, so identical
inputs explore identical search trees.  Unsatisfiable runs end with a
resolution trace whose steps name premises, not clauses: an axiom cites an
input clause, a resolution two earlier steps and a pivot variable.  An
independent checker derives every clause from what its step cites, as in
Goldberg & Novikov (DATE 2003), and requires the final one to be empty.
Satisfiable runs return a total model.  Exceeding the decision budget
raises, keeping resource exhaustion distinct from either answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

__all__ = [
    "BudgetExceeded",
    "SolveResult",
    "Trace",
    "TraceStep",
    "check_trace",
    "solve",
]


class BudgetExceeded(RuntimeError):
    """Raised when the search exceeds its node budget before an answer."""

    def __init__(self, nodes: int):
        super().__init__(f"node budget exhausted after {nodes} nodes")
        self.nodes = nodes


class TraceStep(NamedTuple):
    kind: str  # "axiom" | "resolve"
    left: int  # clause index (axiom) or step index (resolve)
    right: int  # -1 (axiom) or step index (resolve)
    pivot: int  # 0 (axiom) or the resolved variable


@dataclass(frozen=True)
class Trace:
    steps: tuple[TraceStep, ...]
    final: int  # index of the empty-clause step


@dataclass(frozen=True)
class SolveResult:
    status: str  # "sat" | "unsat"
    model: Optional[dict[int, bool]]
    trace: Optional[Trace]
    nodes: int


def solve(clauses: Sequence[Sequence[int]], num_vars: int,
          budget: int = 10_000_000,
          order: Optional[Sequence[int]] = None) -> SolveResult:
    cls = [tuple(dict.fromkeys(c)) for c in clauses]
    n_orig = len(cls)
    for c in cls:
        if any(abs(l) < 1 or abs(l) > num_vars for l in c):
            raise ValueError(f"literal out of range in clause {c}")
    order = list(range(1, num_vars + 1)) if order is None else list(order)

    # lists indexed by a signed literal have 2*num_vars+1 slots, so that
    # negative indexing gives -v a slot of its own
    value = [0] * (2 * num_vars + 1)  # +1 true, -1 false, 0 unassigned
    reason: list[Optional[int]] = [None] * (num_vars + 1)
    level = [0] * (num_vars + 1)
    seen = [False] * (num_vars + 1)  # variables of the running resolvent
    trail: list[int] = []
    trail_lim: list[int] = []  # trail length at each decision
    qhead = 0
    nodes = 0

    steps: list[TraceStep] = []
    axiom_of: dict[int, int] = {}
    learned_step: dict[int, int] = {}

    def axiom(ci: int) -> int:
        got = axiom_of.get(ci)
        if got is None:
            got = len(steps)
            steps.append(TraceStep("axiom", ci, -1, 0))
            axiom_of[ci] = got
        return got

    def step_of(ci: int) -> int:
        return axiom(ci) if ci < n_orig else learned_step[ci]

    def set_lit(lit: int, why: Optional[int]) -> None:
        value[lit] = 1
        value[-lit] = -1
        reason[abs(lit)] = why
        level[abs(lit)] = len(trail_lim)
        trail.append(lit)

    # two-literal watching; watches are not repaired on backtrack
    watch_lits: list[list[int]] = []
    watches: list[list[int]] = [[] for _ in range(2 * num_vars + 1)]

    def attach(ci: int) -> None:
        c = cls[ci]
        pair = [c[0], c[1] if len(c) > 1 else c[0]]
        watch_lits.append(pair)
        watches[pair[0]].append(ci)
        if pair[1] != pair[0]:
            watches[pair[1]].append(ci)

    for ci, c in enumerate(cls):
        if not c:
            step = axiom(ci)
            return SolveResult("unsat", None, Trace(tuple(steps), step), 0)
        attach(ci)

    def propagate() -> Optional[int]:
        nonlocal qhead
        val = value
        wlists = watches
        wpairs = watch_lits
        lvl = len(trail_lim)
        while qhead < len(trail):
            flit = -trail[qhead]
            qhead += 1
            wl = wlists[flit]
            i = 0
            while i < len(wl):
                ci = wl[i]
                pair = wpairs[ci]
                other = pair[1] if pair[0] == flit else pair[0]
                if other == flit:
                    return ci  # unit clause just falsified
                ov = val[other]
                if ov == 1:
                    i += 1
                    continue
                for lit2 in cls[ci]:
                    if lit2 != other and lit2 != flit and val[lit2] >= 0:
                        pair[0] = other
                        pair[1] = lit2
                        wlists[lit2].append(ci)
                        wl[i] = wl[-1]
                        wl.pop()
                        break
                else:
                    if ov:
                        return ci
                    val[other] = 1
                    val[-other] = -1
                    var = abs(other)
                    reason[var] = ci
                    level[var] = lvl
                    trail.append(other)
                    i += 1
        return None

    def derive(ci: int) -> tuple[int, list[int], int]:
        # resolve clause ci with reason clauses, walking the trail back, to
        # the first UIP (one current-level literal left) or, at decision
        # level 0, to the empty clause.  The running resolvent is its count
        # of current-level literals plus its lower-level literals, all of
        # them false and marked in `seen`.
        cur = len(trail_lim)
        sid = step_of(ci)
        lower: list[int] = []
        at_cur = uip = 0
        for l in cls[ci]:
            seen[abs(l)] = True
            if level[abs(l)] == cur:
                at_cur += 1
            else:
                lower.append(l)
        idx = len(trail) - 1
        while at_cur:
            lit = trail[idx]
            idx -= 1
            var = abs(lit)
            if not seen[var] or level[var] != cur:
                continue
            if at_cur == 1 and cur:
                uip = -lit
                seen[var] = False
                break
            # the decision is reached only as the last current-level
            # literal, so var has a reason clause, and it holds lit
            rstep = step_of(reason[var])
            if lit > 0:
                steps.append(TraceStep("resolve", rstep, sid, lit))
            else:
                steps.append(TraceStep("resolve", sid, rstep, -lit))
            sid = len(steps) - 1
            for l in cls[reason[var]]:
                v2 = abs(l)
                if l != lit and not seen[v2]:
                    seen[v2] = True
                    if level[v2] == cur:
                        at_cur += 1
                    else:
                        lower.append(l)
            seen[var] = False
            at_cur -= 1
        for l in lower:
            seen[abs(l)] = False
        return sid, lower, uip

    pos_of = [0] * (num_vars + 1)
    for p, v in enumerate(order):
        pos_of[v] = p

    def backjump(bj: int) -> int:
        nonlocal qhead
        mark = trail_lim[bj]
        mn = len(order)
        for lit in trail[mark:]:
            value[lit] = 0
            value[-lit] = 0
            var = abs(lit)
            reason[var] = None
            if pos_of[var] < mn:
                mn = pos_of[var]
        del trail[mark:]
        del trail_lim[bj:]
        qhead = mark
        return mn

    # root-level units
    for ci, c in enumerate(cls):
        if len(c) == 1:
            lit = c[0]
            if value[lit] == -1:
                sid = derive(ci)[0]
                return SolveResult("unsat", None, Trace(tuple(steps), sid), 0)
            if value[lit] == 0:
                set_lit(lit, ci)

    head = 0
    while True:
        conf = propagate()
        if conf is not None:
            sid, lower, uip = derive(conf)
            if not trail_lim:
                return SolveResult("unsat", None, Trace(tuple(steps), sid),
                                   nodes)
            bj = max((level[abs(l)] for l in lower), default=0)
            ci = len(cls)
            # put the asserting literal first, then a deepest-level literal,
            # so the stale-watch invariant holds after the jump back
            lower.sort(key=lambda l: (-level[abs(l)], abs(l)))
            cls.append(tuple([uip] + lower))
            learned_step[ci] = sid
            attach(ci)
            freed = backjump(bj)
            set_lit(uip, ci)
            if freed < head:
                head = freed
            continue
        while head < len(order) and value[order[head]] != 0:
            head += 1
        if head == len(order):
            model = {v: value[v] == 1 for v in range(1, num_vars + 1)}
            return SolveResult("sat", model, None, nodes)
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(nodes)
        trail_lim.append(len(trail))
        set_lit(-order[head], None)  # false first


def check_trace(clauses: Sequence[Sequence[int]], trace: Trace) -> bool:
    """Independently replay a refutation: an axiom must cite an input
    clause, a resolution two earlier steps holding the pivot and its
    negation, and the final step must derive the empty clause.  Each
    derived clause is dropped after its last use, found in a first pass."""
    steps = trace.steps
    final = trace.final
    if not (0 <= final < len(steps)):
        return False
    last_use = [-1] * len(steps)
    for idx, st in enumerate(steps):
        if st.kind == "axiom":
            if not (0 <= st.left < len(clauses)):
                return False
        elif st.kind == "resolve":
            if not (0 <= st.left < idx and 0 <= st.right < idx):
                return False
            last_use[st.left] = last_use[st.right] = idx
        else:
            return False
    last_use[final] = len(steps)
    derived: list[Optional[frozenset[int]]] = [None] * len(steps)
    for idx, st in enumerate(steps):
        if st.kind == "axiom":
            clause = frozenset(clauses[st.left])
        else:
            a, b, v = derived[st.left], derived[st.right], st.pivot
            if v <= 0 or v not in a or -v not in b:
                return False
            clause = (a - {v}) | (b - {-v})
            if last_use[st.left] == idx:
                derived[st.left] = None
            if last_use[st.right] == idx:
                derived[st.right] = None
        if last_use[idx] > idx:
            derived[idx] = clause
    return not derived[final]
