"""Deterministic CNF decision core with verifiable resolution traces.

Variables are positive integers; a literal is a signed integer; a clause is a
tuple of literals.  The solver does unit propagation with two-literal
watching and learns a first-UIP clause at every conflict.  Until its first
restart it branches on the lowest-numbered unassigned variable, false
first, so a solve that ends within its first RESTART_UNIT conflicts
explores that static tree.  Restarts follow the Luby sequence (Luby,
Sinclair & Zuckerman, IPL 1993) in units of RESTART_UNIT conflicts; from
the first one on, the solver branches on the unassigned variable of
highest activity, ties to the lowest number (Moskewicz et al., "Chaff",
DAC 2001), and gives it the value it last held (phase saving).  Activity
rises for every variable that takes part in a conflict's analysis and
decays geometrically.  Each learned clause records its LBD, the number of
decision levels among its literals (Audemard & Simon, "Predicting Learnt
Clauses Quality in Modern SAT Solvers", IJCAI 2009).  At the first restart
past REDUCE_FIRST conflicts, and after the r-th such reduction at the first
restart past REDUCE_FIRST + r*REDUCE_INC more, the solver deletes the worse
half of its learned clauses, the highest LBD first and the older first on
ties.  It keeps every clause of LBD <= 2, the reason of every level-0
literal and the clause just learned.  Nothing is random, so identical
inputs explore identical search trees.  Unsatisfiable runs end with a
resolution trace whose steps name premises, not clauses: an axiom cites an
input clause, a resolution two earlier steps and a pivot variable.  A
trace is three packed columns of 4-byte signed integers (left, right,
pivot; an axiom has right = -1) and the index of its final step, 12 bytes
a step; a value that does not fit raises instead of wrapping.  The solver
appends to the columns, and copies them to their length only after its
search state is released; the checker reads them as they are.  A deleted
clause's step stays in the trace, so later steps may still cite it.  The
per-clause search state is flat columns indexed by clause (Eén &
Sörensson, "An Extensible SAT-solver", SAT 2003): the two watched
literals, the trace step and the LBD.  The decision heap drops its stale
entries once they outnumber the variables.  An
independent checker derives every clause from what its step cites, as in
Goldberg & Novikov (DATE 2003), and requires the final one to be empty.
Satisfiable runs return a total model.  Exceeding the decision budget
raises, keeping resource exhaustion distinct from either answer; a
negative budget is refused before any clause is read.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Optional

__all__ = [
    "BudgetExceeded",
    "SolveResult",
    "StepColumns",
    "Trace",
    "check_trace",
    "solve",
]

RESTART_UNIT = 256  # conflicts per unit of the Luby restart sequence
REDUCE_FIRST = 2000  # conflicts before the first learned-clause reduction
REDUCE_INC = 300  # each reduction puts the next one this much further off
ACTIVITY_DECAY = 0.95  # the bump increment grows by 1/ACTIVITY_DECAY
ACTIVITY_LIMIT = 1e100  # past this, every activity is scaled by 1/LIMIT


class BudgetExceeded(RuntimeError):
    """Raised when the search exceeds its node budget before an answer."""


class StepColumns:
    """The steps of a trace as three `array('i')` columns: `left` cites an
    input clause (axiom) or an earlier step, `right` is -1 for an axiom or
    the other step cited, and `pivot` is 0 for an axiom or the resolved
    variable.  `len` is the number of steps."""

    __slots__ = ("left", "right", "pivot")

    def __init__(self) -> None:
        self.left = array("i")
        self.right = array("i")
        self.pivot = array("i")

    def trim(self) -> None:
        """Drop the columns' growth slack: a copy of an array is allocated
        to its length."""
        self.left, self.right, self.pivot = (
            array("i", c) for c in (self.left, self.right, self.pivot))

    def __len__(self) -> int:
        return len(self.left)


@dataclass(frozen=True)
class Trace:
    steps: StepColumns
    final: int  # index of the empty-clause step


@dataclass(frozen=True)
class SolveResult:
    status: str  # "sat" | "unsat"
    model: Optional[dict[int, bool]]
    trace: Optional[Trace]
    nodes: int  # decisions
    conflicts: int
    restarts: int
    reductions: int  # halvings of the learned-clause database


def solve(clauses: Sequence[Sequence[int]], num_vars: int,
          budget: int = 10_000_000) -> SolveResult:
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    # a duplicate-free input tuple is shared, not copied
    cls = [c if type(c) is tuple and len(set(c)) == len(c)
           else tuple(dict.fromkeys(c)) for c in clauses]
    lits = {l for c in cls for l in c}
    if lits and (0 in lits or max(lits) > num_vars or min(lits) < -num_vars):
        bad = next(c for c in cls
                   if 0 in c or max(map(abs, c), default=0) > num_vars)
        raise ValueError(f"literal out of range in clause {bad}")

    # lists indexed by a signed literal have 2*num_vars+1 slots, so that
    # negative indexing gives -v a slot of its own
    value = [0] * (2 * num_vars + 1)  # +1 true, -1 false, 0 unassigned
    reason: list[Optional[int]] = [None] * (num_vars + 1)
    level = [0] * (num_vars + 1)
    seen = [False] * (num_vars + 1)  # variables of the running resolvent
    activity = [0.0] * (num_vars + 1)
    phase = [-v for v in range(num_vars + 1)]  # literal last held; false first
    trail: list[int] = []
    trail_lim: list[int] = []  # trail length at each decision
    qhead = 0
    nodes = conflicts = restarts = reductions = 0
    bump = 1.0

    steps = StepColumns()
    lefts = steps.left  # its length is the number of steps
    step_left = lefts.append
    step_right = steps.right.append
    step_pivot = steps.pivot.append
    # columns indexed by clause: its step (-1: not yet cited) and, for a
    # live learned clause, its LBD (0: an input or deleted clause)
    num_inputs = len(cls)
    step_at = array("i", [-1]) * num_inputs
    lbd = array("i", [0]) * num_inputs

    def result(status: str, model: Optional[dict[int, bool]] = None,
               final: int = -1) -> SolveResult:
        trace = None
        if status == "unsat":
            # release the search state before the columns are copied
            for held in (cls, watches, w0, w1):
                held.clear()
            steps.trim()
            trace = Trace(steps, final)
        return SolveResult(status, model, trace, nodes, conflicts, restarts,
                           reductions)

    def step_of(ci: int) -> int:
        # an input clause's axiom step is made when it is first cited
        got = step_at[ci]
        if got < 0:
            got = step_at[ci] = len(lefts)
            step_left(ci)
            step_right(-1)
            step_pivot(0)
        return got

    def set_lit(lit: int, why: Optional[int]) -> None:
        value[lit] = 1
        value[-lit] = -1
        reason[abs(lit)] = why
        level[abs(lit)] = len(trail_lim)
        trail.append(lit)

    # two-literal watching; watches are not repaired on backtrack.
    # w0[ci] and w1[ci] are clause ci's watched literals
    w0: list[int] = []
    w1: list[int] = []
    watches: list[list[int]] = [[] for _ in range(2 * num_vars + 1)]

    def attach(ci: int) -> None:
        c = cls[ci]
        a, b = c[0], c[1] if len(c) > 1 else c[0]
        w0.append(a)
        w1.append(b)
        watches[a].append(ci)
        if b != a:
            watches[b].append(ci)

    for ci, c in enumerate(cls):
        if not c:
            return result("unsat", final=step_of(ci))
        attach(ci)

    def propagate() -> Optional[int]:
        # val[flit] is -1 throughout, so a replacement watch only has to
        # be non-false and differ from the other watch
        nonlocal qhead
        val = value
        wlists = watches
        wa = w0
        wb = w1
        clist = cls
        tr = trail
        why = reason
        lev = level
        lvl = len(trail_lim)
        q = qhead
        while q < len(tr):
            flit = -tr[q]
            q += 1
            wl = wlists[flit]
            i = 0
            end = len(wl)
            while i < end:
                ci = wl[i]
                other = wa[ci]
                if other == flit:
                    other = wb[ci]
                if other == flit:
                    qhead = q
                    return ci  # unit clause just falsified
                ov = val[other]
                if ov == 1:
                    i += 1
                    continue
                for lit2 in clist[ci]:
                    if val[lit2] >= 0 and lit2 != other:
                        wa[ci] = other
                        wb[ci] = lit2
                        wlists[lit2].append(ci)
                        end -= 1
                        wl[i] = wl[end]
                        wl.pop()
                        break
                else:
                    if ov:
                        qhead = q
                        return ci
                    val[other] = 1
                    val[-other] = -1
                    var = abs(other)
                    why[var] = ci
                    lev[var] = lvl
                    tr.append(other)
                    i += 1
        qhead = q
        return None

    def derive(ci: int) -> tuple[int, list[int], int, bool]:
        # resolve clause ci with reason clauses, walking the trail back, to
        # the first UIP (one current-level literal left) or, at decision
        # level 0, to the empty clause.  The running resolvent is its count
        # of current-level literals plus its lower-level literals, all of
        # them false and marked in `seen`.  Every marked variable is bumped;
        # the last value says whether some activity passed ACTIVITY_LIMIT.
        cur = len(trail_lim)
        sid = step_of(ci)
        lower: list[int] = []
        at_cur = uip = 0
        act = activity
        inc = bump
        over = False
        for l in cls[ci]:
            v = abs(l)
            seen[v] = True
            act[v] += inc
            if act[v] > ACTIVITY_LIMIT:
                over = True
            if level[v] == cur:
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
                step_left(rstep)
                step_right(sid)
            else:
                step_left(sid)
                step_right(rstep)
            step_pivot(var)
            sid = len(lefts) - 1
            for l in cls[reason[var]]:
                v2 = abs(l)
                if l != lit and not seen[v2]:
                    seen[v2] = True
                    act[v2] += inc
                    if act[v2] > ACTIVITY_LIMIT:
                        over = True
                    if level[v2] == cur:
                        at_cur += 1
                    else:
                        lower.append(l)
            seen[var] = False
            at_cur -= 1
        for l in lower:
            seen[abs(l)] = False
        return sid, lower, uip, over

    # Until the first restart, `head` is the lowest variable that may be
    # unassigned.  From then on `heap` holds (-activity, var) entries; an
    # entry is live when `key[var]` still equals its activity, and every
    # unassigned variable has a live entry.  At most one entry per
    # variable is live, and a pop depends only on the live entries, so
    # the stale ones are dropped once they outnumber the variables.
    head = 1
    heap: Optional[list[tuple[float, int]]] = None
    key: list[Optional[float]] = []

    def rebuild_heap() -> None:
        nonlocal heap, key
        key = [None] * (num_vars + 1)
        heap = []
        for v in range(1, num_vars + 1):
            if value[v] == 0:
                key[v] = activity[v]
                heap.append((-activity[v], v))
        heapify(heap)

    def backjump(bj: int) -> None:
        nonlocal qhead, head
        mark = trail_lim[bj]
        for lit in trail[mark:]:
            value[lit] = 0
            value[-lit] = 0
            var = abs(lit)
            reason[var] = None
            phase[var] = lit
            if heap is None:
                if var < head:
                    head = var
            elif key[var] != activity[var]:
                key[var] = activity[var]
                heappush(heap, (-activity[var], var))
        del trail[mark:]
        del trail_lim[bj:]
        qhead = mark
        if heap is not None and len(heap) > 2 * num_vars:
            heap[:] = [e for e in heap if key[e[1]] == -e[0]]
            heapify(heap)

    def reduce_db(keep: int) -> None:
        # at level 0: delete the worse half of the learned clauses that are
        # not glue (LBD <= 2), not the reason of a trail literal and not
        # `keep`, by LBD descending, the older first on ties.  A deleted
        # clause's trace step stays, so later steps may still cite it.
        locked = {reason[abs(l)] for l in trail}
        # a learned clause's index is its age
        cands = [ci for ci in range(num_inputs, len(cls))
                 if lbd[ci] > 2 and ci != keep and ci not in locked]
        cands.sort(key=lambda ci: -lbd[ci])  # stable: the older first
        gone = set(cands[:len(cands) // 2])
        for ci in gone:
            lbd[ci] = 0
            cls[ci] = ()  # never read again
        for wl in watches:
            if wl:
                wl[:] = [ci for ci in wl if ci not in gone]

    # root-level units
    for ci, c in enumerate(cls):
        if len(c) == 1:
            lit = c[0]
            if value[lit] == -1:
                conflicts += 1
                return result("unsat", final=derive(ci)[0])
            if value[lit] == 0:
                set_lit(lit, ci)

    luby_u = luby_v = 1  # Knuth's pair: luby_v runs 1, 1, 2, 1, 1, 2, 4, ...
    next_restart = RESTART_UNIT
    next_reduce = REDUCE_FIRST
    while True:
        conf = propagate()
        if conf is not None:
            conflicts += 1
            sid, lower, uip, over = derive(conf)
            if not trail_lim:
                return result("unsat", final=sid)
            bump /= ACTIVITY_DECAY
            if over:
                activity[:] = [a / ACTIVITY_LIMIT for a in activity]
                bump /= ACTIVITY_LIMIT
                if heap is not None:
                    rebuild_heap()
            bj = max((level[abs(l)] for l in lower), default=0)
            ci = len(cls)
            # put the asserting literal first, then a deepest-level literal,
            # so the stale-watch invariant holds after the jump back
            lower.sort(key=lambda l: (-level[abs(l)], abs(l)))
            cls.append(tuple([uip] + lower))
            step_at.append(sid)
            lbd.append(len({level[abs(l)] for l in lower}) + 1)  # + uip's
            attach(ci)
            if bj and conflicts >= next_restart:
                # both watches of the learned clause sit above level 0, so
                # it is left unasserted there
                backjump(0)
                if conflicts >= next_reduce:
                    reduce_db(ci)
                    reductions += 1
                    next_reduce = (conflicts + REDUCE_FIRST
                                   + REDUCE_INC * reductions)
                rebuild_heap()
                restarts += 1
                if luby_u & -luby_u == luby_v:
                    luby_u += 1
                    luby_v = 1
                else:
                    luby_v *= 2
                next_restart = conflicts + RESTART_UNIT * luby_v
                continue
            backjump(bj)
            set_lit(uip, ci)
            continue
        if heap is None:
            while head <= num_vars and value[head] != 0:
                head += 1
            if head > num_vars:
                break
            lit = -head  # false first
        else:
            while heap:
                neg, var = heappop(heap)
                if key[var] == -neg:
                    key[var] = None
                    if value[var] == 0:
                        break
            else:
                break
            lit = phase[var]
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(
                f"node budget exhausted after {nodes} decisions")
        trail_lim.append(len(trail))
        set_lit(lit, None)
    return result("sat", {v: value[v] == 1 for v in range(1, num_vars + 1)})


def check_trace(clauses: Sequence[Sequence[int]], trace: Trace) -> bool:
    """Independently replay a refutation: an axiom must cite an input
    clause, a resolution two earlier steps holding the pivot and its
    negation, and the final step must derive the empty clause.  A clause is
    an integer bitmask, literal v > 0 at bit 2v and -v at bit 2v+1, so a
    resolution is two masks and an or.  Each derived clause is dropped
    after its last use, found in a first pass and kept in a packed column
    beside the trace's own, which are read directly."""
    cols = trace.steps
    lefts, rights, pivots = cols.left, cols.right, cols.pivot
    size = len(lefts)
    final = trace.final
    if not (0 <= final < size):
        return False
    num_clauses = len(clauses)
    last_use = array("i", [-1]) * size
    for idx, left, right in zip(count(), lefts, rights):
        if right == -1:
            if not (0 <= left < num_clauses):
                return False
        elif 0 <= left < idx and 0 <= right < idx:
            last_use[left] = last_use[right] = idx
        else:
            return False
    last_use[final] = size
    derived = [0] * size
    for idx, left, right, v in zip(count(), lefts, rights, pivots):
        if right == -1:
            clause = 0
            for l in clauses[left]:
                clause |= 1 << (2 * l if l >= 0 else 1 - 2 * l)
        else:
            a, b = derived[left], derived[right]
            if v <= 0 or not (a >> 2 * v) & 1 or not (b >> 2 * v + 1) & 1:
                return False
            pos = 1 << 2 * v
            clause = (a & ~pos) | (b & ~(pos << 1))
            if last_use[left] == idx:
                derived[left] = 0
            if last_use[right] == idx:
                derived[right] = 0
        if last_use[idx] > idx:
            derived[idx] = clause
    return not derived[final]
