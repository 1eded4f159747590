"""Independent brute-force oracles shared by the test modules.

Everything here is unfolded from the definitions (gamma written out one
component at a time, every gap walked, every ordering tried), so the
closed-form implementations under test can be compared against it on finite
samples.
The propositional oracles (truth-table enumeration, plain unit propagation)
share no code with the solver they check.
"""

from __future__ import annotations

from itertools import combinations, islice, permutations, product
from typing import Optional, Sequence

from orw.ordinals import (
    ONE,
    ZERO,
    NodeClassId,
    Ordinal,
    class_size,
    node_class,
    valid_classes,
)


def all_ordinals(max_exp: int, max_coeff: int) -> list[Ordinal]:
    """Every ordinal whose exponents are <= max_exp and coefficients <= max_coeff."""
    out = []
    for exps in _exp_subsets(max_exp):
        for coeffs in product(range(1, max_coeff + 1), repeat=len(exps)):
            out.append(Ordinal(tuple(zip(exps, coeffs))))
    out.sort()
    return out


def _exp_subsets(max_exp: int):
    exps = list(range(max_exp, -1, -1))
    for size in range(len(exps) + 1):
        yield from combinations(exps, size)


# -- components by coefficient-1 expansion ---------------------------------
#
# The component readings as first written: gamma expanded into one
# exponent per component, partial sums added up term by term.  The closed
# forms in orw.ordinals read the same answers off the CNF terms.


def expansion(gamma: Ordinal) -> list[int]:
    """Exponents of gamma written with all coefficients 1, leading first."""
    return [exp for exp, coeff in gamma.terms for _ in range(coeff)]


def partial_sum_expanded(gamma: Ordinal, k: int) -> Ordinal:
    exps = expansion(gamma)
    assert 0 <= k <= len(exps)
    total = ZERO
    for e in exps[:k]:
        total = total + Ordinal.omega_power(e)
    return total


def cnf_index_expanded(gamma: Ordinal, alpha: Ordinal) -> int:
    assert not gamma.is_zero() and alpha <= gamma
    if alpha.is_zero():
        return 1
    total = ZERO
    for k, e in enumerate(expansion(gamma), start=1):
        total = total + Ordinal.omega_power(e)
        if alpha <= total:
            return k
    raise AssertionError("unreachable: alpha <= gamma")


def is_valid_class_expanded(gamma: Ordinal, cid: NodeClassId) -> bool:
    exps = expansion(gamma)
    n = len(exps)
    i, j = cid.index, cid.level
    if not (1 <= i <= n) or not (0 <= j <= exps[i - 1]):
        return False
    if i == n and j == exps[n - 1]:
        return i == 1 and j == 0 and gamma == ONE
    return True


def valid_classes_expanded(gamma: Ordinal) -> list[NodeClassId]:
    return [NodeClassId(i, j)
            for i, e in enumerate(expansion(gamma), start=1)
            for j in range(e + 1)
            if is_valid_class_expanded(gamma, NodeClassId(i, j))]


def class_size_expanded(gamma: Ordinal, cid: NodeClassId) -> Optional[int]:
    assert is_valid_class_expanded(gamma, cid)
    exps = expansion(gamma)
    i, j = cid.index, cid.level
    if j < exps[i - 1]:
        return None
    bonus = 1 if (i == 1 and j == 0) else 0
    if i == len(exps) and j == exps[i - 1]:
        return bonus
    return 1 + bonus


def limit_candidates_all_gaps(c, explicit: list[Ordinal]) -> list[Ordinal]:
    """Limit-point candidates of a quotient coloring, every gap walked.

    For each infinite class of level >= 1 and each gap between consecutive
    explicit points, the first untouched, not yet chosen member of the
    class that the gap holds, taken from an eagerly built list of members.
    """
    touched = c.touched()
    out = {p for p in explicit if p.cb_rank() >= 1}
    skip = len(touched) + len(explicit) + 3
    bounds: list[Optional[Ordinal]] = [None] + list(explicit) + [None]
    for cid in valid_classes(c.gamma):
        if cid.level < 1 or class_size(c.gamma, cid) is not None:
            continue
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            for x in list(islice(node_class(c.gamma, cid, lo), skip)):
                if hi is not None and not x < hi:
                    break
                if x not in touched and x not in out:
                    out.add(x)
                    break
    return sorted(out)


def independent_set_oracle(masks, within: int, size: int,
                           repeat: int = 0) -> Optional[tuple[int, ...]]:
    """The lexicographically first pick list of `size` vertices of the mask
    `within`, or None: a nondecreasing list whose distinct vertices are
    pairwise non-adjacent in the full rows `masks`, and in which only a
    vertex of the mask `repeat` appears more than once.

    Every independent support is tried; the least list on a support sorts
    the support with its extra picks on its least repeat vertex.
    """
    if size < 0:
        return None
    vertices = [v for v in range(within.bit_length()) if within >> v & 1]
    best = None
    for k in range(min(size, len(vertices)) + 1):
        for support in combinations(vertices, k):
            if any(masks[a] >> b & 1 for a, b in combinations(support, 2)):
                continue
            extra = size - k
            spare = tuple(v for v in support if repeat >> v & 1)
            if extra and not spare:
                continue
            picks = tuple(sorted(support + (spare[:1] * extra)))
            if best is None or picks < best:
                best = picks
    return best


def canonical_form_oracle(order: int, edges) -> tuple[int, ...]:
    """The least row-by-row adjacency bit string over all vertex orderings.

    Row i holds the adjacency bits of the i-th vertex to the i earlier ones;
    every one of the order! orderings is tried.
    """
    adjacent = {frozenset(e) for e in edges}
    return min(tuple(int(frozenset((p[i], p[j])) in adjacent)
                     for i in range(order) for j in range(i))
               for p in permutations(range(order)))


def truth_table_status(clauses: Sequence[Sequence[int]],
                       num_vars: int) -> tuple[str, Optional[dict[int, bool]]]:
    """Exhaustive enumeration oracle for small systems.

    All 2^num_vars assignments are evaluated at once, bit-parallel: one big
    integer holds a clause's truth column, bit m being its value under the
    assignment whose variable v reads bit (m >> (v-1)) & 1.  The model
    returned for satisfiable systems is the one with the smallest such m.
    """
    if num_vars > 24:
        raise ValueError("truth-table oracle is limited to 24 variables")
    size = 1 << num_vars
    ones = (1 << size) - 1
    col = [0] * (num_vars + 1)
    for v in range(1, num_vars + 1):
        half = 1 << (v - 1)
        pat = ((1 << half) - 1) << half  # one period: half zeros, half ones
        width = half << 1
        while width < size:
            pat |= pat << width
            width <<= 1
        col[v] = pat
    acc = ones
    for c in clauses:
        m = 0
        for lit in c:
            m |= col[lit] if lit > 0 else ones ^ col[-lit]
        acc &= m
        if not acc:
            return "unsat", None
    m = (acc & -acc).bit_length() - 1
    return "sat", {v: bool((m >> (v - 1)) & 1)
                   for v in range(1, num_vars + 1)}


def propagates_to_conflict(clauses: Sequence[Sequence[int]],
                           assumptions: Sequence[int]) -> bool:
    """Plain unit propagation: sweep every clause until nothing changes.

    True iff making the assumption literals true and closing under unit
    propagation falsifies some clause.
    """
    true = set()
    for lit in assumptions:
        if -lit in true:
            return True
        true.add(lit)
    changed = True
    while changed:
        changed = False
        for c in clauses:
            if any(l in true for l in c):
                continue
            open_lits = [l for l in c if -l not in true]
            if not open_lits:
                return True
            if len(open_lits) == 1:
                true.add(open_lits[0])
                changed = True
    return False


def rup_implied(clauses: Sequence[Sequence[int]],
                clause: Sequence[int]) -> bool:
    """Reverse unit propagation (Goldberg & Novikov, DATE 2003): `clause`
    is implied by `clauses` if assuming its negation propagates to a
    conflict.  False means "not shown implied", not "not implied"."""
    return propagates_to_conflict(clauses, [-l for l in clause])


def check_trace_sets(clauses: Sequence[Sequence[int]], trace) -> bool:
    """Replay a resolution trace on frozensets of literals, keeping every
    derived clause: the plain form of `orw.solver.check_trace`, which must
    accept and reject exactly the same traces."""
    derived: list[frozenset[int]] = []
    cols = trace.steps
    for idx, (left, right, v) in enumerate(
            zip(cols.left, cols.right, cols.pivot)):
        if right == -1:  # an axiom
            if not 0 <= left < len(clauses):
                return False
            derived.append(frozenset(clauses[left]))
        elif right >= 0:  # a resolution
            if not (0 <= left < idx and right < idx):
                return False
            a, b = derived[left], derived[right]
            if v <= 0 or v not in a or -v not in b:
                return False
            derived.append((a - {v}) | (b - {-v}))
        else:  # right < -1 is neither
            return False
    return 0 <= trace.final < len(derived) and not derived[trace.final]
