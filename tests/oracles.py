"""Independent brute-force oracles shared by the test modules.

Everything here is unfolded from the definitions (star_less candidates are
b + w^theta for the finitely many admissible theta), so the closed-form
implementations under test can be compared against it on finite samples.
The propositional oracles (truth-table enumeration, plain unit propagation)
share no code with the solver they check.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Optional, Sequence

from orw.ordinals import Ordinal, star_less


def all_ordinals(max_exp: int, max_coeff: int) -> list[Ordinal]:
    """Every ordinal whose exponents are <= max_exp and coefficients <= max_coeff."""
    out = []
    for exps in _exp_subsets(max_exp):
        for coeffs in product(range(1, max_coeff + 1), repeat=len(exps)):
            out.append(Ordinal(tuple(zip(exps, coeffs))))
    out.sort()
    return out


@lru_cache(maxsize=None)
def _cached_universe(max_exp: int, max_coeff: int) -> tuple[Ordinal, ...]:
    return tuple(all_ordinals(max_exp, max_coeff))


def _exp_subsets(max_exp: int):
    exps = list(range(max_exp, -1, -1))
    for size in range(len(exps) + 1):
        yield from combinations(exps, size)


def immediate_step(b: Ordinal, a: Ordinal) -> bool:
    """b is an immediate step-predecessor of a, via star_less only.

    Any intermediate would be b + w^theta for some theta, so scanning those
    finitely many candidates decides immediacy exactly.
    """
    if not star_less(b, a):
        return False
    for theta in range(b.cb_rank() + 1, a.leading_exp() + 1):
        mid = b + Ordinal.omega_power(theta)
        if mid != a and star_less(mid, a):
            return False
    return True


def immediate_parent_of(b: Ordinal, max_exp: int) -> Ordinal | None:
    """The unique a <= w^max_exp-ish with immediate_step(b, a), by scanning."""
    hits = []
    for theta in range(b.cb_rank() + 1, max_exp + 1):
        a = b + Ordinal.omega_power(theta)
        if immediate_step(b, a):
            hits.append(a)
    assert len(hits) <= 1, f"immediate successor of {b} not unique: {hits}"
    return hits[0] if hits else None


@lru_cache(maxsize=None)
def _parent_map(max_exp: int, max_coeff: int):
    return {b: immediate_parent_of(b, max_exp)
            for b in _cached_universe(max_exp, max_coeff)}


def f_members_recursive(c: int, r: int, m: int,
                        max_coeff: int = 8) -> list[Ordinal]:
    """Unfold the level-set recursion for w^c inside a finite universe.

    Complete for members whose coefficients are all < max_coeff (parent
    chains raise a coefficient by at most one).
    """
    top = Ordinal.omega_power(c)
    if m == c:
        return [top]
    parents = _parent_map(c, max_coeff)
    level = {top}
    for _ in range(c - m):
        level = {b for b, p in parents.items()
                 if b.l_count() > r and b < top and p in level}
    return sorted(level)


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
