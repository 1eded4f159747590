"""Exact ordinals below w^w and the node-class partition of [0, gamma).

An ordinal is kept in Cantor normal form as a tuple of (exponent, coefficient)
terms, highest exponent first.  On top of the arithmetic this module provides
the last-term reading cb_rank, the component index cnf_index, the (index,
level) node-class partition with exact class sizes, and what the deciders
read of a class: `node_class`, an iterator over a class's members in
increasing order (optionally only those above a bound), and `on_approach`,
the membership test of an approach sequence toward a limit point.
"""

from __future__ import annotations

import json
from itertools import chain, count
from typing import Iterator, NamedTuple, Optional


class OrdinalError(ValueError):
    pass


class SizeLimitError(OrdinalError):
    """A well-formed input refused for its size, before anything is built."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a key given twice."""
    doc = dict(pairs)
    if len(doc) < len(pairs):  # name the first key seen twice
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"key {json.dumps(key)} is given twice")
            seen.add(key)
    return doc


def read_json(text: str):
    """The one JSON parse of every input file: a key given twice is refused."""
    return json.loads(text, object_pairs_hook=_unique_keys)


class OrdinalParseError(OrdinalError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Ordinal:
    """Immutable ordinal < w^w as a canonical term list."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, int], ...] = ()):
        last = None
        for exp, coeff in terms:
            if exp < 0 or coeff < 1:
                raise OrdinalError(f"bad term (w^{exp})*{coeff}")
            if last is not None and exp >= last:
                raise OrdinalError("exponents must strictly decrease")
            last = exp
        object.__setattr__(self, "terms", tuple(terms))

    def __setattr__(self, name, value):
        raise AttributeError("Ordinal is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise OrdinalError("ordinals are non-negative")
        return Ordinal(((0, n),)) if n else Ordinal()

    @staticmethod
    def omega_power(exp: int, coeff: int = 1) -> "Ordinal":
        """w^exp * coeff (coeff 0 gives 0)."""
        if coeff == 0:
            return Ordinal()
        return Ordinal(((exp, coeff),))

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def cb_rank(self) -> int:
        """Exponent of the last term; 0 for the ordinal 0."""
        return self.terms[-1][0] if self.terms else 0

    def is_limit(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] > 0

    def decrement_last(self) -> "Ordinal":
        """Remove one unit of the last term: delta with delta + w^cb_rank = self."""
        if not self.terms:
            raise OrdinalError("0 has no last term")
        exp, coeff = self.terms[-1]
        if coeff > 1:
            return Ordinal(self.terms[:-1] + ((exp, coeff - 1),))
        return Ordinal(self.terms[:-1])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Ordinal") -> "Ordinal":
        if not isinstance(other, Ordinal):
            return NotImplemented
        if not other.terms:
            return self
        e = other.terms[0][0]
        kept = [t for t in self.terms if t[0] > e]
        merged = list(other.terms)
        for exp, coeff in self.terms:
            if exp == e:
                merged[0] = (e, coeff + merged[0][1])
        return Ordinal(tuple(kept) + tuple(merged))

    def left_difference(self, prefix: "Ordinal") -> "Ordinal":
        """The unique xi with prefix + xi = self, when such xi exists."""
        if prefix > self:
            raise OrdinalError(f"{prefix} exceeds {self}")
        a, b = self.terms, prefix.terms
        i = 0
        while i < len(a) and i < len(b) and a[i] == b[i]:
            i += 1
        if i == len(b):
            return Ordinal(a[i:])
        # first differing term: self >= prefix leaves only two shapes
        exp_a, coeff_a = a[i]
        exp_b, coeff_b = b[i]
        if exp_a > exp_b:
            return Ordinal(a[i:])
        assert exp_a == exp_b and coeff_a > coeff_b
        return Ordinal(((exp_a, coeff_a - coeff_b),) + a[i + 1:])

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Ordinal) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __lt__(self, other: "Ordinal") -> bool:
        return self.terms < other.terms

    def __le__(self, other: "Ordinal") -> bool:
        return self.terms <= other.terms

    def __gt__(self, other: "Ordinal") -> bool:
        return self.terms > other.terms

    def __ge__(self, other: "Ordinal") -> bool:
        return self.terms >= other.terms

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.terms:
            if exp == 0:
                parts.append(str(coeff))
            else:
                base = "w" if exp == 1 else f"w^{exp}"
                parts.append(base if coeff == 1 else f"{base}*{coeff}")
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"Ordinal({str(self)!r})"


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal.omega_power(1)


# -- parsing ---------------------------------------------------------------


def parse(text: str) -> Ordinal:
    """Parse `term ('+' term)*` with term `w ('^' nat)? ('*' nat)? | nat`.

    Terms are summed left to right with ordinal addition, so non-canonical
    input like "w+w^2" collapses to its canonical form.  A number, or a
    summed coefficient, longer than Python's limit for converting an int
    to or from a decimal string is refused.
    """
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_nat() -> int:
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdecimal():  # the digits int() reads
            pos += 1
        if pos == start:
            raise OrdinalParseError("expected a number", start)
        try:
            return int(text[start:pos])
        except ValueError:
            raise OrdinalParseError("number too long to read", start) from None

    def read_term() -> Ordinal:
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise OrdinalParseError("expected a term", pos)
        if text[pos] == "w":
            pos += 1
            exp = 1
            skip_ws()
            if pos < n and text[pos] == "^":
                pos += 1
                skip_ws()
                exp = read_nat()
            coeff = 1
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                skip_ws()
                coeff = read_nat()
            if coeff == 0:
                return ZERO
            return Ordinal.omega_power(exp, coeff)
        if text[pos].isdecimal():
            return Ordinal.from_int(read_nat())
        raise OrdinalParseError(f"unexpected character {text[pos]!r}", pos)

    total = read_term()
    skip_ws()
    while pos < n:
        if text[pos] != "+":
            raise OrdinalParseError(f"unexpected character {text[pos]!r}", pos)
        pos += 1
        total = total + read_term()
        skip_ws()
    try:
        str(total)
    except ValueError:
        raise OrdinalParseError("sum too long to print", n) from None
    return total


# -- components and node classes ------------------------------------------


class NodeClassId(NamedTuple):
    """The class of ordinals sharing a component index and a cb_rank level."""

    index: int
    level: int


def component_count(gamma: Ordinal) -> int:
    """The number of components: gamma's terms written with coefficient 1,
    w^e*c as c copies of w^e, so the sum of gamma's coefficients."""
    return sum(coeff for _, coeff in gamma.terms)


def _component_exp(gamma: Ordinal, i: int) -> Optional[int]:
    """The exponent of the i-th coefficient-1 term; None when out of range."""
    if i >= 1:
        for exp, coeff in gamma.terms:
            if i <= coeff:
                return exp
            i -= coeff
    return None


def partial_sum(gamma: Ordinal, k: int) -> Ordinal:
    """Sum of the first k coefficient-1 terms of gamma (k = 0 gives 0).

    In closed form: the whole terms w^e*c of gamma that the first k
    components cover, then w^e*r for the r < c components taken from the
    next term.
    """
    if k < 0 or k > component_count(gamma):
        raise OrdinalError(f"index {k} out of range for {gamma}")
    terms = []
    for exp, coeff in gamma.terms:
        if k < coeff:
            if k:
                terms.append((exp, k))
            break
        terms.append((exp, coeff))
        k -= coeff
    return Ordinal(tuple(terms))


def cnf_index(gamma: Ordinal, alpha: Ordinal) -> int:
    """Least k with alpha at most the k-th coefficient-1 partial sum of gamma.

    alpha = 0 is assigned index 1.  In closed form: let alpha and gamma share
    their first terms, covering C components of gamma.  If alpha ends there
    (alpha = gamma included) the index is C.  Otherwise alpha's next term
    w^e*c is below gamma's next term w^e'*c': the index is C + 1 when
    e < e', and C + c when e = e' (plus 1 when alpha has further terms).
    """
    if gamma.is_zero():
        raise OrdinalError("no components for 0")
    if alpha > gamma:
        raise OrdinalError(f"{alpha} exceeds {gamma}")
    if alpha.is_zero():
        return 1
    shared = 0
    for pos, (term, (exp, coeff)) in enumerate(zip(alpha.terms, gamma.terms)):
        if term != (exp, coeff):
            if term[0] < exp:
                return shared + 1
            return shared + term[1] + (pos + 1 < len(alpha.terms))
        shared += coeff
    return shared


def classify(gamma: Ordinal, alpha: Ordinal) -> NodeClassId:
    if alpha >= gamma:
        raise OrdinalError(f"{alpha} not below {gamma}")
    return NodeClassId(cnf_index(gamma, alpha), alpha.cb_rank())


def is_valid_class(gamma: Ordinal, cid: NodeClassId) -> bool:
    """True iff the class is nonempty as a subset of [0, gamma)."""
    i, j = cid.index, cid.level
    top_exp = _component_exp(gamma, i)
    if top_exp is None or not 0 <= j <= top_exp:
        return False
    if j == top_exp and i == component_count(gamma):
        # the only candidate member is gamma itself, which is excluded --
        # except for gamma = 1 where 0 still belongs to class (1, 0)
        return gamma == ONE
    return True


def valid_classes(gamma: Ordinal) -> list[NodeClassId]:
    """Every (index, level) with level at most the component's exponent,
    except the last component's top level (unless gamma = 1)."""
    out = []
    i = 0
    for exp, coeff in gamma.terms:
        for _ in range(coeff):
            i += 1
            out.extend(NodeClassId(i, j) for j in range(exp + 1))
    if out and gamma != ONE:
        out.pop()
    return out


def class_count(gamma: Ordinal) -> int:
    """len(valid_classes(gamma)), counted from the Cantor normal form.

    Each term w^e*c gives c components of the e+1 levels 0..e; the last
    component's top level holds only gamma itself, except for gamma = 1.
    """
    total = sum(coeff * (exp + 1) for exp, coeff in gamma.terms)
    return total if gamma.is_zero() or gamma == ONE else total - 1


def class_size(gamma: Ordinal, cid: NodeClassId) -> Optional[int]:
    """Exact size of a class, with None meaning infinite."""
    if not is_valid_class(gamma, cid):
        raise OrdinalError(f"invalid class {cid} for {gamma}")
    i, j = cid.index, cid.level
    if j < _component_exp(gamma, i):
        return None
    # j equals the component exponent: the single top point, plus 0 for (1,0)
    bonus = 1 if (i == 1 and j == 0) else 0
    if i == component_count(gamma):
        return bonus  # top point is gamma itself, excluded
    return 1 + bonus


def node_class(gamma: Ordinal, cid: NodeClassId,
               above: Optional[Ordinal] = None) -> Iterator[Ordinal]:
    """The members of a class in increasing order; with `above`, only those
    strictly above it.

    An invalid class is refused at the call.  A finite class's walk ends.
    An infinite class, of level j below its component's exponent, is
    walked along its first omega members start + w^j*k, k = 1, 2, ...:
    start is the component's base, or, for a bound inside the component,
    the bound's terms above w^j, with the bound's w^j blocks skipped.
    """
    if not is_valid_class(gamma, cid):
        raise OrdinalError(f"invalid class {cid} for {gamma}")
    i, j = cid.index, cid.level
    base = partial_sum(gamma, i - 1)
    top_exp = _component_exp(gamma, i)
    head = [ZERO] if (i, j) == (1, 0) and above is None else []
    if j == top_exp:
        top = base + Ordinal.omega_power(top_exp)
        if top < gamma and (above is None or above < top):
            head.append(top)
        return iter(head)
    start, k = base, 1
    if above is not None and above >= base:
        if above >= base + Ordinal.omega_power(top_exp):
            return iter(())
        xi = above.left_difference(base)
        start = base + Ordinal(tuple(t for t in xi.terms if t[0] > j))
        k += next((co for e, co in xi.terms if e == j), 0)
    return chain(head, (start + Ordinal.omega_power(j, m) for m in count(k)))


def on_approach(p: Ordinal, level: int, x: Ordinal) -> bool:
    """Is x on the canonical level-`level` approach sequence to p?

    Writing p = zeta + w^c (c = cb_rank(p) > level), the sequence is
    zeta + w^(c-1)*t, plus w^level when level < c-1, for t = 1, 2, ...:
    increasing, inside p's component, with sup p, and every tail of
    it has sup p too.
    """
    c = p.cb_rank()
    if not 0 <= level < c:
        raise OrdinalError(f"no level-{level} approach to {p}")
    zeta = p.decrement_last()
    if not zeta < x < p:
        return False
    rest = x.left_difference(zeta).terms
    if level == c - 1:
        return len(rest) == 1 and rest[0][0] == c - 1
    return len(rest) == 2 and rest[0][0] == c - 1 and rest[1] == (level, 1)
