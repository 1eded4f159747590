"""Exact ordinals below w^w and the node-class partition of [0, gamma).

An ordinal is kept in Cantor normal form as a tuple of (exponent, coefficient)
terms, highest exponent first.  On top of the arithmetic this module provides
the last-term reading cb_rank, the step order <* (b <* a when a = b + w^theta
with theta > cb_rank(b)) with its parent and children, the component index
cnf_index, the (index, level) node-class partition with exact class sizes,
and the two class walks the deciders use: the members of a class above a
bound, and an approach sequence toward a limit point.  Infinite sets are
returned as BoundedEnumeration views: an exact membership predicate plus an
increasing prefix enumerator.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterator, NamedTuple, Optional


class OrdinalError(ValueError):
    pass


class SizeLimitError(OrdinalError):
    """A well-formed input refused for its size, before anything is built."""


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
    input like "w+w^2" collapses to its canonical form.
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
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise OrdinalParseError("expected a number", start)
        return int(text[start:pos])

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
        if text[pos].isdigit():
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
    return total


# -- bounded views of infinite sets ---------------------------------------


class BoundedEnumeration:
    """A set of ordinals seen through an exact predicate and finite prefixes.

    enumerate(m) returns the first m members in increasing order (fewer if the
    set is smaller); the generator is restarted on each call, so views are
    reusable and immutable.
    """

    def __init__(self, contains: Callable[[Ordinal], bool],
                 generator: Callable[[], Iterator[Ordinal]]):
        self._contains = contains
        self._generator = generator

    def contains(self, x: Ordinal) -> bool:
        return self._contains(x)

    def __contains__(self, x: Ordinal) -> bool:
        return self._contains(x)

    def enumerate(self, m: int) -> list[Ordinal]:
        return list(islice(self._generator(), m))

    def __iter__(self) -> Iterator[Ordinal]:
        return self._generator()

    @staticmethod
    def empty() -> "BoundedEnumeration":
        return BoundedEnumeration(lambda x: False, lambda: iter(()))


# -- the step relation and its tree ---------------------------------------


def star_less(b: Ordinal, a: Ordinal) -> bool:
    """True iff a = b + w^theta for some theta > cb_rank(b)."""
    return a > b and any(b + Ordinal.omega_power(theta) == a for theta in
                         range(b.cb_rank() + 1, a.terms[0][0] + 1))


def star_parent(b: Ordinal) -> Ordinal:
    """The unique immediate successor of b in the step order."""
    return b + Ordinal.omega_power(b.cb_rank() + 1)


def star_children(a: Ordinal) -> BoundedEnumeration:
    """All b with star_parent(b) = a, in increasing order.

    Nonempty only when cb_rank(a) = d >= 1: writing a = delta + w^d, the
    children are delta + w^(d-1)*k for k >= 1, together with 0 when a = w.
    """
    d = a.cb_rank()
    if d == 0:
        return BoundedEnumeration.empty()
    delta = a.decrement_last()
    include_zero = a == OMEGA

    def contains(x: Ordinal) -> bool:
        return star_parent(x) == a

    def gen() -> Iterator[Ordinal]:
        if include_zero:
            yield ZERO
        k = 1
        while True:
            yield delta + Ordinal.omega_power(d - 1, k)
            k += 1

    return BoundedEnumeration(contains, gen)


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


def node_class(gamma: Ordinal, cid: NodeClassId) -> BoundedEnumeration:
    """The members of a class, increasing; exact membership via classify."""
    if not is_valid_class(gamma, cid):
        raise OrdinalError(f"invalid class {cid} for {gamma}")
    i, j = cid.index, cid.level
    base = partial_sum(gamma, i - 1)
    top_exp = _component_exp(gamma, i)

    def contains(x: Ordinal) -> bool:
        return x < gamma and classify(gamma, x) == cid

    def gen() -> Iterator[Ordinal]:
        if i == 1 and j == 0:
            yield ZERO
        if j == top_exp:
            top = base + Ordinal.omega_power(top_exp)
            if top < gamma:
                yield top
            return
        k = 1
        while True:
            yield base + Ordinal.omega_power(j, k)
            k += 1

    return BoundedEnumeration(contains, gen)


def class_members_above(gamma: Ordinal, cid: NodeClassId,
                        bound: Ordinal) -> BoundedEnumeration:
    """Members of the class strictly above `bound`, in increasing order."""
    full = node_class(gamma, cid)
    i, j = cid.index, cid.level
    base = partial_sum(gamma, i - 1)
    top_exp = _component_exp(gamma, i)

    def contains(x: Ordinal) -> bool:
        return x > bound and full.contains(x)

    if bound < base or (j == top_exp):
        def gen():
            for x in full._generator():
                if x > bound:
                    yield x
        return BoundedEnumeration(contains, gen)
    if bound >= base + Ordinal.omega_power(top_exp):
        return BoundedEnumeration.empty()
    # bound sits inside the component: round it up to the next w^j block
    xi = bound.left_difference(base)
    prefix = Ordinal(tuple(t for t in xi.terms if t[0] > j))
    at_j = next((co for e, co in xi.terms if e == j), 0)

    def gen():
        k = at_j + 1
        while True:
            yield base + prefix + Ordinal.omega_power(j, k)
            k += 1

    return BoundedEnumeration(contains, gen)


def class_members_toward(gamma: Ordinal, p: Ordinal,
                         level: int) -> BoundedEnumeration:
    """A level-`level` sequence in p's component, increasing with sup p.

    Requires level < cb_rank(p) and p below gamma.  The view is one canonical
    approach sequence (every tail of it still has sup p), not the whole class.
    """
    c = p.cb_rank()
    if not (0 <= level < c):
        raise OrdinalError(f"no level-{level} approach to {p}")
    if p >= gamma:
        raise OrdinalError(f"{p} not below {gamma}")
    zeta = p.decrement_last()
    bump = Ordinal.omega_power(level) if level < c - 1 else ZERO

    def contains(x: Ordinal) -> bool:
        if not zeta < x < p:
            return False
        rest = x.left_difference(zeta)
        if level == c - 1:
            return len(rest.terms) == 1 and rest.terms[0][0] == c - 1
        return (len(rest.terms) == 2 and rest.terms[0][0] == c - 1
                and rest.terms[1] == (level, 1))

    def gen():
        t = 1
        while True:
            yield zeta + Ordinal.omega_power(c - 1, t) + bump
            t += 1

    return BoundedEnumeration(contains, gen)
