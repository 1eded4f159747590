"""Pair colorings of [0, gamma) driven by the node-class partition.

A quotient coloring assigns a color to every unordered pair of points below
gamma using three layers: a `within` color per class (pairs inside one class),
a `cross` color per unordered pair of distinct classes, and a finite map of
per-pair overrides.  Because all but finitely many pairs take their color from
the class tables, the existence of a small homogeneous closed copy (a blue
triangle, a red closed copy of omega+n) is exactly decidable by a finite
search; every copy found comes with a certificate that `check_certificate`
re-verifies independently of the search.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations, islice
from operator import itemgetter
from typing import Iterator, Mapping, NamedTuple, Optional

from .ordinals import (
    NodeClassId,
    Ordinal,
    OrdinalError,
    SizeLimitError,
    class_size,
    class_count,
    classify,
    is_valid_class,
    node_class,
    on_approach,
    parse,
    partial_sum,
    read_json,
    valid_classes,
)
from .ramsey import independent_set

RED = 0
BLUE = 1
# colorings with more node classes are refused unbuilt: the deciders' pool
# pairs and coloring_to_json's cross table grow with the square of the count
MAX_CLASSES = 1_000
MAX_N = 1_000  # a red target omega+n with larger n is refused unsearched

Color = int
PointPair = tuple[Ordinal, Ordinal]
ClassPair = tuple[NodeClassId, NodeClassId]

__all__ = [
    "RED",
    "BLUE",
    "MAX_CLASSES",
    "MAX_N",
    "QuotientColoring",
    "CopyCertificate",
    "color_of",
    "decide_blue_closed_3",
    "decide_red_closed_omega_plus_n",
    "check_certificate",
    "coloring_to_json",
    "coloring_from_json",
    "certificate_doc",
    "certificate_to_json",
    "certificate_from_json",
]


def _shown(x) -> str:
    """A refused value for a message: its JSON text, or its repr when it is
    not a JSON value (an in-process caller may pass a Fraction)."""
    try:
        return json.dumps(x)
    except (TypeError, ValueError):
        return repr(x)


def _as_ordinal(x, what: str = "point") -> Ordinal:
    """An Ordinal, an expression string or a non-negative int, read exactly:
    a bool, a float or any other value is refused by name."""
    if isinstance(x, Ordinal):
        return x
    if type(x) is int:
        return Ordinal.from_int(x)
    if type(x) is str:
        return parse(x)
    raise OrdinalError(f"{what} {_shown(x)} is not an ordinal")

def _as_class(x) -> NodeClassId:
    """A NodeClassId, or a list or tuple of two ints, read exactly.  A wrong
    length or an element int() cannot read keeps that Python error; a value
    int() would read (1.9, "2", true, Infinity) is refused by name."""
    if isinstance(x, NodeClassId):
        return x
    if type(x) in (list, tuple):
        i, j = x
        if type(i) is int and type(j) is int:  # NodeClassId(i, j), unframed
            return tuple.__new__(NodeClassId, x)
        try:
            int(i), int(j)
        except OverflowError:
            pass
    raise OrdinalError(f"class {_shown(x)} is not a pair of integers")

def _class_key(a: NodeClassId, b: NodeClassId) -> ClassPair:
    return (a, b) if a <= b else (b, a)

def _point_key(a: Ordinal, b: Ordinal) -> PointPair:
    return (a, b) if a < b else (b, a)


def _read_table(table, key_of, names: str) -> dict:
    """A mapping or a list of (key, color) entries, read once and in order:
    each key through `key_of`, then its color, then whether the key already
    has another color."""
    out: dict = {}
    for k, col in table.items() if isinstance(table, Mapping) else table or ():
        key = key_of(k)
        if type(col) is not int or col not in (RED, BLUE):
            raise OrdinalError(f"color {_shown(col)} is not 0 or 1")
        if out.setdefault(key, col) != col:
            raise OrdinalError(f"conflicting {names} for {key}")
    return out


@dataclass(frozen=True, eq=True)
class QuotientColoring:
    """A two-coloring of pairs below gamma: class tables plus finite overrides.

    `within` maps every valid class to the color of its internal pairs,
    `cross` maps each unordered pair of distinct valid classes that is blue
    (stored low-first; a pair not stored is red), and `overrides` (finitely
    many point pairs, stored low-first) wins over both.  Instances are
    immutable; all procedures on them are pure.
    """

    gamma: Ordinal
    within: Mapping[NodeClassId, Color]
    cross: Mapping[ClassPair, Color]
    overrides: Mapping[PointPair, Color]

    @classmethod
    def build(cls, gamma, within=None, cross=None,
              overrides=None) -> "QuotientColoring":
        """Normalize the tables; unspecified colors are RED.

        `within` maps class ids to colors, `cross` class pairs (either
        order) and `overrides` point pairs; each table is a mapping or a
        list of (key, color) entries.  Each entry is read once, in order,
        with exact types: its key (gamma and each point an Ordinal, an
        expression string or an int; each class a NodeClassId or a list or
        tuple of two ints), then its color (the int 0 or 1), then whether
        the key already has another color.  The first fault met is refused.
        A gamma with more than MAX_CLASSES node classes is refused before
        any table is read: the deciders' pool and `coloring_to_json` grow
        with the square of that count.
        """
        g = _as_ordinal(gamma, "gamma")
        if g.is_zero():
            raise OrdinalError("coloring needs a nonzero gamma")
        count = class_count(g)
        if count > MAX_CLASSES:
            raise SizeLimitError(
                f"gamma {g} has {count} node classes, more than the limit "
                f"of {MAX_CLASSES}")
        classes = valid_classes(g)
        own = set(classes)

        def class_key(k) -> NodeClassId:
            k = _as_class(k)
            if k not in own:
                raise OrdinalError(f"within references invalid class {k}")
            return k

        def pair_key(k) -> ClassPair:
            a, b = _as_class(k[0]), _as_class(k[1])
            if a == b or a not in own or b not in own:
                raise OrdinalError(
                    f"cross references invalid pair {(tuple(a), tuple(b))}")
            return _class_key(a, b)

        def point_key(k) -> PointPair:
            a, b = _as_ordinal(k[0]), _as_ordinal(k[1])
            if a == b:
                raise OrdinalError(f"override on a degenerate pair {a}")
            if not (a < g and b < g):
                raise OrdinalError(f"override pair {a},{b} not below {g}")
            return _point_key(a, b)

        w = _read_table(within, class_key, "within colors")
        x = _read_table(cross, pair_key, "cross colors")
        ov = _read_table(overrides, point_key, "overrides")
        return cls(g, {cid: w.get(cid, RED) for cid in classes},
                   {k: col for k, col in x.items() if col == BLUE}, ov)

    def touched(self) -> frozenset[Ordinal]:
        """Points that appear in at least one override pair."""
        pts = set()
        for a, b in self.overrides:
            pts.add(a)
            pts.add(b)
        return frozenset(pts)

    def class_pair_color(self, a: NodeClassId, b: NodeClassId) -> Color:
        if a == b:
            return self.within[a]
        return self.cross.get(_class_key(a, b), RED)


def color_of(c: QuotientColoring, a, b) -> Color:
    """Color of the pair {a, b}: override if present, else the class tables."""
    a, b = _as_ordinal(a), _as_ordinal(b)
    if a == b:
        raise OrdinalError("color_of needs two distinct points")
    if not (a < c.gamma and b < c.gamma):
        raise OrdinalError(f"pair {a},{b} not below {c.gamma}")
    key = _point_key(a, b)
    if key in c.overrides:
        return c.overrides[key]
    return c.class_pair_color(classify(c.gamma, a), classify(c.gamma, b))


# -- homogeneous closed copies ----------------------------------------------


@dataclass(frozen=True)
class CopyCertificate:
    """Finite description of a homogeneous closed copy.

    Red kind: an increasing tail inside `tail_class` converging to
    `limit_point` (skipping `excluded`), followed by `top_points` — a closed
    copy of omega+n with n = len(top_points)+1, all pairs red.  Blue kind:
    `triangle` lists three points, pairwise blue.
    """

    kind: str  # "red-omega-plus-n" | "blue-3"
    tail_class: Optional[NodeClassId] = None
    limit_point: Optional[Ordinal] = None
    excluded: tuple[Ordinal, ...] = ()
    top_points: tuple[Ordinal, ...] = ()
    triangle: Optional[tuple[Ordinal, Ordinal, Ordinal]] = None


class _Slot(NamedTuple):
    """A search token: a point, or (point None) a fresh member of its class."""

    point: Optional[Ordinal]
    cls: NodeClassId


def _slot_color(c: QuotientColoring, s: _Slot, t: _Slot) -> Color:
    """Color taken by a realization of two slots (fresh points dodge overrides)."""
    if s.point is not None and t.point is not None:
        col = c.overrides.get(_point_key(s.point, t.point))
        if col is not None:
            return col
    return c.class_pair_color(s.cls, t.cls)


def _pool(c: QuotientColoring) -> list[_Slot]:
    """Search slots, from one walk of the classes: one per explicit point
    (override-touched or in a finite class), sorted, then one per infinite
    class.  Only a touched point outside the finite classes is classified."""
    named: dict[Ordinal, NodeClassId] = {}
    fresh: list[_Slot] = []
    for cid in valid_classes(c.gamma):
        if class_size(c.gamma, cid) is None:
            fresh.append(_Slot(None, cid))
        else:
            named.update(dict.fromkeys(node_class(c.gamma, cid), cid))
    for p in c.touched() - named.keys():
        named[p] = classify(c.gamma, p)
    return [_Slot(p, named[p]) for p in sorted(named)] + fresh


class _Conflicts(dict):
    """The pool's conflict rows for one color, each filled on its first
    read: row i is the mask of the later slots j > i whose pair with slot i
    takes the other color, so a clique of the color is an independent set.
    `repeat` masks the class slots whose within color is the color: two
    fresh members of a class take it, so such a slot may fill every pick."""

    def __init__(self, c: QuotientColoring, pool: list[_Slot], color: Color):
        super().__init__()
        self.c, self.pool, self.color = c, pool, color
        self.repeat = sum(1 << i for i, s in enumerate(pool)
                          if s.point is None and c.within[s.cls] == color)

    def __missing__(self, i: int) -> int:
        s, pool = self.pool[i], self.pool
        self[i] = sum(1 << j for j in range(i + 1, len(pool))
                      if _slot_color(self.c, s, pool[j]) != self.color)
        return self[i]


def _materialize(c: QuotientColoring, slots: list[_Slot],
                 above: Optional[Ordinal] = None) -> list[Ordinal]:
    """Realize slots as distinct points; fresh points avoid all touched ones.

    Each class is walked once, by one iterator: its fresh points are its
    first members (above `above`, when given) that no override and no point
    slot uses, in order.
    """
    banned = set(c.touched())
    banned.update(s.point for s in slots if s.point is not None)
    walks: dict[NodeClassId, Iterator[Ordinal]] = {}
    chosen: list[Ordinal] = []
    for s in slots:
        if s.point is not None:
            chosen.append(s.point)
            continue
        if s.cls not in walks:
            walks[s.cls] = node_class(c.gamma, s.cls, above)
        x = next((x for x in walks[s.cls] if x not in banned), None)
        if x is None:
            raise OrdinalError(f"could not realize a fresh member of {s.cls}")
        chosen.append(x)
    return chosen


def decide_blue_closed_3(c: QuotientColoring) -> Optional[CopyCertificate]:
    """Find three points, pairwise blue, or report that none exist.

    Any finite set is closed, so this is a triangle search.  It is enough to
    search a finite pool: each concrete point involved in an override or in a
    finite class, plus one "fresh member" token per infinite class (fresh
    points of a class are interchangeable, and two fresh points of one class
    need that class's within color).  Every actual triangle projects to a
    pool triple with the same pairwise colors, and every passing pool triple
    is realizable, so the search is exact.
    """
    pool = _pool(c)
    rows = _Conflicts(c, pool, BLUE)
    found = independent_set(rows, (1 << len(pool)) - 1, 3, rows.repeat)
    if found is None:
        return None
    points = _materialize(c, [pool[i] for i in found])
    a, b, d = sorted(points)
    return CopyCertificate(kind="blue-3", triangle=(a, b, d))


def _limit_candidates(c: QuotientColoring,
                      pool: list[_Slot]) -> list[Ordinal]:
    """Structurally distinct limit-point candidates, finitely many.

    Concrete candidates: every explicit point (point slot) of rank >= 1.
    Fresh candidates: for each infinite class (class slot) of level >= 1,
    one untouched member in each gap between consecutive explicit points —
    members of one class in one gap see the same classes accumulating below
    and the same points available above, so one representative per (class,
    gap) suffices.  A class lies strictly inside its component (base, top),
    so only the gaps that meet that interval are walked, each up to its
    first usable member.
    """
    touched = c.touched()
    explicit = [s.point for s in pool if s.point is not None]
    out = {p for p in explicit if p.cb_rank() >= 1}
    skip = len(touched) + len(explicit) + 3
    bounds: list[Optional[Ordinal]] = [None] + explicit + [None]
    for s in pool:
        cid = s.cls
        if s.point is not None or cid.level < 1:
            continue
        first = bisect_right(explicit, partial_sum(c.gamma, cid.index - 1))
        last = bisect_left(explicit, partial_sum(c.gamma, cid.index))
        for lo, hi in zip(bounds[first:last + 1], bounds[first + 1:last + 2]):
            for x in islice(node_class(c.gamma, cid, lo), skip):
                if hi is not None and not x < hi:
                    break
                if x not in touched and x not in out:
                    out.add(x)
                    break
    return sorted(out)


def decide_red_closed_omega_plus_n(
        c: QuotientColoring, n: int) -> Optional[CopyCertificate]:
    """Find a red closed copy of omega+n, or report that none exists.

    A closed copy of omega+n is an increasing omega-sequence together with
    its supremum p and n-1 further points above p.  Some class receives
    infinitely many sequence points, and that subsequence is again a valid
    tail, so it suffices to search: a limit candidate p, a single tail class
    accumulating at p with red within color and red cross to p's class, and
    n-1 top slots (fresh members of infinite classes with points above p, or
    concrete explicit points above p), all pairwise red and red to p and to
    the tail class.  Away from overrides all these colors are class-level
    facts, and fresh points never meet an override, so the finite search is
    exact; the certificate's excluded list removes touched points from the
    tail.  An n above MAX_N is refused before any search.
    """
    if n < 1:
        raise OrdinalError(f"need n >= 1, got {n}")
    if n > MAX_N:
        raise SizeLimitError(
            f"n={n} is more than the limit of {MAX_N} for a red closed "
            "omega+n")
    touched = c.touched()
    pool = _pool(c)
    rows = _Conflicts(c, pool, RED)  # shared by every candidate and tail
    for p in _limit_candidates(c, pool):
        p_cls = classify(c.gamma, p)
        top_of_component = partial_sum(c.gamma, p_cls.index)
        tails = [NodeClassId(p_cls.index, ell) for ell in range(p.cb_rank())]
        tails = [t for t in tails
                 if c.within[t] == RED and c.class_pair_color(t, p_cls) == RED]
        if not tails:
            continue
        limit = _Slot(p, p_cls)
        # slots realizable above p and red to p; an infinite class of p's
        # component reaches above p unless p is the component's top
        above = [i for i, s in enumerate(pool)
                 if (p < s.point if s.point is not None
                     else s.cls.index > p_cls.index
                     or (s.cls.index == p_cls.index and p != top_of_component))
                 and _slot_color(c, s, limit) == RED]
        for tail in tails:
            usable = sum(1 << i for i in above
                         if c.class_pair_color(pool[i].cls, tail) == RED)
            combo = independent_set(rows, usable, n - 1, rows.repeat)
            if combo is None:
                continue
            tops = _materialize(c, [pool[i] for i in combo], above=p)
            return CopyCertificate(
                kind="red-omega-plus-n",
                tail_class=tail,
                limit_point=p,
                excluded=tuple(sorted(touched)),
                top_points=tuple(sorted(tops)),
            )
    return None


def check_certificate(c: QuotientColoring, cert: CopyCertificate) -> bool:
    """Re-verify a certificate exactly, independently of the search.

    Blue kind: the three triangle points must be distinct, below gamma, and
    pairwise blue.  Red kind: the shape is checked (valid accumulating tail
    class, increasing top points above the limit); the tail is the whole
    approach sequence toward the limit minus `excluded`, an infinite subset
    of the tail class.  Away from overrides its pairs take the tail class's
    within color and its cross colors to the classes of the limit and the
    tops, so those must be red, and so must every override joining a tail
    point to a tail point, the limit or a top.  Pairs among the limit and
    the tops are read directly, pairwise, so a red certificate with more
    than MAX_N - 1 tops (more than any search returns) is refused unread.
    No tail point is sampled.
    """
    if not isinstance(cert, CopyCertificate):
        raise ValueError("not a certificate")
    if cert.kind == "blue-3":
        if cert.triangle is None or len(cert.triangle) != 3:
            raise ValueError("blue certificate needs a triangle")
        tri = cert.triangle
        if len(set(tri)) != 3 or not all(x < c.gamma for x in tri):
            return False
        return all(color_of(c, a, b) == BLUE for a, b in combinations(tri, 2))
    if cert.kind != "red-omega-plus-n":
        raise ValueError(f"unknown certificate kind {cert.kind!r}")
    if len(cert.top_points) >= MAX_N:
        raise SizeLimitError(
            f"the certificate has {len(cert.top_points)} top points, more "
            f"than the limit of {MAX_N - 1}")
    if cert.tail_class is None or cert.limit_point is None:
        raise ValueError("red certificate needs a tail class and a limit point")
    tail_cls, p = _as_class(cert.tail_class), cert.limit_point
    if not is_valid_class(c.gamma, tail_cls) or not p < c.gamma:
        return False
    if classify(c.gamma, p).index != tail_cls.index or \
            not tail_cls.level < p.cb_rank():
        return False
    tops = list(cert.top_points)
    if any(not p < t < c.gamma for t in tops):
        return False
    if any(not a < b for a, b in zip(tops, tops[1:])):
        return False
    ends = [p] + tops
    classes = [tail_cls] + [classify(c.gamma, x) for x in ends]
    if any(c.class_pair_color(tail_cls, k) != RED for k in classes):
        return False
    avoid = set(cert.excluded)

    def in_tail(x: Ordinal) -> bool:
        return x not in avoid and on_approach(p, tail_cls.level, x)

    for (a, b), col in c.overrides.items():
        if col != RED and ((in_tail(a) and (in_tail(b) or b in ends))
                           or (in_tail(b) and a in ends)):
            return False
    # the ends increase and lie below gamma, so (a, b) is the pair's key
    return all(c.overrides.get((a, b), c.class_pair_color(ka, kb)) == RED
               for (a, ka), (b, kb) in combinations(zip(ends, classes[1:]), 2))


# -- JSON round-trips --------------------------------------------------------


def coloring_to_json(c: QuotientColoring) -> str:
    """The coloring with complete class tables: every class and every class
    pair, low-first, red ones included."""
    classes = sorted(c.within)
    doc = {
        "gamma": str(c.gamma),
        "within": [{"class": [cid.index, cid.level], "color": c.within[cid]}
                   for cid in classes],
        "cross": [{"a": [a.index, a.level], "b": [b.index, b.level],
                   "color": c.cross.get((a, b), RED)}
                  for a, b in combinations(classes, 2)],
        "overrides": [{"a": str(a), "b": str(b), "color": col}
                      for (a, b), col in sorted(c.overrides.items())],
    }
    return json.dumps(doc, indent=2)


def coloring_from_json(text: str) -> QuotientColoring:
    """Read a coloring file: a JSON object whose tables are JSON lists of
    objects.  Only gamma and that shape are read here; build reads every
    entry.

    A key given twice in one object is refused by `read_json`.
    """
    doc = read_json(text)
    if type(doc) is not dict:
        raise TypeError("the coloring is not a JSON object")
    gamma = _as_ordinal(doc["gamma"], "gamma")

    def table(name: str, key_of) -> list:
        entries = doc.get(name, [])
        if type(entries) is not list:
            raise OrdinalError(f"table {name} is not a list")
        if any(type(e) is not dict for e in entries):
            raise OrdinalError(f"an entry of table {name} is not an object")
        return [(key_of(e), e["color"]) for e in entries]

    pair = itemgetter("a", "b")
    return QuotientColoring.build(
        gamma, within=table("within", itemgetter("class")),
        cross=table("cross", pair), overrides=table("overrides", pair))


def certificate_doc(cert: CopyCertificate) -> dict:
    """The certificate as a JSON-ready object, as `certificate_to_json`
    writes it."""
    return {
        "kind": cert.kind,
        "tail_class": (None if cert.tail_class is None
                       else [cert.tail_class.index, cert.tail_class.level]),
        "limit_point": (None if cert.limit_point is None
                        else str(cert.limit_point)),
        "excluded": [str(x) for x in cert.excluded],
        "top_points": [str(x) for x in cert.top_points],
        "triangle": (None if cert.triangle is None
                     else [str(x) for x in cert.triangle]),
    }


def certificate_to_json(cert: CopyCertificate) -> str:
    return json.dumps(certificate_doc(cert), indent=2)


def certificate_from_json(text: str) -> CopyCertificate:
    doc = read_json(text)
    if type(doc) is not dict:
        raise TypeError("the certificate is not a JSON object")

    def points(name: str) -> tuple[Ordinal, ...]:
        # a JSON list of points; a string would be read a character a point
        xs = doc.get(name, [])
        if type(xs) is not list:
            raise TypeError(f"certificate field {name} is not a list")
        return tuple(map(_as_ordinal, xs))
    return CopyCertificate(
        kind=doc["kind"],
        tail_class=(None if doc.get("tail_class") is None
                    else _as_class(doc["tail_class"])),
        limit_point=(None if doc.get("limit_point") is None
                     else _as_ordinal(doc["limit_point"])),
        excluded=points("excluded"),
        top_points=points("top_points"),
        triangle=None if doc.get("triangle") is None else points("triangle"),
    )
