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
from functools import cached_property
from itertools import combinations, islice
from operator import attrgetter, itemgetter
from typing import Iterator, Mapping, NamedTuple, Optional

from .ordinals import (
    ZERO,
    NodeClassId,
    Ordinal,
    OrdinalError,
    SizeLimitError,
    class_count,
    classify,
    is_valid_class,
    node_class,
    on_approach,
    parse,
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
_terms = attrgetter("terms")  # a sort key: ordinals compare as their terms

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
        own = dict(zip(classes, classes))

        def valid(k) -> Optional[NodeClassId]:
            # a JSON list of two exact ints is looked up whole; any other
            # shape, or an invalid class, answers None and is read as before
            if type(k) is list and len(k) == 2:
                i, j = k
                if type(i) is int and type(j) is int:
                    return own.get((i, j))
            return None

        def class_key(k) -> NodeClassId:
            cid = valid(k)
            if cid is None:
                cid = _as_class(k)
                if cid not in own:
                    raise OrdinalError(f"within references invalid class {cid}")
            return cid

        def pair_key(k) -> ClassPair:
            a = valid(k[0])
            b = None if a is None else valid(k[1])
            if b is None or a == b:
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

    @cached_property
    def _search(self) -> "_Pool":
        """The deciders' search state, built on their first call."""
        return _Pool(self)


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


def _bases(gamma: Ordinal) -> list[Ordinal]:
    """The class geometry the deciders read, from one walk of gamma's terms:
    entry k is partial_sum(gamma, k), k = 0 .. component_count(gamma), so
    component k lies in (entry k-1, entry k] and its exponent is the cb_rank
    of entry k."""
    out, head = [ZERO], ()
    for exp, coeff in gamma.terms:
        out += (Ordinal(head + ((exp, k),)) for k in range(1, coeff + 1))
        head += ((exp, coeff),)
    return out


class _Pool(list):
    """The deciders' search state, built once per coloring and kept by it
    (`QuotientColoring._search`); it refers to neither the coloring nor
    itself, so reference counting frees it with the coloring.  The slots
    come from one walk of the classes: one per explicit point (override-
    touched or in a finite class), sorted, then one per infinite class.  A
    finite class holds its component's top, when that is below gamma, and
    0 when it is class (1, 0); only a touched point outside the finite
    classes is classified, against the component bases.
    `points` are the explicit points, sorted, at the first positions, and
    `fresh` the component index of each class slot after them.  `bases` is
    the class geometry (`_bases`).  `blue[cid]` masks the slots whose class
    pair with class cid is blue: the slots of every class joined to cid by
    a blue cross pair, and cid's own slots when its within color is blue.
    `forced[x]` holds an overridden point's override bits, red then blue,
    on the slots of the other points of its overrides.  `rows[color]` are
    the conflict rows of a color (`_Conflicts`), and `candidates` the red
    decider's limit candidates (`_limit_candidates`), read on first use.
    """

    def __init__(self, c: QuotientColoring):
        self.gamma, self.touched = c.gamma, c.touched()
        self.bases = bases = _bases(c.gamma)
        exps = [b.cb_rank() for b in bases[1:]]
        fresh = [_Slot(None, NodeClassId(i, level))
                 for i, exp in enumerate(exps, 1) for level in range(exp)]
        # the last component's top is gamma itself, not a point below it
        named = {bases[i]: NodeClassId(i, exp)
                 for i, exp in enumerate(exps[:-1], 1)}
        if exps[0] == 0:
            named[ZERO] = NodeClassId(1, 0)
        for p in self.touched - named.keys():
            # the least k >= 1 with p <= partial_sum(gamma, k), and p's rank
            named[p] = NodeClassId(bisect_left(bases, p, 1), p.cb_rank())
        self.points = sorted(named, key=_terms)
        super().__init__([_Slot(p, named[p]) for p in self.points] + fresh)
        self.fresh = [cid.index for _, cid in fresh]
        slots_of = dict.fromkeys(c.within, 0)
        repeat = [0, 0]  # per color, the class slots of that within color
        for i, (p, cid) in enumerate(self):
            slots_of[cid] |= 1 << i
            if p is None:
                repeat[c.within[cid]] |= 1 << i
        blue = {cid: slots_of[cid] if col == BLUE else 0
                for cid, col in c.within.items()}
        for (a, b), col in c.cross.items():
            if col == BLUE:
                blue[a] |= slots_of[b]
                blue[b] |= slots_of[a]
        self.blue = blue
        self.forced: dict[Ordinal, list[int]] = {}
        if c.overrides:
            at = {p: i for i, p in enumerate(self.points)}
            for (a, b), col in c.overrides.items():
                self.forced.setdefault(a, [0, 0])[col] |= 1 << at[b]
                self.forced.setdefault(b, [0, 0])[col] |= 1 << at[a]
        masks = [self.blue_to(cid, p) for p, cid in self]
        self.rows = [_Conflicts(masks, color, repeat[color])
                     for color in (RED, BLUE)]

    @cached_property
    def candidates(self) -> list[tuple[Ordinal, NodeClassId]]:
        return _limit_candidates(self)

    def blue_to(self, cls: NodeClassId, point: Optional[Ordinal]) -> int:
        """The slots blue to a point of class cls (None: a fresh point): the
        class mask with the point's override bits applied, so a fresh or
        untouched point takes the class mask as it is."""
        forced = self.forced.get(point)
        if forced is None:
            return self.blue[cls]
        return (self.blue[cls] | forced[BLUE]) & ~forced[RED]

    def red_above(self, p: Ordinal, p_cls: NodeClassId) -> int:
        """The slots realizable above p and red to p: the explicit points
        above p, and the class slots of later components and of p's own,
        which reaches above p unless p is the component's top."""
        first = bisect_right(self.points, p)
        own = p_cls.index + (p == self.bases[p_cls.index])
        start = len(self.points) + bisect_left(self.fresh, own)
        above = ((1 << len(self.points)) - (1 << first)
                 | (1 << len(self)) - (1 << start))
        return above & ~self.blue_to(p_cls, p)


class _Conflicts(dict):
    """A pool's conflict rows for one color, each filled on its first read:
    row i is the mask of the later slots j > i whose pair with slot i takes
    the other color, so a clique of the color is an independent set.  A
    row is slot i's blue mask (`masks[i]`, `_Pool.blue_to` of the slot),
    complemented for a blue search, cut to the bits above i.  `repeat`
    masks the class slots whose within color is the color: two fresh
    members of a class take it, so such a slot may fill every pick."""

    def __init__(self, masks: list[int], color: Color, repeat: int):
        super().__init__()
        self.masks, self.color, self.repeat = masks, color, repeat
        self.end = 1 << len(masks)

    def __missing__(self, i: int) -> int:
        other = self.masks[i]
        if self.color == BLUE:
            other = ~other
        self[i] = other & (self.end - (2 << i))
        return self[i]


def _materialize(pool: _Pool, slots: list[_Slot],
                 above: Optional[Ordinal] = None) -> list[Ordinal]:
    """Realize slots as distinct points; fresh points avoid all touched ones.

    Each class is walked once, by one iterator: its fresh points are its
    first members (above `above`, when given) that no override and no point
    slot uses, in order.
    """
    banned = pool.touched.union(s.point for s in slots if s.point is not None)
    walks: dict[NodeClassId, Iterator[Ordinal]] = {}
    chosen: list[Ordinal] = []
    for s in slots:
        if s.point is not None:
            chosen.append(s.point)
            continue
        if s.cls not in walks:
            walks[s.cls] = node_class(pool.gamma, s.cls, above)
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
    pool = c._search
    rows = pool.rows[BLUE]
    found = independent_set(rows, (1 << len(pool)) - 1, 3, rows.repeat)
    if found is None:
        return None
    a, b, d = sorted(_materialize(pool, [pool[i] for i in found]))
    return CopyCertificate(kind="blue-3", triangle=(a, b, d))


def _limit_candidates(pool: _Pool) -> list[tuple[Ordinal, NodeClassId]]:
    """Structurally distinct limit-point candidates, finitely many, in
    order, each with its class: a point slot's, or the one it was walked in.

    Concrete candidates: every explicit point (point slot) of rank >= 1.
    Fresh candidates: for each infinite class (class slot) of level >= 1,
    one untouched member in each gap between consecutive explicit points —
    members of one class in one gap see the same classes accumulating below
    and the same points available above, so one representative per (class,
    gap) suffices.  A class lies strictly inside its component (base, top),
    so only the gaps that meet that interval are walked, each up to its
    first usable member.
    """
    explicit = pool.points
    out = {p: cid for p, cid in pool if p is not None and p.cb_rank() >= 1}
    skip = len(pool.touched) + len(explicit) + 3
    bounds: list[Optional[Ordinal]] = [None] + explicit + [None]
    for p, cid in pool:
        if p is not None or cid.level < 1:
            continue
        first = bisect_right(explicit, pool.bases[cid.index - 1])
        last = bisect_left(explicit, pool.bases[cid.index])
        for lo, hi in zip(bounds[first:last + 1], bounds[first + 1:last + 2]):
            for x in islice(node_class(pool.gamma, cid, lo), skip):
                if hi is not None and not x < hi:
                    break
                if x not in pool.touched and x not in out:
                    out[x] = cid
                    break
    return sorted(out.items(), key=lambda candidate: candidate[0].terms)


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
    tail.  The search reads the pool's class masks: the slots above p and
    red to p are one mask (`_Pool.red_above`), and a tail's usable slots
    are that mask less the tail class's blue mask; the pool, its red rows
    and its candidates serve every n.  An n above MAX_N is refused first.
    """
    if n < 1:
        raise OrdinalError(f"need n >= 1, got {n}")
    if n > MAX_N:
        raise SizeLimitError(
            f"n={n} is more than the limit of {MAX_N} for a red closed "
            "omega+n")
    pool = c._search
    rows = pool.rows[RED]
    for p, p_cls in pool.candidates:
        tails = [NodeClassId(p_cls.index, ell) for ell in range(p.cb_rank())]
        tails = [t for t in tails
                 if c.within[t] == RED and c.class_pair_color(t, p_cls) == RED]
        if not tails:
            continue
        above = pool.red_above(p, p_cls)
        for tail in tails:
            usable = above & ~pool.blue[tail]
            combo = independent_set(rows, usable, n - 1, rows.repeat)
            if combo is None:
                continue
            tops = _materialize(pool, [pool[i] for i in combo], above=p)
            return CopyCertificate(
                kind="red-omega-plus-n",
                tail_class=tail,
                limit_point=p,
                excluded=tuple(sorted(pool.touched)),
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
