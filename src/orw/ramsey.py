"""Classical Ramsey data: witness graphs, exact small values, relabeling.

A witness graph for R(n,3) > N is a triangle-free graph on N vertices with no
independent set of size n (graph edges play the role of blue pairs).  This
module verifies witnesses exhaustively, computes R(n,3) for n <= 4 by
isomorph-free exhaustive search, ships verified circulant witnesses for
n = 3, 4, 5, and loads larger values from a versioned table with explicit
provenance flags.

The search (McKay, "Isomorph-free exhaustive generation", J. Algorithms
1998) runs upward once, extending each order's survivors by one vertex and
keeping the first graph found in each isomorphism class, on adjacency
bitmasks throughout.  Duplicates are found by a backtracking isomorphism
test between graphs with equal sorted vertex labels (degree, then the
neighbours' sorted degrees: the first refinement of McKay & Piperno,
"Practical graph isomorphism, II", J. Symb. Comput. 2014); canonical forms
are computed only for the level an answer is drawn from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import combinations, islice
from typing import Iterator, NamedTuple, Optional

from .ordinals import SizeLimitError, read_json

__all__ = [
    "WitnessGraph",
    "WitnessReport",
    "RamseyRecord",
    "TableEntry",
    "circulant",
    "find_triangle",
    "independent_set",
    "verify_witness",
    "canonical_form",
    "search_witnesses",
    "brute_force_ramsey",
    "builtin_record",
    "relabel_red_prefix",
    "load_ramsey_table",
    "ramsey_value",
    "witness_to_json",
    "witness_from_json",
    "MAX_ORDER",
]

MAX_ORDER = 10_000  # a larger witness order is refused unbuilt


class RamseyError(ValueError):
    """Raised for invalid witness data or unsupported queries."""


@dataclass(frozen=True)
class WitnessGraph:
    """A simple graph on vertices 0..order-1 with an immutable edge set."""

    order: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.order < 0:
            raise RamseyError("order must be nonnegative")
        for a, b in self.edges:
            if not (0 <= a < b < self.order):
                raise RamseyError(f"bad edge ({a},{b}) for order {self.order}")

    @classmethod
    def from_pairs(cls, order: int, pairs) -> "WitnessGraph":
        edges = set()
        for a, b in pairs:
            if a == b:
                raise RamseyError(f"loop at vertex {a}")
            edges.add((min(a, b), max(a, b)))
        return cls(order, frozenset(edges))

    def adjacency_masks(self) -> list[int]:
        masks = [0] * self.order
        for a, b in self.edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return masks

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def is_independent(self, vertices) -> bool:
        return not any(self.has_edge(a, b)
                       for a, b in combinations(vertices, 2))

    def relabel(self, perm: list[int]) -> "WitnessGraph":
        """Apply a permutation: vertex v of self becomes perm[v]."""
        if sorted(perm) != list(range(self.order)):
            raise RamseyError("not a permutation")
        return WitnessGraph.from_pairs(
            self.order, ((perm[a], perm[b]) for a, b in self.edges))


def circulant(order: int, steps) -> WitnessGraph:
    """The circulant graph: i adjacent to i +- s (mod order) for each step."""
    pairs = [(i, (i + s) % order) for i in range(order) for s in steps]
    return WitnessGraph.from_pairs(order, pairs)


class WitnessReport(NamedTuple):
    ok: bool
    triangle: Optional[tuple[int, int, int]]
    independent_set: Optional[tuple[int, ...]]


def find_triangle(g: WitnessGraph) -> Optional[tuple[int, int, int]]:
    """The lexicographically first triangle, or None."""
    masks = g.adjacency_masks()
    for a, b in sorted(g.edges):
        common = masks[a] & masks[b]
        if common:
            return tuple(sorted((a, b, (common & -common).bit_length() - 1)))
    return None


def independent_set(masks, within: int, size: int,
                    repeat: int = 0) -> Optional[tuple[int, ...]]:
    """The lexicographically first independent set of the given size among
    the vertices of the mask `within`, or None (always, for a negative size).
    A vertex of the mask `repeat` may be taken again: once picked, it fills
    every remaining pick.

    A depth-first search, lowest vertex first, that leaves a branch once
    its candidates cannot make up the size and hold no repeat vertex.  The
    picks are kept on an explicit stack, so their number is not bounded by
    the recursion limit.  `masks[v]` is read only for a picked v (not the
    last pick), and only for its bits above v, as every candidate left is
    above the pick: a row may leave out earlier vertices, and may be
    computed when it is first read.
    """
    if size <= 0:
        return () if size == 0 else None
    picked: list[int] = []
    left: list[int] = []  # the candidates after each pick, at its depth
    need = size
    while True:
        while within.bit_count() >= need or within & repeat:
            low = within & -within
            within ^= low
            v = low.bit_length() - 1
            if low & repeat:
                return tuple(picked) + (v,) * need
            picked.append(v)
            need -= 1
            if not need:
                return tuple(picked)
            left.append(within)
            within &= ~masks[v]
        if not picked:
            return None
        picked.pop()  # no candidate left at this depth: undo the last pick
        within = left.pop()
        need += 1


def _find_independent_set(g: WitnessGraph, size: int) -> Optional[tuple[int, ...]]:
    return independent_set(g.adjacency_masks(), (1 << g.order) - 1, size)


def _check_n(n: int) -> None:
    """Refuse n < 1: an independent set of that size is nothing to avoid."""
    if n < 1:
        raise RamseyError(f"the search needs n >= 1, got {n}")


def verify_witness(g: WitnessGraph, n: int) -> WitnessReport:
    """True iff g is triangle-free and has no independent set of size n,
    for n >= 1 (a smaller n is refused)."""
    _check_n(n)
    tri = find_triangle(g)
    if tri is not None:
        return WitnessReport(False, tri, None)
    ind = _find_independent_set(g, n)
    if ind is not None:
        return WitnessReport(False, None, ind)
    return WitnessReport(True, None, None)


# -- isomorph-free exhaustive search ----------------------------------------


def _canonical_bits(masks, order: int) -> int:
    """canonical_form as one int whose most significant bit comes first.

    Every unplaced vertex carries its row key, the adjacency bits to the
    placed vertices in placement order, as an int grown by one bit per
    placement; keys of one step have equal length, so comparing them as ints
    is comparing the rows lexicographically.
    """
    total = order * (order - 1) // 2
    best: Optional[int] = None

    def rec(keys: list[tuple[int, int]], acc: int, placed: int, length: int):
        nonlocal best
        if not keys:
            if best is None or acc < best:
                best = acc
            return
        least = min(key for _, key in keys)
        acc = acc << placed | least
        length += placed
        if best is not None and acc > best >> (total - length):
            return
        for v, key in keys:
            if key == least:
                rec([(u, ku << 1 | masks[u] >> v & 1)
                     for u, ku in keys if u != v], acc, placed + 1, length)

    rec([(v, 0) for v in range(order)], 0, 0, 0)
    return best


def canonical_form(g: WitnessGraph) -> tuple[int, ...]:
    """Lexicographically least row-by-row adjacency bit string over orderings.

    Row i holds the adjacency bits of the i-th vertex to the i earlier ones.
    Vertices are placed one at a time, and only candidates whose next row is
    minimal are branched on, which is exact for the minimum; a branch whose
    prefix already exceeds the best string's is cut.  The search runs on
    adjacency masks and int prefixes (`_canonical_bits`).
    """
    total = g.order * (g.order - 1) // 2
    bits = _canonical_bits(g.adjacency_masks(), g.order)
    return tuple(bits >> i & 1 for i in range(total - 1, -1, -1))


def _independent_subsets(masks, k: int) -> Iterator[int]:
    """All subsets of 0..k-1 that are independent, as bitmasks."""

    def extend(mask: int, banned: int, start: int):
        yield mask
        for v in range(start, k):
            if not (banned >> v) & 1:
                yield from extend(mask | (1 << v), banned | masks[v], v + 1)

    yield from extend(0, 0, 0)


def _labels(masks) -> list[tuple[int, tuple[int, ...]]]:
    """Each vertex's degree and its neighbours' sorted degrees: a label
    every isomorphism carries to the image vertex's label."""
    degrees = [m.bit_count() for m in masks]
    return [(d, tuple(sorted(degrees[u] for u in range(len(masks))
                             if m >> u & 1)))
            for d, m in zip(degrees, masks)]


def _isomorphic(a, a_labels, b, b_labels) -> bool:
    """Whether a label-preserving bijection carries graph a onto graph b,
    given that their sorted labels are equal.

    Backtracking places a's vertices in order, each on an unused vertex of
    b with its label whose adjacency to the images placed so far is the
    image of its own adjacency to their preimages.
    """
    image = [0] * len(a)  # the bit of each placed vertex's image in b

    def place(v: int, used: int) -> bool:
        if v == len(a):
            return True
        # the images are distinct bits, so their sum is their union
        want = sum(image[u] for u in range(v) if a[v] >> u & 1)
        for w, label in enumerate(b_labels):
            if (label == a_labels[v] and not used >> w & 1
                    and b[w] & used == want):
                image[v] = 1 << w
                if place(v + 1, used | 1 << w):
                    return True
        return False

    return place(0, 0)


def _levels(n: int) -> Iterator[list[tuple[int, ...]]]:
    """The survivors of orders 1, 2, ...: one representative per
    isomorphism class, as adjacency masks, in the order found.

    Survivors are the triangle-free graphs with no independent n-set; with
    n >= 1 the empty graph of order 0 is one.  Each order-k survivor is
    extended once, by a vertex k joined to each of its independent sets in
    turn (so no triangle appears).  The survivor had no independent n-set,
    so the extension has one exactly when vertex k's non-neighbours hold an
    independent (n-1)-set.  The first graph found in a class is kept: an
    extension is dropped when `_isomorphic` maps it onto a kept graph with
    the same sorted `_labels`.  Stops after the first empty level.
    """
    level: list[tuple[int, ...]] = [()]
    k = 0
    while level:
        below = (1 << k) - 1
        nxt: list[tuple[int, ...]] = []
        kept: dict[tuple, list] = {}  # sorted labels -> (masks, labels)
        for masks in level:
            for nb in _independent_subsets(masks, k):
                if independent_set(masks, below & ~nb, n - 1) is not None:
                    continue
                new = tuple(m | (nb >> v & 1) << k
                            for v, m in enumerate(masks)) + (nb,)
                labels = _labels(new)
                bucket = kept.setdefault(tuple(sorted(labels)), [])
                if not any(_isomorphic(new, labels, old, old_labels)
                           for old, old_labels in bucket):
                    bucket.append((new, labels))
                    nxt.append(new)
        yield nxt
        level = nxt
        k += 1


def search_witnesses(order: int, n: int) -> list[WitnessGraph]:
    """Non-isomorphic triangle-free graphs of given order with no independent
    n-set, sorted by canonical form: the level `_levels` reaches at that
    order, with one canonical form computed per graph returned."""
    _check_n(n)
    level: list[tuple[int, ...]] = [()]
    for level in islice(_levels(n), order):
        pass
    return [_graph_from_masks(order, masks)
            for masks in sorted(level,
                                key=lambda m: _canonical_bits(m, order))]


def _graph_from_masks(order: int, masks) -> WitnessGraph:
    pairs = [(a, b) for a in range(order) for b in range(a + 1, order)
             if masks[a] >> b & 1]
    return WitnessGraph.from_pairs(order, pairs)


@dataclass(frozen=True)
class RamseyRecord:
    """An R(n,3) value with its certifying witness and provenance.

    A "user-file" record's value is its witness's order + 1, which is only
    a lower bound on R(n,3): a witness shows R(n,3) > order, no more.  The
    witness is verified once per record, on the first read of `report`,
    and every later check reads that report."""

    n: int
    value: int
    witness: WitnessGraph
    source: str  # "builtin" | "computed" | "user-file"

    @cached_property
    def report(self) -> WitnessReport:
        """verify_witness on the witness."""
        return verify_witness(self.witness, self.n)

    def verified(self) -> bool:
        return self.witness.order == self.value - 1 and self.report.ok


def brute_force_ramsey(n: int) -> RamseyRecord:
    """Exact R(n,3) for n in {2,3,4}: the least order admitting no witness.

    Takes the levels of one upward search (`_levels`): the survivors of an
    order are the triangle-free graphs with independence number < n, so the
    first empty order is the value, and the survivor with the least
    canonical form one order below is the extremal witness returned (the
    first graph `search_witnesses` lists for that order).  Canonical forms
    are computed for that last nonempty level only.
    """
    if n not in (2, 3, 4):
        raise RamseyError(f"exact search supports n in 2..4, got {n}")
    previous: list[tuple[int, ...]] = []
    for order, level in enumerate(_levels(n), start=1):
        if not level:
            return RamseyRecord(n, order, _graph_from_masks(
                order - 1, min(previous, key=lambda m: _canonical_bits(
                    m, order - 1))), "computed")
        previous = level
    raise AssertionError("unreachable: the search ends on an empty level")


# -- builtin witnesses and the value table -----------------------------------


_BUILTINS = {
    3: RamseyRecord(3, 6, circulant(5, (1,)), "builtin"),
    4: RamseyRecord(4, 9, circulant(8, (1, 4)), "builtin"),
    5: RamseyRecord(5, 14, circulant(13, (1, 5)), "builtin"),
}

for _n, _rec in _BUILTINS.items():  # verified here, once, for every caller
    if not _rec.verified():
        raise RamseyError(
            f"builtin witness for n={_n} failed verification: {_rec.report}")


def builtin_record(n: int) -> RamseyRecord:
    if n not in _BUILTINS:
        raise RamseyError(f"no builtin witness for n={n} (have 3, 4, 5)")
    return _BUILTINS[n]


def relabel_red_prefix(rec: RamseyRecord) -> RamseyRecord:
    """Permute the witness so vertices 0..n-2 are pairwise non-adjacent.

    An independent set of that size is guaranteed only in an extremal
    witness, of order R(n,3)-1: without one the graph would show
    R(n-1,3) > R(n,3)-1.  A smaller verified witness may lack it, and is
    refused by that size.  A vertex permutation keeps "triangle-free with
    no independent n-set", so the output carries the input's report and
    is not verified again.
    """
    g = rec.witness
    if not rec.verified():
        raise RamseyError("relabeling requires a verified record")
    k = rec.n - 1
    if g.is_independent(range(k)):
        return rec
    ind = _find_independent_set(g, k)
    if ind is None:
        raise RamseyError(f"the witness has no independent set of size {k}")
    perm = [0] * g.order
    rest = [v for v in range(g.order) if v not in set(ind)]
    for pos, v in enumerate(list(ind) + rest):
        perm[v] = pos
    out = RamseyRecord(rec.n, rec.value, g.relabel(perm), rec.source)
    out.__dict__["report"] = rec.report  # where cached_property keeps it
    return out


class TableEntry(NamedTuple):
    value: int
    source: str  # "computed" | "external"


def _json_int(x, what: str) -> int:
    """x itself if it is a JSON integer, not a float, string or boolean."""
    if type(x) is not int:
        raise TypeError(f"{what} {json.dumps(x)} is not an integer")
    return x


def load_ramsey_table(path: Optional[str] = None) -> dict[int, TableEntry]:
    """The R(n,3) value table: packaged defaults or a user-supplied file.

    In the object `values`, every key must be a decimal integer n >= 1
    written without sign, spaces or leading zeros, and given once; every
    value a JSON integer of at least n, as the edgeless graph on n-1
    vertices shows; every source "computed" or "external", and in a user
    file a computed value the search gives.  Anything else is refused as a
    malformed table, never coerced or rounded.
    """
    if path is None:
        text = resources.files("orw.data").joinpath(
            "ramsey_table.json").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    out = {}
    try:
        doc = read_json(text)
        if type(doc) is not dict:
            raise TypeError("the table is not a JSON object")
        if type(doc["values"]) is not dict:
            raise TypeError("table field values is not an object")
        for key, entry in doc["values"].items():
            if not (key.isascii() and key.isdigit()
                    and not key.startswith("0")):
                raise ValueError(
                    f"key {json.dumps(key)} is not an integer n >= 1")
            if isinstance(entry, dict):
                value, source = entry["value"], entry["source"]
            else:  # a bare number defaults to externally sourced
                value, source = entry, "external"
            value = _json_int(value, f"R({key},3) value")
            if value < int(key):
                raise ValueError(f"R({key},3) value {value} is below {key}")
            if source not in ("computed", "external"):
                raise ValueError(f"R({key},3) source {json.dumps(source)} "
                                 "is neither computed nor external")
            if source == "computed" and path is not None:
                if int(key) not in (2, 3, 4):
                    raise ValueError(f"R({key},3) is not computed in-tree; "
                                     'its source must be "external"')
                computed = brute_force_ramsey(int(key)).value
                if value != computed:
                    raise ValueError(f"R({key},3) value {value} is not the "
                                     f"computed value {computed}")
            out[int(key)] = TableEntry(value, source)
    except (KeyError, TypeError, ValueError) as exc:
        raise RamseyError(f"malformed table file: {exc!r}") from exc
    return out


def ramsey_value(n: int, table: Optional[dict[int, TableEntry]] = None) -> TableEntry:
    """R(n,3) from the table, the packaged one by default."""
    if n < 1:
        raise RamseyError(f"R(n,3) needs n >= 1, got {n}")
    table = load_ramsey_table() if table is None else table
    if n in table:
        return table[n]
    if n == 2:  # small enough to compute on the spot
        return TableEntry(brute_force_ramsey(2).value, "computed")
    raise RamseyError(f"no R({n},3) value configured; add it to the table")


# -- JSON -------------------------------------------------------------------


def witness_to_json(rec: RamseyRecord) -> str:
    return json.dumps({
        "n": rec.n,
        "order": rec.witness.order,
        "edges": sorted([a, b] for a, b in rec.witness.edges),
    }, indent=2)


def witness_graph_from_doc(doc) -> WitnessGraph:
    """The graph of a parsed witness file: a JSON object whose order and
    every edge endpoint are JSON integers, and whose edges are a list of
    two-element lists.  An order above MAX_ORDER is refused before any
    edge or adjacency list is built."""
    if type(doc) is not dict:
        raise TypeError("the witness is not a JSON object")
    order = _json_int(doc["order"], "order")
    if order > MAX_ORDER:
        raise SizeLimitError(f"the witness has order {order}, more than "
                             f"the limit of {MAX_ORDER}")
    if type(doc["edges"]) is not list:
        raise TypeError("witness field edges is not a list")
    pairs = []
    for e in doc["edges"]:
        if type(e) is not list or len(e) != 2:
            raise TypeError(f"edge {json.dumps(e)} is not a pair")
        pairs.append(tuple(_json_int(v, "edge endpoint") for v in e))
    return WitnessGraph.from_pairs(order, pairs)


def witness_from_json(text: str) -> RamseyRecord:
    """A witness file's graph and n >= 1, unverified: the record's `report`
    verifies it on first read."""
    doc = read_json(text)
    g = witness_graph_from_doc(doc)
    n = _json_int(doc["n"], "n")
    _check_n(n)
    return RamseyRecord(n, g.order + 1, g, "user-file")
