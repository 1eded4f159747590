"""Seeded coloring inputs for `coloring decide` and an independent oracle.

The benchmark models the points of gamma = w^2*a + w*b + c itself, as
triples (x2, x1, x0) meaning w^2*x2 + w*x1 + x0 (tuple order is ordinal
order), so the brute-force blue-triangle search below shares no code with
the deciders it checks.
"""

from __future__ import annotations

import json
import random
import re

BLUE = 1
ZERO = (0, 0, 0)
_TERM = re.compile(r"^(?:w(?:\^(\d+))?(?:\*(\d+))?|(\d+))$")


class Space:
    """Components and node classes of w^2*a + w*b + c."""

    def __init__(self, a: int, b: int, c: int):
        self.exps = [2] * a + [1] * b + [0] * c
        self.gamma = (a, b, c)
        self.tops = [ZERO]  # tops[k] = sum of the first k components
        for e in self.exps:
            self.tops.append(self.plus(self.tops[-1], e, 1))

    @staticmethod
    def plus(p: tuple, e: int, k: int) -> tuple:
        """p + w^e * k."""
        x = list(p)
        x[2 - e] += k
        for lower in range(3 - e, 3):
            x[lower] = 0
        return tuple(x)

    def classify(self, p: tuple) -> tuple[int, int]:
        """(component index, cb rank) of a point below gamma."""
        index = 1
        while p > self.tops[index]:
            index += 1
        level = 0 if p[2] or p == ZERO else (1 if p[1] else 2)
        return index, level

    def classes(self) -> list[tuple[int, int]]:
        last = len(self.exps)
        return [(i, j) for i, e in enumerate(self.exps, start=1)
                for j in range(e + 1) if not (i == last and j == e)]

    def members(self, cls: tuple[int, int], count: int) -> list[tuple]:
        """The first `count` members of a class, increasing."""
        i, j = cls
        e = self.exps[i - 1]
        if j == e:
            return [self.tops[i]]
        out = [ZERO] if cls == (1, 0) else []
        k = 1
        while len(out) < count:
            out.append(self.plus(self.tops[i - 1], j, k))
            k += 1
        return out


def fmt(p: tuple) -> str:
    parts = []
    for e, coeff in zip((2, 1, 0), p):
        if coeff:
            base = {2: "w^2", 1: "w", 0: ""}[e]
            parts.append(str(coeff) if e == 0
                         else base if coeff == 1 else f"{base}*{coeff}")
    return "+".join(parts) or "0"


def unfmt(text: str) -> tuple:
    x = [0, 0, 0]
    if text != "0":
        for term in text.split("+"):
            m = _TERM.match(term)
            if m is None:
                raise ValueError(f"unexpected ordinal {text!r}")
            if m.group(3) is not None:
                x[2] += int(m.group(3))
            else:
                e = int(m.group(1) or 1)
                x[2 - e] += int(m.group(2) or 1)
    return tuple(x)


class ColoringCase:
    """One decide input: the lower-bound coloring for n plus overrides."""

    def __init__(self, n: int, base: "BaseColoring",
                 overrides: dict[tuple, int]):
        self.n = n
        self.base = base
        self.overrides = overrides

    def to_json(self) -> str:
        doc = dict(self.base.doc)
        doc["overrides"] = [{"a": fmt(a), "b": fmt(b), "color": col}
                            for (a, b), col in sorted(self.overrides.items())]
        return json.dumps(doc)

    def color(self, p: tuple, q: tuple) -> int:
        key = (p, q) if p < q else (q, p)
        if key in self.overrides:
            return self.overrides[key]
        space = self.base.space
        cp, cq = space.classify(p), space.classify(q)
        if cp == cq:
            return self.base.within[cp]
        return self.base.cross[(cp, cq) if cp < cq else (cq, cp)]

    def blue_triangle(self) -> bool:
        """Exhaustive search over the touched points plus, per class, enough
        untouched members to stand in for any triangle (members of a class
        that no override touches are interchangeable)."""
        space = self.base.space
        touched = {p for pair in self.overrides for p in pair}
        pts = set(touched)
        for cls in space.classes():
            extra = sum(1 for p in touched if space.classify(p) == cls)
            pts.update(space.members(cls, 3 + extra))
        pts = sorted(pts)
        adj = [0] * len(pts)
        for i, p in enumerate(pts):
            for j in range(i + 1, len(pts)):
                if self.color(p, pts[j]) == BLUE:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        return any(row >> j & 1 and row & adj[j]
                   for i, row in enumerate(adj)
                   for j in range(i + 1, len(pts)))


class BaseColoring:
    """The construction's coloring for n, as a doc plus lookup tables."""

    def __init__(self, n: int, ramsey_value: int, doc_text: str):
        self.n = n
        self.space = Space(n, ramsey_value - n, n - 1)
        doc = json.loads(doc_text)
        if unfmt(doc["gamma"]) != self.space.gamma:
            raise ValueError(f"gamma {doc['gamma']} does not match n={n}")
        self.doc = {k: doc[k] for k in ("gamma", "within", "cross")}
        self.within = {tuple(e["class"]): e["color"] for e in doc["within"]}
        self.cross = {(tuple(e["a"]), tuple(e["b"])): e["color"]
                      for e in doc["cross"]}

    def random_case(self, rng: random.Random) -> ColoringCase:
        """This coloring with 0-16 random point overrides."""
        classes = self.space.classes()

        def point() -> tuple:
            pts = self.space.members(rng.choice(classes), 4)
            return pts[rng.randrange(len(pts))]

        overrides: dict[tuple, int] = {}
        for _ in range(rng.randint(0, 16)):
            a, b = point(), point()
            if a != b:
                overrides[(a, b) if a < b else (b, a)] = rng.randint(0, 1)
        return ColoringCase(self.n, self, overrides)
