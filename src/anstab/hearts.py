"""Finite hearts as combinatorial shadows: simple classes plus ext-quiver.

A heart is identified with the K-classes of its simples (a Z-basis of Z^n),
its ext-quiver (arrow v -> w means ext^1(S_v, S_w) = 1) and a provenance tilt
word from the standard heart.  Labels are stable under tilting: after a
forward tilt at s, the label s denotes the shifted simple and every other
label denotes its twisted replacement.

K-class updates under tilting:

    forward at s:   [s] -> -[s],   [t] -> [t] + ext^1(t, s) * [s]
    backward at s:  [s] -> -[s],   [t] -> [t] + ext^1(s, t) * [s]

and the ext-quiver mutates at s.  A double forward tilt at the same label
realizes the inverse twist on all simple classes.  ``HeartState.tilt`` is
the one place this rule lives: it tilts a heart in place, its ext-quiver an
arrow set that ``anquiver.mutate_arrows`` mutates.  ``_tilt`` and
``apply_tilt_word`` freeze the result into a validated ``Heart``, and the
tilt engine ``stability.TiltState`` is a ``HeartState`` carrying charges.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

from .anquiver import QuiverWithPotential, check_ints, make_linear, mutate_arrows, neighbours
from .exact import AnstabError, det_adjugate, mat_det


class HeartError(AnstabError):
    pass


KClass = tuple[int, ...]


@dataclass(frozen=True)
class Heart:
    labels: tuple[int, ...]
    classes: tuple[KClass, ...]          # classes[i] is the class of labels[i]
    ext: QuiverWithPotential             # vertices are the labels
    provenance: tuple[tuple[int, int], ...] = ()
    shift: int = 0                       # even global shift bookkeeping

    def __post_init__(self):
        if tuple(sorted(self.labels)) != self.ext.vertices:
            raise HeartError("ext-quiver vertices must equal the labels")
        if len(self.classes) != len(self.labels):
            raise HeartError("one class per simple required")

    def _square(self) -> bool:
        """Whether the classes are a square of ints."""
        n = len(self.classes)
        return all(len(c) == n and all(type(x) is int for x in c) for c in self.classes)

    @cached_property
    def _det_adj(self):
        """``det_adjugate`` of the classes as columns; (0, None) unless ``_square()``."""
        return det_adjugate(list(zip(*self.classes))) if self._square() else (0, None)

    @cached_property
    def _det(self) -> int:
        """Their determinant: the one ``coords`` keeps, else ``mat_det`` alone."""
        if "_det_adj" in self.__dict__ or not self._square():
            return self._det_adj[0]
        return mat_det(list(zip(*self.classes)))

    def check_basis(self) -> None:
        """Raise unless the simple classes are square integer vectors with |det| = 1."""
        if abs(self._det) != 1:
            raise HeartError("the simple classes must form a Z-basis (|det| = 1)")

    def cls(self, label: int) -> KClass:
        return self.classes[self.labels.index(label)]

    def rank(self) -> int:
        return len(self.labels)

    def coords(self, gamma) -> dict[int, int]:
        """The integer coordinates of the class gamma in the simple basis, adj * gamma / det."""
        if len(gamma) != len(self.classes):
            raise HeartError(f"class {tuple(gamma)} has the wrong length")
        det, adj = self._det_adj
        if adj is None:
            raise HeartError("the simple classes are not a nonsingular square integer matrix")
        x = [sum(a * g for a, g in zip(row, gamma)) for row in adj]
        if any(v % det for v in x):
            raise HeartError(
                f"class {tuple(gamma)} is not an integer combination of the simples"
            )
        return {l: v // det for l, v in zip(self.labels, x)}

    def ext1(self, s: int, t: int) -> int:
        """ext^1(S_s, S_t) = number of arrows s -> t."""
        return self.ext.arrow_count(s, t)

    # -- serialization

    def to_json(self) -> dict:
        return {
            "simples": [
                {"label": l, "class": list(c)} for l, c in zip(self.labels, self.classes)
            ],
            "extquiver": self.ext.to_json(),
            "provenance": {"word": [list(p) for p in self.provenance], "shift": self.shift},
        }

    @staticmethod
    def from_json(data: dict) -> "Heart":
        labels = tuple(s["label"] for s in data["simples"])
        classes = tuple(tuple(s["class"]) for s in data["simples"])
        ext = QuiverWithPotential.from_json(data["extquiver"])
        prov = data.get("provenance", {})
        if not isinstance(prov, dict):
            raise HeartError(f"provenance {prov!r} is not an object")
        word = tuple((p[0], p[1]) for p in prov.get("word", []))
        check_ints(labels, "simple label")
        check_ints([*(x for p in word for x in p), prov.get("shift", 0)], "provenance entry")
        heart = Heart(labels, classes, ext, word, prov.get("shift", 0))
        heart.check_basis()
        return heart


def standard_heart(n: int) -> Heart:
    """Simples S_1 ... S_n with classes e_i on the linear A_n ext-quiver."""
    classes = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    return Heart(tuple(range(1, n + 1)), classes, make_linear(n))


class HeartState:
    """A heart tilted in place: classes by label, the ext-quiver's arrow set,
    the provenance word as a list and the shift.  ``tilt`` is the one K-class
    rule; ``freeze`` builds the validated ``Heart``."""

    __slots__ = ("labels", "classes", "arrows", "word", "shift")

    def __init__(self, h: Heart):
        self.labels = h.labels
        self.classes = dict(zip(h.labels, h.classes))
        self.arrows = set(h.ext._arrow_set)
        self.word = list(h.provenance)
        self.shift = h.shift

    def ext1(self, s: int, t: int) -> int:
        return int((s, t) in self.arrows)

    def tilt(self, s: int, direction: int) -> list[int]:
        """Tilt at s; returns the labels t that gained one copy of S_s: arrows
        t -> s for a forward tilt, s -> t for a backward one.  Arrows are
        never parallel, so no label gains two copies."""
        classes = self.classes
        if s not in classes:
            raise HeartError(f"unknown simple label {s}")
        cs = classes[s]
        gain = neighbours(self.arrows, s, direction)
        for t in gain:
            classes[t] = tuple(x + y for x, y in zip(classes[t], cs))
        classes[s] = tuple(-x for x in cs)
        mutate_arrows(self.arrows, s)
        self.word.append((s, direction))
        return gain

    def freeze(self) -> Heart:
        ext = QuiverWithPotential(tuple(sorted(self.labels)), tuple(sorted(self.arrows)))
        return Heart(self.labels, tuple(map(self.classes.__getitem__, self.labels)),
                     ext, tuple(self.word), self.shift)


def _tilt(h: Heart, s: int, direction: int) -> Heart:
    return apply_tilt_word(h, [(s, direction)])


def forward_tilt(h: Heart, s: int) -> Heart:
    return _tilt(h, s, +1)


def backward_tilt(h: Heart, s: int) -> Heart:
    return _tilt(h, s, -1)


def apply_tilt_word(h: Heart, word: Iterable[tuple[int, int]]) -> Heart:
    state = HeartState(h)
    for s, d in word:
        state.tilt(s, d)
    return state.freeze()


# ---------------------------------------------------------------------------
# Canonical form and equality


def canonical_form(h: Heart):
    """Classes sorted lexicographically together with the induced ext-quiver
    arrows, which determine its 3-cycles.

    The global shift bookkeeping is not part of the canonical form: a heart
    and its double shift have equal shadows.
    """
    order = sorted(range(len(h.labels)), key=lambda i: h.classes[i])
    relabel = {h.labels[i]: pos for pos, i in enumerate(order)}
    classes = tuple(h.classes[i] for i in order)
    arrows = tuple(sorted((relabel[a], relabel[b]) for (a, b) in h.ext.arrows))
    return (classes, arrows)


def heart_equal(h1: Heart, h2: Heart) -> bool:
    return canonical_form(h1) == canonical_form(h2)


def shift_heart(h: Heart, k: int = 1) -> Heart:
    """The heart h[k]: classes flip sign for odd k; ext-quiver is unchanged."""
    if k % 2 == 0:
        return replace(h, shift=h.shift + k)
    classes = tuple(tuple(-x for x in c) for c in h.classes)
    return replace(h, classes=classes, shift=h.shift + k - 1)


# ---------------------------------------------------------------------------
# Convenient representatives


def convenient_representative(h: Heart, v: Iterable[int], s0: int):
    """Tilt inside the Serre subset ``v`` until no simple of v extends s0.

    Returns (heart, tilt word, realized torsion-free generator classes).  The
    chains are the maximal sequences S_1, S_2, ... in v with
    ext^1(S_1, s0) = 1, ext^1(S_{i+1}, S_i) = 1 and ext^1(S_{i+1}, S_{i-1}) = 0;
    tilting successively at the labels of a chain tilts at the interval
    objects S_1, S_12, ..., S_{1..m}.  At most two chains exist.
    """
    v = frozenset(v)
    if s0 in v:
        raise HeartError("the quotient simple must lie outside the subset")
    word: list[tuple[int, int]] = []
    gens: list[KClass] = []
    cur = h
    for _ in range(2):  # at most two chains end on s0
        starts = sorted(l for l in v if cur.ext1(l, s0) == 1)
        if not starts:
            break
        chain = [starts[0]]
        prev2, prev1 = s0, starts[0]
        while True:
            nxt = sorted(
                l
                for l in v
                if l not in chain
                and cur.ext1(l, prev1) == 1
                and cur.ext1(l, prev2) == 0
            )
            if not nxt:
                break
            chain.append(nxt[0])
            prev2, prev1 = prev1, nxt[0]
        for lbl in chain:
            gens.append(cur.cls(lbl))
            cur = forward_tilt(cur, lbl)
            word.append((lbl, +1))
    if any(cur.ext1(l, s0) != 0 for l in v):
        raise HeartError("convenient representative construction did not converge")
    return cur, tuple(word), tuple(gens)


# ---------------------------------------------------------------------------
# Exchange graph


def exchange_graph(h0: Heart, radius: int):
    """Breadth-first closure of h0 under forward tilts up to the given radius.

    Returns (vertices, edges): vertices is a dict canonical-form -> Heart for
    one representative per class, edges a list of (source key, label, target
    key).  Interior vertices have out-degree equal to the rank.
    """
    if radius < 0:
        raise HeartError("radius must be nonnegative")
    key0 = canonical_form(h0)
    vertices = {key0: h0}
    edges = []
    frontier = [key0]
    for _ in range(radius):
        nxt = []
        for key in frontier:
            h = vertices[key]
            for s in h.labels:
                t = forward_tilt(h, s)
                tkey = canonical_form(t)
                if tkey not in vertices:
                    vertices[tkey] = t
                    nxt.append(tkey)
                edges.append((key, s, tkey))
        frontier = nxt
    return vertices, edges


def _vertex_name(key) -> str:
    classes = key[0]
    return "h_" + "_".join("m".join(str(x).replace("-", "n") for x in c) for c in classes)


def exchange_graph_dot(vertices, edges) -> str:
    lines = ["digraph exchange {"]
    for key in vertices:
        lines.append(f'  "{_vertex_name(key)}";')
    for src, label, dst in edges:
        lines.append(
            f'  "{_vertex_name(src)}" -> "{_vertex_name(dst)}" [label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines)


def hearts_in_interval(h0: Heart):
    """Hearts between h0 and h0[1], as closures under positive forward tilts.

    A forward tilt stays in the interval exactly when it happens at a simple
    whose class is nonnegative in the h0 basis; the search closes under such
    tilts and deduplicates by canonical form.
    """
    seen = {canonical_form(h0): h0}
    stack = [h0]
    while stack:
        h = stack.pop()
        for s in h.labels:
            if min(h0.coords(h.cls(s)).values()) < 0:
                continue
            t = forward_tilt(h, s)
            key = canonical_form(t)
            if key not in seen:
                seen[key] = t
                stack.append(t)
    return seen
