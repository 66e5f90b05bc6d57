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
realizes the inverse twist on all simple classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .anquiver import QuiverWithPotential, _canon_cycle, make_linear, mutate
from .exact import AnstabError, solve_in_basis


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

    def cls(self, label: int) -> KClass:
        return self.classes[self.labels.index(label)]

    def rank(self) -> int:
        return len(self.labels)

    def ext1(self, s: int, t: int) -> int:
        """ext^1(S_s, S_t) = number of arrows s -> t."""
        return self.ext.arrow_count(s, t)

    def with_classes(self, classes, ext=None, prov=None, shift=None) -> "Heart":
        return Heart(
            self.labels,
            tuple(classes),
            self.ext if ext is None else ext,
            self.provenance if prov is None else tuple(prov),
            self.shift if shift is None else shift,
        )

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
        return Heart(
            labels,
            classes,
            ext,
            tuple((p[0], p[1]) for p in prov.get("word", [])),
            prov.get("shift", 0),
        )


def standard_heart(n: int) -> Heart:
    """Simples S_1 ... S_n with classes e_i on the linear A_n ext-quiver."""
    classes = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    return Heart(tuple(range(1, n + 1)), classes, make_linear(n))


def _tilt(h: Heart, s: int, direction: int) -> Heart:
    if s not in h.labels:
        raise HeartError(f"unknown simple label {s}")
    cs = h.cls(s)
    classes = []
    for l, c in zip(h.labels, h.classes):
        if l == s:
            classes.append(tuple(-x for x in cs))
        else:
            m = h.ext1(l, s) if direction > 0 else h.ext1(s, l)
            classes.append(tuple(x + m * y for x, y in zip(c, cs)))
    return h.with_classes(
        classes,
        ext=mutate(h.ext, s),
        prov=h.provenance + ((s, direction),),
    )


def forward_tilt(h: Heart, s: int) -> Heart:
    return _tilt(h, s, +1)


def backward_tilt(h: Heart, s: int) -> Heart:
    return _tilt(h, s, -1)


def apply_tilt_word(h: Heart, word: Iterable[tuple[int, int]]) -> Heart:
    for s, d in word:
        h = _tilt(h, s, d)
    return h


def tilt_torsion_free(h: Heart, gens: Sequence[KClass]) -> Heart:
    """Composite forward tilt along a list of classes, each simple at its step.

    ``gens[k]`` must be the class of a simple of the heart reached after
    tilting at gens[0..k-1]; the composite realizes the torsion-free class
    generated by the gens.
    """
    for step, g in enumerate(gens):
        g = tuple(g)
        matches = [l for l, c in zip(h.labels, h.classes) if c == g]
        if not matches:
            raise HeartError(
                f"step {step}: class {g} is not simple in the current heart"
            )
        h = forward_tilt(h, matches[0])
    return h


# ---------------------------------------------------------------------------
# Canonical form and equality


def canonical_form(h: Heart):
    """Classes sorted lexicographically together with the induced ext-quiver.

    The global shift bookkeeping is not part of the canonical form: a heart
    and its double shift have equal shadows.
    """
    order = sorted(range(len(h.labels)), key=lambda i: h.classes[i])
    relabel = {h.labels[i]: pos for pos, i in enumerate(order)}
    classes = tuple(h.classes[i] for i in order)
    arrows = tuple(sorted((relabel[a], relabel[b]) for (a, b) in h.ext.arrows))
    cycles = frozenset(
        _canon_cycle(tuple((relabel[a], relabel[b]) for (a, b) in cyc))
        for cyc in h.ext.cycles
    )
    return (classes, arrows, cycles)


def heart_equal(h1: Heart, h2: Heart) -> bool:
    return canonical_form(h1) == canonical_form(h2)


def shift_heart(h: Heart, k: int = 1) -> Heart:
    """The heart h[k]: classes flip sign for odd k; ext-quiver is unchanged."""
    if k % 2 == 0:
        return h.with_classes(h.classes, shift=h.shift + k)
    classes = tuple(tuple(-x for x in c) for c in h.classes)
    return h.with_classes(classes, shift=h.shift + k - 1)


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
    basis = [list(c) for c in h0.classes]

    def positive(c: KClass) -> bool:
        x = solve_in_basis(basis, list(c))
        return x is not None and all(xi >= 0 for xi in x)

    seen = {canonical_form(h0): h0}
    stack = [h0]
    while stack:
        h = stack.pop()
        for s in h.labels:
            if not positive(h.cls(s)):
                continue
            t = forward_tilt(h, s)
            key = canonical_form(t)
            if key not in seen:
                seen[key] = t
                stack.append(t)
    return seen
