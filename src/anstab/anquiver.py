"""Quivers with potential of A_n type.

A quiver is stored as a vertex set, an arrow list, and the set of oriented
3-cycles contributed by the potential (each 3-cycle is a triple of arrows
closing up head-to-tail).  In the A_n mutation class the potential is a sum
of such 3-cycles and every arrow lies in at most one of them; both facts are
enforced at construction and after every mutation.

Conventions.  An arrow v -> w in the ext-quiver of a heart means
dim Ext^1(S_v, S_w) = 1.  The Euler pairing on simple classes is then
chi(e_i, e_j) = #arrows(j -> i) - #arrows(i -> j); it is antisymmetric, as
forced by the CY3 duality  hom - ext^1 + ext^1(op) - hom(op).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .exact import AnstabError


class QuiverError(AnstabError):
    pass


class StringCapExceeded(QuiverError):
    """A string walk met a vertex twice, which no A_n-type quiver allows."""


Arrow = tuple[int, int]
Cycle = tuple[Arrow, Arrow, Arrow]


def check_ints(xs: Iterable, what: str) -> None:
    """Reject JSON ``true`` and ``1.0`` where an integer belongs: both equal 1."""
    if bad := [x for x in xs if type(x) is not int]:
        raise QuiverError(f"{what} {bad[0]!r} is not an integer")


def _canon_cycle(cycle: Sequence[Arrow]) -> Cycle:
    """Rotate a 3-cycle so its lexicographically smallest arrow comes first."""
    cycle = tuple(cycle)
    i = cycle.index(min(cycle))
    return cycle[i:] + cycle[:i]  # type: ignore[return-value]


@dataclass(frozen=True)
class QuiverWithPotential:
    vertices: tuple[int, ...]
    arrows: tuple[Arrow, ...]
    cycles: frozenset[Cycle]

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise QuiverError(f"repeated vertex in {list(self.vertices)}")
        seen = set()
        for (a, b) in self.arrows:
            if a == b:
                raise QuiverError(f"loop at vertex {a}")
            if a not in vs or b not in vs:
                raise QuiverError(f"arrow ({a},{b}) leaves the vertex set")
            if (b, a) in seen:
                raise QuiverError(f"2-cycle between {a} and {b}")
            if (a, b) in seen:
                raise QuiverError(f"parallel arrows ({a},{b})")
            seen.add((a, b))
        object.__setattr__(self, "_arrow_set", frozenset(seen))
        used: dict[Arrow, Cycle] = {}
        for cyc in self.cycles:
            if len(cyc) != 3:
                raise QuiverError("potential terms must be 3-cycles")
            for i in range(3):
                if cyc[i] not in seen:
                    raise QuiverError(f"cycle arrow {cyc[i]} not in the quiver")
                if cyc[i][1] != cyc[(i + 1) % 3][0]:
                    raise QuiverError(f"cycle {cyc} does not close up")
                if cyc[i] in used:
                    raise QuiverError(f"arrow {cyc[i]} lies in two potential cycles")
                used[cyc[i]] = cyc
        object.__setattr__(self, "_cycle", used)

    # -- constructors

    @staticmethod
    def build(vertices: Iterable[int], arrows: Iterable[Arrow],
              cycles: Iterable[Sequence[Arrow]] = ()) -> "QuiverWithPotential":
        return QuiverWithPotential(
            tuple(sorted(vertices)),
            tuple(sorted(tuple(a) for a in arrows)),
            frozenset(_canon_cycle(tuple(map(tuple, c))) for c in cycles),
        )

    # -- basic queries

    def arrow_count(self, v: int, w: int) -> int:
        return int((v, w) in self._arrow_set)  # arrows are never parallel

    def components(self, subset: Iterable[int] | None = None) -> list[frozenset[int]]:
        """Connected components of the underlying graph, optionally restricted."""
        verts = set(self.vertices) if subset is None else set(subset)
        adj = {v: set() for v in verts}
        for (a, b) in self.arrows:
            if a in verts and b in verts:
                adj[a].add(b)
                adj[b].add(a)
        comps = []
        todo = set(verts)
        while todo:
            seed = min(todo)
            comp = {seed}
            stack = [seed]
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            todo -= comp
            comps.append(frozenset(comp))
        return sorted(comps, key=min)

    def cycle_of(self, arrow: Arrow) -> Cycle | None:
        return self._cycle.get(arrow)

    # -- serialization

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [list(a) for a in self.arrows],
            "cycles": [[list(a) for a in cyc] for cyc in sorted(self.cycles)],
        }

    @staticmethod
    def from_json(data: dict) -> "QuiverWithPotential":
        arrows = [tuple(a) for a in data["arrows"]]
        cycles = [[tuple(a) for a in cyc] for cyc in data.get("cycles", [])]
        check_ints(data["vertices"], "vertex")
        check_ints([x for a in arrows + [a for c in cycles for a in c] for x in a], "arrow end")
        return QuiverWithPotential.build(data["vertices"], arrows, cycles)


def make_linear(n: int) -> QuiverWithPotential:
    """The linear quiver 1 -> 2 -> ... -> n with empty potential."""
    if n < 1:
        raise QuiverError("a linear quiver needs at least one vertex")
    return QuiverWithPotential.build(
        range(1, n + 1), [(i, i + 1) for i in range(1, n)]
    )


class MutableQuiver:
    """A quiver with potential mutated in place: the vertex tuple, the arrow
    set and the index ``cycle`` from each arrow to its potential 3-cycle.

    ``mutate`` checks every arrow and cycle it adds against the conditions
    ``QuiverWithPotential`` enforces (loop, 2-cycle, parallel arrow, arrow in
    two cycles); the arrows it leaves alone were valid already.  ``freeze``
    runs the full validating constructor.
    """

    __slots__ = ("vertices", "arrows", "cycle")

    def __init__(self, q: QuiverWithPotential):
        self.vertices = q.vertices
        self.arrows = set(q._arrow_set)
        self.cycle = dict(q._cycle)

    def neighbours(self, k: int, direction: int) -> list[int]:
        """The vertices t with an arrow t -> k (direction > 0) or k -> t."""
        if direction > 0:
            return [a for a, b in self.arrows if b == k]
        return [b for a, b in self.arrows if a == k]

    def mutate(self, k: int) -> None:
        """Mutation at the vertex k, with 2-cycle cancellation against the potential.

        For every path a: i -> k, b: k -> j we either add the composite arrow
        [ab]: i -> j together with the potential 3-cycle ([ab], b*, a*), or,
        when {a, b} already lie in a potential 3-cycle closed by c: j -> i,
        cancel the would-be 2-cycle by deleting c and adding nothing.  In the
        A_n mutation class this reduction is complete: any closing arrow
        belongs to a potential term with the path, so no 2-cycles survive.
        """
        if k not in self.vertices:
            raise QuiverError(f"unknown vertex {k}")
        arrows, cycle = self.arrows, self.cycle
        incoming = [a for a in arrows if a[1] == k]
        outgoing = [a for a in arrows if a[0] == k]
        composites = []
        for a in incoming:
            cyc = cycle.get(a)
            for b in outgoing:
                if cyc is not None and b in cyc:
                    arrows.discard((b[1], a[0]))
                else:
                    composites.append((a[0], b[1]))
        for a in incoming + outgoing:  # cycles through k go, arrows at k turn
            for x in cycle.pop(a, ()):
                cycle.pop(x, None)
            arrows.remove(a)
        arrows.update((b, a) for a, b in incoming + outgoing)
        for i, j in composites:
            if i == j:
                raise QuiverError(f"loop at vertex {i}")
            if (j, i) in arrows:
                raise QuiverError(f"2-cycle between {i} and {j}")
            if (i, j) in arrows:
                raise QuiverError(f"parallel arrows ({i},{j})")
            arrows.add((i, j))
            cyc = ((i, j), (j, k), (k, i))
            for x in cyc:
                if x in cycle:
                    raise QuiverError(f"arrow {x} lies in two potential cycles")
                cycle[x] = cyc

    def freeze(self) -> QuiverWithPotential:
        cycles = frozenset(map(_canon_cycle, set(self.cycle.values())))
        return QuiverWithPotential(self.vertices, tuple(sorted(self.arrows)), cycles)


def mutate(q: QuiverWithPotential, k: int) -> QuiverWithPotential:
    """``q`` mutated at the vertex k (see ``MutableQuiver.mutate``)."""
    m = MutableQuiver(q)
    m.mutate(k)
    return m.freeze()


def restrict(q: QuiverWithPotential, subset: Iterable[int]) -> QuiverWithPotential:
    """Full subquiver on ``subset``; keeps the potential cycles lying inside."""
    sub = set(subset)
    if not sub <= set(q.vertices):
        raise QuiverError("restriction set is not a vertex subset")
    arrows = [a for a in q.arrows if a[0] in sub and a[1] in sub]
    cycles = [c for c in q.cycles if all(x in arrows for x in c)]
    return QuiverWithPotential.build(sub, arrows, cycles)


def euler_pairing(q: QuiverWithPotential, a: Sequence[int], b: Sequence[int]) -> int:
    """chi(a, b) = sum over arrows (v -> w) of a_w b_v - a_v b_w."""
    n = len(q.vertices)
    if len(a) != n or len(b) != n:
        raise QuiverError("class length does not match the vertex count")
    idx = {v: i for i, v in enumerate(q.vertices)}
    total = 0
    for (v, w) in q.arrows:
        total += a[idx[w]] * b[idx[v]] - a[idx[v]] * b[idx[w]]
    return total


# ---------------------------------------------------------------------------
# Strings


def enumerate_strings(q: QuiverWithPotential) -> list[tuple[int, ...]]:
    """Dimension vectors of all strings of the Jacobian algebra, trivial
    ones included, as sorted 0/1 tuples in ``q.vertices`` order.

    A depth-first search extends walks at one end from every vertex, never
    backtracking and never taking two arrows of one potential 3-cycle in a
    row in the same direction.  In A_n type no walk meets a vertex twice, so
    none runs past n - 1 steps, and the walk between two vertices is unique,
    so a string is its support.  A walk that does meet a vertex twice raises
    ``StringCapExceeded``.
    """
    adj: dict[int, list[tuple[int, Arrow, int]]] = {v: [] for v in q.vertices}
    for a, b in q.arrows:
        adj[a].append((b, (a, b), 1))
        adj[b].append((a, (a, b), -1))
    found = set()
    stack = [(v, None, 0, (v,)) for v in q.vertices]
    while stack:
        end, last, last_d, walk = stack.pop()
        found.add(frozenset(walk))
        for w, arrow, d in adj[end]:
            if arrow == last or (d == last_d and arrow in q._cycle.get(last, ())):
                continue
            if w in walk:
                raise StringCapExceeded(
                    f"a string walk returns to vertex {w}; the quiver is not of A_n type"
                )
            stack.append((w, arrow, d, walk + (w,)))
    return sorted(tuple(int(v in s) for v in q.vertices) for s in found)


# ---------------------------------------------------------------------------
# Isomorphism testing (canonical labeling by degree-refined backtracking)


def _degree_profile(q: QuiverWithPotential, v: int):
    indeg = sum(1 for a in q.arrows if a[1] == v)
    outdeg = sum(1 for a in q.arrows if a[0] == v)
    incyc = sum(1 for c in q.cycles for a in c if v == a[0])
    return (indeg, outdeg, incyc)


def is_isomorphic(q1: QuiverWithPotential, q2: QuiverWithPotential) -> bool:
    """Isomorphism of quivers with potential (vertex relabeling)."""
    if len(q1.vertices) != len(q2.vertices) or len(q1.arrows) != len(q2.arrows):
        return False
    if len(q1.cycles) != len(q2.cycles):
        return False
    prof1 = sorted(_degree_profile(q1, v) for v in q1.vertices)
    prof2 = sorted(_degree_profile(q2, v) for v in q2.vertices)
    if prof1 != prof2:
        return False
    # group q2 vertices by profile and backtrack over compatible bijections
    by_prof: dict[tuple, list[int]] = {}
    for v in q2.vertices:
        by_prof.setdefault(_degree_profile(q2, v), []).append(v)
    order = sorted(q1.vertices, key=lambda v: (len(by_prof[_degree_profile(q1, v)]), v))
    arrows2 = set(q2.arrows)

    def extend(i: int, mapping: dict[int, int], used: set[int]) -> bool:
        if i == len(order):
            mapped = frozenset(
                _canon_cycle(tuple((mapping[a], mapping[b]) for (a, b) in cyc))
                for cyc in q1.cycles
            )
            return mapped == q2.cycles
        v = order[i]
        for w in by_prof[_degree_profile(q1, v)]:
            if w in used:
                continue
            ok = True
            for u, x in mapping.items():
                if ((u, v) in q1.arrows) != ((x, w) in arrows2):
                    ok = False
                    break
                if ((v, u) in q1.arrows) != ((w, x) in arrows2):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(i + 1, mapping, used):
                    return True
                del mapping[v]
                used.remove(w)
        return False

    return extend(0, {}, set())
