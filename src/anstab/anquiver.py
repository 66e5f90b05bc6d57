"""Quivers with potential of A_n type.

A quiver is stored as a vertex set and an arrow list.  Its potential is the
sum of its oriented 3-cycles (each a triple of arrows closing up
head-to-tail), so ``cycles`` is derived from the arrows.  ``build`` checks
Buan and Vatne's local criterion for the A_n mutation class on every
component.  Mutation is Fomin-Zelevinsky matrix mutation, which stays in the
class (Keller and Yang: a simple tilt mutates the ext-quiver this way).
``mutate_arrows`` is its one rule, in place on the arrow set that a tilted
heart (``hearts.HeartState``) carries; ``mutate`` applies it to a quiver.

Conventions.  An arrow v -> w in the ext-quiver of a heart means
dim Ext^1(S_v, S_w) = 1.  The Euler pairing on simple classes is then
chi(e_i, e_j) = #arrows(j -> i) - #arrows(i -> j); it is antisymmetric, as
forced by the CY3 duality  hom - ext^1 + ext^1(op) - hom(op).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .exact import AnstabError


class QuiverError(AnstabError):
    pass


Arrow = tuple[int, int]
Cycle = tuple[Arrow, Arrow, Arrow]


def check_ints(xs: Iterable, what: str) -> None:
    """Reject JSON ``true`` and ``1.0`` where an integer belongs: both equal 1."""
    if bad := [x for x in xs if type(x) is not int]:
        raise QuiverError(f"{what} {bad[0]!r} is not an integer")


def _is_pair(x) -> bool:
    return isinstance(x, list) and len(x) == 2


def _canon_cycle(cycle: Sequence[Arrow]) -> Cycle:
    """Rotate a 3-cycle so its lexicographically smallest arrow comes first."""
    cycle = tuple(cycle)
    i = cycle.index(min(cycle))
    return cycle[i:] + cycle[:i]  # type: ignore[return-value]


@dataclass(frozen=True)
class QuiverWithPotential:
    vertices: tuple[int, ...]
    arrows: tuple[Arrow, ...]

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

    @cached_property
    def cycles(self) -> frozenset[Cycle]:
        """The oriented 3-cycles, each rotated by ``_canon_cycle``: the potential."""
        succ = {v: [] for v in self.vertices}
        for a, b in self.arrows:
            succ[a].append(b)
        return frozenset(_canon_cycle(((a, b), (b, c), (c, a)))
                         for a, b in self.arrows for c in succ[b] if (c, a) in self._arrow_set)

    # -- constructors

    @staticmethod
    def build(vertices: Iterable[int], arrows: Iterable[Arrow]) -> "QuiverWithPotential":
        """The quiver, checked to be of type A on each component (Buan and Vatne):
        every cycle is an oriented 3-cycle, no arrow lies in two, and a vertex
        with three or four neighbours has all its arrows but at most one in
        3-cycles (one 3-cycle for three neighbours, two for four)."""
        q = QuiverWithPotential(tuple(sorted(vertices)), tuple(sorted(tuple(a) for a in arrows)))
        on, root = {}, {v: v for v in q.vertices}

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for cyc in q.cycles:
            for x in cyc:
                if x in on:
                    raise QuiverError(f"arrow {x} lies in two 3-cycles")
                on[x] = cyc
        for x in q.arrows:  # a forest: all arrows but the last of each 3-cycle
            if x not in on or x != on[x][2]:
                a, b = find(x[0]), find(x[1])
                if a == b:
                    raise QuiverError(f"arrow {x} lies on a cycle that is not an oriented 3-cycle")
                root[a] = b
        free = Counter(v for x in q.arrows if x not in on for v in x)
        for v, d in Counter(v for x in q.arrows for v in x).items():
            if d > 4 or d > 2 and free[v] > 1:
                raise QuiverError(f"vertex {v} has {d} neighbours and {free[v]} arrows "
                                  "outside 3-cycles, which type A does not allow")
        return q

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

    # -- serialization

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [list(a) for a in self.arrows],
            "cycles": [[list(a) for a in cyc] for cyc in sorted(self.cycles)],
        }

    @staticmethod
    def from_json(data: dict) -> "QuiverWithPotential":
        """The inverse of ``to_json``: ``arrows`` is a list of ``[tail, head]``
        pairs, and ``cycles`` (``[]`` when missing), lists of three such pairs,
        must be the oriented 3-cycles of the arrows."""
        arrows, cycles = data["arrows"], data.get("cycles", [])
        for what, xs in (("arrows", arrows), ("cycles", cycles)):
            if not isinstance(xs, list):
                raise QuiverError(f"{what} {xs!r} is not a list")
        if bad := [a for a in arrows if not _is_pair(a)]:
            raise QuiverError(f"arrow {bad[0]!r} is not a pair [tail, head]")
        if bad := [c for c in cycles if not (isinstance(c, list) and all(map(_is_pair, c)))]:
            raise QuiverError(f"cycle {bad[0]!r} is not a list of [tail, head] arrows")
        arrows = [tuple(a) for a in arrows]
        cycles = [tuple(tuple(a) for a in cyc) for cyc in cycles]
        check_ints(data["vertices"], "vertex")
        check_ints([x for a in arrows + [a for c in cycles for a in c] for x in a], "arrow end")
        if bad := [c for c in cycles if len(c) != 3]:
            raise QuiverError(f"cycle {bad[0]} is not an oriented 3-cycle of the arrows")
        q = QuiverWithPotential.build(data["vertices"], arrows)
        given = {_canon_cycle(c) for c in cycles}
        if extra := sorted(given - q.cycles):
            raise QuiverError(f"cycle {extra[0]} is not an oriented 3-cycle of the arrows")
        if missing := sorted(q.cycles - given):
            raise QuiverError(f"the oriented 3-cycle {missing[0]} is missing from cycles")
        return q


def make_linear(n: int) -> QuiverWithPotential:
    """The linear quiver 1 -> 2 -> ... -> n with empty potential."""
    if n < 1:
        raise QuiverError("a linear quiver needs at least one vertex")
    return QuiverWithPotential.build(
        range(1, n + 1), [(i, i + 1) for i in range(1, n)]
    )


def neighbours(arrows: set, k: int, direction: int) -> list[int]:
    """The vertices t with an arrow t -> k (direction > 0) or k -> t."""
    if direction > 0:
        return [a for a, b in arrows if b == k]
    return [b for a, b in arrows if a == k]


def mutate_arrows(arrows: set, k: int) -> None:
    """Matrix mutation of the arrow set at the vertex k, in place: for each
    path i -> k -> j, delete j -> i if it exists and add i -> j otherwise;
    then reverse the arrows at k.  It keeps a quiver of type A in its class,
    so its result needs no ``QuiverWithPotential.build`` check."""
    incoming, outgoing = neighbours(arrows, k, +1), neighbours(arrows, k, -1)
    for i in incoming:
        for j in outgoing:
            if (j, i) in arrows:
                arrows.remove((j, i))
            else:
                arrows.add((i, j))
    arrows.difference_update([(i, k) for i in incoming] + [(k, j) for j in outgoing])
    arrows.update([(k, i) for i in incoming] + [(j, k) for j in outgoing])


def mutate(q: QuiverWithPotential, k: int) -> QuiverWithPotential:
    """``q`` mutated at the vertex k (see ``mutate_arrows``)."""
    if k not in q.vertices:
        raise QuiverError(f"unknown vertex {k}")
    arrows = set(q._arrow_set)
    mutate_arrows(arrows, k)
    return QuiverWithPotential(q.vertices, tuple(sorted(arrows)))


def restrict(q: QuiverWithPotential, subset: Iterable[int]) -> QuiverWithPotential:
    """Full subquiver on ``subset``."""
    sub = set(subset)
    if not sub <= set(q.vertices):
        raise QuiverError("restriction set is not a vertex subset")
    arrows = [a for a in q.arrows if a[0] in sub and a[1] in sub]
    return QuiverWithPotential.build(sub, arrows)


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
    backtracking and never taking two arrows of one 3-cycle in a row in the
    same direction, that is, never a step whose closing arrow exists.  In A_n
    type no walk meets a vertex twice, so none runs past n - 1 steps, and
    the walk between two vertices is unique, so a string is its support.
    """
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in q.vertices}
    for a, b in q.arrows:
        adj[a].append((b, 1))
        adj[b].append((a, -1))
    found = set()
    stack = [(v, 0, (v,)) for v in q.vertices]
    while stack:
        end, last_d, walk = stack.pop()
        found.add(frozenset(walk))
        p = walk[-2] if last_d else None
        for w, d in adj[end]:
            if w == p or d == last_d and ((w, p) if d > 0 else (p, w)) in q._arrow_set:
                continue
            stack.append((w, d, walk + (w,)))
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
        if i == len(order):  # the arrows correspond, so the 3-cycles do
            return True
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
