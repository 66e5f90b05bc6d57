"""Enhanced level graphs: the combinatorial boundary of the compactification.

For the genus-zero stratum with n+1 simple zeros and one pole the level
graphs are trees without horizontal edges: a single top vertex carries the
pole of order -(n+5), every other vertex sits at a negative level, and each
edge enhancement is forced by the vertex-degree rule

    sum(leg orders) + sum(kappa_e - 2 over upper ends)
                    + sum(-kappa_e - 2 over lower ends) = -4

so kappa_e = (#zeros in the subtree below e) + 2.  A graph is therefore the
same datum as a laminar family of zero subsets (blocks of colliding zeros)
plus a level map, and it is stored as one: a level, a parent and the zero
labels per vertex, numbered parent-first.  Child lists and enhancements come
from one backward pass over the parents, and the edge triples are derived
for readers of the JSON and dot output.  Enumeration generates exactly these
graphs: each block tree once, in preorder form joined from its child blocks'
subtrees, which are built once per call, then each level map that descends
along its edges and leaves no level empty, so nothing is built only to be
filtered out, and the graphs stream.  ``validate`` is a tree check and a
level check; the enumerator runs the first once per block tree and the
second once per level map, so every graph meets ``validate`` without being
checked on its own.  No graph has more than n - 1 levels below 0, so a larger
level budget is clamped to that.

The census builds one labeled graph per type.  It generates each unlabeled
type once, as a leg count plus a multiset of deeper child subtrees memoized
per (size, level), and counts (n + 1)!/|Aut| labelings by orbit-stabilizer,
where aut(v) = legs! * prod(m! * aut(child)^m) over groups of m equal
children.  Its representative is the first graph of the type that
``enumerate_graphs`` emits: children sorted by block size, then by where
``_trees`` first emits their shapes, then by preorder levels; consecutive
labels from the smallest, each vertex's legs taking its largest.
``enumerate_graphs`` + ``unlabeled_census`` remain the oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .exact import AnstabError
from .multiscale import MscError, MultiScaleStab


class StrataError(AnstabError):
    exit_code = 1


@dataclass(frozen=True)
class EnhancedLevelGraph:
    """Leveled tree with zero legs; vertex 0 is the top and carries the pole,
    and every other vertex v hangs below an earlier vertex parents[v] < v."""

    levels: tuple[int, ...]                 # per vertex, <= 0; levels[0] == 0
    parents: tuple[int, ...]                # parents[0] == -1, 0 <= parents[v] < v
    zeros: tuple[tuple[int, ...], ...]      # zero labels per vertex

    @property
    def n(self) -> int:
        return sum(len(z) for z in self.zeros) - 1

    @property
    def depth(self) -> int:
        return -min(self.levels)

    @property
    def pole_order(self) -> int:
        return -(self.n + 5)

    def vertex_count(self) -> int:
        return len(self.levels)

    def kappas(self) -> list[int]:
        """(zeros below v) + 2 per vertex v: the enhancement of the edge above
        v, and n + 3 = -pole_order - 2 at the top, where the pole stands in
        for that edge.  One backward pass, children before parents."""
        kappa = [len(z) + 2 for z in self.zeros]
        for v in range(len(kappa) - 1, 0, -1):
            kappa[self.parents[v]] += kappa[v] - 2
        return kappa

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """(upper vertex, lower vertex, kappa), sorted."""
        kappa = self.kappas()
        return tuple(sorted((self.parents[v], v, kappa[v]) for v in range(1, len(kappa))))

    def vertex_order_sum(self, v: int) -> int:
        kappa = self.kappas()
        below = sum(kappa[w] - 2 for w in range(v + 1, len(kappa)) if self.parents[w] == v)
        return len(self.zeros[v]) + below - kappa[v] - 2

    def validate(self) -> None:
        """Check what the representation leaves open; it forces the
        enhancements and the vertex sums itself."""
        _check_tree(self.parents, self.zeros)
        _check_levels(self.levels, self.parents)

    # -- serialization

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "vertices": [
                {"level": lv, "zeros": list(z), "pole": (i == 0)}
                for i, (lv, z) in enumerate(zip(self.levels, self.zeros))
            ],
            "edges": [list(e) for e in self.edges],
        }

    @staticmethod
    def from_json(data: dict) -> "EnhancedLevelGraph":
        """Read a graph; its edges must number each child after its one
        parent and carry the enhancements the zeros force."""
        verts = data["vertices"]
        parents = [-1] * len(verts)
        for u, w, _ in data["edges"]:
            if not 0 < w < len(verts):
                raise StrataError(f"edge {u}->{w} does not end at a lower vertex")
            if parents[w] != -1:
                raise StrataError(f"vertex {w} has two parents")
            if not 0 <= u < w:
                raise StrataError(f"vertex {w} is numbered before its parent {u}")
            parents[w] = u
        g = EnhancedLevelGraph(
            tuple(v["level"] for v in verts),
            tuple(parents),
            tuple(tuple(v["zeros"]) for v in verts),
        )
        g.validate()
        kappa = g.kappas()
        for u, w, k in data["edges"]:
            if k != kappa[w]:
                raise StrataError(
                    f"edge {u}->{w} has kappa {k}, not (zeros below) + 2 = {kappa[w]}"
                )
        return g

    def to_dot(self) -> str:
        lines = ["digraph levelgraph {", "  rankdir=TB;"]
        by_level: dict[int, list[int]] = {}
        for v, lv in enumerate(self.levels):
            by_level.setdefault(lv, []).append(v)
        for lv in sorted(by_level, reverse=True):
            names = " ".join(f"v{v};" for v in by_level[lv])
            lines.append(f"  {{ rank=same; {names} }}")
        for v, (lv, z) in enumerate(zip(self.levels, self.zeros)):
            tag = f"level {lv}"
            if v == 0:
                tag += f", pole {self.pole_order}"
            if z:
                tag += ", zeros " + ",".join(map(str, z))
            lines.append(f'  v{v} [label="{tag}"];')
        for (u, w, k) in self.edges:
            lines.append(f'  v{u} -> v{w} [label="{k}"];')
        lines.append("}")
        return "\n".join(lines)


def _check_tree(parents: tuple[int, ...], zeros: tuple[tuple[int, ...], ...]) -> None:
    """The block tree's part of ``validate``: vertex 0 is the top, every other
    vertex hangs below an earlier one and is stable, and the labels are 0..n."""
    if parents[:1] != (-1,):
        raise StrataError("vertex 0 must be the top, at level 0")
    if len(zeros) != len(parents):
        raise StrataError("levels, parents and zeros must list every vertex")
    special = [len(z) + 1 for z in zeros]  # legs plus upper edge or pole
    for v in range(1, len(parents)):
        u = parents[v]
        if not 0 <= u < v:
            raise StrataError(f"vertex {v} must hang below an earlier vertex")
        special[u] += 1
    if min(special) < 3:
        v = next(v for v, s in enumerate(special) if s < 3)
        raise StrataError(f"vertex {v} is unstable: {special[v]} special points")
    labels = sorted(itertools.chain.from_iterable(zeros))
    if labels != list(range(len(labels))):
        raise StrataError("zero labels must be 0..n")


def _check_levels(levels: tuple[int, ...], parents: tuple[int, ...]) -> None:
    """The level map's part of ``validate``, on a checked tree: the top is at
    0, edges descend strictly, and no level between is empty."""
    if not levels or levels[0] != 0:
        raise StrataError("vertex 0 must be the top, at level 0")
    if len(levels) != len(parents):
        raise StrataError("levels, parents and zeros must list every vertex")
    if any(levels[parents[v]] <= levels[v] for v in range(1, len(levels))):
        raise StrataError("edges must descend strictly between levels")
    if set(levels) != set(range(min(levels), 1)):
        raise StrataError("levels must occupy 0..-L without gaps")


def canonical_key(g: EnhancedLevelGraph, labeled: bool = False):
    """Tree-recursive canonical form, built children first; labeled keys keep
    the zero label sets."""
    kappa = g.kappas()
    kids: list[list] = [[] for _ in g.levels]
    for v in range(len(kids) - 1, -1, -1):
        legs = tuple(sorted(g.zeros[v])) if labeled else len(g.zeros[v])
        key = (g.levels[v], legs, tuple(sorted(kids[v])))
        if v:
            kids[g.parents[v]].append((kappa[v], key))
    return key


# ---------------------------------------------------------------------------
# Enumeration


def _families(pool: list[int], size: int, acc: tuple = ()):
    """Nonempty disjoint families of blocks (each of size >= 2) in ``pool``.

    Each block is anchored on its smallest element and the anchors increase,
    so every family comes out once; a single block of all ``size`` labels is
    left out.
    """
    for i, first in enumerate(pool):
        later = pool[i + 1:]
        for r in range(1, len(later) + 1):
            for combo in itertools.combinations(later, r):
                fam = acc + (frozenset((first,) + combo),)
                if len(fam) > 1 or len(fam[0]) < size:
                    yield fam
                yield from _families([x for x in later if x not in combo], size, fam)


def _trees(labels: frozenset[int], depth_budget: int, memo: dict):
    """Block trees on ``labels`` at most depth_budget deep, streamed as
    preorder ``(parents, zeros)`` pairs: the block's own zeros at vertex 0,
    then each child's subtree, shifted by its offset, from the lists that
    ``memo`` holds once per ``(child labels, budget)``."""
    yield (-1,), (tuple(sorted(labels)),)
    if depth_budget < 2:
        return
    budget = depth_budget - 1
    for fam in _families(sorted(labels), len(labels)):
        for c in fam:
            if (c, budget) not in memo:
                memo[c, budget] = list(_trees(c, budget, memo))
        legs = tuple(sorted(labels.difference(*fam)))
        for kids in itertools.product(*[memo[c, budget] for c in fam]):
            parents, zeros = [-1], [legs]
            for kid_parents, kid_zeros in kids:
                offset = len(zeros)
                parents.append(0)
                if len(kid_parents) > 1:
                    parents.extend([u + offset for u in kid_parents[1:]])
                zeros.extend(kid_zeros)
            yield tuple(parents), tuple(zeros)


def _level_maps(parents: Sequence[int], max_levels: int):
    """Level tuples, vertex 0 at 0 and every other vertex strictly below its
    parent, that occupy all of 0..-d for some d <= max_levels."""

    def rec(levels: list[int], d: int):
        v = len(levels)
        if v == len(parents):
            if len(set(levels)) == d + 1:
                yield tuple(levels)
            return
        for lv in range(-d, levels[parents[v]]):
            yield from rec(levels + [lv], d)

    for d in range(1, max_levels + 1):
        yield from rec([0], d)


def _level_budget(n: int, max_levels: int) -> int:
    """At most n - 1 levels below 0 can be filled: the blocks below the top
    form a laminar family of sets of at least two of the n + 1 zeros, all but
    the full set, and such a family has at most n - 1 members."""
    return min(max_levels, max(1, n - 1))


def iter_graphs(n: int, max_levels: int) -> Iterator[EnhancedLevelGraph]:
    """All labeled enhanced level graphs with 1..max_levels levels below zero,
    one at a time.

    A graph is a tree of blocks: the top vertex holds all the zeros, and each
    child block is a set of at least two zeros colliding below its parent.
    The trees come from ``_trees`` with their vertices numbered in preorder,
    which is parent-first; the level maps of each tree come from
    ``_level_maps``, which only emits valid ones.  Enhancements are forced by
    the vertex-sum rule, so nothing else is chosen, and no graph can repeat
    because it determines its block tree and its level map.  The graphs of
    one tree share its ``parents`` and ``zeros`` tuples, and the trees that
    share a ``parents`` tuple share its level maps.  So ``validate`` runs in
    its two parts: the tree check once per tree, before its first graph, and
    the level check once per level map, with the check that the maps are
    distinct; every graph meets all of ``validate``.
    """
    if n < 1:
        raise StrataError("need at least two zeros")
    max_levels = _level_budget(n, max_levels)
    maps: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    trees = _trees(frozenset(range(n + 1)), max_levels + 1, {})
    next(trees)  # the smooth graph, without an edge
    for parents, zeros in trees:
        _check_tree(parents, zeros)
        if parents not in maps:
            maps[parents] = list(_level_maps(parents, max_levels))
            if len(set(maps[parents])) != len(maps[parents]):
                raise AssertionError("duplicate labeled graph generated")
            for levels in maps[parents]:
                _check_levels(levels, parents)
        for levels in maps[parents]:
            yield EnhancedLevelGraph(levels, parents, zeros)


def enumerate_graphs(n: int, max_levels: int) -> list[EnhancedLevelGraph]:
    """Every graph of ``iter_graphs``, as a list, for callers that count or
    group them."""
    return list(iter_graphs(n, max_levels))


def unlabeled_census(graphs: Iterable[EnhancedLevelGraph]):
    """Group labeled graphs by unlabeled canonical form."""
    groups: dict[object, list[EnhancedLevelGraph]] = {}
    for g in graphs:
        groups.setdefault(canonical_key(g, labeled=False), []).append(g)
    return groups


# ---------------------------------------------------------------------------
# Undegeneration and the adjacency poset


def undegenerate(g: EnhancedLevelGraph, passages: Iterable[int]) -> EnhancedLevelGraph:
    """Contract the selected level passages (1-based: passage p sits above level -p).

    Edges all of whose crossed passages are removed get contracted; the rest
    survive with their enhancements, and levels renumber without gaps.
    """
    removed = set(passages)
    depth = g.depth
    if not removed:
        return g
    if not removed <= set(range(1, depth + 1)):
        raise StrataError(f"passages must lie in 1..{depth}")

    def new_level(old: int) -> int:
        return -len([p for p in range(1, -old + 1) if p not in removed])

    # parent-first numbering: a vertex whose upper edge is contracted joins
    # the new vertex of its parent, seen before it; the others open one
    new = [0] * g.vertex_count()
    levels, parents, zeros = [0], [-1], [list(g.zeros[0])]
    for v in range(1, len(new)):
        u = g.parents[v]
        lv = new_level(g.levels[v])
        if lv == levels[new[u]]:
            new[v] = new[u]
            zeros[new[v]].extend(g.zeros[v])
        else:
            new[v] = len(levels)
            levels.append(lv)
            parents.append(new[u])
            zeros.append(list(g.zeros[v]))
    out = EnhancedLevelGraph(
        tuple(levels), tuple(parents), tuple(tuple(sorted(z)) for z in zeros)
    )
    out.validate()
    return out


def adjacency_poset(graphs: Sequence[EnhancedLevelGraph], labeled: bool = False):
    """Degeneration order on canonical forms: g' <= g when some undegeneration
    of g' equals g.  Returns (keys, relation) with relation mapping each key
    to the set of keys of its strict undegenerations.  An unlabeled key reads
    only the levels, parents and leg counts, so it is computed once per shape."""
    keyed: dict[object, EnhancedLevelGraph] = {}
    shapes: dict[tuple, object] = {}
    for g in graphs:
        if labeled:
            key = canonical_key(g, True)
        else:
            shape = (g.levels, g.parents, tuple(map(len, g.zeros)))
            if shape not in shapes:
                shapes[shape] = canonical_key(g)
            key = shapes[shape]
        keyed.setdefault(key, g)
    relation: dict[object, set] = {k: set() for k in keyed}
    for key, g in keyed.items():
        depth = g.depth
        for r in range(1, depth + 1):
            for passages in itertools.combinations(range(1, depth + 1), r):
                h = undegenerate(g, passages)
                hkey = canonical_key(h, labeled)
                if hkey in keyed and hkey != key:
                    relation[key].add(hkey)
    return keyed, relation


# ---------------------------------------------------------------------------
# Double covers


@dataclass(frozen=True)
class DoubleCover:
    base: EnhancedLevelGraph
    vertex_sheets: tuple[int, ...]                    # preimage count per base vertex
    edge_data: tuple[tuple[int, int, int], ...]       # (base edge idx, sheets, kappa_hat)
    cover_zero_orders: tuple[tuple[int, ...], ...]    # per base vertex
    cover_genus: tuple[int, ...]                      # per base vertex (of each preimage)

    def kappa_hats(self) -> list[int]:
        return sorted(k for (_, _, k) in self.edge_data)


def double_cover(g: EnhancedLevelGraph) -> DoubleCover:
    """The canonical square-root cover: even enhancements split into two
    preimage edges of half the enhancement, odd ones stay with the same.

    A vertex with an adjacent odd label (a simple zero, an odd pole, or an
    odd edge) has one preimage; otherwise two.  Cover vertex genera follow
    from the abelian order sums.
    """
    g.validate()
    kappa = g.kappas()
    # the top's kappa, n + 3, has the parity of its pole -(n + 5)
    odd = [bool(z) or k % 2 == 1 for z, k in zip(g.zeros, kappa)]
    for v in range(1, len(odd)):
        if kappa[v] % 2 == 1:
            odd[g.parents[v]] = True
    sheets = [1 if o else 2 for o in odd]
    zero_orders = tuple(tuple(2 for _ in z) for z in g.zeros)
    total = [sum(z) for z in zero_orders]
    p = g.pole_order
    # for an even pole on a single-sheet vertex both half-order poles live
    # on the one preimage
    total[0] += (p + 1) if p % 2 != 0 else p // 2 * (1 if sheets[0] == 2 else 2)
    edge_data = []
    for idx, (u, w, k) in enumerate(g.edges):
        esheets, khat = (2, k // 2) if k % 2 == 0 else (1, k)
        edge_data.append((idx, esheets, khat))
        total[u] += (esheets if sheets[u] == 1 else 1) * (khat - 1)
        total[w] += (esheets if sheets[w] == 1 else 1) * (-khat - 1)
    genus = tuple((t + 2) // 2 for t in total)
    return DoubleCover(g, tuple(sheets), tuple(edge_data), zero_orders, genus)


def prong_count(g: EnhancedLevelGraph) -> tuple[int, list[int]]:
    """Product of the enhancements over all (vertical) edges."""
    per_edge = [k for (_, _, k) in g.edges]
    return math.prod(per_edge), per_edge


# ---------------------------------------------------------------------------
# From multi-scale objects


def from_msc(m: MultiScaleStab) -> EnhancedLevelGraph:
    """The boundary stratum of a multi-scale object.

    Each maximal run of a vanishing component across consecutive levels gives
    one vertex at its deepest level, carrying kappa = (component size) + 3
    and the zeros not accounted for by its children; the top vertex takes the
    pole and the leftover zeros.
    """
    n = m.top.rank()
    comps_by_level = [m.level_components(i) for i in range(1, m.L + 1)]
    first: dict[frozenset[int], int] = {}
    deepest: dict[frozenset[int], int] = {}
    for i, comps in enumerate(comps_by_level, start=1):
        for comp in comps:
            first.setdefault(comp, i)
            deepest[comp] = i
    # runs must be contiguous; a valid chain guarantees it.  Sorting by the
    # first level numbers every vertex after the one enclosing it.
    order = sorted(first, key=lambda c: (first[c], min(c)))
    index = {comp: v for v, comp in enumerate(order, start=1)}
    parents = [-1] + [
        index[next(c for c in comps_by_level[first[comp] - 2] if comp < c)]
        if first[comp] > 1 else 0
        for comp in order
    ]
    # a component of size s owns s+1 zeros, minus those of its children
    sizes = [n + 1] + [len(comp) + 1 for comp in order]
    counts = list(sizes)
    for v in range(1, len(sizes)):
        counts[parents[v]] -= sizes[v]
    if min(counts) < 0:
        raise MscError("invalid nesting: zero counts became negative")
    starts = [0, *itertools.accumulate(counts)]
    g = EnhancedLevelGraph(
        (0, *(-deepest[comp] for comp in order)),
        tuple(parents),
        tuple(tuple(range(a, b)) for a, b in zip(starts, starts[1:])),
    )
    g.validate()
    return g


# ---------------------------------------------------------------------------
# Census by unlabeled type


class _Subtree(NamedTuple):
    """An unlabeled leveled subtree, its ``kids`` in representative order."""

    key: tuple      # canonical_key: (level, legs, kids)
    size: int       # zeros in the subtree
    kids: tuple
    aut: int        # automorphisms fixing the root
    shape: tuple    # orders the shapes of one size as ``_trees`` first emits them
    levels: tuple   # the representative's levels in preorder


def _multisets(pool: list[_Subtree], start: int, budget: int):
    """Multisets from pool[start:] (sorted by size) of total size <= budget."""
    yield ()
    for i in range(start, len(pool)):
        if pool[i].size > budget:
            break
        for rest in _multisets(pool, i, budget - pool[i].size):
            yield (pool[i],) + rest


def _leveled_trees(n: int, max_levels: int) -> list[_Subtree]:
    """Each leveled tree on n + 1 zeros whose levels fill 0..-d, d <= max_levels, once."""
    memo: dict[tuple[int, int], list[_Subtree]] = {}

    def build(size: int, level: int) -> list[_Subtree]:
        if (size, level) in memo:
            return memo[size, level]
        pool = [t for s in range(2, size) for lv in range(-max_levels, level) for t in build(s, lv)]
        out = memo[size, level] = []
        for kids in _multisets(pool, 0, size):
            legs = size - sum(k.size for k in kids)
            if legs + len(kids) < 2 or not (kids or level):
                continue  # unstable, or a top vertex without an edge
            kids = tuple(sorted(kids, key=lambda k: (k.size, k.shape, k.levels)))
            out.append(_Subtree(
                (level, legs, tuple(sorted((k.size + 2, k.key) for k in kids))), size, kids,
                math.factorial(legs) * math.prod(k.aut for k in kids) * math.prod(
                    math.factorial(len(list(g))) for _, g in itertools.groupby(kids)),
                (tuple(k.size for k in kids), tuple(k.shape for k in kids)),
                (level, *itertools.chain.from_iterable(k.levels for k in kids)),
            ))
        return out

    return [t for t in build(n + 1, 0) if set(t.levels) == set(range(min(t.levels), 1))]


def _representative(t: _Subtree) -> EnhancedLevelGraph:
    parents: list[int] = []
    zeros: list[tuple[int, ...]] = []

    def walk(s: _Subtree, parent: int, lo: int) -> None:
        parents.append(parent)
        zeros.append(tuple(range(lo + s.size - s.key[1], lo + s.size)))
        v = len(zeros) - 1
        for k in s.kids:
            walk(k, v, lo)
            lo += k.size

    walk(t, -1, 0)
    g = EnhancedLevelGraph(t.levels, tuple(parents), tuple(zeros))
    g.validate()
    return g


def census_types(n: int, max_levels: int) -> list[tuple[object, int, EnhancedLevelGraph]]:
    """(unlabeled key, labeled count, representative) per type, in the order
    in which ``enumerate_graphs`` first emits the types."""
    if n < 1:
        raise StrataError("need at least two zeros")
    trees = sorted(_leveled_trees(n, _level_budget(n, max_levels)),
                   key=lambda t: (t.shape, -min(t.levels), t.levels))
    return [(t.key, math.factorial(n + 1) // t.aut, _representative(t)) for t in trees]


def census(n: int, max_levels: int) -> dict:
    """One entry per unlabeled type, sorted by ``repr`` of its key, with its
    (n + 1)!/|Aut| labelings and the first labeled graph ``enumerate_graphs``
    emits for it, all from ``census_types`` (see the module docstring)."""
    types = sorted(census_types(n, max_levels), key=lambda e: repr(e[0]))
    entries = [
        {"depth": rep.depth, "labeled_count": count, "enhancements": sorted(prong_count(rep)[1]),
         "prongs": prong_count(rep)[0], "representative": rep.to_json()}
        for _, count, rep in types
    ]
    return {"schema": 1, "n": n, "max_levels": max_levels,
            "labeled_total": sum(count for _, count, _ in types),
            "unlabeled_total": len(types), "types": entries}
