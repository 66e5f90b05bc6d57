"""Enhanced level graphs: the combinatorial boundary of the compactification.

For the genus-zero stratum with n+1 simple zeros and one pole the level
graphs are trees without horizontal edges: a single top vertex carries the
pole of order -(n+5), every other vertex sits at a negative level, and each
edge enhancement is forced by the vertex-degree rule

    sum(leg orders) + sum(kappa_e - 2 over upper ends)
                    + sum(-kappa_e - 2 over lower ends) = -4

so kappa_e = (#zeros in the subtree below e) + 2.  A graph is therefore the
same datum as a laminar family of zero subsets (blocks of colliding zeros)
plus a level map.  Enumeration generates exactly these: each block tree
once, then each level map that descends along its edges and leaves no level
empty, so nothing is built only to be filtered out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .exact import AnstabError
from .multiscale import MscError, MultiScaleStab


class StrataError(AnstabError):
    exit_code = 1


@dataclass(frozen=True)
class EnhancedLevelGraph:
    """Leveled tree with zero legs; vertex 0 is the top and carries the pole."""

    levels: tuple[int, ...]                   # per vertex, <= 0; levels[0] == 0
    edges: tuple[tuple[int, int, int], ...]   # (upper vertex, lower vertex, kappa)
    zeros: tuple[tuple[int, ...], ...]        # zero labels per vertex

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

    def children(self, v: int) -> list[tuple[int, int]]:
        return [(w, k) for (u, w, k) in self.edges if u == v]

    def parent_edge(self, v: int) -> tuple[int, int] | None:
        for (u, w, k) in self.edges:
            if w == v:
                return (u, k)
        return None

    def vertex_order_sum(self, v: int) -> int:
        total = len(self.zeros[v])  # each zero has order 1
        if v == 0:
            total += self.pole_order
        for (_, k) in self.children(v):
            total += k - 2
        pe = self.parent_edge(v)
        if pe is not None:
            total += -pe[1] - 2
        return total

    def validate(self) -> None:
        if not self.levels or self.levels[0] != 0:
            raise StrataError("vertex 0 must exist at level 0")
        if len(self.edges) != len(self.levels) - 1:
            raise StrataError("the underlying graph must be a tree")
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for (w, _) in self.children(v):
                if w in seen:
                    raise StrataError("the underlying graph must be a tree")
                seen.add(w)
                frontier.append(w)
        if len(seen) != len(self.levels):
            raise StrataError("the underlying graph must be connected")
        for (u, w, k) in self.edges:
            if self.levels[u] <= self.levels[w]:
                raise StrataError("edges must descend strictly between levels")
            if k < 4:
                raise StrataError("enhancements must be at least 4 here")
        occupied = set(self.levels)
        if occupied != set(range(-self.depth, 1)):
            raise StrataError("levels must occupy 0..-L without gaps")
        for v in range(len(self.levels)):
            if self.vertex_order_sum(v) != -4:
                raise StrataError(f"vertex {v} order sum is not -4")
        labels = sorted(l for z in self.zeros for l in z)
        if labels != list(range(len(labels))):
            raise StrataError("zero labels must be 0..n")

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
        g = EnhancedLevelGraph(
            tuple(v["level"] for v in data["vertices"]),
            tuple(tuple(e) for e in data["edges"]),
            tuple(tuple(v["zeros"]) for v in data["vertices"]),
        )
        g.validate()
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


def canonical_key(g: EnhancedLevelGraph, labeled: bool = False):
    """Tree-recursive canonical form; labeled keys keep the zero label sets."""

    def enc(v: int):
        kids = tuple(sorted((k, enc(w)) for (w, k) in g.children(v)))
        legs = tuple(sorted(g.zeros[v])) if labeled else len(g.zeros[v])
        return (g.levels[v], legs, kids)

    return enc(0)


def smooth_graph(n: int) -> EnhancedLevelGraph:
    return EnhancedLevelGraph((0,), (), (tuple(range(n + 1)),))


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


def _trees(labels: frozenset[int], depth_budget: int):
    """Nested blocks ``(labels, children)`` at most depth_budget deep."""
    fams = _families(sorted(labels), len(labels)) if depth_budget > 1 else ()
    for fam in itertools.chain([()], fams):
        for kids in itertools.product(*[list(_trees(c, depth_budget - 1)) for c in fam]):
            yield (labels, kids)


def _level_maps(parents: list[int], max_levels: int):
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


def enumerate_graphs(n: int, max_levels: int) -> list[EnhancedLevelGraph]:
    """All labeled enhanced level graphs with 1..max_levels levels below zero.

    A graph is a tree of blocks: the top vertex holds all the zeros, and each
    child block is a set of at least two zeros colliding below its parent.
    The trees come from ``_trees`` and their vertices are numbered in
    preorder; the level maps of each tree come from ``_level_maps``, which
    only emits valid ones.  Enhancements are forced by the vertex-sum rule,
    so nothing else is chosen, and no graph can repeat because it determines
    its block tree and its level map.
    """
    if n < 1:
        raise StrataError("need at least two zeros")
    out = []
    seen = set()
    for tree in _trees(frozenset(range(n + 1)), max_levels + 1):
        if not tree[1]:
            continue
        parents: list[int] = [0]  # the top's entry is never read
        zeros: list[tuple[int, ...]] = []
        edges = []

        def walk(block, v: int):
            labels, kids = block
            zeros.append(tuple(sorted(labels.difference(*(k[0] for k in kids)))))
            for kid in kids:
                w = len(zeros)
                parents.append(v)
                edges.append((v, w, len(kid[0]) + 2))
                walk(kid, w)

        walk(tree, 0)
        edges.sort()
        for levels in _level_maps(parents, max_levels):
            g = EnhancedLevelGraph(levels, tuple(edges), tuple(zeros))
            g.validate()
            key = canonical_key(g, labeled=True)
            if key in seen:
                raise AssertionError("duplicate labeled graph generated")
            seen.add(key)
            out.append(g)
    return out


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

    parent = list(range(g.vertex_count()))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    surviving = []
    for (u, w, k) in g.edges:
        crossed = set(range(-g.levels[u] + 1, -g.levels[w] + 1))
        if crossed <= removed:
            parent[find(w)] = find(u)
        else:
            surviving.append((u, w, k))
    reps = sorted({find(v) for v in range(g.vertex_count())}, key=lambda r: (find(r) != find(0), r))
    index = {r: i for i, r in enumerate(reps)}
    levels: list[int | None] = [None] * len(reps)
    zeros: list[list[int]] = [[] for _ in reps]
    for v in range(g.vertex_count()):
        r = index[find(v)]
        zeros[r].extend(g.zeros[v])
        lv = new_level(g.levels[v])
        if levels[r] is not None and levels[r] != lv:
            raise AssertionError("merged vertices must land on one level")
        levels[r] = lv
    edges = tuple(
        sorted((index[find(u)], index[find(w)], k) for (u, w, k) in surviving)
    )
    out = EnhancedLevelGraph(
        tuple(levels), edges, tuple(tuple(sorted(z)) for z in zeros)
    )
    out.validate()
    return out


def adjacency_poset(graphs: Sequence[EnhancedLevelGraph], labeled: bool = False):
    """Degeneration order on canonical forms: g' <= g when some undegeneration
    of g' equals g.  Returns (keys, relation) with relation mapping each key
    to the set of keys of its strict undegenerations."""
    keyed: dict[object, EnhancedLevelGraph] = {}
    for g in graphs:
        keyed.setdefault(canonical_key(g, labeled), g)
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
    sheets = []
    for v in range(g.vertex_count()):
        odd = bool(g.zeros[v])
        if v == 0 and g.pole_order % 2 != 0:
            odd = True
        for (_, k) in g.children(v):
            if k % 2 == 1:
                odd = True
        pe = g.parent_edge(v)
        if pe is not None and pe[1] % 2 == 1:
            odd = True
        sheets.append(1 if odd else 2)
    edge_data = []
    for idx, (u, w, k) in enumerate(g.edges):
        if k % 2 == 0:
            edge_data.append((idx, 2, k // 2))
        else:
            edge_data.append((idx, 1, k))
    zero_orders = tuple(tuple(2 for _ in g.zeros[v]) for v in range(g.vertex_count()))
    genus = []
    for v in range(g.vertex_count()):
        total = sum(zero_orders[v])
        if v == 0:
            p = g.pole_order
            total += (p + 1) if p % 2 != 0 else p // 2 * (1 if sheets[0] == 2 else 2)
            # for an even pole on a single-sheet vertex both half-order poles
            # live on the one preimage
        for (idx, (u, w, k)) in enumerate(g.edges):
            esheets, khat = (2, k // 2) if k % 2 == 0 else (1, k)
            if u == v:
                mult = esheets if sheets[v] == 1 else 1
                total += mult * (khat - 1)
            if w == v:
                mult = esheets if sheets[v] == 1 else 1
                total += mult * (-khat - 1)
        genus.append((total + 2) // 2)
    return DoubleCover(g, tuple(sheets), tuple(edge_data), zero_orders, tuple(genus))


def prong_count(g: EnhancedLevelGraph) -> tuple[int, list[int]]:
    """Product of the enhancements over all (vertical) edges."""
    per_edge = [k for (_, _, k) in g.edges]
    total = 1
    for k in per_edge:
        total *= k
    return total, per_edge


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
    blocks: dict[frozenset[int], dict] = {}
    for i0, comps in enumerate(comps_by_level):
        for comp in comps:
            if comp in blocks:
                blocks[comp]["deepest"] = i0 + 1
            else:
                blocks[comp] = {"first": i0 + 1, "deepest": i0 + 1}
    # runs must be contiguous; a valid chain guarantees it
    order = sorted(blocks, key=lambda c: (blocks[c]["first"], min(c)))
    index = {comp: i + 1 for i, comp in enumerate(order)}
    levels = [0] + [-blocks[comp]["deepest"] for comp in order]
    parents = []
    for comp in order:
        first = blocks[comp]["first"]
        if first == 1:
            parents.append(0)
        else:
            enclosing = next(
                c for c in comps_by_level[first - 2] if comp < c
            )
            parents.append(index[enclosing])
    # distribute zero labels: component of size s owns s+1 zeros minus children
    counts = [0] * (len(order) + 1)
    for i, comp in enumerate(order):
        child_zero_total = sum(
            len(c) + 1
            for j, c in enumerate(order)
            if parents[j] == i + 1
        )
        counts[i + 1] = (len(comp) + 1) - child_zero_total
    counts[0] = (n + 1) - sum(
        len(c) + 1 for j, c in enumerate(order) if parents[j] == 0
    )
    if min(counts) < 0:
        raise MscError("invalid nesting: zero counts became negative")
    zeros = []
    next_label = 0
    for c in counts:
        zeros.append(tuple(range(next_label, next_label + c)))
        next_label += c
    edges = tuple(
        sorted(
            (parents[i], i + 1, len(comp) + 3) for i, comp in enumerate(order)
        )
    )
    g = EnhancedLevelGraph(tuple(levels), edges, tuple(zeros))
    g.validate()
    return g


# ---------------------------------------------------------------------------
# Census helper


def census(n: int, max_levels: int) -> dict:
    graphs = enumerate_graphs(n, max_levels)
    groups = unlabeled_census(graphs)
    entries = []
    for key, members in sorted(groups.items(), key=lambda kv: repr(kv[0])):
        rep = members[0]
        total, per_edge = prong_count(rep)
        entries.append(
            {
                "depth": rep.depth,
                "labeled_count": len(members),
                "enhancements": sorted(per_edge),
                "prongs": total,
                "representative": rep.to_json(),
            }
        )
    return {
        "schema": 1,
        "n": n,
        "max_levels": max_levels,
        "labeled_total": len(graphs),
        "unlabeled_total": len(groups),
        "types": entries,
    }
