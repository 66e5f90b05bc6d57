import hashlib
import itertools
import json
import math
import os
import time

import pytest

from anstab import strata
from anstab.cli import SCHEMA, main
from anstab.exact import gr
from anstab.hearts import forward_tilt, standard_heart
from anstab.klattice import simple_twist_data
from anstab.multiscale import validate_msc
from anstab.strata import (
    EnhancedLevelGraph,
    StrataError,
    adjacency_poset,
    canonical_key,
    census,
    census_types,
    double_cover,
    enumerate_graphs,
    from_msc,
    iter_graphs,
    prong_count,
    undegenerate,
    unlabeled_census,
)


def graph_json(levels, zeros, edges):
    return {
        "schema": 1,
        "vertices": [
            {"level": lv, "zeros": list(z), "pole": i == 0}
            for i, (lv, z) in enumerate(zip(levels, zeros))
        ],
        "edges": [list(e) for e in edges],
    }


def graphs_by_depth(n, max_levels):
    out = {}
    for g in enumerate_graphs(n, max_levels):
        out.setdefault(g.depth, []).append(g)
    return out


class TestEnumeration:
    def test_a2_counts(self):
        gs = enumerate_graphs(2, 2)
        assert len(gs) == 3
        assert all(g.depth == 1 for g in gs)
        assert len(unlabeled_census(gs)) == 1

    def test_a3_level_one(self):
        by_depth = graphs_by_depth(3, 1)
        groups = unlabeled_census(by_depth[1])
        counts = sorted(
            (len(members), prong_count(members[0])[0])
            for members in groups.values()
        )
        assert counts == [(3, 16), (4, 5), (6, 4)]

    def test_a3_level_two(self):
        by_depth = graphs_by_depth(3, 2)
        l2 = by_depth[2]
        groups = unlabeled_census(l2)
        assert len(groups) == 2
        sizes = sorted(len(m) for m in groups.values())
        assert sizes == [6, 12]  # slanted cherries, three-level chains

    def test_enhancements_forced(self):
        for g in enumerate_graphs(4, 2):
            for v in range(g.vertex_count()):
                assert g.vertex_order_sum(v) == -4

    def test_type_count_matches_rho_census(self):
        # unlabeled depth-1 graphs correspond to the valid component types
        for n in range(2, 7):
            gs = [g for g in enumerate_graphs(n, 1)]
            unl = len(unlabeled_census(gs))
            rhos = 0
            for k in range(1, n + 1):
                for sizes in itertools.combinations_with_replacement(
                    range(1, n + 1), k
                ):
                    total = sum(s + 1 for s in sizes)
                    if total > n + 1:
                        continue
                    if total == n + 1 and k < 2:
                        continue
                    rhos += 1
            assert unl == rhos, n

    def test_pole_order(self):
        g = enumerate_graphs(3, 1)[0]
        assert g.pole_order == -8
        assert EnhancedLevelGraph((0,), (-1,), ((0, 1, 2),)).pole_order == -7

    @pytest.mark.parametrize(
        "n, max_levels, count, digest",
        [
            (4, 3, 435, "e08bf7177f634a70e0356dcb5819879e17c4e79b980efe6b4bbb601b089439db"),
            (5, 2, 2066, "f441105902520a3d39bb18fce0fd9cf8e88318a867ae9f4ed3a8be134e17f278"),
            (6, 1, 875, "e6191e1534b7216a99d7910bd00b8f66eff17a566dbb959879e4823956165d07"),
        ],
    )
    def test_output_pinned(self, n, max_levels, count, digest):
        # the graphs, their vertex numbering and their order, as first recorded
        gs = enumerate_graphs(n, max_levels)
        text = json.dumps([g.to_json() for g in gs])
        assert len(gs) == count
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_order_pinned_small_sizes(self):
        # the census representatives are the first graph of each type in this
        # order, so every graph of every small size keeps its place
        digest = hashlib.sha256()
        for n in range(1, 6):
            for max_levels in (1, 2, 3):
                for g in enumerate_graphs(n, max_levels):
                    digest.update(json.dumps(g.to_json()).encode())
        assert digest.hexdigest() == (
            "83be84582dea6e130cc6dbf51bc3245cce1336b27d1a3150b0b04d2d8510ca03"
        )

    def test_stream_is_lazy(self, monkeypatch):
        # the first graph at (7, 2) comes before the 159,615 others are built:
        # each tree and each level map is checked once, just before its first
        # graph, so the checks count the trees and maps built so far
        calls = []

        def counted(check):
            def wrapper(*args):
                calls.append(args)
                check(*args)
            return wrapper

        for name in ("_check_tree", "_check_levels"):
            monkeypatch.setattr(strata, name, counted(getattr(strata, name)))
        first = next(iter_graphs(7, 2))
        assert 0 < len(calls) < 100
        assert first == EnhancedLevelGraph((0, -1), (-1, 0), ((2, 3, 4, 5, 6, 7), (0, 1)))

    def test_one_level_counts_are_bell_numbers(self):
        # a one-level graph is a set partition of the n+1 zeros whose
        # singletons sit on the top vertex, minus the partition into
        # singletons (no edge) and the one block (the top keeps no zero)
        bell = [1]
        row = [1]
        for _ in range(8):
            row = list(itertools.accumulate(row, initial=row[-1]))
            bell.append(row[0])
        assert bell[:6] == [1, 1, 2, 5, 15, 52]
        for n in range(2, 8):
            assert len(enumerate_graphs(n, 1)) == bell[n + 1] - 2, n

    def test_duplicate_guard(self, monkeypatch):
        level_maps = strata._level_maps

        def twice(parents, max_levels):
            for levels in level_maps(parents, max_levels):
                yield levels
                yield levels

        monkeypatch.setattr(strata, "_level_maps", twice)
        with pytest.raises(AssertionError, match="duplicate"):
            enumerate_graphs(3, 1)

    @pytest.mark.parametrize(
        "tree, match",
        [
            (((-1, 0, 1), ((0, 1), (), (2, 3))), "vertex 1 is unstable: 2 special points"),
            (((-1, 0), ((0, 1), (2, 4))), "zero labels must be 0..n"),
        ],
    )
    def test_tree_check_fires(self, monkeypatch, tree, match):
        # the enumerator checks each tree once, but it does check it
        def trees(labels, depth_budget, memo):
            yield (-1,), (tuple(sorted(labels)),)
            yield tree

        monkeypatch.setattr(strata, "_trees", trees)
        with pytest.raises(StrataError, match=match):
            enumerate_graphs(3, 2)

    @pytest.mark.parametrize(
        "levels, match",
        [((0, 0), "edges must descend strictly"), ((0, -2), "levels must occupy 0..-L without gaps")],
    )
    def test_level_check_fires(self, monkeypatch, levels, match):
        # every tree at (2, 1) is one block of two zeros below the top
        monkeypatch.setattr(strata, "_level_maps", lambda parents, max_levels: iter([levels]))
        with pytest.raises(StrataError, match=match):
            enumerate_graphs(2, 1)

    def test_level_budget_is_clamped(self):
        # at most n - 1 levels below 0 can be filled, so a larger budget gives
        # the same graphs and types, at once
        start = time.monotonic()
        assert enumerate_graphs(3, 400) == enumerate_graphs(3, 2)
        assert time.monotonic() - start < 1.0
        start = time.monotonic()
        big = census(5, 60)
        assert time.monotonic() - start < 1.0
        assert big["max_levels"] == 60
        assert {**big, "max_levels": 4} == census(5, 4)


class TestUndegeneration:
    def test_single_passage(self):
        g = enumerate_graphs(2, 1)[0]
        sm = undegenerate(g, [1])
        assert sm.vertex_count() == 1 and sm.depth == 0

    def test_slanted_cherry(self):
        l2 = [g for g in enumerate_graphs(3, 2) if g.depth == 2]
        slanted = next(
            g for g in l2 if all(u == 0 for (u, _, _) in g.edges)
        )
        d2 = undegenerate(slanted, [1])
        d3 = undegenerate(slanted, [2])
        assert d2.depth == 1 and len(d2.edges) == 1 and d2.edges[0][2] == 4
        assert d3.depth == 1 and len(d3.edges) == 2
        assert sorted(k for (_, _, k) in d3.edges) == [4, 4]

    def test_chain(self):
        l2 = [g for g in enumerate_graphs(3, 2) if g.depth == 2]
        chain = next(g for g in l2 if any(u != 0 for (u, _, _) in g.edges))
        assert [k for (_, _, k) in undegenerate(chain, [1]).edges] == [4]
        assert [k for (_, _, k) in undegenerate(chain, [2]).edges] == [5]

    def test_contraction_commutes(self):
        for g in enumerate_graphs(4, 2):
            if g.depth != 2:
                continue
            both = undegenerate(g, [1, 2])
            assert canonical_key(both, labeled=True) == canonical_key(
                undegenerate(undegenerate(g, [2]), [1]), labeled=True
            )

    def test_bad_passage(self):
        with pytest.raises(StrataError):
            undegenerate(enumerate_graphs(2, 1)[0], [3])


class TestPoset:
    def test_a3_incidences(self):
        gs = enumerate_graphs(3, 2)
        keyed, rel = adjacency_poset(gs, labeled=False)

        def name(key):
            g = keyed[key]
            total, per = prong_count(g)
            return (g.depth, tuple(sorted(per)))

        named = {name(k): sorted(name(u) for u in rel[k]) for k in keyed}
        assert named[(2, (4, 5))] == [(1, (4,)), (1, (5,))]
        assert named[(2, (4, 4))] == [(1, (4,)), (1, (4, 4))]
        for k in keyed:
            if keyed[k].depth == 1:
                assert named[name(k)] == []

    def test_rank_is_depth(self):
        gs = enumerate_graphs(3, 2)
        keyed, rel = adjacency_poset(gs, labeled=False)
        for k, ups in rel.items():
            # strict undegenerations live at strictly smaller depth
            for u in ups:
                assert keyed[u].depth < keyed[k].depth

    @pytest.mark.parametrize("n, max_levels", [(n, L) for n in range(1, 6) for L in (1, 2, 3)])
    def test_shape_keys_match_canonical_keys(self, n, max_levels):
        # the poset keyed by canonical_key of every graph, written out
        gs = enumerate_graphs(n, max_levels)
        keyed = {}
        for g in gs:
            keyed.setdefault(canonical_key(g), g)
        relation = {k: set() for k in keyed}
        for key, g in keyed.items():
            for r in range(1, g.depth + 1):
                for passages in itertools.combinations(range(1, g.depth + 1), r):
                    hkey = canonical_key(undegenerate(g, passages))
                    if hkey in keyed and hkey != key:
                        relation[key].add(hkey)
        got_keyed, got_relation = adjacency_poset(gs)
        assert list(got_keyed.items()) == list(keyed.items())
        assert got_relation == relation

    @pytest.mark.parametrize("n, max_levels", [(n, L) for n in range(1, 6) for L in (1, 2)] + [(4, 3)])
    def test_labeled_poset_forgets_to_the_type_poset(self, n, max_levels):
        gs = enumerate_graphs(n, max_levels)
        keyed, rel = adjacency_poset(gs, labeled=True)
        assert len(keyed) == len(gs)
        forget = {k: canonical_key(g) for k, g in keyed.items()}
        types, type_rel = adjacency_poset([rep for _, _, rep in census_types(n, max_levels)])
        assert set(forget.values()) == set(types)
        assert {(forget[k], forget[u]) for k in rel for u in rel[k]} == {
            (k, u) for k in type_rel for u in type_rel[k]}

    def test_single_graph(self):
        g = enumerate_graphs(2, 1)[:1]
        keyed, rel = adjacency_poset(g)
        assert len(keyed) == 1 and all(not v for v in rel.values())


class TestDoubleCover:
    def test_two_zero_collision(self):
        g = enumerate_graphs(2, 1)[0]  # kappa = 4
        dc = double_cover(g)
        assert dc.kappa_hats() == [2]
        assert dc.edge_data[0][1] == 2  # two preimage edges
        assert dc.cover_zero_orders[1] == (2, 2)
        assert dc.cover_genus == (0, 0)

    def test_three_zero_collision(self):
        d1 = next(
            g for g in enumerate_graphs(3, 1) if prong_count(g)[0] == 5
        )
        dc = double_cover(d1)
        assert dc.kappa_hats() == [5]
        assert dc.edge_data[0][1] == 1
        assert dc.cover_genus[1] == 1  # bottom vertex lifts to genus one

    def test_matches_twist_data(self):
        # one representative per type: double_cover reads only the edges
        for n in range(2, 13):
            for _, _, g in census_types(n, 1):
                sizes = sorted((k - 3 for (_, _, k) in g.edges), reverse=True)
                data = simple_twist_data([sizes])
                hats = sorted(c.kappa_hat for c in data.levels[0].components)
                assert sorted(double_cover(g).kappa_hats()) == hats


class TestProngs:
    def test_examples(self):
        gs3 = enumerate_graphs(3, 1)
        by_type = {prong_count(m[0])[0] for m in unlabeled_census(gs3).values()}
        assert by_type == {4, 5, 16}

    def test_a2(self):
        assert prong_count(enumerate_graphs(2, 1)[0]) == (4, [4])


class TestFromMsc:
    def test_a2_limit(self):
        top = forward_tilt(standard_heart(2), 2)
        m = validate_msc(top, [{1: gr(0), 2: gr(-1)}, {1: gr(1)}])
        g = from_msc(m)
        assert canonical_key(g) == canonical_key(enumerate_graphs(2, 1)[0])

    def test_honest(self):
        m = validate_msc(standard_heart(2), [{1: gr(0, 1), 2: gr(0, 1)}])
        assert from_msc(m).vertex_count() == 1

    def test_cherry(self):
        h = standard_heart(3)
        m = validate_msc(
            h, [{1: gr(0), 2: gr(0, 1), 3: gr(0)}, {1: gr(1), 3: gr(2)}]
        )
        target = next(
            g for g in enumerate_graphs(3, 1) if prong_count(g)[0] == 16
        )
        assert canonical_key(from_msc(m)) == canonical_key(target)

    def test_enhancement_matches_component_size(self):
        import random

        from anstab.multiscale import type_rho
        from anstab.sampling import random_msc

        rng = random.Random(13)
        for _ in range(40):
            m = random_msc(rng, rng.choice([3, 4, 5]), max_levels=2)
            g = from_msc(m)
            level1 = sorted(
                k - 3 for (u, _, k) in g.edges if u == 0
            )
            # level-1 components of the msc whose parent is the top vertex
            rho1 = sorted(type_rho(m)[0]) if m.L else []
            if m.L:
                assert level1 == rho1


class TestSerialization:
    def test_json_roundtrip(self):
        g = enumerate_graphs(3, 2)[0]
        assert canonical_key(
            EnhancedLevelGraph.from_json(g.to_json()), labeled=True
        ) == canonical_key(g, labeled=True)

    @pytest.mark.parametrize(
        "data, match",
        [
            # a middle vertex with no zeros and one child
            (graph_json((0, -1, -2), ((), (), (0, 1)), ((0, 1, 4), (1, 2, 4))), "unstable"),
            # a top vertex with no zeros and one child
            (graph_json((0, -1), ((), (0, 1, 2)), ((0, 1, 5),)), "unstable"),
            (graph_json((0, -1), ((0,), (1, 2)), ((0, 1, 5),)), "kappa 5"),
            (
                graph_json((0, -2, -1), ((0,), (2, 3), (1,)), ((0, 2, 5), (2, 1, 4))),
                "before its parent",
            ),
            (
                graph_json(
                    (0, -1, -2), ((0,), (1, 2), (3, 4)), ((0, 1, 6), (0, 2, 4), (1, 2, 4))
                ),
                "two parents",
            ),
        ],
    )
    def test_rejects(self, data, match):
        with pytest.raises(StrataError, match=match):
            EnhancedLevelGraph.from_json(data)

    @pytest.mark.parametrize(
        "levels, parents, zeros, match",
        [
            ((), (), (), "vertex 0 must be the top"),
            ((-1, -2), (-1, 0), ((0,), (1, 2)), "vertex 0 must be the top"),
            ((0, -1), (0, 0), ((0,), (1, 2)), "vertex 0 must be the top"),
            ((0, -1), (-1, 0), ((0, 1, 2),), "must list every vertex"),
            ((0, -1), (-1,), ((0,), (1, 2)), "must list every vertex"),
            ((0, -1), (-1, 1), ((0,), (1, 2)), "vertex 1 must hang below an earlier vertex"),
            ((0, 0), (-1, 0), ((0,), (1, 2)), "descend strictly"),
            ((0, -1, -1), (-1, 0, 1), ((0,), (1,), (2, 3)), "descend strictly"),
            ((0, -2), (-1, 0), ((0,), (1, 2)), "without gaps"),
            ((0, -1), (-1, 0), ((0,), (1, 3)), "zero labels must be 0..n"),
            ((0, -1), (-1, 0), ((0, 1), (1, 2)), "zero labels must be 0..n"),
        ],
    )
    def test_validate_rejects(self, levels, parents, zeros, match):
        with pytest.raises(StrataError, match=match):
            EnhancedLevelGraph(levels, parents, zeros).validate()

    def test_dot(self):
        dot = enumerate_graphs(3, 1)[0].to_dot()
        assert "rank=same" in dot and "->" in dot

    def test_census_runtime(self):
        start = time.monotonic()
        data = census(3, 2)
        assert time.monotonic() - start < 1.0
        assert data["labeled_total"] == 31

    def test_golden_census(self):
        here = os.path.dirname(__file__)
        path = os.path.join(
            here, "..", "src", "anstab", "data", "a3_census.json"
        )
        with open(path) as fh:
            golden = json.load(fh)
        live = census(3, 2)
        assert live == golden


def labeled_census(n, max_levels):
    """census() the slow way: group every labeled graph by unlabeled type."""
    graphs = enumerate_graphs(n, max_levels)
    groups = unlabeled_census(graphs)
    entries = []
    for key, members in sorted(groups.items(), key=lambda kv: repr(kv[0])):
        total, per_edge = prong_count(members[0])
        entries.append(
            {
                "depth": members[0].depth,
                "labeled_count": len(members),
                "enhancements": sorted(per_edge),
                "prongs": total,
                "representative": members[0].to_json(),
            }
        )
    data = {
        "schema": 1,
        "n": n,
        "max_levels": max_levels,
        "labeled_total": len(graphs),
        "unlabeled_total": len(groups),
        "types": entries,
    }
    return data, list(groups)


def labeled_total(n, max_levels):
    """Labeled graph count by inclusion-exclusion over the levels used.

    With j levels below the top, a(s, l) counts the subtrees on s labeled
    zeros rooted at level -l: a family of disjoint child blocks (at least two
    zeros each, weighted by b(m, l), the choices of a deeper level and a
    subtree) and legs for the rest, minus the unstable single full block.
    Level maps into j levels that need not all be used give
    g(j) = sum over d of C(j, d) * s(d), and s(d) counts the graphs of depth
    exactly d."""

    def maps_into(j):
        a = {}

        def b(m, level):
            return sum(a[m, deeper] for deeper in range(level + 1, j + 1))

        def arrangements(s, level):
            # the smallest label is a leg, or lies in a block of m zeros
            g = [1]
            for t in range(1, s + 1):
                g.append(g[t - 1] + sum(
                    math.comb(t - 1, m - 1) * b(m, level) * g[t - m] for m in range(2, t + 1)
                ))
            return g[s]

        for level in range(j, 0, -1):
            for m in range(2, n + 2):
                a[m, level] = arrangements(m, level) - b(m, level)
        # the top needs an edge, and its zeros cannot all fall into one block
        return arrangements(n + 1, 0) - 1 - b(n + 1, 0)

    exact = [
        sum((-1) ** (d - j) * math.comb(d, j) * maps_into(j) for j in range(d + 1))
        for d in range(max_levels + 1)
    ]
    return sum(exact[1:])


def poset_stdout(keyed, rel):
    names = {k: f"type{idx}" for idx, k in enumerate(sorted(keyed, key=repr))}
    payload = {
        "schema": SCHEMA,
        "strata": {
            names[k]: {
                "depth": keyed[k].depth,
                "undegenerations": sorted(names[u] for u in rel[k]),
            }
            for k in keyed
        },
    }
    return json.dumps(payload, indent=2) + "\n"


# every size whose labeled total is at most 25,000
DIFFERENTIAL_SIZES = (
    [(n, 1) for n in range(2, 9)] + [(n, 2) for n in range(2, 7)] + [(n, 3) for n in range(2, 6)]
)


class TestCensusByType:
    @pytest.mark.parametrize("n, max_levels", DIFFERENTIAL_SIZES)
    def test_matches_labeled_enumeration(self, n, max_levels):
        # types, counts, prongs, enhancements, representatives and order
        oracle, first_seen = labeled_census(n, max_levels)
        assert census(n, max_levels) == oracle
        assert labeled_total(n, max_levels) == oracle["labeled_total"]
        assert [key for key, _, _ in census_types(n, max_levels)] == first_seen

    @pytest.mark.parametrize("n, max_levels", [(n, L) for n in range(2, 6) for L in (1, 2, 3)])
    def test_poset_output_matches_labeled_enumeration(self, capsys, n, max_levels):
        assert main(["strata", "--n", str(n), "--levels", str(max_levels), "--poset"]) == 0
        out = capsys.readouterr().out
        assert out == poset_stdout(*adjacency_poset(enumerate_graphs(n, max_levels)))

    def test_large_sizes_are_fast(self):
        start = time.monotonic()
        data = census(12, 1)
        assert time.monotonic() - start < 1.0
        assert data["labeled_total"] == 27_644_435  # Bell(13) - 2
        assert data["labeled_total"] == sum(t["labeled_count"] for t in data["types"])
        start = time.monotonic()
        data = census(8, 2)
        assert time.monotonic() - start < 1.0
        assert data["labeled_total"] == labeled_total(8, 2)
        assert data["labeled_total"] == sum(t["labeled_count"] for t in data["types"])
