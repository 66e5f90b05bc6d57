import itertools
import re

import pytest
from hypothesis import given, strategies as st

from anstab.anquiver import (
    QuiverError,
    QuiverWithPotential,
    enumerate_strings,
    euler_pairing,
    is_isomorphic,
    make_linear,
    mutate,
    restrict,
)
from anstab.hearts import exchange_graph, standard_heart


class TestMakeLinear:
    def test_smallest(self):
        q = make_linear(1)
        assert q.vertices == (1,) and q.arrows == ()

    def test_a2(self):
        q = make_linear(2)
        assert q.vertices == (1, 2)
        assert q.arrows == ((1, 2),)
        assert not q.cycles

    def test_a3(self):
        assert make_linear(3).arrows == ((1, 2), (2, 3))

    def test_rejects_zero(self):
        with pytest.raises(QuiverError):
            make_linear(0)


class TestMutation:
    def test_sink_reverses(self):
        q = mutate(make_linear(2), 2)
        assert q.arrows == ((2, 1),)
        assert not q.cycles

    def test_a3_middle_gives_cycle(self):
        q = mutate(make_linear(3), 2)
        assert sorted(q.arrows) == [(1, 3), (2, 1), (3, 2)]
        assert len(q.cycles) == 1

    def test_involution_small(self):
        q = mutate(mutate(make_linear(3), 2), 2)
        assert is_isomorphic(q, make_linear(3))

    def test_unknown_vertex(self):
        with pytest.raises(QuiverError):
            mutate(make_linear(2), 7)

    def test_involution_over_mutation_class(self):
        # every vertex of every quiver within distance 4 of A_n, n <= 5
        for n in range(1, 6):
            seen = {make_linear(n)}
            frontier = list(seen)
            for _ in range(4):
                nxt = []
                for q in frontier:
                    for k in q.vertices:
                        m = mutate(q, k)
                        assert is_isomorphic(mutate(m, k), q), (q, k)
                        if m not in seen:
                            seen.add(m)
                            nxt.append(m)
                frontier = nxt


class TestRestrict:
    def test_a4_components(self):
        r = restrict(make_linear(4), {1, 2, 4})
        comps = r.components()
        assert sorted(len(c) for c in comps) == [1, 2]

    def test_identity(self):
        q = make_linear(3)
        assert restrict(q, q.vertices) == q

    def test_cycle_restriction_drops_potential(self):
        q = mutate(make_linear(3), 2)
        r = restrict(q, {1, 3})
        assert r.arrows == ((1, 3),)
        assert not r.cycles

    def test_commutes_with_components(self):
        q = mutate(mutate(make_linear(5), 2), 4)
        sub = {1, 2, 4, 5}
        r = restrict(q, sub)
        joined = sorted(v for c in r.components() for v in c)
        assert joined == sorted(sub)


class TestEulerPairing:
    def test_a2(self):
        q = make_linear(2)
        assert euler_pairing(q, (1, 0), (0, 1)) == -1

    def test_cycle_arrow(self):
        q = mutate(make_linear(3), 2)
        # one arrow 1 -> 3
        assert euler_pairing(q, (1, 0, 0), (0, 0, 1)) == -1

    @given(
        st.lists(st.integers(-5, 5), min_size=3, max_size=3),
        st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    )
    def test_antisymmetric(self, a, b):
        q = mutate(make_linear(3), 2)
        assert euler_pairing(q, a, b) == -euler_pairing(q, b, a)
        assert euler_pairing(q, a, a) == 0

    def test_length_mismatch(self):
        with pytest.raises(QuiverError):
            euler_pairing(make_linear(2), (1,), (0, 1))


class TestStrings:
    def test_a2(self):
        q = make_linear(2)
        assert enumerate_strings(q) == [(0, 1), (1, 0), (1, 1)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_linear_intervals(self, n):
        q = make_linear(n)
        strings = enumerate_strings(q)
        assert len(strings) == n * (n + 1) // 2
        for dv in strings:
            assert set(dv) <= {0, 1}
            support = [i for i, x in enumerate(dv) if x]
            assert support == list(range(support[0], support[-1] + 1))

    def test_cycle_with_relations(self):
        q = mutate(make_linear(3), 2)
        strings = enumerate_strings(q)
        assert len(strings) == _naive_path_census(q)

    def test_string_through_a_sink_reached_last(self):
        # 1 -> 2 <- 4 <- 3: the walk 3, 4, 2, 1 is a string
        q = QuiverWithPotential.build([1, 2, 3, 4], [(1, 2), (3, 4), (4, 2)])
        strings = enumerate_strings(q)
        assert (1, 1, 1, 1) in strings
        assert len(strings) == 10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_restriction_of_every_heart(self, n):
        # each component of type A_r has r(r+1)/2 strings, one per
        # connected vertex subset of it
        for h in exchange_graph(standard_heart(n), 4)[0].values():
            q = h.ext
            for k in range(1, n + 1):
                for subset in itertools.combinations(q.vertices, k):
                    sub = restrict(q, subset)
                    strings = enumerate_strings(sub)
                    assert len(set(strings)) == len(strings)
                    assert len(strings) == sum(
                        len(c) * (len(c) + 1) // 2 for c in sub.components()
                    )
                    for dv in strings:
                        assert set(dv) <= {0, 1}
                        support = [v for v, x in zip(sub.vertices, dv) if x]
                        assert len(sub.components(support)) == 1


def _naive_path_census(q):
    """Independent count: relation-avoiding paths in the underlying graph."""
    count = len(q.vertices)  # trivial strings
    undirected = set()
    for (a, b) in q.arrows:
        undirected.add(frozenset((a, b)))
    count += len(undirected)
    # two-edge paths avoiding zero-relations in either reading
    for mid in q.vertices:
        nbrs = sorted(
            v for v in q.vertices if frozenset((mid, v)) in undirected
        )
        for x, y in itertools.combinations(nbrs, 2):
            if _path_allowed(q, x, mid, y) or _path_allowed(q, y, mid, x):
                count += 1
    return count


def _path_allowed(q, a, b, c):
    """Is there a string walk visiting a, b, c in order?"""
    def step(u, v):
        if (u, v) in q.arrows:
            return ((u, v), 1)
        if (v, u) in q.arrows:
            return ((v, u), -1)
        return None

    s1, s2 = step(a, b), step(b, c)
    if s1 is None or s2 is None:
        return False
    (_, d1), (_, d2) = s1, s2
    if d1 > 0 and d2 > 0:  # a -> b -> c lies in a 3-cycle when c -> a closes it
        return (c, a) not in q.arrows
    if d1 < 0 and d2 < 0:
        return (a, c) not in q.arrows
    return True


class TestTypeACheck:
    @pytest.mark.parametrize("n, size", [(1, 1), (2, 2), (3, 14), (4, 144), (5, 1980)])
    def test_build_accepts_exactly_the_mutation_class(self, n, size):
        """Among the connected quivers on 1..n without 2-cycles, ``build``
        accepts exactly the labeled mutation class of the linear quiver."""
        mutation_class, frontier = {make_linear(n)}, [make_linear(n)]
        while frontier:
            q = frontier.pop()
            for k in q.vertices:
                if (m := mutate(q, k)) not in mutation_class:
                    mutation_class.add(m)
                    frontier.append(m)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        accepted = set()
        for signs in itertools.product((0, 1, -1), repeat=len(pairs)):
            arrows = [pair[::sign] for pair, sign in zip(pairs, signs) if sign]
            try:
                q = QuiverWithPotential.build(range(1, n + 1), arrows)
            except QuiverError:
                continue
            if len(q.components()) == 1:
                accepted.add(q)
        assert len(mutation_class) == size
        assert accepted == mutation_class

    def test_reader_requires_the_derived_cycles(self):
        q = mutate(make_linear(3), 2)
        data = q.to_json()
        assert data["cycles"] == [[[1, 3], [3, 2], [2, 1]]]
        assert QuiverWithPotential.from_json(dict(data, cycles=[[[3, 2], [2, 1], [1, 3]]])) == q
        missing = re.escape("3-cycle ((1, 3), (3, 2), (2, 1)) is missing from cycles")
        for bad in (dict(data, cycles=[]), {k: v for k, v in data.items() if k != "cycles"}):
            with pytest.raises(QuiverError, match=missing):
                QuiverWithPotential.from_json(bad)


class TestSerialization:
    def test_roundtrip(self):
        q = mutate(make_linear(4), 2)
        assert QuiverWithPotential.from_json(q.to_json()) == q

    def test_rejects_two_cycles(self):
        with pytest.raises(QuiverError):
            QuiverWithPotential.build([1, 2], [(1, 2), (2, 1)])
