import random

import pytest

from anstab.anquiver import mutate
from anstab.exact import mat_det
from anstab.hearts import (
    Heart,
    HeartError,
    _tilt,
    apply_tilt_word,
    backward_tilt,
    canonical_form,
    convenient_representative,
    exchange_graph,
    exchange_graph_dot,
    forward_tilt,
    heart_equal,
    hearts_in_interval,
    shift_heart,
    standard_heart,
)
from anstab.klattice import twist_matrix


def all_hearts(n, depth):
    seen = {canonical_form(standard_heart(n)): standard_heart(n)}
    frontier = list(seen.values())
    for _ in range(depth):
        nxt = []
        for h in frontier:
            for s in h.labels:
                t = forward_tilt(h, s)
                key = canonical_form(t)
                if key not in seen:
                    seen[key] = t
                    nxt.append(t)
        frontier = nxt
    return list(seen.values())


class TestStandardHeart:
    def test_a2(self):
        h = standard_heart(2)
        assert h.classes == ((1, 0), (0, 1))
        assert h.ext.arrows == ((1, 2),)

    def test_identity_classes(self):
        h = standard_heart(4)
        assert [h.cls(i) for i in h.labels] == [
            tuple(1 if j == i - 1 else 0 for j in range(4)) for i in h.labels
        ]


class TestTilts:
    def test_forward_at_sink(self):
        h = forward_tilt(standard_heart(2), 2)
        assert h.cls(2) == (0, -1)
        assert h.cls(1) == (1, 1)
        assert h.ext.arrows == ((2, 1),)

    def test_forward_at_source(self):
        h = forward_tilt(standard_heart(2), 1)
        assert h.cls(1) == (-1, 0)
        assert h.cls(2) == (0, 1)

    def test_backward_inverts_forward(self):
        for n in (2, 3, 4):
            for h in all_hearts(n, 3):
                for s in h.labels:
                    assert heart_equal(backward_tilt(forward_tilt(h, s), s), h)

    def test_unknown_label(self):
        with pytest.raises(HeartError):
            forward_tilt(standard_heart(2), 9)

    def test_neighbour_rule_matches_the_per_label_rule(self):
        """Only the arrow neighbours of s gain a copy of [s]: the tilt equals
        the rule [t] -> [t] + m * [s] with m = ext^1(t, s) forward and
        ext^1(s, t) backward, asked of every label."""
        vertices, _ = exchange_graph(standard_heart(4), 3)
        for h in vertices.values():
            for s in h.labels:
                for direction in (1, -1):
                    cs = h.cls(s)
                    want = []
                    for t, c in zip(h.labels, h.classes):
                        m = h.ext1(t, s) if direction > 0 else h.ext1(s, t)
                        want.append(tuple(-x for x in cs) if t == s
                                    else tuple(x + m * y for x, y in zip(c, cs)))
                    got = _tilt(h, s, direction)
                    assert got.classes == tuple(want), (h, s, direction)
                    assert got.ext == mutate(h.ext, s)

    def test_unimodular(self):
        rng = random.Random(3)
        h = standard_heart(4)
        for _ in range(25):
            h = forward_tilt(h, rng.choice(h.labels))
            assert mat_det([list(c) for c in h.classes]) in (1, -1)

    def test_coords_recover_the_class(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randrange(2, 7)
            h = standard_heart(n)
            for _ in range(rng.randrange(8)):
                h = forward_tilt(h, rng.choice(h.labels))
            gamma = tuple(rng.randrange(-5, 6) for _ in range(n))
            x = h.coords(gamma)
            assert all(isinstance(c, int) for c in x.values())
            total = tuple(sum(x[l] * h.cls(l)[k] for l in h.labels) for k in range(n))
            assert total == gamma

    def test_coords_reject_a_non_integral_class(self):
        h = Heart((1, 2), ((2, 0), (0, 1)), standard_heart(2).ext)
        with pytest.raises(HeartError, match="integer combination"):
            h.coords((1, 0))
        for gamma in ((1,), (1, 0, 5)):
            with pytest.raises(HeartError, match="wrong length"):
                standard_heart(2).coords(gamma)

    def test_coords_reject_a_non_basis(self):
        # hearts built in Python skip check_basis
        non_square = Heart((1, 2), ((1, 0, 0), (0, 1, 0)), standard_heart(2).ext)
        singular = Heart((1, 2), ((1, 1), (1, 1)), standard_heart(2).ext)
        for h, gamma in ((non_square, (1, 0)), (singular, (2, 2))):
            with pytest.raises(HeartError, match="nonsingular square"):
                h.coords(gamma)

    def test_double_forward_is_inverse_twist(self):
        # tilt twice at one label: classes transform by the inverse twist
        for n in (2, 3, 4):
            for h in all_hearts(n, 3):
                for s in h.labels:
                    m = twist_matrix(h.ext, s, -1)
                    idx = {v: i for i, v in enumerate(h.ext.vertices)}
                    hh = forward_tilt(forward_tilt(h, s), s)
                    for l in h.labels:
                        coeffs = [0] * len(h.labels)
                        coeffs[idx[l]] = 1
                        image = m.apply(tuple(coeffs))
                        expected = tuple(
                            sum(
                                image[idx[t]] * h.cls(t)[k]
                                for t in h.labels
                            )
                            for k in range(len(h.labels))
                        )
                        assert hh.cls(l) == expected


class TestConvenientRepresentative:
    def test_already_convenient(self):
        h = standard_heart(3)
        out, word, gens = convenient_representative(h, {2}, 1)
        assert word == () and out == h

    def test_single_chain(self):
        h = standard_heart(3)
        out, word, gens = convenient_representative(h, {2}, 3)
        assert word == ((2, 1),)
        assert all(out.ext1(t, 3) == 0 for t in {2})
        assert gens == ((0, 1, 0),)

    def test_long_chain(self):
        h = standard_heart(4)
        out, word, gens = convenient_representative(h, {1, 2, 3}, 4)
        assert [w[0] for w in word] == [3, 2, 1]
        assert all(out.ext1(t, 4) == 0 for t in {1, 2, 3})

    def test_quotient_classes_unchanged(self):
        h = standard_heart(4)
        v = {1, 2, 3}
        out, _, _ = convenient_representative(h, v, 4)
        diff = [a - b for a, b in zip(out.cls(4), h.cls(4))]
        assert h.coords(diff)[4] == 0  # supported on the subset

    def test_two_chains(self):
        # mutated A3: vertex 3 receives arrows from both 2 and ... build a
        # heart whose quotient simple has two incoming ext arrows
        h = forward_tilt(standard_heart(3), 2)
        # ext arrows: 2->1, 3->2, 1->3; pick s0 = 3 with v = {1, 2}
        out, word, _ = convenient_representative(h, {1, 2}, 3)
        assert all(out.ext1(t, 3) == 0 for t in {1, 2})

    def test_rejects_s0_inside(self):
        with pytest.raises(HeartError):
            convenient_representative(standard_heart(3), {2}, 2)


class TestExchangeGraph:
    def test_radius_zero(self):
        vertices, edges = exchange_graph(standard_heart(2), 0)
        assert len(vertices) == 1 and not edges

    def test_out_degree(self):
        h = standard_heart(3)
        vertices, edges = exchange_graph(h, 2)
        outs = {}
        for src, label, dst in edges:
            outs.setdefault(src, []).append(label)
        # interior vertices have exactly n distinct outgoing tilts
        key0 = canonical_form(h)
        assert sorted(outs[key0]) == [1, 2, 3]

    def test_a2_interval_count(self):
        assert len(hearts_in_interval(standard_heart(2))) == 5

    def test_dot_export(self):
        vertices, edges = exchange_graph(standard_heart(2), 1)
        dot = exchange_graph_dot(vertices, edges)
        assert dot.startswith("digraph") and "->" in dot


class TestRelabeling:
    def test_tilt_commutes_with_relabeling(self):
        from anstab.anquiver import QuiverWithPotential

        h = standard_heart(3)
        perm = {1: 11, 2: 12, 3: 13}
        relabeled = Heart(
            tuple(perm[l] for l in h.labels),
            h.classes,
            QuiverWithPotential.build(
                [perm[v] for v in h.ext.vertices],
                [(perm[a], perm[b]) for (a, b) in h.ext.arrows],
            ),
        )
        for s in (1, 2, 3):
            a = forward_tilt(h, s)
            b = forward_tilt(relabeled, perm[s])
            assert {perm[l]: a.cls(l) for l in a.labels} == {
                l: b.cls(l) for l in b.labels
            }
            assert sorted(
                (perm[x], perm[y]) for (x, y) in a.ext.arrows
            ) == sorted(b.ext.arrows)


class TestHeartEquality:
    def test_reflexive(self):
        h = standard_heart(3)
        assert heart_equal(h, h)

    def test_forward_backward(self):
        h = standard_heart(3)
        assert heart_equal(backward_tilt(forward_tilt(h, 2), 2), h)

    def test_shift_distinct(self):
        h = standard_heart(2)
        assert not heart_equal(h, shift_heart(h, 1))
        assert heart_equal(h, shift_heart(h, 2))

    def test_json_roundtrip(self):
        h = apply_tilt_word(standard_heart(3), [(2, 1), (1, 1)])
        assert Heart.from_json(h.to_json()) == h
