import random
from fractions import Fraction as F

import pytest

from anstab.exact import EC, gr
from anstab.hearts import forward_tilt, heart_equal, standard_heart
from anstab.limits import (
    InadmissibleFamily,
    LaurentCharge,
    extract_limit,
    order_relation,
    plumbing_ray,
)
from anstab.multiscale import equivalent, validate_msc
from anstab.sampling import random_msc


def degenerating_family():
    return LaurentCharge.build(
        {1: {0: gr(-1), 1: gr(0, 1)}, 2: {0: gr(1), 1: gr(0, 1)}}
    )


class TestOrderRelation:
    def test_single_level_before_rotation(self):
        la = order_relation(standard_heart(2), degenerating_family())
        assert la.level_of == ((1, 0), (2, 0))
        assert la.valuations == (0,)

    def test_one_vanishing(self):
        zc = LaurentCharge.build({1: {0: gr(0, 1)}, 2: {1: gr(0, 1)}})
        la = order_relation(standard_heart(2), zc)
        assert la.level_of == ((1, 0), (2, 1))

    def test_three_levels(self):
        zc = LaurentCharge.build(
            {1: {0: gr(0, 1)}, 2: {1: gr(0, 1)}, 3: {2: gr(0, 1)}}
        )
        la = order_relation(standard_heart(3), zc)
        assert la.level_of == ((1, 0), (2, 1), (3, 2))
        assert la.level_sets() == [
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        ]

    def test_inadmissible(self):
        zc = LaurentCharge.build({1: {0: gr(0, -1)}, 2: {0: gr(0, 1)}})
        with pytest.raises(InadmissibleFamily):
            order_relation(standard_heart(2), zc)


class TestExtractLimit:
    def test_rotation_branch(self):
        m, rot = extract_limit(standard_heart(2), degenerating_family())
        assert rot == F(1, 64)
        assert heart_equal(m.top, forward_tilt(standard_heart(2), 2))
        assert m.labels(1) == frozenset({1})
        # undoing the rotation recovers Z_0(S_2[1]) = -1 exactly
        unrot = m.charge(0)[2] * EC.unit(-rot)
        assert unrot.as_gaussian() == gr(-1)
        # quotient charge supported on the shifted simple only
        assert m.charge(0)[1].is_zero()
        assert not m.charge(1)[1].is_zero()

    def test_honest_family(self):
        zc = LaurentCharge.build({1: {0: gr(-1, 1)}, 2: {0: gr(1, 1)}})
        m, rot = extract_limit(standard_heart(2), zc)
        assert m.L == 0 and rot == 0

    def test_plain_two_level(self):
        zc = LaurentCharge.build({1: {0: gr(0, 1)}, 2: {1: gr(-1, 1)}})
        m, rot = extract_limit(standard_heart(2), zc)
        assert rot == 0 and m.L == 1
        assert m.labels(1) == frozenset({2})

    def test_deterministic(self):
        a = extract_limit(standard_heart(2), degenerating_family())
        b = extract_limit(standard_heart(2), degenerating_family())
        assert a[1] == b[1]
        assert a[0].top.classes == b[0].top.classes
        assert a[0].charges == b[0].charges

    def test_level_cardinalities_stable_under_rotation(self):
        m, rot = extract_limit(standard_heart(2), degenerating_family())
        # rotation moved nothing between levels: 1 simple on top, 1 below
        assert len(m.quotient_labels(0)) == 1
        assert len(m.quotient_labels(1)) == 1

    @pytest.mark.parametrize(
        "values",
        [
            # f_l = 1 + i*t for every l: rotating turns all four below the axis
            {l: (gr(1), gr(0, 1)) for l in (1, 2, 3, 4)},
            # mixed: tilts add families together and one level degenerates
            {1: (gr(1), gr(0, 1)), 2: (gr(-1), gr(0, 1)),
             3: (gr(1), gr(0, 2)), 4: (gr(2), gr(0, 1))},
        ],
    )
    def test_family_settle(self, values):
        h = standard_heart(4)
        zc = LaurentCharge.build({l: {0: c0, 1: c1} for l, (c0, c1) in values.items()})
        m, rot = extract_limit(h, zc)
        assert rot == F(1, 64)
        # the top heart is the input followed by forward tilts only
        word = m.top.provenance
        assert word[: len(h.provenance)] == h.provenance
        extra = word[len(h.provenance):]
        assert len(extra) == 4 and all(d == +1 for _, d in extra)
        # every simple lies in H at its level
        for i in range(m.L + 1):
            for l in m.quotient_labels(i):
                assert m.charge(i)[l].in_upper_semiclosed()
        # tilts preserve the charge as a map on K, so on each basis vector
        # the level-0 charge is e^(-i*pi/64) times the constant coefficient
        ch = m.charge(0)
        for k, l in enumerate(h.labels):
            e = [1 if j == k else 0 for j in range(h.rank())]
            value = EC.zero()
            for lbl, x in m.top.coords(e).items():
                value = value + ch[lbl] * x
            assert value == EC.unit(rot) * EC.from_gaussian(values[l][0])

    def test_missing_family(self):
        with pytest.raises(Exception):
            extract_limit(
                standard_heart(2), LaurentCharge.build({1: {0: gr(0, 1)}})
            )


class TestPlumbingRay:
    def test_roundtrip_sample(self):
        rng = random.Random(9)
        for _ in range(30):
            m = random_msc(rng, rng.choice([2, 3, 4]), max_levels=2)
            heart, ray = plumbing_ray(m)
            back, rot = extract_limit(heart, ray)
            assert rot == 0
            assert equivalent(back, m)

    def test_ray_shape(self):
        h = standard_heart(2)
        m = validate_msc(h, [{1: gr(0, 1), 2: gr(0)}, {2: gr(-1, 2)}])
        heart, ray = plumbing_ray(m)
        assert ray.family(1).coeffs == {0: gr(0, 1)}
        assert ray.family(2).coeffs == {1: gr(-1, 2)}


class TestSerialization:
    def test_roundtrip(self):
        zc = degenerating_family()
        again = LaurentCharge.from_json(zc.to_json())
        assert again.families == zc.families
