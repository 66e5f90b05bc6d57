import json
import random
import re
from fractions import Fraction as F

import pytest

from anstab import exact
from anstab.exact import EC, gr
from anstab.hearts import backward_tilt, forward_tilt, heart_equal, standard_heart
from anstab.limits import (
    InadmissibleFamily,
    LaurentCharge,
    extract_limit,
    plumbing_ray,
)
from anstab.multiscale import INFTY, c_act_msc, equivalent, plumb, validate_msc
from anstab.sampling import random_msc


def degenerating_family():
    return LaurentCharge.build(
        {1: {0: gr(-1), 1: gr(0, 1)}, 2: {0: gr(1), 1: gr(0, 1)}}
    )


class TestOrderRelation:
    """``extract_limit`` orders the simples into levels by t-adic
    valuation, largest charges on top."""

    def test_one_vanishing(self):
        zc = LaurentCharge.build({1: {0: gr(0, 1)}, 2: {1: gr(0, 1)}})
        m, rot = extract_limit(standard_heart(2), zc)
        assert rot == 0 and m.L == 1
        assert m.quotient_labels(0) == frozenset({1})
        assert m.labels(1) == frozenset({2})

    def test_three_levels(self):
        zc = LaurentCharge.build(
            {1: {0: gr(0, 1)}, 2: {1: gr(0, 1)}, 3: {2: gr(0, 1)}}
        )
        m, rot = extract_limit(standard_heart(3), zc)
        assert rot == 0 and m.L == 2
        assert [m.quotient_labels(i) for i in range(3)] == [
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        ]

    def test_inadmissible(self):
        zc = LaurentCharge.build({1: {0: gr(0, -1)}, 2: {0: gr(0, 1)}})
        with pytest.raises(InadmissibleFamily):
            extract_limit(standard_heart(2), zc)


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

    @pytest.mark.parametrize("labels, given", [((1, 2, 7), "1, 2, 7"), ((1,), "1")])
    def test_families_sit_on_exactly_the_simples(self, labels, given):
        zc = LaurentCharge.build({l: {0: gr(0, 1)} for l in labels})
        message = f"family labels {given} are not the heart's simples 1, 2"
        with pytest.raises(exact.AnstabError, match=message) as info:
            extract_limit(standard_heart(2), zc)
        assert info.value.exit_code == 2


def random_admissible_family(rng, labels):
    """Per label 1-3 terms with exponents in -1..3.  The lowest term is in H
    off the axes, on R_{<0} or on R_{>0}; after a real one the next term has
    Im > 0."""
    def rational(lo, hi):
        return F(rng.randrange(lo, hi), rng.randrange(1, 4))

    fams = {}
    for l in labels:
        ks = sorted(rng.sample(range(-1, 3), rng.randrange(1, 4)))
        terms = {k: gr(rational(-4, 5), rational(-4, 5)) for k in ks}
        r = rng.random()
        if r < 0.7:
            terms[ks[0]] = gr(rational(-4, 5) or 1, rational(1, 5))
        else:
            if len(ks) == 1:
                ks.append(ks[0] + 1)
            terms[ks[0]] = gr(rational(-4, 0) if r < 0.85 else rational(1, 5))
            terms[ks[1]] = gr(rational(-4, 5), rational(1, 5))
        fams[l] = terms
    return fams


def class_family(heart, fams, gamma):
    """The family of the K-class gamma: its heart coordinates times the
    simples' families, as Gaussian coefficients by exponent."""
    total = {}
    for l, x in heart.coords(gamma).items():
        for k, c in fams[l].items():
            total[k] = total.get(k, gr(0)) + c * x
    return {k: c for k, c in total.items() if not c.is_zero()}


class TestExtractLimitProperties:
    def test_seeded_families_on_tilted_hearts(self):
        rng = random.Random(13)
        rotated = 0
        for _ in range(200):
            n = rng.randrange(2, 6)
            h = standard_heart(n)
            for _ in range(rng.randrange(0, 5)):
                tilt = forward_tilt if rng.random() < 0.6 else backward_tilt
                h = tilt(h, rng.choice(h.labels))
            fams = random_admissible_family(rng, h.labels)
            m, rot = extract_limit(h, LaurentCharge.build(fams))
            rotated += rot > 0
            undo = EC.unit(-rot)
            expected = {l: class_family(h, fams, m.top.cls(l)) for l in m.top.labels}
            valuations = []
            for i in range(m.L + 1):
                ch = m.charge(i)
                v = min(min(expected[l]) for l in ch if not ch[l].is_zero())
                valuations.append(v)
                for l, value in ch.items():
                    assert min(expected[l]) >= v
                    assert value * undo == EC.from_gaussian(expected[l].get(v, gr(0)))
                for l in m.quotient_labels(i):
                    assert ch[l].in_upper_semiclosed()
            assert valuations == sorted(set(valuations))
        assert 40 <= rotated <= 160

    def test_positive_real_test_is_symbolic(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a sign went to interval arithmetic")

        monkeypatch.setattr(exact, "_certified_sign", refuse)
        # the string S_1 + S_2 leads with 2 + i, whose phase is irrational
        zc = LaurentCharge.build({1: {0: gr(2), 1: gr(0, 1)}, 2: {0: gr(0, 1), 1: gr(0, 1)}})
        m, rot = extract_limit(standard_heart(2), zc)
        assert rot == F(1, 64)


class TestPlumbingRay:
    def test_roundtrip_sample(self):
        rng = random.Random(9)
        for _ in range(30):
            m = random_msc(rng, rng.choice([2, 3, 4]), max_levels=2)
            heart, ray = plumbing_ray(m)
            back, rot = extract_limit(heart, ray)
            assert rot == 0
            assert equivalent(back, m)

    def test_roundtrip_after_action_and_plumbing(self):
        """Rays of the non-Gaussian charges c_act_msc and plumb write: Re lam
        and Re tau have denominators up to 12."""
        def rational(rng, lo, hi, den=12):
            return F(rng.randrange(lo, hi), rng.randrange(1, den + 1))

        count = 0
        for seed in range(120):
            rng = random.Random(seed)
            m = random_msc(rng, rng.randrange(2, 6), max_levels=2)
            lam = (rational(rng, -12, 13), rational(rng, -4, 5, 4))
            objects = [c_act_msc(m, lam)]
            if m.L:
                taus = [INFTY] * m.L
                taus[rng.randrange(m.L)] = (rational(rng, 0, 12), -rational(rng, 1, 9, 3))
                p = plumb(m, taus)
                objects += [p, c_act_msc(p, lam)]
            for o in objects:
                heart, ray = plumbing_ray(o)
                back, rot = extract_limit(heart, ray)
                assert rot == 0 and equivalent(back, o), seed
                again = LaurentCharge.from_json(json.loads(json.dumps(ray.to_json())))
                assert again.families == ray.families
                count += any(
                    c.as_gaussian() is None for _, f in ray.families for c in f.coeffs.values()
                )
        assert count > 200

    def test_ray_shape(self):
        h = standard_heart(2)
        m = validate_msc(h, [{1: gr(0, 1), 2: gr(0)}, {2: gr(-1, 2)}])
        heart, ray = plumbing_ray(m)
        families = dict(ray.families)
        assert families[1].coeffs == {0: EC.from_gaussian(gr(0, 1))}
        assert families[2].coeffs == {1: EC.from_gaussian(gr(-1, 2))}


class TestSerialization:
    def test_roundtrip(self):
        zc = degenerating_family()
        again = LaurentCharge.from_json(zc.to_json())
        assert again.families == zc.families

    def test_non_gaussian_roundtrip(self):
        zc = LaurentCharge.build({
            1: {0: EC.unit(F(1, 3)), 2: gr(0, F(1, 2))},
            2: {-1: EC.unit(F(-1, 12), F(5, 4)) * gr(2, 1) + EC.unit(F(1, 5))},
        })
        data = json.loads(json.dumps(zc.to_json()))
        assert data["1"][1] == [2, 0, 1, 1, 2]  # Gaussian terms keep [k, a, b, c, d]
        assert LaurentCharge.from_json(data).families == zc.families

    @pytest.mark.parametrize("keys", [("1", "01"), ("1", " 2"), ("1", "+2"), ("1", "x")])
    def test_keys_are_decimal_labels(self, keys):
        """A key names a label only as its decimal string: "01" does not
        silently replace the family of "1", and errors name the key."""
        data = {k: [[0, 0, 1, 1, 1]] for k in keys}
        message = re.escape(f"family key {keys[1]!r} is not the decimal string of a label")
        with pytest.raises(exact.AnstabError, match=message):
            LaurentCharge.from_json(data)
