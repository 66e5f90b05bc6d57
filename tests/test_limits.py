import json
import random
import re
from fractions import Fraction as F

import pytest

from anstab import exact, stability
from anstab.exact import EC, Laurent, gr
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


def seeded_tilted_families(seed=13, count=200):
    """Tilted hearts of rank 2 to 5, each with a random admissible family."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(2, 6)
        h = standard_heart(n)
        for _ in range(rng.randrange(0, 5)):
            tilt = forward_tilt if rng.random() < 0.6 else backward_tilt
            h = tilt(h, rng.choice(h.labels))
        yield h, random_admissible_family(rng, h.labels)


class TestExtractLimitProperties:
    def test_seeded_families_on_tilted_hearts(self):
        rotated = 0
        for h, fams in seeded_tilted_families():
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


ONE_KEY_FAMILY = {
    "1": [[0, {"rot": [1, 4], "scale": [1, 5], "gauss": [1, 1, 1, 1]}],
          [1, {"rot": [1, 4], "scale": [1, 5], "gauss": [0, 1, 1, 1]}]],
    "2": [[0, {"rot": [1, 4], "scale": [1, 5], "gauss": [-1, 1, 1, 1]}]],
}
MIXED_KEY_FAMILY = {
    "1": [[0, {"rot": [1, 3], "scale": [0, 1], "gauss": [-1, 1, 0, 1]}]],
    "2": [[0, 1, 1, 0, 1], [1, 0, 1, 1, 1]],
}


class TestLaurentPaths:
    """Families of single atoms of one key settle as ``exact.FactoredFamily``
    values on integers; the others keep ``Laurent`` values.  Both paths give
    the same limits."""

    def test_factored_path_matches_the_laurent_path(self, monkeypatch):
        cases = [(h, LaurentCharge.build(fams)) for h, fams in seeded_tilted_families()]
        cases.append((standard_heart(2), LaurentCharge.from_json(ONE_KEY_FAMILY)))
        factored = [extract_limit(h, zc) for h, zc in cases]
        assert sum(rot > 0 for _, rot in factored) >= 40
        def refuse_families(values):  # the tilt engine keeps Laurent levels unfactored
            return None if any(isinstance(v, Laurent) for v in values.values()) else exact.factor(values)

        monkeypatch.setattr(stability, "factor", refuse_families)
        for (h, zc), (m, rot) in zip(cases, factored):
            again, rot_again = extract_limit(h, zc)
            assert rot_again == rot and again.to_json() == m.to_json()

    @pytest.mark.parametrize("data, key", [
        (ONE_KEY_FAMILY, (F(1, 4), F(1, 5), 1)),  # factored, off rotation 0 and scale 0
        (MIXED_KEY_FAMILY, None),                  # one Gaussian and one rotated family
    ])
    def test_json_families_rotate_by_one_64th(self, data, key):
        zc = LaurentCharge.from_json(data)
        assert (exact.factor(dict(zc.families)) or (None,))[0] == key
        assert extract_limit(standard_heart(2), zc)[1] == F(1, 64)

    def test_integer_readings_match_laurent(self):
        """A factored family's half-plane test and phase order are
        ``Laurent``'s, also for families outside H that lead in H (-1 - it)."""
        rng, leading_in_h = random.Random(3), 0
        on_negative_reals = {F(0): (gr(-1), gr(0, -1)), F(1, 4): (gr(-1, -1), gr(1, -1))}
        for rot in (F(0), F(1, 4), F(1, 64), F(1, 3)):
            rs, fams = exact.rot_signs(rot), {}
            if rot in on_negative_reals:  # -1 - it, and -sqrt(2) (1 + it) at rot 1/4
                fams[-1] = Laurent(dict(enumerate(EC.unit(rot) * c for c in on_negative_reals[rot])))
            for i in range(40):
                ks = rng.sample(range(3), rng.randrange(1, 4))
                f = Laurent({k: EC.unit(rot) * gr(rng.randrange(-2, 3), rng.randrange(-2, 3)) for k in ks})
                if not f.is_zero():
                    fams[i] = f
            _, values = exact.factor(fams)
            leading_in_h += sum(f.leading().in_upper_semiclosed() and not f.in_upper_semiclosed()
                                for f in fams.values())
            for i, f in fams.items():
                assert values[i].in_h(rs) == f.in_upper_semiclosed()
                for j, g in fams.items():
                    assert values[i].cmp_phase(values[j], rs) == f.cmp_phase(g), (f, g)
        assert leading_in_h >= 4

    def test_factor_and_expand(self):
        a, b = EC.unit(F(1, 4), F(1, 5)), EC.unit(F(1, 3))
        level = {1: Laurent({0: a * gr(F(1, 2), 1), 2: a * gr(0, F(-2, 3))}), 2: Laurent({-1: a})}
        key, values = exact.factor(level)
        assert key == (F(1, 4), F(1, 5), 6)
        assert values[1] == exact.FactoredFamily({0: gr(3, 6), 2: gr(0, -4)})
        assert exact.expand(key, values) == level
        gaussian = {1: EC.rational(F(1, 2)), 2: EC.zero()}
        assert exact.expand(*exact.factor(gaussian)) == gaussian
        mixed = {1: Laurent({0: a}), 2: Laurent({0: b})}
        two_atoms = {1: Laurent({0: a + EC.unit(F(1, 4))})}
        for level in (mixed, two_atoms, {1: Laurent()}):
            assert exact.factor(level) is None


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
