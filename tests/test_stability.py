import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from anstab.anquiver import QuiverError, QuiverWithPotential, mutate
from anstab.exact import EC, GaussianRational, gr
from anstab.hearts import (
    Heart,
    HeartError,
    _tilt,
    apply_tilt_word,
    exchange_graph,
    heart_equal,
    shift_heart,
    standard_heart,
)
from anstab.sampling import random_heart
from anstab.stability import (
    StabilityCondition,
    StabilityError,
    TiltState,
    as_exact_value,
    as_lambda,
    c_act,
    indecomposable_spectrum,
    mass,
    phase,
    validate,
)


class TestValidate:
    def test_plain_upper(self):
        validate(standard_heart(2), {1: gr(0, 1), 2: gr(0, 1)})

    def test_paper_family_member(self):
        validate(standard_heart(2), {1: gr(-1, F(1, 3)), 2: gr(1, F(1, 3))})

    def test_positive_real_rejected(self):
        with pytest.raises(StabilityError, match="simple 1"):
            validate(standard_heart(2), {1: gr(1), 2: gr(0, 1)})

    def test_zero_rejected(self):
        with pytest.raises(StabilityError, match="zero"):
            validate(standard_heart(2), {1: gr(0), 2: gr(0, 1)})

    def test_missing_simple(self):
        with pytest.raises(StabilityError):
            validate(standard_heart(2), {1: gr(0, 1)})

    def test_non_basis_heart_rejected(self):
        h = Heart((1, 2), ((2, 0), (0, 1)), standard_heart(2).ext)
        with pytest.raises(HeartError, match="Z-basis"):
            validate(h, {1: gr(0, 1), 2: gr(0, 1)})


class TestPhaseMass:
    def test_phase_half(self):
        s = validate(standard_heart(2), {1: gr(0, 1), 2: gr(0, 1)})
        assert phase(s, (1, 0)).fraction() == F(1, 2)

    def test_phase_one(self):
        s = validate(standard_heart(2), {1: gr(-1), 2: gr(0, 1)})
        assert phase(s, (1, 0)).fraction() == 1

    def test_extension_phase(self):
        s = validate(standard_heart(2), {1: gr(-1, 1), 2: gr(1, 1)})
        assert phase(s, (1, 1)).fraction() == F(1, 2)
        assert mass(s, (1, 1)).exact_square() == 4

    def test_value_with_simples_out_of_label_order(self):
        h = standard_heart(2)
        h = Heart(h.labels[::-1], h.classes[::-1], h.ext)
        s = validate(h, {1: gr(-1, 1), 2: gr(0, 3)})
        assert s.value((1, 0)) == EC.rational(-1, 1)
        assert s.value((0, 1)) == EC.rational(0, 3)

    def test_zero_charge_phase_raises(self):
        s = validate(standard_heart(2), {1: gr(-1, 1), 2: gr(1, 1)})
        with pytest.raises(StabilityError):
            phase(s, (0, 0))


class TestAction:
    def test_lambda_one_is_shift(self):
        s = validate(standard_heart(2), {1: gr(0, 1), 2: gr(0, 1)})
        r = c_act(s, 1)
        assert heart_equal(r.heart, shift_heart(s.heart, 1))
        assert r.z(1) == EC.rational(0, 1)

    def test_lambda_zero_identity(self):
        s = validate(standard_heart(3), {1: gr(-1, 1), 2: gr(0, 2), 3: gr(2, 1)})
        r = c_act(s, 0)
        assert r.charge == s.charge and heart_equal(r.heart, s.heart)

    def test_half_turn_example(self):
        s = validate(standard_heart(2), {1: gr(-2, 1), 2: gr(1, 1)})
        r = c_act(s, F(1, 2))
        by_label = {l: v.as_gaussian() for l, v in r.charge}
        assert r.heart.cls(2) == (0, -1) and r.heart.cls(1) == (1, 1)
        assert by_label[2] == gr(-1, 1)
        assert by_label[1] == gr(2, 1)

    def test_lambda_two_preserves(self):
        s = validate(standard_heart(2), {1: gr(-1, 2), 2: gr(2, 3)})
        r = c_act(s, 2)
        assert r.charge == s.charge
        assert heart_equal(r.heart, s.heart)
        assert r.heart.shift == 2

    def test_double_one_equals_two(self):
        s = validate(standard_heart(2), {1: gr(-1, 2), 2: gr(2, 3)})
        a = c_act(c_act(s, 1), 1)
        b = c_act(s, 2)
        assert a.charge == b.charge and heart_equal(a.heart, b.heart)

    @settings(max_examples=30, deadline=None)
    @given(
        st.fractions(min_value=0, max_value=F(9, 10), max_denominator=12),
        st.fractions(min_value=0, max_value=F(9, 10), max_denominator=12),
    )
    def test_additivity(self, l1, l2):
        s = validate(standard_heart(3), {1: gr(-1, 1), 2: gr(0, 2), 3: gr(3, 1)})
        a = c_act(c_act(s, l2), l1)
        b = c_act(s, l1 + l2)
        assert heart_equal(a.heart, b.heart)
        for gamma in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            assert a.value(gamma) == b.value(gamma)

    def test_charge_transforms_linearly(self):
        s = validate(standard_heart(3), {1: gr(-2, 1), 2: gr(1, 2), 3: gr(-1, 3)})
        lam = F(2, 5)
        r = c_act(s, lam)
        rot = EC.unit(lam)
        for gamma in [(1, 0, 0), (1, 1, 0), (2, -1, 3)]:
            assert r.value(gamma) == rot * s.value(gamma)


def unfactored_c_act(sigma: StabilityCondition, lam) -> StabilityCondition:
    """``c_act`` with its level kept as ExactComplex values: rotations
    multiply every value and the phase tests read the values."""
    st = TiltState(sigma.heart, [sigma.charge_dict()])
    st.charges[0], st.factors[0] = st.level(0), None
    st.act_from(0, *as_lambda(lam))
    return StabilityCondition(st.heart, tuple(sorted(st.charges[0].items())))


class TestFactoredLevels:
    """``c_act`` on Gaussian charges runs on one factored level; it must
    return the same heart and charge as the product path."""

    @staticmethod
    def conditions(seed: int):
        rng = random.Random(seed)
        for n in range(2, 9):
            for k in range(4):
                h = random_heart(rng, n, depth=4)
                values = {}
                for l in h.labels:  # a Gaussian in H, sometimes on the negative axis
                    im = F(rng.randrange(0 if k == 0 else 1, 7), rng.randrange(1, 4))
                    re = rng.randrange(-6, 7) if im else -rng.randrange(1, 7)
                    values[l] = gr(F(re, rng.randrange(1, 4)), im)
                lam = (F(rng.randrange(-30, 31), 12), F(rng.randrange(-6, 7), 6))
                yield validate(h, values), lam

    def test_factored_c_act_matches_the_product_path(self):
        for sigma, lam in self.conditions(seed=23):
            got, want = c_act(sigma, lam), unfactored_c_act(sigma, lam)
            assert got.heart == want.heart and got.charge == want.charge, (sigma, lam)

    def test_gaussian_charges_are_factored(self):
        sigma, lam = next(self.conditions(seed=23))
        st = TiltState(sigma.heart, [sigma.charge_dict()])
        assert st.factors[0][:2] == (0, 0)
        st.act_from(0, *as_lambda(lam))
        assert st.factors[0] is not None
        d = st.factors[0][2]
        assert type(d) is int and d > 0
        assert all(isinstance(v, GaussianRational) and type(v.re) is type(v.im) is int
                   for v in st.charges[0].values())


    def test_level_returns_the_input_charge(self):
        """A factored level over its denominator D reads back exactly: seeded
        charges with denominators 1-12, zero entries and negative reals, some
        sharing a rotated key."""
        rng = random.Random(31)
        for _ in range(200):
            h = random_heart(rng, rng.randrange(2, 8), depth=3)
            unit = EC.unit(F(rng.randrange(-24, 25), 12), F(rng.randrange(-3, 4), 2))
            ch = {}
            for l in h.labels:
                re = F(rng.randrange(-30, 31), rng.randrange(1, 13))
                im = rng.choice([0, 0, F(rng.randrange(-30, 31), rng.randrange(1, 13))])
                ch[l] = EC.rational(re, im) * unit
            st = TiltState(h, [ch])
            assert st.factors[0] is not None or all(v.is_zero() for v in ch.values())
            assert st.level(0) == ch


@pytest.mark.parametrize("value", [0.1, 0.1 + 0.2j, (0.5, 1), "1/2"])
def test_coercion_takes_no_float_or_string(value):
    with pytest.raises(TypeError):
        as_lambda(value)
    with pytest.raises(TypeError):
        as_exact_value(value)
    with pytest.raises(TypeError):
        validate(standard_heart(2), {1: value, 2: gr(0, 1)})


class TestSpectrum:
    def test_a2(self):
        s = validate(standard_heart(2), {1: gr(-1, 1), 2: gr(1, 1)})
        sp = indecomposable_spectrum(s)
        assert len(sp) == 3
        ext = next(e for e in sp if e.kclass == (1, 1))
        assert ext.phase.fraction() == F(1, 2)
        assert ext.mass.exact_square() == 4

    def test_a1(self):
        s = validate(standard_heart(1), {1: gr(0, 1)})
        assert len(indecomposable_spectrum(s)) == 1

    def test_masses_positive(self):
        s = validate(standard_heart(3), {1: gr(-1, 1), 2: gr(0, 1), 3: gr(1, 2)})
        assert all(float(e.mass) > 0 for e in indecomposable_spectrum(s))


class TestInPlaceTilts:
    """``TiltState`` tilts one mutable heart in place and builds the frozen
    ``Heart`` when it is read; the result must be the frozen tilt rule's."""

    def test_engine_heart_matches_apply_tilt_word(self):
        """Every heart within radius 3 of A2-A5, under seeded words of both
        directions, read mid-word and at the end: classes, ext-quiver and
        provenance equal ``apply_tilt_word``'s."""
        rng = random.Random(47)
        checked = 0
        for n in range(2, 6):
            vertices, _ = exchange_graph(standard_heart(n), 3)
            for h in vertices.values():
                word = [(rng.choice(h.labels), rng.choice((1, -1))) for _ in range(6)]
                mid = rng.randrange(1, len(word))
                st = TiltState(h, [{}])
                assert st.heart is h
                for k, (s, d) in enumerate(word, start=1):
                    st.tilt(s, d)
                    if k in (mid, len(word)):
                        got, want = st.heart, apply_tilt_word(h, word[:k])
                        assert got.classes == want.classes, (h, word[:k])
                        assert got.ext == want.ext, (h, word[:k])
                        assert got.provenance == want.provenance == h.provenance + tuple(word[:k])
                        assert st.heart is got  # kept until the next tilt
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize(
        "vertices, arrows, k, message",
        [
            ([1, 2, 3, 4], [(1, 3), (2, 3), (3, 4)], 3, "arrow (4, 3) lies in two potential cycles"),
            ([1, 2, 3], [(1, 2), (2, 3), (1, 3)], 2, "parallel arrows (1,3)"),
        ],
    )
    def test_each_step_checks_what_it_adds(self, vertices, arrows, k, message):
        """Outside the A_n mutation class a mutation adds a bad arrow or
        cycle: ``mutate``, ``_tilt`` and the engine's in-place tilt raise."""
        q = QuiverWithPotential.build(vertices, arrows)
        h = Heart(q.vertices, standard_heart(len(vertices)).classes, q)
        with pytest.raises(QuiverError, match=re.escape(message)):
            mutate(q, k)
        with pytest.raises(QuiverError, match=re.escape(message)):
            _tilt(h, k, +1)
        with pytest.raises(QuiverError, match=re.escape(message)):
            TiltState(h, [{}]).tilt(k, +1)
