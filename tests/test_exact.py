import cmath
import json
import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from anstab import exact
from anstab.exact import (
    EC,
    GaussianRational,
    Laurent,
    PrecisionError,
    det_adjugate,
    gr,
    mat_det,
    phase_cmp_rational,
)

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=12
)
small_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=6)


def ec(re, im=0):
    return EC.rational(F(re), F(im))


class TestGaussianRational:
    def test_arith(self):
        a, b = gr(1, 2), gr(F(1, 3), -1)
        assert a * b == gr(F(1, 3) + 2, F(2, 3) - 1)
        assert a.conj().im == -2

    def test_int_parts(self):
        """Int parts, as on a factored level, equal and hash like the same
        Fraction parts, also inside an ``ExactComplex``."""
        for a, b in [(GaussianRational(3, 4), gr(3, 4)),
                     (EC.from_gaussian(GaussianRational(3, 4)), EC.rational(3, 4))]:
            assert a == b and hash(a) == hash(b)


class TestPhaseComparator:
    @given(rationals, rationals, rationals)
    def test_matches_float(self, a, b, r):
        c = gr(a, b)
        if c.is_zero():
            return
        got = phase_cmp_rational(c, r)
        phi = cmath.phase(complex(c)) / math.pi
        rr = r % 2
        if rr > 1:
            rr -= 2
        want = phi - float(rr)
        if abs(want) > 1e-12:
            assert got == (1 if want > 0 else -1)

    def test_exact_axis_cases(self):
        assert phase_cmp_rational(gr(-1), F(1)) == 0
        assert phase_cmp_rational(gr(0, 1), F(1, 2)) == 0
        assert phase_cmp_rational(gr(1, 1), F(1, 4)) == 0
        assert phase_cmp_rational(gr(2, 1), F(1, 4)) == -1
        assert phase_cmp_rational(gr(1, 2), F(1, 4)) == 1


def test_octant_boundaries_are_symbolic(monkeypatch):
    def sign(rot, a, b):
        signs = exact.rot_signs(F(rot))
        got = signs.xy_sign(a, b)
        assert got == signs.xy_sign(F(a, 3), F(b, 3))
        return got

    def no_intervals(interval, what):
        raise AssertionError(f"{what} reached the interval loop")

    with monkeypatch.context() as m:
        m.setattr(exact, "_certified_sign", no_intervals)
        assert sign("1/4", 2, -1) == sign("1/8", 2, -1) == 1
        assert sign("1/4", 1, -2) == sign("3/8", 1, -2) == -1
        assert [sign(r, 1, -1) for r in ("1/8", "1/4", "3/8")] == [1, 0, -1]
    assert sign("3/8", 2, -1) == -1
    assert sign("1/8", 1, -2) == 1


class TestExactComplex:
    def test_rotation_algebra(self):
        i = ec(0, 1)
        assert EC.unit(F(1, 2)) * i == ec(1)          # e^{-i pi/2} * i = 1... wait
        # e^{-i pi/2} = -i, so (-i)*i = 1
        assert EC.unit(1) == ec(-1)
        assert EC.unit(F(1, 3)) * EC.unit(F(2, 3)) == ec(-1)
        v = EC.unit(F(1, 7), F(-2)) * EC.unit(F(-1, 7), F(2))
        assert v == ec(1)

    def test_upper_half_plane(self):
        assert ec(0, 1).in_upper_semiclosed()
        assert ec(-1).in_upper_semiclosed()
        assert not ec(1).in_upper_semiclosed()
        assert not ec(0, -1).in_upper_semiclosed()
        assert not EC.zero().in_upper_semiclosed()
        # rotated atoms
        assert (EC.unit(F(1, 64)) * ec(-1)).in_upper_semiclosed()
        assert not (EC.unit(F(1, 64)) * ec(1)).in_upper_semiclosed()
        assert (EC.unit(F(1, 64)) * ec(1, 1)).in_upper_semiclosed()

    @given(rationals, rationals, st.fractions(min_value=-2, max_value=2, max_denominator=24))
    def test_im_sign_matches_float(self, a, b, r):
        c = gr(a, b)
        if c.is_zero():
            return
        v = EC.unit(r) * EC.from_gaussian(c)
        z = complex(v)
        if abs(z.imag) > 1e-12:
            assert v.im_sign() == (1 if z.imag > 0 else -1)
        if abs(z.real) > 1e-12:
            assert v.re_sign() == (1 if z.real > 0 else -1)

    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-2, max_value=2, max_denominator=24),
                st.sampled_from([F(0), F(1, 2), F(-1)]),
                rationals,
                rationals,
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_sum_signs_match_mpmath(self, atoms):
        # shared scales go to intervals; distinct ones may agree in sign
        v = EC([(r, s, gr(a, b)) for r, s, a, b in atoms])
        z = v.to_mpc(60)
        for got, want in ((v.im_sign, z.imag), (v.re_sign, z.real)):
            if abs(want) > mpmath.mpf("1e-30"):
                assert got() == (1 if want > 0 else -1)

    def test_niven_angles_are_exact(self):
        diagonal = EC.unit(F(1, 4)) * ec(1, 1)
        assert diagonal.im_sign() == 0
        antidiagonal = EC.unit(F(3, 4)) * ec(1, -1)
        assert antidiagonal.im_sign() == 0
        assert antidiagonal.in_upper_semiclosed()
        axis = EC.unit(F(1, 2)) * ec(0, 1)
        assert axis.im_sign() == 0
        assert axis.re_sign() == 1

    def test_mixed_scale_sign(self):
        v = ec(0, 1) + EC.unit(0, -3) * ec(0, -1)   # i - e^{-3pi} i
        assert v.im_sign() == 1
        w = ec(0, 1) + EC.unit(0, 3) * ec(0, -1)    # i - e^{3pi} i
        assert w.im_sign() == -1

    def test_sign_beyond_the_cap_is_not_zero(self):
        # e^pi - p/2^17000 with p = floor(e^pi * 2^17000): nonzero, but closer
        # to 0 than the interval cap resolves, so no sign may be reported
        with mpmath.workprec(17100):
            p = int(mpmath.floor(mpmath.exp(mpmath.pi) * mpmath.mpf(2) ** 17000))
        x = EC.unit(0, 1) - EC.rational(F(p, 2**17000))
        assert not x.is_zero()
        with pytest.raises(PrecisionError):
            x.re_sign()
        with pytest.raises(PrecisionError):
            (-x).in_upper_semiclosed()

    def test_phase_cmp(self):
        a, b = ec(-1, 1), ec(1, 1)
        assert b.cmp_phase(a) == -1
        assert a.cmp_phase(b) == 1
        assert a.cmp_phase(ec(-2, 2)) == 0
        assert ec(1).cmp_phase(ec(0, 1)) == -1  # phase 0 sorts below phase 1/2

    @given(
        st.lists(
            st.tuples(small_rationals, small_rationals, rationals, rationals),
            min_size=1,
            max_size=3,
        )
    )
    def test_json_roundtrip(self, atoms):
        v = EC([(r, s, gr(a, b)) for r, s, a, b in atoms])
        assert EC.from_json(json.loads(json.dumps(v.to_json()))) == v


# Atoms with few rotations and scales, so that keys repeat and merge; a
# drawn atom may be cancelled exactly by its copy turned by one half-turn.
kernel_atom = st.tuples(
    st.sampled_from([F(0), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1), F(-1, 3), F(7, 4)]),
    st.sampled_from([F(0), F(1, 2), F(-1)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def raw_atoms(draw):
    atoms = [(r, s, gr(a, b)) for r, s, a, b in draw(st.lists(kernel_atom, min_size=1, max_size=4))]
    if draw(st.booleans()):
        r, s, c = draw(st.sampled_from(atoms))
        atoms.append((r + 1, s, c))  # e^(-i*pi*(r+1)) c = -e^(-i*pi*r) c
    return atoms


scalars = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.builds(gr, st.integers(-3, 3), st.integers(-3, 3)),
)


def sign_or_error(sign):
    """The sign, or ``PrecisionError`` when it cannot be certified."""
    try:
        return sign()
    except PrecisionError:
        return PrecisionError


class TestKernelFastPaths:
    """Sums, negation and scalar multiples build their result from atoms
    already in normal form, and each value keeps the signs it decided; both
    must agree with the normalizing constructor on the raw atom lists."""

    @settings(derandomize=True, deadline=None)
    @given(raw_atoms(), raw_atoms(), scalars)
    def test_operations_match_the_normalizing_constructor(self, xs, ys, g):
        a, b = EC(xs), EC(ys)
        assert (a + b).atoms == EC(xs + ys).atoms
        assert (a - b).atoms == EC(xs + [(r, s, -c) for r, s, c in ys]).atoms
        assert (-a).atoms == EC([(r, s, -c) for r, s, c in xs]).atoms
        assert (a * g).atoms == (g * a).atoms == EC([(r, s, c * g) for r, s, c in xs]).atoms
        assert (a * 0).atoms == ()
        assert (a * b).atoms == EC(
            [(r1 + r2, s1 + s2, c1 * c2) for r1, s1, c1 in xs for r2, s2, c2 in ys]
        ).atoms
        assert a.conj().atoms == EC([(-r, s, c.conj()) for r, s, c in xs]).atoms

    @settings(derandomize=True, deadline=None)
    @given(raw_atoms())
    def test_kept_signs_match_fresh_ones(self, xs):
        v = EC(xs)
        want = [sign_or_error(EC(list(v.atoms)).im_sign), sign_or_error(EC(list(v.atoms)).re_sign)]
        for _ in range(2):  # deciding, then reading what was kept
            assert [sign_or_error(v.im_sign), sign_or_error(v.re_sign)] == want
            fresh = EC(list(v.atoms))
            assert fresh == v and hash(fresh) == hash(v)
        negated = [w if w is PrecisionError else -w for w in want]
        assert [sign_or_error((-v).im_sign), sign_or_error((-v).re_sign)] == negated

    @settings(derandomize=True, deadline=None)
    @given(raw_atoms())
    def test_identities_return_the_value(self, xs):
        x = EC(xs)
        assert x * 1 is x and 1 * x is x and x * F(1) is x
        assert x + EC.zero() is x

    def test_precision_error_is_not_cached(self):
        v = EC.unit(F(1, 3)) + EC.unit(F(-1, 3)) - EC.rational(1)
        for _ in range(2):
            with pytest.raises(PrecisionError):
                v.im_sign()


def oracle_phase(v) -> mpmath.mpf:
    """The phase of v in (-1, 1] at 200 digits; within 1e-150 of 0 or 1 it
    snaps to that value, as exact axis cases are not decided by digits."""
    with mpmath.workdps(200):
        p = mpmath.arg(v.to_mpc(200)) / mpmath.pi
        for exact_p in (0, 1, -1):
            if abs(p - exact_p) < mpmath.mpf(10) ** -150:
                return mpmath.mpf(abs(exact_p))
        return p


def oracle_cmp(v, w) -> int:
    p, q = oracle_phase(v), oracle_phase(w)
    if abs(p - q) < mpmath.mpf(10) ** -150:
        return 0
    return 1 if p > q else -1


def same_key_pairs(seed: int, count: int):
    """Seeded (rot, scale, c1, c2): rots of any sign past a quarter turn, and
    c2 a generic Gaussian, a positive or negative multiple of c1 (equal or
    opposite phase), or c1 turned by a quarter (often across the buckets)."""
    rng = random.Random(seed)

    def gauss():
        while True:
            c = gr(*(F(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(2)))
            if not c.is_zero():
                return c

    out = []
    for k in range(count):
        rot = F(rng.randrange(-60, 61), rng.choice([1, 2, 3, 4, 6, 8, 12, 24]))
        scale = F(rng.randrange(-3, 4), rng.randrange(1, 3))
        c1 = gauss()
        t = F(rng.randrange(1, 9), rng.randrange(1, 5))
        c2 = [gauss(), c1 * t, c1 * -t, c1 * gr(0, 1), c1 * gr(0, -1)][k % 5]
        out.append((rot, scale, c1, c2))
    return out


class TestSameKeyRule:
    """Two single atoms of one (rot, scale) key: the factored engine's
    ``rot_signs(rot).in_h`` and ``gauss_cmp_phase`` decide on the Gaussians
    alone.
    Checked against a 200-digit mpmath phase and against ``cmp_phase``."""

    PAIRS = same_key_pairs(seed=17, count=300)

    def test_cmp_phase_matches_the_oracle(self):
        kinds = set()
        for rot, scale, c1, c2 in self.PAIRS:
            a, b = EC([(rot, scale, c1)]), EC([(rot, scale, c2)])
            want = oracle_cmp(a, b)
            assert a.cmp_phase(b) == want and b.cmp_phase(a) == -want, (rot, scale, c1, c2)
            kinds.add((want, a.in_upper_semiclosed() == b.in_upper_semiclosed()))
        # equal phases, both orders inside one bucket, pairs across the buckets
        assert {(0, True), (1, True), (-1, True), (1, False), (-1, False)} <= kinds

    def test_factored_tests_match_the_values(self):
        for rot, scale, c1, c2 in self.PAIRS:
            a, b = EC([(rot, scale, c1)]), EC([(rot, scale, c2)])
            (r, _, g1), (_, _, g2) = a.atoms[0], b.atoms[0]  # the normalised key
            assert exact.rot_signs(r).in_h(g1) == a.in_upper_semiclosed() == (oracle_phase(a) > 0)
            if a.in_upper_semiclosed() == b.in_upper_semiclosed():
                assert exact.gauss_cmp_phase(g1, g2) == a.cmp_phase(b)

    def test_other_pairs_keep_the_product_path(self):
        a = EC([(F(1, 3), F(0), gr(1, 2))])
        b = EC.unit(F(1, 5)) * gr(2, 1) + EC.unit(F(1, 7))
        assert a.cmp_phase(b) == oracle_cmp(a, b)


def test_xy_sign_on_integers_matches_atom_sign():
    """``rot_signs(r).xy_sign`` on an integer pair (x, y) decides as it does
    on x/d, y/d as Fractions and as ``re_sign`` of the atom
    e^(-i*pi*r) * (x/d + (y/d)i), and all agree with a 60-digit evaluation of
    x*cos(pi*r) + y*sin(pi*r) (0 below 1e-40).  Every r in [0, 1/2) with denominator <= 48,
    with seeded pairs at q = |x|/|y| = 1, above and below 1, and at
    (n +- 1) / 2^k for n = round(2^k tan(pi*r)), k = 20, 40 and 64: past
    the doubles' reach at k = 64, so the interval fallback runs."""
    rng = random.Random(41)
    rots = sorted({F(p, q) for q in range(1, 49) for p in range(q) if F(p, q) < F(1, 2)})
    for r in rots:
        m = rng.randrange(1, 50)
        pairs = [(m, -m), (-m, m), (0, m), (m, 0), (0, 0), (5 * m, -m), (-m, 3 * m)]
        pairs += [(rng.randrange(-99, 100), rng.randrange(-99, 100)) for _ in range(4)]
        with mpmath.workdps(60):
            t = mpmath.pi * mpmath.mpf(r.numerator) / r.denominator
            cos, sin, tiny = mpmath.cos(t), mpmath.sin(t), mpmath.mpf(10) ** -40
            for k in (20, 40, 64):
                n = int(mpmath.nint(mpmath.tan(t) * 2**k))
                pairs += [(n - 1, -(2**k)), (n + 1, -(2**k))]
            for x, y in pairs:
                d = rng.randrange(1, 13)
                got = exact.rot_signs(r).xy_sign(x, y)
                assert got == exact.rot_signs(r).xy_sign(F(x, d), F(y, d)), (r, x, y)
                assert got == EC([(r, F(0), gr(F(x, d), F(y, d)))]).re_sign(), (r, x, y)
                v = x * cos + y * sin
                assert got == (0 if abs(v) < tiny else mpmath.sign(v)), (r, x, y)


class TestLaurent:
    def test_basic(self):
        f = Laurent({0: gr(-1), 1: gr(0, 1)})
        g = Laurent({1: gr(0, 1), 0: gr(1)})
        assert (f + g) == Laurent({1: gr(0, 2)})
        assert f.valuation() == 0
        assert (f + g).valuation() == 1
        assert (f * gr(0, 1)).coeff(0) == EC.from_gaussian(gr(0, -1))

    def test_exact_factor_on_either_side(self):
        f = Laurent({0: gr(1, 2), 1: EC.unit(F(1, 3))})
        assert EC.unit(1) * f == f * EC.unit(1) == -f
        with pytest.raises(TypeError):
            f * f


@pytest.mark.parametrize("other", ["1/2", 0.1, 0.5j])
def test_products_take_no_float_or_string(other):
    for value in (EC.rational(1), gr(1)):
        with pytest.raises(TypeError):
            value * other
        with pytest.raises(TypeError):
            other * value


class TestLinearAlgebra:
    def test_adjugate(self):
        assert det_adjugate([[1, 1], [0, -1]]) == (-1, [[-1, -1], [0, 1]])
        assert det_adjugate([]) == (1, [])
        assert det_adjugate([[1, 2], [2, 4]]) == (0, None)
        assert det_adjugate([[0, 0, 1], [0, 2, 3], [0, 4, 5]]) == (0, None)
        a = [[0, 1, 2], [1, 0, 3], [4, -3, 8]]  # the first pivot needs a swap
        assert det_adjugate(a) == (-2, [[9, -14, 3], [4, -8, 2], [-3, 4, -1]])
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randrange(1, 6)
            a = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
            det, adj = det_adjugate(a)
            if det == 0:
                assert adj is None
                continue
            for i in range(n):
                for j in range(n):
                    assert sum(adj[i][k] * a[k][j] for k in range(n)) == det * (i == j)

    def test_det(self):
        assert mat_det([[1, 2], [3, 4]]) == -2
        assert mat_det([[2, 0], [0, 3]]) == 6
        assert mat_det([[0, 1, 2], [1, 0, 3], [4, -3, 8]]) == -2
        assert mat_det([[1, 2], [2, 4]]) == 0
