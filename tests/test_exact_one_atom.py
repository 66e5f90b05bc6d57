"""The kernel's direct paths for values of one atom, against the general ones.

Products and signs of one atom skip the multi-atom normal form (one-atom
rotations are checked in test_exact_filter.py);
``equivalent`` skips the products when a level's common multiple is 1 and
the coordinates when both tops are one basis.  Each is checked on seeded
inputs against the normalizing constructor, a 60-digit evaluation or the
product rule it replaces.
"""

import random
from fractions import Fraction as F

import mpmath

from anstab import multiscale
from anstab.exact import EC, gr
from anstab.multiscale import MultiScaleStab, equivalent
from anstab.sampling import random_msc


def one_atoms(seed: int, count: int):
    """Raw (rot, scale, c): rots of any sign and past a half turn, c nonzero."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        c = gr(F(rng.randrange(-9, 10), rng.randrange(1, 5)), F(rng.randrange(-9, 10), rng.randrange(1, 5)))
        if not c.is_zero():
            rot = F(rng.randrange(-40, 41), rng.choice([1, 2, 3, 4, 5, 6, 8, 12]))
            out.append((rot, F(rng.randrange(-6, 7), rng.randrange(1, 4)), c))
    return out


def test_one_atom_product_is_the_normalized_product():
    atoms = one_atoms(3, 400)
    for (r1, s1, c1), (r2, s2, c2) in zip(atoms[::2], atoms[1::2]):
        got = EC([(r1, s1, c1)]) * EC([(r2, s2, c2)])
        want = EC([(r1 + r2, s1 + s2, c1 * c2)])
        assert got.atoms == want.atoms and hash(got) == hash(want), (r1, s1, c1, r2, s2, c2)


def test_one_atom_signs_match_60_digits():
    values = [EC([a]) for a in one_atoms(5, 400)]
    # exact ties: a real Gaussian at rot 0, e^(-i*pi/4) * (1 + i) = sqrt(2) and
    # e^(-3i*pi/4) * (1 - i) = -sqrt(2)
    ties = [EC([(F(0), F(1, 2), gr(F(-3, 2)))]), EC([(F(1, 4), F(-2), gr(3, 3))]),
            EC([(F(3, 4), F(0), gr(1, -1))])]
    with mpmath.workdps(60):
        tiny = mpmath.mpf(10) ** -40
        for v in values + ties:
            z = v.to_mpc(60)
            want = [0 if abs(x) < tiny else int(mpmath.sign(x)) for x in (z.imag, z.real)]
            assert [v.im_sign(), v.re_sign()] == want, v
    assert [t.im_sign() for t in ties] == [0, 0, 0]
    assert [t.re_sign() for t in ties] == [-1, 1, -1]


def test_the_shared_zero_stays_zero():
    z = EC.zero()
    for x in (EC.rational(2, -1), EC.unit(F(1, 3), 1) * gr(1, 2) + EC.rational(1)):
        assert (-z).is_zero() and (x * z).is_zero() and (z * x).is_zero()
        assert z + x is x and x + z is x and (z - x).atoms == (-x).atoms
    assert EC.zero() is z and z.atoms == () and z == EC() and EC.from_gaussian(gr(0)) is z
    assert (z.im_sign(), z.re_sign()) == (0, 0)


def test_equal_multi_atom_values_have_equal_phase():
    """conj(a)*a = |a|^2 > 0 is decided without the product, whose conjugate
    cross terms intervals cannot certify for these two values."""
    for atoms in ([(F(3, 50), F(-29, 10), gr(F(4, 3), F(-1, 2))), (F(7, 20), F(-3, 10), gr(3, 2))],
                  [(F(1, 4), F(-21, 5), gr(F(3, 2), F(-1, 2))), (F(21, 50), F(-8, 5), gr(5, F(1, 2)))]):
        a, copy = EC(atoms), EC(atoms)
        assert a.cmp_phase(copy) == 0 and copy.cmp_phase(a) == 0
        assert a.cross_signs(copy) == (0, 1)


def products_rule(pairs):
    """``_proportional`` as it was: the products ra*b and rb*a, whatever the pair."""
    ref = next(((a, b) for a, b in pairs if not a.is_zero()), None)
    if ref is None:
        return all(b.is_zero() for _, b in pairs)
    ra, rb = ref
    return not rb.is_zero() and all(
        a.is_zero() == b.is_zero() and ra * b == rb * a for a, b in pairs)


def rescaled(m: MultiScaleStab, scalars) -> MultiScaleStab:
    return MultiScaleStab(m.top, tuple(tuple((l, v * k) for l, v in ch)
                                       for ch, k in zip(m.charges, scalars)))


def test_equivalent_matches_the_product_rule(monkeypatch):
    rng = random.Random(11)
    ms = [random_msc(rng, rng.choice([2, 3, 4]), max_levels=2) for _ in range(40)]
    units = [EC.unit(F(1, 3)) * gr(2, 1), EC.rational(F(1, 2)), EC.unit(F(-1, 5), F(1, 2)), EC.rational(1)]
    pairs = []
    for i, m in enumerate(ms):
        deeper = [units[(i + j) % 4] for j in range(m.L)]
        pairs += [(m, m), (m, rescaled(m, [EC.rational(1), *deeper])),
                  (rescaled(m, [units[i % 3], *deeper]), m), (m, ms[i - 1])]
    got = [equivalent(a, b) for a, b in pairs]
    monkeypatch.setattr(multiscale, "_proportional", products_rule)
    assert got == [equivalent(a, b) for a, b in pairs]
    assert got[::4] == [True] * len(ms) and got[1::4] == [True] * len(ms)
    assert got[2::4] == [False] * len(ms)
