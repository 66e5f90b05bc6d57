"""The certified double filter in front of the exact signs, ``rotated`` and
``to_mpc``.

The differential test compares every verdict with the one the exact path
(per-atom ladder and intervals, the value's filter off) gives on the same
value: the same sign, or the same exception type.  Its inputs are seeded
values, the values of test_exact.py and constructed near-ties, and it checks
that both the filter's branches, decided and fallen through, occur.
"""

import collections
import random
from fractions import Fraction as F

import mpmath

from anstab import exact
from anstab.exact import EC, gr
from anstab.limits import LaurentCharge
from test_limits import degenerating_family, random_admissible_family


def outcome(fn):
    """fn()'s value, or the type of the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the type is the verdict
        return type(exc)


def exact_only(v: EC) -> EC:
    """A copy of v whose signs skip the filter and take the exact path."""
    w = EC(v.atoms)
    w._approx = False
    return w


def seeded_values(seed: int, count: int) -> list[EC]:
    """1-3 atom values; a third of the atoms share scale 0 or 1/2, so sums
    of same-scale atoms reach the interval path."""
    rng = random.Random(seed)

    def q(n, d):
        return F(rng.randrange(-n, n + 1), rng.randrange(1, d))

    def scale():
        return rng.choice([0, F(1, 2), q(6, 5), q(6, 5)])

    out = []
    while len(out) < count:
        v = EC([(q(8, 13), scale(), gr(q(9, 7), q(9, 7))) for _ in range(rng.randrange(1, 4))])
        if not v.is_zero():
            out.append(v)
    return out


def values_of_test_exact():
    """The values test_exact.py decides signs and phases on."""
    def ec(re, im=0):
        return EC.rational(F(re), F(im))

    return [
        ec(3), ec(2, 2), ec(1, 1), ec(-1, 1), ec(0, 1), ec(-1), ec(1), ec(0, -1), ec(-2, 2),
        EC.unit(F(1, 64)) * ec(-1), EC.unit(F(1, 64)) * ec(1, 1),
        EC.unit(F(1, 4)) * ec(1, 1), EC.unit(F(3, 4)) * ec(1, -1), EC.unit(F(1, 2)) * ec(0, 1),
        ec(0, 1) + EC.unit(0, -3) * ec(0, -1), ec(0, 1) + EC.unit(0, 3) * ec(0, -1),
        EC.unit(0, 1) * ec(1), EC.unit(F(1, 5)) * gr(2, 1) + EC.unit(F(1, 7)),
        EC.unit(F(1, 3)) + EC.unit(F(-1, 3)) - EC.rational(1),  # cancels: no sign certified
    ]


def near_ties() -> list[EC]:
    """Values whose Re or Im lies within a few units of roundoff of 0, or
    whose scale leaves the double range."""
    out = []
    with mpmath.workprec(400):
        e_pi = mpmath.exp(mpmath.pi)
        for k in range(40, 81):  # e^pi - floor(e^pi 2^k) / 2^k
            out.append(EC.unit(0, 1) - EC.rational(F(int(mpmath.floor(e_pi * 2**k)), 2**k)))
        # cos(pi*r) - q with r near 1/2: the cos enclosure is wide relative to
        # its value, so its radius, not rounding, separates these from 0
        for m in (20, 30):
            r = F(1, 2) - F(1, 2**m)
            c = mpmath.cos(mpmath.pi * mpmath.mpf(r.numerator) / r.denominator)
            for k in range(m + 40, m + 64, 2):
                for rnd in (mpmath.floor, mpmath.ceil):
                    out.append(EC.unit(r) - EC.rational(F(int(rnd(c * 2**k)), 2**k)))
        # x e^(-i pi r) - q for seeded x, r: q rounds the exact real part to
        # 60 bits and is pushed a few units either way, so conversions and
        # products decide the double's last bits
        rng = random.Random(5)
        for _ in range(120):
            r, x = F(rng.randrange(1, 50), 101), F(rng.randrange(1, 1000), rng.randrange(1, 1000))
            t = mpmath.cos(mpmath.pi * r.numerator / r.denominator) * x.numerator / x.denominator
            q = F(int(mpmath.nint(t * 2**60)) + rng.randrange(-40, 41), 2**60)
            out.append(EC.unit(r) * gr(x) - EC.rational(q))
    # sums that nearly cancel: a value minus its real part rounded to k bits
    for k, a in zip(range(40, 80, 4), seeded_values(11, 10)):
        with mpmath.workprec(300):
            re = a.to_mpc(90).real
        out.append(a - EC.rational(F(int(mpmath.nint(re * 2**k)), 2**k)))
    # scales that underflow or overflow doubles, alone and beside ordinary atoms
    for s in (-1000, -400, 400, 1000):
        deep = EC.unit(F(1, 3), s) * gr(2, -1) + EC.unit(F(1, 5), s + 1) * gr(-1, 3)
        out += [deep, deep + EC.rational(1, -1), deep + EC.unit(F(2, 7), 1) * gr(0, 1)]
    return out


class Branches:
    """Per predicate, the verdicts the filter decided and those that fell
    through: ``_part_sign`` reads ``exact._xy`` only past its filter, and
    ``cross_signs`` calls ``conj`` only past its own."""

    def __init__(self, monkeypatch):
        self.calls, self.verdicts = collections.Counter(), collections.Counter()
        for owner, name in ((exact, "_xy"), (EC, "conj")):
            monkeypatch.setattr(owner, name, self._counting(name, getattr(owner, name)))

    def _counting(self, name, fn):
        def counted(*args):
            self.calls[name] += 1
            return fn(*args)
        return counted

    def run(self, predicate: str, name: str, fn):
        before = self.calls[name]
        result = outcome(fn)
        self.verdicts[predicate, "fell" if self.calls[name] > before else "decided"] += 1
        return result


def exact_cross(a: EC, b: EC):
    p = exact_only(a.conj() * b)
    s = p.im_sign()
    return s, 0 if s else p.re_sign()


def test_filter_agrees_with_the_exact_path(monkeypatch):
    values = seeded_values(3, 300) + values_of_test_exact() + near_ties()
    branches = Branches(monkeypatch)
    for v in values:
        for part in ("re", "im"):
            want = outcome(lambda: exact_only(v)._part_sign(part))
            assert branches.run("part", "_xy", lambda: EC(v.atoms)._part_sign(part)) == want, (v, part)
    rng = random.Random(7)
    pairs = [tuple(rng.sample(values[:300], 2)) for _ in range(150)]
    for a in seeded_values(13, 12):
        pairs += [(a, a.rotated(F(1, 2**40))), (a.rotated(F(-1, 2**40)), a),
                  (a, a.rotated(F(1, 2**60))), (a, 3 * a)]
    pairs += [(a, 2 * a) for a in values_of_test_exact()[:12]]
    # nearly parallel Gaussians: Im(conj(a)*b) = |a|^2 * eps, within a few
    # units of roundoff of the products it is the difference of
    for a in seeded_values(23, 400):
        c = a.atoms[0][2]
        eps = F(rng.choice([-1, 1]), 2 ** rng.randrange(50, 60))
        pairs.append((EC.from_gaussian(c), EC.from_gaussian(c * gr(1, eps))))
    for a, b in pairs:
        want = outcome(lambda: exact_cross(a, b))
        got = branches.run("cross", "conj", lambda: EC(a.atoms).cross_signs(EC(b.atoms)))
        assert got == want, (a, b)
    for predicate in ("part", "cross"):
        assert branches.verdicts[predicate, "decided"] > 0
        assert branches.verdicts[predicate, "fell"] > 0


def test_same_key_atoms_decide_from_their_gaussians(monkeypatch):
    """Two single atoms of one (rot, scale) key: ``cross_signs`` gives the
    signs of conj(a)*b from their Gaussians, with no product built.  Equal,
    parallel, antiparallel and unrelated Gaussians on each key."""
    rng = random.Random(31)

    def gauss():
        while True:
            c = gr(F(rng.randrange(-9, 10), rng.randrange(1, 5)), F(rng.randrange(-9, 10), rng.randrange(1, 5)))
            if not c.is_zero():
                return c

    pairs = []
    for rot in (F(0), F(1, 4), F(1, 5), F(3, 7)):
        for scale in (F(0), F(-3, 2), F(5, 3)):
            for _ in range(10):
                c, k = gauss(), F(rng.randrange(1, 7), rng.randrange(1, 4))
                for c2 in (c, c * k, c * -k, gauss()):
                    pairs.append((EC([(rot, scale, c)]), EC([(rot, scale, c2)])))
    assert all(a.atoms[0][:2] == b.atoms[0][:2] for a, b in pairs)
    want = [exact_cross(a, b) for a, b in pairs]
    assert {(1, 0), (-1, 0), (0, 1), (0, -1)} <= set(want)

    def no_product(*args):
        raise AssertionError("cross_signs built a product")

    monkeypatch.setattr(EC, "__mul__", no_product)
    assert [a.cross_signs(b) for a, b in pairs] == want


def test_rotated_is_the_product_with_a_unit():
    rots = [F(0), F(1, 3), F(-1, 3), F(5, 2), F(7, 3), F(-9, 4), F(1, 2), F(49, 100), F(-1, 64)]
    scales = [F(0), F(1, 2), F(-7, 3), F(1000), F(-1000), F(-999, 2)]
    for i, v in enumerate(seeded_values(17, 60)):
        r, s = rots[i % len(rots)], scales[i % len(scales)]
        w, u = v.rotated(r, s), v * EC.unit(r, s)
        assert w.atoms == u.atoms and w == u and hash(w) == hash(u)
        for sign in ("im_sign", "re_sign"):
            assert outcome(getattr(w, sign)) == outcome(getattr(u, sign))


def test_laurent_rotated_on_the_limit_families():
    rng = random.Random(13)
    charges = [degenerating_family()] + [
        LaurentCharge.build(random_admissible_family(rng, range(1, rng.randrange(3, 6))))
        for _ in range(20)
    ]
    for i, zc in enumerate(charges):
        r, s = F(i - 7, 5), F(i % 3 - 1, 2)
        for _, f in zc.families:
            w, u = f.rotated(r, s), f * EC.unit(r, s)
            assert w == u and hash(w) == hash(u)
            assert w.in_upper_semiclosed() == u.in_upper_semiclosed()


def power_formula(v: EC, dps: int = 30):
    """The former ``to_mpc``: each atom as e^(pi*s) * e^(-i*pi*r) * c by powers of e."""
    with mpmath.workdps(dps):
        total = mpmath.mpc(0)
        for r, s, c in v.atoms:
            total += (
                mpmath.e ** (mpmath.pi * (mpmath.mpf(s.numerator) / s.denominator))
                * mpmath.e ** (-1j * mpmath.pi * (mpmath.mpf(r.numerator) / r.denominator))
                * mpmath.mpc(mpmath.mpf(c.re.numerator) / c.re.denominator,
                             mpmath.mpf(c.im.numerator) / c.im.denominator)
            )
        return total


def test_to_mpc_gives_the_power_formula_doubles():
    for v in seeded_values(19, 2000):
        assert complex(v) == complex(power_formula(v))
