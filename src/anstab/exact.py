"""Exact complex scalar kernel.

All charges in this package are finite formal sums of atoms

    e^(-i*pi*rot) * e^(pi*scale) * (a + b*i),        rot, scale, a, b rational.

This shape is closed under everything the tilting algorithms do: addition,
multiplication, conjugation, and multiplication by e^(-i*pi*lam) for lam with
rational real and imaginary part (rotation adds to ``rot``, the imaginary part
adds to ``scale``).  Crucially, sign tests are decidable:

* atoms with distinct ``scale`` are linearly independent over the algebraic
  numbers (a relation would make e^(pi*(s-s')) algebraic), so Im(v) = 0 is
  equivalent to the per-scale groups vanishing individually;
* with rot in [0, 1/2), a single atom's Re or Im is
  x*cos(pi*rot) + y*sin(pi*rot) for x, y read off a + b*i, with cos > 0 and
  sin > 0 unless rot = 0.  Every sign decision on an atom or a factored
  value goes through ``rot_signs(rot)``: its ``xy_sign`` decides that sign
  for integer and rational x, y, and its ``in_h`` tests half-plane
  membership.  The signs of x and y decide unless they are opposite; then
  the sum is 0 only at rot = 1/4 with x = -y (tan(pi*rot) is rational only
  at rot = 0 and 1/4, by Niven's theorem), and the double filter below and
  intervals decide the rest;
* for one factor f and Gaussians c1, c2, the phases of f*c1 and f*c2 inside
  one half-plane bucket are ordered by the cross product Im(conj(c1)*c2):
  ``gauss_cmp_phase`` on a factored level, and ``cross_signs`` on two single
  atoms of one (rot, scale) key, with no filter and no product; a value
  against an equal one gives conj(a)*a = |a|^2 > 0 with no product either;
* a value of one atom takes a direct path: ``zero()`` is one shared value,
  a product of two atoms adds their keys and folds one quarter turn, a
  rotation moves the one key, and each sign is ``xy_sign``'s at once;
* ``GaussianRational`` is the one Gaussian type: Fraction parts in atoms,
  int parts on a factored level.  ``factor`` writes a level of single atoms
  of one (rot, scale) key as that key, a common denominator and Gaussians
  with int parts, and ``expand`` reads it back; no other module reads atoms.
  ``Laurent`` families whose coefficients all are such atoms factor into
  ``FactoredFamily`` values; mixed keys and sums of atoms stay ``Laurent``;
* a certified double filter decides each sign first: ``_filter`` gives Re
  and Im in doubles with a rigorous bound (64-bit enclosures of cos,
  sin(pi*rot) and e^(pi*scale), plus rounding), and ``cross_signs`` reads
  Im(conj(a)*b) off two of them; ``_atom_part`` is its per-atom term,
  which ``xy_sign`` shares.  The exact rules above and escalating-precision
  interval arithmetic (mpmath.iv) decide only what it leaves open; past a
  16,384-bit cap the intervals raise ``PrecisionError``;
* each value decides its Re and Im signs at most once and keeps them; a
  ``PrecisionError`` is raised again on every call, never cached.

Phases are measured in half-turns: z = m * e^(i*pi*phi) with phi in (-1, 1].
The semi-closed upper half plane is  {phi in (0, 1]}.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import inf, isfinite, lcm, nextafter
from operator import itemgetter
from typing import Iterable, Mapping

import mpmath
from mpmath import iv

__all__ = [
    "AnstabError",
    "GaussianRational",
    "ExactComplex",
    "Laurent",
    "PrecisionError",
    "gr",
    "mat_mul",
    "mat_identity",
    "mat_det",
    "det_adjugate",
]

_IV_START_PREC = 64
_IV_MAX_PREC = 1 << 14


class AnstabError(ValueError):
    """Base of the package's errors; ``exit_code`` is the CLI's exit status:
    1 when validation or computation fails, 2 when the input is malformed."""

    exit_code = 2


class PrecisionError(AnstabError, ArithmeticError):
    """A sign decision could not be certified.

    Raised for a zero test the symbolic rules cannot settle (e.g. a sum of
    same-scale atoms with distinct rotations that cancels), and for a nonzero
    value that lies closer to 0 than intervals at the precision cap
    (``_IV_MAX_PREC``, 16,384 bits) resolve.
    """

    exit_code = 1


def _fractions_from_json(data, count: int) -> list[Fraction]:
    """Decode ``[n_1, d_1, ..., n_count, d_count]`` into exact fractions."""
    if (
        not isinstance(data, list)
        or len(data) != 2 * count
        or any(type(x) is not int for x in data)
    ):
        raise AnstabError(f"expected {2 * count} integers, got {data!r}")
    if 0 in data[1::2]:
        raise AnstabError(f"zero denominator in {data!r}")
    return [Fraction(n, d) for n, d in zip(data[::2], data[1::2])]


def _field(data, key: str, count: int) -> list[Fraction]:
    """The ``count`` fractions in field ``key`` of a JSON object; errors name the field."""
    if not isinstance(data, dict):
        raise AnstabError(f"expected a charge atom object, got {data!r}")
    if key not in data:
        raise AnstabError(f"missing field {key!r}")
    try:
        return _fractions_from_json(data[key], count)
    except AnstabError as exc:
        raise AnstabError(f"field {key!r}: {exc}") from None


def _fractions_to_json(*qs: Fraction) -> list[int]:
    return [x for q in qs for x in (q.numerator, q.denominator)]


# ---------------------------------------------------------------------------
# Gaussian rationals


@dataclass(slots=True, unsafe_hash=True)
class GaussianRational:
    """re + im*i: Fraction parts in atoms, int parts on a factored level
    (``factor``).  Treated as immutable; not ``frozen``, which would double
    the cost of building one on the tilt engine's integer path."""

    re: Fraction | int
    im: Fraction | int

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def times_minus_i(self, quarter_turns: int) -> "GaussianRational":
        """self * (-i)^quarter_turns."""
        re, im = self.re, self.im
        for _ in range(quarter_turns % 4):
            re, im = im, -re
        return GaussianRational(re, im) if quarter_turns % 4 else self

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def to_json(self) -> list[int]:
        """``[a, b, c, d]`` for a/b + (c/d) i."""
        return _fractions_to_json(self.re, self.im)

    @staticmethod
    def from_json(data) -> "GaussianRational":
        return GaussianRational(*_fractions_from_json(data, 2))

    def __repr__(self) -> str:
        return f"({self.re})+({self.im})i"


def gr(re, im=0) -> GaussianRational:
    return GaussianRational(Fraction(re), Fraction(im))


_GR_ZERO = gr(0)
_GR_ONE = gr(1)
_ZERO, _HALF, _QUARTER = Fraction(0), Fraction(1, 2), Fraction(1, 4)


def _iv_frac(q: Fraction):
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


@functools.lru_cache(maxsize=512)
def _iv_pi(f, r: Fraction, prec: int):
    """f(pi*r) for f one of iv.cos, iv.sin, iv.exp, with ``prec`` the
    current ``iv.prec``: the interval a fresh evaluation gives."""
    return f(iv.pi * _iv_frac(r))


def _iv_xy(x, y, r: Fraction, prec: int):
    """x*cos(pi*r) + y*sin(pi*r) at ``prec``, for x, y ints or Fractions."""
    return _iv_frac(x) * _iv_pi(iv.cos, r, prec) + _iv_frac(y) * _iv_pi(iv.sin, r, prec)


def _certified_sign(interval, what: str) -> int:
    """Sign of the real that ``interval()`` encloses at the current ``iv.prec``,
    doubling the precision until the enclosure excludes 0.  A nonzero value
    may still lie closer to 0 than the cap resolves: that raises."""
    old, prec = iv.prec, _IV_START_PREC
    try:
        while prec <= _IV_MAX_PREC:
            iv.prec = prec
            x = interval()
            if x > 0:
                return 1
            if x < 0:
                return -1
            prec *= 2
    finally:
        iv.prec = old
    raise PrecisionError(f"{what} not certified at {_IV_MAX_PREC} bits")


def _enclose(f, r: Fraction) -> tuple[float, float]:
    """(mid, rad) with |f(pi*r) - mid| <= rad: the double nearest the middle
    of one 64-bit enclosure, whose raw (sign, mantissa, exponent) ends are
    read exactly, and the distance to its far end, rounded up."""
    old, iv.prec = iv.prec, _IV_START_PREC
    try:
        ends = f(iv.pi * _iv_frac(r))._mpi_
    finally:
        iv.prec = old
    if any(man and exp + bc > 1024 for _, man, exp, bc in ends):  # |end| >= 2^1024
        return inf, inf
    if all(exp + bc < -1074 for _, _, exp, bc in ends):  # |f| < 2^-1074
        return 0.0, 2.0 ** -1074
    lo, hi = ((-1) ** sign * int(man) * Fraction(2) ** exp for sign, man, exp, _ in ends)
    try:
        mid = float((lo + hi) / 2)
        return mid, nextafter(float(max(hi - Fraction(mid), Fraction(mid) - lo)), inf)
    except OverflowError:
        return inf, inf


_exp_pi = functools.lru_cache(maxsize=512)(functools.partial(_enclose, iv.exp))


def _normalize_atom(rot: Fraction, scale: Fraction, c: GaussianRational):
    """Reduce rot mod 2 into [0, 1/2), absorbing quarter turns into c."""
    if c.is_zero():
        return None
    q, rem = divmod(rot % 2, _HALF)
    return (rem, scale, c.times_minus_i(int(q)))


def _xy(c: GaussianRational, part: str) -> tuple[Fraction, Fraction]:
    """(x, y) with Re resp. Im of e^(-i*pi*rot) * c = x*cos(pi*rot) + y*sin(pi*rot)."""
    return (c.re, c.im) if part == "re" else (c.im, -c.re)


def _atom_part(x: float, y: float, cos_sin, em: float, er: float) -> tuple[float, float, float]:
    """One atom's (value, magnitude, radius) in ``_filter``'s sums for the part
    e^(pi*scale) * (x*cos(pi*rot) + y*sin(pi*rot)), e^(pi*scale) being em +- er."""
    cm, cr, sm, sr = cos_sin
    m = abs(x * cm) + abs(y * sm)
    return (em * (x * cm + y * sm), em * m,
            er * m + (er + em) * (abs(x) * cr + abs(y) * sr) + (1 + em) * 2**-1070)


class RotSigns:
    """Signs for one rot in [0, 1/2), built once per rot by ``rot_signs``;
    ``cos_sin`` holds the ``_enclose`` pairs of cos and sin(pi*rot)."""

    __slots__ = ("rot", "cos_sin")

    def __init__(self, rot: Fraction):
        self.rot = rot
        self.cos_sin = (*_enclose(iv.cos, rot), *_enclose(iv.sin, rot))

    def xy_sign(self, x, y) -> int:
        """Sign of x*cos(pi*rot) + y*sin(pi*rot) for x, y ints or Fractions:
        signs of x and y that are not opposite, then the tie at rot = 1/4,
        then ``_filter``'s bound for one atom of scale 0, then intervals."""
        sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
        if self.rot == 0 or sy == 0:
            return sx
        if sx == 0 or sx == sy:
            return sy
        if self.rot == _QUARTER and x == -y:
            return 0
        try:
            v, m, e = _atom_part(float(x), float(y), self.cos_sin, 1.0, 0.0)
            if abs(v) > e + 5 * 2**-52 * (e + m):  # n + 4 = 5 roundings
                return 1 if v > 0 else -1
        except OverflowError:
            pass  # no verdict
        return _certified_sign(lambda: _iv_xy(x, y, self.rot, iv.prec), "phase comparison")

    def in_h(self, c: GaussianRational) -> bool:
        """``in_upper_semiclosed`` of e^(-i*pi*rot) * c times any positive
        real, for int or Fraction parts of c."""
        s = self.xy_sign(c.im, -c.re)
        return s > 0 or s == 0 and self.xy_sign(c.re, c.im) < 0


rot_signs = functools.lru_cache(maxsize=512)(RotSigns)


def gauss_cmp_phase(c1: GaussianRational, c2: GaussianRational) -> int:
    """``cmp_phase`` of f*c1 against f*c2 (f nonzero) in one half-plane bucket:
    minus the sign of Im(conj(c1)*c2), 0 when they are parallel."""
    x, y = c1.im * c2.re, c1.re * c2.im
    return (x > y) - (x < y)


# ---------------------------------------------------------------------------
# Exact complex values


class ExactComplex:
    """A finite sum of exactly-representable complex atoms.

    Immutable.  Atoms are stored normalized with rot in [0, 1/2); two values
    are equal iff their atom multisets agree.  Normalized atom pairs cannot
    cancel (a cancellation would force e^(i*pi*(rot-rot')) or
    e^(pi*(scale-scale')) to be a nonreal Gaussian rational resp. an
    algebraic number).  Still undetected: a cancellation among three or more
    same-scale atoms, and the zero Im(conj(a)*b) when b is a positive
    multiple other than 1 of a value a of several atoms; both can raise
    ``PrecisionError``.

    ``im_sign`` and ``re_sign`` decide at most once per value: the double
    filter first, then the per-atom ladder and intervals; a
    ``PrecisionError`` is never cached.  Equality and hashing read ``atoms``.
    """

    __slots__ = ("atoms", "_re", "_im", "_approx")

    def __init__(self, atoms: Iterable[tuple[Fraction, Fraction, GaussianRational]] = ()):
        self._set(filter(None, itertools.starmap(_normalize_atom, atoms)))

    def _set(self, atoms) -> None:
        """Store normal-form atoms: merge equal (rot, scale) keys, drop zeros, sort."""
        merged: list[tuple[Fraction, Fraction, GaussianRational]] = []
        for rot, scale, c in sorted(atoms, key=itemgetter(0, 1)):
            if merged and merged[-1][0] == rot and merged[-1][1] == scale:
                c += merged.pop()[2]
            merged.append((rot, scale, c))
        self.atoms = tuple(a for a in merged if not a[2].is_zero())
        self._re = self._im = self._approx = None

    @classmethod
    def _normal(cls, atoms) -> "ExactComplex":
        """A value from atoms already in normal form, as sums, negation and
        Gaussian multiples leave them: none of them moves a rot."""
        v = object.__new__(cls)
        v._set(atoms)
        return v

    # -- constructors

    @classmethod
    def _raw(cls, atoms: tuple) -> "ExactComplex":
        """A value from normal-form atoms that are already merged and sorted."""
        v = object.__new__(cls)
        v.atoms, v._re, v._im, v._approx = atoms, None, None, None
        return v

    @classmethod
    def zero(cls) -> "ExactComplex":
        """The one shared zero."""
        return _EC_ZERO

    @classmethod
    def from_gaussian(cls, c: GaussianRational) -> "ExactComplex":
        return _EC_ZERO if c.is_zero() else cls._raw(((_ZERO, _ZERO, c),))

    @classmethod
    def rational(cls, re, im=0) -> "ExactComplex":
        return cls.from_gaussian(gr(re, im))

    @classmethod
    def unit(cls, rot, scale=0) -> "ExactComplex":
        """e^(-i*pi*rot) * e^(pi*scale)."""
        return cls([(Fraction(rot), Fraction(scale), _GR_ONE)])

    # -- ring operations

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        if not other.atoms:
            return self
        if not self.atoms:
            return other
        return ExactComplex._normal(self.atoms + other.atoms)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return self + (-other)

    def __neg__(self) -> "ExactComplex":
        v = ExactComplex._normal((r, s, -c) for r, s, c in self.atoms)
        v._re, v._im = (None if x is None else -x for x in (self._re, self._im))
        v._approx = (f := self._approx) and (-f[0], -f[1], *f[2:])
        return v

    def __mul__(self, other):
        if isinstance(other, ExactComplex):
            if len(self.atoms) == len(other.atoms) == 1:
                (r1, s1, c1), (r2, s2, c2) = self.atoms[0], other.atoms[0]
                r, c = r1 + r2, c1 * c2  # r in [0, 1): fold one quarter turn
                if r >= _HALF:
                    r, c = r - _HALF, c.times_minus_i(1)
                return ExactComplex._raw(((r, s1 + s2, c),))
            return ExactComplex(
                [
                    (r1 + r2, s1 + s2, c1 * c2)
                    for (r1, s1, c1), (r2, s2, c2) in itertools.product(
                        self.atoms, other.atoms
                    )
                ]
            )
        if isinstance(other, (GaussianRational, int, Fraction)):
            if other == 1:
                return self
            return ExactComplex._normal((r, s, c * other) for r, s, c in self.atoms)
        return NotImplemented

    __rmul__ = __mul__

    def conj(self) -> "ExactComplex":
        return ExactComplex([(-r, s, c.conj()) for r, s, c in self.atoms])

    def rotated(self, rot: Fraction, scale: Fraction = Fraction(0)) -> "ExactComplex":
        """``self * EC.unit(rot, scale)``.  Every key moves alike, so no two
        atoms merge: they are only sorted, and quarter turns fold into c."""
        if len(self.atoms) == 1:
            r, s, c = self.atoms[0]
            q, r = divmod(r + rot, _HALF)
            return ExactComplex._raw(((r, s + scale if scale else s, c.times_minus_i(q)),))
        moved = ((divmod(r + rot, _HALF), s + scale, c) for r, s, c in self.atoms)
        return ExactComplex._raw(tuple(sorted(((r, s, c.times_minus_i(q)) for (q, r), s, c in moved),
                                              key=itemgetter(0, 1))))

    # -- predicates

    def is_zero(self) -> bool:
        return not self.atoms

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactComplex) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def _filter(self):
        """(re, im, re_err, im_err), kept: doubles with |Re - re| <= re_err and
        |Im - im| <= im_err, or False when a part leaves the double range.  The
        bound adds to the enclosure radii's share 2u (u = 2^-53, doubled to
        cover rounding the bound) times the magnitudes for each of the n + 4
        roundings on the longest chain (four per atom, the n-term sum), and
        a term for underflow."""
        if self._approx is not None:
            return self._approx
        val, mag, rad = [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
        try:
            for r, s, c in self.atoms:
                cos_sin, (em, er) = rot_signs(r).cos_sin, _exp_pi(s)
                a, b = float(c.re), float(c.im)
                for k, x, y in ((0, a, b), (1, b, -a)):  # as in ``_xy``
                    v, m, e = _atom_part(x, y, cos_sin, em, er)
                    val[k] += v
                    mag[k] += m
                    rad[k] += e
        except OverflowError:
            mag = [inf, inf]  # no verdict
        g = (len(self.atoms) + 4) * 2**-52
        err = [e + g * (e + m) for e, m in zip(rad, mag)]
        self._approx = isfinite(err[0] + err[1]) and (*val, *err)
        return self._approx

    def _part_sign(self, part: str) -> int:
        """Exact sign of Re or Im: the filter's, else the atoms' common sign when
        each scale holds one atom and their nonzero signs agree, else intervals'.
        One atom asks ``xy_sign`` at once: e^(pi*scale) > 0 leaves its sign."""
        if len(self.atoms) == 1:
            r, _, c = self.atoms[0]
            return rot_signs(r).xy_sign(*_xy(c, part))
        f, k = self._filter(), part == "im"
        if f and abs(f[k]) > f[k + 2]:
            return 1 if f[k] > 0 else -1
        if len({s for _, s, _ in self.atoms}) == len(self.atoms):
            signs = {rot_signs(r).xy_sign(*_xy(c, part)) for r, _, c in self.atoms} - {0}
            if len(signs) <= 1:
                return max(signs, default=0)

        def total():
            out, p = iv.mpf(0), iv.prec
            for r, s, c in self.atoms:
                out += _iv_pi(iv.exp, s, p) * _iv_xy(*_xy(c, part), r, p)
            return out

        return _certified_sign(total, f"sign of {part}")

    def im_sign(self) -> int:
        if self._im is None:
            self._im = self._part_sign("im")
        return self._im

    def re_sign(self) -> int:
        if self._re is None:
            self._re = self._part_sign("re")
        return self._re

    def in_upper_semiclosed(self) -> bool:
        """Membership in {m e^(i pi phi): m > 0, 0 < phi <= 1}."""
        s = self.im_sign()
        return s > 0 or s == 0 and self.re_sign() < 0

    def cmp_phase(self, other: "ExactComplex") -> int:
        """Compare phase representatives in (-1, 1]. Both values nonzero."""
        if self.is_zero() or other.is_zero():
            raise ZeroDivisionError("phase of 0")
        b1, b2 = self.in_upper_semiclosed(), other.in_upper_semiclosed()
        if b1 != b2:
            return 1 if b1 else -1
        im, re = self.cross_signs(other)
        if im or re > 0:
            return -im
        # antipodal within one bucket cannot happen: buckets are half-turns
        raise PrecisionError("phase comparison hit an antipodal pair")

    def cross_signs(self, other: "ExactComplex") -> tuple[int, int]:
        """Signs of Im(conj(self)*other) and, where that is 0, of its Re (else
        0).  Single atoms of one key decide by conj(c1)*c2 of their Gaussians;
        else the filters decide Im = Re a Im b - Im a Re b where they can, and
        the product is built only where they cannot, as at exact ties."""
        if len(self.atoms) == len(other.atoms) == 1 and self.atoms[0][:2] == other.atoms[0][:2]:
            p = self.atoms[0][2].conj() * other.atoms[0][2]
            s = (p.im > 0) - (p.im < 0)
            return s, 0 if s else (p.re > 0) - (p.re < 0)
        fa, fb = self._filter(), other._filter()
        if fa and fb:
            (ar, ai, er_a, ei_a), (br, bi, er_b, ei_b) = fa, fb
            x = ar * bi - ai * br
            err = (abs(ar) * ei_b + (abs(bi) + ei_b) * er_a + abs(ai) * er_b + (abs(br) + er_b) * ei_a
                   + 2**-51 * (abs(ar * bi) + abs(ai * br))) * (1 + 2**-48) + 2**-1069
            if abs(x) > err:
                return (1 if x > 0 else -1), 0
        if self.atoms == other.atoms:  # conj(a)*a = |a|^2
            return 0, 1 if self.atoms else 0
        p = self.conj() * other
        s = p.im_sign()
        return s, 0 if s else p.re_sign()

    # -- numeric views

    def to_mpc(self, dps: int = 30):
        with mpmath.workdps(dps):
            total = mpmath.mpc(0)
            for r, s, c in self.atoms:
                total += (
                    mpmath.exp(mpmath.pi * (mpmath.mpf(s.numerator) / s.denominator))
                    * mpmath.expjpi(-mpmath.mpf(r.numerator) / r.denominator)
                    * mpmath.mpc(mpmath.mpf(c.re.numerator) / c.re.denominator,
                                 mpmath.mpf(c.im.numerator) / c.im.denominator)
                )
            return total

    def __complex__(self) -> complex:
        return complex(self.to_mpc())

    def __abs__(self) -> float:
        return abs(complex(self))

    def as_gaussian(self) -> GaussianRational | None:
        """The value as a Gaussian rational, if it is one."""
        if not self.atoms:
            return _GR_ZERO
        if len(self.atoms) == 1:
            r, s, c = self.atoms[0]
            if r == 0 and s == 0:
                return c
        return None

    # -- the charge wire format

    def to_json(self):
        """A Gaussian value as ``[a, b, c, d]``, one atom as ``{"rot", "scale",
        "gauss"}``, a sum of atoms as ``{"atoms": [...], "re", "im"}`` whose
        floats are only a derived approximation, left out when not finite."""
        g = self.as_gaussian()
        if g is not None:
            return g.to_json()
        atoms = [
            {"rot": _fractions_to_json(r), "scale": _fractions_to_json(s), "gauss": c.to_json()}
            for r, s, c in self.atoms
        ]
        if len(atoms) == 1:
            return atoms[0]
        z = complex(self)
        return {"atoms": atoms, **{k: x for k, x in (("re", z.real), ("im", z.imag)) if isfinite(x)}}

    @classmethod
    def from_json(cls, data) -> "ExactComplex":
        """The inverse of ``to_json``; a bare ``{"re", "im"}`` reads as floats.
        Malformed input raises ``AnstabError`` naming the missing or ill-typed field."""
        if isinstance(data, list):
            return cls.from_gaussian(GaussianRational.from_json(data))
        if not isinstance(data, dict):
            raise AnstabError(f"expected a charge value, got {data!r}")
        if "atoms" in data or "gauss" in data:
            atoms = data.get("atoms", [data])
            if not isinstance(atoms, list):
                raise AnstabError(f"field 'atoms': expected a list, got {atoms!r}")
            return cls(
                (*_field(a, "rot", 1), *_field(a, "scale", 1), GaussianRational(*_field(a, "gauss", 2)))
                for a in atoms
            )
        parts = [data.get("re"), data.get("im")]
        if not all(type(x) is int or type(x) is float and isfinite(x) for x in parts):
            raise AnstabError(f"expected finite numbers re and im, got {data!r}")
        return cls.rational(*map(Fraction, parts))

    def __repr__(self) -> str:
        if not self.atoms:
            return "EC(0)"
        return "EC(" + " + ".join(
            f"e^(-i*pi*{r})*e^(pi*{s})*{c}" for r, s, c in self.atoms
        ) + ")"


EC = ExactComplex
_EC_ZERO = ExactComplex()


@dataclass(slots=True)
class FactoredFamily:
    """A ``Laurent`` family on a factored level (``factor``): its nonzero
    coefficients {k: GaussianRational with int parts} by increasing k."""

    coeffs: dict

    def __add__(self, other: "FactoredFamily") -> "FactoredFamily":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out[k] + c if k in out else c
        return FactoredFamily({k: c for k, c in sorted(out.items()) if not c.is_zero()})

    def __neg__(self) -> "FactoredFamily":
        return FactoredFamily({k: -c for k, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def times_minus_i(self, quarter_turns: int) -> "FactoredFamily":
        return FactoredFamily({k: c.times_minus_i(quarter_turns) for k, c in self.coeffs.items()})

    def valuation(self) -> int | None:
        return next(iter(self.coeffs), None)

    def leading(self) -> GaussianRational:
        return next(iter(self.coeffs.values()))

    def in_h(self, rs: RotSigns) -> bool:
        """``Laurent.in_upper_semiclosed`` on the key of ``rs``."""
        cs = self.coeffs.values()
        s = next(filter(None, (rs.xy_sign(c.im, -c.re) for c in cs)), 0)
        return s > 0 if s else next(filter(None, (rs.xy_sign(c.re, c.im) for c in cs)), 0) < 0

    def cmp_phase(self, other: "FactoredFamily", rs: RotSigns) -> int:
        """``Laurent.cmp_phase`` on the key of ``rs``: the leading coefficients'
        buckets (-1 - it is outside H but leads in H), then ``gauss_cmp_phase``."""
        a, b = self.leading(), other.leading()
        return (rs.in_h(a) - rs.in_h(b)) or gauss_cmp_phase(a, b)


def factor(values: Mapping):
    """``(key, {label: g})`` when every nonzero value, or every coefficient of
    ``Laurent`` values, is one atom of a common (rot, scale): key = (rot, scale,
    D), D > 0 the lcm of the denominators, value = e^(-i*pi*rot) e^(pi*scale) g / D,
    g a ``GaussianRational`` with int parts (a ``FactoredFamily`` of them).  Else None."""
    families = all(isinstance(v, Laurent) for v in values.values())
    cs = [c for v in values.values() for c in v.coeffs.values()] if families else values.values()
    if not all(isinstance(c, ExactComplex) and len(c.atoms) <= 1 for c in cs):
        return None
    atoms = [c.atoms[0] for c in cs if c.atoms]
    if not atoms or any(a[:2] != atoms[0][:2] for a in atoms):
        return None
    d = lcm(*(x.denominator for a in atoms for x in (a[2].re, a[2].im)))

    def ints(c: ExactComplex) -> GaussianRational:
        g = c.atoms[0][2] if c.atoms else _GR_ZERO
        return GaussianRational(*(x.numerator * d // x.denominator for x in (g.re, g.im)))

    return (*atoms[0][:2], d), {l: FactoredFamily({k: ints(c) for k, c in v.coeffs.items()})
                                if families else ints(v) for l, v in values.items()}


def expand(key, values: Mapping) -> dict:
    """The ``ExactComplex`` or ``Laurent`` values of a factored level: the inverse of ``factor``."""
    r, s, d = key

    def atom(g: GaussianRational) -> ExactComplex:
        c = GaussianRational(Fraction(g.re, d), Fraction(g.im, d))
        return _EC_ZERO if c.is_zero() else EC._raw(((r, s, c),))

    return {l: Laurent({k: atom(g) for k, g in v.coeffs.items()}) if isinstance(v, FactoredFamily)
            else atom(v) for l, v in values.items()}


def phase_cmp_rational(c: GaussianRational, r: Fraction) -> int:
    """Compare phase(c) in (-1, 1] with the rational r reduced mod 2 into
    (-1, 1]: ``cmp_phase`` of c against e^(i*pi*r).  Nothing in the package
    calls it; it stays because the benchmark's tracer (``bench/spans.py``)
    wraps it by name, until that span is dropped (ROADMAP item 2)."""
    return ExactComplex.from_gaussian(c).cmp_phase(ExactComplex.unit(-r))


# ---------------------------------------------------------------------------
# Laurent polynomials over the exact complex values


class Laurent:
    """Laurent polynomial in one parameter t (t -> 0+) with ExactComplex
    coefficients; Gaussian-rational coefficients are lifted on construction.
    A value for the tilt engine: phases and half-plane membership are those
    of f(t) for all small t > 0."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, ExactComplex | GaussianRational] | None = None):
        cleaned = {}
        for k, c in (coeffs or {}).items():
            if isinstance(c, GaussianRational):
                c = ExactComplex.from_gaussian(c)
            if not c.is_zero():
                cleaned[int(k)] = c
        self.coeffs = dict(sorted(cleaned.items()))

    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self) -> int | None:
        if not self.coeffs:
            return None
        return min(self.coeffs)

    def leading(self) -> ExactComplex:
        v = self.valuation()
        if v is None:
            raise ZeroDivisionError("leading coefficient of 0")
        return self.coeffs[v]

    def coeff(self, k: int) -> ExactComplex:
        return self.coeffs.get(k, ExactComplex.zero())

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out[k] + c if k in out else c
        return Laurent(out)

    def __neg__(self) -> "Laurent":
        return Laurent({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other) -> "Laurent":
        """Coefficientwise product with an int, Fraction, Gaussian or
        ExactComplex; the factor 1, which every tilt in A_n type uses, is free."""
        if not isinstance(other, (ExactComplex, GaussianRational, int, Fraction)):
            return NotImplemented
        if other == 1:
            return self
        return Laurent({k: c * other for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def rotated(self, rot: Fraction, scale: Fraction = Fraction(0)) -> "Laurent":
        """``self * EC.unit(rot, scale)``, coefficientwise."""
        return Laurent({k: c.rotated(rot, scale) for k, c in self.coeffs.items()})

    def in_upper_semiclosed(self) -> bool:
        """Whether f(t) lies in H for all small t > 0: the sign of the lowest
        nonzero Im coefficient decides, else that of the lowest nonzero Re."""
        s = next(filter(None, (c.im_sign() for c in self.coeffs.values())), 0)
        if s:
            return s > 0
        return next(filter(None, (c.re_sign() for c in self.coeffs.values())), 0) < 0

    def cmp_phase(self, other: "Laurent") -> int:
        """Compare the phases of the leading coefficients."""
        return self.leading().cmp_phase(other.leading())

    def __eq__(self, other) -> bool:
        return isinstance(other, Laurent) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c!r}*t^{k}" for k, c in self.coeffs.items())


# ---------------------------------------------------------------------------
# Small exact linear algebra (integer, dense, tiny sizes)


def mat_identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)]
        for i in range(n)
    ]


def _eliminate(m, n: int, jordan: bool) -> tuple[int, int]:
    """A fraction-free (Bareiss) pass, in place, over the first n columns of
    the integer rows m, below the pivots and, with ``jordan``, above them:
    (sign, last pivot), their product det, or (0, 0) when singular."""
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            return 0, 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top, p = m[k], m[k][k]
        for i in range(0 if jordan else k + 1, n):
            if i != k:
                f = m[i][k]
                m[i] = [(x * p - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
    return sign, prev


def det_adjugate(a):
    """``(det a, adj a)``, so adj * a = det * I, for a square integer matrix a,
    or ``(0, None)`` when a is singular: ``_eliminate`` on [a | I] ends with
    d * I on the left and d * a^-1 on the right, d = +-det a."""
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    sign, d = _eliminate(m, n, True)
    return (sign * d, [[sign * x for x in row[n:]] for row in m]) if d else (0, None)


def mat_det(a) -> int:
    """Determinant of a square integer matrix: ``_eliminate`` below the pivots."""
    sign, d = _eliminate([list(row) for row in a], len(a), False)
    return sign * d
