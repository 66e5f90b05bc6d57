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
  for integer and rational x, y from constants kept once per rot, and its
  ``in_h`` tests half-plane membership.  The signs of x and y decide unless
  they are opposite, and then the sign is that of x exactly when
  q = |x|/|y| > tan(pi*rot).  tan(pi*rot) is increasing with tan(pi/4) = 1,
  so q = 1, q > 1 with rot <= 1/4 and q < 1 with rot >= 1/4 are symbolic;
  otherwise q - tan(pi*rot) is nonzero (by Niven's theorem tan(pi*rot) is
  rational only at rot = 0 and 1/4): q outside a cached rational bracket
  lo <= tan(pi*rot) <= hi decides, all by cross-multiplying, and intervals
  decide the rest;
* for one factor f and Gaussians c1, c2, the phases of f*c1 and f*c2 inside
  one half-plane bucket are ordered by the cross product Im(conj(c1)*c2)
  (``gauss_cmp_phase``);
* ``GaussianRational`` is the one Gaussian type: Fraction parts in atoms,
  int parts on a factored level.  ``factor`` writes a level of single atoms
  of one (rot, scale) key as that key, a common denominator and Gaussians
  with int parts, and ``expand`` reads it back; no other module reads atoms;
* nonzero quantities are separated from 0 by escalating-precision interval
  arithmetic (mpmath.iv); past a 16,384-bit cap it raises ``PrecisionError``.
  The enclosures of cos, sin, tan(pi*r) and e^(pi*s) sit in a bounded cache
  keyed by (r, precision);
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
from math import isfinite, lcm
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

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        n2 = other.norm2()
        if n2 == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        c = self * other.conj()
        return GaussianRational(Fraction(c.re, n2), Fraction(c.im, n2))

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

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
_HALF, _QUARTER = Fraction(1, 2), Fraction(1, 4)


def _norm_pm1(r: Fraction) -> Fraction:
    """Reduce r mod 2 into (-1, 1]."""
    r = r % 2
    if r > 1:
        r -= 2
    return r


def _exact_phase(c: GaussianRational):
    """Phase of c in (-1, 1] when it is rational (axes and diagonals), else None."""
    a, b = c.re, c.im
    if a == 0 and b == 0:
        raise ZeroDivisionError("phase of 0")
    if b == 0:
        return Fraction(0) if a > 0 else Fraction(1)
    if a == 0:
        return Fraction(1, 2) if b > 0 else Fraction(-1, 2)
    if abs(a) == abs(b):
        if a > 0:
            return Fraction(1, 4) if b > 0 else Fraction(-1, 4)
        return Fraction(3, 4) if b > 0 else Fraction(-3, 4)
    return None


def _iv_frac(q: Fraction):
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


@functools.lru_cache(maxsize=512)
def _iv_pi(f, r: Fraction, prec: int):
    """f(pi*r) for f one of iv.cos, iv.sin, iv.tan, iv.exp, with ``prec`` the
    current ``iv.prec``: the interval a fresh evaluation gives."""
    return f(iv.pi * _iv_frac(r))


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


@functools.lru_cache(maxsize=512)
def _tan_bracket(rot: Fraction):
    """(lo, hi) with lo <= tan(pi*rot) <= hi, read exactly off the raw (sign,
    mantissa, exponent) ends of one 64-bit enclosure; None if one is infinite."""
    old, iv.prec = iv.prec, _IV_START_PREC
    try:
        ends = iv.tan(iv.pi * _iv_frac(rot))._mpi_
    finally:
        iv.prec = old
    if all(man or not exp for _, man, exp, _ in ends):
        return tuple((-1) ** sign * int(man) * Fraction(2) ** exp for sign, man, exp, _ in ends)


def _normalize_atom(rot: Fraction, scale: Fraction, c: GaussianRational):
    """Reduce rot mod 2 into [0, 1/2), absorbing quarter turns into c."""
    if c.is_zero():
        return None
    q, rem = divmod(rot % 2, _HALF)
    return (rem, scale, c.times_minus_i(int(q)))


def _xy(c: GaussianRational, part: str) -> tuple[Fraction, Fraction]:
    """(x, y) with Re resp. Im of e^(-i*pi*rot) * c = x*cos(pi*rot) + y*sin(pi*rot)."""
    return (c.re, c.im) if part == "re" else (c.im, -c.re)


class RotSigns:
    """The rot-dependent constants of the sign ladder for one rot in
    [0, 1/2), computed once per rot by ``rot_signs``: ``side`` is
    sign(1/4 - rot) (None at rot = 0) and ``bracket`` the ``_tan_bracket``
    ends as integers (lo_num, lo_den, hi_num, hi_den), None where unused."""

    __slots__ = ("rot", "side", "bracket")

    def __init__(self, rot: Fraction):
        self.rot = rot
        self.side = None if rot == 0 else (rot < _QUARTER) - (rot > _QUARTER)
        bracket = _tan_bracket(rot) if self.side else None
        self.bracket = bracket and tuple(x for end in bracket
                                         for x in (end.numerator, end.denominator))

    def xy_sign(self, x, y) -> int:
        """Sign of x*cos(pi*rot) + y*sin(pi*rot) for x, y ints or Fractions;
        |x| is compared with |y| and the tan bracket by cross-multiplying,
        and a Fraction is built only for intervals."""
        sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
        side = self.side
        if side is None or sy == 0:
            return sx
        if sx == 0 or sx == sy:
            return sy
        # opposite signs: the sign is that of x exactly when
        # q = |x|/|y| > tan(pi*rot), and tan(pi/4) = 1
        ax, ay = abs(x), abs(y)
        if ax == ay:
            return sx * side
        if ax > ay and side >= 0:
            return sx
        if ax < ay and side <= 0:
            return sy
        if self.bracket:
            lo_n, lo_d, hi_n, hi_d = self.bracket
            if ax * hi_d > hi_n * ay:
                return sx
            if ax * lo_d < lo_n * ay:
                return sy
        q, rot = Fraction(ax) / ay, self.rot
        return sx * _certified_sign(
            lambda: _iv_frac(q) - _iv_pi(iv.tan, rot, iv.prec), "phase comparison"
        )

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
    algebraic number); a cancellation among three or more same-scale atoms
    is not yet detected.

    ``im_sign`` and ``re_sign`` decide at most once per value, reading the
    bounded per-precision interval cache; a ``PrecisionError`` is never
    cached.  Equality and hashing read ``atoms`` only.
    """

    __slots__ = ("atoms", "_re", "_im")

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
        self._re = self._im = None

    @classmethod
    def _normal(cls, atoms) -> "ExactComplex":
        """A value from atoms already in normal form, as sums, negation and
        Gaussian multiples leave them: none of them moves a rot."""
        v = object.__new__(cls)
        v._set(atoms)
        return v

    # -- constructors

    @classmethod
    def zero(cls) -> "ExactComplex":
        return cls(())

    @classmethod
    def from_gaussian(cls, c: GaussianRational) -> "ExactComplex":
        return cls([(Fraction(0), Fraction(0), c)])

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
        return ExactComplex._normal(self.atoms + other.atoms)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return self + (-other)

    def __neg__(self) -> "ExactComplex":
        v = ExactComplex._normal((r, s, -c) for r, s, c in self.atoms)
        v._re, v._im = (None if x is None else -x for x in (self._re, self._im))
        return v

    def __mul__(self, other):
        if isinstance(other, ExactComplex):
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

    # -- predicates

    def is_zero(self) -> bool:
        return not self.atoms

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactComplex) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def _part_sign(self, part: str) -> int:
        """Exact sign of Re or Im: the atoms' common sign when each scale holds
        one atom and the nonzero atom signs agree, else certified by intervals."""
        if len({s for _, s, _ in self.atoms}) == len(self.atoms):
            signs = {rot_signs(r).xy_sign(*_xy(c, part)) for r, _, c in self.atoms} - {0}
            if len(signs) <= 1:
                return max(signs, default=0)

        def total():
            out, p = iv.mpf(0), iv.prec
            for r, s, c in self.atoms:
                x, y = _xy(c, part)
                val = _iv_frac(x) * _iv_pi(iv.cos, r, p) + _iv_frac(y) * _iv_pi(iv.sin, r, p)
                out += _iv_pi(iv.exp, s, p) * val
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
        if self.is_zero():
            return False
        s = self.im_sign()
        if s > 0:
            return True
        if s < 0:
            return False
        return self.re_sign() < 0

    def cmp_phase(self, other: "ExactComplex") -> int:
        """Compare phase representatives in (-1, 1]. Both values nonzero."""
        if self.is_zero() or other.is_zero():
            raise ZeroDivisionError("phase of 0")
        b1, b2 = self.in_upper_semiclosed(), other.in_upper_semiclosed()
        if b1 != b2:
            return 1 if b1 else -1
        cross = self.conj() * other
        s = cross.im_sign()
        if s > 0:
            return -1
        if s < 0:
            return 1
        if cross.re_sign() > 0:
            return 0
        # antipodal within one bucket cannot happen: buckets are half-turns
        raise PrecisionError("phase comparison hit an antipodal pair")

    def cmp_abs(self, other: "ExactComplex") -> int:
        d = self * self.conj() - other * other.conj()
        return d.re_sign()

    # -- numeric views

    def abs2_parts(self) -> list[tuple[Fraction, Fraction]]:
        """|v|^2 as a sum of e^(2*pi*s) * q terms: list of (s, q)."""
        sq = self * self.conj()
        out = []
        for r, s, c in sq.atoms:
            if r == 0 and c.im == 0:
                out.append((s / 2, c.re))
            else:  # mixed-rotation cross terms; keep the numeric view honest
                return []
        return out

    def to_mpc(self, dps: int = 30):
        with mpmath.workdps(dps):
            total = mpmath.mpc(0)
            for r, s, c in self.atoms:
                total += (
                    mpmath.e ** (mpmath.pi * (mpmath.mpf(s.numerator) / s.denominator))
                    * mpmath.e
                    ** (
                        -1j
                        * mpmath.pi
                        * (mpmath.mpf(r.numerator) / r.denominator)
                    )
                    * mpmath.mpc(
                        mpmath.mpf(c.re.numerator) / c.re.denominator,
                        mpmath.mpf(c.im.numerator) / c.im.denominator,
                    )
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

    def phase_fraction(self) -> Fraction | None:
        """Exact phase in (-1, 1] as a Fraction when it is rational, else None."""
        if len(self.atoms) != 1:
            return None
        r, _, c = self.atoms[0]
        p = _exact_phase(c)
        if p is None:
            return None
        return _norm_pm1(p - r)

    # -- the charge wire format

    def to_json(self):
        """A Gaussian value as ``[a, b, c, d]``, one atom as ``{"rot", "scale",
        "gauss"}``, a sum of atoms as ``{"atoms": [...], "re", "im"}`` whose
        floats are only a derived approximation."""
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
        return {"atoms": atoms, "re": z.real, "im": z.imag}

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


def factor(values: Mapping):
    """``(key, {label: g})`` when every nonzero value is one atom of a common
    (rot, scale): key = (rot, scale, D), D > 0 the lcm of the denominators,
    g a ``GaussianRational`` with int parts and
    value = e^(-i*pi*rot) e^(pi*scale) g / D.  Else None."""
    if not all(isinstance(v, ExactComplex) and len(v.atoms) <= 1 for v in values.values()):
        return None
    keys = {v.atoms[0][:2] for v in values.values() if v.atoms}
    if len(keys) != 1:
        return None
    cs = {l: v.atoms[0][2] if v.atoms else _GR_ZERO for l, v in values.items()}
    d = lcm(*(x.denominator for c in cs.values() for x in (c.re, c.im)))
    return (*keys.pop(), d), {l: GaussianRational(*(x.numerator * d // x.denominator for x in (c.re, c.im)))
                              for l, c in cs.items()}


def expand(key, gs: Mapping) -> dict:
    """The ``ExactComplex`` values of a factored level: the inverse of ``factor``."""
    r, s, d = key
    return {l: EC._normal([(r, s, GaussianRational(Fraction(g.re, d), Fraction(g.im, d)))])
            for l, g in gs.items()}


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

    def eval_fraction(self, t: Fraction) -> ExactComplex:
        total = ExactComplex.zero()
        for k, c in self.coeffs.items():
            total = total + c * (t**k)
        return total

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


def det_adjugate(a):
    """``(det a, adj a)``, so adj * a = det * I, for a square integer matrix a,
    or ``(0, None)`` when a is singular.  One fraction-free (Bareiss)
    Gauss-Jordan pass on [a | I]: the entries stay integer minors, the left
    block ends as d * I and the right one as d * a^-1, d = +-det a."""
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top, p = m[k], m[k][k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(x * p - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


def mat_det(a) -> int:
    """Determinant of a square integer matrix."""
    return det_adjugate(a)[0]
