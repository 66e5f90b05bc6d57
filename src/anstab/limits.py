"""Exact limit extraction for one-parameter families of central charges.

A family is a Laurent polynomial in a parameter t per simple (t -> 0+), with
Gaussian-rational coefficients; extraction accumulates a global rational
rotation, starting from 0.  Everything is decided symbolically:

* admissibility (values in the semi-closed upper half plane for all small
  t > 0) reads off the sign of the first nonvanishing imaginary, then real,
  coefficient after rotation;
* the level order compares t-adic valuations: a simple dominates another
  exactly when its valuation is smaller or equal;
* the limit charge at each level is the leading coefficient, once none of
  them sits on the positive real axis.  If one does, the family is rotated
  by the smallest schedule value 1/q (q = 64, 32, ...) that leaves every
  indecomposable leading phase off the axis, the hearts are retilted
  symbolically by the tilt engine ``stability.TiltState``, and the
  extraction restarts.

The returned rotation lets callers undo the rotation branch exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .anquiver import enumerate_strings
from .exact import (
    EC,
    AnstabError,
    GaussianRational,
    LaurentGR,
    _atom_sign,
)
from .hearts import Heart
from .multiscale import MscError, MultiScaleStab, validate_msc
from .stability import TiltState


class LimitError(AnstabError):
    exit_code = 1


class InadmissibleFamily(LimitError):
    """Some simple leaves the semi-closed upper half plane for small t."""


ROTATION_SCHEDULE = tuple(Fraction(1, q) for q in (64, 32, 16, 8, 4))


@dataclass(frozen=True)
class LaurentCharge:
    """Per-simple Laurent polynomials."""

    families: tuple[tuple[int, LaurentGR], ...]

    @staticmethod
    def build(values: Mapping[int, LaurentGR | Mapping[int, GaussianRational]]) -> "LaurentCharge":
        fams = []
        for l, f in values.items():
            if not isinstance(f, LaurentGR):
                f = LaurentGR(dict(f))
            fams.append((int(l), f))
        return LaurentCharge(tuple(sorted(fams)))

    def family(self, label: int) -> LaurentGR:
        for l, f in self.families:
            if l == label:
                return f
        raise LimitError(f"no family for simple {label}")

    def to_json(self) -> dict:
        """Per simple, the terms ``[k, a, b, c, d]`` of (a/b + (c/d) i) t^k."""
        return {
            str(l): [[k, *c.to_json()] for k, c in f.coeffs.items()]
            for l, f in self.families
        }

    @staticmethod
    def from_json(data: Mapping) -> "LaurentCharge":
        return LaurentCharge.build(
            {
                int(l): {int(k): GaussianRational.from_json(c) for k, *c in terms}
                for l, terms in data.items()
            }
        )


def _series_sign(part: str, rot: Fraction, f: LaurentGR) -> int:
    """The sign of ``part`` ("re" or "im") of the lowest-order term it does not kill."""
    signs = (_atom_sign(rot, f.coeffs[k], part) for k in sorted(f.coeffs))
    return next((s for s in signs if s), 0)


def _eventually_in_h(rot: Fraction, f: LaurentGR) -> bool:
    """Whether e^(-i*pi*rot) * f(t) lies in the half plane for all small t > 0."""
    if f.is_zero():
        return False
    s = _series_sign("im", rot, f)
    if s:
        return s > 0
    return _series_sign("re", rot, f) < 0


def _on_positive_reals(rot: Fraction, lead) -> bool:
    """Whether e^(-i*pi*rot) * lead lies on R_{>0}."""
    return _atom_sign(rot, lead, "im") == 0 and _atom_sign(rot, lead, "re") > 0


@dataclass(frozen=True)
class LevelAssignment:
    level_of: tuple[tuple[int, int], ...]   # (label, level)
    valuations: tuple[int, ...]             # valuation per level, increasing

    def level(self, label: int) -> int:
        return dict(self.level_of)[label]

    def level_sets(self) -> list[frozenset[int]]:
        out = [set() for _ in self.valuations]
        for l, i in self.level_of:
            out[i].add(l)
        return [frozenset(s) for s in out]


def order_relation(heart: Heart, zc: LaurentCharge) -> LevelAssignment:
    """Group simples into levels by t-adic valuation, largest charges first."""
    _check_admissible(heart, zc)
    vals = {}
    for l in heart.labels:
        f = zc.family(l)
        vals[l] = f.valuation()
    distinct = sorted(set(vals.values()))
    return LevelAssignment(
        tuple(sorted((l, distinct.index(v)) for l, v in vals.items())),
        tuple(distinct),
    )


def _check_admissible(heart: Heart, zc: LaurentCharge) -> None:
    bad = []
    for l in heart.labels:
        f = zc.family(l)
        if f.is_zero():
            bad.append((l, "identically zero"))
        elif not _eventually_in_h(Fraction(0), f):
            bad.append((l, "leaves the semi-closed upper half plane near t=0"))
    if bad:
        msg = "; ".join(f"simple {l}: {why}" for l, why in bad)
        raise InadmissibleFamily(msg)


@dataclass(frozen=True)
class _Family:
    """A family rotated by e^(-i*pi*rot), as a value for the tilt engine."""

    rot: Fraction
    f: LaurentGR

    def __add__(self, other: "_Family") -> "_Family":
        return _Family(self.rot, self.f + other.f)

    def __mul__(self, m: int) -> "_Family":
        return _Family(self.rot, self.f.scale(m))

    def __neg__(self) -> "_Family":
        return _Family(self.rot, -self.f)

    def is_zero(self) -> bool:
        return self.f.is_zero()

    def in_upper_semiclosed(self) -> bool:
        return _eventually_in_h(self.rot, self.f)

    def cmp_phase(self, other: "_Family") -> int:
        """Compare the phases of the leading terms."""
        a = EC([(self.rot, Fraction(0), self.f.leading())])
        b = EC([(other.rot, Fraction(0), other.f.leading())])
        return a.cmp_phase(b)


def extract_limit(heart: Heart, zc: LaurentCharge):
    """Extract the limiting multi-scale object of an admissible family.

    Returns (msc, rotation): the applied total rotation r means every output
    charge carries the factor e^(-i*pi*r); dropping it recovers the
    unrotated leading coefficients.  Deterministic: the rotation branch
    always picks the earliest admissible schedule value.
    """
    _check_admissible(heart, zc)
    fams = {l: f for l, f in zc.families}
    rot = Fraction(0)
    heart_cur = heart
    for _round in range(len(ROTATION_SCHEDULE) + 1):
        st = TiltState(heart_cur, [{l: _Family(rot, f) for l, f in fams.items()}])
        st.settle(0)
        heart_cur = st.heart
        fams = {l: v.f for l, v in st.charges[0].items()}
        vals = {l: fams[l].valuation() for l in heart_cur.labels}
        distinct = sorted(set(vals.values()))
        if not any(_on_positive_reals(rot, fams[l].leading()) for l in heart_cur.labels):
            charges = []
            for i, v in enumerate(distinct):
                ch = {}
                for l in heart_cur.labels:
                    if vals[l] < v:
                        continue
                    if vals[l] == v:
                        ch[l] = EC([(rot, Fraction(0), fams[l].leading())])
                    else:
                        ch[l] = EC.zero()
                charges.append(ch)
            return validate_msc(heart_cur, charges), rot
        # leading terms of the nonzero indecomposable charges
        leads = []
        for s in enumerate_strings(heart_cur.ext):
            dv = s.dimension_vector(heart_cur.ext.vertices)
            total = LaurentGR()
            for m, v in zip(dv, heart_cur.ext.vertices):
                if m:
                    total = total + fams[v].scale(m)
            if not total.is_zero():
                leads.append(total.leading())
        lam = next(
            (
                lam
                for lam in ROTATION_SCHEDULE
                if not any(_on_positive_reals(rot + lam, c) for c in leads)
            ),
            None,
        )
        if lam is None:
            raise LimitError(
                "no admissible rotation in the schedule: the degeneration "
                "is horizontal, which cannot occur in finite A_n type"
            )
        rot = rot + lam
    raise LimitError("rotation branch did not stabilize")


def plumbing_ray(m: MultiScaleStab) -> tuple[Heart, LaurentCharge]:
    """The symbolic ray Z_0 + t Z_1 + t^2 Z_2 + ... of a rational msc.

    Feeding the result back through extract_limit recovers an equivalent
    multi-scale object.
    """
    fams: dict[int, LaurentGR] = {}
    for l in m.top.labels:
        depth = max(i for i in range(m.L + 1) if l in m.labels(i))
        v = m.charge(depth)[l]
        g = v.as_gaussian()
        if g is None:
            raise MscError("plumbing rays need plain Gaussian-rational charges")
        fams[l] = LaurentGR.monomial(depth, g)
    return m.top, LaurentCharge.build(fams)
