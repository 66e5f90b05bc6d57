"""Exact limit extraction for one-parameter families of central charges.

A family is a Laurent polynomial in a parameter t per simple (t -> 0+),
``exact.Laurent``, whose coefficients are ExactComplex values of any form the
charge codec reads and writes.  The families are ordinary values for the tilt
engine ``stability.TiltState``, and everything is decided symbolically:

* admissibility (values in the semi-closed upper half plane for all small
  t > 0) reads off the sign of the first nonvanishing imaginary, then real,
  coefficient;
* the level order compares t-adic valuations: a simple dominates another
  exactly when its valuation is smaller or equal;
* the limit charge at each level is the leading coefficient, once none of
  them sits on the positive real axis.  If one does, the families are
  rotated by the smallest schedule value 1/q (q = 64, 32, ...) that leaves
  every indecomposable leading phase off the axis, by ``TiltState.act_from``
  (rotate, then settle, as in ``c_act``), and the check repeats.  The
  rotation is one more atom factor on the coefficients.  Only this branch
  builds engine state.  Families whose coefficients are all single atoms of
  one (rot, scale) key, as Gaussian ones are, settle on integers
  (``exact.factor``); mixed keys and sums of atoms stay ``Laurent``.

The returned rotation lets callers undo the rotation branch exactly.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .anquiver import enumerate_strings
from .exact import EC, AnstabError, GaussianRational, Laurent, expand
from .hearts import Heart
from .multiscale import MultiScaleStab, validate_msc
from .stability import TiltState, label_from_key


class LimitError(AnstabError):
    exit_code = 1


class InadmissibleFamily(LimitError):
    """Some simple leaves the semi-closed upper half plane for small t."""


ROTATION_SCHEDULE = tuple(Fraction(1, q) for q in (64, 32, 16, 8, 4))


@dataclass(frozen=True)
class LaurentCharge:
    """Per-simple Laurent polynomials."""

    families: tuple[tuple[int, Laurent], ...]

    @staticmethod
    def build(values: Mapping[int, Laurent | Mapping[int, EC | GaussianRational]]) -> "LaurentCharge":
        """Families from Laurent polynomials or ``{k: coefficient}`` maps."""
        return LaurentCharge(tuple(sorted(
            (int(l), f if isinstance(f, Laurent) else Laurent(dict(f)))
            for l, f in values.items()
        )))

    def to_json(self) -> dict:
        """Per simple, its terms: ``[k, a, b, c, d]`` for a Gaussian coefficient
        (a/b + (c/d) i) t^k, else ``[k, v]`` with v the coefficient's charge
        codec form (``ExactComplex.to_json``)."""
        return {
            str(l): [
                [k, *v] if isinstance(v := c.to_json(), list) else [k, v]
                for k, c in f.coeffs.items()
            ]
            for l, f in self.families
        }

    @staticmethod
    def from_json(data: Mapping) -> "LaurentCharge":
        """The inverse of ``to_json``: keys pass ``label_from_key``, and
        exponents are JSON integers, distinct within each family."""
        fams = {}
        for l, terms in data.items():
            label, coeffs = label_from_key(l, "family"), {}
            if not isinstance(terms, list):
                raise AnstabError(f"simple {l}: terms {terms!r} are not a list")
            for term in terms:
                if not isinstance(term, list) or len(term) < 2:
                    raise AnstabError(f"simple {l}: term {term!r} is not [k, coefficient]")
                k, *c = term
                if type(k) is not int:
                    raise AnstabError(f"simple {l}: exponent {k!r} is not an integer")
                if k in coeffs:
                    raise AnstabError(f"simple {l}: exponent {k} appears twice")
                try:
                    coeffs[k] = EC.from_json(c[0] if len(c) == 1 else c)
                except AnstabError as exc:
                    raise AnstabError(f"simple {l}, exponent {k}: {exc}") from None
            fams[label] = coeffs
        return LaurentCharge.build(fams)


def _on_positive_reals(v: EC) -> bool:
    """Whether v lies on R_{>0}; on a single atom both signs are symbolic."""
    return v.im_sign() == 0 and v.re_sign() > 0


def _check_admissible(heart: Heart, fams: Mapping[int, Laurent]) -> None:
    if fams.keys() != set(heart.labels):
        raise AnstabError(f"family labels {', '.join(map(str, sorted(fams)))} are not the "
                          f"heart's simples {', '.join(map(str, sorted(heart.labels)))}")
    bad = []
    for l in heart.labels:
        f = fams[l]
        if f.is_zero():
            bad.append((l, "identically zero"))
        elif not f.in_upper_semiclosed():
            bad.append((l, "leaves the semi-closed upper half plane near t=0"))
    if bad:
        msg = "; ".join(f"simple {l}: {why}" for l, why in bad)
        raise InadmissibleFamily(msg)


def _leading(fams: Mapping, key) -> dict:
    """The leading coefficients of nonzero families as ExactComplex values."""
    leads = {l: f.leading() for l, f in fams.items()}
    return expand(key, leads) if key else leads


def extract_limit(heart: Heart, zc: LaurentCharge):
    """Extract the limiting multi-scale object of an admissible family.

    Returns (msc, rotation): the applied total rotation r means every output
    charge carries the factor e^(-i*pi*r); dropping it recovers the
    unrotated leading coefficients.  Deterministic: the rotation branch
    always picks the earliest admissible schedule value.  Families that are
    not exactly on the heart's simples raise ``AnstabError`` (exit 2).
    """
    fams = dict(zc.families)
    _check_admissible(heart, fams)
    h, st, key, rot = heart, None, None, Fraction(0)
    for _round in range(len(ROTATION_SCHEDULE) + 1):
        leads = _leading(fams, key)
        if not any(_on_positive_reals(c) for c in leads.values()):
            vals = {l: fams[l].valuation() for l in h.labels}
            charges = [
                {l: leads[l] if vals[l] == v else EC.zero() for l in h.labels if vals[l] >= v}
                for v in sorted(set(vals.values()))
            ]
            return validate_msc(h, charges), rot
        if st is None:
            st = TiltState(heart, [fams])
            fams, key = st.charges[0], st.factors[0]
        # the nonzero indecomposable charges: strings are 0/1 vectors
        totals = (functools.reduce(operator.add, (fams[v] for m, v in zip(dv, h.ext.vertices) if m))
                  for dv in enumerate_strings(h.ext))
        leads = _leading(dict(enumerate(f for f in totals if not f.is_zero())), key).values()
        lam = next((lam for lam in ROTATION_SCHEDULE
                    if not any(_on_positive_reals(c.rotated(lam)) for c in leads)), None)
        if lam is None:
            raise LimitError(f"each schedule value, {ROTATION_SCHEDULE[0]} to {ROTATION_SCHEDULE[-1]}, "
                             "puts some indecomposable's leading coefficient on the positive real axis")
        st.act_from(0, lam, Fraction(0))
        rot += lam
        h, fams, key = st.heart, st.charges[0], st.factors[0]
    raise LimitError("rotation branch did not stabilize")


def plumbing_ray(m: MultiScaleStab) -> tuple[Heart, LaurentCharge]:
    """The symbolic ray Z_0 + t Z_1 + t^2 Z_2 + ... of a multi-scale object:
    each simple's charge at its deepest level, as the coefficient of t^depth.

    Feeding the result back through extract_limit recovers an equivalent
    multi-scale object.
    """
    fams = {}
    for l in m.top.labels:
        depth = max(i for i in range(m.L + 1) if l in m.labels(i))
        fams[l] = Laurent({depth: m.charge(depth)[l]})
    return m.top, LaurentCharge.build(fams)
