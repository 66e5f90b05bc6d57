"""Multi-scale stability conditions: nested hearts with per-level charges.

A multi-scale object is a top heart A_0 together with charges Z_0, ..., Z_L,
where Z_i is defined on the simples of level i and vanishes exactly on those
of level i+1, so the label sets N_1 > N_2 > ... > N_L are the keys of the
deeper charges.  Each deeper level is the Serre subcategory generated by the
simples its predecessor's charge kills; per level the quotient charge must
land in the semi-closed upper half plane (on the nose at level 0, up to a
complex rescaling per deeper level, mirroring the equivalence relation).
``validate_msc`` stores the canonical representative of each deeper level,
the one whose quotient values lie in the half plane, and every operation
returns such objects, so none rescales again.

The two structural operations are the rescaled-rotation action (all charges
multiply by e^(-i*pi*lam); tilts at deeper simples and lifted tilts at
quotient simples repair the hearts level by level) and plumbing (the action
by tau on the sub-object below a level passage followed by merging the two
levels with charge Z_{j-1} + e^(-i*pi*tau) Z_j on the disjoint simple
decomposition).  Lifted tilts use convenient representatives: tilt forward
along the chains inside the deeper subset, tilt at the quotient simple, tilt
backward along the chains; the deeper data returns to its starting state.
Both run on the tilt engine ``stability.TiltState``: one state and freeze
per result, and the defect runs both orders on two states.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .exact import AnstabError, ExactComplex
from .hearts import Heart, canonical_form
from .klattice import simple_twist_data
from .stability import (
    TiltState,
    as_exact_value,
    as_lambda,
    charge_from_json,
    class_value,
    coords_value,
)

INFTY = None  # formal -i*infinity plumbing entry


class MscError(AnstabError):
    exit_code = 1


LevelCharge = tuple[tuple[int, ExactComplex], ...]


@dataclass(frozen=True)
class MultiScaleStab:
    top: Heart
    charges: tuple[LevelCharge, ...]   # length L+1; keys of charges[i] = N_i

    @cached_property
    def _label_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(l for l, _ in ch) for ch in self.charges)

    @property
    def L(self) -> int:
        return len(self.charges) - 1

    @property
    def level_sets(self) -> tuple[frozenset[int], ...]:
        """N_1 > ... > N_L."""
        return self._label_sets[1:]

    def labels(self, i: int) -> frozenset[int]:
        return self._label_sets[i] if i <= self.L else frozenset()

    def quotient_labels(self, i: int) -> frozenset[int]:
        return self.labels(i) - self.labels(i + 1)

    def charge(self, i: int) -> dict[int, ExactComplex]:
        return dict(self.charges[i])

    def level_components(self, i: int) -> list[frozenset[int]]:
        return self.top.ext.components(self.labels(i))

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "top_heart": self.top.to_json(),
            "levels": [
                {
                    "simples": sorted(self.labels(i)),
                    "charge": {str(l): v.to_json() for l, v in self.charges[i]},
                }
                for i in range(self.L + 1)
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "MultiScaleStab":
        top = Heart.from_json(data["top_heart"])
        charges = [
            charge_from_json(lvl["charge"], f"level {i} ")
            for i, lvl in enumerate(data["levels"])
        ]
        m = validate_msc(top, charges)
        for i, lvl in enumerate(data["levels"]):
            if "simples" in lvl:  # optional, but when given it must match
                got, want = lvl["simples"], sorted(m.labels(i))
                if not (isinstance(got, list) and all(type(x) is int for x in got)
                        and sorted(got) == want):
                    raise AnstabError(
                        f"level {i} simples {got!r} are not the labels {want} "
                        "its charge is defined on"
                    )
        return m


# ---------------------------------------------------------------------------
# Validation


def _h_window_label(values: Sequence[tuple[int, ExactComplex]]) -> int | None:
    """A label whose rotation-to-the-negative-axis puts the whole level in H.

    Returns the first label a such that every value b satisfies
    phase(b) - phase(a) in (-1, 0]: no conj(v_a) * v_b lies in H, as
    ``cross_signs`` decides.  None when no common rotation exists.
    """
    ch, in_h = dict(values), ((1, 0), (0, -1))  # Im > 0, or Im = 0 > Re
    return next((a for a in ch
                 if not any(ch[a].cross_signs(ch[b]) in in_h for b in ch if b != a)), None)


def validate_msc(top: Heart, level_charges: Sequence[Mapping[int, object]]) -> MultiScaleStab:
    """Validate the top heart's basis and the level charges, and assemble the
    multi-scale object as its canonical representative.

    The vanishing chain is derived from the zero sets: N_{i+1} is where Z_i
    vanishes, and charges[i+1] must be given exactly on N_{i+1}.  Level 0 must
    be honestly half-plane valued; deeper levels only up to one rotation,
    which ``normalize_representative`` applies.
    """
    top.check_basis()
    if not level_charges:
        raise MscError("at least the level-0 charge is required")
    charges = [
        {int(l): as_exact_value(v) for l, v in lc.items()} for lc in level_charges
    ]
    expected = frozenset(top.labels)
    for i, ch in enumerate(charges):
        if frozenset(ch) != expected:
            raise MscError(
                f"level {i} charge must be defined exactly on {sorted(expected)}"
            )
        zero = frozenset(l for l, v in ch.items() if v.is_zero())
        if zero == expected:
            raise MscError(f"level {i} charge is identically zero")
        expected = zero
    if expected:
        raise MscError(
            f"deepest level still vanishes on {sorted(expected)}: a further "
            "level charge is missing"
        )
    m = MultiScaleStab(top, tuple(tuple(sorted(ch.items())) for ch in charges))
    for l in sorted(m.quotient_labels(0)):
        if not charges[0][l].in_upper_semiclosed():
            raise MscError(
                f"level 0 simple {l} maps outside the semi-closed upper half plane"
            )
    return normalize_representative(m)


def type_rho(m: MultiScaleStab) -> list[tuple[int, ...]]:
    """Component sizes per level, largest first."""
    return [
        tuple(sorted((len(c) for c in m.level_components(i)), reverse=True))
        for i in range(1, m.L + 1)
    ]


def normalize_representative(m: MultiScaleStab) -> MultiScaleStab:
    """Rotate each deeper level into the semi-closed upper half plane: the
    canonical representative, which ``validate_msc`` stores.

    A level whose quotient values already sit in the half plane is left
    alone without a window search, which is sound: the label of largest
    phase is then a window label.  The rest are multiplied by -conj(v_a) for
    the window label a, which lands a on the negative real axis, or raise
    MscError when there is none.  Level 0 is never rescaled.
    """
    charges = list(m.charges)
    for i in range(1, m.L + 1):
        ch = m.charge(i)
        quot = [(l, ch[l]) for l in sorted(m.quotient_labels(i))]
        if all(v.in_upper_semiclosed() for _, v in quot):
            continue
        a = _h_window_label(quot)
        if a is None:
            raise MscError(
                f"level {i} charge admits no rotation into the semi-closed "
                "upper half plane"
            )
        scal = -(ch[a].conj())
        charges[i] = tuple((l, scal * v) for l, v in charges[i])
    return MultiScaleStab(m.top, tuple(charges))


# ---------------------------------------------------------------------------
# Equivalence


def _label_correspondence(h1: Heart, h2: Heart) -> dict[int, int] | None:
    if canonical_form(h1) != canonical_form(h2):
        return None
    by_class = {c: l for l, c in zip(h2.labels, h2.classes)}
    return {l: by_class[c] for l, c in zip(h1.labels, h1.classes)}


def _proportional(pairs: list[tuple[ExactComplex, ExactComplex]]) -> bool:
    """True when the second coordinates are one common multiple of the first."""
    ref = next(((a, b) for a, b in pairs if not a.is_zero()), None)
    if ref is None:
        return all(b.is_zero() for _, b in pairs)
    ra, rb = ref
    if rb.is_zero():
        return False
    if ra == rb:  # the common multiple is 1
        return all(a == b for a, b in pairs)
    for a, b in pairs:
        if a.is_zero() != b.is_zero():
            return False
        if not (ra * b == rb * a):
            return False
    return True


def _level_value(m: MultiScaleStab, i: int, cls) -> ExactComplex | None:
    """The level-i charge on an ambient class lying in the level-i lattice."""
    return class_value(m.top, m.charge(i), cls)


def _compare_levels(m1: MultiScaleStab, m2: MultiScaleStab, projective0: bool) -> bool:
    """Equivalence on the faithful shadow: equal vanishing sublattice chains
    and per-level quotient charges agreeing as linear maps (up to one scalar
    per deeper level, and at level 0 on the nose unless projective).

    Representatives may differ by tilts inside the vanishing subcategories;
    such tilts change the top heart but none of the data compared here.
    Everything is read off one table: m1's simple classes in m2's basis.
    A lattice spanned by part of a basis is saturated, so two level lattices
    are equal when they have equal rank and m1's rows are supported on m2's
    level set.
    """
    if m1.L != m2.L or m1.top.rank() != m2.top.rank():
        return False
    if (m1.top.labels, m1.top.classes) == (m2.top.labels, m2.top.classes):
        rows = {l: {l: 1} for l in m1.top.labels}  # the coordinates of a basis in itself
    else:
        rows = {l: m2.top.coords(m1.top.cls(l)) for l in m1.top.labels}
    for i in range(m1.L + 1):
        n1, n2 = m1.labels(i), m2.labels(i)
        if len(n1) != len(n2):
            return False
        if any(x and k not in n2 for l in n1 for k, x in rows[l].items()):
            return False
        ch1, ch2 = m1.charge(i), m2.charge(i)
        pairs = [(ch1[l], coords_value(rows[l], ch2)) for l in sorted(n1)]
        if i == 0 and not projective0:
            if any(not (a == b) for a, b in pairs):
                return False
        elif not _proportional(pairs):
            return False
    # level-0 quotient hearts must agree on the nose: modulo the level-1
    # lattice each quotient simple of m1 is a distinct quotient simple of m2
    # (deeper hearts are free to move by the projective action)
    q2 = m2.quotient_labels(0)
    hits = set()
    for l in m1.quotient_labels(0):
        row = {k: x for k, x in rows[l].items() if x and k in q2}
        if list(row.values()) != [1] or row.keys() & hits:
            return False
        hits |= row.keys()
    return True


def equivalent(m1: MultiScaleStab, m2: MultiScaleStab) -> bool:
    """Equal vanishing chains; quotient charges equal at level 0 and equal up
    to one nonzero scalar per deeper level."""
    return _compare_levels(m1, m2, projective0=False)


def projectively_equivalent(m1: MultiScaleStab, m2: MultiScaleStab) -> bool:
    return _compare_levels(m1, m2, projective0=True)


# ---------------------------------------------------------------------------
# The action and plumbing


def _state(m: MultiScaleStab) -> TiltState:
    return TiltState(m.top, [m.charge(i) for i in range(m.L + 1)])


def _freeze(st: TiltState) -> MultiScaleStab:
    return MultiScaleStab(
        st.heart, tuple(tuple(sorted(st.level(i).items())) for i in range(st.L + 1))
    )


def c_act_msc(m: MultiScaleStab, lam) -> MultiScaleStab:
    """Multiply every level charge by e^(-i*pi*lam) and repair the hearts.

    The vanishing chain is preserved; deeper levels are settled first, then
    lifted tilts fix the quotients, so every deeper quotient stays in the
    half plane and the result is again the canonical representative.
    """
    st = _state(m)
    st.act_from(0, *as_lambda(lam))
    return _freeze(st)


def plumb(m: MultiScaleStab, taus: Sequence) -> MultiScaleStab:
    """Plumb the level passages with parameters tau (None = no plumbing).

    Processing runs from the deepest finite entry upward: rotate the charges
    at and below the passage by e^(-i*pi*tau_j), settle the hearts, then
    merge levels j-1 and j with the disjoint-decomposition charge.  Finite
    entries must have negative imaginary part.
    """
    if len(taus) != m.L:
        raise MscError(f"expected {m.L} plumbing entries, got {len(taus)}")
    finite = []
    for j, tau in enumerate(taus, start=1):
        if tau is INFTY:
            continue
        re, im = as_lambda(tau)
        if im >= 0:
            raise MscError(f"plumbing entry {j} must have negative imaginary part")
        finite.append((j, re, im))
    st = _state(m)
    _plumb_state(st, finite)
    return _freeze(st)


def _plumb_state(st: TiltState, finite: list[tuple[int, Fraction, Fraction]]) -> None:
    """Plumb the passages (j, re, im) of ``st``, deepest first."""
    for j, re, im in sorted(finite, reverse=True):
        st.act_from(j, re, im)
        st.merge(j)
    # plumbing valid inputs always yields a valid multi-scale object
    top = st.level(0)
    for l in sorted(st.lset(0) - st.lset(1)):
        if not top[l].in_upper_semiclosed():
            raise AssertionError(f"plumbed charge left the half plane on simple {l}")


# ---------------------------------------------------------------------------
# Commutation defect


def _complex_text(re: Fraction, im: Fraction) -> str:
    return f"{re}{'-' if im < 0 else '+'}{abs(im)}i"


def is_intermediate(h: Heart, base: Heart) -> bool:
    """Every simple class is a nonnegative or nonpositive base combination."""
    for c in h.classes:
        x = base.coords(c).values()
        if min(x) < 0 < max(x):
            return False
    return True


@dataclass(frozen=True)
class DefectResult:
    sigma_tilde: MultiScaleStab   # lam . (tau * m)
    sigma_hat: MultiScaleStab     # tau * (lam . m)
    max_simple_defect: float
    bound: float
    within_bound: bool
    per_simple: tuple[tuple[int, float], ...]


def commutation_defect(m: MultiScaleStab, lam, tau, tol: float = 1e-9) -> DefectResult:
    """Compare lam.(tau*m) against tau*(lam.m) on the level-0 simples.

    Both orders run on states of m, whose deeper quotient is in H already
    (``validate_msc`` stores it so, and settling keeps it there).
    Requires one level below zero and 0 <= Re(lam), 0 <= Re(tau),
    Re(lam + tau) < 1.  The defect is measured against the coarse bound
    ell * |e^(-i*pi*(lam+tau))| * sum of the lower-level simple masses, with
    ell the number of indecomposable classes of the level-0 quotient, k(k+1)/2
    per A_k component.  A float estimate that overflows raises MscError
    naming lam and tau.
    """
    if m.L != 1:
        raise MscError("the commutation defect is defined for one level below zero")
    lre, lim_ = as_lambda(lam)
    tre, tim = as_lambda(tau)
    if lre < 0 or tre < 0 or lre + tre >= 1:
        raise MscError("need 0 <= Re(lam), 0 <= Re(tau), Re(lam + tau) < 1")
    if tim >= 0:
        raise MscError("tau must have negative imaginary part")
    tilde, hat = _state(m), _state(m)
    _plumb_state(tilde, [(1, tre, tim)])
    tilde.act_from(0, lre, lim_)
    hat.act_from(0, lre, lim_)
    _plumb_state(hat, [(1, tre, tim)])
    sigma_tilde, sigma_hat = _freeze(tilde), _freeze(hat)
    if not all(is_intermediate(s.top, m.top) for s in (sigma_tilde, sigma_hat)):
        raise AssertionError("defect hearts must be intermediate for the base heart")
    cht, chh = sigma_tilde.charge(0), sigma_hat.charge(0)
    per = tuple(
        (l, abs(class_value(sigma_tilde.top, cht, c) - class_value(sigma_hat.top, chh, c)))
        for l, c in sorted(zip(m.top.labels, m.top.classes))
    )
    worst = max(d for _, d in per)
    ell = sum(k * (k + 1) // 2 for k in map(len, m.top.ext.components(m.quotient_labels(0))))
    try:
        scale = math.exp(math.pi * (lim_ + tim))
    except OverflowError:
        scale = math.inf
    lower = sum(abs(v) for l, v in m.charge(1).items())
    bound = ell * scale * lower
    if not all(math.isfinite(x) for x in (bound, *(d for _, d in per))):
        raise MscError(f"the defect at lam = {_complex_text(lre, lim_)}, "
                       f"tau = {_complex_text(tre, tim)} leaves the float range")
    within = worst <= bound * (1 + tol) + tol
    return DefectResult(sigma_tilde, sigma_hat, worst, bound, within, per)


# ---------------------------------------------------------------------------
# Neighborhoods and charts


@dataclass(frozen=True)
class NeighborhoodSpec:
    delta: tuple[float, ...]               # per passage 1..L
    eps: float = 1e-6                      # radius per merged interval


@dataclass(frozen=True)
class NeighborhoodVerdict:
    accepted: bool
    reason: str
    tau: tuple | None = None               # per passage: (re, im) floats or None
    distances: tuple[tuple[tuple[int, ...], float], ...] = ()


def in_neighborhood(
    candidate: MultiScaleStab, base: MultiScaleStab, spec: NeighborhoodSpec
) -> NeighborhoodVerdict:
    """Decide membership of candidate in the plumbing neighborhood of base.

    The witness tau is recovered per plumbed passage from the ratio of the
    candidate charge to the base level charge (principal logarithm with
    negative imaginary part; the real part carries the documented
    translation ambiguity, normalized into [0, 2)).  Both objects must live
    on the same label set; both are canonical representatives already, so
    they are compared as they are.
    """
    if set(candidate.top.labels) != set(base.top.labels):
        return NeighborhoodVerdict(False, "different underlying label sets")
    if len(spec.delta) != base.L:
        raise MscError("spec.delta must have one entry per base passage")
    base_chain = [base.labels(i) for i in range(base.L + 1)]
    cand_chain = [candidate.labels(i) for i in range(candidate.L + 1)]
    positions = []
    for ncand in cand_chain:
        if ncand not in base_chain:
            return NeighborhoodVerdict(
                False, "vanishing chain is not an undegeneration of the base chain"
            )
        positions.append(base_chain.index(ncand))
    # candidate level holding base level j
    def cand_level_of(j: int) -> int:
        return max(i for i, p in enumerate(positions) if p <= j)

    # cumulative factors at each base level
    cums: dict[int, complex] = {}
    for j in range(base.L + 1):
        if j in positions:
            cums[j] = 1.0 + 0.0j
            continue
        i = cand_level_of(j)
        cand_charge = candidate.charge(i)
        pairs = []
        for l in sorted(base.labels(j) - base.labels(j + 1)):
            cval = class_value(candidate.top, cand_charge, base.top.cls(l))
            if cval is None:
                return NeighborhoodVerdict(
                    False, f"base level {j} lattice not contained in candidate level {i}"
                )
            pairs.append((base.charge(j)[l], cval))
        if not _proportional(pairs):
            return NeighborhoodVerdict(
                False, f"candidate charge is not proportional to the base at level {j}"
            )
        bval, cval = next((a, b) for a, b in pairs if not a.is_zero())
        cums[j] = complex(cval) / complex(bval)
    taus: list = []
    for p in range(1, base.L + 1):
        if p in positions:
            taus.append(INFTY)
            continue
        ratio = cums[p] / cums[p - 1]
        r = abs(ratio)
        if r == 0.0:  # the float witness cannot take its logarithm
            raise MscError(f"plumbing scale at passage {p} underflows to 0 in floating point")
        if r >= spec.delta[p - 1]:
            return NeighborhoodVerdict(
                False, f"plumbing scale {r:.3g} at passage {p} exceeds delta"
            )
        if r >= 1.0:
            return NeighborhoodVerdict(
                False, f"passage {p} ratio is not contracting"
            )
        tau_re = (-cmath.phase(ratio) / math.pi) % 2.0
        tau_im = math.log(r) / math.pi
        taus.append((Fraction(tau_re).limit_denominator(1 << 40),
                     Fraction(tau_im).limit_denominator(1 << 40)))
    recon = plumb(base, taus)
    corr = _label_correspondence(recon.top, candidate.top)
    if corr is None:
        return NeighborhoodVerdict(
            False, "plumbed base does not match the candidate heart"
        )
    distances = []
    for i in range(candidate.L + 1):
        interval = tuple(j for j in range(base.L + 1) if cand_level_of(j) == i)
        total = 0.0
        chc = candidate.charge(i)
        chr_ = recon.charge(i)
        for l in sorted(recon.labels(i) - recon.labels(i + 1)):
            diff = chr_[l] - chc[corr[l]]
            total += abs(diff) ** 2
        dist = math.sqrt(total)
        distances.append((interval, dist))
        if dist > spec.eps:
            return NeighborhoodVerdict(
                False,
                f"quotient charge distance {dist:.3g} at interval {interval} "
                "exceeds epsilon",
                tuple(taus),
                tuple(distances),
            )
    return NeighborhoodVerdict(True, "plumbing witness found", tuple(taus), tuple(distances))


@dataclass(frozen=True)
class ChartCoords:
    t: tuple[complex, ...]
    pivots: tuple[int, ...]
    nonpivot: tuple[tuple[int, tuple[tuple[int, complex], ...]], ...]
    top_values: tuple[tuple[int, complex], ...]


def chart_coords(
    point: MultiScaleStab, base: MultiScaleStab, spec: NeighborhoodSpec | None = None
) -> ChartCoords:
    """Chart coordinates of a point near base: t_i = e^(-2*pi*i*tau_i/ell_i)
    from the plumbing witness, pivot-normalized deeper charges, and the
    level-0 charge values."""
    if spec is None:
        spec = NeighborhoodSpec(delta=(1.0,) * base.L, eps=float("inf"))
    verdict = in_neighborhood(point, base, spec)
    if not verdict.accepted:
        raise MscError(f"point is outside the base neighborhood: {verdict.reason}")
    ells = [lvl.ell for lvl in simple_twist_data(type_rho(base)).levels]
    ts = []
    for (tau, ell) in zip(verdict.tau, ells):
        if tau is INFTY:
            ts.append(0j)
        else:
            z = complex(Fraction(tau[0]), 0) + 1j * complex(Fraction(tau[1]), 0)
            ts.append(cmath.exp(-2j * cmath.pi * z / ell))
    pivots = []
    nonpivot = []
    for i in range(1, point.L + 1):
        ch = point.charge(i)
        quo = sorted(point.quotient_labels(i))
        pivot = next(l for l in quo if not ch[l].is_zero())
        pivots.append(pivot)
        pv = complex(ch[pivot])
        nonpivot.append(
            (i, tuple((l, complex(ch[l]) / pv) for l in quo if l != pivot))
        )
    top_vals = tuple(
        (l, complex(point.charge(0)[l])) for l in sorted(point.quotient_labels(0))
    )
    return ChartCoords(tuple(ts), tuple(pivots), tuple(nonpivot), top_vals)
