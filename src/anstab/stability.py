"""Stability conditions on finite hearts and the rescaled-rotation action.

A stability condition is a heart together with an exact central charge
sending every simple into the semi-closed upper half plane
H = {m e^(i*pi*phi) : m > 0, 0 < phi <= 1}.  The action of a complex number
lam multiplies the charge by e^(-i*pi*lam) and repairs the heart by forward
tilts: while some simple's charge has left H, tilt at a simple of minimal
phase (ties by label).  The charge of the result always equals
e^(-i*pi*lam) times the input charge as a map on K; lam = 1 realizes the
shift, purely imaginary lam rescales without touching the heart.

``TiltState`` is the one engine behind this repair loop: a mutable heart
(it extends ``hearts.HeartState``) that carries level charges, so a tilt
changes the classes, mutates the arrow set and moves the charges in one
step, and an even shift is a counter.  ``c_act`` is its zero-level case;
``multiscale`` runs it on nested level charges for the multi-scale action
and plumbing, and ``limits`` on Laurent families to rotate and retilt
degeneration limits.  The validated ``Heart`` is built only when someone
reads ``TiltState.heart``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .exact import (EC, AnstabError, ExactComplex, GaussianRational, expand, factor,
                    gauss_cmp_phase, rot_signs)
from .hearts import Heart, HeartState, KClass


class StabilityError(AnstabError):
    exit_code = 1


class WallHit(StabilityError):
    """A charge landed on the positive real axis and no tilt can absorb it."""


def _rational(q) -> Fraction:
    """An int or Fraction as a Fraction; floats and strings are not exact input."""
    if not isinstance(q, (int, Fraction)):
        raise TypeError(f"expected an int or Fraction, got {q!r}")
    return Fraction(q)


def as_lambda(lam) -> tuple[Fraction, Fraction]:
    """Coerce a rotation parameter (pair, Gaussian, rational) to exact (re, im)."""
    if isinstance(lam, tuple):
        return _rational(lam[0]), _rational(lam[1])
    if isinstance(lam, GaussianRational):
        return lam.re, lam.im
    return _rational(lam), Fraction(0)


def as_exact_value(v) -> ExactComplex:
    """Coerce a charge entry (exact, Gaussian, pair, rational)."""
    if isinstance(v, ExactComplex):
        return v
    return EC.rational(*as_lambda(v))


def charge_from_values(heart: Heart, values: Mapping[int, object]) -> dict[int, ExactComplex]:
    for l in values:
        if l not in heart.labels:
            raise StabilityError(f"charge given on label {l}, which is not a simple of the heart")
    out = {}
    for l in heart.labels:
        if l not in values:
            raise StabilityError(f"charge missing on simple {l}")
        out[l] = as_exact_value(values[l])
    return out


def label_from_key(key, what: str) -> int:
    """The label a JSON key names: the key must be its decimal string
    (``str(int(key)) == key``), so distinct keys name distinct simples."""
    try:
        if str(label := int(key)) == key:
            return label
    except (TypeError, ValueError):
        pass
    raise AnstabError(f"{what} key {key!r} is not the decimal string of a label")


def charge_from_json(data: Mapping, where: str = "") -> dict[int, ExactComplex]:
    """Decode a ``{"label": value}`` charge map; errors name ``where`` and the
    simple, and each key passes ``label_from_key``."""
    if not isinstance(data, Mapping):
        raise AnstabError(f"{where}charge is not a map from labels to values")
    out = {}
    for l, v in data.items():
        label = label_from_key(l, f"{where}charge")
        try:
            out[label] = EC.from_json(v)
        except ValueError as exc:
            raise AnstabError(f"{where}simple {l}: {exc}") from exc
    return out


@dataclass(frozen=True)
class StabilityCondition:
    heart: Heart
    charge: tuple[tuple[int, ExactComplex], ...]  # sorted by label

    def charge_dict(self) -> dict[int, ExactComplex]:
        return dict(self.charge)

    def value(self, gamma: KClass) -> ExactComplex:
        """The charge of an arbitrary K-class (Z-linear in the simple basis)."""
        v = class_value(self.heart, self.charge_dict(), gamma)
        if v is None:
            raise StabilityError("class outside the span of the simples")
        return v

    def to_json(self) -> dict:
        return {
            "heart": self.heart.to_json(),
            "charge": {str(l): v.to_json() for l, v in self.charge},
        }

    @staticmethod
    def from_json(data: dict) -> "StabilityCondition":
        return validate(Heart.from_json(data["heart"]), charge_from_json(data["charge"]))


def class_value(heart: Heart, charge: Mapping, gamma) -> ExactComplex | None:
    """The charge of the K-class gamma, Z-linear in the values ``charge``
    takes on the simples of ``heart``; None when gamma's coordinates are
    supported off the labels of ``charge``."""
    return coords_value(heart.coords(gamma), charge)


def coords_value(coords: Mapping[int, int], charge: Mapping) -> ExactComplex | None:
    """The sum of coordinate times charge value; None when a nonzero
    coordinate sits on a label without a value."""
    total = EC.zero()
    for l, x in sorted(coords.items()):
        if x:
            if l not in charge:
                return None
            total = total + charge[l] * x
    return total


def validate(heart: Heart, values: Mapping[int, object]) -> StabilityCondition:
    """Check the heart's classes form a Z-basis and the charge maps every
    simple into the semi-closed upper half plane."""
    heart.check_basis()
    charge = charge_from_values(heart, values)
    bad = []
    for l in heart.labels:
        v = charge[l]
        if v.is_zero():
            bad.append((l, "zero charge"))
        elif not v.in_upper_semiclosed():
            bad.append((l, "outside the semi-closed upper half plane"))
    if bad:
        msg = "; ".join(f"simple {l}: {why}" for l, why in bad)
        raise StabilityError(f"invalid central charge: {msg}")
    return StabilityCondition(heart, tuple(sorted(charge.items())))


class TiltState(HeartState):
    """The one settle/tilt engine: a ``hearts.HeartState`` carrying nested
    level charges.

    ``charges[i]`` maps the labels N_i of level i to their values, N_0 (all
    simples) > N_1 > ... > N_L (the zero-level case is a plain stability
    condition).
    Values are ``ExactComplex`` charges or, for degeneration limits,
    ``exact.Laurent`` families with ExactComplex coefficients; the engine
    needs ``+``, unary ``-``, ``is_zero``, ``in_upper_semiclosed``,
    ``cmp_phase`` and ``rotated`` (rotations, ``act_from``).  A level that
    ``exact.factor`` accepts is kept factored: ``factors[i]`` is its key
    (rot, scale, D), and it holds Gaussian values (``exact.GaussianRational``
    with int parts) or integer families (``exact.FactoredFamily``).  A
    rotation moves the key and turns each value, and a tilt is integer
    addition.  ``settle`` picks the half-plane test and the phase order once
    from the key and the value kind: ``rot_signs(rot).in_h`` (signs, then
    the key's double filter, then intervals) and the integer cross product
    ``exact.gauss_cmp_phase``, or the families' integer readings of the
    ``Laurent`` rules.  ``level(i)`` reads the values back through
    ``exact.expand`` at the engine's exits.

    ``heart`` is the input heart until the first tilt, then ``freeze()``,
    kept until the next tilt.  A tilt at s is ``HeartState.tilt`` plus the
    value of s added to the labels that gain a copy of S_s, on every level
    holding s; an even rotation only moves ``shift``.  Settling
    forward-tilts at the quotient simple of minimal phase (ties by label)
    until every quotient value lies in H, against one cap of 80n^2 + 16.
    """

    __slots__ = ("_heart", "factors", "charges", "cap")

    def __init__(self, heart: Heart, charges):
        super().__init__(heart)
        self._heart = heart
        levels_factored = [factor(ch) or (None, ch) for ch in charges]
        self.factors = [key for key, _ in levels_factored]
        self.charges = [dict(ch) for _, ch in levels_factored]
        n = heart.rank()
        self.cap = 80 * n * n + 16

    @property
    def heart(self) -> Heart:
        if self._heart is None:
            self._heart = self.freeze()
        return self._heart

    @property
    def L(self) -> int:
        return len(self.charges) - 1

    def lset(self, i: int):
        """N_i, the labels level i's charge is defined on; empty below L."""
        return self.charges[i].keys() if i <= self.L else frozenset()

    def tilt(self, s: int, direction: int) -> list[int]:
        gain = super().tilt(s, direction)
        self._heart = None
        for ch in self.charges:
            if s in ch:
                v = ch[s]
                for t in gain:
                    if t in ch:
                        ch[t] = ch[t] + v
                ch[s] = -v
            elif any(t in ch for t in gain):
                raise AssertionError("tilt at a simple outside a level would change its lattice")
        return gain

    def rotate_from(self, i0: int, rot: Fraction, scale: Fraction) -> None:
        """Multiply levels i0..L by e^(-i*pi*rot) * e^(pi*scale)."""
        for i in range(i0, self.L + 1):
            if self.factors[i]:  # the key keeps its rot in [0, 1/2), as atoms do
                r, s, d = self.factors[i]
                turns, r = divmod(r + rot, Fraction(1, 2))
                self.factors[i] = (r, s + scale, d)
                self.charges[i] = {l: v.times_minus_i(turns) for l, v in self.charges[i].items()}
            else:
                self.charges[i] = {l: v.rotated(rot, scale) for l, v in self.charges[i].items()}

    def level(self, i: int) -> dict:
        """The values of level i, expanded on a factored level."""
        if not self.factors[i]:
            return dict(self.charges[i])
        return expand(self.factors[i], self.charges[i])

    def merge(self, j: int) -> None:
        """Merge levels j-1 and j: the level-j quotient joins level j-1."""
        for i in (j - 1, j):
            self.charges[i], self.factors[i] = self.level(i), None
        for l in sorted(self.lset(j) - self.lset(j + 1)):
            self.charges[j - 1][l] = self.charges[j][l]
        del self.charges[j], self.factors[j]

    def depth_of(self, s: int) -> int:
        return max((k for k in range(1, self.L + 1) if s in self.charges[k]), default=0)

    def protected_tilt(self, s: int) -> list[tuple[int, int]]:
        """Forward tilt of the depth(s)-quotient at s, preserving all deeper
        levels; returns the flat elementary tilt word performed.

        Deeper simples extending s are removed first by tilting along the
        chains inside the next level (each such tilt is itself protected),
        then the tilt at s happens, then the chain tilts are reversed.  The
        net effect on every level below depth(s) is the identity, which is
        asserted.
        """
        d = self.depth_of(s)
        v = self.lset(d + 1)
        if not v:
            self.tilt(s, +1)
            return [(s, +1)]
        snapshot = {l: self.classes[l] for l in v}
        word: list[tuple[int, int]] = []
        guard = 0
        while True:
            extenders = sorted(l for l in v if self.ext1(l, s))
            if not extenders:
                break
            guard += 1
            if guard > self.cap:
                raise WallHit("convenient-representative chains did not terminate")
            word.extend(self.protected_tilt(extenders[0]))
        self.tilt(s, +1)
        undo = [(l, -dd) for (l, dd) in reversed(word)]
        for l, dd in undo:
            self.tilt(l, dd)
        if {l: self.classes[l] for l in v} != snapshot:
            raise AssertionError("protected tilt failed to restore deeper levels")
        return word + [(s, +1)] + undo

    def settle(self, i: int) -> None:
        """Re-establish half-plane validity of quotients at levels >= i."""
        if i < self.L:
            self.settle(i + 1)
        quotient = sorted(self.lset(i) - self.lset(i + 1))
        charge, f = self.charges[i], self.factors[i]
        rs = f and rot_signs(f[0])  # the key's constants, fetched once
        if not f:
            test, cmp = (lambda v: v.in_upper_semiclosed()), (lambda a, b: a.cmp_phase(b))
        elif isinstance(next(iter(charge.values())), GaussianRational):
            test, cmp = rs.in_h, gauss_cmp_phase
        else:  # integer families
            test, cmp = (lambda v: v.in_h(rs)), (lambda a, b: a.cmp_phase(b, rs))
        seen = {}  # label -> (value, in H); a tilt rebinds only the values it changes

        def in_h(l: int) -> bool:
            v = charge[l]
            if l not in seen or seen[l][0] is not v:
                seen[l] = v, test(v)
            return seen[l][1]

        steps = 0
        while True:
            offenders = [l for l in quotient if not in_h(l)]
            if not offenders:
                return
            for l in offenders:
                if charge[l].is_zero():
                    raise StabilityError(
                        f"charge of simple {l} degenerated to zero at level {i}"
                    )
            steps += 1
            if steps > self.cap:
                raise WallHit(f"tilt loop at level {i} did not terminate")
            best = offenders[0]  # offenders are sorted: ties keep the smaller label
            for l in offenders[1:]:
                if cmp(charge[l], charge[best]) < 0:
                    best = l
            self.protected_tilt(best)

    def act_from(self, i0: int, re: Fraction, im: Fraction) -> None:
        """Apply the action by re + i*im to levels i0..L, in unit chunks.

        One settle pass realizes the torsion-free tilt of a rotation with
        real part at most one half-turn; larger rotations decompose by the
        action axiom.  The even rotation part at the top only adds to
        ``shift``.
        """
        even = 2 * (re // 2)
        residual = re - even
        if im:
            self.rotate_from(i0, Fraction(0), im)
        if even and i0 == 0:
            self.shift += int(even)
            self._heart = None
        while residual > 0:
            step = min(residual, Fraction(1))
            self.rotate_from(i0, step, Fraction(0))
            self.settle(i0)
            residual -= step


def c_act(sigma: StabilityCondition, lam) -> StabilityCondition:
    """The action of lam: rotate the charge by e^(-i*pi*lam) and retilt.

    The zero-level case of the tilt engine: ``TiltState.act_from`` rotates
    in real-part chunks of at most one half-turn and settles after each.
    """
    st = TiltState(sigma.heart, [sigma.charge_dict()])
    st.act_from(0, *as_lambda(lam))
    return StabilityCondition(st.heart, tuple(sorted(st.level(0).items())))

