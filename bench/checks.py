"""Answer checks that share no code with the program's exact kernel.

Charges are read from the program's data (atoms ``(rot, scale, a + b*i)``
standing for ``e^(-i*pi*rot) * e^(pi*scale) * (a + b*i)``) and evaluated
here with mpmath at high precision.  K-classes are handled with this file's
own rational linear algebra, tilts with this file's own K-class rule and
quiver mutation, and the labeled census with its own counting recursion.
Nothing is compared against stored output of the program.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from functools import lru_cache

import mpmath

DPS = 60
# Values are sums of a few algebraic numbers of moderate size, so anything
# below this (relative to the atoms' magnitude) is a zero at DPS digits.
ZERO_TOL = mpmath.mpf(10) ** (-(DPS - 15))


class CheckError(AssertionError):
    """An output of the program failed an independent check."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def precise(fn):
    """Run a check with mpmath at DPS digits throughout."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with mpmath.workdps(DPS):
            return fn(*args, **kwargs)

    return wrapper


# ---------------------------------------------------------------------------
# Numbers


def mp_atom(rot: Fraction, scale: Fraction, re: Fraction, im: Fraction):
    with mpmath.workdps(DPS):
        r = mpmath.mpf(rot.numerator) / rot.denominator
        s = mpmath.mpf(scale.numerator) / scale.denominator
        c = mpmath.mpc(
            mpmath.mpf(re.numerator) / re.denominator,
            mpmath.mpf(im.numerator) / im.denominator,
        )
        return mpmath.exp(mpmath.pi * s) * mpmath.expjpi(-r) * c


def mp_value(v):
    """An ExactComplex (or a charge JSON entry) as an mpc with its size scale.

    Returns (value, magnitude) where magnitude bounds the atoms' sizes, so
    that zero tests can be made relative to it.
    """
    if isinstance(v, list):  # JSON Gaussian [a, b, c, d]
        atoms = [(Fraction(0), Fraction(0), Fraction(v[0], v[1]), Fraction(v[2], v[3]))]
    elif isinstance(v, dict) and "gauss" in v:  # JSON single atom
        g = v["gauss"]
        atoms = [(Fraction(*v["rot"]), Fraction(*v["scale"]),
                  Fraction(g[0], g[1]), Fraction(g[2], g[3]))]
    elif isinstance(v, dict):  # JSON float view of a multi-atom value
        atoms = [(Fraction(0), Fraction(0), Fraction(v["re"]), Fraction(v["im"]))]
    else:
        atoms = [(r, s, c.re, c.im) for r, s, c in v.atoms]
    with mpmath.workdps(DPS):
        total = mpmath.mpc(0)
        size = mpmath.mpf(0)
        for a in atoms:
            z = mp_atom(*a)
            total += z
            size += abs(z)
        return total, size


def is_zero(z, size) -> bool:
    return abs(z) <= ZERO_TOL * (1 + size)


def in_upper_semiclosed(z, size) -> bool:
    """m e^(i*pi*phi) with m > 0 and 0 < phi <= 1."""
    if is_zero(z, size):
        return False
    tol = ZERO_TOL * (1 + size)
    if z.imag > tol:
        return True
    if z.imag < -tol:
        return False
    return z.real < 0


def close(a, b, size) -> bool:
    return abs(a - b) <= ZERO_TOL * (1 + size)


def rotation(lam_re: Fraction, lam_im: Fraction):
    """e^(-i*pi*lam) for lam = lam_re + i*lam_im."""
    return mp_atom(lam_re, lam_im, Fraction(1), Fraction(0))


# ---------------------------------------------------------------------------
# Rational linear algebra on K-classes


def solve(rows, target):
    """x with sum_l x[l] * rows[l] == target, by Gauss-Jordan over Q."""
    n = len(rows)
    dim = len(target)
    # columns are the rows; augment with the target
    m = [[Fraction(rows[j][i]) for j in range(n)] + [Fraction(target[i])] for i in range(dim)]
    piv_cols = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, dim) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(dim):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, dim):
        require(m[i][n] == 0, "class outside the span of the simples")
    x = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        x[c] = m[i][n]
    return x


def inverse(rows):
    """x_k with sum_l x_k[l] * rows[l] == e_k for every k (rows a basis)."""
    n = len(rows)
    # [A | I] with A's columns the rows; Gauss-Jordan turns it into [I | A^-1]
    m = [[Fraction(rows[j][i]) for j in range(n)] + [Fraction(int(i == k)) for k in range(n)]
         for i in range(n)]
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        require(p is not None, "simple classes are not a basis of K")
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [[m[l][n + k] for l in range(n)] for k in range(n)]


def combine(coeffs, values):
    """sum_l coeffs[l] * values[l] for (mpc value, size) pairs; rational coeffs."""
    total, size = mpmath.mpc(0), mpmath.mpf(0)
    for x, (v, s) in zip(coeffs, values):
        if x:
            total += v * (mpmath.mpf(x.numerator) / x.denominator)
            size += s * abs(x)
    return total, size


def class_value(classes, values, gamma):
    """The charge of the K-class gamma, given simple classes and their values."""
    return combine(solve(classes, gamma), values)


class ChargeMap:
    """A charge given on a Z-basis of K, read as a map on all of K.

    One inversion of the basis, which must be a Z-basis, gives the charge of
    each standard basis vector; any class's charge is then a dot product.
    """

    def __init__(self, classes, values):
        inv = inverse(classes)
        require(all(x.denominator == 1 for row in inv for x in row),
                "simple classes are not a Z-basis of K")
        self.on_basis = [combine(x, values) for x in inv]

    def value(self, gamma):
        return combine(gamma, self.on_basis)


# ---------------------------------------------------------------------------
# The action: stability conditions and multi-scale objects


def check_rotated_charge(in_classes, in_values, out_classes, out_values, lam) -> None:
    """Z_out = e^(-i*pi*lam) * Z_in as maps on K, read on the standard basis."""
    rot = rotation(*lam)
    before = ChargeMap(in_classes, in_values).on_basis
    after = ChargeMap(out_classes, out_values).on_basis
    for k, ((zi, si), (zo, so)) in enumerate(zip(before, after)):
        require(close(zo, rot * zi, so + abs(rot) * si),
                f"rotated charge differs from e^(-i*pi*lam) Z on e_{k + 1}")


@precise
def check_stability_result(sigma, lam, out) -> None:
    """c_act(sigma, lam): simples in H, charge rotated by e^(-i*pi*lam)."""
    out_values = [mp_value(v) for _, v in out.charge]
    for (l, _), (z, s) in zip(out.charge, out_values):
        require(in_upper_semiclosed(z, s), f"simple {l} of the result is outside H")
    by_label = dict(zip(out.heart.labels, out.heart.classes))
    out_classes = [by_label[l] for l, _ in out.charge]
    by_label = dict(zip(sigma.heart.labels, sigma.heart.classes))
    in_classes = [by_label[l] for l, _ in sigma.charge]
    in_values = [mp_value(v) for _, v in sigma.charge]
    check_rotated_charge(in_classes, in_values, out_classes, out_values, lam)


def _level_data(m, i):
    """(classes, mp values) of the level-i simples of a multi-scale object."""
    ch = m.charge(i)
    labels = sorted(m.labels(i))
    return [m.top.cls(l) for l in labels], [mp_value(ch[l]) for l in labels]


@precise
def check_quotients_in_h(m, what: str) -> None:
    """Level 0 quotient in H on the nose; deeper quotients up to one rotation."""
    for i in range(m.L + 1):
        ch = m.charge(i)
        quot = sorted(m.labels(i) - m.labels(i + 1))
        vals = [mp_value(ch[l]) for l in quot]
        for l, (z, s) in zip(quot, vals):
            require(not is_zero(z, s), f"{what}: level {i} simple {l} has zero charge")
        if i == 0:
            for l, (z, s) in zip(quot, vals):
                require(in_upper_semiclosed(z, s),
                        f"{what}: level 0 simple {l} is outside H")
        else:
            require(_common_rotation_exists([z for z, _ in vals]),
                    f"{what}: level {i} admits no rotation into H")


def _common_rotation_exists(values) -> bool:
    """Some rotation puts all values in H: their phases fit in a half-open half turn."""
    with mpmath.workdps(DPS):
        phases = sorted(float(mpmath.arg(z)) for z in values)
        gaps = [b - a for a, b in zip(phases, phases[1:])]
        gaps.append(phases[0] + 2 * math.pi - phases[-1])
        return max(gaps) >= math.pi - 1e-12


@precise
def check_msc_action(before, lam, after) -> None:
    """c_act_msc: same chain, level 0 rotated exactly, deeper levels up to a scalar."""
    require(after.level_sets == before.level_sets, "the action changed the vanishing chain")
    check_quotients_in_h(after, "acted object")
    for i in range(before.L + 1):
        bc, bv = _level_data(before, i)
        ac, av = _level_data(after, i)
        if i == 0:
            check_rotated_charge(bc, bv, ac, av, lam)
            continue
        pairs = [(class_value(ac, av, c), (v, s)) for c, (v, s) in zip(bc, bv)]
        require(_proportional(pairs), f"level {i} charges are not proportional")


def _proportional(pairs) -> bool:
    """All pairs (a, b) satisfy a = k * b for one nonzero k; zeros must match."""
    ref = None
    for (a, sa), (b, sb) in pairs:
        if is_zero(a, sa) != is_zero(b, sb):
            return False
        if is_zero(b, sb):
            continue
        if ref is None:
            ref = (a, sa, b, sb)
            continue
        a0, sa0, b0, sb0 = ref
        if not close(a * b0, a0 * b, sa * sb0 + sa0 * sb):
            return False
    return True


@precise
def check_equivalent(m1, m2) -> None:
    """Same chain of K-class spans, equal level 0, proportional deeper levels."""
    require(m1.L == m2.L, "different numbers of levels")
    for i in range(m1.L + 1):
        c1, v1 = _level_data(m1, i)
        c2, v2 = _level_data(m2, i)
        require(sorted(c1) == sorted(c2) or _same_span(c1, c2),
                f"level {i} simples span different sublattices")
        if i == 0:
            level0 = ChargeMap(c2, v2)
            pairs = [(level0.value(c), (v, s)) for c, (v, s) in zip(c1, v1)]
            require(all(close(a, b, sa + sb) for (a, sa), (b, sb) in pairs),
                    "level 0 charges differ")
        else:
            pairs = [(class_value(c2, v2, c), (v, s)) for c, (v, s) in zip(c1, v1)]
            require(_proportional(pairs), f"level {i} charges are not proportional")


def _same_span(c1, c2) -> bool:
    try:
        for c in c1:
            x = solve(c2, c)
            if any(v.denominator != 1 for v in x):
                return False
        for c in c2:
            x = solve(c1, c)
            if any(v.denominator != 1 for v in x):
                return False
    except CheckError:
        return False
    return True


@precise
def check_defect(m, lam, tau, result) -> None:
    """commutation_defect: recomputed defect matches and stays within the bound."""
    for name, obj in (("lam.(tau*m)", result.sigma_tilde), ("tau*(lam.m)", result.sigma_hat)):
        check_quotients_in_h(obj, name)
    tilde = ChargeMap(*_level_data(result.sigma_tilde, 0))
    hat = ChargeMap(*_level_data(result.sigma_hat, 0))
    worst = 0.0
    reported = dict(result.per_simple)
    for l in sorted(m.top.labels):
        cls = m.top.cls(l)
        a, sa = tilde.value(cls)
        b, sb = hat.value(cls)
        d = abs(a - b)
        if d <= ZERO_TOL * (1 + sa + sb):
            d = 0
        d = float(d)
        require(abs(d - reported[l]) <= 1e-9 * (1 + d), f"defect on simple {l} misreported")
        worst = max(worst, d)
    require(result.within_bound, "reported defect exceeds its bound")
    require(worst <= result.bound * (1 + 1e-9) + 1e-9, "recomputed defect exceeds the bound")
    if lam[0] == 0:
        require(worst == 0 and result.max_simple_defect == 0.0,
                "defect is not exactly 0 for purely imaginary lam")


# ---------------------------------------------------------------------------
# Limits


def laurent_of_class(families, classes, gamma):
    """The Laurent family of gamma: sum_k x_k f_k over the input simples."""
    x = solve(classes, gamma)
    out: dict[int, tuple[Fraction, Fraction]] = {}
    for xk, fam in zip(x, families):
        if not xk:
            continue
        for k, (re, im) in fam.items():
            a, b = out.get(k, (Fraction(0), Fraction(0)))
            out[k] = (a + xk * re, b + xk * im)
    return {k: v for k, v in out.items() if v != (0, 0)}


@precise
def check_limit(in_classes, families, rot, levels, top_classes) -> None:
    """extract_limit on a Laurent family whose leading terms hit the wall.

    ``families`` lists per input simple a dict valuation -> (re, im);
    ``levels`` lists per output level a dict label -> charge (ExactComplex or
    JSON entry) and ``top_classes`` maps output labels to K-classes.  Each
    level-i value, with the rotation undone, must equal the coefficient at
    the level's valuation of the family of that simple's class, and every
    family must vanish to at least that order; quotients must lie in H.
    """
    require(rot > 0, "the rotation branch did not run")
    undo = mp_atom(-rot, Fraction(0), Fraction(1), Fraction(0))
    valuations = []
    for i, ch in enumerate(levels):
        fams = {l: laurent_of_class(families, in_classes, top_classes[l]) for l in ch}
        nonzero = [l for l in ch if not is_zero(*mp_value(ch[l]))]
        require(bool(nonzero), f"level {i} is identically zero")
        v = min(min(fams[l]) for l in nonzero)
        valuations.append(v)
        for l, val in ch.items():
            z, s = mp_value(val)
            require(all(k >= v for k in fams[l]), f"simple {l} vanishes to a lower order")
            re, im = fams[l].get(v, (Fraction(0), Fraction(0)))
            expect = mp_atom(Fraction(0), Fraction(0), re, im)
            require(close(z * undo, expect, s + abs(expect)),
                    f"level {i} simple {l}: value is not the leading coefficient")
        deeper = set(levels[i + 1]) if i + 1 < len(levels) else set()
        quot = [mp_value(ch[l]) for l in ch if l not in deeper]
        for z, s in quot:
            require(in_upper_semiclosed(z, s), f"level {i} quotient value outside H")
    require(valuations == sorted(set(valuations)), "levels are not ordered by valuation")


# ---------------------------------------------------------------------------
# Strata


@lru_cache(maxsize=None)
def labeled_total(n: int, max_levels: int) -> int:
    """Labeled enhanced level graphs with 1..max_levels levels below zero.

    A graph is a laminar family of zero blocks (each of size >= 2, a single
    child never equal to its parent's set, the top included) with a level
    map that descends strictly and occupies every level.  ``f(s, h)`` counts
    block families inside a set of size s whose blocks sit on h available
    levels; depth exactly d follows by inclusion-exclusion over empty levels.
    """

    @lru_cache(maxsize=None)
    def f(s: int, h: int) -> int:
        if h == 0:
            return 1
        part = [1] + [0] * s  # set partitions into blocks >= 2, weighted by T
        for j in range(1, s + 1):
            part[j] = sum(
                math.comb(j - 1, b - 1) * t(b, h) * part[j - b] for b in range(2, j + 1)
            )
        return sum(math.comb(s, j) * part[j] for j in range(s + 1)) - t(s, h)

    @lru_cache(maxsize=None)
    def t(b: int, h: int) -> int:
        return sum(f(b, k) for k in range(h))

    def within(k: int) -> int:  # nonempty families on at most k levels
        return f(n + 1, k) - 1 if k else 0

    return sum(
        sum((-1) ** (d - k) * math.comb(d, k) * within(k) for k in range(d + 1))
        for d in range(1, max_levels + 1)
    )


def bell(m: int) -> int:
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _graph_checks(rep: dict, enhancements, prongs, max_levels: int) -> None:
    verts = rep["vertices"]
    edges = rep["edges"]
    kids: dict[int, list[int]] = {}
    for u, w, _ in edges:
        kids.setdefault(u, []).append(w)

    def zeros_below(v: int) -> int:
        return len(verts[v]["zeros"]) + sum(zeros_below(w) for w in kids.get(v, []))

    for u, w, k in edges:
        require(k == zeros_below(w) + 2, "an enhancement is not (zeros below) + 2")
        require(verts[u]["level"] > verts[w]["level"], "an edge does not descend")
    require(sorted(k for _, _, k in edges) == sorted(enhancements), "enhancements misreported")
    depth = -min(v["level"] for v in verts)
    require(1 <= depth <= max_levels, "depth out of range")


def check_census(n: int, max_levels: int, out: dict) -> None:
    expect = labeled_total(n, max_levels)
    if max_levels == 1:
        require(expect == bell(n + 1) - 2, "one-level count disagrees with Bell(n+1) - 2")
    require(out["labeled_total"] == expect,
            f"labeled_total {out['labeled_total']} != independent count {expect}")
    types = out["types"]
    require(out["unlabeled_total"] == len(types), "unlabeled_total misreported")
    require(sum(t["labeled_count"] for t in types) == expect, "type counts do not add up")
    for t in types:
        require(t["prongs"] == math.prod(t["enhancements"]), "prongs != product of enhancements")
        if "representative" in t:
            _graph_checks(t["representative"], t["enhancements"], t["prongs"], max_levels)


def check_poset(keyed, relation, max_levels: int) -> None:
    """Each undegeneration is shallower and keeps a sub-multiset of the edges."""
    for key, g in keyed.items():
        ups = relation[key]
        require((g.depth >= 2) == bool(ups), "a deep type lacks undegenerations")
        enh = sorted(k for *_, k in g.edges)
        for u in ups:
            h = keyed[u]
            require(h.depth < g.depth, "an undegeneration is not shallower")
            rest = list(enh)
            for k in (k for *_, k in h.edges):
                require(k in rest, "an undegeneration gained an edge")
                rest.remove(k)
        require(1 <= g.depth <= max_levels, "depth out of range")


# ---------------------------------------------------------------------------
# Hearts by hand (the CLI's tilt and exchange graph)


def standard_state(n: int):
    classes = {i: tuple(1 if j == i - 1 else 0 for j in range(n)) for i in range(1, n + 1)}
    arrows = {(i, i + 1) for i in range(1, n)}
    return classes, frozenset(arrows)


def mutate_arrows(arrows, k: int):
    """Quiver mutation at k with 2-cycle cancellation (simply laced)."""
    ins = [a for a, b in arrows if b == k]
    outs = [b for a, b in arrows if a == k]
    new = {(b, a) if k in (a, b) else (a, b) for a, b in arrows}
    for i in ins:
        for j in outs:
            if (j, i) in new:
                new.discard((j, i))
            else:
                new.add((i, j))
    return frozenset(new)


def tilt_by_hand(state, s: int, direction: int):
    classes, arrows = state
    cs = classes[s]
    out = {}
    for t, c in classes.items():
        if t == s:
            out[t] = tuple(-x for x in cs)
        else:
            m = ((t, s) in arrows) if direction > 0 else ((s, t) in arrows)
            out[t] = tuple(x + m * y for x, y in zip(c, cs))
    return out, mutate_arrows(arrows, s)


def exchange_graph_size(n: int, radius: int) -> tuple[int, int]:
    """Vertex and edge counts of the forward-tilt ball, hearts keyed by classes."""
    start = standard_state(n)
    seen = {frozenset(start[0].values())}
    frontier = [start]
    edges = 0
    for _ in range(radius):
        nxt = []
        for st in frontier:
            for s in st[0]:
                t = tilt_by_hand(st, s, +1)
                edges += 1
                key = frozenset(t[0].values())
                if key not in seen:
                    seen.add(key)
                    nxt.append(t)
        frontier = nxt
    return len(seen), edges


def kappa_hat(size: int) -> int:
    k = size + 3
    return k // 2 if size % 2 else k
