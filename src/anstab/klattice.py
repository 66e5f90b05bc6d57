"""The Grothendieck lattice Z^n and the braid action by spherical twists.

A twist at the vertex i acts on a class gamma by

    gamma  |->  gamma - chi(e_i, gamma) * e_i          (positive generator)
    gamma  |->  gamma + chi(e_i, gamma) * e_i          (its inverse)

with chi the arrow-count Euler pairing from :mod:`anstab.anquiver`.  Words in
these generators give an (unfaithful) matrix shadow of the braid group of the
quiver; the braid relations hold as matrix identities and every word matrix
preserves chi.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import lcm

from .anquiver import QuiverWithPotential, QuiverError, euler_pairing
from .exact import mat_det, mat_identity, mat_mul

Letter = tuple[int, int]  # (generator index = vertex label, exponent +-1)


@dataclass(frozen=True)
class BraidWord:
    letters: tuple[Letter, ...]

    @staticmethod
    def build(letters) -> "BraidWord":
        out = []
        for (i, e) in letters:
            if type(i) is not int or type(e) is not int or e not in (1, -1):
                raise ValueError(f"a letter is [generator, +-1] in integers, got {[i, e]!r}")
            out.append((i, e))
        return BraidWord(tuple(out))

    def inverse(self) -> "BraidWord":
        return BraidWord(tuple((i, -e) for (i, e) in reversed(self.letters)))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return BraidWord(self.letters + other.letters)

    def __pow__(self, k: int) -> "BraidWord":
        if k < 0:
            return self.inverse() ** (-k)
        return BraidWord(self.letters * k)

    def to_json(self) -> list[list[int]]:
        return [[i, e] for (i, e) in self.letters]

    @staticmethod
    def from_json(data) -> "BraidWord":
        if not isinstance(data, list) or not all(isinstance(x, list) and len(x) == 2 for x in data):
            raise ValueError(f"a braid word is a list of [generator, +-1] letters, got {data!r}")
        return BraidWord.build(data)


@dataclass(frozen=True)
class TwistMatrix:
    """Integer matrix acting on K-classes written in the standard simple basis."""

    rows: tuple[tuple[int, ...], ...]

    def __mul__(self, other: "TwistMatrix") -> "TwistMatrix":
        return TwistMatrix(tuple(map(tuple, mat_mul(self.rows, other.rows))))

    def apply(self, v) -> tuple[int, ...]:
        return tuple(sum(r[j] * v[j] for j in range(len(v))) for r in self.rows)

    def det(self) -> int:
        return mat_det(self.rows)

    def to_json(self) -> list[int]:
        return [x for row in self.rows for x in row]

    def __neg__(self) -> "TwistMatrix":
        return TwistMatrix(tuple(tuple(-x for x in r) for r in self.rows))


def identity_matrix(n: int) -> TwistMatrix:
    return TwistMatrix(tuple(map(tuple, mat_identity(n))))


def twist_matrix(q: QuiverWithPotential, i: int, sign: int = 1) -> TwistMatrix:
    """Matrix of the twist at vertex i (sign +1) or its inverse (sign -1)."""
    if i not in q.vertices:
        raise QuiverError(f"unknown vertex {i}")
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    n = len(q.vertices)
    idx = {v: k for k, v in enumerate(q.vertices)}
    rows = [list(r) for r in mat_identity(n)]
    ei = [1 if k == idx[i] else 0 for k in range(n)]
    for j, vj in enumerate(q.vertices):
        ej = [1 if k == j else 0 for k in range(n)]
        chi = euler_pairing(q, ei, ej)
        rows[idx[i]][j] -= sign * chi
    return TwistMatrix(tuple(map(tuple, rows)))


def word_matrix(q: QuiverWithPotential, w: BraidWord) -> TwistMatrix:
    """Product of generator matrices in word order; the empty word gives 1."""
    out = identity_matrix(len(q.vertices))
    for (i, e) in w.letters:
        out = out * twist_matrix(q, i, e)
    return out


def cycle_relation_holds(q: QuiverWithPotential, cyc) -> bool:
    """Matrix identity attached to a potential 3-cycle.

    With the vertices (a, b, c) ordered along the arrows, the products
    t_a t_b t_c t_a, t_b t_c t_a t_b and t_c t_a t_b t_c agree.  (The cyclic
    words must close up with a repeated letter: the plain length-3 rotations
    are pairwise distinct already in the K-shadow.)
    """
    verts = [arrow[0] for arrow in cyc]
    mats = {v: twist_matrix(q, v) for v in verts}
    prods = []
    for i in range(len(verts)):
        order = verts[i:] + verts[:i] + [verts[i]]
        out = identity_matrix(len(q.vertices))
        for v in order:
            out = out * mats[v]
        prods.append(out)
    return all(p == prods[0] for p in prods)


def _path_order(q: QuiverWithPotential, subset: frozenset[int]) -> list[int]:
    """Order the vertices of a connected A_r subquiver along its path."""
    sub = sorted(subset)
    adj = {v: [] for v in sub}
    for (a, b) in q.arrows:
        if a in subset and b in subset:
            adj[a].append(b)
            adj[b].append(a)
    ends = [v for v in sub if len(adj[v]) <= 1]
    if len(sub) == 1:
        return sub
    if len(ends) != 2 or any(len(adj[v]) > 2 for v in sub):
        raise QuiverError(f"subset {sorted(subset)} is not a path in the quiver")
    order = [min(ends)]
    prev = None
    while len(order) < len(sub):
        nxts = [x for x in adj[order[-1]] if x != prev]
        if not nxts:
            raise QuiverError(f"subset {sorted(subset)} is disconnected")
        prev = order[-1]
        order.append(nxts[0])
    return order


def theta_word(q: QuiverWithPotential, subset) -> BraidWord:
    """The full-rotation element of the sub-braid group on a connected A_r subset.

    For the subset {i_1, ..., i_r} ordered along the path this is the word
    (tau_{i_1} ... tau_{i_r})^(r+1); for a single vertex it degenerates to
    tau_i^2.
    """
    subset = frozenset(subset)
    if not subset:
        raise QuiverError("theta word of the empty subset")
    comps = q.components(subset)
    if len(comps) != 1:
        raise QuiverError("theta word needs a connected subset")
    order = _path_order(q, subset)
    r = len(order)
    base = BraidWord.build([(i, 1) for i in order])
    return base ** (r + 1)


# ---------------------------------------------------------------------------
# Simple twist group data


@dataclass(frozen=True)
class TwistComponentData:
    size: int          # number of simples n in the component
    kappa: int         # n + 3
    kappa_hat: int     # (n+3)/2 for n odd, n+3 for n even
    exponent: int      # ell / kappa_hat
    theta_power: int   # the generator is theta^1 (n odd) or theta^2 (n even)


@dataclass(frozen=True)
class TwistLevelData:
    components: tuple[TwistComponentData, ...]
    ell: int


@dataclass(frozen=True)
class TwistGroupData:
    levels: tuple[TwistLevelData, ...]

    def to_json(self) -> list[dict]:
        return [
            {"ell": lvl.ell, "components": [asdict(c) for c in lvl.components]}
            for lvl in self.levels
        ]


def kappa_hat_of(size: int) -> int:
    kappa = size + 3
    return kappa // 2 if size % 2 == 1 else kappa


def simple_twist_data(rho) -> TwistGroupData:
    """Twist-group numerics for a type rho = [(sizes at level 1), (level 2), ...].

    Per component of size n: kappa = n + 3 and kappa_hat = kappa/2 or kappa by
    the parity of n; per level ell = lcm of the kappa_hat and the generator is
    the product of the per-component full rotations (squared for even n)
    raised to the integral powers ell / kappa_hat.
    """
    levels = []
    for sizes in rho:
        if not sizes:
            raise ValueError("a level must have at least one component")
        if any(type(n) is not int or n < 1 for n in sizes):
            raise ValueError(f"component sizes must be positive integers, got {sizes!r}")
        comps = []
        hats = [kappa_hat_of(n) for n in sizes]
        ell = lcm(*hats)
        for n, hat in zip(sizes, hats):
            comps.append(
                TwistComponentData(
                    size=n,
                    kappa=n + 3,
                    kappa_hat=hat,
                    exponent=ell // hat,
                    theta_power=1 if n % 2 == 1 else 2,
                )
            )
        levels.append(TwistLevelData(tuple(comps), ell))
    return TwistGroupData(tuple(levels))


def twist_generator_word(q: QuiverWithPotential, level_subsets) -> BraidWord:
    """The word for one twist-group generator given explicit component subsets.

    ``level_subsets`` is the list of vertex subsets of the components at one
    level; the word is the product over components of theta^(theta_power *
    exponent).
    """
    sizes = [len(s) for s in level_subsets]
    data = simple_twist_data([sizes]).levels[0]
    word = BraidWord(())
    for subset, comp in zip(level_subsets, data.components):
        theta = theta_word(q, subset)
        word = word * (theta ** (comp.theta_power * comp.exponent))
    return word
