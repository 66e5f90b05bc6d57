"""The benchmark's workloads: seeded inputs, timed operations, answer checks.

Inputs come from this file's own generator, built on the package's public
constructors (``standard_heart``, ``forward_tilt``, ``gr``, ``validate``,
``validate_msc``, ``LaurentCharge.build``), never from ``anstab.sampling``,
so a change to the program cannot change the inputs.  One round is a fixed
list of operations drawn from the workload's seeded stream (``next_round``);
a run attempts whole rounds.  Each operation is one call into a public
entry point; its check runs outside the timed interval.
"""

from __future__ import annotations

import collections
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Any, Callable

import checks
from checks import require

# Entry points are called through their modules, so that the traced run's
# wrappers (installed on the modules) see every call.
from anstab import hearts, limits, multiscale, stability, strata
from anstab.exact import gr
from anstab.multiscale import MscError, MultiScaleStab


class OpFailed(Exception):
    """The program did not produce an answer (error, wrong exit code)."""


def _always() -> bool:
    return True


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # Runs just before the operation, outside the timed interval; False
    # leaves the operation out of this round (not attempted).
    ready: Callable[[], bool] = _always
    # Set on operations that recur identically in every round.
    key: Any = None


# ---------------------------------------------------------------------------
# Input generation


def gauss_in_h(rng: random.Random):
    """A Gaussian rational in the semi-closed upper half plane."""
    if rng.random() < 0.1:
        return gr(-F(rng.randrange(1, 7), rng.randrange(1, 4)))
    return gr(F(rng.randrange(-6, 7), rng.randrange(1, 4)),
              F(rng.randrange(1, 7), rng.randrange(1, 4)))


def tilted_heart(rng: random.Random, n: int, tilts: int):
    h = hearts.standard_heart(n)
    for _ in range(tilts):
        h = hearts.forward_tilt(h, rng.choice(h.labels))
    return h


def honest_condition(rng: random.Random, n: int, tilts: int):
    h = tilted_heart(rng, n, tilts)
    return stability.validate(h, {l: gauss_in_h(rng) for l in h.labels})


def make_msc(rng: random.Random, n: int, levels: int) -> MultiScaleStab:
    """A valid object of rank n with exactly ``levels`` levels below zero."""
    for _ in range(1000):
        h = tilted_heart(rng, n, rng.randrange(0, 4))
        chain = [frozenset(h.labels)]
        while len(chain) <= levels and len(chain[-1]) >= 2:
            pool = sorted(chain[-1])
            chain.append(frozenset(rng.sample(pool, rng.randrange(1, len(pool)))))
        if len(chain) != levels + 1:
            continue
        below = chain[1:] + [frozenset()]
        charges = [
            {l: gr(0) if l in deeper else gauss_in_h(rng) for l in cur}
            for cur, deeper in zip(chain, below)
        ]
        try:
            return multiscale.validate_msc(h, charges)
        except MscError:
            continue
    raise RuntimeError(f"no valid rank-{n} object with {levels} levels")


# ---------------------------------------------------------------------------
# Shared operations


def json_roundtrip_op(cell: dict, exact_only: bool = False, key=None,
                      stats: collections.Counter | None = None) -> Op:
    """to_json, through text, from_json, then the program's own equivalence.

    The object is ``cell["out"]``, left there by the operation before.  With
    ``exact_only``, an object whose JSON holds a float (today the codec's way
    of writing a multi-atom charge) is replaced by ``cell["in"]``, that
    operation's input, which has Gaussian charges; ``stats`` counts these.
    """
    chosen = {}

    def ready():
        if "out" not in cell:
            return False
        chosen["m"] = cell["out"]
        if exact_only and has_float(cell["out"].to_json()):
            chosen["m"] = cell["in"]
            if stats is not None:
                stats["roundtrips_on_input"] += 1
        return True

    def run():
        m = chosen["m"]
        back = MultiScaleStab.from_json(json.loads(json.dumps(m.to_json())))
        return m, back, multiscale.equivalent(back, m)

    def check(res):
        m, back, verdict = res
        if not verdict and not single_atom(m):
            raise OpFailed("multi-atom charge lost in the JSON codec")
        require(verdict, "equivalent(from_json(to_json(m)), m) is False")
        checks.check_equivalent(back, m)

    return Op("json_roundtrip", run, check, ready, key)


def has_float(data) -> bool:
    if isinstance(data, float):
        return True
    if isinstance(data, dict):
        return any(has_float(v) for v in data.values())
    if isinstance(data, list):
        return any(has_float(v) for v in data)
    return False


def single_atom(m: MultiScaleStab) -> bool:
    return all(len(v.atoms) <= 1 for lvl in m.charges for _, v in lvl)


# ---------------------------------------------------------------------------
# action


class Action:
    """c_act, commutation_defect, and plumb + c_act_msc with a JSON round trip."""

    name = "action"

    def __init__(self, seed: int, root: Path, per_rank: int = 12):
        self.rng = random.Random(f"action/{seed}")
        self.per_rank = per_rank
        self.lossy = lossy_plumbings()
        self.stats: collections.Counter = collections.Counter()

    def next_round(self) -> list[Op]:
        rng, per_rank = self.rng, self.per_rank
        ops: list[Op] = []
        # Real parts of lam are drawn stratified (one per slice of the
        # range), which keeps the batch's cost alike from seed to seed.
        for n in range(6, 11):
            for k in range(per_rank):
                sigma = honest_condition(rng, n, 1 + k % 3)
                re = F(6 * k + rng.randrange(1, 7), 3 * per_rank)  # in (0, 2]
                ops.append(self._c_act(sigma, (re, F(rng.randrange(-12, 13), 12))))
        for n in range(3, 6):
            for k in range(per_rank):
                m = make_msc(rng, n, 1)
                if k == 0:  # purely imaginary lam commutes exactly
                    lam = (F(0), F(rng.randrange(-20, 20) or 1, 10))
                    tau = (F(rng.randrange(0, 80), 100), F(-rng.randrange(1, 30), 10))
                else:
                    lre = F(5 * (k % 10) + rng.randrange(0, 5), 100)  # in [0, 1/2)
                    lam = (lre, F(rng.randrange(-20, 20), 10))
                    tau = (F(rng.randrange(0, 99 - int(100 * lre)), 100),
                           F(-rng.randrange(1, 40), 10))
                ops.append(self._defect(m, lam, tau))
        for n in range(3, 6):
            for k in range(per_rank):
                pattern = k % 3
                m = make_msc(rng, n, 2)
                taus = [self._tau(rng), self._tau(rng)]
                if pattern:
                    taus[pattern - 1] = None  # leave that passage unplumbed
                re = F(2 * (k % 8) + rng.randrange(1, 3), 8)  # in (0, 2]
                cell = {"in": m}
                ops.append(self._plumb_act(m, taus, (re, F(rng.randrange(-8, 9), 8)), cell))
                ops.append(json_roundtrip_op(cell, exact_only=True, stats=self.stats))
        # The kept codec fault: the same inputs every round, whatever the seed.
        for i, (m, taus, lam) in enumerate(self.lossy):
            cell = {}
            ops.append(self._plumb_act(m, taus, lam, cell, key=("lossy_plumb", i)))
            ops.append(json_roundtrip_op(cell, key=("lossy_roundtrip", i)))
        return ops

    @staticmethod
    def _tau(rng):
        return (F(rng.randrange(0, 4), 4), -F(rng.randrange(1, 9), 4))

    @staticmethod
    def _c_act(sigma, lam) -> Op:
        return Op("c_act", lambda: stability.c_act(sigma, lam),
                  lambda out: checks.check_stability_result(sigma, lam, out))

    @staticmethod
    def _defect(m, lam, tau) -> Op:
        return Op("commutation_defect", lambda: multiscale.commutation_defect(m, lam, tau),
                  lambda r: checks.check_defect(m, lam, tau, r))

    @staticmethod
    def _plumb_act(m, taus, lam, cell: dict, key=None) -> Op:
        def run():
            p = multiscale.plumb(m, taus)
            cell["out"] = multiscale.c_act_msc(p, lam)
            return p, cell["out"]

        def check(res):
            p, out = res
            checks.check_quotients_in_h(p, "plumbed object")
            checks.check_msc_action(p, lam, out)

        return Op("plumb_act", run, check, key=key)


# Draws of the fixed stream below whose plumbed and rotated result carries a
# multi-atom charge: two each of ranks 3, 4 and 5.
LOSSY_DRAWS = (3, 5, 7, 10, 12, 29)


def lossy_plumbings() -> list:
    """Seed-independent (object, taus, lam) inputs of the kept codec fault."""
    rng = random.Random("action/lossy")
    picked = []
    for i in range(1, max(LOSSY_DRAWS) + 1):
        m = make_msc(rng, 3 + i % 3, 2)
        taus = [Action._tau(rng), Action._tau(rng)]
        lam = (F(rng.randrange(1, 17), 8), F(rng.randrange(-8, 9), 8))
        if i in LOSSY_DRAWS:
            picked.append((m, taus, lam))
    return picked


# ---------------------------------------------------------------------------
# limits


CRITERION_1 = {1: {0: (F(-1), F(0)), 1: (F(0), F(1))}, 2: {0: (F(1), F(0)), 1: (F(0), F(1))}}


class Limits:
    """plumbing_ray -> extract_limit round trips, rotation-branch families, JSON."""

    name = "limits"

    def __init__(self, seed: int, root: Path, per_rank: int = 10):
        self.rng = random.Random(f"limits/{seed}")
        self.per_rank = per_rank

    def next_round(self) -> list[Op]:
        rng, per_rank = self.rng, self.per_rank
        ops: list[Op] = []
        for n in range(2, 8):
            for k in range(per_rank):
                levels = k % min(3, n - 1) + 1
                cell: dict = {}
                ops.append(self._ray(make_msc(rng, n, levels), cell))
                ops.append(json_roundtrip_op(cell))
        ops.append(self._family(2, CRITERION_1))
        for n in range(2, 5):
            for _ in range(per_rank):
                ops.append(self._family(n, self._wall_family(rng, n)))
        return ops

    @staticmethod
    def _wall_family(rng, n):
        """Constant plus linear terms; at least one leading term is a positive real."""
        walls = set(rng.sample(range(1, n + 1), rng.randrange(1, n + 1)))
        fams = {}
        for l in range(1, n + 1):
            if l in walls:
                lead = (F(rng.randrange(1, 7), rng.randrange(1, 4)), F(0))
                nxt = (F(rng.randrange(-3, 4)), F(rng.randrange(1, 5), rng.randrange(1, 3)))
            else:
                g = gauss_in_h(rng)
                lead = (g.re, g.im)
                nxt = (F(rng.randrange(-3, 4)), F(rng.randrange(0, 4)))
            fams[l] = {0: lead, 1: nxt}
        return fams

    @staticmethod
    def _ray(m, cell: dict) -> Op:
        def run():
            heart, ray = limits.plumbing_ray(m)
            cell["out"], rot = limits.extract_limit(heart, ray)
            return ray, cell["out"], rot

        def check(res):
            _, back, rot = res
            require(rot == 0, f"round trip took the rotation branch ({rot})")
            checks.check_quotients_in_h(back, "extracted object")
            checks.check_equivalent(back, m)

        return Op("ray_limit", run, check)

    @staticmethod
    def _family(n, fams) -> Op:
        heart = hearts.standard_heart(n)
        zc = limits.LaurentCharge.build(
            {l: {k: gr(re, im) for k, (re, im) in f.items()} for l, f in fams.items()}
        )
        in_classes = [heart.cls(l) for l in heart.labels]
        families = [fams[l] for l in heart.labels]

        def check(res):
            m, rot = res
            levels = [m.charge(i) for i in range(m.L + 1)]
            checks.check_limit(in_classes, families, rot, levels,
                               dict(zip(m.top.labels, m.top.classes)))

        return Op("family_limit", lambda: limits.extract_limit(heart, zc), check)


# ---------------------------------------------------------------------------
# strata


# One to three levels: every size from n = 4 that finishes in under a second.
STRATA_SIZES = [(n, 1) for n in range(4, 8)] + [(n, L) for L in (2, 3) for n in range(4, 6)]


class Strata:
    """census and adjacency_poset over one to three levels; the seed sets the order."""

    name = "strata"

    def __init__(self, seed: int, root: Path, sizes=STRATA_SIZES):
        self.rng = random.Random(f"strata/{seed}")
        self.sizes = sizes

    def next_round(self) -> list[Op]:
        ops = [self._census(n, L) for n, L in self.sizes]
        ops += [self._poset(n, L) for n, L in self.sizes]
        self.rng.shuffle(ops)
        return ops

    @staticmethod
    def _census(n, L) -> Op:
        return Op("census", lambda: strata.census(n, L),
                  lambda out: checks.check_census(n, L, out), key=("census", n, L))

    @staticmethod
    def _poset(n, L) -> Op:
        def check(res):
            keyed, rel = res
            checks.check_poset(keyed, rel, L)

        return Op("adjacency_poset",
                  lambda: strata.adjacency_poset(strata.enumerate_graphs(n, L)), check,
                  key=("adjacency_poset", n, L))


# ---------------------------------------------------------------------------
# cli


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(root: Path, argv) -> CliResult:
    """One fresh ``python -m anstab.cli`` process; waits for it to end."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    p = subprocess.run(
        [sys.executable, "-m", "anstab.cli", *argv],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    return CliResult(p.returncode, p.stdout, p.stderr)


BAD_INPUTS = [
    ["tilt", "--heart", "A3", "--word", "x"],
    ["tilt", "--heart", "A3", "--word", "5"],
    ["braid", "--n", "2", "--word", "7"],
    ["twist-data", "--rho", "[[0]]"],
    ["exchange-graph", "--heart", "A2", "--radius", "-1"],
]


def _ok(res: CliResult) -> None:
    if res.code != 0 or res.err.strip():
        raise OpFailed(f"exit {res.code}: {res.err.strip().splitlines()[-1:]}")


def _usage_error(res: CliResult) -> None:
    """Documented contract: exit 2 and a one-line message, no traceback."""
    lines = res.err.strip().splitlines()
    if res.code != 2 or len(lines) != 1 or "Traceback" in res.err:
        raise OpFailed(f"exit {res.code}, {len(lines)} stderr lines")


def check_strata_table(res: CliResult) -> None:
    _ok(res)
    rows = [line.split("\t") for line in res.out.strip().splitlines()[1:]]
    stats = sorted((int(r[3]), int(r[1])) for r in rows if r[0] == "1")
    # D2, D1, D3 of the paper: kappa 4 (6 labelings), 5 (4), 4*4 (3)
    require(stats == [(4, 6), (5, 4), (16, 3)], f"n=3 census {stats}")
    require(sum(int(r[1]) for r in rows) == checks.labeled_total(3, 1), "n=3 labeled total")


def check_poset_json(res: CliResult) -> None:
    _ok(res)
    strata = json.loads(res.out)["strata"]
    for s in strata.values():
        require((s["depth"] >= 2) == bool(s["undegenerations"]), "poset shape")
        for u in s["undegenerations"]:
            require(strata[u]["depth"] < s["depth"], "undegeneration is not shallower")


def check_braid(res: CliResult) -> None:
    _ok(res)
    require(json.loads(res.out)["matrix"] == [[-1, 0], [0, -1]], "(1 2)^3 is not -I")


def check_limit_json(res: CliResult) -> None:
    _ok(res)
    data = json.loads(res.out)
    rot = F(*data["rotation"])
    top = data["result"]["top_heart"]
    top_classes = {s["label"]: tuple(s["class"]) for s in top["simples"]}
    levels = [{int(k): v for k, v in lvl["charge"].items()} for lvl in data["result"]["levels"]]
    checks.check_limit([(1, 0), (0, 1)], [CRITERION_1[1], CRITERION_1[2]], rot, levels,
                       top_classes)


def check_twist(res: CliResult) -> None:
    _ok(res)
    (lvl,) = json.loads(res.out)["levels"]
    hats = [checks.kappa_hat(1), checks.kappa_hat(1)]
    ell = max(hats)
    require(lvl["ell"] == ell, "ell is not the lcm of the kappa-hats")
    for c, h in zip(lvl["components"], hats):
        require(c["kappa"] == c["size"] + 3 and c["kappa_hat"] == h, "kappa data")
        require(c["exponent"] * h == ell, "exponent * kappa_hat != ell")


def check_tilt(res: CliResult) -> None:
    _ok(res)
    state = checks.standard_state(3)
    for s, d in ((2, 1), (1, -1)):
        state = checks.tilt_by_hand(state, s, d)
    got = json.loads(res.out)["heart"]
    require({s["label"]: tuple(s["class"]) for s in got["simples"]} == state[0],
            "tilt classes differ from the K-class rule")
    require({tuple(a) for a in got["extquiver"]["arrows"]} == set(state[1]),
            "tilt ext-quiver differs from the mutation rule")


def check_exchange_dot(res: CliResult) -> None:
    _ok(res)
    lines = [line.strip() for line in res.out.strip().splitlines()[1:-1]]
    edges = sum("->" in line for line in lines)
    require((len(lines) - edges, edges) == checks.exchange_graph_size(2, 2),
            "exchange graph size differs from the tilt rule")


def check_validate(res: CliResult) -> None:
    _ok(res)
    data = json.loads(res.out)
    require(data["valid"] is True and data["levels_below_zero"] == 1, "msc-validate")


def check_plumb_json(res: CliResult) -> None:
    _ok(res)
    (lvl,) = json.loads(res.out)["result"]["levels"]
    for v in lvl["charge"].values():
        require(checks.in_upper_semiclosed(*checks.mp_value(v)), "plumbed charge outside H")


def check_defect_table(res: CliResult) -> None:
    _ok(res)
    rows = [line.split("\t") for line in res.out.strip().splitlines()[1:]]
    require(len(rows) == 2 and all(r[4] == "True" for r in rows), "defect above its bound")
    require(float(rows[1][2]) == 0.0, "imaginary lam defect is not 0")


class Cli:
    """The README's commands, each in a fresh process, plus five bad inputs."""

    name = "cli"

    def __init__(self, seed: int, root: Path):
        rng = random.Random(f"cli/{seed}")
        out_dir = root / "bench" / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        boundary = out_dir / f"boundary-{seed}.json"
        m = make_msc(rng, 3, 1)
        boundary.write_text(json.dumps(m.to_json()))
        b = str(boundary.relative_to(root))
        good = [
            (["strata", "--n", "3", "--levels", "1", "--format", "table"], check_strata_table),
            (["strata", "--n", "3", "--levels", "2", "--poset"], check_poset_json),
            (["braid", "--n", "2", "--word", "(1 2)^3"], check_braid),
            (["limit", "--heart", "A2", "--family", "(-1+it, 1+it)"], check_limit_json),
            (["twist-data", "--rho", "[[1,1]]"], check_twist),
            (["tilt", "--heart", "A3", "--word", "2,-1"], check_tilt),
            (["exchange-graph", "--heart", "A2", "--radius", "2", "--format", "dot"],
             check_exchange_dot),
            (["msc-validate", b], check_validate),
            (["plumb", b, "--tau", "1/4-2i"], check_plumb_json),
            (["defect", b, "--lam", "1/4;i/2", "--tau", "1/4-3i", "--format", "table"],
             check_defect_table),
        ]
        self.commands = good + [(argv, _usage_error) for argv in BAD_INPUTS]
        self.root = root

    def next_round(self) -> list[Op]:
        """The same commands every round; the seed shapes the boundary file."""
        return [Op("cli", lambda argv=argv: run_cli(self.root, argv), check, key=tuple(argv))
                for argv, check in self.commands]


WORKLOADS = {w.name: w for w in (Action, Limits, Strata, Cli)}
