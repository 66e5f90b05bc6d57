"""Outputs of the exact engine pinned by digest.

The action ``c_act``, the multi-scale action after plumbing, the
degeneration limit of plumbing rays and the two sides of the commutation
defect, each on seeded inputs.  A change to a
sign decision, a tilt choice (heart provenance words are part of the JSON)
or the charge codec changes a digest; a kernel optimization changes none.
"""

import hashlib
import json
import random
from fractions import Fraction as F

from anstab.exact import AnstabError, gr
from anstab.hearts import forward_tilt, standard_heart
from anstab.limits import extract_limit, plumbing_ray
from anstab.multiscale import INFTY, c_act_msc, commutation_defect, plumb
from anstab.sampling import random_msc
from anstab.stability import c_act, validate


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()


def rational(rng, lo, hi, den):
    return F(rng.randrange(lo, hi), rng.randrange(1, den + 1))


def honest_condition(rng, n):
    h = standard_heart(n)
    for _ in range(rng.randrange(4)):
        h = forward_tilt(h, rng.choice(h.labels))
    values = {
        l: gr(-rational(rng, 1, 7, 3)) if rng.random() < 0.1
        else gr(rational(rng, -6, 7, 3), rational(rng, 1, 7, 3))
        for l in h.labels
    }
    return validate(h, values)


def lam(rng):
    return (rational(rng, -12, 25, 12), rational(rng, -4, 5, 4))


def test_c_act_pinned():
    out = []
    for seed in range(150):
        rng = random.Random(f"c_act/{seed}")
        sigma = honest_condition(rng, rng.randrange(2, 8))
        out.append(c_act(sigma, lam(rng)).to_json())
    assert digest(out) == "23bfb54c89b25f621f6e0f72ab6d070697c8218a3015b4f782acbaa16270466f"


def test_plumb_then_act_pinned():
    out = []
    for seed in range(120):
        rng = random.Random(f"plumb/{seed}")
        m = random_msc(rng, rng.randrange(2, 6), max_levels=2)
        while not m.L:  # an object with a passage to plumb
            m = random_msc(rng, rng.randrange(3, 6), max_levels=2)
        taus = [
            INFTY if rng.random() < 0.15 else (rational(rng, 0, 12, 12), -rational(rng, 1, 9, 3))
            for _ in range(m.L)
        ]
        out.append(c_act_msc(plumb(m, taus), lam(rng)).to_json())
    assert digest(out) == "718ff7cd9037059e53f668eebe6e8952fa3aaf609983a5be2945427a3e087f43"


def test_limit_of_ray_pinned():
    out = []
    for seed in range(120):
        rng = random.Random(f"limit/{seed}")
        m = c_act_msc(random_msc(rng, rng.randrange(2, 6), max_levels=2), lam(rng))
        heart, ray = plumbing_ray(m)
        back, rot = extract_limit(heart, ray)
        out.append([ray.to_json(), back.to_json(), [rot.numerator, rot.denominator]])
    assert digest(out) == "7588119bafea50be5fc20690d89a14b550829faa42d0b68c572634238686c7dd"


def test_commutation_defect_pinned():
    """Both sides of the defect and the verdict; the float fields
    ``per_simple``, ``max_simple_defect`` and ``bound`` are left out, so a
    change of float evaluator moves no digest.  Real parts of tau in
    thirteenths keep the plumbed level 0 multi-atom."""
    out = []
    for seed in range(60):
        rng = random.Random(f"defect/{seed}")
        m = random_msc(rng, rng.randrange(2, 6), max_levels=1)
        while m.L != 1:
            m = random_msc(rng, rng.randrange(2, 6), max_levels=1)
        lam = (F(rng.randrange(7), 12), rational(rng, -4, 5, 4))
        tau = (F(rng.randrange(7), 13), -rational(rng, 1, 9, 3))
        try:
            d = commutation_defect(m, lam, tau)
            out.append([d.sigma_tilde.to_json(), d.sigma_hat.to_json(), d.within_bound])
        except AnstabError as exc:
            out.append([type(exc).__name__, str(exc)])
    assert digest(out) == "1ed3330dc79f63cfa4cad53c7094d6e9ab41e2f107303cd51f1ad3bae79ca474"
