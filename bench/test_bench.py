"""Fast tests of the benchmark itself: tiny rounds, and checks that bite.

Run with  python3 -m pytest bench -q  from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

from anstab import multiscale, strata  # noqa: E402
from anstab.exact import EC  # noqa: E402

TINY = {
    "action": dict(per_rank=2),
    "limits": dict(per_rank=2),
    "strata": dict(sizes=[(3, 1), (4, 2), (3, 3)]),
    "cli": {},
}


def run_round(name: str, seed: int):
    """One tiny round: (op, result) pairs, and how many ops failed."""
    wl = workloads.WORKLOADS[name](seed, ROOT, **TINY[name])
    done, failed = [], 0
    for op in wl.next_round():
        if not op.ready():
            continue
        result = op.run()
        try:
            op.check(result)
        except workloads.OpFailed:
            failed += 1
        done.append((op, result))
    return done, failed


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["limits", "strata"])
def test_round_passes(name, seed):
    done, failed = run_round(name, seed)
    assert done and failed == 0


@pytest.mark.parametrize("seed", [1, 2])
def test_action_round_fails_only_on_lossy_codec(seed):
    done, failed = run_round("action", seed)
    # 5 ranks of c_act, 3 of defect, 3 of plumb + round trip, 2 per rank
    assert len(done) == 10 + 6 + 12 + 2 * len(workloads.LOSSY_DRAWS)
    assert failed == len(workloads.LOSSY_DRAWS)


def test_lossy_inputs_carry_multi_atom_charges():
    for m, taus, lam in workloads.lossy_plumbings():
        out = multiscale.c_act_msc(multiscale.plumb(m, taus), lam)
        assert not workloads.single_atom(out)


def test_cli_round_fails_only_on_bad_inputs():
    done, failed = run_round("cli", 1)
    assert len(done) == 15
    assert failed == len(workloads.BAD_INPUTS)


def test_seed_fixes_inputs():
    a = workloads.Action(5, ROOT, per_rank=1).next_round()
    b = workloads.Action(5, ROOT, per_rank=1).next_round()
    assert [op.run().heart for op in a if op.kind == "c_act"] == [
        op.run().heart for op in b if op.kind == "c_act"
    ]


def first(done, kind):
    return next((op, r) for op, r in done if op.kind == kind)


@pytest.fixture(scope="module")
def action_round():
    return run_round("action", 3)[0]


@pytest.fixture(scope="module")
def limits_round():
    return run_round("limits", 3)[0]


def test_c_act_check_rejects_flipped_charge(action_round):
    op, out = first(action_round, "c_act")
    (l, v), *rest = out.charge
    with pytest.raises(CheckError):
        op.check(dataclasses.replace(out, charge=((l, -v), *rest)))


def test_c_act_check_rejects_wrong_rotation(action_round):
    op, out = first(action_round, "c_act")
    twice = tuple((l, v * EC.rational(2)) for l, v in out.charge)
    with pytest.raises(CheckError):
        op.check(dataclasses.replace(out, charge=twice))


def test_defect_check_rejects_misreported_defect(action_round):
    op, r = first(action_round, "commutation_defect")
    per = tuple((l, d + 1e-3) for l, d in r.per_simple)
    with pytest.raises(CheckError):
        op.check(dataclasses.replace(r, per_simple=per))
    with pytest.raises(CheckError):
        op.check(dataclasses.replace(r, within_bound=False))


def test_msc_action_check_rejects_scaled_level0(action_round):
    op, (p, out) = first(action_round, "plumb_act")
    ch = tuple((l, v * EC.rational(3)) for l, v in out.charges[0])
    with pytest.raises(CheckError):
        op.check((p, dataclasses.replace(out, charges=(ch, *out.charges[1:]))))


def _bump_first_charge(m):
    (l, v), *rest = m.charges[0]
    return dataclasses.replace(m, charges=(((l, v + EC.rational(1)), *rest), *m.charges[1:]))


def test_roundtrip_check_rejects_changed_object(limits_round):
    op, (m, back, verdict) = first(limits_round, "json_roundtrip")
    with pytest.raises(CheckError):
        op.check((m, _bump_first_charge(back), verdict))
    with pytest.raises(CheckError):
        op.check((m, back, False))


def test_ray_check_rejects_rotation_and_changed_charge(limits_round):
    op, (ray, back, rot) = first(limits_round, "ray_limit")
    with pytest.raises(CheckError):
        op.check((ray, back, F(1, 64)))
    with pytest.raises(CheckError):
        op.check((ray, _bump_first_charge(back), rot))


def test_family_check_rejects_wrong_rotation(limits_round):
    op, (m, rot) = first(limits_round, "family_limit")
    with pytest.raises(CheckError):
        op.check((m, rot + F(1, 64)))


def test_census_check_rejects_counts_off_by_one():
    out = strata.census(4, 2)
    checks.check_census(4, 2, out)
    bad = dict(out, labeled_total=out["labeled_total"] + 1)
    with pytest.raises(CheckError):
        checks.check_census(4, 2, bad)
    types = [dict(t) for t in out["types"]]
    types[0]["prongs"] += 1
    with pytest.raises(CheckError):
        checks.check_census(4, 2, dict(out, types=types))


def test_poset_check_rejects_upward_relation():
    keyed, rel = strata.adjacency_poset(strata.enumerate_graphs(3, 2))
    shallow = next(k for k, g in keyed.items() if g.depth == 1)
    deep = next(k for k, g in keyed.items() if g.depth == 2)
    rel = {k: set(v) for k, v in rel.items()}
    rel[shallow].add(deep)
    with pytest.raises(CheckError):
        checks.check_poset(keyed, rel, 2)


def test_independent_count_matches_enumerator():
    assert checks.labeled_total(8, 1) == 21145 == checks.bell(9) - 2
    for levels in (1, 2, 3):
        for n in range(2, 6 if levels == 1 else 5):
            assert checks.labeled_total(n, levels) == len(strata.enumerate_graphs(n, levels))


def test_cli_checks_reject_wrong_output():
    braid = workloads.CliResult(0, json.dumps({"matrix": [[1, 0], [0, 1]]}), "")
    with pytest.raises(CheckError):
        workloads.check_braid(braid)
    table = "depth\tlabeled\tenhancements\tprongs\n1\t6\t[4]\t4\n1\t4\t[5]\t5\n1\t2\t[4, 4]\t16\n"
    with pytest.raises(CheckError):
        workloads.check_strata_table(workloads.CliResult(0, table, ""))
    with pytest.raises(workloads.OpFailed):
        workloads.check_braid(workloads.CliResult(1, "", "Traceback ...\nValueError\n"))


def test_tilt_by_hand_matches_program():
    from anstab import hearts

    h = hearts.standard_heart(4)
    state = checks.standard_state(4)
    for s, d in ((2, 1), (3, 1), (2, -1), (4, 1)):
        h = hearts.forward_tilt(h, s) if d > 0 else hearts.backward_tilt(h, s)
        state = checks.tilt_by_hand(state, s, d)
    assert dict(zip(h.labels, h.classes)) == state[0]
    assert set(h.ext.arrows) == set(state[1])


def test_traced_counts_repeat():
    def traced_counts():
        ops = workloads.Action(4, ROOT, per_rank=1).next_round()
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.enabled = True
            for op in ops:
                if op.ready():
                    op.run()
        finally:
            tracer.uninstall()
        return dict(tracer.calls)

    first_counts = traced_counts()
    assert first_counts["stability.c_act"] == 5
    assert first_counts["hearts.tilt"] > 0 and first_counts["exact.im_sign"] > 0
    assert traced_counts() == first_counts


def _readme_table(heading: str) -> list[list[str]]:
    text = (ROOT / "bench" / "README.md").read_text().split(heading, 1)[1]
    rows = []
    for line in text.splitlines()[1:]:
        if rows and not line.startswith("|"):
            break
        if line.startswith("| `"):
            rows.append([c.strip().strip("`") for c in line.strip("|").split("|")])
    return rows


def test_benchmark_json_matches_readme_and_spans():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = [row[:4] for row in _readme_table("## End-to-end metrics")]
    assert table == [[m["name"], m["unit"], m["better"], f"{m['bound']:.2f}"]
                     for m in spec["end_to_end"]]
    assert list(spans.per_layer_units()) == [m["name"] for m in spec["per_layer"]]
