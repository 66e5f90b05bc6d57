import io
import json
import os
import random
import re
import sys
import time
from fractions import Fraction as F

import pytest

from anstab.cli import (
    UsageError, main, parse_braid_word, parse_family, parse_laurent, parse_rational_complex,
)
from anstab.exact import EC, gr
from anstab.hearts import apply_tilt_word, canonical_form, standard_heart
from anstab.limits import LaurentCharge, extract_limit
from anstab.multiscale import MultiScaleStab, commutation_defect, plumb, type_rho
from anstab.stability import StabilityCondition, c_act

A2_HEART = {
    "simples": [{"label": 1, "class": [1, 0]}, {"label": 2, "class": [0, 1]}],
    "extquiver": {"vertices": [1, 2], "arrows": [[1, 2]], "cycles": []},
}


def a2_sigma(charge1, classes=([1, 0], [0, 1]), charge2=(1, 1, 1, 1)) -> str:
    simples = [{"label": l, "class": c} for l, c in zip((1, 2), classes)]
    heart = dict(A2_HEART, simples=simples)
    return json.dumps({"heart": heart, "charge": {"1": charge1, "2": list(charge2)}})


def a2_msc(charge1) -> str:
    level = {"simples": [1, 2], "charge": {"1": charge1, "2": [0, 1, 1, 1]}}
    return json.dumps({"schema": 1, "top_heart": A2_HEART, "levels": [level]})


def a2_msc_deep(charge2) -> str:
    """Simple 2 of A2 below simple 1, with ``charge2`` on level 1."""
    top = {"simples": [1, 2], "charge": {"1": [-1, 1, 1, 1], "2": [0, 1, 0, 1]}}
    deep = {"simples": [2], "charge": {"2": charge2}}
    return json.dumps({"schema": 1, "top_heart": A2_HEART, "levels": [top, deep]})


def a2_limit(family) -> list[str]:
    """``limit`` on A2 with the JSON ``family``."""
    return ["limit", "--heart", "A2", "--family", json.dumps(family)]


# Two simples that share the label 1.
REPEATED_LABEL_SIGMA = json.dumps({
    "heart": {
        "simples": [{"label": 1, "class": [1, 0]}, {"label": 1, "class": [0, 1]}],
        "extquiver": {"vertices": [1, 1], "arrows": [], "cycles": []},
    },
    "charge": {"1": [-1, 1, 1, 1]},
})


# Zero, negative, non-numeric and malformed values, offered to every option.
FUZZ_VALUES = [
    "0", "-1", "-7", "x", "", "1/0", "nan", "A0", "A-1", "[]", "{}",
    "{not json", "(", ")^3", "1,,2", "[[0]]", "[[1,-1]]", "(1 2", "i/0",
]


def fuzz_argvs(seed: int, count: int) -> list[list[str]]:
    """Seeded argvs for every subcommand; each option takes one of a few good
    values (small sizes only) or, half the time, one of ``FUZZ_VALUES``."""
    rng = random.Random(seed)

    def pick(*good):
        return rng.choice(FUZZ_VALUES if rng.random() < 0.5 else good)

    good_msc = a2_msc([-1, 1, 1, 1])
    makers = [
        lambda: ["tilt", "--heart", pick("A2", "A3"), "--word", pick("1,-2", "2,2,-1", "9")],
        lambda: ["exchange-graph", "--heart", pick("A2", "A3"), "--radius", pick("1", "3")],
        lambda: ["c-act", pick(a2_sigma([-1, 1, 1, 1]), a2_sigma([1, 0, 1, 1])),
                 "--lam", pick("1/2", "1/3+1/2i", "i")],
        lambda: ["msc-validate", pick(good_msc, a2_msc([1, 0, 1, 1]))],
        lambda: ["plumb", pick(good_msc), "--tau", pick("1/4-2i", "inf", "1/4-2i;1")],
        lambda: ["defect", pick(good_msc), "--lam", pick("1/4;i/2"), "--tau", pick("1/4-3i")],
        lambda: ["limit", "--heart", pick("A2", "A3"),
                 "--family", pick("(-1+it, 1+it)", "(t, 1)", "(0, 0)", "(-1+it)")],
        lambda: ["strata", "--n", pick("2", "4"), "--levels", pick("1", "3"),
                 *rng.choice([[], ["--poset"], ["--labeled"], ["--format", "dot"],
                              ["--format", "table"]])],
        lambda: ["braid", "--n", pick("2", "3"), "--word", pick("(1 2)^3", "1 2^-1", "[[1, 1]]")],
        lambda: ["twist-data", "--rho", pick("[[1,1]]", "[[2],[1]]", "[[1],[1,1]]")],
    ]
    return [rng.choice(makers)() for _ in range(count)]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def piped(capsys, monkeypatch, stdin: str, *argv):
    """``run`` with ``stdin`` as the standard input, for an argument ``-``."""
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    return run(capsys, *argv)


def printed(payload) -> str:
    """What the CLI prints for a JSON payload."""
    return json.dumps(payload, indent=2, default=str) + "\n"


class TestParsers:
    def test_laurent(self):
        from fractions import Fraction as F

        f = parse_laurent("-1+it")
        assert f.coeffs == {0: EC.from_gaussian(gr(-1)), 1: EC.from_gaussian(gr(0, 1))}
        g = parse_laurent("2it^2-3/4t+i/3")
        assert g.coeffs == {
            0: EC.from_gaussian(gr(0, F(1, 3))),
            1: EC.from_gaussian(gr(F(-3, 4))),
            2: EC.from_gaussian(gr(0, 2)),
        }
        h = parse_laurent("-t^-1+i")
        assert h.coeffs == {-1: EC.from_gaussian(gr(-1)), 0: EC.from_gaussian(gr(0, 1))}

    def test_family(self):
        fams = parse_family("(-1+it, 1+it)")
        assert len(fams) == 2
        assert fams[0].coeffs == {0: EC.from_gaussian(gr(-1)), 1: EC.from_gaussian(gr(0, 1))}

    def test_braid(self):
        w = parse_braid_word("(1 2)^3")
        assert w.letters == tuple([(1, 1), (2, 1)] * 3)
        w2 = parse_braid_word("1 2^-1")
        assert w2.letters == ((1, 1), (2, -1))
        w3 = parse_braid_word("[[1, 1], [2, -1]]")
        assert w3.letters == ((1, 1), (2, -1))

    @pytest.mark.parametrize("expr", ["2^3", "i^2", "3/4/5", "1/2i/3"])
    def test_laurent_rejects_what_it_cannot_read(self, expr):
        # ^k follows only t, and a term has at most one denominator
        with pytest.raises(UsageError, match=rf"^cannot parse term '{re.escape(expr)}'$"):
            parse_laurent(expr)

    @pytest.mark.parametrize(
        "expr, letters",
        [
            ("()^2", ()),
            ("((1)^2)^-1", ((1, -1), (1, -1))),
            ("-2^-1", ((2, 1),)),
            ("0", ((0, -1),)),
            ("1 (2 -3)^2 4^-2", ((1, 1), (2, 1), (3, -1), (2, 1), (3, -1), (4, -1), (4, -1))),
        ],
    )
    def test_braid_exponent_raises_the_last_item(self, expr, letters):
        assert parse_braid_word(expr).letters == letters

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("1^2^3", "exponent without a base"),
            ("(1)^2^3", "exponent without a base"),
            ("(^2)", "exponent without a base"),
            ("^2 1", "exponent without a base"),
            ("(1 2", "unbalanced '('"),
            ("1)", "unbalanced ')'"),
        ],
    )
    def test_braid_errors(self, expr, message):
        with pytest.raises(UsageError, match=re.escape(message)):
            parse_braid_word(expr)


class TestCommands:
    def test_strata_table(self, capsys):
        code, out, _ = run(capsys, "strata", "--n", "3", "--levels", "1", "--format", "table")
        assert code == 0
        rows = [l.split("\t") for l in out.strip().splitlines()[1:]]
        assert sorted(int(r[1]) for r in rows) == [3, 4, 6]

    def test_strata_labeled_counts(self, capsys):
        code, out, _ = run(capsys, "strata", "--n", "3", "--levels", "1", "--labeled")
        data = json.loads(out)
        assert data["labeled_total"] == 13
        assert data["unlabeled_total"] == 3

    def test_braid_minus_identity(self, capsys):
        code, out, _ = run(capsys, "braid", "--n", "2", "--word", "(1 2)^3")
        assert code == 0
        data = json.loads(out)
        assert data["matrix"] == [[-1, 0], [0, -1]]

    def test_limit_example(self, capsys):
        code, out, _ = run(
            capsys, "limit", "--heart", "A2", "--family", "(-1+it, 1+it)"
        )
        assert code == 0
        data = json.loads(out)
        assert data["rotation"] == [1, 64]
        levels = data["result"]["levels"]
        assert levels[1]["simples"] == [1]

    def test_limit_negative_exponent(self, capsys):
        code, out, _ = run(
            capsys, "limit", "--heart", "A2", "--family", "(-t^-1+i, 1+i)"
        )
        assert code == 0
        data = json.loads(out)
        assert data["rotation"] == [0, 1]
        assert [lvl["simples"] for lvl in data["result"]["levels"]] == [[1, 2], [2]]

    def test_limit_family_from_file_and_stdin(self, capsys, tmp_path, monkeypatch):
        family = {"1": [[0, -1, 1, 0, 1], [1, 0, 1, 1, 1]], "2": [[0, 1, 1, 0, 1], [1, 0, 1, 1, 1]]}
        _, expected, _ = run(capsys, *a2_limit(family))
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(family))
        assert run(capsys, "limit", "--heart", "A2", "--family", str(path)) == (0, expected, "")
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(family)))
        assert run(capsys, "limit", "--heart", "A2", "--family", "-") == (0, expected, "")

    def test_limit_family_json_must_be_an_object(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text('["1", "2"]')
        code, out, err = run(capsys, "limit", "--heart", "A2", "--family", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("usage error: --family JSON must be an object")
        assert err.count("\n") == 1

    def test_limit_non_gaussian_family(self, capsys):
        family = {
            "1": [[0, {"rot": [-1, 3], "scale": [0, 1], "gauss": [1, 1, 0, 1]}]],
            "2": [[0, -1, 1, 0, 1]],
        }
        code, out, _ = run(capsys, *a2_limit(family))
        assert code == 0
        data = json.loads(out)
        assert data["rotation"] == [0, 1]
        [level] = data["result"]["levels"]
        assert {l: EC.from_json(v) for l, v in level["charge"].items()} == {
            "1": EC.unit(F(-1, 3)), "2": EC.rational(-1)
        }

    def test_limit_with_every_schedule_value_blocked(self, capsys):
        """(1 + it, e^(i pi/64), e^(i pi/32), ..., e^(i pi/4)) on A6 is admissible,
        but each schedule value puts a lead on the positive real axis, so
        ``limit`` exits 1 with one line saying so.  Once the schedule has a
        fallback rotation (ROADMAP item 13), this family returns a limit."""
        family = {"1": [[0, 1, 1, 0, 1], [1, 0, 1, 1, 1]]}
        for l, q in zip(range(2, 7), (64, 32, 16, 8, 4)):
            family[str(l)] = [[0, {"rot": [-1, q], "scale": [0, 1], "gauss": [1, 1, 0, 1]}]]
        code, out, err = run(capsys, "limit", "--heart", "A6", "--family", json.dumps(family))
        assert (code, out) == (1, "")
        assert err == ("validation failure: each schedule value, 1/64 to 1/4, puts some "
                       "indecomposable's leading coefficient on the positive real axis\n")

    def test_twist_data(self, capsys):
        code, out, _ = run(capsys, "twist-data", "--rho", "[[2]]")
        data = json.loads(out)
        lvl = data["levels"][0]
        assert lvl["ell"] == 5
        assert lvl["components"][0]["kappa_hat"] == 5

    def test_tilt(self, capsys):
        code, out, _ = run(capsys, "tilt", "--heart", "A2", "--word", "2")
        data = json.loads(out)
        classes = {s["label"]: s["class"] for s in data["heart"]["simples"]}
        assert classes == {1: [1, 1], 2: [0, -1]}

    def test_exchange_graph_dot(self, capsys):
        code, out, _ = run(
            capsys, "exchange-graph", "--heart", "A2", "--radius", "1",
            "--format", "dot",
        )
        assert code == 0 and out.startswith("digraph")

    def test_c_act(self, capsys):
        payload = json.dumps(
            {
                "heart": {
                    "simples": [
                        {"label": 1, "class": [1, 0]},
                        {"label": 2, "class": [0, 1]},
                    ],
                    "extquiver": {
                        "vertices": [1, 2],
                        "arrows": [[1, 2]],
                        "cycles": [],
                    },
                },
                "charge": {"1": [-2, 1, 1, 1], "2": [1, 1, 1, 1]},
            }
        )
        code, out, _ = run(capsys, "c-act", payload, "--lam", "1/2")
        assert code == 0
        data = json.loads(out)
        charge = data["result"]["charge"]
        assert charge["2"] == [-1, 1, 1, 1]

    def test_c_act_reads_its_output(self, capsys):
        code, out, _ = run(capsys, "c-act", a2_sigma([-2, 1, 1, 1]), "--lam", "1/3")
        assert code == 0
        once = json.dumps(json.loads(out)["result"])
        code, out, _ = run(capsys, "c-act", once, "--lam", "1/3")
        assert code == 0
        twice = StabilityCondition.from_json(json.loads(out)["result"])
        code, out, _ = run(capsys, "c-act", a2_sigma([-2, 1, 1, 1]), "--lam", "2/3")
        direct = StabilityCondition.from_json(json.loads(out)["result"])
        assert canonical_form(twice.heart) == canonical_form(direct.heart)
        for c in direct.heart.classes:
            assert twice.value(c) == direct.value(c)

    def test_msc_validate_and_plumb(self, capsys):
        msc = {
            "schema": 1,
            "top_heart": {
                "simples": [
                    {"label": 1, "class": [1, 1]},
                    {"label": 2, "class": [0, -1]},
                ],
                "extquiver": {
                    "vertices": [1, 2],
                    "arrows": [[2, 1]],
                    "cycles": [],
                },
            },
            "levels": [
                {"simples": [1, 2], "charge": {"1": [0, 1, 0, 1], "2": [-1, 1, 0, 1]}},
                {"simples": [1], "charge": {"1": [1, 1, 0, 1]}},
            ],
        }
        code, out, _ = run(capsys, "msc-validate", json.dumps(msc))
        assert code == 0
        data = json.loads(out)
        assert data["levels_below_zero"] == 1 and data["rho"] == [[1]]
        code, out, _ = run(capsys, "plumb", json.dumps(msc), "--tau", "1-2i")
        assert code == 0
        assert json.loads(out)["result"]["levels"][0]["simples"] == [1, 2]

    def test_defect_table(self, capsys):
        msc = {
            "schema": 1,
            "top_heart": {
                "simples": [
                    {"label": 1, "class": [1, 1]},
                    {"label": 2, "class": [0, -1]},
                ],
                "extquiver": {
                    "vertices": [1, 2],
                    "arrows": [[2, 1]],
                    "cycles": [],
                },
            },
            "levels": [
                {"simples": [1, 2], "charge": {"1": [0, 1, 0, 1], "2": [-1, 1, 0, 1]}},
                {"simples": [1], "charge": {"1": [1, 1, 0, 1]}},
            ],
        }
        code, out, _ = run(
            capsys, "defect", json.dumps(msc), "--lam", "1/4;i/2",
            "--tau", "1/4-3i", "--format", "table",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.endswith("True") for line in lines[1:])

    def test_defect_json_rows_are_the_defect_fields(self, capsys):
        msc = a2_msc_deep([-1, 1, 0, 1])
        code, out, err = run(capsys, "defect", msc, "--lam", "1/4;i/2",
                             "--tau", "1/4-3i;1/2-1/2i", "--format", "json")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["schema"] == 1
        m = MultiScaleStab.from_json(json.loads(msc))
        expected = []
        for lam in ("1/4", "i/2"):
            for tau in ("1/4-3i", "1/2-1/2i"):
                r = commutation_defect(m, parse_rational_complex(lam), parse_rational_complex(tau))
                expected.append({"lam": lam, "tau": tau, "max_defect": r.max_simple_defect,
                                 "bound": r.bound, "within_bound": r.within_bound})
        assert data["rows"] == expected


class TestPipelines:
    """Each JSON output fed through ``-`` to a command that reads its kind,
    against the same composition in-process."""

    @pytest.mark.parametrize("w1, w2", [("2", "-1"), ("1,-3", "2,2"), ("3,-2", "-3,1")])
    def test_tilt_then_tilt(self, capsys, monkeypatch, w1, w2):
        code, once, _ = run(capsys, "tilt", "--heart", "A3", "--word", w1)
        assert code == 0
        code, twice, err = piped(capsys, monkeypatch, once, "tilt", "--heart", "-", f"--word={w2}")
        assert (code, err) == (0, "")
        word = [(abs(int(x)), 1 if int(x) > 0 else -1) for x in f"{w1},{w2}".split(",")]
        expected = apply_tilt_word(standard_heart(3), word)
        assert twice == printed({"schema": 1, "heart": expected.to_json()})

    @pytest.mark.parametrize("a, b", [("1/3", "1/3"), ("1/2+1/3i", "-1/4"), ("i/2", "2/3")])
    def test_c_act_then_c_act(self, capsys, monkeypatch, a, b):
        sigma = a2_sigma([-2, 1, 1, 1])
        code, once, _ = run(capsys, "c-act", sigma, f"--lam={a}")
        assert code == 0
        code, twice, err = piped(capsys, monkeypatch, once, "c-act", "-", f"--lam={b}")
        assert (code, err) == (0, "")
        s0 = StabilityCondition.from_json(json.loads(sigma))
        expected = c_act(c_act(s0, parse_rational_complex(a)), parse_rational_complex(b))
        assert twice == printed({"schema": 1, "result": expected.to_json()})

    @pytest.mark.parametrize("family", ["(-1+it, 1+it)", "(-t^-1+i, 1+i)"])
    def test_limit_then_plumb_then_validate(self, capsys, monkeypatch, family):
        code, limit, _ = run(capsys, "limit", "--heart", "A2", "--family", family)
        assert code == 0
        code, plumbed, err = piped(capsys, monkeypatch, limit, "plumb", "-", "--tau", "1/4-2i")
        assert (code, err) == (0, "")
        zc = LaurentCharge.build(dict(zip((1, 2), parse_family(family))))
        m, _ = extract_limit(standard_heart(2), zc)
        expected = plumb(m, [(F(1, 4), F(-2))])
        assert plumbed == printed({"schema": 1, "result": expected.to_json()})
        code, out, err = piped(capsys, monkeypatch, plumbed, "msc-validate", "-")
        assert (code, err) == (0, "")
        assert out == printed({
            "schema": 1, "valid": True, "levels_below_zero": expected.L,
            "rho": [list(r) for r in type_rho(expected)],
        })

    def test_envelope_and_bare_object_read_alike(self, capsys, tmp_path):
        _, limit, _ = run(capsys, "limit", "--heart", "A2", "--family", "(-1+it, 1+it)")
        envelope = tmp_path / "limit.json"
        envelope.write_text(limit)
        bare = json.dumps(json.loads(limit)["result"])
        for reader in (["msc-validate"], ["plumb", "--tau", "1/4-2i"],
                       ["defect", "--lam", "1/4", "--tau", "1/4-3i"]):
            code, out, _ = run(capsys, reader[0], str(envelope), *reader[1:])
            assert code == 0
            assert run(capsys, reader[0], bare, *reader[1:]) == (0, out, "")

    def test_rho_from_stdin(self, capsys, monkeypatch):
        _, expected, _ = run(capsys, "twist-data", "--rho", "[[1,1]]")
        assert piped(capsys, monkeypatch, "[[1,1]]", "twist-data", "--rho", "-") == (0, expected, "")

    def test_defect_table_ignores_precision_env(self, capsys, monkeypatch):
        _, limit, _ = run(capsys, "limit", "--heart", "A2", "--family", "(-1+it, 1+it)")
        argv = ["defect", limit, "--lam", "1/4", "--tau", "1/4-3i"]
        _, expected, _ = run(capsys, *argv)
        monkeypatch.setenv("MSTAB_PRECISION", "5")
        assert run(capsys, *argv) == (0, expected, "")
        bound = expected.splitlines()[1].split("\t")[3]
        assert bound == f"{float(bound):.17g}"

    @pytest.mark.parametrize("argv", [
        ["tilt", "--heart", "A3", "--word", "2", "--format", "table"],
        ["c-act", a2_sigma([-2, 1, 1, 1]), "--lam", "1/3", "--format", "json"],
        ["twist-data", "--rho", "[[1,1]]", "--format", "table"],
        ["--precision", "5", "strata", "--n", "2"],
        ["strata", "--n", "2", "--poset", "--format", "table"],
    ])
    def test_removed_knobs_exit_2(self, capsys, argv):
        assert main(argv) == 2
        capsys.readouterr()


class TestValuesStartingWithDash:
    """--lam, --tau, --word and --family take a value that starts with "-",
    spaced or after "="; a value that is missing is still a usage error."""

    @pytest.mark.parametrize(
        "head, option, value, tail",
        [
            (["c-act", a2_sigma([-2, 1, 1, 1])], "--lam", "-1/4", []),
            (["c-act", a2_sigma([-2, 1, 1, 1])], "--lam", "-i/2", []),
            (["plumb", a2_msc_deep([0, 1, 1, 1])], "--tau", "-1/4-2i", []),
            (["defect", a2_msc_deep([0, 1, 1, 1])], "--lam", "-i/2", ["--tau", "1/4-3i"]),
            (["defect", a2_msc_deep([0, 1, 1, 1]), "--lam", "1/4"], "--tau", "-3i+1/4", []),
            (["tilt", "--heart", "A3"], "--word", "-1,2", []),
            (["limit", "--heart", "A2"], "--family", "-1+it, 1+it", []),
        ],
    )
    def test_spaced_and_equals_forms_agree(self, capsys, head, option, value, tail):
        spaced = run(capsys, *head, option, value, *tail)
        joined = run(capsys, *head, f"{option}={value}", *tail)
        assert spaced[0] == 0 and spaced[2] == ""
        assert spaced == joined

    def test_family_file_starting_with_dash(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        family = {"1": [[0, -1, 1, 0, 1]], "2": [[0, 1, 1, 1, 1]]}
        (tmp_path / "-fam.json").write_text(json.dumps(family))
        code, out, err = run(capsys, "limit", "--heart", "A2", "--family", "-fam.json")
        assert (code, err) == (0, "") and json.loads(out)["schema"] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["c-act", a2_sigma([-2, 1, 1, 1]), "--lam"],
            ["plumb", a2_msc_deep([0, 1, 1, 1]), "--tau"],
            ["tilt", "--heart", "A3", "--word"],
            ["tilt", "--word", "--heart", "A3"],
            ["limit", "--heart", "A2", "--family"],
        ],
    )
    def test_missing_value_is_one_usage_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: argument ") and err.count("\n") == 1


class TestExitCodes:
    def test_malformed_json_is_usage_error(self, capsys, monkeypatch, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"a": ')
        for code, _, err in [
            run(capsys, "msc-validate", "{not json"),
            piped(capsys, monkeypatch, '{"a": ', "c-act", "-", "--lam", "0"),
            run(capsys, "c-act", str(bad), "--lam", "0"),
            run(capsys, "braid", "--n", "3", "--word", "[[1,"),
        ]:
            assert code == 2 and err.startswith("usage error: ") and err.count("\n") == 1, err

    def test_invalid_msc_is_failure(self, capsys):
        bad = {
            "schema": 1,
            "top_heart": {
                "simples": [
                    {"label": 1, "class": [1, 0]},
                    {"label": 2, "class": [0, 1]},
                ],
                "extquiver": {
                    "vertices": [1, 2],
                    "arrows": [[1, 2]],
                    "cycles": [],
                },
            },
            "levels": [
                {
                    "simples": [1, 2],
                    # simple 1 on the positive real axis: invalid at level 0
                    "charge": {"1": [1, 1, 0, 1], "2": [0, 1, 1, 1]},
                }
            ],
        }
        code, _, err = run(capsys, "msc-validate", json.dumps(bad))
        assert code == 1
        assert "half plane" in err

    def test_charge_on_a_label_off_the_heart_is_failure(self, capsys):
        sigma = a2_sigma([-1, 1, 1, 1]).replace('"2":', '"7": [5, 1, 0, 1], "2":')
        code, out, err = run(capsys, "c-act", sigma, "--lam", "1/2")
        assert (code, out) == (1, "")
        assert err.startswith("validation failure: charge given on label 7")
        assert err.count("\n") == 1

    def test_unknown_command(self, capsys):
        code = main(["frobnicate"])
        assert code == 2

    def test_closed_pipe_exits_quietly(self, capsys, monkeypatch):
        """A reader that closes the pipe early ends the output with status 0,
        nothing on stderr, and stdout pointed at the null device."""

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        code = main(["exchange-graph", "--heart", "A3", "--radius", "2"])
        stdout = sys.stdout
        stdout.close()
        assert code == 0 and stdout.name == os.devnull
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["tilt", "--heart", "A3", "--word", "x"],
            ["tilt", "--heart", "A3", "--word", "5"],
            ["braid", "--n", "2", "--word", "7"],
            ["twist-data", "--rho", "[[0]]"],
            ["exchange-graph", "--heart", "A2", "--radius", "-1"],
            ["strata", "--n", "3", "--levels", "0"],
            ["strata", "--n", "3", "--levels", "-1"],
            ["strata", "--n", "0"],
            ["strata", "--n", "-1"],
            ["msc-validate", "."],
            ["c-act", a2_sigma([-1, 1, 1, 1], classes=[[2, 0], [0, 1]]), "--lam", "1/2"],
            ["msc-validate", a2_msc([1, 0, 1, 1])],
            ["msc-validate", a2_msc({"re": float("inf"), "im": 1.0})],
            ["c-act", a2_sigma([1, 0, 1, 1]), "--lam", "1/2"],
            ["c-act", a2_sigma([-2, 1, 1, 1]), "--lam", "1/0"],
            ["limit", "--heart", "A2", "--family", "(1/0+it, 1+it)"],
            ["plumb", a2_msc([-1, 1, 1, 1]), "--tau", "1/0-2i"],
            [
                "limit", "--heart", "A2", "--family",
                '{"1": [[0, 1, 0, 1, 1]], "2": [[0, 1, 1, 1, 1]]}',
            ],
            ["c-act", REPEATED_LABEL_SIGMA, "--lam", "1/2"],
            ["c-act", a2_sigma([-1, 1, 1, 1], classes=[[1.0, 0], [0, 1]]), "--lam", "1/2"],
            ["twist-data", "--rho", "[[true,2]]"],
            ["twist-data", "--rho", "[[1],[true]]"],
            ["braid", "--n", "2", "--word", "abc"],
            ["braid", "--n", "2", "--word", "1 x 2"],
            ["braid", "--n", "2", "--word", "1^x"],
            ["braid", "--n", "2", "--word", "[[1.5,1]]"],
            ["braid", "--n", "2", "--word", "[[true,1]]"],
            ["braid", "--n", "2", "--word", "[[1,true]]"],
            ["c-act", a2_sigma([True, 1, 1, 1]), "--lam", "1/2"],
            ["c-act", a2_sigma([-1, 1, 1.0, 1]), "--lam", "1/2"],
            a2_limit({"1": [[0.5, -1, 1, 0, 1], [1, 0, 1, 1, 1]], "2": [[0, 1, 1, 1, 1]]}),
            a2_limit({"1": [[True, -1, 1, 0, 1]], "2": [[0, 1, 1, 1, 1]]}),
            a2_limit({"1": [[0, 1, 1, 0, 1], [0, -2, 1, 0, 1], [1, 0, 1, 1, 1]],
                      "2": [[0, 1, 1, 1, 1]]}),
            a2_limit({"1": [[0, -1, 1, 0, 1]], "2": [[0, 1, 1, 1, 1]], "7": [[0, 0, 1, 1, 1]]}),
            a2_limit({"1": [[0, -1, 1, 0, 1]]}),
            # JSON true and 1.0 equal 1 but are not labels, vertices or integers
            ["tilt", "--heart", json.dumps(dict(A2_HEART, simples=[
                {"label": True, "class": [1, 0]}, {"label": 2, "class": [0, 1]}])), "--word", "2"],
            ["tilt", "--heart", json.dumps(dict(A2_HEART, extquiver={
                "vertices": [1.0, 2], "arrows": [[1.0, 2]]})), "--word", "2"],
            ["tilt", "--heart", json.dumps(dict(A2_HEART, provenance={"word": [[2, True]]})),
             "--word", "2"],
            ["c-act", a2_sigma({"re": True, "im": True}), "--lam", "1/2"],
            # a charge key is the decimal string of a label, and names it once
            ["c-act", json.dumps({"heart": A2_HEART, "charge": {
                "1": [-1, 1, 1, 1], "01": [0, 1, 1, 1], "2": [0, 1, 1, 1]}}), "--lam", "0"],
            ["c-act", json.dumps({"heart": A2_HEART, "charge": {
                "1": [-1, 1, 1, 1], " 2 ": [0, 1, 1, 1]}}), "--lam", "0"],
            ["c-act", json.dumps({"heart": A2_HEART, "charge": {
                "0_1": [-1, 1, 1, 1], "2": [0, 1, 1, 1]}}), "--lam", "0"],
            ["c-act", a2_sigma([-1, 1, 1, 1]).replace('"2":', '"1": [0, 1, 1, 1], "2":'),
             "--lam", "0"],
            ["msc-validate",
             a2_msc([-1, 1, 1, 1]).replace('"simples": [1, 2]', '"simples": [7, 8, 9]')],
            # ^k follows only t, and a term has at most one denominator
            ["c-act", a2_sigma([-1, 1, 1, 1]), "--lam", "2^3"],
            ["c-act", a2_sigma([-1, 1, 1, 1]), "--lam", "i^2"],
            ["c-act", a2_sigma([-1, 1, 1, 1]), "--lam", "3/4/5"],
            ["c-act", a2_sigma([-1, 1, 1, 1]), "--lam", "1/2i/3"],
            # a tilt step is one optional sign and ASCII digits
            ["tilt", "--heart", "A3", "--word=+-2"],
            ["tilt", "--heart", "A3", "--word=--2"],
            ["tilt", "--heart", "A3", "--word=-+2"],
            ["tilt", "--heart", "A10", "--word", "1_0"],
            # provenance is an object
            ["tilt", "--heart", json.dumps(dict(A2_HEART, provenance=5)), "--word", "2"],
            ["tilt", "--heart", json.dumps(dict(A2_HEART, provenance=[])), "--word", "2"],
            # one --tau entry per level passage, each 'inf' or a rational complex
            ["plumb", a2_msc_deep([0, 1, 1, 1]), "--tau", ""],
            ["plumb", a2_msc_deep([0, 1, 1, 1]), "--tau", "1/4-2i;"],
            ["plumb", a2_msc_deep([0, 1, 1, 1]), "--tau", "inf;1/4-2i"],
            ["plumb", a2_msc_deep([0, 1, 1, 1]), "--tau", "oo"],
            ["plumb", a2_msc_deep([0, 1, 1, 1]), "--tau", "-ioo"],
        ],
    )
    def test_bad_value_is_usage_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("usage error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("tau, message", [
        ("", "--tau entry 1 is empty"),
        ("1/4-2i;", "--tau takes one entry per level passage: the object has 1, got 2"),
    ])
    def test_plumb_names_the_bad_tau_entry(self, capsys, tau, message):
        code, out, err = run(capsys, "plumb", a2_msc_deep([0, 1, 1, 1]), "--tau", tau)
        assert (code, out, err) == (2, "", f"usage error: {message}\n")

    def test_defect_beyond_the_float_range_is_failure(self, capsys, monkeypatch):
        _, limit, _ = run(capsys, "limit", "--heart", "A2", "--family", "(-1+it, 1+it)")
        code, out, err = piped(capsys, monkeypatch, limit, "defect", "-",
                               "--lam", "300i", "--tau", "1/4-3i")
        assert (code, out) == (1, "")
        assert err == ("validation failure: the defect at lam = 0+300i, tau = 1/4-3i "
                       "leaves the float range\n")

    def test_output_beyond_the_float_range_is_strict_json(self, capsys):
        """The derived floats of a sum of atoms are left out once they leave
        the double range, so no ``Infinity`` reaches the output."""
        two_atoms = {"atoms": [{"rot": [1, 7], "scale": [0, 1], "gauss": [0, 1, 1, 1]},
                               {"rot": [1, 5], "scale": [0, 1], "gauss": [1, 1, 1, 1]}]}
        code, out, err = run(capsys, "c-act", a2_sigma(two_atoms), "--lam", "300i")
        assert (code, err) == (0, "")

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        charge = json.loads(out, parse_constant=refuse)["result"]["charge"]["1"]
        assert len(charge["atoms"]) == 2 and "re" not in charge and "im" not in charge

    @pytest.mark.parametrize("scale", [10**30, -10**30])
    def test_plumb_at_a_huge_scale_finishes(self, capsys, scale):
        """The sign filter reads an enclosure's size from its exponent before
        it builds the exact ends, so e^(pi * 10^30) costs no more than e^pi."""
        two_atom = json.loads(a2_msc_deep({"atoms": [
            {"rot": [1, 7], "scale": [-1, 1], "gauss": [1, 1, 0, 1]},
            {"rot": [1, 5], "scale": [scale, 1], "gauss": [1, 1, 1, 1]}]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "plumb", json.dumps(two_atom), "--tau", "1/4-2i")
        assert time.perf_counter() - start < 5
        assert (code, err) == (0, "")
        assert MultiScaleStab.from_json(json.loads(out)["result"])

    def test_family_labels_are_listed_in_numeric_order(self, capsys):
        family = {str(l): [[0, 1, 1, 1, 1]] for l in range(1, 12)}
        code, out, err = run(capsys, "limit", "--heart", "A10", "--family", json.dumps(family))
        assert (code, out) == (2, "")
        assert err == ("usage error: family labels 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11 are not "
                       "the heart's simples 1, 2, 3, 4, 5, 6, 7, 8, 9, 10\n")

    @pytest.mark.parametrize("word", ["[1]", "[[1]]", "[[1, 1, 1]]"])
    def test_braid_word_that_is_not_letters_is_quoted(self, capsys, word):
        code, out, err = run(capsys, "braid", "--n", "3", "--word", word)
        assert (code, out) == (2, "")
        assert err == f"usage error: a braid word is a list of [generator, +-1] letters, got {word}\n"

    @pytest.mark.parametrize(
        "argv, where",
        [
            (["c-act", a2_sigma([-1, 1, 1, 1], charge2=[1, 1, 1, 0]), "--lam", "1/2"],
             "simple 2: zero denominator"),
            (["c-act", a2_sigma({"gauss": [1, 1, 1, 1]}), "--lam", "1/2"],
             "simple 1: missing field 'rot'"),
            (["msc-validate", a2_msc_deep([1, 0, 1, 1])], "level 1 simple 2: zero denominator"),
            (["c-act", json.dumps({"heart": A2_HEART, "charge": []}), "--lam", "1/2"],
             "charge is not a map"),
            (["msc-validate", json.dumps({"top_heart": A2_HEART, "levels": [{"charge": []}]})],
             "level 0 charge is not a map"),
            (["c-act", a2_sigma([True, 1, 1, 1]), "--lam", "1/2"],
             "simple 1: expected 4 integers, got [True, 1, 1, 1]"),
            (["c-act", a2_sigma([-1, 1, 1.0, 1]), "--lam", "1/2"],
             "simple 1: expected 4 integers, got [-1, 1, 1.0, 1]"),
            (a2_limit({"1": [[0, 5]], "2": [[0, 1, 1, 1, 1]]}),
             "simple 1, exponent 0: expected a charge value, got 5"),
            (a2_limit({"1": [[0, {"gauss": [1, 1, 0, 1]}]], "2": [[0, 1, 1, 1, 1]]}),
             "simple 1, exponent 0: missing field 'rot'"),
            (a2_limit({"1": [[0, -1, 1, 0, 1]], "2": [[2, {"rot": [1, 3], "scale": [0, 1],
                                                       "gauss": [1, 1]}]]}),
             "simple 2, exponent 2: field 'gauss': expected 4 integers, got [1, 1]"),
            (a2_limit({"1": [[0]], "2": [[0, 1, 1, 1, 1]]}),
             "simple 1: term [0] is not [k, coefficient]"),
            (a2_limit({"1": [[0, -1, 1, 0, 1]], "2": 5}), "simple 2: terms 5 are not a list"),
            (["c-act", a2_sigma({"re": float("inf"), "im": 1.5}), "--lam", "1/2"],
             "simple 1: expected finite numbers re and im"),
        ],
    )
    def test_charge_decode_errors_say_where(self, capsys, argv, where):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"usage error: {where}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "n, arrows, cycles, where",
        [
            (2, [[1, 1]], [], "loop at vertex 1"),
            (2, [[1, 3]], [], "arrow (1,3) leaves the vertex set"),
            (2, [[1, 2], [1, 2]], [], "parallel arrows (1,2)"),
            (2, [[1, 2]], [[[1, 2]]], "cycle ((1, 2),) is not an oriented 3-cycle of the arrows"),
            (3, [[1, 2], [2, 3]], [[[1, 2], [2, 3], [3, 1]]],
             "cycle ((1, 2), (2, 3), (3, 1)) is not an oriented 3-cycle of the arrows"),
            (3, [[1, 2], [2, 3], [1, 3]], [[[1, 2], [2, 3], [1, 3]]],
             "arrow (2, 3) lies on a cycle that is not an oriented 3-cycle"),
            (4, [[1, 2], [2, 3], [3, 1], [3, 4], [4, 2]],
             [[[1, 2], [2, 3], [3, 1]], [[2, 3], [3, 4], [4, 2]]],
             "arrow (2, 3) lies in two 3-cycles"),
            (4, [[1, 3], [2, 3], [3, 4]], [],
             "vertex 3 has 3 neighbours and 3 arrows outside 3-cycles, which type A does not allow"),
            (3, [[1, 2], [2, 3], [3, 1]], [],
             "the oriented 3-cycle ((1, 2), (2, 3), (3, 1)) is missing from cycles"),
            (3, [[1, 2], [3, 2]], [[[1, 2], [2, 3], [3, 1]]],
             "cycle ((1, 2), (2, 3), (3, 1)) is not an oriented 3-cycle of the arrows"),
            (2, [[1, 2]], [[]], "cycle () is not an oriented 3-cycle of the arrows"),
            (2, [[1, 2]], [[1]], "cycle [1] is not a list of [tail, head] arrows"),
            (2, [[1, 2]], [1], "cycle 1 is not a list of [tail, head] arrows"),
            (2, [[1, 2]], "x", "cycles 'x' is not a list"),
            (2, [[1]], [], "arrow [1] is not a pair [tail, head]"),
            (2, [[1, 2, 3]], [], "arrow [1, 2, 3] is not a pair [tail, head]"),
        ],
    )
    def test_quiver_errors_say_where(self, capsys, n, arrows, cycles, where):
        """Heart JSON whose ext-quiver breaks a quiver rule, is not of mutation
        type A (the D4 tree), lists other cycles than the oriented 3-cycles
        of its arrows or holds an entry that is not an arrow or a list of
        arrows exits 2 with one line naming the vertex, arrow or cycle."""
        heart = standard_heart(n).to_json()
        heart["extquiver"].update(arrows=arrows, cycles=cycles)
        code, _, err = run(capsys, "tilt", "--heart", json.dumps(heart), "--word", "1")
        assert (code, err) == (2, f"usage error: {where}\n")

    def test_float_charge_takes_any_integer(self, capsys):
        # an integer beyond the float range is finite and read exactly
        code, _, err = run(capsys, "c-act", a2_sigma({"re": 10**400, "im": 1}), "--lam", "1/2")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("rho", ["{}", "[]", '{"1":2}', '"x"', "[1, 2]", "[[1], 2]"])
    def test_rho_must_be_a_list_of_lists(self, capsys, rho):
        code, out, err = run(capsys, "twist-data", "--rho", rho)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: --rho must be a non-empty JSON list of lists")
        assert err.count("\n") == 1

    def test_undecidable_sign_is_failure(self, capsys):
        # e^(-i*pi/3) + e^(i*pi/3) - 1 is zero, but its sign is not certified
        zero = EC.unit(F(1, 3)) + EC.unit(F(-1, 3)) - EC.rational(1)
        code, _, err = run(capsys, "msc-validate", a2_msc(zero.to_json()))
        assert code == 1
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_bad_family_arity(self, capsys):
        code, _, err = run(
            capsys, "limit", "--heart", "A3", "--family", "(-1+it, 1+it)"
        )
        assert code == 2

    def test_fuzzed_arguments_exit_cleanly(self, capsys):
        for argv in fuzz_argvs(seed=6, count=400):
            code = main(argv)
            capsys.readouterr()
            assert code in (0, 1, 2), argv
