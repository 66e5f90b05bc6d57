"""Command-line driver: every subsystem behind one executable.

Subcommands: tilt, exchange-graph, c-act, msc-validate, plumb, defect,
limit, strata, braid, twist-data.  Exit status 0 on success, 1 when a
validation fails, 2 on usage errors (including malformed JSON).

Output is versioned JSON (``"schema": 1``) except for the formats a command
renders itself: ``exchange-graph --format dot``, ``strata --format dot`` or
``table``, and ``defect``, whose default is a table (``--format json`` for
JSON).  A JSON argument is inline text, a path, or ``-`` for stdin.  Each
JSON output is accepted by every command that reads its kind, as the bare
object or inside its envelope: a heart (``tilt``'s ``heart``) by
``--heart``; a stability condition (``c-act``'s ``result``) by ``c-act``; a
multi-scale object (the ``result`` of ``plumb`` and ``limit``) by
``msc-validate``, ``plumb`` and ``defect``.  For example::

    anstab limit --heart A2 --family '(-1+it, 1+it)' | anstab plumb - --tau '1/4-2i'
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import hearts as H
from . import klattice as K
from . import limits as LIM
from . import multiscale as MS
from . import strata as ST
from .anquiver import make_linear
from .exact import EC, AnstabError, Laurent
from .stability import StabilityCondition, c_act

SCHEMA = 1


class UsageError(AnstabError):
    pass


# ---------------------------------------------------------------------------
# Small parsers


_TERM = re.compile(
    r"^(?P<sign>[+-]?)(?P<num>\d+)?(?:/(?P<den>\d+))?(?P<i>i)?(?P<t>t)?(?:\^(?P<pow>-?\d+))?"
    r"(?:/(?P<den2>\d+))?$"
)


def _split_terms(expr: str) -> list[str]:
    expr = expr.replace(" ", "")
    if not expr:
        raise UsageError("empty expression")
    terms = []
    start = 0
    for i, ch in enumerate(expr):
        if ch in "+-" and i > start and expr[i - 1] != "^":
            terms.append(expr[start:i])
            start = i
    terms.append(expr[start:])
    return terms


def parse_laurent(expr: str) -> Laurent:
    """Parse '-1+it', '2it^2-3/4t', 'i/3' into a Laurent polynomial."""
    coeffs: dict[int, list[Fraction]] = {}
    for term in _split_terms(expr):
        m = _TERM.match(term)
        if not m or (m.group("num") is None and m.group("i") is None and m.group("t") is None):
            raise UsageError(f"cannot parse term {term!r}")
        num = Fraction(int(m.group("num") or 1))
        den = m.group("den") or m.group("den2")
        if den:
            if int(den) == 0:
                raise UsageError(f"zero denominator in {term!r}")
            num /= int(den)
        if m.group("sign") == "-":
            num = -num
        power = int(m.group("pow") or (1 if m.group("t") else 0))
        if not m.group("t"):
            power = 0
        re_im = coeffs.setdefault(power, [Fraction(0), Fraction(0)])
        if m.group("i"):
            re_im[1] += num
        else:
            re_im[0] += num
    return Laurent({k: EC.rational(a, b) for k, (a, b) in coeffs.items()})


def parse_rational_complex(expr: str) -> tuple[Fraction, Fraction]:
    poly = parse_laurent(expr)
    if any(k != 0 for k in poly.coeffs):
        raise UsageError(f"{expr!r} must not involve t")
    c = poly.coeff(0).as_gaussian()
    return c.re, c.im


def parse_family(expr: str) -> list[Laurent]:
    expr = expr.strip()
    if expr.startswith("(") and expr.endswith(")"):
        expr = expr[1:-1]
    return [parse_laurent(part) for part in expr.split(",")]


def parse_braid_word(expr: str) -> K.BraidWord:
    """Parse '(1 2)^3', '1 2 1^-1', or JSON [[i, e], ...]."""
    expr = expr.strip()
    if expr.startswith("["):
        return K.BraidWord.from_json(json.loads(expr))
    token = r"\(|\)|\^-?\d+|-?\d+"
    if not re.fullmatch(rf"(?:\s*(?:{token}))*\s*", expr):
        raise UsageError(f"cannot parse braid word {expr!r}")
    tokens = re.findall(token, expr)
    def parse_seq(pos: int, stop_at_close: bool):
        letters: list[tuple[int, int]] = []
        while pos < len(tokens):
            tok = tokens[pos]
            if tok == ")":
                if not stop_at_close:
                    raise UsageError("unbalanced ')'")
                return letters, pos
            if tok == "(":
                inner, pos = parse_seq(pos + 1, True)
                pos += 1
                power = 1
                if pos < len(tokens) and tokens[pos].startswith("^"):
                    power = int(tokens[pos][1:])
                    pos += 1
                letters.extend(K.BraidWord(tuple(inner)).__pow__(power).letters)
                continue
            if tok.startswith("^"):
                raise UsageError("exponent without a base")
            gen = int(tok)
            power = 1
            if pos + 1 < len(tokens) and tokens[pos + 1].startswith("^"):
                power = int(tokens[pos + 1][1:])
                pos += 1
            letters.extend(K.BraidWord(((abs(gen), 1 if gen > 0 else -1),)).__pow__(power).letters)
            pos += 1
        if stop_at_close:
            raise UsageError("unbalanced '('")
        return letters, pos

    letters, _ = parse_seq(0, False)
    return K.BraidWord.build(letters)


def _unique_keys(pairs):
    """``object_pairs_hook``: an object naming one key twice is a usage error,
    where ``json`` would keep the last value silently."""
    obj = {}
    for k, v in pairs:
        if k in obj:
            raise UsageError(f"key {k!r} appears twice in one JSON object")
        obj[k] = v
    return obj


def _load_json_arg(arg: str):
    if arg == "-":
        return json.load(sys.stdin, object_pairs_hook=_unique_keys)
    if os.path.exists(arg):
        try:
            with open(arg) as fh:
                return json.load(fh, object_pairs_hook=_unique_keys)
        except OSError as exc:
            raise UsageError(f"cannot read {arg!r}: {exc.strerror}") from exc
    try:
        return json.loads(arg, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise UsageError(f"not a readable path and not valid JSON: {exc}") from exc


def _read(arg: str, from_json, key: str):
    """Decode ``arg`` (JSON text, a path or ``-``) with ``from_json``.  It may
    hold the bare object or ``{"schema": 1, key: object, ...}``, the envelope
    of the command that writes that kind."""
    data = _load_json_arg(arg)
    if isinstance(data, dict) and key in data:
        data = data[key]
    return from_json(data)


def _read_heart(arg: str) -> H.Heart:
    m = re.fullmatch(r"[Aa](\d+)", arg.strip())
    if m:
        return H.standard_heart(int(m.group(1)))
    return _read(arg, H.Heart.from_json, "heart")


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, default=str))


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_tilt(args) -> int:
    heart = _read_heart(args.heart)
    word = []
    for step in args.word.split(","):
        step = step.strip()
        if not step:
            continue
        direction = -1 if step.startswith("-") else 1
        word.append((int(step.lstrip("+-")), direction))
    result = H.apply_tilt_word(heart, word)
    _emit({"schema": SCHEMA, "heart": result.to_json()})
    return 0


def _cmd_exchange_graph(args) -> int:
    heart = _read_heart(args.heart)
    vertices, edges = H.exchange_graph(heart, args.radius)
    if args.format == "dot":
        print(H.exchange_graph_dot(vertices, edges))
        return 0
    _emit({
        "schema": SCHEMA,
        "vertex_count": len(vertices),
        "edge_count": len(edges),
        "vertices": [h.to_json() for h in vertices.values()],
    })
    return 0


def _cmd_c_act(args) -> int:
    sigma = _read(args.input, StabilityCondition.from_json, "result")
    result = c_act(sigma, parse_rational_complex(args.lam))
    _emit({"schema": SCHEMA, "result": result.to_json()})
    return 0


def _cmd_msc_validate(args) -> int:
    m = _read(args.input, MS.MultiScaleStab.from_json, "result")
    _emit({
        "schema": SCHEMA,
        "valid": True,
        "levels_below_zero": m.L,
        "rho": [list(r) for r in MS.type_rho(m)],
    })
    return 0


def _cmd_plumb(args) -> int:
    m = _read(args.input, MS.MultiScaleStab.from_json, "result")
    taus = []
    for part in args.tau.split(";"):
        part = part.strip()
        if part in ("inf", "-ioo", "oo", ""):
            taus.append(MS.INFTY)
        else:
            taus.append(parse_rational_complex(part))
    result = MS.plumb(m, taus)
    _emit({"schema": SCHEMA, "result": result.to_json()})
    return 0


def _cmd_defect(args) -> int:
    m = _read(args.input, MS.MultiScaleStab.from_json, "result")
    rows = []
    for lam_expr in args.lam.split(";"):
        for tau_expr in args.tau.split(";"):
            lam = parse_rational_complex(lam_expr)
            tau = parse_rational_complex(tau_expr)
            r = MS.commutation_defect(m, lam, tau)
            rows.append(
                {
                    "lam": lam_expr.strip(),
                    "tau": tau_expr.strip(),
                    "max_defect": r.max_simple_defect,
                    "bound": r.bound,
                    "within_bound": r.within_bound,
                }
            )
    if args.format == "table":
        print("lam\ttau\tmax_defect\tbound\twithin")
        for row in rows:
            print(
                f"{row['lam']}\t{row['tau']}\t{row['max_defect']:.17g}"
                f"\t{row['bound']:.17g}\t{row['within_bound']}"
            )
        return 0
    _emit({"schema": SCHEMA, "rows": rows})
    return 0


def _cmd_limit(args) -> int:
    heart = _read_heart(args.heart)
    fam = args.family
    if fam == "-" or os.path.exists(fam) or fam.strip().startswith("{"):
        data = _load_json_arg(fam)
        if not isinstance(data, dict):
            raise UsageError("--family JSON must be an object from labels to terms")
        if sorted(data) != sorted(map(str, heart.labels)):
            raise UsageError(
                f"family labels {', '.join(sorted(data))} are not the heart's "
                f"simples {', '.join(map(str, sorted(heart.labels)))}"
            )
        zc = LIM.LaurentCharge.from_json(data)
    else:
        polys = parse_family(fam)
        if len(polys) != heart.rank():
            raise UsageError("family arity does not match the heart rank")
        zc = LIM.LaurentCharge.build(dict(zip(heart.labels, polys)))
    m, rot = LIM.extract_limit(heart, zc)
    _emit({
        "schema": SCHEMA,
        "rotation": [rot.numerator, rot.denominator],
        "result": m.to_json(),
    })
    return 0


def _cmd_strata(args) -> int:
    for flag, value in (("--n", args.n), ("--levels", args.levels)):
        if value < 1:
            raise UsageError(f"{flag} must be at least 1, not {value}")
    if args.poset:
        if args.format != "json":
            raise UsageError("--poset prints JSON only")
        graphs = ST.enumerate_graphs(args.n, args.levels) if args.labeled else [
            rep for _, _, rep in ST.census_types(args.n, args.levels)]
        keyed, rel = ST.adjacency_poset(graphs, labeled=args.labeled)
        names = {k: f"type{idx}" for idx, k in enumerate(sorted(keyed, key=repr))}
        payload = {
            "schema": SCHEMA,
            "strata": {
                names[k]: {
                    "depth": keyed[k].depth,
                    "undegenerations": sorted(names[u] for u in rel[k]),
                }
                for k in keyed
            },
        }
        _emit(payload)
        return 0
    if args.format == "dot":
        for g in ST.enumerate_graphs(args.n, args.levels):
            print(g.to_dot())
        return 0
    payload = ST.census(args.n, args.levels)
    if not args.labeled:
        for entry in payload["types"]:
            entry.pop("representative", None)
    if args.format == "table":
        print("depth\tlabeled\tenhancements\tprongs")
        for entry in payload["types"]:
            print(
                f"{entry['depth']}\t{entry['labeled_count']}\t"
                f"{entry['enhancements']}\t{entry['prongs']}"
            )
        return 0
    _emit(payload)
    return 0


def _cmd_braid(args) -> int:
    q = make_linear(args.n)
    word = parse_braid_word(args.word)
    mat = K.word_matrix(q, word)
    _emit({
        "schema": SCHEMA,
        "word": word.to_json(),
        "matrix": [list(r) for r in mat.rows],
        "matrix_row_major": mat.to_json(),
    })
    return 0


def _cmd_twist_data(args) -> int:
    rho = _load_json_arg(args.rho)
    if not (isinstance(rho, list) and rho and all(isinstance(r, list) for r in rho)):
        raise UsageError(f"--rho must be a non-empty JSON list of lists, not {args.rho!r}")
    data = K.simple_twist_data(rho)
    _emit({"schema": SCHEMA, "rho": rho, "levels": data.to_json()})
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A parse error is a usage error: one line on stderr, exit 2."""
        raise UsageError(message)


# Options whose values may start with "-", like --lam -1/4 or --word -1,2.
_DASH_VALUES = ("--lam", "--tau", "--word", "--family")


def _join_dash_values(argv: list[str]) -> list[str]:
    """Write ``--lam -1/4`` as ``--lam=-1/4``, which argparse reads as a value
    rather than an unknown option.  Only a value that is not itself an option
    is joined, so a missing value is still reported as missing."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _DASH_VALUES and arg[:1] == "-" and arg[:2] != "--" and arg != "-h":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="anstab",
        description="exact engine for multi-scale stability conditions of A_n type",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("tilt", help="apply a tilt word to a heart")
    sp.add_argument("--heart", required=True, help="A<n>, or a heart or tilt output: JSON, path or -")
    sp.add_argument("--word", required=True, help="comma list like '2,-1,3'")
    sp.set_defaults(func=_cmd_tilt)

    sp = sub.add_parser("exchange-graph", help="breadth-first tilt closure")
    sp.add_argument("--heart", required=True)
    sp.add_argument("--radius", type=int, required=True)
    sp.add_argument("--format", default="json", choices=["json", "dot"])
    sp.set_defaults(func=_cmd_exchange_graph)

    sp = sub.add_parser("c-act", help="apply the rescaled rotation action")
    sp.add_argument("input", help="{heart, charge} or c-act output: JSON, path or -")
    sp.add_argument("--lam", required=True, help="rational complex like '1/2+1/3i'")
    sp.set_defaults(func=_cmd_c_act)

    sp = sub.add_parser("msc-validate", help="validate a multi-scale object")
    sp.add_argument("input")
    sp.set_defaults(func=_cmd_msc_validate)

    sp = sub.add_parser("plumb", help="plumb level passages")
    sp.add_argument("input")
    sp.add_argument("--tau", required=True, help="';'-separated entries; 'inf' skips")
    sp.set_defaults(func=_cmd_plumb)

    sp = sub.add_parser("defect", help="commutation defect over a lam/tau grid")
    sp.add_argument("input")
    sp.add_argument("--lam", required=True, help="';'-separated rational complex values")
    sp.add_argument("--tau", required=True)
    sp.add_argument("--format", default="table", choices=["json", "table"])
    sp.set_defaults(func=_cmd_defect)

    sp = sub.add_parser("limit", help="extract the limit of a Laurent family")
    sp.add_argument("--heart", required=True)
    sp.add_argument("--family", required=True, help="'(-1+it, 1+it)', or JSON text, file or -")
    sp.set_defaults(func=_cmd_limit)

    sp = sub.add_parser("strata", help="boundary census / poset for given n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--levels", type=int, default=1)
    sp.add_argument("--labeled", action="store_true")
    sp.add_argument("--poset", action="store_true")
    sp.add_argument("--format", default="json", choices=["json", "dot", "table"])
    sp.set_defaults(func=_cmd_strata)

    sp = sub.add_parser("braid", help="braid word to K-theory matrix")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--word", required=True, help="'(1 2)^3' or JSON letters")
    sp.set_defaults(func=_cmd_braid)

    sp = sub.add_parser("twist-data", help="twist group numerics for a type rho")
    sp.add_argument("--rho", required=True, help="JSON like [[1,1],[2]]")
    sp.set_defaults(func=_cmd_twist_data)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    argv = _join_dash_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help
        return 2 if exc.code not in (0, None) else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader closed the pipe: exit quietly
        sys.stdout = open(os.devnull, "w")
        return 0
    except AnstabError as exc:
        kind = "validation failure" if exc.exit_code == 1 else "usage error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError) as exc:
        print(f"usage error: bad input field: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
