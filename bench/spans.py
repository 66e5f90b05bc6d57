"""Per-layer spans for the traced run, recorded from the benchmark's side.

Wrappers are installed at run time around functions and methods of each
module; no file of the program changes.  A module-level function is
replaced wherever the package holds a reference to it (``from .hearts
import _tilt`` included), so every caller is seen.  Spans are aggregated in
memory by name (calls, total time, self time) and written when the run
ends; self time is a span's duration minus the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (span name, module, attribute path): each span wraps one callable.
TARGETS = [
    ("exact.im_sign", "anstab.exact", "ExactComplex.im_sign"),
    ("exact.re_sign", "anstab.exact", "ExactComplex.re_sign"),
    ("exact.cmp_phase", "anstab.exact", "ExactComplex.cmp_phase"),
    ("exact.in_upper_semiclosed", "anstab.exact", "ExactComplex.in_upper_semiclosed"),
    ("exact.phase_cmp_rational", "anstab.exact", "phase_cmp_rational"),
    ("exact.arith", "anstab.exact", "ExactComplex.__add__"),
    ("exact.arith", "anstab.exact", "ExactComplex.__sub__"),
    ("exact.arith", "anstab.exact", "ExactComplex.__mul__"),
    ("exact.arith", "anstab.exact", "ExactComplex.conj"),
    ("hearts.tilt", "anstab.hearts", "_tilt"),
    ("hearts.canonical_form", "anstab.hearts", "canonical_form"),
    ("anquiver.mutate", "anstab.anquiver", "mutate"),
    ("anquiver.enumerate_strings", "anstab.anquiver", "enumerate_strings"),
    ("stability.c_act", "anstab.stability", "c_act"),
    ("multiscale.plumb", "anstab.multiscale", "plumb"),
    ("multiscale.c_act_msc", "anstab.multiscale", "c_act_msc"),
    ("multiscale.commutation_defect", "anstab.multiscale", "commutation_defect"),
    ("multiscale.normalize_representative", "anstab.multiscale", "normalize_representative"),
    ("multiscale.equivalent", "anstab.multiscale", "equivalent"),
    ("multiscale.to_json", "anstab.multiscale", "MultiScaleStab.to_json"),
    ("multiscale.from_json", "anstab.multiscale", "MultiScaleStab.from_json"),
    ("limits.extract_limit", "anstab.limits", "extract_limit"),
    ("limits.plumbing_ray", "anstab.limits", "plumbing_ray"),
    ("strata.enumerate_graphs", "anstab.strata", "enumerate_graphs"),
    ("strata.census", "anstab.strata", "census"),
    ("strata.adjacency_poset", "anstab.strata", "adjacency_poset"),
    ("strata.undegenerate", "anstab.strata", "undegenerate"),
    ("strata.graph_validate", "anstab.strata", "EnhancedLevelGraph.validate"),
    ("klattice.word_matrix", "anstab.klattice", "word_matrix"),
    ("klattice.simple_twist_data", "anstab.klattice", "simple_twist_data"),
    ("cli.main", "anstab.cli", "main"),
]

# Counts taken inside these spans (tilts and half-plane tests per c_act).
SCOPES = ("stability.c_act",)


def per_layer_units() -> dict:
    """The per-layer metrics of BENCHMARK.json, in its order: name -> unit."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


class Tracer:
    """Aggregated spans: per name, calls, total and self seconds."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.scoped = defaultdict(int)      # (scope, name) -> calls inside scope
        self.counts = defaultdict(float)    # counts read off results
        self.open = defaultdict(int)        # active spans by name
        self.stack: list[list[float]] = []  # [start, child time] per open span
        self.enabled = False
        self._undo: list[tuple[object, str, object]] = []

    # -- spans

    def span(self, name: str, fn, on_result=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            for scope in SCOPES:
                if self.open[scope]:
                    self.scoped[scope, name] += 1
            self.open[name] += 1
            frame = [clock(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                self.stack.pop()
                self.open[name] -= 1
                if self.stack:
                    self.stack[-1][1] += dur
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    # -- installation

    def install(self) -> None:
        for _, module, _ in TARGETS:
            importlib.import_module(module)
        packages = [m for k, m in sys.modules.items() if k == "anstab" or k.startswith("anstab.")]
        for name, module, path in TARGETS:
            owner = sys.modules[module]
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self.span(name, fn, ON_RESULT.get(name))
            new = staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped
            self._set(owner, attr, new)
            if parents:
                continue
            for mod in packages:  # re-exported or imported by name elsewhere
                for key, val in list(vars(mod).items()):
                    if val is fn and mod is not owner:
                        self._set(mod, key, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- metrics

    def metrics(self, names, extra: dict) -> dict:
        values = dict(extra)
        for metric in names:
            if metric in values:
                continue
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = self.calls[span]
            elif kind == "ms":
                values[metric] = 1000 * self.total[span]
            elif kind == "self_ms":
                values[metric] = 1000 * self.self_time[span]
        c_act = self.calls["stability.c_act"]
        tilts = self.scoped["stability.c_act", "hearts.tilt"]
        tests = self.scoped["stability.c_act", "exact.in_upper_semiclosed"]
        values["stability.tilts_per_call"] = tilts / c_act if c_act else 0.0
        values["stability.in_h_tests_per_tilt"] = tests / tilts if tilts else 0.0
        limits = self.calls["limits.extract_limit"]
        values["limits.rotated_share"] = self.counts["rotated"] / limits if limits else 0.0
        values["strata.labeled_graphs"] = self.counts["labeled_graphs"]
        values["strata.types"] = self.counts["types"]
        types = self.counts["types"]
        values["strata.labeled_per_type"] = self.counts["census_labeled"] / types if types else 0.0
        return values

    def spans(self) -> dict:
        return {
            name: {
                "calls": self.calls[name],
                "ms": 1000 * self.total[name],
                "self_ms": 1000 * self.self_time[name],
            }
            for name in sorted(self.calls)
        }


def _rotated(tr: Tracer, args, result) -> None:
    if result[1] != 0:
        tr.counts["rotated"] += 1


def _graphs(tr: Tracer, args, result) -> None:
    tr.counts["labeled_graphs"] += len(result)


def _census(tr: Tracer, args, result) -> None:
    tr.counts["types"] += result["unlabeled_total"]
    tr.counts["census_labeled"] += result["labeled_total"]


ON_RESULT = {
    "limits.extract_limit": _rotated,
    "strata.enumerate_graphs": _graphs,
    "strata.census": _census,
}
