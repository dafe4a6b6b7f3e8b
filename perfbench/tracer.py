"""In-memory spans and counters around the public functions of polysieve.

The tracer replaces each public function of a layer module, and a few public
methods, by a wrapper in every module namespace that binds the function. A
span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level). Scalar per-element functions get counters
only, because a span per call would cost more than the call. Nothing is
recorded while ``recording`` is false, so the benchmark's own checks stay out
of the trace.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from itertools import combinations
from math import prod
from pathlib import Path
from typing import Callable

LAYERS = ("polycore", "intersective", "sieve", "search", "harmonic", "leveld", "increment", "cli")

# nt is the number-theory helper of intersective: its time is charged to the
# calling layer. to_jsonable recurses once per serialized element.
_SKIP = {"cli.main", "cli.to_jsonable"}

# (module, class, method) -> span
_METHOD_SPANS = (
    ("polycore", "IntPoly", "compose_affine"),
    ("intersective", "AuxiliaryBuilder", "context"),
    ("sieve", "SieveTable", "build"),
    ("harmonic", "WeightedImage", "fourier"),
)

# per-element callables: counted, never spanned
_COUNTERS = {
    ("polycore", "IntPoly", "__call__"): "polycore.evals",
    ("polycore", "IntPoly", "eval_mod"): "polycore.evals",
    ("polycore", None, "poly_eval"): "polycore.evals",
    ("harmonic", None, "classify_arc"): "harmonic.classify_arc.calls",
    ("sieve", None, "in_W"): "sieve.in_W.calls",
}

Hook = Callable[[Counter, tuple, dict, object], None]


class Tracer:
    def __init__(self):
        self.recording = False
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return wrapped

    def _counter(self, key: str, fn: Callable) -> Callable:
        tracer = self
        hook = HOOKS.get(key)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.recording:
                tracer.counts[key] += 1
                if hook is not None:
                    hook(tracer.counts, args, kwargs, result)
            return result

        return wrapped

    # -- installation ---------------------------------------------------------

    def install(self, extra_namespaces=()) -> None:
        """Wrap every target and rebind it wherever it is bound."""
        replace: dict[int, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules[f"polysieve.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in _SKIP or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__ or (layer, None, attr) in _COUNTERS:
                    continue
                replace[id(obj)] = self._span(name, obj)
        for (layer, cls_name, attr), key in _COUNTERS.items():
            mod = sys.modules[f"polysieve.{layer}"]
            if cls_name is None:
                replace[id(getattr(mod, attr))] = self._counter(key, getattr(mod, attr))
            else:
                cls = getattr(mod, cls_name)
                setattr(cls, attr, self._counter(key, vars(cls)[attr]))
        for layer, cls_name, attr in _METHOD_SPANS:
            cls = getattr(sys.modules[f"polysieve.{layer}"], cls_name)
            raw = vars(cls)[attr]
            name = f"{layer}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._span(name, raw.__func__)))
            else:
                setattr(cls, attr, self._span(name, raw))
        for mod in list(sys.modules.values()):
            if mod is None:
                continue
            if not (mod.__name__.startswith("polysieve") or mod in extra_namespaces):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])

    # -- passes ---------------------------------------------------------------

    def start(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self.recording = True

    def stop(self) -> tuple[list[list], Counter]:
        self.recording = False
        return self.spans, self.counts


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds (total minus the
    time covered by its direct children)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child[i]
    return dict(out)


def top_level_seconds(spans: list[list]) -> float:
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def write_spans(path: Path, passes: list[tuple[float, list[list]]]) -> None:
    """CSV with one span per line; times are seconds from the pass start."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,name,start,end,parent\n")
        for k, (t0, spans) in enumerate(passes):
            for name, start, end, parent in spans:
                fh.write(f"{k},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


# ---------------------------------------------------------------------------
# counts taken from arguments and results, and the per-layer metrics
# ---------------------------------------------------------------------------


def _dmax_rows(counts, args, kwargs, table):
    prev = 0
    for _, d, _ in table:
        counts["search.rows"] += 1
        counts["search.refuted_rows"] += d == prev
        prev = d


def _level_d_residues(counts, args, kwargs, result):
    family = args[1] if len(args) > 1 else kwargs["Q"]
    d = args[2] if len(args) > 2 else kwargs["d"]
    members = family.members
    counts["leveld.residues"] += sum(prod(c) for c in combinations(members, d))


HOOKS: dict[str, Hook] = {
    "search.dmax_table": _dmax_rows,
    "harmonic.gauss_sum_sweep": lambda c, a, k, r: c.update({"harmonic.gauss_pairs": len(r)}),
    "harmonic.fourier_grid": lambda c, a, k, r: c.update({"harmonic.fft_points": r.n}),
    "harmonic.weyl_sum_audit": lambda c, a, k, r: c.update({"harmonic.weyl_terms": r.N * len(r.samples)}),
    "harmonic.classify_arc.calls": lambda c, a, k, r: c.update({"harmonic.classify_arc.minor": not r.is_major}),
    "sieve.w_mask": lambda c, a, k, r: c.update({"sieve.w_mask.elements": len(r)}),
    "increment.extract_increment": lambda c, a, k, r: c.update({"increment.extract_increment.met": r.met_threshold}),
    "leveld.level_d_energy": _level_d_residues,
    "cli.run_experiment": lambda c, a, k, r: c.update(
        {"cli.records_bytes": (Path(r["out_dir"]) / "records.jsonl").stat().st_size}
    ),
}

# metric -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "search.dmax_table.s": "s",
    "search.rows": "count",
    "search.refuted_rows": "count",
    "search.found_ratio": "ratio",
    "search.greedy_avoiding.s": "s",
    "search.verify_avoiding.s": "s",
    "search.forbidden_values.s": "s",
    "harmonic.gauss_sum_sweep.s": "s",
    "harmonic.gauss_pairs": "count",
    "harmonic.fourier_grid.s": "s",
    "harmonic.fft_points": "count",
    "harmonic.fft_bytes": "B",
    "harmonic.weyl_sum_audit.self_s": "s",
    "harmonic.weyl_terms": "count",
    "harmonic.minor_arc_audit.self_s": "s",
    "harmonic.classify_arc.calls": "count",
    "harmonic.minor_ratio": "ratio",
    "harmonic.g_build.s": "s",
    "harmonic.initial_mass.s": "s",
    "intersective.context.calls": "count",
    "intersective.context.s": "s",
    "intersective.padic_roots.calls": "count",
    "intersective.padic_roots.s": "s",
    "polycore.evals": "count",
    "polycore.compose_affine.s": "s",
    "sieve.SieveTable.build.s": "s",
    "sieve.w_mask.s": "s",
    "sieve.w_mask.elements": "count",
    "increment.increment_step.self_s": "s",
    "increment.extract_increment.calls": "count",
    "increment.extract_met_ratio": "ratio",
    "increment.steps": "count",
    "leveld.level_d_energy.s": "s",
    "leveld.level_d_audit.s": "s",
    "leveld.residues": "count",
    "cli.run_experiment.self_s": "s",
    "cli.emit_report.s": "s",
    "cli.records_bytes": "B",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "process.cpu_s": "s",
}


def layer_metrics(spans: list[list], counts: Counter, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_s and
    process.cpu_s, which need the untraced passes and the process clock)."""
    rows = summarize(spans)

    def get(name: str, key: str = "s") -> float:
        return rows[name][key] if name in rows else 0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    calls = counts["harmonic.classify_arc.calls"]
    extracts = get("increment.extract_increment", "calls")
    out = {
        "search.dmax_table.s": get("search.dmax_table"),
        "search.rows": counts["search.rows"],
        "search.refuted_rows": counts["search.refuted_rows"],
        "search.found_ratio": ratio(counts["search.rows"] - counts["search.refuted_rows"], counts["search.rows"]),
        "search.greedy_avoiding.s": get("search.greedy_avoiding"),
        "search.verify_avoiding.s": get("search.verify_avoiding"),
        "search.forbidden_values.s": get("search.forbidden_values"),
        "harmonic.gauss_sum_sweep.s": get("harmonic.gauss_sum_sweep"),
        "harmonic.gauss_pairs": counts["harmonic.gauss_pairs"],
        "harmonic.fourier_grid.s": get("harmonic.fourier_grid"),
        "harmonic.fft_points": counts["harmonic.fft_points"],
        # computed, not measured: the float64 fold plus the complex128 output
        "harmonic.fft_bytes": 24 * counts["harmonic.fft_points"],
        "harmonic.weyl_sum_audit.self_s": get("harmonic.weyl_sum_audit", "self_s"),
        "harmonic.weyl_terms": counts["harmonic.weyl_terms"],
        "harmonic.minor_arc_audit.self_s": get("harmonic.minor_arc_audit", "self_s"),
        "harmonic.classify_arc.calls": calls,
        "harmonic.minor_ratio": ratio(counts["harmonic.classify_arc.minor"], calls),
        "harmonic.g_build.s": get("harmonic.g_build"),
        "harmonic.initial_mass.s": get("harmonic.initial_mass"),
        "intersective.context.calls": get("intersective.AuxiliaryBuilder.context", "calls"),
        "intersective.context.s": get("intersective.AuxiliaryBuilder.context"),
        "intersective.padic_roots.calls": get("intersective.padic_roots", "calls"),
        "intersective.padic_roots.s": get("intersective.padic_roots"),
        "polycore.evals": counts["polycore.evals"],
        "polycore.compose_affine.s": get("polycore.IntPoly.compose_affine"),
        "sieve.SieveTable.build.s": get("sieve.SieveTable.build"),
        "sieve.w_mask.s": get("sieve.w_mask"),
        "sieve.w_mask.elements": counts["sieve.w_mask.elements"],
        "increment.increment_step.self_s": get("increment.increment_step", "self_s"),
        "increment.extract_increment.calls": extracts,
        "increment.extract_met_ratio": ratio(counts["increment.extract_increment.met"], extracts),
        "increment.steps": get("increment.increment_step", "calls"),
        "leveld.level_d_energy.s": get("leveld.level_d_energy"),
        "leveld.level_d_audit.s": get("leveld.level_d_audit"),
        "leveld.residues": counts["leveld.residues"],
        "cli.run_experiment.self_s": get("cli.run_experiment", "self_s"),
        "cli.emit_report.s": get("cli.emit_report"),
        "cli.records_bytes": counts["cli.records_bytes"],
    }
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            row["self_s"] for name, row in rows.items() if name.split(".", 1)[0] == layer
        )
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - top_level_seconds(spans)
    return out
