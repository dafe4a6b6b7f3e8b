"""Deterministic experiment harness: strict JSON configs, task registry,
JSON-lines records, CSV side files, and report aggregation.

Every task appends one record {task, params, result, duration_ms}; result
fields are deterministic given (config, seed). Floats serialize with 17
significant digits, integers beyond 2^53 as decimal strings.
"""

from __future__ import annotations

import argparse

import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from . import harmonic, increment, leveld, search, sieve
from .intersective import AuxiliaryBuilder, intersectivity_verdict
from .polycore import IntPoly, normalize_positive


class ConfigError(ValueError):
    pass


BIG_INT = 1 << 53


def to_jsonable(obj: Any) -> Any:
    """Canonical JSON form: floats at 17 significant digits, big ints as
    strings, mappings sorted by key."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        v = int(obj)
        return str(v) if abs(v) > BIG_INT else v
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isfinite(f):
            return json.loads(format(f, ".17g"))
        return repr(f)
    if isinstance(obj, complex):
        return {"re": to_jsonable(obj.real), "im": to_jsonable(obj.imag)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [to_jsonable(v) for v in obj]
    if hasattr(obj, "to_jsonable"):
        return to_jsonable(obj.to_jsonable())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_record(rec: dict) -> str:
    return json.dumps(to_jsonable(rec), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_CONSTANT_KEYS = {
    "epsilon",
    "C1",
    "C2",
    "C3",
    "C4",
    "c_h",
    "C_h",
    "rho",
    "opt1_c",
    "q_cap",
}


@dataclass
class ExperimentConfig:
    polynomial: list[int]
    tasks: list[dict]
    seed: int = 0
    constants: dict = field(default_factory=dict)
    out_dir: Optional[str] = None
    preset: str = "desk"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        allowed = {"polynomial", "tasks", "seed", "constants", "out_dir", "preset"}
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "polynomial" not in raw or "tasks" not in raw:
            raise ConfigError("config requires 'polynomial' and 'tasks'")
        poly = [int(c) for c in raw["polynomial"]]
        consts = raw.get("constants", {})
        bad = set(consts) - _CONSTANT_KEYS
        if bad:
            raise ConfigError(f"unknown constants: {sorted(bad)}")
        tasks = []
        for i, t in enumerate(raw["tasks"]):
            extra = set(t) - {"name", "params", "required"}
            if extra:
                raise ConfigError(f"task {i}: unknown keys {sorted(extra)}")
            if "name" not in t:
                raise ConfigError(f"task {i}: missing name")
            name = t["name"]
            if name not in TASKS:
                raise ConfigError(f"task {i}: unknown task {name!r}")
            params = t.get("params", {})
            schema = TASKS[name].params
            bad = set(params) - set(schema)
            if bad:
                raise ConfigError(f"task {i} ({name}): unknown params {sorted(bad)}")
            tasks.append({"name": name, "params": params, "required": bool(t.get("required", False))})
        preset = raw.get("preset", "desk")
        if preset not in ("desk", "paper"):
            raise ConfigError("preset must be 'desk' or 'paper'")
        return cls(
            polynomial=poly,
            tasks=tasks,
            seed=int(raw.get("seed", 0)),
            constants=dict(consts),
            out_dir=raw.get("out_dir"),
            preset=preset,
        )

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_jsonable(self) -> dict:
        return {
            "polynomial": self.polynomial,
            "tasks": self.tasks,
            "seed": self.seed,
            "constants": self.constants,
            "preset": self.preset,
        }

    def increment_config(self) -> increment.IncrementConfig:
        if self.preset == "paper":
            k = max(IntPoly.of(self.polynomial).degree, 2)
            return increment.IncrementConfig.paper(k, **self.constants)
        return increment.IncrementConfig.desk(**self.constants)


class RunContext:
    """Lazily built shared state for one experiment run."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.h = IntPoly.of(config.polynomial)
        self.rng = np.random.default_rng(config.seed)
        self._norm: Optional[tuple[IntPoly, int]] = None
        self._builder: Optional[AuxiliaryBuilder] = None
        self.side_files: list[tuple[str, str]] = []  # (filename, content)

    @property
    def normalized(self) -> IntPoly:
        if self._norm is None:
            self._norm = normalize_positive(self.h)
        return self._norm[0]

    @property
    def builder(self) -> AuxiliaryBuilder:
        if self._builder is None:
            self._builder = AuxiliaryBuilder(self.normalized)
        return self._builder

    def make_set(self, spec: dict, X: int) -> search.AvoidingSet:
        kind = spec.get("kind", "greedy")
        if kind == "greedy":
            forb = search.forbidden_values(self.builder.context(1), X)
            return search.greedy_avoiding(forb, X)
        if kind == "multiples":
            m = int(spec["m"])
            return search.AvoidingSet.from_members(X, range(m, X + 1, m))
        if kind == "explicit":
            return search.AvoidingSet.from_members(X, [int(v) for v in spec["members"]])
        if kind == "random":
            density = float(spec.get("density", 0.1))
            mask = self.rng.random(X) < density
            return search.AvoidingSet.from_members(X, (np.nonzero(mask)[0] + 1).tolist())
        raise ConfigError(f"unknown set kind {kind!r}")


@dataclass
class TaskDef:
    params: dict  # name -> default (None means required); TASKS is the only place defaults live
    run: Callable[[RunContext, dict], dict]


def _fill(params: dict, schema: dict, task: str) -> dict:
    out = dict(schema)
    out.update(params)
    missing = [k for k, v in out.items() if v is None]
    if missing:
        raise ConfigError(f"task {task}: missing params {missing}")
    return out


# ---------------------------------------------------------------------------
# task implementations
# ---------------------------------------------------------------------------


def _task_f_eval(ctx: RunContext, p: dict) -> dict:
    log_x = float(p["log_x"]) if p["log_x"] else None
    x = float(p["x"])
    value = increment.F_eval(x, float(p["epsilon"]), log_x=log_x)
    return {"value": value, "d_exponent": increment.d_exponent(float(p["epsilon"]))}


def _task_check(ctx: RunContext, p: dict) -> dict:
    verdict = intersectivity_verdict(ctx.h, int(p["prime_bound"]), int(p["depth_bound"]))
    return {"verdict": verdict.to_jsonable()}


def _task_aux(ctx: RunContext, p: dict) -> dict:
    from .intersective import coefficient_bound

    rows = []
    bound_ok = True
    r_h = coefficient_bound(ctx.normalized)
    k = ctx.normalized.degree
    for ell in range(1, int(p["ell_max"]) + 1):
        cctx = ctx.builder.context(ell)
        ok = cctx.aux.max_abs_coeff() <= r_h * ell ** (k - 1)
        bound_ok = bound_ok and ok
        rows.append(cctx.to_jsonable())
    return {"count": len(rows), "coefficient_bound_ok": bound_ok, "contexts": rows}


def _task_sieve(ctx: RunContext, p: dict) -> dict:
    table = sieve.SieveTable.build(ctx.builder.context(int(p["ell"])), float(p["U"]))
    J = sieve.J_factor(table)
    count = sieve.w_count_in_period(table) if table.period <= 10**6 else None
    exact = None if count is None else (count * J == table.period)
    return {
        "table": table.to_jsonable(),
        "J": {"num": J.numerator, "den": J.denominator},
        "members_per_period": count,
        "density_identity_exact": exact,
    }


def _task_gauss(ctx: RunContext, p: dict) -> dict:
    aux = ctx.builder.context(int(p["ell"]))
    table = sieve.SieveTable.build(aux, float(p["U"]))
    sweep = harmonic.gauss_sum_sweep(
        aux, int(p["q_max"]), float(p["U"]), all_a=bool(p["all_a"]), table=table
    )
    rows = [(q, a, mag, math.sqrt(q)) for q, a, mag in sweep]
    fitted = max((mag / q**0.6 for q, _, mag in sweep), default=0.0)
    ctx.side_files.append(
        (
            "gauss.csv",
            "q,a,magnitude,sqrt_q\n"
            + "".join(f"{q},{a},{m:.17g},{s:.17g}\n" for q, a, m, s in rows),
        )
    )
    return {"rows": len(rows), "fitted_c_vs_q0.6": fitted}


def _task_mass(ctx: RunContext, p: dict) -> dict:
    X = int(p["x"])
    A = ctx.make_set(p["set"], X)
    ap = harmonic.ArcParams.make(max(A.alpha, 1e-9), float(p["epsilon"]), float(p["C1"]), X)
    value = harmonic.initial_mass(A, float(p["xi"]), ap)
    return {"alpha": A.alpha, "mass": value, "alpha2X2": (A.alpha * X) ** 2}


def _task_leveld(ctx: RunContext, p: dict) -> dict:
    X = int(p["x"])
    alpha = float(p["alpha"])
    if int(p["variant"]) in (1, 2):
        fam = leveld.build_family(int(p["variant"]), alpha, float(p["epsilon"]))
    else:
        fam = leveld.ModulusFamily.from_members([int(m) for m in p["members"]])
    verdicts = []
    for _ in range(int(p["trials"])):
        mask = ctx.rng.random(X) < alpha
        f = mask.astype(float)
        rep = leveld.level_d_audit(f, fam, int(p["d"]), alpha)
        verdicts.append(
            {
                "lhs": rep.lhs,
                "rhs": rep.rhs,
                "dichotomy_ok": rep.dichotomy_ok,
                "hypotheses_ok": rep.hypotheses_ok,
            }
        )
    return {"family_size": len(fam.members), "trials": verdicts}


def _task_step(ctx: RunContext, p: dict) -> dict:
    X = int(p["x"])
    A = ctx.make_set(p["set"], X)
    cfg = ctx.config.increment_config()
    out = increment.increment_step(A, ctx.builder.context(1), cfg)
    return {"outcome": out.to_jsonable()}


def _task_iterate(ctx: RunContext, p: dict) -> dict:
    X = int(p["x"])
    A = ctx.make_set(p["set"], X)
    cfg = ctx.config.increment_config()
    trace = increment.iterate(A, ctx.normalized, cfg)
    ctx.side_files.append(("trace.csv", trace.to_csv()))
    return {"trace": trace.to_jsonable(), "invariants_ok": trace.check_invariants()}


def _task_dmax(ctx: RunContext, p: dict) -> dict:
    xm = int(p["x_max"])
    forb = search.forbidden_values(
        ctx.builder.context(1), xm, str(p["mode"]), U=float(p["U"])
    )
    table = search.dmax_table(forb, xm)
    lines = ["X,D,witness"]
    for X, Dv, wit in table:
        lines.append(f"{X},{Dv},\"{json.dumps(wit.members())}\"")
    ctx.side_files.append(("dmax.csv", "\n".join(lines) + "\n"))
    return {"x_max": xm, "final_D": table[-1][1], "table": [(X, Dv) for X, Dv, _ in table]}


def _task_greedy(ctx: RunContext, p: dict) -> dict:
    xs = [int(x) for x in p["x_values"]]
    k = ctx.normalized.degree
    rows = []
    for X in xs:
        forb = search.forbidden_values(ctx.builder.context(1), X)
        A = search.greedy_avoiding(forb, X)
        ok, _ = search.verify_avoiding(A, forb)
        rows.append({"X": X, "size": A.size, "x_pow": X ** (1.0 - 1.0 / k), "verified": ok})
    if len(xs) >= 2:
        logs_x = [math.log(r["X"]) for r in rows]
        logs_s = [math.log(max(r["size"], 1)) for r in rows]
        slope = float(np.polyfit(logs_x, logs_s, 1)[0])
    else:
        slope = None
    ctx.side_files.append(
        (
            "greedy.csv",
            "X,size,X_pow_1_minus_1_over_k\n"
            + "".join(f"{r['X']},{r['size']},{r['x_pow']:.17g}\n" for r in rows),
        )
    )
    return {"rows": rows, "loglog_slope": slope}


def _task_weight(ctx: RunContext, p: dict) -> dict:
    w = harmonic.smooth_weight_build(int(p["depth"]), int(p["resolution"]))
    audit = harmonic.weight_fourier_audit(w, float(p["t_max"]))
    ctx.side_files.append(
        (
            "weight_decay.csv",
            "t,magnitude,envelope\n"
            + "".join(
                f"{t:.17g},{abs(m):.17g},{audit.fitted_c * math.exp(-math.sqrt(t / 2)):.17g}\n"
                for t, m in zip(
                    np.arange(0, p["t_max"] + 1e-9, 0.25), w.fourier(np.arange(0, p["t_max"] + 1e-9, 0.25))
                )
            ),
        )
    )
    return {"audit": audit.to_jsonable(), "mass": w.mass}


TASKS: dict[str, TaskDef] = {
    "f_eval": TaskDef({"x": 0.0, "log_x": 0.0, "epsilon": 1.0}, _task_f_eval),
    "check": TaskDef({"prime_bound": 1000, "depth_bound": 64}, _task_check),
    "aux": TaskDef({"ell_max": 30}, _task_aux),
    "sieve": TaskDef({"U": 10.0, "ell": 1}, _task_sieve),
    "gauss": TaskDef({"q_max": 100, "U": 100.0, "ell": 1, "all_a": False}, _task_gauss),
    "mass": TaskDef(
        {"set": {"kind": "multiples", "m": 3}, "x": 300, "xi": 0.0, "epsilon": 1.0, "C1": 10.0},
        _task_mass,
    ),
    "leveld": TaskDef(
        {
            "alpha": 0.2,
            "x": 600,
            "d": 2,
            "trials": 5,
            "members": [3, 4, 5, 7, 11],
            "variant": 0,
            "epsilon": 1.0,
        },
        _task_leveld,
    ),
    "step": TaskDef({"set": {"kind": "greedy"}, "x": 2000}, _task_step),
    "iterate": TaskDef({"set": {"kind": "greedy"}, "x": 2000}, _task_iterate),
    "dmax": TaskDef({"x_max": 60, "mode": "all", "U": 2.0}, _task_dmax),
    "greedy": TaskDef({"x_values": [1000, 10000]}, _task_greedy),
    "weight": TaskDef({"depth": 24, "resolution": 2**16, "t_max": 400.0}, _task_weight),
}


# ---------------------------------------------------------------------------
# run and report
# ---------------------------------------------------------------------------


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> dict:
    """Execute tasks in order; write records.jsonl plus CSV side files.
    Returns a summary dict; 'failed_required' lists required tasks whose
    result carried a falsy 'passed' field."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ctx = RunContext(config)
    records = [{"config": config.to_jsonable(), "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}]
    failed_required = []
    for i, task in enumerate(config.tasks):
        name = task["name"]
        t0 = time.perf_counter()
        result = TASKS[name].run(ctx, _fill(task["params"], TASKS[name].params, name))
        duration = (time.perf_counter() - t0) * 1000.0
        records.append(
            {"task": name, "params": task["params"], "result": result, "duration_ms": duration}
        )
        if task["required"] and result.get("passed") is False:
            failed_required.append(name)
    text = "\n".join(dumps_record(r) for r in records) + "\n"
    (out / "records.jsonl").write_text(text, encoding="utf-8", newline="\n")
    for fname, content in ctx.side_files:
        (out / fname).write_text(content, encoding="utf-8", newline="\n")
    return {
        "records": len(records) - 1,
        "out_dir": str(out),
        "failed_required": failed_required,
    }


def emit_report(run_dir: str | Path) -> str:
    """Aggregate records.jsonl in run_dir into summary.md plus plot CSVs."""
    run = Path(run_dir)
    rec_path = run / "records.jsonl"
    if not rec_path.exists():
        raise FileNotFoundError(f"no records.jsonl under {run}")
    records = [json.loads(line) for line in rec_path.read_text(encoding="utf-8").splitlines() if line]
    audits = []
    lines = ["# Run summary", ""]
    task_records = [r for r in records if "task" in r]
    if not task_records:
        lines.append("no audits")
    for rec in task_records:
        name = rec["task"]
        result = rec["result"]
        if name == "gauss":
            audits.append((name, f"fitted C vs q^0.6 = {result['fitted_c_vs_q0.6']}"))
        elif name == "weight":
            audits.append((name, f"fitted decay C = {result['audit']['fitted_c']}"))
        elif name == "leveld":
            ok = all(t["dichotomy_ok"] or not t["hypotheses_ok"] for t in result["trials"])
            audits.append((name, f"dichotomy honored: {ok}"))
        elif name == "iterate":
            audits.append((name, f"trace invariants: {result['invariants_ok']}"))
        lines.append(f"- **{name}**: {json.dumps(to_jsonable(rec['result']))[:200]}")
    if audits:
        lines.append("")
        lines.append("## Audits")
        for name, desc in audits:
            lines.append(f"- {name}: {desc}")
    elif task_records:
        lines.append("")
        lines.append("no audits")
    text = "\n".join(lines) + "\n"
    (run / "summary.md").write_text(text, encoding="utf-8", newline="\n")
    return text


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _flag_type(default: Any) -> Callable[[str], Any]:
    """Parser for a flag with this default; a list takes a comma-separated string."""
    if isinstance(default, list):
        return lambda text: [type(default[0])(v) for v in text.split(",")]
    return type(default)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="polysieve",
        description="Workbench for sets avoiding polynomial differences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--out", default="runs/latest", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--preset", choices=["paper", "desk"], default="desk")
        p.add_argument("--poly", default="0,0,1", help="coefficients, constant first")

    # task params exposed as flags; types and defaults come from TASKS
    specs = {
        "check": ("prime_bound",),
        "aux": ("ell_max",),
        "sieve": ("U", "ell"),
        "gauss": ("q_max", "U"),
        "mass": ("x", "xi"),
        "leveld": ("x", "alpha", "d", "trials"),
        "step": ("x",),
        "iterate": ("x",),
        "dmax": ("x_max",),
        "greedy": ("x_values",),
        "weight": ("t_max",),
    }
    for name, keys in specs.items():
        p = sub.add_parser(name)
        common(p)
        for key in keys:
            default = TASKS[name].params[key]
            p.add_argument("--" + key.replace("_", "-"), type=_flag_type(default), default=default)
    p_run = sub.add_parser("run", help="run a full config file")
    common(p_run)
    p_rep = sub.add_parser("report", help="aggregate a run directory")
    p_rep.add_argument("--out", default="runs/latest")

    ns = parser.parse_args(argv)
    if ns.command == "report":
        print(emit_report(ns.out))
        return 0

    if ns.config:
        config = ExperimentConfig.load(ns.config)
    elif ns.command == "run":
        parser.error("run requires --config")
    else:
        params = {key: getattr(ns, key) for key in specs[ns.command]}
        config = ExperimentConfig.from_dict(
            {
                "polynomial": ns.poly.split(","),
                "tasks": [{"name": ns.command, "params": params}],
                "preset": ns.preset,
            }
        )
    if ns.seed is not None:
        config.seed = ns.seed
    summary = run_experiment(config, ns.out)
    print(json.dumps(summary, indent=2))
    return 1 if summary["failed_required"] else 0


if __name__ == "__main__":
    sys.exit(main())
