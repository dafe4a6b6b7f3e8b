"""Deterministic experiment harness: strict JSON configs, task registry,
JSON-lines records, CSV side files, and report aggregation.

Every task appends one record {task, params, result, duration_ms}, with
error {type, message} in place of result for a task that raised; result
fields are deterministic given (config, seed). A task may add measurements
beside duration_ms, outside result: the dmax task adds nodes, the search
kernel's node count of each row of its table. Floats serialize as the
shortest decimal that reads back to the same float, integers beyond 2^53 as
decimal strings (hex strings past the interpreter's decimal digit limit).
"""

from __future__ import annotations

import argparse

import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from . import harmonic, increment, leveld, search, sieve
from .intersective import AuxiliaryBuilder, intersectivity_verdict
from .nt import FACTOR_BOUND
from .polycore import IntPoly, normalize_positive


class ConfigError(ValueError):
    pass


BIG_INT = 1 << 53


def to_jsonable(obj: Any) -> Any:
    """Canonical JSON form: floats stay floats (json writes the shortest
    round-trip repr, so 20.0 keeps its .0), big ints as decimal strings, or
    as hex strings tagged "0x" when too long for str(), mappings sorted by
    key. int(s, 0) reads either string back."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        v = int(obj)
        if abs(v) <= BIG_INT:
            return v
        try:
            return str(v)
        except ValueError:  # past the interpreter's limit on decimal digits
            return hex(v)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
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

@dataclass
class ExperimentConfig:
    polynomial: list[int]
    tasks: list[dict]
    seed: int = 0
    constants: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        allowed = {"polynomial", "tasks", "seed", "constants", "preset"}
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "polynomial" not in raw or "tasks" not in raw:
            raise ConfigError("config requires 'polynomial' and 'tasks'")
        if not isinstance(raw["polynomial"], list):
            raise ConfigError("polynomial must be a list of coefficients")
        poly = [_coefficient(c) for c in raw["polynomial"]]
        seed = raw.get("seed", 0)
        if not _fits(seed, 0):
            raise ConfigError(f"seed must be int, not {seed!r}")
        consts = raw.get("constants", {})
        _check_keys("constants", consts, {f.name: f.default for f in fields(increment.IncrementConfig)})
        tasks = []
        for i, t in enumerate(raw["tasks"]):
            extra = set(t) - {"name", "params"}
            if extra:
                raise ConfigError(f"task {i}: unknown keys {sorted(extra)}")
            if "name" not in t:
                raise ConfigError(f"task {i}: missing name")
            name = t["name"]
            if name not in TASKS:
                raise ConfigError(f"task {i}: unknown task {name!r}")
            params = t.get("params", {})
            _check_keys(f"task {i} ({name}) params", params, TASKS[name].params)
            tasks.append({"name": name, "params": params})
        # one preset: IncrementConfig's defaults, under the config's constants
        if raw.get("preset", "desk") != "desk":
            raise ConfigError("preset must be 'desk'")
        return cls(
            polynomial=poly,
            tasks=tasks,
            seed=seed,
            constants=dict(consts),
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
            "preset": "desk",
        }

    def increment_config(self) -> increment.IncrementConfig:
        return increment.IncrementConfig(**self.constants)


def _coefficient(c: Any) -> int:
    """A polynomial coefficient: an int, or a string int(s, 0) reads (the
    CLI's --poly, and the form to_jsonable gives big ints)."""
    if isinstance(c, str):
        try:
            return int(c, 0)
        except ValueError:
            pass
    elif _fits(c, 0):
        return c
    raise ConfigError(f"polynomial coefficients must be int or integer strings, not {c!r}")


def _check_keys(what: str, given: dict, defaults: dict) -> None:
    """Raise ConfigError unless each key of given has a default and its value
    the default's type: an int default takes an int, a float default an int
    or a float, a list default a list of its first element's type, and a
    bool fits only a bool default."""
    bad = set(given) - set(defaults)
    if bad:
        raise ConfigError(f"{what}: unknown keys {sorted(bad)}")
    for key, value in given.items():
        if not _fits(value, defaults[key]):
            raise ConfigError(f"{what}: {key} must be {type(defaults[key]).__name__}, not {value!r}")


def _fits(value: Any, default: Any) -> bool:
    if isinstance(value, bool) != isinstance(default, bool):
        return False
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    return isinstance(value, (int, float) if isinstance(default, float) else type(default))


class RunContext:
    """Lazily built shared state for one experiment run."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.h = IntPoly.of(config.polynomial)
        self.rng = np.random.default_rng(config.seed)
        self._norm: Optional[tuple[IntPoly, int]] = None
        self._builder: Optional[AuxiliaryBuilder] = None
        self.side_files: list[tuple[str, str]] = []  # (filename, content)
        self.measured: dict[str, Any] = {}  # fields the running task adds to its record, outside result

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
            return search.AvoidingSet.from_indicator(np.append(False, self.rng.random(X) < density))
        raise ConfigError(f"unknown set kind {kind!r}")


@dataclass
class TaskDef:
    params: dict  # name -> default, which sets the type; TASKS is the only place defaults live
    run: Callable[[RunContext, dict], dict]
    # result -> True (passed), False (failed) or None (not decided); a pure
    # function of the recorded fields, so a parsed record gives the same
    # verdict. None for a task whose check cannot fail.
    verdict: Optional[Callable[[dict], Optional[bool]]] = None


# ---------------------------------------------------------------------------
# task implementations
# ---------------------------------------------------------------------------


def _task_f_eval(ctx: RunContext, p: dict) -> dict:
    # 0.0 means "from the config": log_x from x, epsilon from the constants
    log_x = float(p["log_x"]) if p["log_x"] else None
    epsilon = float(p["epsilon"]) or ctx.config.increment_config().epsilon
    value = increment.F_eval(float(p["x"]), epsilon, log_x=log_x)
    return {"value": value, "d_exponent": increment.d_exponent(epsilon)}


def _task_check(ctx: RunContext, p: dict) -> dict:
    if p["prime_bound"] < 2:
        raise ConfigError(f"check prime_bound must be at least 2, not {p['prime_bound']}")
    verdict = intersectivity_verdict(ctx.h, int(p["prime_bound"]))
    return {"verdict": verdict.to_jsonable()}


def _task_aux(ctx: RunContext, p: dict) -> dict:
    # the builder raises on a context past the coefficient bound
    if p["ell_max"] < 1:
        raise ConfigError(f"aux ell_max must be at least 1, not {p['ell_max']}")
    rows = [ctx.builder.context(ell).to_jsonable() for ell in range(1, int(p["ell_max"]) + 1)]
    return {"count": len(rows), "contexts": rows}


def _ell_and_U(name: str, p: dict) -> tuple[int, float]:
    """A sieve's modulus ell in [1, 2^31), which the tower factors, and level U >= 0."""
    if not 1 <= p["ell"] < FACTOR_BOUND:
        raise ConfigError(f"{name} ell must lie in [1, 2^31), not {p['ell']}")
    if not p["U"] >= 0:  # NaN too
        raise ConfigError(f"{name} U must be nonnegative, not {p['U']}")
    return int(p["ell"]), float(p["U"])


def _task_sieve(ctx: RunContext, p: dict) -> dict:
    ell, U = _ell_and_U("sieve", p)
    table = sieve.SieveTable.build(ctx.builder.context(ell), U)
    J = sieve.J_factor(table)
    count = sieve.w_count_in_period(table) if table.period <= sieve.PERIOD_CAP else None
    exact = None if count is None else (count * J == table.period)
    return {
        "table": table.to_jsonable(),
        "J": {"num": J.numerator, "den": J.denominator},
        "members_per_period": count,
        "density_identity_exact": exact,
    }


def _task_gauss(ctx: RunContext, p: dict) -> dict:
    ell, U = _ell_and_U("gauss", p)
    if p["q_max"] < 1:
        raise ConfigError(f"gauss q_max must be at least 1, not {p['q_max']}")
    aux = ctx.builder.context(ell)
    table = sieve.SieveTable.build(aux, U)
    sweep = harmonic.gauss_sum_sweep(aux, int(p["q_max"]), U, all_a=bool(p["all_a"]), table=table)
    fitted = max((mag / q**0.6 for q, _, mag in sweep), default=0.0)
    ctx.side_files.append(
        (
            "gauss.csv",
            "q,a,magnitude,sqrt_q\n"
            + "".join(f"{q},{a},{m:.17g},{math.sqrt(q):.17g}\n" for q, a, m in sweep),
        )
    )
    return {"rows": len(sweep), "fitted_c_vs_q0.6": fitted}


def _task_mass(ctx: RunContext, p: dict) -> dict:
    X = int(p["x"])
    if X < 1:
        raise ConfigError(f"mass x must be at least 1, not {X}")
    A = ctx.make_set(p["set"], X)
    cfg = ctx.config.increment_config()
    ap = harmonic.ArcParams.make(max(A.alpha, 1e-9), cfg.epsilon, cfg.C1, X)
    value = harmonic.initial_mass(A, float(p["xi"]), ap)
    return {"alpha": A.alpha, "mass": value, "alpha2X2": (A.alpha * X) ** 2}


def _task_leveld(ctx: RunContext, p: dict) -> dict:
    X = int(p["x"])
    alpha = float(p["alpha"])
    variant = int(p["variant"])
    if X < 1 or not 0 < alpha <= 1:
        raise ConfigError(f"leveld needs x >= 1 and 0 < alpha <= 1, not x = {X}, alpha = {alpha}")
    if variant not in (0, 1, 2):
        raise ConfigError(f"leveld variant must be 0, 1 or 2, not {variant}")
    if variant:
        fam = leveld.build_family(variant, alpha, ctx.config.increment_config())
    elif not p["members"]:
        raise ConfigError("leveld members must be a nonempty list")
    else:
        try:
            fam = leveld.ModulusFamily.from_members(p["members"])
        except ValueError as exc:  # a member below 1, or one that shares a factor
            raise ConfigError(f"leveld members {p['members']}: {exc}") from exc
    verdicts = []
    for _ in range(int(p["trials"])):
        mask = ctx.rng.random(X) < alpha
        rep = leveld.level_d_audit(mask, fam, int(p["d"]), alpha)
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
    if X < increment.X_MIN:
        raise ConfigError(f"step x must be at least {increment.X_MIN}, not {X}")
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
    if xm > search.EXACT_CAP:
        raise ConfigError(f"dmax x_max must be at most {search.EXACT_CAP}, not {xm}")
    budget = float(p["budget"])  # seconds; 0.0 means no budget
    if not budget >= 0:  # NaN too
        raise ConfigError(f"dmax budget must be nonnegative, not {budget}")
    forb = search.forbidden_values(ctx.builder.context(1), xm)
    try:
        table = search.dmax_table(forb, xm, time_budget=budget or None)
    except search.TimeBudgetExceeded as exc:
        table = exc.partial  # the rows finished in the budget: len(table) < x_max
    ctx.measured["nodes"] = table.nodes
    lines = ["X,D,witness"]
    for X, Dv, wit in table:
        lines.append(f"{X},{Dv},\"{json.dumps(wit.members())}\"")
    ctx.side_files.append(("dmax.csv", "\n".join(lines) + "\n"))
    final = table[-1][1] if table else 0  # an empty table: x_max = 0, or no row in the budget
    return {"x_max": xm, "final_D": final, "table": [(X, Dv) for X, Dv, _ in table]}


def _task_greedy(ctx: RunContext, p: dict) -> dict:
    xs = [int(x) for x in p["x_values"]]
    if any(X < 1 for X in xs):
        raise ConfigError(f"greedy x_values must be at least 1, not {xs}")
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
    if p["depth"] < 2:
        raise ConfigError(f"weight depth must be at least 2, not {p['depth']}")
    if p["resolution"] < 2**10:
        raise ConfigError(f"weight resolution must be at least 2^10, not {p['resolution']}")
    w = harmonic.smooth_weight_build(int(p["depth"]), int(p["resolution"]))
    limit = w.decay_audit_limit()
    if not 0 <= p["t_max"] <= limit:  # NaN too
        raise ConfigError(f"weight t_max must lie in [0, {limit:.0f}], not {p['t_max']}")
    audit = harmonic.weight_fourier_audit(w, float(p["t_max"]))
    ctx.side_files.append(
        (
            "weight_decay.csv",
            "t,magnitude,envelope\n"
            + "".join(
                f"{t:.17g},{m:.17g},{audit.fitted_c * math.exp(-math.sqrt(t / 2)):.17g}\n"
                for t, m in zip(audit.ts, audit.magnitudes)
            ),
        )
    )
    return {"audit": audit.to_jsonable(), "mass": w.mass}


# ---------------------------------------------------------------------------
# verdicts: weight has none (its fitted C is the largest ratio, so nothing can
# exceed it) and aux has none (the builder raises past the coefficient bound)
# ---------------------------------------------------------------------------

GAUSS_C_MAX = 10.0  # largest fitted C in |S(a, q)| <= C q^0.6; acceptance criterion 5's bound


def _leveld_verdict(result: dict) -> Optional[bool]:
    """The dichotomy holds on every trial whose hypotheses hold; None when
    no trial meets them."""
    decided = [t["dichotomy_ok"] for t in result["trials"] if t["hypotheses_ok"]]
    return all(decided) if decided else None


TASKS: dict[str, TaskDef] = {
    "f_eval": TaskDef({"x": 0.0, "log_x": 0.0, "epsilon": 0.0}, _task_f_eval),
    "check": TaskDef({"prime_bound": 1000}, _task_check),
    "aux": TaskDef({"ell_max": 30}, _task_aux),
    "sieve": TaskDef({"U": 10.0, "ell": 1}, _task_sieve, lambda r: r["density_identity_exact"]),
    "gauss": TaskDef(
        {"q_max": 100, "U": 100.0, "ell": 1, "all_a": False},
        _task_gauss,
        lambda r: bool(r["fitted_c_vs_q0.6"] <= GAUSS_C_MAX),
    ),
    "mass": TaskDef({"set": {"kind": "multiples", "m": 3}, "x": 300, "xi": 0.0}, _task_mass),
    "leveld": TaskDef(
        {
            "alpha": 0.2,
            "x": 600,
            "d": 2,
            "trials": 5,
            "members": [3, 4, 5, 7, 11],
            "variant": 0,
        },
        _task_leveld,
        _leveld_verdict,
    ),
    "step": TaskDef({"set": {"kind": "greedy"}, "x": 2000}, _task_step),
    "iterate": TaskDef(
        {"set": {"kind": "greedy"}, "x": 2000}, _task_iterate, lambda r: r["invariants_ok"]
    ),
    "dmax": TaskDef({"x_max": 60, "budget": 0.0}, _task_dmax),
    "greedy": TaskDef(
        {"x_values": [1000, 10000]},
        _task_greedy,
        lambda r: all(row["verified"] for row in r["rows"]),
    ),
    "weight": TaskDef({"depth": 24, "resolution": 2**16, "t_max": 400.0}, _task_weight),
}


# ---------------------------------------------------------------------------
# run and report
# ---------------------------------------------------------------------------


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> dict:
    """Execute tasks in order. Each task's record is appended to
    records.jsonl and flushed, and its CSV side files written, when the task
    ends, so a run that stops keeps what it finished. A task that raises gets
    a record with the exception's type and message in place of a result, and
    the exception propagates. Returns a summary dict; 'failed_required' lists
    the tasks whose verdict is False."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ctx = RunContext(config)
    failed_required = []
    with open(out / "records.jsonl", "w", encoding="utf-8", newline="\n") as fh:

        def append(record: dict) -> None:
            fh.write(dumps_record(record) + "\n")
            fh.flush()

        append({"config": config.to_jsonable(), "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")})
        for task in config.tasks:
            name = task["name"]
            written = len(ctx.side_files)
            ctx.measured = {}
            t0 = time.perf_counter()
            try:
                result = TASKS[name].run(ctx, {**TASKS[name].params, **task["params"]})
            except Exception as exc:
                duration = (time.perf_counter() - t0) * 1000.0
                error = {"type": type(exc).__name__, "message": str(exc)}
                append({"task": name, "params": task["params"], "error": error, "duration_ms": duration})
                raise
            duration = (time.perf_counter() - t0) * 1000.0
            append({"task": name, "params": task["params"], "result": result, "duration_ms": duration, **ctx.measured})
            for fname, content in ctx.side_files[written:]:
                (out / fname).write_text(content, encoding="utf-8", newline="\n")
            verdict = TASKS[name].verdict
            if verdict is not None and verdict(result) is False:
                failed_required.append(name)
    return {
        "records": len(config.tasks),
        "out_dir": str(out),
        "failed_required": failed_required,
    }


VERDICT_WORDS = {True: "passed", False: "FAILED", None: "not decided"}


def emit_report(run_dir: str | Path) -> str:
    """Aggregate records.jsonl in run_dir into summary.md: one line per task
    record, then the verdict of each record whose task has one. A task that
    raised is FAILED, whether or not its task has a verdict."""
    run = Path(run_dir)
    rec_path = run / "records.jsonl"
    if not rec_path.exists():
        raise FileNotFoundError(f"no records.jsonl under {run}")
    records = [json.loads(line) for line in rec_path.read_text(encoding="utf-8").splitlines() if line]
    lines = ["# Run summary", ""]
    audits = []
    for rec in records:
        if "task" not in rec:
            continue
        name = rec["task"]
        if "error" in rec:
            error = rec["error"]
            lines.append(f"- **{name}**: raised {error['type']}: {json.dumps(error['message'])[:200]}")
            audits.append(f"- {name}: FAILED ({error['type']})")
            continue
        lines.append(f"- **{name}**: {json.dumps(to_jsonable(rec['result']))[:200]}")
        verdict = TASKS[name].verdict
        if verdict is not None:
            audits.append(f"- {name}: {VERDICT_WORDS[verdict(rec['result'])]}")
    lines += ["", "## Audits", *audits] if audits else ["", "no audits"]
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
        p.add_argument("--out", default="runs/latest", help="output directory")
        p.add_argument("--seed", type=int, default=None)

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
        "dmax": ("x_max", "budget"),
        "greedy": ("x_values",),
        "weight": ("t_max",),
    }
    for name, keys in specs.items():
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--poly", default="0,0,1", help="coefficients, constant first")
        for key in keys:
            default = TASKS[name].params[key]
            p.add_argument("--" + key.replace("_", "-"), type=_flag_type(default), default=default)
    p_run = sub.add_parser("run", help="run a full config file")
    common(p_run)
    p_run.add_argument("--config", required=True, help="JSON config path")
    p_rep = sub.add_parser("report", help="aggregate a run directory")
    p_rep.add_argument("--out", default="runs/latest")

    ns = parser.parse_args(argv)
    if ns.command == "report":
        print(emit_report(ns.out))
        return 0

    if ns.command == "run":
        config = ExperimentConfig.load(ns.config)
    else:
        params = {key: getattr(ns, key) for key in specs[ns.command]}
        config = ExperimentConfig.from_dict(
            {
                "polynomial": ns.poly.split(","),
                "tasks": [{"name": ns.command, "params": params}],
            }
        )
    if ns.seed is not None:
        config.seed = ns.seed
    try:
        summary = run_experiment(config, ns.out)
    except Exception:  # the failed task's record is in --out, after the records before it
        traceback.print_exc()
        return 1
    print(json.dumps(summary, indent=2))
    return 1 if summary["failed_required"] else 0


if __name__ == "__main__":
    sys.exit(main())
