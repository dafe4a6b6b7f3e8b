#!/usr/bin/env python3
"""polysieve benchmark: one workload per process, closed loop, one caller.

Usage, from the repository root:

    python3 perfbench/run.py --workload exact_plateau --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload desk_experiment --seed 1 --seconds 0 --smoke

The run first times the set-up in fresh processes, then repeats full passes
of the workload's fixed work for about ``--seconds``, then runs the
workload's correctness checks. With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it times untraced passes for half the time and
traced passes for the other half, and reports the per-layer metrics. The last
line of standard output is one JSON object; the lines before it give every
metric with its unit, the fail rate, and the machine. A copy of the result,
and the spans of a traced run, go to ``perfbench/out/``. The exit code is 0
when every step and check passed, 1 when one failed, and 2 when the program
could not be imported.
"""

from __future__ import annotations

import os

# one thread per process: numpy's BLAS would otherwise start its own pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("exact_plateau", "spectral_audit", "desk_experiment")
SETUP_PROBES = 5
PERCENTILES = (50, 90, 99, 99.9)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0, help="how long the passes run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, every check, a few seconds")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_workloads():
    """Import polysieve from this checkout's src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import polysieve

    if not Path(polysieve.__file__).resolve().is_relative_to(src):
        raise ImportError(f"polysieve imported from {polysieve.__file__}, not from {src}")
    import workloads

    return workloads


@dataclass
class Tally:
    """Operations attempted and failed: every step of every pass, and every
    correctness check."""

    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    output: dict
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    t0: float = 0.0


def run_passes(workload, seconds: float, min_passes: int, tally: Tally, tracer=None) -> list[Pass]:
    """Closed loop: each pass starts when the previous one has returned. A
    new pass starts only while at least half of a median pass fits before
    ``seconds`` are up, so a run overruns by at most about half a pass."""
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or (
        time.perf_counter() + statistics.median(p.wall_s for p in passes) / 2 <= deadline
    ):
        steps = workload.steps()
        out: dict = {}
        if tracer is not None:
            tracer.start()
        c0, t0 = time.process_time(), time.perf_counter()
        ok = True
        for name, step in steps:
            tally.attempted += 1
            try:
                step(out)
            except Exception:
                traceback.print_exc()
                print(f"step failed: {name}", file=sys.stderr)
                tally.failed += 1
                ok = False
                break
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        spans, counts = tracer.stop() if tracer is not None else ([], {})
        if not ok:
            break
        passes.append(Pass(wall, cpu, out, spans, counts, t0))
    return passes


def run_checks(workload, outputs: list[dict], tally: Tally) -> None:
    try:
        checks = list(workload.checks(outputs))
    except Exception:
        traceback.print_exc()
        checks = [("collect_outputs", lambda: False)]
    for name, check in checks:
        tally.attempted += 1
        try:
            ok = bool(check())
        except Exception:
            traceback.print_exc()
            ok = False
        tally.checks[name] = ok
        if not ok:
            tally.failed += 1
            print(f"check failed: {name}", file=sys.stderr)


def measure_setup(args, probes: int) -> list[float]:
    """Seconds from starting a fresh workload process until it is ready for
    its first pass, one sample per process, run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe exited with {code}")
        samples.append(elapsed)
    return samples


def high_percentile(samples: list[float]):
    """(p, value) for the highest listed percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(samples)
    usable = [p for p in PERCENTILES if n * (1 - p / 100) >= 10]
    if not usable:
        return None
    p = usable[-1]
    cuts = statistics.quantiles(samples, n=1000, method="inclusive")
    return p, cuts[int(p * 10) - 1]


def provenance(seed: int) -> dict:
    def imports(name: str) -> bool:
        try:
            importlib.import_module(name)
            return True
        except ImportError:
            return False

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": imports("numba"),
        "scipy_imports": imports("scipy"),
        "git_commit": commit,
        "seed": seed,
    }


def end_to_end(passes: list[Pass], setup: list[float], peak_rss_mib: float, tally: Tally):
    walls = [p.wall_s for p in passes]
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
    }
    tail = high_percentile(walls)
    lines = [
        f"  wall_s        {metrics['wall_s']['value']:.4f} s   median of {len(walls)} passes"
        + (f", p{tail[0]:g} {tail[1]:.4f} s" if tail else ", too few passes for a tail percentile"),
        f"  setup_s       {metrics['setup_s']['value']:.4f} s   median of {len(setup)} processes",
        f"  peak_rss_mib  {peak_rss_mib:.1f} MiB",
        f"  fail_rate     {tally.failed / max(tally.attempted, 1):g}   {tally.failed} of {tally.attempted} operations",
    ]
    extra = {"wall_samples_s": walls, "setup_samples_s": setup, "wall_tail": tail}
    return metrics, lines, extra


def per_layer(tracer_mod, untraced: list[Pass], traced: list[Pass]):
    rows = [tracer_mod.layer_metrics(p.spans, p.counts, p.wall_s) for p in traced]
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    values["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - statistics.median(
        p.wall_s for p in untraced
    )
    values["process.cpu_s"] = statistics.median(p.cpu_s for p in untraced)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracer_mod.PER_LAYER_UNITS.items()}
    lines = [f"  {name:<36} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads = import_workloads()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    scratch = OUT / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, scratch)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    tally = Tally()
    try:
        if args.trace:
            import tracer as tracer_mod

            untraced = run_passes(workload, args.seconds / 2, 1, tally)
            tracer = tracer_mod.Tracer()
            tracer.install(extra_namespaces=(workloads,))
            traced = run_passes(workload, args.seconds / 2, 1, tally, tracer) if untraced else []
            passes = untraced + traced
        else:
            setup = measure_setup(args, 1 if args.smoke else SETUP_PROBES)
            passes = run_passes(workload, args.seconds, workload.min_passes, tally)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if passes:
            run_checks(workload, [p.output for p in passes], tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = tally.failed == 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  correct {correct}")
    result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke}
    if not passes or (args.trace and not traced):
        metrics = {}
    elif args.trace:
        metrics, lines = per_layer(tracer_mod, untraced, traced)
        print("\n".join(lines))
        result["counts"] = dict(traced[-1].counts)
        tracer_mod.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.csv", [(p.t0, p.spans) for p in traced])
    else:
        metrics, lines, extra = end_to_end(passes, setup, peak_rss_mib, tally)
        print("\n".join(lines))
        result.update(extra)
    result.update(
        provenance=provenance(args.seed),
        checks=tally.checks,
        fail_rate=tally.failed / max(tally.attempted, 1),
        metrics=metrics,
    )
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    final = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(final), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
