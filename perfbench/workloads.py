"""The benchmark workloads: seeded inputs, the steps of one pass, and the
correctness checks.

A workload object does its set-up in ``__init__`` (everything drawn from the
seed happens there), lists the steps of one pass in ``steps()``, and yields
named checks over the outputs of all passes in ``checks()``. The program only
sees the generated inputs: the forbidden sets, the thetas, the random set and
the experiment config's ``seed``.
"""

from __future__ import annotations

import json
import math
import shutil
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from polysieve import cli, harmonic, intersective, search, sieve
from polysieve.polycore import IntPoly, normalize_positive

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_d.json"

SQUARES = IntPoly((0, 0, 1))
# (x^2-13)(x^2-17)(x^2-221): intersective without an integer root; its
# values pass 2^63 for n near 1500, so Weyl sums take the object-integer path
SEXTIC = IntPoly((-48841, 0, 6851, 0, -251, 0, 1))
# normalize_positive(SEXTIC)[0]; a check confirms it, the passes start from it
SEXTIC_POSITIVE = IntPoly((-818925, 663796, 287915, 40824, 2689, 84, 1))

Step = tuple[str, Callable[[dict], None]]
Check = tuple[str, Callable[[], bool]]


def image_in_range(family: str, X: int) -> list[int]:
    """Positive values of the family's polynomial up to X, ascending."""
    shift = {"squares": 0, "x2m1": 1}[family]
    return [n * n - shift for n in range(1, math.isqrt(X + shift) + 1) if n * n - shift >= 1]


class ExactPlateau:
    """search.dmax_table for the squares onto the D = 39 plateau, then for
    the sparser image of x^2 - 1."""

    min_passes = 1
    oracle_x = 24  # exhaustive_max_table is capped at 24
    branch_bound_x = (30, 45, 60)  # exact_max_avoiding stays fast up to here

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        # the inputs do not depend on the seed: both tables are fixed
        sizes = {"squares": 60, "x2m1": 40} if smoke else {"squares": 172, "x2m1": 106}
        self.forbidden = {fam: image_in_range(fam, X) for fam, X in sizes.items()}
        self.sizes = sizes
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))

    def steps(self) -> list[Step]:
        return [(f"dmax_table[{fam}]", partial(self._table, fam)) for fam in self.sizes]

    def _table(self, fam: str, out: dict) -> None:
        out[fam] = search.dmax_table(self.forbidden[fam], self.sizes[fam])

    def checks(self, outputs: list[dict]) -> Iterator[Check]:
        for fam, X in self.sizes.items():
            F = self.forbidden[fam]
            ref = self.reference[fam]
            tables = [out[fam] for out in outputs]
            small = min(X, self.oracle_x)
            yield f"exhaustive_rows[{fam}]", lambda F=F, t=tables, n=small: all(
                [0] + [d for _, d, _ in table[:n]] == search.exhaustive_max_table(F, n) for table in t
            )
            yield f"witnesses[{fam}]", lambda F=F, t=tables: all(
                wit.X == x and wit.size == d and search.verify_avoiding(wit, F)[0]
                for table in t
                for x, d, wit in table
            )
            yield f"reference_column[{fam}]", lambda t=tables, ref=ref, X=X: all(
                [d for _, d, _ in table] == ref[:X] for table in t
            )
            for x in self.branch_bound_x:
                if x <= X:
                    yield f"reference_vs_branch_bound[{fam},X={x}]", lambda F=F, x=x, ref=ref: (
                        search.exact_max_avoiding(F, x)[0] == ref[x - 1]
                    )


class SpectralAudit:
    """The harmonic, sieve, intersective and polycore path: auxiliary
    towers, a sieve table, Gauss sweeps, an FFT spectrum, the minor-arc and
    Weyl audits, and the initial Fourier mass."""

    min_passes = 1

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        rng = np.random.default_rng([seed, 2])
        self.tower_ell = {"squares": 100, "sextic": 40} if smoke else {"squares": 2000, "sextic": 500}
        self.gauss_q = 60 if smoke else 1000
        self.grid_x = 10**4 if smoke else 10**7
        self.minor_x = 10**6
        self.minor_alpha = 0.2
        self.weyl_n = 10**4 if smoke else 10**6
        self.thetas = rng.random(5 if smoke else 20).tolist()
        mass_x = 2000 if smoke else 10**4
        members = (np.nonzero(rng.random(mass_x) < 0.3)[0] + 1).tolist()
        self.mass_set = search.AvoidingSet.from_members(mass_x, members)
        # positions of the sampled Gauss rows, grid bins, and tower pairs (ell, q)
        self.samples = rng.random((4, 16))

    def steps(self) -> list[Step]:
        return [
            ("tower[squares]", partial(self._tower, "squares")),
            ("tower[sextic]", partial(self._tower, "sextic")),
            ("SieveTable.build", self._sieve_table),
            ("gauss_sum_sweep", self._gauss),
            ("fourier_grid", self._grid),
            ("minor_arc_audit", self._minor),
            ("weyl_sum_audit[squares]", partial(self._weyl, "squares")),
            ("weyl_sum_audit[sextic]", partial(self._weyl, "sextic")),
            ("initial_mass", self._mass),
        ]

    def _tower(self, fam: str, out: dict) -> None:
        builder = intersective.AuxiliaryBuilder(SQUARES if fam == "squares" else SEXTIC_POSITIVE)
        for ell in range(1, self.tower_ell[fam] + 1):
            builder.context(ell)
        out[f"builder[{fam}]"] = builder

    def _sieve_table(self, out: dict) -> None:
        out["table"] = sieve.SieveTable.build(out["builder[squares]"].context(1), float(self.gauss_q))

    def _gauss(self, out: dict) -> None:
        aux = out["builder[squares]"].context(1)
        out["gauss"] = harmonic.gauss_sum_sweep(aux, self.gauss_q, float(self.gauss_q), True, out["table"])

    def _grid(self, out: dict) -> None:
        aux = out["builder[squares]"].context(1)
        out["weight"] = harmonic.smooth_weight_build(24, 2**16)
        image = harmonic.g_build(aux, self.grid_x, 2.0, out["weight"])
        N = 1 << (2 * int(image.values.max()) + 1).bit_length()
        spectrum = harmonic.fourier_grid(image, N)
        bins = sorted({int(u * N) for u in self.samples[1]})
        # keep only the sampled bins, so the grid is freed with the step
        out["grid"] = (image, N, {j: complex(spectrum.values[j]) for j in bins})

    def _minor(self, out: dict) -> None:
        aux = out["builder[squares]"].context(1)
        image = harmonic.g_build(aux, self.minor_x, 2.0, out["weight"])
        out["minor"] = (image, harmonic.minor_arc_audit(image, self.minor_alpha))

    def _weyl(self, fam: str, out: dict) -> None:
        aux = out[f"builder[{fam}]"].context(1)
        report = harmonic.weyl_sum_audit(aux, 4.0, self.weyl_n, self.thetas)
        out[f"weyl[{fam}]"] = [(s.lhs, s.rhs, s.q) for s in report.samples]

    def _mass(self, out: dict) -> None:
        A = self.mass_set
        params = harmonic.ArcParams.make(A.alpha, 1.0, 10.0, A.X)
        out["mass"] = harmonic.initial_mass(A, 0.0, params)

    @staticmethod
    def _digest(out: dict) -> tuple:
        image, N, bins = out["grid"]
        return (
            out["gauss"],
            N,
            sorted(bins.items(), key=lambda kv: kv[0]),
            out["minor"][1].to_jsonable(),
            out["weyl[squares]"],
            out["weyl[sextic]"],
            out["mass"],
        )

    def checks(self, outputs: list[dict]) -> Iterator[Check]:
        last = outputs[-1]
        yield "repeatable", lambda: all(self._digest(o) == self._digest(last) for o in outputs)
        yield "gauss_rows_vs_gauss_sum_sieved", lambda: self._check_gauss(last)
        yield "grid_bins_vs_fourier_point", lambda: self._check_grid(last)
        yield "inheritance[squares]", lambda: self._check_inheritance(last, "squares")
        yield "inheritance[sextic]", lambda: self._check_inheritance(last, "sextic")
        yield "minor_argmax_is_minor", lambda: self._check_minor(last)
        yield "sextic_normalization", lambda: normalize_positive(SEXTIC)[0] == SEXTIC_POSITIVE

    def _check_gauss(self, out: dict) -> bool:
        rows = out["gauss"]
        aux = out["builder[squares]"].context(1)
        for u in self.samples[0]:
            q, a, mag = rows[int(u * len(rows))]
            z = harmonic.gauss_sum_sieved(aux, a, q, float(self.gauss_q), out["table"])
            if not abs(abs(z) - mag) <= 1e-9 * q:
                return False
        return True

    def _check_grid(self, out: dict) -> bool:
        image, N, bins = out["grid"]
        scale = 2.0 * float(np.abs(image.weights).sum())
        return all(
            abs(harmonic.fourier_point(image, Fraction(j, N)) - z) <= 1e-9 * scale for j, z in bins.items()
        )

    def _check_inheritance(self, out: dict, fam: str) -> bool:
        builder = out[f"builder[{fam}]"]
        top = self.tower_ell[fam]
        for u, v in zip(self.samples[2], self.samples[3]):
            ell = 1 + int(u * math.isqrt(top))
            q = 1 + int(v * (top // ell))
            if not intersective.inheritance_check(builder, ell, q, sample_count=20).ok:
                return False
        return True

    def _check_minor(self, out: dict) -> bool:
        image, report = out["minor"]
        if report.argmax_theta is None:
            return False
        params = harmonic.ArcParams.make(self.minor_alpha, 1.0, 10.0, image.X)
        value = abs(image.fourier(float(report.argmax_theta)))
        return (
            not harmonic.classify_arc(float(report.argmax_theta), params).is_major
            and abs(value - report.sup_minor) <= 1e-9 * image.total_mass
        )


class DeskExperiment:
    """cli.run_experiment plus emit_report on a config that uses every task
    kind, the way users run the workbench."""

    min_passes = 2  # the results of two passes are compared byte for byte

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        path = HERE / ("desk_smoke.json" if smoke else "desk_experiment.json")
        self.config = cli.ExperimentConfig.load(path)
        kinds = {task["name"] for task in self.config.tasks}
        if kinds != set(cli.TASKS):
            raise ValueError(f"{path.name} must use every task kind; missing {sorted(set(cli.TASKS) - kinds)}")
        self.config.seed = int(np.random.default_rng([seed, 3]).integers(1 << 31))
        self.scratch = scratch
        self.passes = 0
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["squares"]

    def steps(self) -> list[Step]:
        self.passes += 1
        run_dir = self.scratch / f"desk-pass-{self.passes}"
        shutil.rmtree(run_dir, ignore_errors=True)
        return [
            ("run_experiment", partial(self._run, run_dir)),
            ("emit_report", partial(self._report, run_dir)),
        ]

    def _run(self, run_dir: Path, out: dict) -> None:
        out["summary"] = cli.run_experiment(self.config, run_dir)
        out["run_dir"] = run_dir

    def _report(self, run_dir: Path, out: dict) -> None:
        out["report"] = cli.emit_report(run_dir)

    @staticmethod
    def _results(out: dict) -> list[tuple[str, str]]:
        lines = (out["run_dir"] / "records.jsonl").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines if line]
        return [(r["task"], json.dumps(r["result"], sort_keys=True)) for r in records if "task" in r]

    def checks(self, outputs: list[dict]) -> Iterator[Check]:
        results = [self._results(out) for out in outputs]
        first = results[0]
        by_task = {task: json.loads(text) for task, text in first}
        yield "results_byte_identical", lambda: len(results) >= 2 and all(r == first for r in results)
        yield "iterate_invariants", lambda: by_task["iterate"]["invariants_ok"] is True
        yield "greedy_verified", lambda: all(row["verified"] for row in by_task["greedy"]["rows"])
        yield "sieve_density_identity", lambda: by_task["sieve"]["density_identity_exact"] is True
        yield "leveld_dichotomy", lambda: all(
            t["dichotomy_ok"] or not t["hypotheses_ok"] for t in by_task["leveld"]["trials"]
        )
        yield "weight_no_violations", lambda: by_task["weight"]["audit"]["violations"] == []
        yield "dmax_vs_reference", lambda: [d for _, d in by_task["dmax"]["table"]] == self.reference[
            : by_task["dmax"]["x_max"]
        ]


WORKLOADS = {
    "exact_plateau": ExactPlateau,
    "spectral_audit": SpectralAudit,
    "desk_experiment": DeskExperiment,
}
