"""Constructive density increments and the full iteration with trace
bookkeeping.

One step: scan balanced-function Fourier mass over candidate denominators q
and a small grid of offsets xi near 0; pigeonhole the best (q, xi); extract a
subprogression with common difference lambda(q) on which the density grows;
relabel the problem through the auxiliary polynomial at q * ell and rescale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .harmonic import _mod_masses
from .intersective import AuxiliaryBuilder, AuxiliaryContext
from .polycore import IntPoly
from .search import AvoidingSet, image_values, verify_avoiding


LENGTH_C = 1.0  # extraction's target length is LENGTH_C eta X / (lambda(q) T)
MAX_STEPS = 64  # iterate stops after this many increments
XI_POINTS = 33  # offsets in the mass scan's xi grid
X_MIN = 16  # smallest X a step accepts; iterate stops below it


def d_exponent(epsilon: float) -> float:
    return 1.0 / ((2.0 + epsilon) * (1.0 + epsilon) + 2.0)


def F_eval(X: float = 0.0, epsilon: float = 1.0, log_x: Optional[float] = None) -> float:
    """F(X) = (log X)^d / sqrt(log(3 + log X)); accepts log X directly for
    scales beyond float range."""
    if log_x is None:
        if X <= 1:
            raise ValueError("need X > 1")
        log_x = math.log(X)
    if log_x <= 0:
        raise ValueError("need log X > 0")
    if epsilon <= 0:
        raise ValueError("need epsilon > 0")
    d = d_exponent(epsilon)
    return log_x**d / math.sqrt(math.log(3.0 + log_x))


@dataclass
class IncrementConfig:
    """The paper's constants, and the one place their defaults live.

    The defaults keep the iteration observable at desk scale. The paper
    takes opt1_c = c_h and rho = 2^(-10k); since F(X) < 1 at desk X, the
    threshold exp(-c_h F(X)) is then near 1 (0.9916 at X = 2000) and every
    step stops at option 1. opt1_c = 4 makes option 1 bite only for
    genuinely sparse sets. An unknown constant raises TypeError."""

    epsilon: float = 1.0
    c_h: float = 0.01
    C_h: float = 20.0
    C1: float = 10.0
    C2: float = 100.0
    C3: float = 100.0
    C4: float = 100.0  # accepted from configs; nothing reads it yet
    rho: float = 0.5
    opt1_c: float = 4.0  # option-1 stop threshold is exp(-opt1_c F(X))
    q_cap: int = 64

    def opt1_threshold(self, X: int) -> float:
        return math.exp(-self.opt1_c * F_eval(X, self.epsilon))

    def to_jsonable(self) -> dict:
        return {k: v for k, v in vars(self).items()}


@dataclass(frozen=True)
class Progression:
    start: int
    step: int  # always a value lambda(q)
    length: int
    q: int

    @property
    def last(self) -> int:
        return self.start + self.step * (self.length - 1)

    def to_jsonable(self) -> dict:
        return {"start": self.start, "step": self.step, "length": self.length, "q": self.q}


@dataclass
class ExtractResult:
    progression: Optional[Progression]
    density: float
    met_threshold: bool


def extract_increment(
    A: AvoidingSet,
    q: int,
    xi: float,
    eta: float,
    lambda_q: int,
) -> ExtractResult:
    """Scan all subprogressions of difference lambda(q) and target length
    ceil(c eta X / (lambda(q) T)) tiling [X]; return the first meeting
    density >= (1 + eta/20) alpha, else the densest one flagged unmet."""
    X = A.X
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    T = max(1.0, abs(xi) * X)
    raw = LENGTH_C * eta * X / (lambda_q * T)
    if raw < 1.0:
        raise ValueError(f"target progression length {raw:.3f} < 1: infeasible scale")
    target = math.ceil(raw)
    alpha = A.alpha
    need = (1.0 + eta / 20.0) * alpha
    member_mask = A.indicator()
    best: Optional[Progression] = None
    best_density = -1.0
    for b in range(1, lambda_q + 1):
        cls = np.arange(b, X + 1, lambda_q)
        blocks = len(cls) // target
        if blocks == 0:
            continue
        hits = member_mask[cls[: blocks * target]].reshape(blocks, target)
        counts = hits.sum(axis=1)
        for i in range(blocks):
            dens = counts[i] / target
            if dens > best_density:
                best_density = dens
                best = Progression(int(cls[i * target]), lambda_q, target, q)
            if dens >= need:
                return ExtractResult(best, float(dens), True)
    return ExtractResult(best, float(best_density), False)


@dataclass
class StepOutcome:
    option: str  # star | opt1 | opt2 | opt3 | none
    old_alpha: float
    new_alpha: Optional[float] = None
    progression: Optional[Progression] = None
    j: Optional[int] = None
    new_context: Optional[AuxiliaryContext] = None
    rescaled: Optional[AvoidingSet] = None
    envelopes: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "option": self.option,
            "old_alpha": self.old_alpha,
            "new_alpha": self.new_alpha,
            "progression": self.progression.to_jsonable() if self.progression else None,
            "j": self.j,
            "envelopes": self.envelopes,
            "diagnostics": self.diagnostics,
        }


def _mass_scan(A: AvoidingSet, cfg: IncrementConfig, tau: float) -> list[tuple]:
    """Candidate (q, xi, eta) triples, ranked, by the mass of the balanced
    weights 1_A - alpha (_mod_masses) over q = 2..q_cap and the exactly
    antisymmetric grid xi = j tau / m, m = XI_POINTS - 1, j = -m, -m + 2, ..., m.
    Raw mass grows linearly in q for unstructured sets, so the rank is by
    mass over the q * alpha(1-alpha) X noise baseline, then smaller q, |xi|,
    xi; the caller falls through infeasible ones."""
    X, alpha = A.X, A.alpha
    m = XI_POINTS - 1
    abs_xis = np.arange(m % 2, m + 1, 2) * tau / m
    masses = _mod_masses(A, alpha, cfg.q_cap, abs_xis)
    denom = alpha * alpha * X * X
    noise = alpha * (1.0 - alpha) * X
    scored = []
    for xi, row in zip(abs_xis.tolist(), masses):
        for q in range(2, cfg.q_cap + 1):
            mass = float(row[q])
            snr = mass / (q * noise) if noise > 0 else mass
            for signed in (-xi, xi) if xi else (xi,):
                scored.append((-snr, q, xi, signed, mass / denom))
    scored.sort()
    return [(q, xi, eta) for _, q, _, xi, eta in scored]


def increment_step(
    A: AvoidingSet,
    ctx: AuxiliaryContext,
    cfg: Optional[IncrementConfig] = None,
) -> StepOutcome:
    """One density increment against the auxiliary polynomial at ctx.ell.

    Pipeline: option-1 sparsity stop; mass scan for the best (q, xi);
    progression extraction; envelope labeling; rescale onto the progression
    and build the context at q * ell."""
    cfg = cfg or IncrementConfig()
    if A.size == 0:
        raise ValueError("increment_step needs a nonempty set")
    X = A.X
    if X < X_MIN:
        raise ValueError(f"X = {X} below X_MIN = {X_MIN}")
    builder = ctx.builder
    alpha = A.alpha
    if alpha <= cfg.opt1_threshold(X):
        return StepOutcome(
            option="opt1",
            old_alpha=alpha,
            diagnostics={"threshold": cfg.opt1_threshold(X)},
        )
    L = math.log(1.0 / alpha) if alpha < 1 else 1e-9
    tau = cfg.C1 * L * L / X
    candidates = _mass_scan(A, cfg, tau)
    res = None
    q = xi = eta = None
    for q_c, xi_c, eta_raw in candidates[:16]:
        eta_c = min(0.999, eta_raw)
        lam = builder.lambda_of(q_c)
        try:
            attempt = extract_increment(A, q_c, xi_c, eta_c, lam)
        except ValueError:
            continue
        if attempt.progression is None:
            continue
        if res is None or attempt.density > res.density:
            res, q, xi, eta = attempt, q_c, xi_c, eta_c
        if attempt.met_threshold:
            res, q, xi, eta = attempt, q_c, xi_c, eta_c
            break
    if res is None or res.progression is None:
        return StepOutcome(
            option="none",
            old_alpha=alpha,
            diagnostics={"candidates_tried": min(len(candidates), 16)},
        )
    prog = res.progression
    new_alpha = res.density
    length = prog.length
    gain = new_alpha - alpha
    envelopes = {
        "star": length >= alpha**cfg.C_h * X and new_alpha >= alpha + alpha**cfg.C_h,
        "opt2": False,
        "opt3": length >= X * L**-cfg.C_h
        and new_alpha >= alpha * (1.0 + cfg.c_h * L ** -((2 + cfg.epsilon) * (1 + cfg.epsilon))),
    }
    j = None
    if new_alpha >= 2.0 * alpha:
        j_cand = int(math.floor(math.log2(new_alpha / alpha)))
        if length >= X * math.exp(
            -cfg.C_h * j_cand * L ** (3 + cfg.epsilon) * max(math.log(L), 1e-9) ** 2
        ):
            envelopes["opt2"] = True
            j = j_cand
    if gain <= 0 or not any(envelopes.values()):
        return StepOutcome(
            option="none",
            old_alpha=alpha,
            new_alpha=new_alpha,
            progression=prog,
            envelopes=envelopes,
            diagnostics={"q": q, "xi": xi, "eta": eta, "met": res.met_threshold},
        )
    option = "opt2" if envelopes["opt2"] else ("opt3" if envelopes["opt3"] else "star")
    rescaled = AvoidingSet.from_indicator(
        np.append(False, A.indicator()[prog.start : prog.last + 1 : prog.step])
    )
    new_ctx = builder.context(q * ctx.ell)
    diagnostics = {"q": q, "xi": xi, "eta": eta, "met": res.met_threshold}
    # holds whenever the input set itself avoided the ell-image; recorded
    # rather than asserted since the engine accepts arbitrary sets
    forb = image_values(new_ctx.aux, 1, max(prog.length - 1, 1))
    ok, viol = verify_avoiding(rescaled, forb)
    diagnostics["rescaled_avoids_image"] = ok
    if viol is not None:
        diagnostics["violation"] = viol
    return StepOutcome(
        option=option,
        old_alpha=alpha,
        new_alpha=new_alpha,
        progression=prog,
        j=j,
        new_context=new_ctx,
        rescaled=rescaled,
        envelopes=envelopes,
        diagnostics=diagnostics,
    )


@dataclass
class TraceRow:
    m: int
    X_m: int
    alpha_m: float
    q_m: int
    ell_m: int
    option: str

    def csv(self) -> str:
        return f"{self.m},{self.X_m},{self.alpha_m!r},{self.q_m},{self.ell_m},{self.option}"


@dataclass
class IterationTrace:
    rows: list[TraceRow]
    stop_reason: str
    config: IncrementConfig

    CSV_HEADER = "m,X_m,alpha_m,q_m,ell_m,option"

    def check_invariants(self) -> bool:
        x0 = self.rows[0].X_m if self.rows else 0
        for row in self.rows:
            if row.ell_m > 2**row.m * x0 / max(row.X_m, 1):
                return False
        return True

    def _config_echo(self) -> str:
        import json

        return json.dumps(self.config.to_jsonable(), sort_keys=True)

    def to_csv(self) -> str:
        lines = [f"# config: {self._config_echo()}", self.CSV_HEADER]
        lines += [r.csv() for r in self.rows]
        return "\n".join(lines) + "\n"

    def to_jsonable(self) -> dict:
        return {
            "config": self.config.to_jsonable(),
            "stop_reason": self.stop_reason,
            "rows": [vars(r) for r in self.rows],
        }


def iterate(
    A: AvoidingSet,
    h: IntPoly,
    cfg: Optional[IncrementConfig] = None,
) -> IterationTrace:
    """Repeat increment_step, rescaling and growing ell, until a stopping
    rule fires: option 1, X below X_MIN, alpha above 2/3, ell at X^rho, or no
    increment found."""
    cfg = cfg or IncrementConfig()
    builder = AuxiliaryBuilder(h)
    rows: list[TraceRow] = []
    if A.size == 0:
        return IterationTrace(rows, "empty set", cfg)
    X, ell, m = A.X, 1, 0
    rows.append(TraceRow(0, X, A.alpha, 1, 1, "init"))
    cur = A
    stop = "max steps"
    while m < MAX_STEPS:
        if cur.alpha > 2.0 / 3.0:
            stop = "alpha above 2/3"
            break
        if cur.X < X_MIN:
            stop = "X below X_min"
            break
        if ell >= cur.X**cfg.rho:
            stop = "ell at X^rho"
            break
        out = increment_step(cur, builder.context(ell), cfg)
        if out.option == "opt1":
            rows.append(TraceRow(m + 1, cur.X, cur.alpha, 1, ell, "opt1"))
            stop = "option 1"
            break
        if out.option == "none" or out.rescaled is None:
            stop = "no increment found"
            break
        m += 1
        q = out.progression.q
        ell *= q
        cur = out.rescaled
        rows.append(TraceRow(m, cur.X, cur.alpha, q, ell, out.option))
    return IterationTrace(rows, stop, cfg)
