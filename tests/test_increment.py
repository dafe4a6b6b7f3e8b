import dataclasses
import math

import numpy as np
import pytest

from conftest import squares_upto
from polysieve.harmonic import fourier_point
from polysieve.increment import (
    X_MIN,
    XI_POINTS,
    F_eval,
    IncrementConfig,
    _mass_scan,
    d_exponent,
    extract_increment,
    increment_step,
    iterate,
)
from polysieve.intersective import AuxiliaryBuilder
from polysieve.polycore import IntPoly
from polysieve.search import AvoidingSet, greedy_avoiding, image_values, verify_avoiding


def test_d_exponent_limits():
    assert d_exponent(1e-12) == pytest.approx(0.25, abs=1e-9)
    assert d_exponent(1.0) == pytest.approx(0.125)


def test_f_eval_example():
    assert F_eval(log_x=256.0, epsilon=1.0) == pytest.approx(
        2.0 / math.sqrt(math.log(259.0))
    )
    assert F_eval(log_x=256.0, epsilon=1.0) == pytest.approx(0.8484, abs=5e-4)


def test_f_eval_monotone():
    # for epsilon near 0 (exponent 1/4) F increases from e^e on; for
    # epsilon = 1 the exponent 1/8 makes F dip before rising, so monotonicity
    # only holds from moderately large scales upward
    vals = [F_eval(log_x=t, epsilon=0.01) for t in (2.8, 10, 30, 100, 400, 2000)]
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))
    vals = [F_eval(log_x=t, epsilon=1.0) for t in (100, 400, 2000, 10**4)]
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))
    with pytest.raises(ValueError):
        F_eval(X=0.5)
    with pytest.raises(ValueError):
        F_eval(X=100, epsilon=0)


def test_f_drop_inequality():
    # F(X) - F(X') <= y (log X)^(d-1) (log(3+log X))^(-1/2) for X' = e^-y X
    for log_x in (math.log(10**6), math.log(10**12)):
        for y in (1.0, 10.0, 100.0):
            if y >= log_x:
                continue
            lhs = F_eval(log_x=log_x, epsilon=1.0) - F_eval(log_x=log_x - y, epsilon=1.0)
            rhs = y * log_x ** (d_exponent(1.0) - 1) * math.log(3 + log_x) ** -0.5
            assert lhs <= rhs + 1e-12


def test_extract_examples():
    A = AvoidingSet.from_members(100, range(5, 101, 5))
    r = extract_increment(A, 5, 0.0, 1.0, 5)
    assert r.met_threshold and r.density == 1.0
    assert (r.progression.start, r.progression.step, r.progression.length) == (5, 5, 20)

    odds = AvoidingSet.from_members(100, range(1, 101, 2))
    r = extract_increment(odds, 2, 0.0, 1.0, 2)
    assert r.met_threshold and r.density == 1.0

    full = AvoidingSet.full(100)
    r = extract_increment(full, 3, 0.0, 0.5, 3)
    assert not r.met_threshold  # density cannot exceed 1 = alpha


def test_extract_infeasible_length():
    A = AvoidingSet.from_members(100, range(1, 101, 4))
    with pytest.raises(ValueError):
        extract_increment(A, 7, 0.0, 0.01, 7**2 * 100)


def test_extract_density_matches_recount():
    A = AvoidingSet.from_members(60, [1, 5, 9, 13, 20, 21, 33, 41, 45])
    r = extract_increment(A, 4, 0.0, 0.5, 4)
    prog = r.progression
    count = sum(1 for n in range(prog.start, prog.last + 1, prog.step) if n in A)
    assert r.density == pytest.approx(count / prog.length)


def test_increment_step_structured():
    h = IntPoly((0, 0, 1))
    b = AuxiliaryBuilder(h)
    A = AvoidingSet.from_members(100, range(1, 101, 4))
    out = increment_step(A, b.context(1), IncrementConfig())
    assert out.new_alpha == 1.0
    assert out.envelopes["star"]
    assert out.diagnostics["q"] == 4
    assert out.option in ("star", "opt2", "opt3")


def test_config_defaults_are_the_desk_constants():
    # the values every run used before IncrementConfig held the only defaults
    assert dataclasses.asdict(IncrementConfig()) == {
        "epsilon": 1.0,
        "c_h": 0.01,
        "C_h": 20.0,
        "C1": 10.0,
        "C2": 100.0,
        "C3": 100.0,
        "C4": 100.0,
        "rho": 0.5,
        "opt1_c": 4.0,
        "q_cap": 64,
    }
    assert (XI_POINTS, X_MIN) == (33, 16)


def test_increment_step_without_config_is_the_desk_step():
    h = IntPoly((0, 0, 1))
    ctx = AuxiliaryBuilder(h).context(1)
    A = greedy_avoiding(squares_upto(2000), 2000)
    out = increment_step(A, ctx)
    assert out.option == "opt3"
    assert out.to_jsonable() == increment_step(A, ctx, IncrementConfig()).to_jsonable()


def test_increment_step_guards():
    h = IntPoly((0, 0, 1))
    ctx = AuxiliaryBuilder(h).context(1)
    with pytest.raises(ValueError):
        increment_step(AvoidingSet.empty(100), ctx)
    with pytest.raises(ValueError):
        increment_step(AvoidingSet.full(X_MIN - 1), ctx)
    # an unknown constant must not slip into the config (and its echo)
    with pytest.raises(TypeError):
        IncrementConfig(foo=1)
    assert IncrementConfig(q_cap=9).q_cap == 9
    assert IncrementConfig(C1=3.0).C1 == 3.0


def test_mass_scan_matches_pointwise_fourier():
    # eta * alpha^2 X^2 is the balanced mass sum_{a mod q} |f^(a/q + xi)|^2
    X = 60
    A = AvoidingSet.from_members(X, [n for n in range(1, X + 1) if n % 3 == 1 or n % 7 == 0])
    ns = np.arange(1, X + 1)
    w = np.where(np.isin(ns, A.member_array()), 1.0 - A.alpha, -A.alpha)
    cfg = IncrementConfig(q_cap=12)
    ranked = _mass_scan(A, cfg, 0.01)
    assert len(ranked) == (cfg.q_cap - 1) * XI_POINTS
    assert ranked[0][0] == 3  # the planted residue class wins
    for q, xi, eta in ranked[:3] + ranked[len(ranked) // 2 :: 11]:
        direct = sum(abs(fourier_point((ns, w), a / q + xi)) ** 2 for a in range(q))
        assert eta * (A.alpha * X) ** 2 == pytest.approx(direct, rel=1e-9)


def _mass_scan_py(A, cfg, tau):
    """The per-(xi, q) fold-and-FFT scan the autocorrelation replaced:
    reference only."""
    X = A.X
    alpha = A.alpha
    ns = np.arange(1, X + 1)
    weights = np.where(np.isin(ns, A.member_array()), 1.0 - alpha, -alpha)
    m = XI_POINTS - 1
    xis = np.arange(-m, m + 1, 2) * tau / m
    denom = alpha * alpha * X * X
    noise = alpha * (1.0 - alpha) * X
    scored = []
    for xi_idx, xi in enumerate(xis):
        v = weights * np.exp(-2j * np.pi * np.mod(ns * xi, 1.0))
        for q in range(2, cfg.q_cap + 1):
            folded = np.zeros(q, dtype=complex)
            np.add.at(folded, ns % q, v)
            mass = float(np.sum(np.abs(np.fft.fft(folded)) ** 2))
            snr = mass / (q * noise) if noise > 0 else mass
            scored.append((-snr, q, xi_idx, float(xi), mass / denom))
    scored.sort()
    return [(q, xi, eta) for _, q, _, xi, eta in scored]


@pytest.mark.parametrize(
    "X, density, seed, q_cap",
    [(3000, 0.1, 1, 64), (5000, 0.3, 2, 40), (700, 0.5, 3, 64), (40, 0.2, 4, 64)],
)
def test_mass_scan_matches_the_fold_loop(X, density, seed, q_cap):
    rng = np.random.default_rng(seed)
    A = AvoidingSet.from_members(X, (np.flatnonzero(rng.random(X) < density) + 1).tolist())
    cfg = IncrementConfig(q_cap=q_cap)
    tau = cfg.C1 * math.log(1.0 / A.alpha) ** 2 / X
    got = _mass_scan(A, cfg, tau)
    want = _mass_scan_py(A, cfg, tau)
    old_eta = {(q, xi): eta for q, xi, eta in want}
    assert len(got) == len(want) and {(q, xi) for q, xi, _ in got} == set(old_eta)
    for q, xi, eta in got:
        assert eta == pytest.approx(old_eta[q, xi], rel=1e-11)
    # the ranking may differ only between candidates whose scores (eta / q,
    # up to a constant) agree to 1e-11; mass(q, xi) = mass(q, -xi) makes such
    # ties real
    for (q, xi, _), (q_old, _, eta_old) in zip(got, want):
        assert old_eta[q, xi] / q == pytest.approx(eta_old / q_old, rel=1e-11)


def test_mass_scan_grid_is_antisymmetric():
    rng = np.random.default_rng(8)
    A = AvoidingSet.from_members(4000, (np.flatnonzero(rng.random(4000) < 0.2) + 1).tolist())
    tau = 0.003
    m = XI_POINTS - 1
    ranked = _mass_scan(A, IncrementConfig(q_cap=30), tau)
    eta = {(q, xi): e for q, xi, e in ranked}
    xis = sorted({xi for _, xi in eta})
    assert len(xis) == XI_POINTS and len(eta) == 29 * XI_POINTS
    assert xis == [j * tau / m for j in range(-m, m + 1, 2)]
    assert xis == [-xi for xi in reversed(xis)]
    for (q, xi), e in eta.items():
        assert eta[q, -xi] == e  # bitwise: one evaluation per |xi|
    # a sign tie ranks -|xi| first, then +|xi|, right behind it
    for i, (q, xi, e) in enumerate(ranked):
        if xi > 0:
            assert ranked[i - 1] == (q, -xi, e)


def test_increment_step_opt1_fires_for_sparse():
    h = IntPoly((0, 0, 1))
    ctx = AuxiliaryBuilder(h).context(1)
    cfg = IncrementConfig()
    A = AvoidingSet.from_members(3000, [1, 1500, 2999])
    out = increment_step(A, ctx, cfg)
    assert out.option == "opt1"


def test_increment_end_to_end_greedy():
    h = IntPoly((0, 0, 1))
    b = AuxiliaryBuilder(h)
    sq = squares_upto(5000)
    A = greedy_avoiding(sq, 5000)
    cfg = IncrementConfig()
    out = increment_step(A, b.context(1), cfg)
    assert out.option in ("star", "opt2", "opt3")
    assert out.new_alpha > out.old_alpha
    assert out.diagnostics["rescaled_avoids_image"]
    # the rescaled set is A's trace on the progression, renumbered from 1
    prog = out.progression
    trace = [i + 1 for i, n in enumerate(range(prog.start, prog.last + 1, prog.step)) if n in A]
    assert out.rescaled == AvoidingSet.from_members(prog.length, trace)
    # independent recheck against the full integer image of the new context
    q = out.progression.q
    forb = image_values(out.new_context.aux, 1, out.rescaled.X)
    ok, viol = verify_avoiding(out.rescaled, forb)
    assert ok, viol


def test_iterate_greedy_trace():
    h = IntPoly((0, 0, 1))
    sq = squares_upto(2000)
    A = greedy_avoiding(sq, 2000)
    cfg = IncrementConfig()
    trace = iterate(A, h, cfg)
    assert len(trace.rows) >= 2  # at least one accepted step beyond init
    assert trace.check_invariants()
    x0 = trace.rows[0].X_m
    ell_expect = 1
    for row in trace.rows[1:]:
        if row.option in ("star", "opt2", "opt3"):
            ell_expect *= row.q_m
            assert row.ell_m == ell_expect
            assert row.ell_m <= 2**row.m * x0 / row.X_m


def test_iterate_stops():
    h = IntPoly((0, 0, 1))
    cfg = IncrementConfig()
    assert iterate(AvoidingSet.empty(100), h, cfg).stop_reason == "empty set"
    assert iterate(AvoidingSet.full(100), h, cfg).stop_reason == "alpha above 2/3"


def test_trace_csv_shape():
    import json

    h = IntPoly((0, 0, 1))
    sq = squares_upto(2000)
    A = greedy_avoiding(sq, 2000)
    trace = iterate(A, h, IncrementConfig())
    csv = trace.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0].startswith("# config: ")
    assert lines[1] == "m,X_m,alpha_m,q_m,ell_m,option"
    assert len(lines) == len(trace.rows) + 2
    blob = json.loads(json.dumps(trace.to_jsonable(), sort_keys=True))
    assert "config" in blob and "stop_reason" in blob and len(blob["rows"]) == len(trace.rows)
    assert blob["rows"][0]["m"] == 0


def test_alpha_strictly_increases_across_steps():
    h = IntPoly((0, 0, 1))
    sq = squares_upto(3000)
    A = greedy_avoiding(sq, 3000)
    trace = iterate(A, h, IncrementConfig())
    alphas = [r.alpha_m for r in trace.rows if r.option != "opt1"]
    assert all(alphas[i] < alphas[i + 1] for i in range(len(alphas) - 1))
    xs = [r.X_m for r in trace.rows if r.option != "opt1"]
    assert all(xs[i] > xs[i + 1] for i in range(len(xs) - 1))
