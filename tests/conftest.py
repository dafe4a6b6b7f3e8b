import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

import polysieve
from polysieve.polycore import IntPoly, normalize_positive

X2 = IntPoly((0, 0, 1))
X2M1 = IntPoly((-1, 0, 1))
X3MX = IntPoly((0, -1, 0, 1))
TWO_X2_X = IntPoly((0, 1, 2))
# (x^2-13)(x^2-17)(x^2-221)
SEXTIC = IntPoly((-48841, 0, 6851, 0, -251, 0, 1))

FIXTURES = {
    "x2": X2,
    "x2m1": X2M1,
    "x3mx": X3MX,
    "2x2px": TWO_X2_X,
    "sextic": SEXTIC,
}


@pytest.fixture(scope="session")
def fixtures():
    return dict(FIXTURES)


@pytest.fixture(scope="session")
def normalized_fixtures():
    return {name: normalize_positive(h)[0] for name, h in FIXTURES.items()}


@pytest.fixture(scope="session")
def smooth24():
    from polysieve.harmonic import smooth_weight_build

    return smooth_weight_build(24, 2**16)


def run_python(code, timeout):
    """stdout of code run in a fresh interpreter on this checkout's polysieve;
    the run must exit 0 within timeout seconds."""
    path = [str(Path(polysieve.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def squares_upto(X):
    out = []
    n = 1
    while n * n <= X:
        out.append(n * n)
        n += 1
    return out


@st.composite
def int_polys(draw):
    """Integer polynomials with a positive leading coefficient: random ones
    of degree 1-5 with |c| <= 30, and products of planted integer roots in
    [-8, 8] (repeats and neighbours allowed) with an optional quadratic
    x^2 + b x + c, |b|, |c| <= 10. Every real root lies in (-32, 32)."""
    if draw(st.booleans()):
        lower = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=5))
        return IntPoly.of([*lower, draw(st.integers(1, 30))])
    coeffs = [draw(st.integers(1, 3))]
    factors = [(-r, 1) for r in draw(st.lists(st.integers(-8, 8), min_size=1, max_size=4))]
    if draw(st.booleans()):
        factors.append((draw(st.integers(-10, 10)), draw(st.integers(-10, 10)), 1))
    for f in factors:  # coeffs *= f, both constant term first
        out = [0] * (len(coeffs) + len(f) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(f):
                out[i + j] += a * b
        coeffs = out
    return IntPoly.of(coeffs)
