"""The floating-point facts the byte-identical outputs rest on, each pinned
by name.

Every run reproduces its bytes only where these hold (README
"Determinism"). On a machine, BLAS or numpy build where one fails, the
failure shows here by name rather than as a digest mismatch. The order in
which ``np.einsum("pk,pk->p")`` sums (P, 3) rows, which the lane cast
writes out, is pinned by
``tests/test_lidar.py::test_dot_sums_columns_as_einsum_sums_rows``.
"""

import math
from fractions import Fraction

import asterhover  # noqa: F401  (first: it pins one BLAS thread before numpy loads)
import numpy as np
import pytest

DRAWS = 5000


def spread(rng, shape):
    """Normal draws scaled over six decades, so that sums cancel and
    carry in every pattern."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, shape)


def fma_chain(a, b) -> float:
    """The sequential fused multiply-add chain s = fl(a_i * b_i + s) from
    s = 0, each step rounded once; a Fraction holds every exact value, and
    its float() rounds correctly."""
    s = Fraction(0)
    for x, y in zip(a.tolist(), b.tolist()):
        s = Fraction(float(Fraction(x) * Fraction(y) + s))
    return float(s)


def left_to_right(a, b) -> float:
    s = 0.0
    for x, y in zip(a.tolist(), b.tolist()):
        s += x * y
    return s


@pytest.mark.parametrize("n", [3, 4])
def test_ddot_is_the_sequential_fma_chain(n):
    # dynamics._norm3 / _norm4 and the observation's norms take a.dot(a)
    # on 3- and 4-vectors: BLAS ddot
    rng = np.random.default_rng(n)
    a, b = spread(rng, (DRAWS, n)), spread(rng, (DRAWS, n))
    got = [a[i].dot(b[i]) for i in range(DRAWS)]
    assert got == [fma_chain(a[i], b[i]) for i in range(DRAWS)]
    # the chain is a fact, not a truism: a plain float sum, rounded after
    # every product, differs in about a fifth of the draws
    plain = [left_to_right(a[i], b[i]) for i in range(DRAWS)]
    assert sum(g != p for g, p in zip(got, plain)) > DRAWS // 20


def test_vecdot_on_c_contiguous_rows_is_ddot_row_by_row():
    # the lane cast's v = vecdot(d, qvec) on (P, 3) rows equals the
    # brute-force cast's per-row ddot
    rng = np.random.default_rng(5)
    a, b = spread(rng, (DRAWS, 3)), spread(rng, (DRAWS, 3))
    assert a.flags.c_contiguous and b.flags.c_contiguous
    got = np.vecdot(a, b)
    assert got.tolist() == [a[i].dot(b[i]) for i in range(DRAWS)]


@pytest.mark.parametrize("numpy_f, libm_f", [(np.sin, math.sin), (np.cos, math.cos)],
                         ids=["sin", "cos"])
def test_numpy_sin_and_cos_are_libm(numpy_f, libm_f):
    # the package takes its angles through math on Python floats and
    # through numpy on arrays; a vectorized numpy kernel that rounds
    # otherwise would split each array form from its float form
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.uniform(-10.0, 10.0, DRAWS), rng.uniform(-1.0e4, 1.0e4, DRAWS)])
    assert numpy_f(x).tolist() == [libm_f(v) for v in x.tolist()]


def test_a_python_floats_cube_is_libm_pow():
    # dynamics._derivative's r_norm ** 3 is a Python float's, so libm's
    # pow(r, 3); numpy's x ** 3 rounds differently in about one draw in
    # twenty, which is why the cube stays on a float
    rng = np.random.default_rng(11)
    r = rng.uniform(1.0, 5.0e3, DRAWS).tolist()
    assert [v**3 for v in r] == [math.pow(v, 3) for v in r]
