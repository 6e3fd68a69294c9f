import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softcontact.core import (
    _log1p,
    quat_from_rotvec,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
    rotate,
    skew,
    softmax,
    softplus,
)
from softcontact.verify import cs_gradient, fd_gradient, relative_error


def test_softmax_symmetry():
    for a in (0.0, -3.2, 1729.0):
        np.testing.assert_allclose(softmax(np.array([a, a]), 0.7), [0.5, 0.5], atol=1e-15)


def test_softmax_hand_value():
    # exp(ln 2) = 2, exp(0) = 1
    out = softmax(np.array([np.log(2.0), 0.0]), 1.0)
    np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)


def test_softmax_argmax_limit():
    out = softmax(np.array([1000.0, 0.0]), 1e-3)
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-300)


def test_softmax_no_overflow_for_huge_inputs():
    out = softmax(np.array([1e308, -1e308, 0.0]), 1e-6)
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=0)


def test_softmax_sums_to_one_and_order_preserving():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal(rng.integers(1, 12)) * rng.uniform(0.1, 50)
        w = softmax(x, rng.uniform(0.01, 5.0))
        assert abs(w.sum() - 1.0) < 1e-12
        order = np.argsort(x)
        assert (np.diff(w[order]) >= -1e-18).all()


def test_softmax_shift_invariance_exact():
    # Multiples of 2^-20 plus power-of-two shifts add exactly, so the
    # invariance must be bit-exact.
    rng = np.random.default_rng(1)
    x = rng.integers(-2**20, 2**20, size=7) * 2.0**-20
    for c in (1.0, -4.0, 1024.0):
        assert (softmax(x + c, 0.3) == softmax(x, 0.3)).all()


def test_softmax_rejects_nonfinite_with_index():
    x = np.array([1.0, np.nan, 2.0])
    with pytest.raises(ValueError, match="index 1"):
        softmax(x, 1.0)
    with pytest.raises(ValueError, match="index 2"):
        softmax(np.array([0.0, 1.0, np.inf]), 1.0)


def test_softplus_values():
    assert abs(softplus(np.array(0.0), 1.0) - np.log(2.0)) < 1e-15
    tail = softplus(np.array(-50.0), 1.0)
    assert 0 < tail < 1e-21
    np.testing.assert_allclose(tail, np.exp(-50.0), rtol=1e-15)
    assert abs(softplus(np.array(100.0), 1.0) - 100.0) < 1e-12


@given(
    st.floats(-700, 30, allow_nan=False),
    st.floats(1e-6, 1e3, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_softplus_band(t, eps):
    # softplus - relu lies in (0, eps*ln 2]. Drawing x in units of eps keeps
    # the tail representable: below x/eps ~ -745 it underflows to 0 and above
    # ~ +34 it is absorbed into x's ulp, so strictness is float-checkable
    # only on this window.
    x = t * eps
    gap = softplus(np.array(x), eps) - max(x, 0.0)
    assert 0.0 < gap <= eps * np.log(2.0) * (1 + 1e-12)


def test_softplus_band_never_negative_outside_window():
    for t in (-1e4, 1e4, 1e8):
        for eps in (1e-3, 1.0):
            x = t * eps
            gap = softplus(np.array(x), eps) - max(x, 0.0)
            assert 0.0 <= gap <= eps * np.log(2.0)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=8), st.floats(0.01, 10))
@settings(max_examples=150, deadline=None)
def test_softmax_probability_vector(xs, eps):
    w = softmax(np.array(xs), eps)
    assert (w >= 0).all()
    assert abs(w.sum() - 1.0) < 1e-12


def test_scalar_derivatives_match_finite_differences():
    # first and second derivatives of both smooth primitives vs central
    # differences at 100 random points
    rng = np.random.default_rng(7)
    for _ in range(100):
        eps = rng.uniform(0.05, 2.0)
        x0 = rng.uniform(-8, 8) * eps

        f = lambda v: softplus(v[0], eps)
        scale = max(1.0, abs(x0))
        g_cs = cs_gradient(f, np.array([x0]))[0]
        g_fd = fd_gradient(f, np.array([x0]), 1e-5 * scale)[0]
        assert relative_error(g_cs, g_fd) < 1e-5

        d2_fd = (f(np.array([x0 + 1e-4])) - 2 * f(np.array([x0])) + f(np.array([x0 - 1e-4]))) / 1e-8
        d2_cs = (cs_gradient(f, np.array([x0 + 1e-4]))[0] - cs_gradient(f, np.array([x0 - 1e-4]))[0]) / 2e-4
        # second differences carry ~1e-8 absolute cancellation noise
        assert abs(d2_cs - d2_fd) <= 1e-5 * max(abs(d2_cs), abs(d2_fd)) + 1e-6

        xv = rng.standard_normal(4)
        k = rng.integers(0, 4)
        fm = lambda v: softmax(v, eps)[k]
        g_cs = cs_gradient(fm, xv)
        g_fd = fd_gradient(fm, xv, 1e-5)
        assert relative_error(g_cs, g_fd).max() < 1e-5


def test_softmax_ties_equal_weights():
    w = softmax(np.array([3.0, 1.0, 3.0]), 0.5)
    assert w[0] == w[2]


def test_quaternion_helpers():
    rng = np.random.default_rng(3)
    q = quat_normalize(rng.standard_normal(4))
    R = quat_to_matrix(q)
    np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-14)
    assert abs(np.linalg.det(R) - 1.0) < 1e-12
    v = rng.standard_normal(3)
    np.testing.assert_allclose(rotate(q, v), R @ v, atol=1e-14)
    np.testing.assert_allclose(skew(v) @ v, 0.0, atol=1e-15)

    # exp map: small-angle series joins the trig branch smoothly
    w = np.array([1e-9, -2e-9, 0.5e-9])
    dq = quat_from_rotvec(w)
    np.testing.assert_allclose(dq, [1.0, *(w / 2)], atol=1e-18)
    w = np.array([0.3, -0.4, 1.1])
    dq = quat_from_rotvec(w)
    assert abs(np.linalg.norm(dq) - 1.0) < 1e-12
    half = np.linalg.norm(w) / 2
    np.testing.assert_allclose(dq[0], np.cos(half), rtol=1e-14)

    a, b = quat_normalize(rng.standard_normal(4)), quat_normalize(rng.standard_normal(4))
    np.testing.assert_allclose(
        quat_to_matrix(quat_multiply(a, b)), quat_to_matrix(a) @ quat_to_matrix(b), atol=1e-13
    )


def test_softmax_tail_is_exact_zero_never_subnormal():
    # Entries straddling the exp underflow band (exp(z) is subnormal for
    # z in (-745, -708)); several near-top entries make the normalizing sum
    # exceed 1, which would push borderline weights into the subnormal range,
    # so the cutoff sits log(N) above -708.
    rng = np.random.default_rng(5)
    eps = 0.5
    x = eps * np.concatenate([[0.0, 0.0, -0.5], -rng.uniform(690.0, 760.0, 400), -rng.uniform(0, 5, 20)])
    x = rng.permutation(x)
    w = softmax(x, eps)
    tiny = np.finfo(float).tiny
    assert ((w == 0) | (np.abs(w) >= tiny)).all()
    z = (x - x.max()) / eps
    tail = z < -708.0 + np.log(x.size)
    assert tail.sum() > 100 and (w[tail] == 0).all()
    # The entries kept match the plain formula, whose sum the dropped tail
    # cannot change, and so do their complex-step derivatives.
    e = np.exp(z)
    np.testing.assert_array_equal(w[~tail], (e / e.sum())[~tail])
    xc = x.astype(complex)
    xc[np.argmax(x)] += 1e-30j
    zc = (xc - x.max()) / eps
    ec = np.exp(zc)
    np.testing.assert_array_equal(softmax(xc, eps).imag[~tail], (ec / ec.sum()).imag[~tail])


def test_softmax_minus_infinity_gives_zero_weight():
    w = softmax(np.array([0.0, -np.inf, np.log(3.0)]), 1.0, check=False)
    assert w[1] == 0.0
    np.testing.assert_allclose(w, [0.25, 0.0, 0.75], rtol=1e-15)


def test_softplus_tail_is_exact_and_body_unchanged():
    # Beyond |x|/eps = 708 the log1p(exp) term is an exact 0 (it is under
    # 1e-307 eps there); elsewhere the value and its complex-step derivative
    # are those of the plain formula.
    eps = 0.02
    t = np.concatenate([np.linspace(-800.0, 40.0, 2001), [-708.5, -707.9, 707.9, 708.5, 800.0]])
    x = t * eps
    got = softplus(x, eps)
    tail = np.abs(t) > 708.0
    np.testing.assert_array_equal(got[tail], np.maximum(x[tail], 0.0))
    plain = np.maximum(x, 0.0) + eps * np.log1p(np.exp(-np.abs(x) / eps))
    np.testing.assert_array_equal(got[~tail], plain[~tail])
    xc = x + 1e-30j
    pos = x > 0
    plain_c = np.where(pos, xc, 0.0) + eps * _log1p(np.exp(-np.where(pos, xc, -xc) / eps))
    np.testing.assert_array_equal(softplus(xc, eps)[~tail], plain_c[~tail])
