import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softcontact.core import (
    _exp,
    quat_from_rotvec,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
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
    # cannot change, and so do their complex-step derivatives: the real part
    # exactly, the imaginary part within 2 ulp of the first-order rule
    # exp(a + ib) = exp(a) + i b exp(a) with the tail at 0, and of numpy's
    # complex exp.
    e = np.exp(z)
    np.testing.assert_array_equal(w[~tail], (e / e.sum())[~tail])
    xc = x.astype(complex)
    xc[np.argmax(x)] += 1e-30j
    got = softmax(xc, eps)
    np.testing.assert_array_equal(got.real, w)
    assert_within_ulps(got.imag[~tail], _first_order_softmax(xc, eps).imag[~tail], 2)
    assert (got[tail] == 0).all()
    zc = (xc - x.max()) / eps
    ec = np.exp(zc)
    assert_within_ulps(got.imag[~tail], (ec / ec.sum()).imag[~tail], 2)


def test_softmax_minus_infinity_gives_zero_weight():
    # The shifted entry -1.5e308 - max is finite, but divided by 0.5 it
    # overflows to -inf, which lands in the zero tail. A -inf input is
    # rejected like NaN.
    w = softmax(np.array([0.0, -1.5e308, 0.5 * np.log(3.0)]), 0.5)
    assert w[1] == 0.0
    np.testing.assert_allclose(w, [0.25, 0.0, 0.75], rtol=1e-15)
    with pytest.raises(ValueError, match="index 1"):
        softmax(np.array([0.0, -np.inf, np.log(3.0)]), 1.0)


def _first_order_softmax(x, eps):
    # Complex division of the first-order exp by its sum; its argument is
    # assembled by parts, as numpy's complex division rounds the real part.
    z = (x.real - np.max(x.real)) / eps + 1j * (x.imag / eps)
    e, de = _first_order_exp(z, -708.0 + np.log(x.size))
    f = e + 1j * de
    return f / f.sum()


def test_softmax_complex_step_real_part_exact_imaginary_first_order():
    # Numpy's complex division by eps rounds the real part differently from
    # the real division; the real part must not depend on the perturbation.
    eps = 0.02
    x = np.linspace(-800.0, 40.0, 2001) * eps
    real = softmax(x, eps)
    rng = np.random.default_rng(4)
    for b in (np.full(x.size, 1e-30), 1e-30 * rng.standard_normal(x.size), 9e-9 * eps * rng.uniform(-1, 1, x.size)):
        np.testing.assert_array_equal(softmax(x + 1j * b, eps).real, real)
    d2 = rng.uniform(0.0, 1.0, (50, 80)) ** 2
    np.testing.assert_array_equal(softmax(-d2 + 1e-30j * rng.standard_normal(d2.shape), 1e-4).real, softmax(-d2, 1e-4))
    # One coordinate perturbed, as a complex-step derivative does it.
    live = real > 0
    for k in (2000, 1990, 1500, 300):
        for bk in (1e-30, -3.7e-30, 9e-9 * eps):
            xc = x.astype(complex)
            xc[k] += 1j * bk
            got = softmax(xc, eps)
            assert_within_ulps(got.imag[live], _first_order_softmax(xc, eps).imag[live], 2)
            assert (got.imag[~live] == 0).all()


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
    # Complex step: the real part is the real softplus everywhere and the
    # imaginary part b sigmoid(x/eps) from the real tail, exactly; within
    # 2 ulp it is the imaginary part of numpy's complex log1p(exp) too. (Its
    # argument is assembled by parts: numpy's complex division by eps rounds
    # the real part differently from the real division.)
    b = 1e-30
    xc = x + 1j * b
    pos = x > 0
    got = softplus(xc, eps)
    np.testing.assert_array_equal(got.real, softplus(x, eps))
    e = np.where(tail, 0.0, np.exp(-np.abs(x) / eps))
    np.testing.assert_array_equal(got.imag, b * (np.where(pos, 1.0, e) / (1.0 + e)))
    arg = -np.abs(x) / eps + 1j * np.where(pos, -b, b) / eps
    full = np.where(pos, xc, 0.0) + eps * np.log1p(np.exp(arg))
    assert_within_ulps(got.imag[~tail], full.imag[~tail], 2)


def assert_within_ulps(got, want, n):
    ulps = np.abs(got - want) / np.spacing(np.maximum(np.abs(got), np.abs(want)))
    assert ulps.max() <= n, ulps.max()


def _first_order_exp(z, cutoff=-708.0):
    e = np.where(z.real >= cutoff, np.exp(z.real), 0.0)
    return e, z.imag * e


@given(st.floats(-40.0, 40.0), st.floats(1e-4, 10.0), st.floats(-1.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_softplus_complex_step_is_the_first_order_rule(t, eps, s):
    x = np.array([t * eps])
    b = s * 1e-30
    got = softplus(x + 1j * b, eps)
    e = np.exp(-np.abs(x) / eps)
    assert got.real[0] == (np.maximum(x, 0.0) + eps * np.log1p(e))[0] == softplus(x, eps)[0]
    assert got.imag[0] == b * ((1.0 if x[0] > 0 else e[0]) / (1.0 + e[0]))


def test_complex_step_at_the_bound_raises():
    # At eps = 1 the step Im x itself meets the bound, in the body and in
    # the zero tail of the exp alike.
    for public in (lambda x: softplus(x, 1.0), lambda x: softmax(np.concatenate([[0.0], x]), 1.0)):
        with pytest.raises(ValueError, match="complex-step perturbation"):
            public(np.array([0.5, 0.5 + 1e-8j]))
        with pytest.raises(ValueError, match="complex-step perturbation"):
            public(np.array([-1e3 - 1e-8j]))  # in the zero tail too
        assert np.isfinite(public(np.array([0.5 + 0.99e-8j]))).all()
    eps = 0.25  # a power of two, so Im x / eps lands on the bound exactly
    with pytest.raises(ValueError, match="complex-step perturbation"):
        softplus(np.array([0.1 + 1e-8j * eps]), eps)
    assert np.isfinite(softplus(np.array([0.1 + 0.99e-8j * eps]), eps)).all()
    with pytest.raises(ValueError, match="complex-step perturbation"):
        softmax(np.array([0.0, 1.0 + 1e-8j * eps]), eps)


def test_exp_propagates_nan_and_zeroes_the_tail():
    got = _exp(np.array([np.nan, 0.0, -800.0, -np.inf, np.inf]))
    assert np.isnan(got[0])
    np.testing.assert_array_equal(got[1:], [1.0, 0.0, 0.0, np.inf])
    assert np.isnan(softplus(np.array([np.nan]), 0.1, check=False)).all()


@pytest.mark.parametrize("N", [1, 2, 3])
def test_exp_at_each_softmax_cutoff_zeroes_below_it_exactly(N):
    # softmax over N entries cuts exp at -708 + log N. Only the bare cutoff
    # (N = 1) zeroes entries before exp; above it exp runs on the clamped
    # value and the entries are zeroed after, which gives the same bits:
    # exp at or above the cutoff, an exact 0 below, and NaN kept.
    cutoff = -708.0 + np.log(N)
    z = np.array([np.nan, -np.inf, -800.0, -708.5, np.nextafter(cutoff, -np.inf), cutoff,
                  np.nextafter(cutoff, 0.0), -707.0, -1.0, 0.0, np.inf])
    live = z >= cutoff
    want = np.where(live, np.exp(np.where(live, z, 0.0)), 0.0)
    got = _exp(z, cutoff)
    assert np.isnan(got[0])
    np.testing.assert_array_equal(got[1:], want[1:])
    # The weight of an entry just below the cutoff is an exact 0, and at
    # the cutoff that of the plain formula.
    for last, zero in ((np.nextafter(cutoff, -np.inf), True), (cutoff, False)):
        x = np.zeros(N)
        x[-1] = last if N > 1 else 0.0
        w = softmax(x, 1.0)
        e = np.exp(x)
        plain = e / e.sum()
        np.testing.assert_array_equal(w[:-1], plain[:-1])
        assert w[-1] == (0.0 if zero and N > 1 else plain[-1])


def test_complex_step_nan_imaginary_part_propagates():
    x = np.array([0.3, complex(0.3, np.nan), complex(-0.3, np.nan)])
    got = softplus(x, 0.1, check=False)
    assert np.isnan(got.imag[1:]).all()
    np.testing.assert_array_equal(got.real, softplus(np.array([0.3, 0.3, -0.3]), 0.1))
