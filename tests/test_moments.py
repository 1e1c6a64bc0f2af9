"""Covariance, fourth-order cumulant tensors, and density expansions."""

import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import given, settings
from hypothesis import strategies as st

from bsskit import (
    Cumulant4Tensor,
    DegenerateChannel,
    DimensionMismatch,
    InvalidSpec,
    LagTooLarge,
    SignalMatrix,
    SourceSpec,
    cumulant_matrix,
    edgeworth_pdf,
    estimate_cum4,
    generate_sources,
    hermite,
    kurtosis,
    psi4_contrast,
    sample_covariance,
    tensor_norm,
    tucker_transform,
    unfold,
    whiten,
)
from bsskit import moments
from bsskit.moments import (_COVARIANCE_BLOCK, _PAIR_BLOCK, _covariance, _cumulant_matrix, _pair_gram,
                            _symmetrize4)


def exact_tensor(c4s):
    """Analytic cumulant tensor of independent unit-variance sources."""
    n = len(c4s)
    t = np.zeros((n, n, n, n))
    for i, c in enumerate(c4s):
        t[i, i, i, i] = c
    return Cumulant4Tensor(t)


def rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def reference_cum4(X):
    """Unsymmetrized cumulant tensor from one 4-operand einsum over all samples."""
    T = X.shape[1]
    X = X - X.mean(axis=1, keepdims=True)
    m2 = X @ X.T / T
    m4 = np.einsum("it,jt,kt,lt->ijkl", X, X, X, X, optimize=True) / T
    return (m4 - np.einsum("ij,kl->ijkl", m2, m2) - np.einsum("ik,jl->ijkl", m2, m2)
            - np.einsum("il,jk->ijkl", m2, m2))


def reference_symmetrize4(values):
    """Per-entry loop: average the 24 permuted entries, write the mean to each."""
    sym = np.empty_like(values)
    perms = list(itertools.permutations(range(4)))
    for idx in itertools.combinations_with_replacement(range(values.shape[0]), 4):
        total = 0.0
        for perm in perms:
            total += values[tuple(idx[p] for p in perm)]
        for perm in perms:
            sym[tuple(idx[p] for p in perm)] = total / 24.0
    return sym


def random_orthogonal(n, seed):
    Q, R = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def test_covariance_zero_channel():
    X = np.vstack([np.zeros(100), np.random.default_rng(0).standard_normal(100)])
    R = sample_covariance(X).matrix
    assert np.all(R[0, :] == 0.0) and np.all(R[:, 0] == 0.0)


def test_covariance_bpsk_unit_variance():
    A = generate_sources([SourceSpec("bpsk", seed=2)], 100_000)
    R = sample_covariance(A)
    assert R.lag == 0
    assert abs(R.matrix[0, 0] - 1.0) < 0.03


def test_covariance_ar1_lag_one():
    A = generate_sources([SourceSpec("ar1", ar_coefficient=0.9, seed=3)], 100_000)
    R1 = sample_covariance(A, lag=1)
    assert abs(R1.matrix[0, 0] - 0.9) < 0.02


def test_covariance_lag_zero_symmetric_and_lag_guard():
    A = generate_sources([SourceSpec("uniform", seed=1), SourceSpec("laplace", seed=2)], 500)
    R = sample_covariance(A).matrix
    assert np.array_equal(R, R.T)
    with pytest.raises(LagTooLarge):
        sample_covariance(A, lag=500)


def test_cum4_gaussian_near_zero():
    A = generate_sources([SourceSpec("gaussian", seed=4)], 100_000)
    C = estimate_cum4(A)
    assert abs(C.values[0, 0, 0, 0]) < 0.1


def test_cum4_bpsk_autocumulant():
    A = generate_sources([SourceSpec("bpsk", seed=5)], 100_000)
    C = estimate_cum4(A)
    assert abs(C.values[0, 0, 0, 0] - (-2.0)) < 0.05


def test_cum4_cross_cumulant_nulls():
    A = generate_sources([SourceSpec("bpsk", seed=6), SourceSpec("uniform", seed=7)], 100_000)
    C = estimate_cum4(A)
    assert abs(C.values[0, 0, 0, 1]) < 0.1


def test_cum4_super_symmetry_spot_check():
    A = generate_sources([SourceSpec("laplace", seed=8), SourceSpec("bpsk", seed=9),
                          SourceSpec("uniform", seed=10)], 4000)
    C = estimate_cum4(A)
    rng = np.random.default_rng(11)
    for _ in range(100):
        idx = tuple(rng.integers(0, 3, size=4))
        for perm in itertools.permutations(idx):
            assert C.values[perm] == C.values[idx]


@pytest.mark.parametrize("n", [1, 2, 3, 6, 8])
@pytest.mark.parametrize("samples", [
    _PAIR_BLOCK // 3, _PAIR_BLOCK, _PAIR_BLOCK + 1, 3 * _PAIR_BLOCK + 517,
], ids=["below_one_block", "one_block", "one_block_plus_one", "several_blocks_and_a_part"])
def test_cum4_matches_the_einsum_reference(n, samples):
    rng = np.random.default_rng(100 * n + samples % 97)
    X = rng.uniform(-1.0, 1.0, (n, samples)) ** 3 + rng.standard_normal((n, 1))  # off-centre, skewed
    ref = reference_symmetrize4(reference_cum4(X))
    assert np.max(np.abs(estimate_cum4(X).values - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_symmetrize4_matches_the_per_entry_loop(n):
    values = np.random.default_rng(16 + n).standard_normal((n, n, n, n))
    sym = _symmetrize4(values)
    assert np.array_equal(sym, reference_symmetrize4(values))  # same sums in the same order
    for idx in itertools.product(range(n), repeat=4):
        assert all(sym[perm] == sym[idx] for perm in itertools.permutations(idx))


def test_cumulant_matrix_applies_the_2x2_unfolding():
    A = generate_sources([SourceSpec("uniform", seed=17), SourceSpec("bpsk", seed=18),
                          SourceSpec("laplace", seed=19)], 20_000)
    _, Z = whiten(np.array([[1.0, 0.4, -0.2], [0.3, 1.0, 0.5], [-0.6, 0.1, 1.0]]) @ A.data)
    B = unfold(estimate_cum4(Z), "2x2")
    rng = np.random.default_rng(20)
    for _ in range(3):
        M = rng.standard_normal((3, 3))
        M = M + M.T
        assert np.max(np.abs(cumulant_matrix(Z, M) - (B @ M.ravel()).reshape(3, 3))) < 1e-10


def test_cumulant_matrix_matches_the_three_operand_form():
    rng = np.random.default_rng(22)
    _, Z = whiten(rng.laplace(size=(64, 5_000)))
    M = rng.standard_normal((64, 64))  # not symmetric
    X = Z.data
    s = np.einsum("it,ij,jt->t", X, M, X, optimize=True)
    want = (X * s) @ X.T / X.shape[1] - np.trace(M) * np.eye(64) - 2.0 * M
    got = cumulant_matrix(Z, M)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_cumulant_matrix_core_keeps_the_precision_of_its_input():
    # the fourth-order init runs its early passes in float32: nothing in the
    # operator may upcast them, and they stay close to the float64 pass
    rng = np.random.default_rng(23)
    X = whiten(rng.laplace(size=(16, 5_000)))[1].data
    M = rng.standard_normal((16, 16))
    M = M + M.T
    want = cumulant_matrix(X, M)
    got = _cumulant_matrix(X.astype(np.float32), M.astype(np.float32))
    assert got.dtype == np.float32
    assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(2, 3 * _PAIR_BLOCK), st.integers(0, 2**32 - 1))
def test_cum4_is_multilinear(n, samples, seed):
    rng = np.random.default_rng(seed)
    X = rng.laplace(size=(n, samples)) + rng.standard_normal((n, 1))
    Q = random_orthogonal(n, seed)
    direct = estimate_cum4(Q @ X).values
    assert np.max(np.abs(direct - tucker_transform(estimate_cum4(X), Q).values)) < 1e-10


@pytest.mark.parametrize("T", [1, _PAIR_BLOCK - 1, _PAIR_BLOCK, _PAIR_BLOCK + 1])
@pytest.mark.parametrize("with_mean", [False, True])
@pytest.mark.parametrize("with_transform", [False, True])
def test_pair_gram_holds_every_fourth_and_second_moment(T, with_mean, with_transform):
    # z = transform @ (x - mean), each part left out when not given; the
    # transform is rectangular, as a whitener's is below full rank
    rng = np.random.default_rng(T)
    X = rng.laplace(size=(3, T)) + rng.standard_normal((3, 1))
    mean = rng.standard_normal(3) if with_mean else None
    transform = rng.standard_normal((2, 3)) if with_transform else None
    Z = X if mean is None else X - mean[:, None]
    Z = Z if transform is None else transform @ Z
    K = len(Z)
    want4 = np.einsum("it,jt,kt,lt->ijkl", Z, Z, Z, Z) / T
    want2 = Z @ Z.T / T
    m4, m2 = _pair_gram(X, mean, transform)
    assert m4.shape == (K * K, K * K) and m2.shape == (K, K)
    assert np.max(np.abs(m4 - want4.reshape(K * K, K * K))) <= 1e-12 * np.max(np.abs(want4))
    assert np.max(np.abs(m2 - want2)) <= 1e-12 * np.max(np.abs(want2))
    # permuted index quadruples read one stored sum
    V = m4.reshape(K, K, K, K)
    assert np.array_equal(V, V.transpose(1, 0, 2, 3)) and np.array_equal(V, V.transpose(2, 3, 0, 1))


def reference_covariance(X, mean, lag):
    """Reference for _covariance: two fresh centred arrays per block."""
    T = X.shape[1]
    C = np.zeros((len(mean), len(mean)))
    B = max(1, _COVARIANCE_BLOCK // len(mean))
    for start in range(0, T - lag, B):
        stop = min(start + B, T - lag)
        C += (X[:, start + lag:stop + lag] - mean[:, None]) @ (X[:, start:stop] - mean[:, None]).T
    C /= T - lag
    return (C + C.T) / 2.0 if lag == 0 else C


@pytest.mark.parametrize("extra", [0, 5])
@pytest.mark.parametrize("lag", [0, 1, _COVARIANCE_BLOCK // 4 + 7])
def test_buffered_covariance_is_bit_identical_to_the_per_block_code(lag, extra):
    # four channels: blocks of _COVARIANCE_BLOCK // 4 samples; T on the
    # block grid and five samples off it, and a lag whose pairs fill one
    # partial block
    T = 2 * (_COVARIANCE_BLOCK // 4) + extra
    X = np.random.default_rng(lag + extra).laplace(size=(4, T)) + 3.0
    mean = X.mean(axis=1)
    assert np.array_equal(_covariance(X, mean, lag), reference_covariance(X, mean, lag))


def reference_pair_products(X, mean=None, transform=None):
    """Reference for _pair_products: a fresh centred and sphered array per block."""
    K = len(X if transform is None else transform)
    rows = np.cumsum([0] + list(range(K, 0, -1)))
    pairs = np.empty((rows[-1], min(X.shape[1], _PAIR_BLOCK)))
    for start in range(0, X.shape[1], _PAIR_BLOCK):
        block = X[:, start:start + _PAIR_BLOCK]
        if mean is not None:
            block = block - mean[:, None]
        if transform is not None:
            block = transform @ block
        P = pairs[:, :block.shape[1]]
        for i in range(K):
            np.multiply(block[i], block[i:], out=P[rows[i]:rows[i + 1]])
        yield P


@pytest.mark.parametrize("T", [_PAIR_BLOCK - 1, _PAIR_BLOCK, _PAIR_BLOCK + 1, 2 * _PAIR_BLOCK])
@pytest.mark.parametrize("with_mean", [False, True])
@pytest.mark.parametrize("with_transform", [False, True])
def test_buffered_pair_gram_is_bit_identical_to_the_per_block_code(T, with_mean, with_transform, monkeypatch):
    rng = np.random.default_rng(T + 2 * with_mean + with_transform)
    X = rng.laplace(size=(3, T)) + rng.standard_normal((3, 1))
    mean = X.mean(axis=1) if with_mean else None
    transform = rng.standard_normal((2, 3)) if with_transform else None
    got = _pair_gram(X, mean, transform)
    monkeypatch.setattr(moments, "_pair_products", reference_pair_products)
    want = _pair_gram(X, mean, transform)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_cum4_never_builds_a_pair_product_array():
    X = np.random.default_rng(21).standard_normal((4, 200_000))
    tracemalloc.start()
    try:
        estimate_cum4(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * X.nbytes


def test_tensor_requires_hypercube_and_finite():
    with pytest.raises(Exception):
        Cumulant4Tensor(np.zeros((2, 2, 2)))
    bad = np.zeros((2, 2, 2, 2))
    bad[0, 0, 0, 0] = np.inf
    with pytest.raises(Exception):
        Cumulant4Tensor(bad)


def test_kurtosis_values():
    for kind, expect, tol in (("uniform", -1.2, 0.1), ("laplace", 3.0, 0.3), ("bpsk", -2.0, 0.05)):
        A = generate_sources([SourceSpec(kind, seed=12)], 100_000)
        assert abs(kurtosis(A.data[0]) - expect) < tol
    with pytest.raises(DegenerateChannel):
        kurtosis(np.zeros(64))


def test_kurtosis_takes_one_channel():
    Y = np.random.default_rng(8).standard_normal((3, 200))
    with pytest.raises(DimensionMismatch):
        kurtosis(Y[:2])  # two channels are not pooled into one
    assert kurtosis(Y[0]) == kurtosis(Y[:1]) == kurtosis(SignalMatrix(Y[:1]))


def test_tucker_identity_and_permutation():
    C = exact_tensor([-2.0, -1.2])
    same = tucker_transform(C, np.eye(2))
    assert np.allclose(same.values, C.values)
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    swapped = tucker_transform(C, P)
    assert swapped.values[0, 0, 0, 0] == pytest.approx(-1.2)
    assert swapped.values[1, 1, 1, 1] == pytest.approx(-2.0)


def test_tucker_orthogonal_norm_invariance():
    rng = np.random.default_rng(13)
    for _ in range(5):
        t = rng.standard_normal((3, 3, 3, 3))
        C = Cumulant4Tensor(t)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert abs(tensor_norm(tucker_transform(C, Q)) - tensor_norm(C)) < 1e-10


def test_tensor_norm_values():
    assert tensor_norm(Cumulant4Tensor(np.zeros((2, 2, 2, 2)))) == 0.0
    assert tensor_norm(exact_tensor([-2.0, -2.0])) == pytest.approx(np.sqrt(8.0))


def test_tensor_norm_equals_unfolding_norm():
    rng = np.random.default_rng(14)
    C = Cumulant4Tensor(rng.standard_normal((2, 2, 2, 2)))
    assert tensor_norm(C) == pytest.approx(np.linalg.norm(unfold(C, "1x3")))
    assert tensor_norm(C) == pytest.approx(np.linalg.norm(unfold(C, "2x2")))


def test_unfold_shapes_and_roundtrip():
    C1 = Cumulant4Tensor(np.full((1, 1, 1, 1), -2.0))
    assert unfold(C1, "1x3") == pytest.approx(np.array([[-2.0]]))
    rng = np.random.default_rng(15)
    C = Cumulant4Tensor(rng.standard_normal((3, 3, 3, 3)))
    M = unfold(C, "2x2")
    assert np.allclose(M, M.T)  # super-symmetry forces a symmetric unfolding
    assert np.array_equal(M.reshape(3, 3, 3, 3), C.values)
    assert np.array_equal(unfold(C, "1x3").reshape(3, 3, 3, 3), C.values)


def test_psi4_contrast_masses():
    diag, off = psi4_contrast(exact_tensor([-2.0, -2.0]))
    assert off == 0.0
    assert diag == pytest.approx(8.0)
    rotated = tucker_transform(exact_tensor([-2.0, -2.0]), rot(np.pi / 4))
    d2, o2 = psi4_contrast(rotated)
    assert d2 + o2 == pytest.approx(8.0, abs=1e-8)


def test_hermite_recursion_values():
    y = np.array([0.0, 1.0, 2.0])
    assert np.allclose(hermite(0, y), 1.0)
    assert np.allclose(hermite(1, y), y)
    assert hermite(2, np.array([2.0]))[0] == pytest.approx(3.0)
    assert hermite(3, np.array([1.0]))[0] == pytest.approx(-2.0)


def _hermite_by_recursion(k, y):
    # power-series coefficients of h_0 = 1, h_{k+1} = y h_k - h_k'
    coeffs = np.array([1.0])
    for _ in range(k):
        deriv = npoly.polyder(coeffs) if len(coeffs) > 1 else np.array([0.0])
        coeffs = npoly.polysub(np.concatenate(([0.0], coeffs)), deriv)
    return npoly.polyval(y, coeffs)


@pytest.mark.parametrize("k", range(13))
def test_hermite_matches_the_power_series_recursion(k):
    y = np.linspace(-10.0, 10.0, 2001)
    expected = _hermite_by_recursion(k, y)
    assert np.all(np.abs(hermite(k, y) - expected) <= 1e-12 * np.maximum(np.abs(expected), 1.0))
    assert isinstance(hermite(k, 0.5), float)


def test_edgeworth_gaussian_case():
    y = np.linspace(-3, 3, 7)
    p = edgeworth_pdf(y, 0.0, 0.0)
    assert np.allclose(p, np.exp(-y * y / 2) / np.sqrt(2 * np.pi))


def test_edgeworth_kurtosis_correction_at_zero():
    p = edgeworth_pdf(np.array([0.0]), 0.0, 1.0)
    p_g = 1.0 / np.sqrt(2 * np.pi)
    assert p[0] == pytest.approx(p_g * (1.0 + 3.0 / 24.0))


def test_edgeworth_integrates_to_one():
    y = np.linspace(-8, 8, 4001)
    p = edgeworth_pdf(y, 0.1, 0.2)
    trapezoid = float(np.sum(np.diff(y) * (p[1:] + p[:-1]) / 2.0))
    assert trapezoid == pytest.approx(1.0, abs=1e-3)


# id: (a call the module refuses, the error it raises)
MOMENTS_FAILURES = {
    "covariance_at_lag_minus_1": (lambda: sample_covariance(np.ones((2, 10)), -1), InvalidSpec),
    "tucker_with_a_mismatched_matrix": (
        lambda: tucker_transform(Cumulant4Tensor(np.zeros((3, 3, 3, 3))), np.eye(2)), DimensionMismatch),
    "unfold_by_an_unknown_grouping": (lambda: unfold(Cumulant4Tensor(np.zeros((2, 2, 2, 2))), "3x1"), InvalidSpec),
    "hermite_of_order_minus_1": (lambda: hermite(-1, 0.5), InvalidSpec),
}


@pytest.mark.parametrize("call, error", MOMENTS_FAILURES.values(), ids=MOMENTS_FAILURES.keys())
def test_moments_failures_are_typed(call, error):
    with pytest.raises(error):
        call()
