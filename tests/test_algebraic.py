"""Tensor-algebra separation: Jacobi, JADE, HO-EVD/PM, PARAFAC, CM solvers."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsskit import (
    Cumulant4Tensor,
    DegenerateSpectrum,
    DimensionMismatch,
    Diverged,
    InvalidSpec,
    MixingModel,
    NotConverged,
    RankDeficient,
    SingularLS,
    SourceSpec,
    ZeroContraction,
    ZeroUpdate,
    cumulant_matrix,
    deterministic_cm,
    estimate_cum4,
    fit_whitener,
    fix_signs,
    generate_sources,
    hoevd,
    hopm,
    jacobi_diagonalize,
    jade,
    jade_rotation,
    joint_diagonalize,
    kruskal_check,
    mix,
    ParafacFactors,
    parafac_als,
    psi4_contrast,
    rank1_init,
    separation_index,
    tucker_transform,
    unfold,
    unimodal_equalizer,
    whiten,
    window_stack,
)
from bsskit import algebraic
from bsskit.algebraic import (_UNIMODAL_BLOCK, UNIMODAL_INITS, _cum_unfolding_power, _pair_coefficients,
                              _pair_r_factor)
from bsskit.moments import _pair_products

BPSK_TRIPLE = None  # built lazily below


def diag_tensor(c4s):
    n = len(c4s)
    V = np.zeros((n, n, n, n))
    for i, c in enumerate(c4s):
        V[i, i, i, i] = c
    return Cumulant4Tensor(values=V)


def rank1_tensor(weight, q):
    return Cumulant4Tensor(values=weight * np.einsum("i,j,k,l->ijkl", q, q, q, q))


def rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_orthogonal(n, seed):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return Q


def bpsk_product(n):
    # all sign patterns with uniform weight: every sample moment is exact
    grids = np.meshgrid(*([np.array([1.0, -1.0])] * n), indexing="ij")
    return np.vstack([g.ravel() for g in grids])


def signed_permutation_gap(P):
    """How far |P| is from a permutation matrix (max entry deviation)."""
    target = np.zeros(P.size)
    target[-P.shape[0]:] = 1.0
    return float(np.max(np.abs(np.sort(np.abs(P).ravel()) - target)))


# ---------------------------------------------------------------- jacobi


def test_jacobi_leaves_diagonal_tensor_alone():
    Q = jacobi_diagonalize(diag_tensor([-2.0, -1.2, 1.0]))
    assert np.allclose(Q, np.eye(3), atol=1e-8)


def test_jacobi_undoes_a_plane_rotation():
    C = tucker_transform(diag_tensor([-2.0, -2.0]), rot2(math.pi / 6))
    Q = jacobi_diagonalize(C)
    assert psi4_contrast(tucker_transform(C, Q))[1] < 1e-10
    assert signed_permutation_gap(Q @ rot2(math.pi / 6)) < 1e-4


def test_jacobi_never_loses_diagonal_mass():
    for seed in range(5):
        rng = np.random.default_rng(40 + seed)
        c4s = rng.uniform(0.5, 2.5, size=3) * rng.choice([-1.0, 1.0], size=3)
        C = tucker_transform(diag_tensor(c4s), random_orthogonal(3, 140 + seed))
        before = psi4_contrast(C)[0]
        after = psi4_contrast(tucker_transform(C, jacobi_diagonalize(C)))[0]
        assert after >= before - 1e-12


# the grid of the reference pair mass: (-pi/4, pi/4) at 4 097 interior points
_FINE_THETA = -math.pi / 4 + (math.pi / 2) * np.arange(1, 4098) / 4097


def fine_grid_pair_mass(V, i, j):
    # reference pair mass, evaluated independently of the solver: the 2^4
    # pair block contracted with the rotated coordinate vectors on a grid
    ci, si = np.cos(_FINE_THETA), np.sin(_FINE_THETA)
    block = V[np.ix_(*[[i, j]] * 4)]
    mass = 0.0
    for r in (np.array([ci, si]), np.array([-si, ci])):
        mass = mass + np.einsum("abcd,ag,bg,cg,dg->g", block, r, r, r, r) ** 2
    return mass


def test_jacobi_leaves_no_pair_gain_on_a_fine_grid():
    for n, seed in ((3, 60), (4, 61), (4, 62)):
        A = generate_sources([SourceSpec("uniform", seed=seed * 10 + k) for k in range(n)], 5000)
        _, Z = whiten(mix(MixingModel("static", matrix=random_orthogonal(n, seed)), A))
        C = estimate_cum4(Z)
        V = tucker_transform(C, jacobi_diagonalize(C)).values
        for i in range(n):
            for j in range(i + 1, n):
                assert fine_grid_pair_mass(V, i, j).max() - (V[i, i, i, i] ** 2 + V[j, j, j, j] ** 2) <= 1e-10


def pair_tensor(t):
    """The 2 x 2 x 2 x 2 tensor whose entry (a, b, c, d) is t[a + b + c + d]."""
    return Cumulant4Tensor(values=np.array(t)[np.indices((2,) * 4).sum(axis=0)])


def test_jacobi_leaves_a_zero_tensor_alone():
    # c1 = c2 = 0 for every pair: no gain anywhere, and no sweep cap to hit
    for n in (2, 3, 5):
        assert np.array_equal(jacobi_diagonalize(Cumulant4Tensor(np.zeros((n,) * 4)), max_sweeps=1), np.eye(n))


def test_jacobi_reaches_the_pair_maximum_when_the_second_harmonic_vanishes():
    # t0 - 6 t2 + t4 = 0 and t1 = t3 give c2 = 0 exactly, so the stationary
    # points come from the explicit branch, not from the companion quartic
    t = (1.0, 0.5, 1.0, 0.5, 5.0)
    c1, c2 = _pair_coefficients(*t)
    assert c2 == 0.0 and c1 != 0.0
    C = pair_tensor(t)
    Q = jacobi_diagonalize(C)
    V = tucker_transform(C, Q).values
    best = fine_grid_pair_mass(C.values, 0, 1).max()
    assert best > C.values[0, 0, 0, 0] ** 2 + C.values[1, 1, 1, 1] ** 2 + 1.0
    assert V[0, 0, 0, 0] ** 2 + V[1, 1, 1, 1] ** 2 >= best - 1e-10
    assert fine_grid_pair_mass(V, 0, 1).max() - (V[0, 0, 0, 0] ** 2 + V[1, 1, 1, 1] ** 2) <= 1e-10


@st.composite
def rotated_diagonal(draw):
    n = draw(st.integers(2, 5))
    gaps = draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    magnitudes = 0.3 + np.cumsum(gaps)
    c4s = np.array(signs) * magnitudes[list(order)]
    return c4s, random_orthogonal(n, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=40, deadline=None)
@given(rotated_diagonal())
def test_pair_sweeps_undo_a_random_rotation(case):
    c4s, R = case
    Q = jacobi_diagonalize(tucker_transform(diag_tensor(c4s), R))
    assert signed_permutation_gap(Q @ R) < 1e-6
    # the eigenmatrices JADE would see for this tensor: c4_k e_k e_k^T, rotated
    mats = [c * np.outer(R[:, k], R[:, k]) for k, c in enumerate(c4s)]
    assert signed_permutation_gap(joint_diagonalize(mats).T @ R) < 1e-6


# ---------------------------------------------------- joint diagonalization


def test_joint_diagonalize_single_diagonal_matrix():
    Q = joint_diagonalize([np.diag([3.0, 1.0, 2.0])])
    assert np.array_equal(Q, np.eye(3))


def test_joint_diagonalize_rotates_a_pure_off_diagonal_pair():
    # equal diagonals: the best rotation sits at the pi/4 end of the range
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    Q = joint_diagonalize([M])
    assert np.allclose(Q.T @ M @ Q, np.diag([1.0, -1.0]), atol=1e-12)


def test_pair_sweeps_raise_at_the_sweep_cap():
    R = random_orthogonal(3, 49)
    mats = [R @ np.diag([3.0, 1.0, -2.0]) @ R.T]
    with pytest.raises(NotConverged):
        joint_diagonalize(mats, max_sweeps=1)
    C = tucker_transform(diag_tensor([-2.0, -1.2, 1.0]), R)
    with pytest.raises(NotConverged):
        jacobi_diagonalize(C, max_sweeps=1)


@pytest.mark.parametrize("max_sweeps, sweep_tolerance",
                         [(0, 1e-10), (5, 0.0), (5, -1.0), (5, np.nan), (5, np.inf)])
def test_pair_sweeps_refuse_a_stop_rule_that_cannot_stop(max_sweeps, sweep_tolerance):
    # checked before any sweep: a tolerance of 0 or less (or NaN) would sweep to the cap
    mats = [np.diag([3.0, 1.0, -2.0])]
    with pytest.raises(InvalidSpec):
        joint_diagonalize(mats, sweep_tolerance=sweep_tolerance, max_sweeps=max_sweeps)
    with pytest.raises(InvalidSpec):
        jacobi_diagonalize(diag_tensor([-2.0, -1.2, 1.0]), sweep_tolerance, max_sweeps)


def test_joint_diagonalize_recovers_shared_eigenbasis():
    Q0 = random_orthogonal(4, 41)
    D1 = np.diag([3.0, 1.0, -2.0, 0.5])
    D2 = np.diag([0.3, -1.0, 2.0, -0.7])
    mats = [Q0 @ D1 @ Q0.T, Q0 @ D2 @ Q0.T]
    Q = joint_diagonalize(mats)

    def off2(B):
        R = B - np.diag(np.diag(B))
        return float(np.sum(R * R))

    total = sum(off2(Q.T @ M @ Q) for M in mats)
    assert total < 1e-10
    assert total <= sum(off2(M) for M in mats)
    assert signed_permutation_gap(Q.T @ Q0) < 1e-6


# ------------------------------ pair sweeps against the rotated-array reference
# The sweep that the Q-only sweep replaced: it rotates a working copy of the
# array on every axis per pair, and the Jacobi angle takes c1, c2 from the
# 5-point DFT of the pair mass sampled over one period in phi = 4 theta.

_REFERENCE_THETAS = np.arange(5) * (math.pi / 10.0)


def reference_pair_diag_mass(t, theta):
    t0, t1, t2, t3, t4 = t
    c, s = np.cos(theta), np.sin(theta)
    di = c**4 * t0 + 4 * c**3 * s * t1 + 6 * c * c * s * s * t2 + 4 * c * s**3 * t3 + s**4 * t4
    dj = s**4 * t0 - 4 * s**3 * c * t1 + 6 * s * s * c * c * t2 - 4 * s * c**3 * t3 + c**4 * t4
    return di * di + dj * dj


def reference_pair_coefficients(t):
    _, c1, c2, _, _ = np.fft.fft(reference_pair_diag_mass(t, _REFERENCE_THETAS)) * 0.4
    return c1, c2


def reference_cumulant_pair_angle(V, i, j):
    c1, c2 = reference_pair_coefficients(
        (V[i, i, i, i], V[i, i, i, j], V[i, i, j, j], V[i, j, j, j], V[j, j, j, j]))
    roots = np.roots([2.0 * c2, c1, 0.0, -np.conj(c1), -2.0 * np.conj(c2)])
    z = np.concatenate(([1.0], np.exp(1j * np.angle(roots))))
    gains = (c1 * (z - 1.0) + c2 * (z * z - 1.0)).real
    best = int(np.argmax(gains))
    return float(np.angle(z[best])) / 4.0, float(gains[best])


def reference_joint_pair_angle(A, i, j):
    h = A[:, i, i] - A[:, j, j]
    o = A[:, i, j] + A[:, j, i]
    theta = math.atan2(float(2.0 * (h @ o)), float(h @ h - o @ o)) / 4.0
    return theta, abs(math.sin(theta))


def reference_pair_sweep(A, axes, pair_angle, sweep_tolerance, max_sweeps):
    N = A.shape[axes[0]]
    Q = np.eye(N)
    planes = [Q] + [np.moveaxis(A, axis, 0) for axis in axes]
    for _ in range(max_sweeps):
        best_gain = 0.0
        for i in range(N):
            for j in range(i + 1, N):
                theta, gain = pair_angle(A, i, j)
                if gain <= 0.0:
                    continue
                best_gain = max(best_gain, gain)
                c, s = math.cos(theta), math.sin(theta)
                for P in planes:
                    Pi, Pj = P[i].copy(), P[j].copy()
                    P[i] = c * Pi + s * Pj
                    P[j] = -s * Pi + c * Pj
        if best_gain < sweep_tolerance:
            return Q
    raise NotConverged(f"pair sweeps did not settle in {max_sweeps} sweeps")


def reference_jacobi(C):
    return reference_pair_sweep(np.array(C.values), (0, 1, 2, 3), reference_cumulant_pair_angle, 1e-10, 50)


def reference_joint(mats):
    A = np.array(mats)
    A = (A + A.transpose(0, 2, 1)) / 2.0
    return fix_signs(reference_pair_sweep(A, (1, 2), reference_joint_pair_angle, 1e-12, 100).T)


def whitened_mixture_cum4(kind, n, seed):
    A = generate_sources([SourceSpec(kind, seed=seed * 10 + k) for k in range(n)], 4000)
    H = np.random.default_rng(seed).standard_normal((n, n))
    return estimate_cum4(whiten(mix(MixingModel("static", matrix=H), A))[1])


def eigenmatrices(C):
    # the eigenmatrix set jade_rotation builds
    B = unfold(C, "2x2")
    eigvals, eigvecs = np.linalg.eigh((B + B.T) / 2.0)
    order = np.argsort(np.abs(eigvals))[::-1][:C.dim]
    mats = [lam * v.reshape(C.dim, C.dim) for lam, v in zip(eigvals[order], eigvecs.T[order])]
    return [(M + M.T) / 2.0 for M in mats]


def test_pair_coefficients_match_the_dft_of_the_sampled_mass():
    rng = np.random.default_rng(70)
    for t in rng.standard_normal((500, 5)) * rng.uniform(0.01, 100.0, size=(500, 1)):
        c1, c2 = _pair_coefficients(*t)
        r1, r2 = reference_pair_coefficients(t)
        scale = abs(r1) + abs(r2)
        assert abs(c1 - r1) <= 1e-12 * scale
        assert abs(c2 - r2) <= 1e-12 * scale


@pytest.mark.parametrize("n", range(2, 9))
def test_jacobi_matches_the_rotated_array_reference_on_rotated_diagonals(n):
    rng = np.random.default_rng(80 + n)
    for seed in range(3):
        c4s = rng.uniform(0.3, 2.5, size=n) * rng.choice([-1.0, 1.0], size=n)
        C = tucker_transform(diag_tensor(c4s), random_orthogonal(n, 180 + 10 * n + seed))
        assert np.max(np.abs(jacobi_diagonalize(C) - reference_jacobi(C))) <= 1e-12


@pytest.mark.parametrize("kind", ["uniform", "bpsk"])
@pytest.mark.parametrize("n", range(3, 9))
def test_pair_sweeps_match_the_rotated_array_reference_on_sample_cumulants(kind, n):
    for seed in (90 + n, 190 + n):
        C = whitened_mixture_cum4(kind, n, seed)
        assert np.max(np.abs(jacobi_diagonalize(C) - reference_jacobi(C))) <= 1e-12
        mats = eigenmatrices(C)
        assert np.max(np.abs(joint_diagonalize(mats) - reference_joint(mats))) <= 1e-12


# ------------------------------------------------------------------ jade


def test_jade_separates_three_bpsk_sources():
    A = generate_sources([SourceSpec("bpsk", seed=90 + k) for k in range(3)], 20_000)
    H = np.random.default_rng(42).standard_normal((3, 3))
    U = mix(MixingModel("static", matrix=H), A)
    sep = jade(U)
    assert separation_index(sep.matrix @ H) < -15.0


def test_jade_exact_on_orthogonally_mixed_design():
    Q0 = random_orthogonal(3, 43)
    X = Q0 @ bpsk_product(3)
    sep = jade(X)
    assert signed_permutation_gap(sep.matrix @ Q0) < 1e-8


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["bpsk", "uniform", "laplace"]), min_size=2, max_size=5),
       st.integers(0, 2**32 - 1))
# a mixing of condition 8 185: whiten leaves cov(Z) at I + 3.6e-8, so B B^T
# reads 2.5e-8 off I and B^T is no stand-in for B^-1
@example(kinds=["bpsk"] * 4, seed=73096)
def test_jade_is_equivariant_under_orthogonal_mixing(kinds, seed):
    # jade(R Z) = P jade(Z) R^-1 for a signed permutation P: the separator
    # follows any orthogonal change of the sphered coordinates
    n = len(kinds)
    A = generate_sources([SourceSpec(k, seed=seed % 10**6 + i) for i, k in enumerate(kinds)], 4000)
    _, Z = whiten(np.random.default_rng(seed).standard_normal((n, n)) @ A.data)
    R = random_orthogonal(n, seed + 1)
    B = jade(Z).matrix
    assert signed_permutation_gap(jade(R @ Z.data).matrix @ R @ np.linalg.inv(B)) < 1e-9


def test_jade_single_channel_is_just_the_whitener():
    data = 2.0 * bpsk_product(1)
    sep = jade(data)
    assert np.array_equal(sep.matrix, fit_whitener(data).matrix)


def test_jacobi_and_jade_agree_on_exact_tensor():
    Q0 = random_orthogonal(3, 44)
    C = tucker_transform(diag_tensor([-2.0, -1.2, 1.0]), Q0)
    Qj = jacobi_diagonalize(C)
    M = Qj @ jade_rotation(C)  # both should be Q0^-1 up to perm/sign
    for row in np.abs(M):
        assert row.max() > 1.0 - 1e-6
    assert sorted(int(np.argmax(r)) for r in np.abs(M)) == [0, 1, 2]


# ----------------------------------------------------------------- hoevd


def test_hoevd_diagonal_tensor():
    factor, core = hoevd(diag_tensor([-2.0, -1.2, 1.0]))
    assert signed_permutation_gap(factor) < 1e-12
    assert psi4_contrast(core)[1] < 1e-16


def test_hoevd_rotated_tensor_and_reconstruction():
    Q0 = random_orthogonal(3, 45)
    C = tucker_transform(diag_tensor([-2.0, -1.2, 1.0]), Q0)
    factor, core = hoevd(C)
    assert psi4_contrast(core)[1] < 1e-8
    recon = tucker_transform(core, factor)
    assert np.allclose(recon.values, C.values, atol=1e-8)


# ------------------------------------------------------------------ hopm


def test_hopm_exact_rank_one():
    rng = np.random.default_rng(46)
    q = rng.standard_normal(3)
    q /= np.linalg.norm(q)
    C = rank1_tensor(-1.7, q)
    lam, g = hopm(C, init=q + 0.3 * rng.standard_normal(3))
    assert abs(abs(float(g @ q)) - 1.0) < 1e-12
    assert np.isclose(lam, -1.7, atol=1e-10)


def test_hopm_two_bpsk_tensor():
    Q0 = random_orthogonal(2, 47)
    C = tucker_transform(diag_tensor([-2.0, -2.0]), Q0)
    lam, g = hopm(C, init=np.array([0.9, 0.45]))
    assert np.isclose(lam, -2.0, atol=1e-8)
    assert np.max(np.abs(g @ Q0)) > 0.999


def test_hopm_orthogonal_start_finds_other_component():
    Q0 = random_orthogonal(3, 48)
    q1, q2, q3 = Q0.T
    C = Cumulant4Tensor(values=rank1_tensor(-2.0, q1).values + rank1_tensor(-2.0, q2).values)
    lam, g = hopm(C, init=q2 + 0.1 * q3)
    assert abs(float(g @ q2)) > 1.0 - 1e-10
    assert np.isclose(lam, -2.0, atol=1e-10)


def reference_hopm(C, g, max_iterations=500, tolerance=1e-12):
    """The power method on the tensor itself, by einsum, from a unit-norm start."""
    V = C.values
    for _ in range(max_iterations):
        t = np.einsum("ijkl,j,k,l->i", V, g, g, g)
        g_new = t / np.linalg.norm(t)
        if 1.0 - abs(float(g_new @ g)) < tolerance:
            g = fix_signs(g_new)
            return float(np.einsum("ijkl,i,j,k,l->", V, g, g, g, g)), g
        g = g_new
    raise NotConverged("reference power method did not settle")


def test_hopm_starts_from_the_hoevd_factor():
    # exact diagonal cumulants under a rotation: the leading HO-EVD factor is
    # the source of largest |kurtosis|, a fixed point of the power method
    Q0 = random_orthogonal(4, 50)
    C = tucker_transform(diag_tensor([-1.2, 2.0, 0.5, -0.3]), Q0)
    lam, g = hopm(C)
    assert np.isclose(lam, 2.0, atol=1e-10)
    assert abs(float(g @ Q0[:, 1])) > 1.0 - 1e-12


@pytest.mark.parametrize("n, seed", [(3, 51), (8, 52)])
def test_hopm_matches_the_einsum_power_method_and_raises_at_its_cap(n, seed):
    X = whiten(mix(MixingModel("static", matrix=random_orthogonal(n, seed)),
                   generate_sources([SourceSpec("uniform", seed=seed + k) for k in range(n)], 2_000)))[1]
    C = estimate_cum4(X)
    lam, g = hopm(C)
    ref_lam, ref_g = reference_hopm(C, hoevd(C)[0][:, 0])
    assert np.max(np.abs(g - ref_g)) < 1e-10 and abs(lam - ref_lam) < 1e-10
    with pytest.raises(NotConverged):
        hopm(C, max_iterations=1)


def test_hopm_stop_rule_must_be_able_to_fire_and_to_hold():
    # 1 - |<g+, g>| < tolerance stops the power method: a tolerance of 1 or
    # more would stop it after one step, one of 0 or less would never stop it
    C = rank1_tensor(-1.7, np.array([0.6, 0.8, 0.0]))
    init = np.array([1.0, 0.0, 0.0])
    for max_iterations, tolerance in ((500, 1.0), (500, 3.0), (500, 0.0), (500, -1e-12),
                                      (500, float("nan")), (0, 1e-12)):
        with pytest.raises(InvalidSpec):
            hopm(C, init=init, max_iterations=max_iterations, tolerance=tolerance)


# --------------------------------------------------------------- parafac


def test_parafac_exact_rank_one():
    rng = np.random.default_rng(49)
    q = rng.standard_normal(3)
    q /= np.linalg.norm(q)
    C = rank1_tensor(2.3, q)
    fit = parafac_als(C, 1)
    assert fit.error_trajectory[-1] < 1e-8
    assert abs(float(fit.factor[:, 0] @ q)) > 0.999999
    assert np.isclose(fit.weights[0], 2.3, atol=1e-8)


def test_parafac_two_source_tensor():
    Q0 = random_orthogonal(2, 50)
    C = tucker_transform(diag_tensor([-2.0, -1.2]), Q0)
    fit = parafac_als(C, 2)
    overlap = np.abs(fit.factor.T @ Q0)
    for j in range(2):
        i = int(np.argmax(overlap[j]))
        assert overlap[j, i] > 0.999
        assert np.isclose(fit.weights[j], [-2.0, -1.2][i], atol=1e-6)


def test_parafac_rejects_rank_zero():
    with pytest.raises(InvalidSpec):
        parafac_als(diag_tensor([-2.0, -1.2]), 0)


@pytest.mark.parametrize("max_iterations, tolerance", [(0, 1e-10), (200, -1.0), (200, 0.0), (200, np.nan)])
def test_parafac_refuses_a_stop_rule_that_cannot_stop(max_iterations, tolerance):
    # no cycle runs: the HO-EVD init is never returned unfitted as a result
    with pytest.raises(InvalidSpec):
        parafac_als(diag_tensor([-2.0, -1.2]), 2, max_iterations=max_iterations, tolerance=tolerance)


def test_parafac_reconstructs_an_exact_rank_two_tensor():
    C = tucker_transform(diag_tensor([-2.0, -1.2]), random_orthogonal(2, 50))
    fit = parafac_als(C, 2)
    assert np.allclose(fit.reconstruction(), C.values, atol=1e-8)


def test_parafac_warm_starts_from_a_fit():
    C = tucker_transform(diag_tensor([-2.0, -1.2]), random_orthogonal(2, 50))
    fit = parafac_als(C, 2)
    warm = parafac_als(C, 2, init=fit)
    # started at the solution, the error settles within the first cycles
    assert warm.converged and len(warm.error_trajectory) <= 3
    assert np.allclose(warm.reconstruction(), C.values, atol=1e-8)
    with pytest.raises(DimensionMismatch):
        parafac_als(C, 2, init=parafac_als(C, 1))


def test_parafac_error_never_increases():
    A = generate_sources([SourceSpec("laplace", seed=95 + k) for k in range(3)], 3_000)
    H = np.random.default_rng(51).standard_normal((3, 3))
    U = mix(MixingModel("static", matrix=H), A)
    _, Z = whiten(U)
    fit = parafac_als(estimate_cum4(Z), 2)
    diffs = np.diff(fit.error_trajectory)
    assert np.all(diffs <= 1e-12)


@pytest.mark.parametrize("c", [1e3, 1e-6, 1e-9, 1e-12])
def test_parafac_fits_alike_at_any_scale_of_the_tensor(c):
    # the stop rule is relative and no check is absolute, so a scaled tensor
    # runs the same cycles to the same relative error
    H = np.random.default_rng(7).standard_normal((4, 3))
    C = ParafacFactors(H / np.linalg.norm(H, axis=0), np.array([1.0, -2.0, 0.7])).reconstruction()
    fit = parafac_als(Cumulant4Tensor(C), 3)
    scaled = parafac_als(Cumulant4Tensor(c * C), 3)
    assert fit.converged and scaled.converged and len(scaled.error_trajectory) == len(fit.error_trajectory)
    assert np.linalg.norm(scaled.reconstruction() - c * C) < 1e-9 * np.linalg.norm(c * C)
    assert np.allclose(scaled.weights, c * fit.weights, rtol=1e-8, atol=0.0)


# ----------------------------------------------------------------- kruskal


def test_kruskal_bound():
    assert kruskal_check(3, 4) is True
    assert kruskal_check(2, 3) is False
    for M in range(1, 11):
        for N in range(1, 11):
            assert kruskal_check(M, N) == (4 * M >= 2 * N + 3)
    with pytest.raises(InvalidSpec):
        kruskal_check(1, 0)


# -------------------------------------------------------------- rank1_init


def test_rank1_init_single_source_tensor():
    rng = np.random.default_rng(52)
    h = rng.standard_normal(3)
    h /= np.linalg.norm(h)
    start = rank1_init(rank1_tensor(-2.0, h))
    assert np.isclose(start.eigenvalue, -2.0, atol=1e-10)
    assert np.allclose(start.matrix, np.outer(h, h), atol=1e-10)
    assert np.isclose(start.varsigma, 1.0, atol=1e-10)
    assert abs(float(start.g0 @ h)) > 1.0 - 1e-10


def test_rank1_init_two_sources_picks_strongest():
    Q0 = random_orthogonal(2, 53)
    C = tucker_transform(diag_tensor([-2.0, -1.2]), Q0)
    start = rank1_init(C)
    assert abs(float(start.g0 @ Q0[:, 0])) > 1.0 - 1e-8
    g = start.g0
    psi = abs(float(np.einsum("ijkl,i,j,k,l->", C.values, g, g, g, g)))
    assert np.isclose(psi, 2.0, atol=1e-8)
    assert np.isclose(psi, abs(start.eigenvalue), atol=1e-8)


def test_rank1_init_bounds_on_subgaussian_instances():
    # varsigma^2 |lambda| <= psi_D(g0) <= |lambda|, contrast from the tensor
    for seed in range(20):
        rng = np.random.default_rng(700 + seed)
        c4s = -(0.5 + np.array([0.0, 0.7, 1.4]) + rng.uniform(0.0, 0.5, size=3))
        C = tucker_transform(diag_tensor(c4s), random_orthogonal(3, 800 + seed))
        start = rank1_init(C)
        g = start.g0
        psi = abs(float(np.einsum("ijkl,i,j,k,l->", C.values, g, g, g, g)))
        lam = abs(start.eigenvalue)
        assert start.varsigma**2 * lam <= psi + 1e-10
        assert psi <= lam + 1e-10


def test_rank1_init_refuses_tied_spectrum():
    C = tucker_transform(diag_tensor([-2.0, -2.0]), random_orthogonal(2, 54))
    with pytest.raises(DegenerateSpectrum):
        rank1_init(C)


@pytest.mark.parametrize("c", [1e-13, 1e-6, 1e3])
def test_rank1_init_and_hopm_are_the_same_at_any_scale_of_the_tensor(c):
    # the raw cumulant of four uniform sources; in millivolts it is 1e-12 of this
    A = generate_sources([SourceSpec("uniform", seed=63 + k) for k in range(4)], 20_000)
    C = estimate_cum4(mix(MixingModel("static", matrix=random_orthogonal(4, 64)), A))
    scaled = Cumulant4Tensor(c * C.values)
    assert abs(float(rank1_init(scaled).g0 @ rank1_init(C).g0)) == pytest.approx(1.0, abs=1e-14)
    lam, g = hopm(C)
    lam_c, g_c = hopm(scaled)
    assert np.allclose(g_c, g, rtol=0.0, atol=1e-14)
    assert lam_c == pytest.approx(c * lam, rel=1e-13)


# ---------------------------------------------------------------- unimodal


def convolutive_scene(seed, T):
    rng = np.random.default_rng(seed)
    A = generate_sources([SourceSpec("bpsk", seed=seed * 2 + 1),
                          SourceSpec("bpsk", seed=seed * 2 + 2)], T)
    taps = rng.standard_normal((6, 4, 2)) / np.sqrt(6)
    U = mix(MixingModel("convolutive", taps=list(taps)), A)
    return A, U


def best_sign_agreement(result, A, U, max_delay):
    y = result.outputs(U)
    s = np.sign(y)
    s[s == 0] = 1.0
    offset = result.window_length - 1
    best = 0.0
    for k in range(A.channel_count):
        a = A.data[k]
        for d in range(max_delay + 1):
            if offset - d < 0:
                continue
            src = np.sign(a[offset - d : offset - d + len(y)])
            agree = float(np.mean(s == src))
            best = max(best, agree, 1.0 - agree)
    return best


def test_unimodal_zero_mu2_freezes_the_equalizer_vector():
    _, U = convolutive_scene(2, 4_000)
    result = unimodal_equalizer(U, mu1=0.05, mu2=0.0, L=8, epochs=1, init="zero")
    first = np.zeros(result.g.shape)
    first[0] = 1.0
    assert np.array_equal(result.g, first)
    assert all(np.array_equal(g, first) for g in result.trajectory)
    X = result.whitener.apply(window_stack(U, 8)).data
    errs = 1.0 - np.einsum("it,ij,jt->t", X, result.W, X)
    assert float(np.mean(errs * errs)) < 0.1  # W alone fits the modulus target


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(0, 16))
def test_cum_unfolding_iterate_has_trace_at_least_one(seed, K, iterations):
    # V = W W / |W W|_F with W exactly symmetric, so tr V = |W|_F^2 / |W W|_F >= 1
    # and the fourth-order init can always divide W by its trace
    rng = np.random.default_rng(seed)
    X = whiten(rng.uniform(-1.0, 1.0, (K, 400)) ** 3)[1].data
    _, V = _cum_unfolding_power(X, iterations)
    assert np.trace(V) >= 1.0 - 1e-12


def reference_cum_unfolding_power(X, iterations=16):
    # The fourth-order init as it ran before its float32 passes: every pass in
    # float64 and no stop rule.  Also returns how far the last pass moved V.
    x0 = X[:, 0]
    V = np.outer(x0, x0)
    V /= np.linalg.norm(V)
    lam, moved = 0.0, np.inf
    for _ in range(iterations):
        W = cumulant_matrix(X, V)
        W = (W + W.T) / 2.0
        lam = float(np.sum(V * W))
        V_next = W @ W
        V_next /= np.linalg.norm(V_next)
        moved, V = float(np.max(np.abs(V_next - V))), V_next
    return lam, V, moved


def counted_init(monkeypatch, X, *iterations):
    # _cum_unfolding_power(X, *iterations), with the precision of every pass
    # through the cumulant operator; the float32 copy of X must be gone before
    # the first float64 pass
    passes, copies = [], []
    operator = algebraic._cumulant_matrix

    def counted(Z, M):
        assert M.dtype == Z.dtype  # nothing upcasts a float32 pass
        if Z.dtype == np.float32:
            copies.append(weakref.ref(Z))
        else:
            assert all(copy() is None for copy in copies)
        passes.append(Z.dtype)
        return operator(Z, M)

    monkeypatch.setattr(algebraic, "_cumulant_matrix", counted)
    lam, V = _cum_unfolding_power(X, *iterations)
    assert V.dtype == np.float64 and isinstance(lam, float)
    # float32 passes first, then float64 ones, the last pass always float64
    f32 = passes.count(np.float32)
    assert passes == [np.float32] * f32 + [np.float64] * (len(passes) - f32)
    assert not passes or passes[-1] == np.float64
    return lam, V, len(passes)


def leading_vector(V):
    return np.linalg.eigh(V)[1][:, -1]


# benchmark-shaped channels (two BPSK sources, an order-5 FIR channel onto 4
# sensors, L = 16): the 16 float64 passes settle at seeds 1 and 3, not at 12
@pytest.mark.parametrize("seed", [1, 3, 12])
def test_cum_unfolding_init_matches_the_float64_reference(seed, monkeypatch):
    X = whiten(window_stack(convolutive_scene(seed, 20_000)[1], 16))[1].data
    lam_ref, V_ref, moved = reference_cum_unfolding_power(X)
    assert (moved < 1e-13) == (seed != 12)
    lam, V, passes = counted_init(monkeypatch, X)
    assert passes <= 16
    assert abs(leading_vector(V) @ leading_vector(V_ref)) > 1.0 - 1e-9  # the same vertex
    if moved < 1e-13:
        assert np.max(np.abs(V - V_ref)) <= 1e-12
        assert abs(lam - lam_ref) <= 1e-12


@pytest.mark.parametrize("iterations", [0, 1, 2, 16])
def test_cum_unfolding_init_caps_its_passes_where_nothing_settles(iterations, monkeypatch):
    # 985 windows of 64 taps: the iterate is still moving after 16 passes
    X = whiten(window_stack(convolutive_scene(4, 1_000)[1], 16))[1].data
    lam_ref, V_ref, moved = reference_cum_unfolding_power(X, iterations)
    lam, V, passes = counted_init(monkeypatch, X, iterations)
    assert passes == iterations
    if iterations <= 1:  # no float32 pass ran, so these are the reference's passes
        assert np.array_equal(V, V_ref) and lam == lam_ref
    else:
        assert moved > 1e-4
        assert abs(leading_vector(V) @ leading_vector(V_ref)) > 1.0 - 1e-6


def test_unimodal_settles_on_an_eigenvector():
    _, U = convolutive_scene(1, 10_000)
    result = unimodal_equalizer(U, mu1=0.05, mu2=0.02, L=16, epochs=3)
    Wg = result.W @ result.g
    lam = float(result.g @ Wg)
    assert np.linalg.norm(Wg - lam * result.g) < 0.01
    assert abs(float(result.trajectory[-1] @ result.trajectory[-2])) > 1.0 - 1e-6


def test_unimodal_recovers_a_delayed_source_sign():
    A, U = convolutive_scene(1, 10_000)
    result = unimodal_equalizer(U, mu1=0.05, mu2=0.02, L=16, epochs=3)
    # W's symmetry is measured over many blocks, not enforced
    assert math.isfinite(result.max_w_asymmetry) and result.max_w_asymmetry < 1e-12
    assert float(np.max(np.abs(result.W - result.W.T))) <= result.max_w_asymmetry
    assert result.max_g_norm_dev < 1e-12
    assert best_sign_agreement(result, A, U, 16 + 5) >= 0.99


def test_unimodal_outputs_equal_the_sphered_windows_form():
    # outputs reads the raw windows through a = T_w^T g and subtracts a^T m
    _, U = convolutive_scene(2, 3_000)
    U = U.data + np.array([[3.0], [-1.0], [0.5], [2.0]])  # a mean to subtract
    result = unimodal_equalizer(U, mu1=0.05, mu2=0.02, L=8)
    want = result.g @ result.whitener.apply(window_stack(U, 8)).data
    got = result.outputs(U)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("init", UNIMODAL_INITS)
def test_unimodal_never_builds_a_centred_copy_of_its_windows(init):
    # the window stack is centred in place and sphered by one GEMM: at most
    # the stack and its sphered rows (42 of 64 here) are held at once
    _, U = convolutive_scene(1, 5_000)
    stack = window_stack(U, 16).nbytes
    tracemalloc.start()
    try:
        unimodal_equalizer(U, mu1=0.05, mu2=0.02, L=16, init=init)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * stack


def reference_unimodal_equalizer(U, mu1, mu2, L, epochs=1, init="fourth_order"):
    # The per-sample loop that the blocked W recursion replaced: one rank-one
    # W update and one g step per window.
    whitener, sphered = whiten(window_stack(U, L))
    X = sphered.data
    K, T = X.shape
    lam0 = float("nan")
    if init == "fourth_order":
        lam0, V = _cum_unfolding_power(X)
        tr = np.trace(V)
        W = V / np.linalg.norm(V) if abs(tr) < 1e-9 * np.linalg.norm(V) else V / tr
    else:
        W = np.zeros((K, K))
    g = np.zeros(K)
    g[0] = 1.0
    max_norm_dev = 0.0
    trajectory = []
    for _ in range(epochs):
        for t in range(T):
            u = X[:, t]
            err = 1.0 - float(u @ (W @ u))
            gain = mu1 / (1.0 + mu1 * float(u @ u) ** 2)
            W += gain * err * np.outer(u, u)
            g_plus = g + mu2 * (W @ g)
            g = g_plus / float(np.linalg.norm(g_plus))
            max_norm_dev = max(max_norm_dev, abs(float(np.linalg.norm(g)) - 1.0))
        trajectory.append(g.copy())
    return g, trajectory, W, lam0, max_norm_dev


def two_sensor_scene(seed, samples):
    A = generate_sources([SourceSpec("bpsk", seed=seed * 2 + 1),
                          SourceSpec("bpsk", seed=seed * 2 + 2)], samples)
    taps = np.random.default_rng(seed).standard_normal((6, 2, 2)) / np.sqrt(6)
    return mix(MixingModel("convolutive", taps=list(taps)), A)


def assert_unimodal_matches_reference(U, mu1, mu2, L, epochs, init):
    result = unimodal_equalizer(U, mu1=mu1, mu2=mu2, L=L, epochs=epochs, init=init)
    g, trajectory, W, lam0, max_norm_dev = reference_unimodal_equalizer(U, mu1, mu2, L, epochs, init)
    assert np.max(np.abs(result.W - W)) <= 1e-12 * max(1.0, float(np.max(np.abs(W))))
    assert np.max(np.abs(result.g - g)) <= 1e-12
    assert len(result.trajectory) == epochs
    for got, want in zip(result.trajectory, trajectory):
        assert np.max(np.abs(got - want)) <= 1e-12
    assert abs(result.max_g_norm_dev - max_norm_dev) <= 1e-12
    assert result.eigenvalue == lam0 or (math.isnan(result.eigenvalue) and math.isnan(lam0))


# windows T below the block, and T mod B at 0, 1 and B - 1
_BLOCK_WINDOW_COUNTS = (_UNIMODAL_BLOCK - 16, 2 * _UNIMODAL_BLOCK, 2 * _UNIMODAL_BLOCK + 1,
                        3 * _UNIMODAL_BLOCK - 1)


@pytest.mark.parametrize("windows", _BLOCK_WINDOW_COUNTS)
@pytest.mark.parametrize("L", [1, 4, 16])
@pytest.mark.parametrize("init", UNIMODAL_INITS)
def test_unimodal_blocks_match_the_per_sample_reference(windows, L, init):
    U = two_sensor_scene(windows + L, windows + L - 1)
    for mu2 in (0.0, 0.02, 0.5):
        for epochs in (1, 2, 3):
            assert_unimodal_matches_reference(U, 0.05, mu2, L, epochs, init)


def test_unimodal_blocks_match_the_reference_at_a_large_step():
    U = two_sensor_scene(7, 3 * _UNIMODAL_BLOCK + 5)
    X = whiten(window_stack(U, 1))[1].data
    gram = X.T @ X
    norm2 = np.diagonal(gram)
    gain = 5.0 / (1.0 + 5.0 * norm2 * norm2)
    assert np.max(np.tril(gain[:, None] * gram * gram, -1)) > 1.0  # an off-diagonal entry of the system exceeds 1
    for init in UNIMODAL_INITS:
        assert_unimodal_matches_reference(U, 5.0, 0.5, 1, 3, init)


def test_unimodal_stops_where_a_window_annihilates_g(monkeypatch):
    # W starts with eigenvalue -1/mu2 along g's start vector e0, and mu1 is so
    # small that the first window barely moves W: that window's step
    # (I + mu2 W) e0 shrinks g by far more than 1e-12
    K = 2 * 4  # two sensors, windows of depth 4
    V = np.diag([-2.0, 3.0] + [0.0] * (K - 2))  # trace 1, so W starts as V
    monkeypatch.setattr(algebraic, "_cum_unfolding_power", lambda Z: (1.0, V.copy()))
    with pytest.raises(ZeroUpdate):
        unimodal_equalizer(two_sensor_scene(3, 200), mu1=1e-20, mu2=0.5, L=4)


@pytest.mark.parametrize("mu2", [10.0, 1e3])
def test_unimodal_at_a_large_step_matches_the_reference_or_raises(mu2):
    # g steps unnormalized through a block, so it can grow by prod(1 + mu2 ||W_t||)
    # there; past the float range the run raises Diverged, never returns a NaN
    U = two_sensor_scene(5, 304)
    for init in UNIMODAL_INITS:
        try:
            result = unimodal_equalizer(U, mu1=0.05, mu2=mu2, L=4, epochs=2, init=init)
        except Diverged:
            continue
        assert np.all(np.isfinite(result.g)) and math.isfinite(result.max_g_norm_dev)
        assert_unimodal_matches_reference(U, 0.05, mu2, 4, 2, init)


def test_unimodal_rejects_bad_steps():
    _, U = convolutive_scene(3, 500)
    with pytest.raises(InvalidSpec):
        unimodal_equalizer(U, mu1=0.0, mu2=0.1, L=4)
    with pytest.raises(InvalidSpec):
        unimodal_equalizer(U, mu1=0.05, mu2=-0.1, L=4)
    for mu1, mu2 in [(np.inf, 0.1), (np.nan, 0.1), (0.05, np.inf), (0.05, np.nan)]:
        with pytest.raises(InvalidSpec):
            unimodal_equalizer(U, mu1=mu1, mu2=mu2, L=4)
    with pytest.raises(InvalidSpec):
        unimodal_equalizer(U, mu1=0.05, mu2=0.1, L=4, init="warm")


# ----------------------------------------------------------------- det cm


def test_det_cm_scalar_block_normalizes_power():
    U = np.array([[2.0, -2.0, 2.0, -2.0, 2.0]])
    res = deterministic_cm(U)
    assert np.isclose(abs(res.g[0]), 0.5, atol=1e-12)
    y = res.g @ U
    assert np.isclose(np.mean(y * y), 1.0, atol=1e-12)
    assert res.residual < 1e-10


def test_det_cm_exact_on_binary_blocks():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(60 + seed)
        A = generate_sources([SourceSpec("bpsk", seed=600 + 2 * seed),
                              SourceSpec("bpsk", seed=601 + 2 * seed)], 64)
        H = rng.standard_normal((2, 2))
        U = mix(MixingModel("static", matrix=H), A)
        res = deterministic_cm(U)
        y = res.g @ U.data
        assert float(np.max(np.abs(y * y - 1.0))) < 1e-6
        assert np.allclose(res.matrix, res.matrix.T, atol=1e-12)


def test_det_cm_gaussian_block_reports_large_residual():
    U = np.random.default_rng(61).standard_normal((2, 400))
    res = deterministic_cm(U)
    assert res.residual > 0.3  # no constant-modulus output exists


def test_det_cm_needs_enough_excitation():
    with pytest.raises(RankDeficient):
        deterministic_cm(np.ones((2, 10)))
    with pytest.raises(RankDeficient):
        deterministic_cm(np.zeros((2, 10)))  # no second moment at all


def test_det_cm_refuses_a_negative_refinement_cap():
    U = np.random.default_rng(61).standard_normal((2, 400))
    with pytest.raises(InvalidSpec):
        deterministic_cm(U, max_refinements=-4)


@pytest.mark.parametrize("rows", [
    [[1.0, 1.0]],  # two equal channels
    [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # two of three channels equal
], ids=["n2", "n3"])
def test_det_cm_singular_covariance_is_rank_deficient(rows):
    # M2 = X X^T / T is singular, so the sphering has a null direction
    A = np.random.default_rng(62).standard_normal((len(rows), 500))
    with np.errstate(all="raise"):  # no NaN or overflow on the way
        with pytest.raises(RankDeficient):
            deterministic_cm(np.array(rows).T @ A)


def reference_deterministic_cm(U, max_refinements=200):
    # The SVD-of-P implementation that the streamed R factor replaced: it
    # builds the T x N^2 regressor and refines in raw coordinates on the data.
    X = np.asarray(getattr(U, "data", U), dtype=float)
    N, T = X.shape
    P = (X[:, None, :] * X[None, :, :]).reshape(N * N, T).T
    ones = np.ones(T)
    left, svals, right_t = np.linalg.svd(P, full_matrices=False)
    tol = max(P.shape) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
    rank = int(np.sum(svals > tol))
    min_rank = 1 + N * (N - 1) // 2
    if rank < min_rank:
        raise RankDeficient(f"regressor rank {rank} below identifiable minimum {min_rank}")
    inv_s = np.zeros_like(svals)
    inv_s[:rank] = 1.0 / svals[:rank]
    w0 = right_t.T @ (inv_s * (left.T @ ones))
    rowspace = right_t[:rank].T

    w = w0
    for _ in range(50):
        W = w.reshape(N, N)
        W = (W + W.T) / 2.0
        eigvals, eigvecs = np.linalg.eigh(W)
        k = int(np.argmax(np.abs(eigvals)))
        x = (eigvals[k] * np.outer(eigvecs[:, k], eigvecs[:, k])).reshape(N * N)
        w_new = x + rowspace @ (rowspace.T @ (w0 - x))
        if np.linalg.norm(w_new - w) < 1e-15 * max(1.0, np.linalg.norm(w)):
            w = w_new
            break
        w = w_new

    W = w.reshape(N, N)
    W = (W + W.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(W)
    k = int(np.argmax(np.abs(eigvals)))
    g = math.sqrt(abs(float(eigvals[k]))) * fix_signs(eigvecs[:, k])

    damping = 1e-10
    y = g @ X
    errs = y * y - 1.0
    cost = float(errs @ errs)
    for _ in range(max_refinements):
        if cost < 1e-28:
            break
        jac = 2.0 * (y[None, :] * X)
        gram = jac @ jac.T
        grad = jac @ errs
        accepted = False
        while damping < 1e12:
            step = np.linalg.solve(gram + damping * np.eye(N), grad)
            y_try = (g - step) @ X
            errs_try = y_try * y_try - 1.0
            cost_try = float(errs_try @ errs_try)
            if cost_try < cost:
                g, y, errs, cost = g - step, y_try, errs_try, cost_try
                damping = max(damping * 0.1, 1e-12)
                accepted = True
                break
            damping *= 10.0
        if not accepted:
            break
    g = fix_signs(g)
    residual = float(np.linalg.norm((g @ X) ** 2 - 1.0) / math.sqrt(T))
    return g, residual, rank


def conditioned_mixing(n, cond, seed):
    rng = np.random.default_rng(seed)
    qu, _ = np.linalg.qr(rng.standard_normal((n, n)))
    qv, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return qu @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ qv.T


@pytest.mark.parametrize("samples", [64, 20_000])
@pytest.mark.parametrize("cond", [1.0, 10.0, 1e3, 1e4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["bpsk", "uniform", "laplace"])
def test_det_cm_matches_the_svd_reference(kind, n, cond, samples):
    seed = 1000 * n + samples % 997 + int(math.log10(cond)) * 10 + ["bpsk", "uniform", "laplace"].index(kind)
    H = conditioned_mixing(n, cond, seed)
    X = H @ generate_sources([SourceSpec(kind, seed=seed + i) for i in range(n)], samples).data
    try:
        g_ref, residual_ref, rank_ref = reference_deterministic_cm(X)
    except RankDeficient:
        with pytest.raises(RankDeficient):
            deterministic_cm(X)
        return
    res = deterministic_cm(X)
    assert res.rank == rank_ref
    if kind == "bpsk":
        assert res.residual <= 1e-12
    else:
        assert abs(res.residual - residual_ref) <= 1e-9 * residual_ref
    if kind == "bpsk" and cond == 1.0 and n > 1:
        # Orthogonal mixing keeps sum_i u_i^2 = N on every binary sample, so
        # the minimum-norm LS solution is exactly I / N, as near to every
        # vertex as to any other: rounding picks the vertex, in both codes.
        # Both must still have extracted one source exactly.
        for g in (g_ref, res.g):
            gains = np.sort(np.abs(g @ H))
            assert abs(gains[-1] - 1.0) < 1e-9 and gains[-2] < 1e-9
        return
    assert np.argmax(np.abs(res.g @ H)) == np.argmax(np.abs(g_ref @ H))
    assert np.linalg.norm(res.g - g_ref) <= 1e-6 * np.linalg.norm(g_ref)


def reference_pair_r_factor(X, sphere, scale):
    """Reference for _pair_r_factor: det_cm's running QR with a fresh stack per block."""
    n = len(scale)
    r_factor = np.zeros((n + 1, n + 1))
    for P in _pair_products(X, transform=sphere):
        rows = np.ones((P.shape[1], n + 1))
        rows[:, :n] = P.T * scale
        r_factor = np.linalg.qr(np.vstack((r_factor, rows)), mode="r")
    return r_factor


@pytest.mark.parametrize("samples", [64, 4096, 4097, 20_000])
@pytest.mark.parametrize("kind", ["bpsk", "uniform"])
def test_det_cm_r_factor_on_one_stack_is_bit_identical_to_the_per_block_code(kind, samples):
    H = conditioned_mixing(3, 10.0, samples)
    X = H @ generate_sources([SourceSpec(kind, seed=samples + i) for i in range(3)], samples).data
    lam, V = np.linalg.eigh(X @ X.T / samples)  # det_cm's sphering
    sphere = (V / np.sqrt(lam)).T
    iu, ju = np.triu_indices(3)
    scale = np.where(iu == ju, 1.0, math.sqrt(2.0))
    assert np.array_equal(_pair_r_factor(X, sphere, scale), reference_pair_r_factor(X, sphere, scale))


def test_det_cm_binary_residual_stays_at_the_rounding_floor():
    # At mixing condition 1e4 |g| reaches ~1e4, so the rounding of g @ X
    # alone is ~1e-12; the fit must still be exact to that level.
    worst = 0.0
    for seed in range(40):
        H = conditioned_mixing(4, 1e4, 500 + seed)
        X = H @ generate_sources([SourceSpec("bpsk", seed=1000 * seed + i) for i in range(4)], 64).data
        worst = max(worst, deterministic_cm(X).residual)
    assert worst <= 1e-12


def test_det_cm_without_refinement_stops_at_the_projection_vertex():
    H = conditioned_mixing(3, 10.0, 63)
    X = H @ generate_sources([SourceSpec("uniform", seed=64 + i) for i in range(3)], 2000).data
    g_ref, residual_ref, _ = reference_deterministic_cm(X, max_refinements=0)
    vertex = deterministic_cm(X, max_refinements=0)
    assert np.linalg.norm(vertex.g - g_ref) <= 1e-9 * np.linalg.norm(g_ref)
    assert abs(vertex.residual - residual_ref) <= 1e-9 * residual_ref
    # on non-CM data the Gauss-Newton stage moves g and lowers the residual
    refined = deterministic_cm(X)
    assert refined.residual < vertex.residual - 1e-3


def _rank2_tensor():
    Q = random_orthogonal(3, 60)
    return tucker_transform(diag_tensor([-2.0, -1.2, 0.0]), Q)


# id: (a call the module refuses, the error it raises)
ALGEBRAIC_FAILURES = {
    "jacobi_on_a_1_dimensional_tensor": (lambda: jacobi_diagonalize(diag_tensor([-2.0])), InvalidSpec),
    "joint_diagonalize_of_non_square_matrices": (lambda: joint_diagonalize([np.ones((2, 3))]), DimensionMismatch),
    "hopm_init_of_the_wrong_shape": (lambda: hopm(_rank2_tensor(), init=np.ones(2)), DimensionMismatch),
    "hopm_init_of_zero_norm": (lambda: hopm(_rank2_tensor(), init=np.zeros(3)), ZeroUpdate),
    "hopm_on_a_zero_tensor": (lambda: hopm(diag_tensor([0.0, 0.0, 0.0])), ZeroUpdate),
    "kruskal_check_of_a_float": (lambda: kruskal_check(2.0, 1), InvalidSpec),
    "parafac_on_a_zero_tensor": (lambda: parafac_als(diag_tensor([0.0, 0.0, 0.0]), 2), SingularLS),
    "rank1_init_on_a_zero_tensor": (lambda: rank1_init(diag_tensor([0.0, 0.0, 0.0])), DegenerateSpectrum),
    "parafac_from_two_equal_columns": (
        lambda: parafac_als(_rank2_tensor(), 2, init=ParafacFactors(np.ones((3, 2)) / math.sqrt(3.0), np.ones(2))),
        SingularLS),
    "cumulant_power_from_a_zero_leading_window": (
        lambda: _cum_unfolding_power(np.array([[0.0, 1.0, -1.0], [0.0, -1.0, 1.0]])), ZeroContraction),
    # thirteen samples of 1 and two of 2 have E[x^4] = 3 exactly: no excess kurtosis
    "cumulant_power_on_a_zero_cumulant": (
        lambda: _cum_unfolding_power(np.array([[1.0] * 13 + [2.0, -2.0]])), ZeroContraction),
    "unimodal_without_epochs": (
        lambda: unimodal_equalizer(bpsk_product(3), 0.01, 0.1, 2, epochs=0), InvalidSpec),
}


@pytest.mark.parametrize("call, error", ALGEBRAIC_FAILURES.values(), ids=ALGEBRAIC_FAILURES.keys())
def test_algebraic_failures_are_typed(call, error):
    with pytest.raises(error):
        call()
