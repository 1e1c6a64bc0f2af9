"""Whitening and the lagged-covariance separator."""

import numpy as np
import pytest

from bsskit import (
    DegenerateInput,
    DegenerateSpectra,
    DimensionMismatch,
    MixingModel,
    Separator,
    SourceSpec,
    amuse,
    fix_signs,
    generate_sources,
    global_system,
    mix,
    sample_covariance,
    separation_index,
    whiten,
)
from bsskit import signals
from bsskit.second_order import _RANK_TOLERANCE


def ar_pair(seed, samples=50_000):
    specs = [SourceSpec("ar1", ar_coefficient=0.9, seed=2 * seed),
             SourceSpec("ar1", ar_coefficient=0.1, seed=2 * seed + 1)]
    return generate_sources(specs, samples)


def test_whiten_postcondition():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 2000)) * np.array([[2.0], [0.5], [1.5]])
    X = np.linalg.qr(rng.standard_normal((3, 3)))[0] @ X
    whitener, Z = whiten(X)
    R = np.cov(Z.data, bias=True)
    assert np.linalg.norm(R - np.eye(3)) < 1e-8


def test_whiten_already_white_gives_orthogonal_map():
    rng = np.random.default_rng(1)
    _, Z = whiten(rng.standard_normal((2, 5000)))
    whitener, _ = whiten(Z.data)  # input covariance exactly I now
    Q = whitener.matrix
    assert np.allclose(Q @ Q.T, np.eye(2), atol=1e-8)


def test_whiten_detects_rank_deficiency():
    A = generate_sources([SourceSpec("gaussian", seed=2), SourceSpec("gaussian", seed=3)], 4000)
    H = np.array([[1.0, 0.2], [0.3, 1.0], [0.7, -0.4]])  # 3 sensors, 2 sources
    U = mix(MixingModel("static", matrix=H), A)
    whitener, Z = whiten(U)
    assert whitener.detected_rank == 2
    assert Z.data.shape[0] == 2
    with pytest.raises(DegenerateInput):
        whiten(np.zeros((2, 100)))


def test_whitener_mean_removal():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((2, 3000)) + np.array([[5.0], [-3.0]])
    whitener, Z = whiten(X)
    assert np.max(np.abs(Z.data.mean(axis=1))) < 1e-10


def reference_whiten(X):
    # whiten as it read with the covariance taken through sample_covariance
    mean = X.mean(axis=1)
    eigvals, eigvecs = np.linalg.eigh(sample_covariance(X, 0).matrix)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = fix_signs(eigvecs[:, order])
    rank = int(np.sum(eigvals >= _RANK_TOLERANCE * eigvals[0]))
    T_w = eigvecs[:, :rank].T / np.sqrt(eigvals[:rank])[:, None]
    return T_w, mean, eigvals, T_w @ (X - mean[:, None])


@pytest.mark.parametrize("T", [2, 63, 64, 65, 8191, 8193, 20_000])
@pytest.mark.parametrize("seed", [0, 13])
def test_whiten_matches_the_sample_covariance_reference(T, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((4, 4)) @ rng.standard_normal((4, T)) + rng.standard_normal((4, 1))
    w, Z = whiten(X)
    for got, want in zip((w.matrix, w.mean, w.eigenvalues, Z.data), reference_whiten(X)):
        assert got.tobytes() == want.tobytes()


def test_whitener_apply_rejects_a_channel_mismatch():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((3, 500))
    whitener, _ = whiten(X)
    with pytest.raises(DimensionMismatch):
        whitener.apply(rng.standard_normal((4, 500)))


def test_separator_apply_rejects_a_channel_mismatch():
    rng = np.random.default_rng(9)
    whitener, _ = whiten(rng.standard_normal((3, 500)))
    for sep in (Separator(matrix=whitener.matrix, whitener=whitener), Separator(matrix=np.eye(3))):
        with pytest.raises(DimensionMismatch):
            sep.apply(rng.standard_normal((4, 500)))


def test_whitened_and_separated_signals_are_adopted_read_only():
    X = np.random.default_rng(10).standard_normal((3, 400))
    whitener, Z = whiten(X)
    separators = (Separator(matrix=whitener.matrix, whitener=whitener), Separator(matrix=np.eye(3)))
    for signal in [Z, whitener.apply(X)] + [sep.apply(X) for sep in separators]:
        assert not signal.data.flags.writeable
        assert not np.shares_memory(signal.data, X)


@pytest.mark.parametrize("step", [whiten, amuse])
def test_a_bare_array_is_checked_once(monkeypatch, step):
    # the finiteness pass reads every sample, so a bare array pays for it once;
    # the sphered output whiten adopts is checked as well, as its own array
    U = ar_pair(3, 5_000).data.copy()
    checked = []

    def counted(arr, original=signals._checked_signal):
        checked.append(np.shares_memory(arr, U))
        return original(arr)
    monkeypatch.setattr(signals, "_checked_signal", counted)
    step(U)
    assert checked.count(True) == 1


def test_amuse_separates_ar_sources():
    rng = np.random.default_rng(5)
    H = rng.standard_normal((2, 2))
    U = mix(MixingModel("static", matrix=H), ar_pair(0))
    sep = amuse(U)
    gs = global_system(sep.matrix, H)
    assert separation_index(gs.matrix) < -20.0
    assert gs.residual < 0.1
    assert sorted(gs.permutation) == [0, 1]


def test_amuse_identity_mixing_nearly_diagonal():
    U = mix(MixingModel("static", matrix=np.eye(2)), ar_pair(1))
    sep = amuse(U)
    S = sep.matrix  # H = I so the global system is the separator itself
    for r, c in enumerate(np.argmax(np.abs(S), axis=1)):
        off = np.abs(S[r]) / np.abs(S[r, c])
        off[c] = 0.0
        assert np.max(off) < 1e-2


def test_amuse_white_sources_degenerate():
    A = generate_sources([SourceSpec("bpsk", seed=20), SourceSpec("bpsk", seed=21)], 20_000)
    U = mix(MixingModel("static", matrix=np.array([[1.0, 0.4], [-0.3, 1.0]])), A)
    with pytest.raises(DegenerateSpectra):
        amuse(U)


def test_amuse_rotation_orthogonal_in_sphered_domain():
    rng = np.random.default_rng(6)
    H = rng.standard_normal((2, 2))
    U = mix(MixingModel("static", matrix=H), ar_pair(2))
    sep = amuse(U)
    # separator = Q^T T_w with Q orthogonal
    Q = sep.matrix @ np.linalg.pinv(sep.whitener.matrix)
    assert np.linalg.norm(Q @ Q.T - np.eye(2)) < 1e-10


def test_amuse_scale_equivariance_of_assignment():
    rng = np.random.default_rng(7)
    H = rng.standard_normal((2, 2))
    A = ar_pair(3)
    U = mix(MixingModel("static", matrix=H), A)
    S1 = amuse(U).matrix @ H
    S2 = amuse(U.data * 13.7).matrix @ H
    assert np.array_equal(np.argmax(np.abs(S1), axis=1), np.argmax(np.abs(S2), axis=1))


def test_fix_signs_largest_entry_positive():
    M = np.array([[1.0, -3.0], [-2.0, 1.0]])
    F = fix_signs(M)
    for col in F.T:
        assert col[int(np.argmax(np.abs(col)))] > 0
    # a vector is treated as one column, and the input is left as it was
    assert np.array_equal(fix_signs(M[:, 0]), F[:, 0])
    assert np.array_equal(fix_signs(M[:, 1]), F[:, 1])
    assert np.array_equal(M, [[1.0, -3.0], [-2.0, 1.0]])
