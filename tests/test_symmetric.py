"""Symmetric FastICA: every unit from one step of all rows, then the polar factor."""

import weakref

import numpy as np
import pytest

from bsskit import (
    CubicScore,
    InvalidSpec,
    MixingModel,
    NotConverged,
    RankDeficient,
    ScoreFunction,
    SourceSpec,
    TanhScore,
    ZeroUpdate,
    deflate_extract,
    fit_whitener,
    fix_signs,
    generate_sources,
    make_score,
    mix,
    separation_index,
    symmetric_extract,
    whiten,
)
from bsskit import fixedpoint
from bsskit.fixedpoint import _MOMENT_MAX_N, _NORM_FLOOR, _STEP_BLOCK, _sphered_float32
from bsskit.second_order import _polar


class FlatScore(ScoreFunction):
    def f(self, y):
        return np.zeros_like(y)

    def fprime(self, y):
        return np.zeros_like(y)


class StreamedCubic(CubicScore):
    # y^3 through the streamed step: only an exact CubicScore takes the moment path
    pass


def scene(kind, N, T, seed, mixing=None, offset=0.0):
    """(H, U): N sources of one kind through H (random orthogonal unless given), plus an offset."""
    A = generate_sources([SourceSpec(kind, seed=1000 * seed + i) for i in range(N)], T)
    if mixing is None:
        mixing, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((N, N)))
    return mixing, mix(MixingModel("static", matrix=mixing), A).data + offset


def condition_mixing(N, cond, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((N, N)))
    v, _ = np.linalg.qr(rng.standard_normal((N, N)))
    return q @ np.diag(np.geomspace(1.0, 1.0 / cond, N)) @ v.T


def reference_symmetric_extract(Z, make, variant="newton", seed=0, max_iterations=200, tolerance=1e-10):
    # symmetric FastICA in float64 only, on sphered data Z, each expectation
    # over all samples at once: (G, iterations), G in sphered coordinates
    N, T = Z.shape
    scores = [make() for _ in range(N)]
    left, _, right = np.linalg.svd(np.random.default_rng(seed).standard_normal((N, N)))
    G = left @ right
    for iteration in range(1, max_iterations + 1):
        Y = G @ Z
        for s, y in zip(scores, Y):
            s.update(y)
        step = np.array([s.f(y) for s, y in zip(scores, Y)]) @ Z.T / T
        if variant == "newton":
            step -= np.array([np.mean(s.fprime(y)) for s, y in zip(scores, Y)])[:, None] * G
        left, _, right = np.linalg.svd(step)
        G_plus = left @ right
        if np.all(1.0 - np.abs(np.sum(G_plus * G, axis=1)) < tolerance):
            return fix_signs(G_plus.T).T, iteration
        G = G_plus
    raise NotConverged(f"the reference did not settle in {max_iterations} iterations")


def counted_extract(monkeypatch, U, make, **kwargs):
    # symmetric_extract on the streamed path, with the precision of every step:
    # nothing in a float32 step upcasts (the scores' evaluations included), and
    # the float32 copy of the data is gone before the first float64 step
    steps, copies = [], []
    original = fixedpoint._streamed_step

    def counted(G, X, W, m, scores, variant, mu=None):
        assert G.dtype == W.dtype == m.dtype == X.dtype
        if X.dtype == np.float32:
            copies.append(weakref.ref(X))
        else:
            assert all(copy() is None for copy in copies)
        steps.append(X.dtype)
        g_plus, beta = original(G, X, W, m, scores, variant, mu)
        assert g_plus.dtype == beta.dtype == X.dtype
        return g_plus, beta

    # every evaluation of the score sees the step's precision and keeps it
    cls = type(make())
    for name in ("f", "fprime", "f_and_fprime"):
        def evaluate(self, y, method=getattr(cls, name)):
            assert y.dtype == steps[-1]
            out = method(self, y)
            assert all(part.dtype == y.dtype for part in (out if isinstance(out, tuple) else (out,)))
            return out
        monkeypatch.setattr(cls, name, evaluate)
    monkeypatch.setattr(fixedpoint, "_streamed_step", counted)
    sep = symmetric_extract(U, make, **kwargs)
    # float32 steps first, then float64 ones, the last step always float64
    f32 = steps.count(np.float32)
    assert steps == [np.float32] * f32 + [np.float64] * (len(steps) - f32)
    assert steps[-1] == np.float64
    assert sep.iterations == len(steps)
    return sep, steps


# the fixed_point variant separates with tanh on sub-Gaussian sources and
# with y^3 on super-Gaussian ones, the newton variant on either
@pytest.mark.parametrize("variant, kind, make", [
    ("newton", "laplace", lambda: make_score("tanh")),
    ("newton", "uniform", StreamedCubic),
    ("newton", "uniform", lambda: make_score("sign_switching")),
    ("fixed_point", "uniform", lambda: make_score("tanh")),
    ("fixed_point", "laplace", StreamedCubic),
    ("fixed_point", "laplace", lambda: make_score("sign_switching")),
], ids=["newton_tanh", "newton_cubic", "newton_sign_switching",
        "fixed_point_tanh", "fixed_point_cubic", "fixed_point_sign_switching"])
def test_float32_steps_come_first_and_never_upcast(monkeypatch, variant, kind, make):
    H, U = scene(kind, 4, 20_000, seed=3)
    sep, steps = counted_extract(monkeypatch, U, make, variant=variant, whitener=fit_whitener(U))
    assert steps.count(np.float32) >= 1
    assert separation_index(sep.matrix @ H) < -25.0


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_the_cap_counts_both_phases_and_ends_not_converged(monkeypatch, cap):
    _, U = scene("laplace", 4, 5_000, seed=4)
    steps = []
    original = fixedpoint._streamed_step
    monkeypatch.setattr(fixedpoint, "_streamed_step",
                        lambda G, *args: steps.append(G.copy()) or original(G, *args))
    with pytest.raises(NotConverged) as info:
        symmetric_extract(U, TanhScore(), max_iterations=cap, whitener=fit_whitener(U))
    assert [G.dtype for G in steps] == [np.float32] * (cap - 1) + [np.float64]
    assert 0 <= info.value.index < 4
    if cap == 1:  # no float32 step ran: the float64 one starts from the exact seeded polar factor
        assert np.array_equal(steps[0], _polar(np.random.default_rng(0).standard_normal((4, 4))))


@pytest.mark.parametrize("tolerance", [0.1, 0.01, 1e-4])
def test_a_loose_tolerance_ends_the_float32_steps_too(tolerance):
    # the float32 steps stop at the looser of their own bound and the
    # tolerance; the last step is float64, so the run takes at most one more
    _, U = scene("laplace", 4, 20_000, seed=2)
    w, Z = whiten(U)
    _, iterations = reference_symmetric_extract(Z.data, lambda: make_score("tanh"), seed=2, tolerance=tolerance)
    sep = symmetric_extract(U, lambda: make_score("tanh"), seed=2, tolerance=tolerance, whitener=w)
    assert sep.iterations <= iterations + 1


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind, make", [
    ("laplace", lambda: make_score("tanh")),
    ("uniform", StreamedCubic),
], ids=["tanh", "cubic"])
def test_staged_rows_match_the_float64_reference(kind, make, seed):
    H, U = scene(kind, 4, 20_000, seed)
    w, Z = whiten(U)
    G_ref, _ = reference_symmetric_extract(Z.data, make, seed=seed)
    sep = symmetric_extract(U, make, seed=seed, whitener=w)
    # rows in sphered coordinates: the global systems of both, on orthogonal mixing
    assert np.max(np.abs(sep.matrix @ H - G_ref @ w.matrix @ H)) <= 1e-6
    assert abs(separation_index(sep.matrix @ H) - separation_index(G_ref @ w.matrix @ H)) <= 1e-4


@pytest.mark.parametrize("case", ["offset_1e6", "condition_1e4"])
def test_the_float32_copy_is_sphered(case):
    # a float32 cast of the raw data would keep 1e6 of offset, or a
    # condition of 1e4, in 24 bits: the copy is taken after sphering
    N = 4
    mixing = condition_mixing(N, 1e4, seed=8) if case == "condition_1e4" else None
    H, U = scene("laplace", N, 20_000, seed=8, mixing=mixing, offset=1e6 if case == "offset_1e6" else 0.0)
    w, Z = whiten(U)
    G_ref, _ = reference_symmetric_extract(Z.data, lambda: make_score("tanh"), seed=8)
    sep = symmetric_extract(U, lambda: make_score("tanh"), seed=8, whitener=w)
    S, S_ref = sep.matrix @ H, G_ref @ w.matrix @ H
    assert np.max(np.abs(S / np.linalg.norm(S, axis=1, keepdims=True)
                         - S_ref / np.linalg.norm(S_ref, axis=1, keepdims=True))) <= 1e-6
    assert abs(separation_index(S) - separation_index(S_ref)) <= 1e-4
    assert separation_index(S) < -30.0


@pytest.mark.parametrize("variant", ["fixed_point", "newton"])
def test_a_vanishing_step_matrix_is_a_zero_update(variant):
    _, U = scene("uniform", 3, 2_000, seed=5)
    with pytest.raises(ZeroUpdate):  # f = 0: every streamed step is the zero matrix
        symmetric_extract(U, FlatScore(), variant=variant, whitener=fit_whitener(U))
    with pytest.raises(ZeroUpdate):  # on the moment path: every moment of all-zero data vanishes
        symmetric_extract(np.zeros((3, 100)), CubicScore(), variant=variant)


def test_polar_factor_is_orthogonal_and_guards_a_lost_direction():
    G = np.random.default_rng(6).standard_normal((4, 4))
    Q = _polar(G)
    assert np.max(np.abs(Q @ Q.T - np.eye(4))) <= 1e-14
    assert np.max(np.abs(Q.T @ G - (Q.T @ G).T)) <= 1e-12  # G = Q P with P symmetric
    G[3] = G[2]  # rank 3
    _polar(G)  # no floor: the adaptive nonlinear_pca step never refuses
    with pytest.raises(ZeroUpdate):
        _polar(G, _NORM_FLOOR)
    assert _polar(G.astype(np.float32)).dtype == np.float32


def test_cubic_units_up_to_the_bound_contract_the_fourth_moments(monkeypatch):
    # the moment path reads the data once and never streams; above the bound every iteration streams
    for N, streams in ((4, False), (_MOMENT_MAX_N + 1, True)):
        _, U = scene("uniform", N, 3_000, seed=N)
        steps = []
        original = fixedpoint._streamed_step
        monkeypatch.setattr(fixedpoint, "_streamed_step", lambda *args: steps.append(1) or original(*args))
        sep = symmetric_extract(U, CubicScore, whitener=fit_whitener(U))
        assert len(steps) == (sep.iterations if streams else 0)
        monkeypatch.undo()


@pytest.mark.parametrize("score, N, gram", [
    (CubicScore, 4, True), (TanhScore, 4, False), (CubicScore, _MOMENT_MAX_N + 1, False),
], ids=["moments", "streamed", "cubic_streamed"])
def test_each_run_reads_its_second_moments_once(monkeypatch, score, N, gram):
    # as deflation does: beside the fourth moments, or by one covariance pass
    _, U = scene("uniform", N, 3_000, seed=N)
    calls = {"_pair_gram": 0, "_covariance": 0}
    for name in calls:
        def counted(*args, name=name, original=getattr(fixedpoint, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(fixedpoint, name, counted)
    symmetric_extract(U, score, whitener=fit_whitener(U))
    assert (calls["_pair_gram"], calls["_covariance"]) == ((1, 0) if gram else (0, 1))


def test_moment_path_matches_the_streamed_path():
    # one cubic newton run on the fourth moments and one streamed in float64 from the same start
    H, U = scene("uniform", 4, 20_000, seed=9)
    w, Z = whiten(U)
    G_ref, iterations = reference_symmetric_extract(Z.data, CubicScore, seed=9)
    sep = symmetric_extract(U, CubicScore, seed=9, whitener=w)
    assert sep.iterations == iterations
    assert np.max(np.abs(sep.matrix @ H - G_ref @ w.matrix @ H)) <= 1e-9


@pytest.mark.parametrize("score", [CubicScore, TanhScore], ids=["moments", "streamed"])
def test_data_of_lower_rank_are_refused_before_any_step(monkeypatch, score):
    # two sphered sources and a silent channel: N orthonormal rows cannot all
    # stay out of the null space, so the run stops before its first step and
    # before the streamed path's float32 copy is made
    _, U = scene("uniform", 2, 4_000, seed=1)
    Z = np.vstack([whiten(U)[1].data, np.zeros((1, 4_000))])
    monkeypatch.setattr(fixedpoint, "_symmetric_search", lambda *args: pytest.fail("a step ran"))
    monkeypatch.setattr(fixedpoint, "_sphered_float32", lambda *args: pytest.fail("the float32 copy was made"))
    with pytest.raises(RankDeficient, match="rank 2 below their 3 channels"):
        symmetric_extract(Z, score())


def test_bad_variants_and_stop_rules_are_refused_before_the_data_are_read(monkeypatch):
    def no_pass(*args, **kwargs):
        raise AssertionError("the data were read")

    for name in ("_pair_gram", "_covariance", "_streamed_step", "_sphered_float32"):
        monkeypatch.setattr(fixedpoint, name, no_pass)
    X = np.random.default_rng(7).standard_normal((3, 300))
    for kwargs in ({"variant": "gradient"}, {"tolerance": 1.0}, {"tolerance": 0.0}, {"max_iterations": 0}):
        for score in (CubicScore(), TanhScore()):
            with pytest.raises(InvalidSpec):
                symmetric_extract(X, score, **kwargs)


# The theory (Tichavsky, Koldovsky & Oja, IEEE TSP 54(4), 2006) puts the
# symmetric interference near half of deflation's first unit, and deflation's
# later units inherit the errors of the earlier ones: 20 fixed seeds at
# N = 4, T = 20 000 under random orthogonal mixing gain 1 dB or more.
@pytest.mark.parametrize("kind, score", [("laplace", "tanh"), ("uniform", "cubic"), ("uniform", "tanh")])
def test_symmetric_beats_deflation_by_a_decibel(kind, score):
    symmetric, deflation = [], []
    for seed in range(20):
        H, U = scene(kind, 4, 20_000, seed)
        w = fit_whitener(U)
        make = lambda: make_score(score)  # noqa: E731
        symmetric.append(separation_index(symmetric_extract(U, make, seed=seed, whitener=w).matrix @ H))
        deflation.append(separation_index(deflate_extract(U, make, 4, seed=seed, whitener=w).matrix @ H))
    assert np.mean(symmetric) <= np.mean(deflation) - 1.0, (np.mean(symmetric), np.mean(deflation))



@pytest.mark.parametrize("T", [1, _STEP_BLOCK, 2 * _STEP_BLOCK + 5])
def test_sphered_float32_is_bit_identical_to_the_per_block_code(T):
    rng = np.random.default_rng(T)
    X = rng.laplace(size=(4, T)) + 2.0
    W, m = rng.standard_normal((3, 4)), X.mean(axis=1)
    want = np.empty((3, T), dtype=np.float32)
    for start in range(0, T, _STEP_BLOCK):  # a fresh centred array per block
        want[:, start:start + _STEP_BLOCK] = W @ (X[:, start:start + _STEP_BLOCK] - m[:, None])
    Z, eye, zero = _sphered_float32((X, W, m))
    assert Z.dtype == np.float32 and np.array_equal(Z, want)
    assert np.array_equal(eye, np.eye(3)) and np.array_equal(zero, np.zeros(3))
