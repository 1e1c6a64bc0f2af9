"""Universal criterion, per-sample updates, stability checks."""

import os

import numpy as np
import pytest

from bsskit import (
    AdaptConfig,
    CubicScore,
    DimensionMismatch,
    Diverged,
    InvalidSpec,
    MixingModel,
    ScoreFunction,
    SingularG,
    SourceSpec,
    TanhScore,
    adaptive_update,
    batch_update_direction,
    bussgang_residual,
    generate_sources,
    global_system,
    make_score,
    mix,
    run_separation,
    separation_index,
    stability_check,
    universal_criterion,
    whiten,
)


class LinearScore(ScoreFunction):
    # gaussian model: f(y) = y
    kind = "linear"
    has_log_phi = True

    def f(self, y):
        return np.asarray(y, dtype=float)

    def fprime(self, y):
        return np.ones_like(np.asarray(y, dtype=float))

    def log_phi(self, y):
        y = np.asarray(y, dtype=float)
        return -0.5 * y * y


class FlatScore(ScoreFunction):
    # constant density model: only the log-det term survives
    kind = "flat"
    has_log_phi = True

    def f(self, y):
        return np.zeros_like(np.asarray(y, dtype=float))

    def fprime(self, y):
        return np.zeros_like(np.asarray(y, dtype=float))

    def log_phi(self, y):
        return np.zeros_like(np.asarray(y, dtype=float))


def exact_bpsk_pair():
    """All sign patterns of 2 binary sources: sample moments are exact."""
    return np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])


def test_criterion_bpsk_cubic_value():
    X = exact_bpsk_pair()[:1]
    J = universal_criterion(np.eye(1), X, [CubicScore()])
    assert J == pytest.approx(-0.25, abs=1e-12)  # ln 1 + mean(-y^4/4), y^4 = 1


def test_criterion_scaling_adds_log_det():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 64))
    scores = [FlatScore() for _ in range(3)]
    J1 = universal_criterion(np.eye(3), X, scores)
    J2 = universal_criterion(2.5 * np.eye(3), X, scores)
    assert J2 - J1 == pytest.approx(3 * np.log(2.5), abs=1e-12)


def test_criterion_singular_guard():
    X = np.zeros((2, 8))
    with pytest.raises(SingularG):
        universal_criterion(np.zeros((2, 2)), X, [CubicScore(), CubicScore()])


def test_relative_update_zero_at_exact_separation():
    # bpsk with cubic score: f(y) = y^3 = y, so E[f(y) y^T] = I exactly
    X = exact_bpsk_pair()
    D = batch_update_direction(np.eye(2), X, [CubicScore(), CubicScore()], mode="relative")
    assert np.max(np.abs(D)) < 1e-12


def test_relative_update_linear_score_formula():
    rng = np.random.default_rng(1)
    G = rng.standard_normal((2, 2))
    u = rng.standard_normal(2)
    cfg = AdaptConfig(step_size=0.01, mode="relative")
    scores = [LinearScore(), LinearScore()]
    G2 = adaptive_update(G, u, scores, cfg)
    y = G @ u
    expected = G + 0.01 * (np.eye(2) - np.outer(y, y)) @ G
    assert np.allclose(G2, expected, atol=1e-12)


def test_zero_step_leaves_g():
    rng = np.random.default_rng(2)
    G = rng.standard_normal((2, 2))
    cfg = AdaptConfig(step_size=0.0, mode="plain")
    G2 = adaptive_update(G, rng.standard_normal(2), [CubicScore(), CubicScore()], cfg)
    assert np.array_equal(G2, G)


def test_equivariance_per_step():
    # updating G then forming S = G H equals updating S directly
    rng = np.random.default_rng(3)
    H = rng.standard_normal((3, 3))
    G = np.linalg.inv(H) + 0.1 * rng.standard_normal((3, 3))
    a = rng.standard_normal(3)
    u = H @ a
    scores = [CubicScore() for _ in range(3)]
    cfg = AdaptConfig(step_size=0.004, mode="relative")
    G2 = adaptive_update(G, u, scores, cfg)
    y = G @ u
    f = np.array([s.f(np.array([yi]))[0] for s, yi in zip(scores, y)])
    S2 = (G @ H) + 0.004 * (np.eye(3) - np.outer(f, y)) @ (G @ H)
    assert np.max(np.abs(G2 @ H - S2)) < 1e-12


def test_nonlinear_pca_zero_residual_and_orthonormality():
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    u = rng.standard_normal(3)
    # perfect reconstruction with the linear score: G^T y = u when G orthogonal
    cfg = AdaptConfig(step_size=0.05, mode="nonlinear_pca")
    G2 = adaptive_update(Q, u, [LinearScore()] * 3, cfg)
    assert np.allclose(G2, Q, atol=1e-12)
    G3 = adaptive_update(Q + 0.01 * rng.standard_normal((3, 3)), u, [CubicScore()] * 3, cfg)
    assert np.linalg.norm(G3 @ G3.T - np.eye(3)) < 1e-10


def test_nonlinear_pca_direction_matches_negated_relative():
    # with f(y) = y and sphered data, E[f f^T] = I holds exactly and the
    # averaged nonlinear-PCA direction reduces to minus the relative one
    rng = np.random.default_rng(5)
    _, Z = whiten(rng.standard_normal((2, 4000)))
    X = Z.data
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    scores = [LinearScore(), LinearScore()]
    Y = Q @ X
    F = Y  # linear score
    d_pca = (F @ (X - Q.T @ F).T) / X.shape[1]
    # identity: d_pca = (E[f y^T] - E[f f^T]) Q = -(I - E[f y^T]) Q
    assert np.allclose(d_pca, -(np.eye(2) - F @ Y.T / X.shape[1]) @ Q, atol=1e-10)


def test_run_separation_three_bpsk():
    # Sphering first keeps the initial global system orthogonal, which is
    # what makes a fixed step size safe for an arbitrary mixing draw.
    A = generate_sources([SourceSpec("bpsk", seed=s) for s in (30, 31, 32)], 20_000)
    rng = np.random.default_rng(6)
    H = rng.standard_normal((3, 3))
    U = mix(MixingModel("static", matrix=H), A)
    whitener, Z = whiten(U)
    scores = [make_score("cubic") for _ in range(3)]
    sep, trajectory = run_separation(Z, scores, AdaptConfig(step_size=0.005, max_iterations=2))
    gs = global_system(sep.matrix @ whitener.matrix, H)
    assert separation_index(gs.matrix) < -15.0
    assert len(trajectory) >= 1


def test_a_score_that_defines_log_phi_gets_a_criterion_trajectory():
    class Quartic(ScoreFunction):  # defines log_phi and sets no flag
        def f(self, y):
            return np.asarray(y, dtype=float) ** 3

        def fprime(self, y):
            return 3.0 * np.asarray(y, dtype=float) ** 2

        def log_phi(self, y):
            return -0.25 * np.asarray(y, dtype=float) ** 4

    assert [make_score(k).has_log_phi for k in ("cubic", "tanh", "sign_switching")] == [True, True, False]
    X = exact_bpsk_pair()
    scores = [Quartic(), Quartic()]
    sep, trajectory = run_separation(X, scores, AdaptConfig(step_size=0.01, max_iterations=2,
                                                              convergence_tolerance=1e-12))
    assert len(trajectory) == 2
    assert trajectory[-1] == universal_criterion(sep.matrix, X, scores)


def test_readme_library_quick_start_separates(capsys):
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) < -20.0


def test_run_separation_two_laplace_tanh():
    A = generate_sources([SourceSpec("laplace", seed=40), SourceSpec("laplace", seed=41)], 20_000)
    rng = np.random.default_rng(7)
    H = rng.standard_normal((2, 2))
    U = mix(MixingModel("static", matrix=H), A)
    sep, _ = run_separation(U, [TanhScore(), TanhScore()],
                            AdaptConfig(step_size=0.01, max_iterations=3))
    assert separation_index(sep.matrix @ H) < -15.0


def test_run_separation_identity_mixing_stays_diagonal():
    A = generate_sources([SourceSpec("bpsk", seed=50), SourceSpec("bpsk", seed=51)], 10_000)
    U = mix(MixingModel("static", matrix=np.eye(2)), A)
    sep, _ = run_separation(U, [CubicScore(), CubicScore()], AdaptConfig(step_size=0.005))
    S = sep.matrix
    assert separation_index(S) < -25.0


def test_plain_mode_matches_finite_difference_gradient():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((2, 256))
    G = np.eye(2) + 0.2 * rng.standard_normal((2, 2))
    scores = [CubicScore(), CubicScore()]
    D = batch_update_direction(G, X, scores, mode="plain")
    eps = 1e-6
    num = np.zeros_like(G)
    for i in range(2):
        for j in range(2):
            Gp, Gm = G.copy(), G.copy()
            Gp[i, j] += eps
            Gm[i, j] -= eps
            num[i, j] = (universal_criterion(Gp, X, scores)
                         - universal_criterion(Gm, X, scores)) / (2 * eps)
    assert np.max(np.abs(D - num)) / max(np.max(np.abs(num)), 1e-12) < 1e-5


def test_run_separation_needs_one_score_per_channel():
    with pytest.raises(DimensionMismatch):
        run_separation(exact_bpsk_pair(), [CubicScore()], AdaptConfig())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_divergence_guard():
    A = generate_sources([SourceSpec("laplace", seed=60), SourceSpec("laplace", seed=61)], 4000)
    with pytest.raises(Diverged):
        run_separation(A, [CubicScore(), CubicScore()],
                       AdaptConfig(step_size=0.9, mode="plain", max_iterations=2))


def test_stability_bpsk_cubic():
    A = generate_sources([SourceSpec("bpsk", seed=70), SourceSpec("bpsk", seed=71)], 50_000)
    report = stability_check(A.data, [CubicScore(), CubicScore()])
    assert report.verdict
    assert np.allclose(report.kappa, 2.0, atol=0.1)  # kappa = -c4 for the cubic score


def test_stability_two_gaussians_unstable():
    A = generate_sources([SourceSpec("gaussian", seed=72), SourceSpec("gaussian", seed=73)], 50_000)
    for score_kind in ("cubic", "tanh"):
        report = stability_check(A.data, [make_score(score_kind), make_score(score_kind)])
        assert not report.verdict
        assert any("kappa" in v for v in report.violations)


def test_stability_two_laplace_cubic_unstable():
    A = generate_sources([SourceSpec("laplace", seed=74), SourceSpec("laplace", seed=75)], 50_000)
    report = stability_check(A.data, [CubicScore(), CubicScore()])
    assert not report.verdict
    assert np.allclose(report.kappa, -3.0, atol=0.2)
    assert np.all(1.0 + report.kappa < 0.0)


def test_stability_check_calls_each_score_group_once():
    calls = []

    class CountedCubic(CubicScore):
        def f(self, y):
            calls.append("f")
            return super().f(y)

        def fprime(self, y):
            calls.append("fprime")
            return super().fprime(y)

        def f_and_fprime(self, y):
            calls.append(("f_and_fprime", np.shape(y)))
            return CubicScore.f(self, y), CubicScore.fprime(self, y)

    A = generate_sources([SourceSpec("bpsk", seed=76), SourceSpec("uniform", seed=77), SourceSpec("laplace", seed=78)],
                         2000)
    report = stability_check(A.data, [CountedCubic(), CountedCubic(), TanhScore()])
    assert calls == [("f_and_fprime", (2, 2000))]  # F and F' of both cubic channels from one call
    plain = stability_check(A.data, [CubicScore(), CubicScore(), TanhScore()])
    for name in ("sigma2", "k", "m", "kappa"):
        assert np.array_equal(getattr(report, name), getattr(plain, name)), name


def test_bussgang_residual_cases():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((2, 1000))
    assert bussgang_residual(X, [LinearScore(), LinearScore()]) == 0.0
    # strongly mixed bpsk pair under the cubic score
    A = generate_sources([SourceSpec("bpsk", seed=80), SourceSpec("bpsk", seed=81)], 20_000)
    c = np.sqrt(0.5)
    Y = np.array([[c, -c], [c, c]]) @ A.data
    assert bussgang_residual(Y, [CubicScore(), CubicScore()]) > 0.2


def test_bussgang_residual_vanishes_for_independent_normalized():
    # per-channel normalization E[f(y) y] = E[y^2] holds for bpsk + cubic
    A = generate_sources([SourceSpec("bpsk", seed=82), SourceSpec("bpsk", seed=83)], 100_000)
    assert bussgang_residual(A.data, [CubicScore(), CubicScore()]) < 0.05


def test_invertibility_preserved_over_long_run():
    A = generate_sources([SourceSpec("bpsk", seed=90), SourceSpec("uniform", seed=91)], 100_000)
    X = A.data
    scores = [CubicScore(), CubicScore()]
    cfg = AdaptConfig(step_size=0.01, mode="relative")
    G = np.eye(2)
    sign0 = np.sign(np.linalg.det(G))
    for t in range(X.shape[1]):
        G = adaptive_update(G, X[:, t], scores, cfg)
        det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
        assert np.sign(det) == sign0


def test_adapt_config_validation():
    with pytest.raises(InvalidSpec):
        AdaptConfig(step_size=-0.1)
    with pytest.raises(InvalidSpec):
        AdaptConfig(mode="sideways")
    with pytest.raises(InvalidSpec):
        AdaptConfig(max_iterations=0)
    for tolerance in (0.0, -1.0, np.nan):  # a run that could never stop early
        with pytest.raises(InvalidSpec):
            AdaptConfig(convergence_tolerance=tolerance)


# id: (a call the module refuses, the error it raises)
ADAPTIVE_FAILURES = {
    "unknown_init": (lambda: AdaptConfig(init="sideways"), InvalidSpec),
    "criterion_of_a_non_square_G": (
        lambda: universal_criterion(np.ones((2, 3)), np.ones((3, 4)), [CubicScore()] * 2), DimensionMismatch),
    "plain_update_at_a_singular_G": (
        lambda: adaptive_update(np.zeros((2, 2)), np.ones(2), [CubicScore()] * 2, AdaptConfig(mode="plain")),
        SingularG),
    "batch_direction_of_an_unknown_mode": (
        lambda: batch_update_direction(np.eye(2), exact_bpsk_pair(), [CubicScore()] * 2, "sideways"), InvalidSpec),
    # f = 0 makes each relative step G + mu G: G grows 41-fold a sample, to
    # about 4e6 after the four samples, far from overflowing
    "epoch_ending_above_the_divergence_norm": (
        lambda: run_separation(exact_bpsk_pair(), [FlatScore(), FlatScore()], AdaptConfig(step_size=40.0)),
        Diverged),
}


@pytest.mark.parametrize("call, error", ADAPTIVE_FAILURES.values(), ids=ADAPTIVE_FAILURES.keys())
def test_adaptive_failures_are_typed(call, error):
    with pytest.raises(error):
        call()
