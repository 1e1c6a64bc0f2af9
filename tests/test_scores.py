"""Score functions and the one evaluation path of the adaptive rules.

Each product form is checked against the power form it replaced, and the
block evaluation and the per-sample update are checked against per-channel
calls and the batch direction.
"""

import numpy as np
import pytest

from bsskit import (
    AdaptConfig,
    CubicScore,
    DegenerateChannel,
    InvalidSpec,
    ScoreFunction,
    SignSwitchingScore,
    TanhScore,
    adaptive_update,
    batch_update_direction,
    make_score,
    run_separation,
    whiten,
)
from bsskit.adaptive import _apply_scores
from bsskit.scores import _FORGET_BLOCK, _FORGETTING


class ScaledLinearScore(ScoreFunction):
    # a custom score with a per-instance parameter: f(y) = a y
    kind = "scaled_linear"

    def __init__(self, a):
        self.a = a

    def f(self, y):
        return self.a * np.asarray(y, dtype=float)

    def fprime(self, y):
        return np.full_like(np.asarray(y, dtype=float), self.a)


def sign_switching(sign):
    """A sign-switching score whose running kurtosis has the given sign."""
    s = SignSwitchingScore()
    s.m4 = 3.5 if sign > 0 else 2.5
    assert s.kurtosis_sign == sign
    return s


def within_ulps(a, b, ulps):
    return bool(np.all(np.abs(a - b) <= ulps * np.spacing(np.abs(b))))


def magnitudes():
    """Signed samples over six decades, where neither y^4 nor y^3 leaves the range."""
    rng = np.random.default_rng(20)
    return rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-3.0, 3.0, 4000)


# ------------------------------------------------------- product vs power


def test_cubic_products_match_the_power_form():
    y = magnitudes()
    s = CubicScore()
    assert within_ulps(s.f(y), y**3, 4)
    assert within_ulps(s.fprime(y), 3.0 * y**2, 4)
    assert within_ulps(s.log_phi(y), -0.25 * y**4, 4)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_sign_switching_products_match_the_power_form(sign):
    y = magnitudes()
    s = sign_switching(sign)
    assert within_ulps(s.f(y), sign * y**3, 4)
    assert within_ulps(s.fprime(y), sign * 3.0 * y**2, 4)


def test_sign_switching_moments_match_the_power_form():
    y = np.random.default_rng(21).laplace(size=500)
    s = SignSwitchingScore()
    s.update(y)
    lam = 0.99
    w = (1.0 - lam) * lam ** np.arange(y.size - 1, -1, -1, dtype=float)
    assert s.m2 == pytest.approx(lam**y.size * 1.0 + float(w @ y**2), rel=1e-15)
    assert s.m4 == pytest.approx(lam**y.size * 3.0 + float(w @ y**4), rel=1e-15)


@pytest.mark.parametrize("score", [CubicScore(), TanhScore(), sign_switching(1.0),
                                   sign_switching(-1.0), ScaledLinearScore(0.7)],
                         ids=["cubic", "tanh", "sign_plus", "sign_minus", "custom"])
def test_f_and_fprime_is_exactly_f_and_fprime(score):
    y = np.concatenate([magnitudes()[:2000] * 1e-2, [0.0, -0.0, 40.0, -40.0]])
    f, fprime = score.f_and_fprime(y)
    assert np.array_equal(f, score.f(y))
    assert np.array_equal(fprime, score.fprime(y))


def test_only_the_sign_switching_score_keeps_state():
    assert [make_score(kind).keeps_state for kind in ("cubic", "tanh", "sign_switching")] == [
        False, False, True]
    assert not ScaledLinearScore(0.7).keeps_state  # instance parameters are not state


# ------------------------------------------------------------ derivatives


@pytest.mark.parametrize("kind", ["cubic", "tanh", "sign_switching"])
def test_derivatives_match_central_differences(kind):
    s = make_score(kind)
    y = np.linspace(-3.0, 3.0, 61)
    h = 1e-5
    assert np.allclose(s.fprime(y), (s.f(y + h) - s.f(y - h)) / (2 * h), rtol=1e-8, atol=1e-8)
    if s.has_log_phi:
        dlog = (s.log_phi(y + h) - s.log_phi(y - h)) / (2 * h)
        assert np.allclose(s.f(y), -dlog, rtol=1e-8, atol=1e-8)


# ------------------------------------------------- sign-switching tracking


@pytest.mark.parametrize("T", [1, 2, _FORGET_BLOCK - 1, _FORGET_BLOCK, _FORGET_BLOCK + 1, 12_295, 400_000])
def test_blocked_batch_update_matches_the_closed_form(T):
    y = np.random.default_rng(T).laplace(size=T)
    s = SignSwitchingScore()
    s.m2, s.m4 = 1.3, 4.1
    s.update(y)
    lam, y2 = _FORGETTING, y * y
    w = (1.0 - lam) * lam ** np.arange(T - 1, -1, -1, dtype=float)
    assert s.m2 == pytest.approx(lam**T * 1.3 + float(w @ y2), rel=1e-12)
    assert s.m4 == pytest.approx(lam**T * 4.1 + float(w @ (y2 * y2)), rel=1e-12)


def test_single_sample_updates_equal_one_batch_update():
    y = np.random.default_rng(22).uniform(-2.0, 2.0, 3000)
    step, batch = SignSwitchingScore(), SignSwitchingScore()
    for v in y:
        step.update(v)
    batch.update(y)
    assert step.m2 == pytest.approx(batch.m2, rel=1e-12)
    assert step.m4 == pytest.approx(batch.m4, rel=1e-12)


def _one_sample_reference(m2, m4, y):
    # the one-sample recursion as it read on numpy arrays
    y2 = float(np.square(np.asarray(y, dtype=float).ravel())[0])
    lam = _FORGETTING
    return lam * m2 + (1.0 - lam) * y2, lam * m4 + (1.0 - lam) * (y2 * y2)


@pytest.mark.parametrize("wrap", [
    np.float64, np.float32, lambda v: np.array([v]), lambda v: np.array([[v]]), np.array, float, lambda v: [v],
], ids=["float64", "float32", "shape_1", "shape_1x1", "0d", "python_float", "list"])
def test_a_one_sample_update_is_the_recursion_bit_for_bit(wrap):
    y = np.random.default_rng(24).laplace(size=500)
    s = SignSwitchingScore()
    m2, m4 = s.m2, s.m4
    for v in y:
        s.update(wrap(v))
        m2, m4 = _one_sample_reference(m2, m4, wrap(v))
        assert (s.m2, s.m4) == (m2, m4)
    assert type(s.m2) is float and type(s.m4) is float


@pytest.mark.parametrize("draw, sign", [
    (lambda rng: rng.uniform(-1.0, 1.0, 5000), -1.0),
    (lambda rng: rng.laplace(size=5000), 1.0),
], ids=["uniform", "laplace"])
def test_sign_resolves_to_the_kurtosis_sign(draw, sign):
    y = draw(np.random.default_rng(23))
    s = SignSwitchingScore()
    for v in y[:200]:
        s.update(v)
    s.update(y[200:])
    assert s.kurtosis_sign == sign


# ------------------------------------------------------- block evaluation


def mixed_scores():
    return [CubicScore(), TanhScore(), sign_switching(-1.0), ScaledLinearScore(2.0),
            sign_switching(1.0), CubicScore(), ScaledLinearScore(-0.5)]


@pytest.mark.parametrize("method", ["f", "fprime"])
def test_block_and_vector_evaluation_equal_per_channel_calls(method):
    scores = mixed_scores()
    Y = np.random.default_rng(24).standard_normal((len(scores), 50))
    per_channel = np.vstack([getattr(s, method)(Y[i]) for i, s in enumerate(scores)])
    assert np.array_equal(_apply_scores(scores, Y, method), per_channel)
    assert np.array_equal(_apply_scores(scores, Y[:, 7], method), per_channel[:, 7])


def test_one_call_per_distinct_batch_key(monkeypatch):
    calls = []
    for cls in (CubicScore, TanhScore, SignSwitchingScore):
        original = cls.__dict__["f"]

        def counted(self, y, original=original):
            calls.append(np.shape(y))
            return original(self, y)
        monkeypatch.setattr(cls, "f", counted)
    Y = np.ones((4, 30))
    _apply_scores([make_score("cubic") for _ in range(4)], Y)
    assert calls == [(4, 30)]
    calls.clear()
    _apply_scores([sign_switching(1.0), sign_switching(-1.0), sign_switching(1.0), TanhScore()], Y)
    assert sorted(calls) == [(1, 30), (1, 30), (2, 30)]


# ------------------------------------------------- one rule per update mode


@pytest.mark.parametrize("mode", ["plain", "relative", "anti_hebbian"])
def test_per_sample_update_is_the_one_column_batch_direction(mode):
    rng = np.random.default_rng(25)
    G = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    u = rng.standard_normal(3)
    scores = [CubicScore(), TanhScore(), sign_switching(-1.0)]
    cfg = AdaptConfig(step_size=0.01, mode=mode)
    D = batch_update_direction(G, u[:, None], scores, mode)
    expected = G + 0.01 * D
    assert np.allclose(adaptive_update(G, u, scores, cfg), expected, rtol=0, atol=1e-12)


def test_per_sample_update_matches_the_matrix_product_forms():
    rng = np.random.default_rng(26)
    G = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    u = rng.standard_normal(3)
    scores = [CubicScore(), TanhScore(), sign_switching(-1.0)]
    y = G @ u
    f = np.array([s.f(y[i]) for i, s in enumerate(scores)])
    g = np.tanh(y)
    mu = 0.01
    forms = {
        "plain": G + mu * (np.linalg.inv(G).T - np.outer(f, u)),
        "relative": G + mu * (np.eye(3) - np.outer(f, y)) @ G,
        "anti_hebbian": G + mu * (np.eye(3) - np.outer(f, g)) @ G,
    }
    for mode, expected in forms.items():
        got = adaptive_update(G, u, scores, AdaptConfig(step_size=mu, mode=mode))
        assert np.allclose(got, expected, rtol=0, atol=1e-12), mode


def test_the_anti_hebbian_batch_direction_takes_tanh_as_its_second_family():
    rng = np.random.default_rng(31)
    G = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    U = rng.standard_normal((3, 50))
    scores = [CubicScore(), TanhScore(), sign_switching(-1.0)]
    Y = G @ U
    F = np.array([s.f(Y[i]) for i, s in enumerate(scores)])
    D = batch_update_direction(G, U, scores, "anti_hebbian")
    assert np.allclose(D, G - F @ np.tanh(Y).T @ G / 50, rtol=0, atol=1e-12)


def test_nonlinear_pca_update_projects_the_one_column_direction():
    rng = np.random.default_rng(27)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    u = rng.standard_normal(3)
    scores = [CubicScore() for _ in range(3)]
    y = Q @ u
    f = y**3
    left, _, right = np.linalg.svd(Q + 0.05 * np.outer(f, u - Q.T @ f))
    got = adaptive_update(Q, u, scores, AdaptConfig(step_size=0.05, mode="nonlinear_pca"))
    assert np.allclose(got, left @ right, rtol=0, atol=1e-12)
    D = batch_update_direction(Q, u[:, None], scores, "nonlinear_pca")
    assert np.allclose(D, np.outer(f, u - Q.T @ f), rtol=0, atol=1e-12)


def test_stateless_scores_are_grouped_once_per_run(monkeypatch):
    keys = []

    def counted(self):
        keys.append(type(self))
        return type(self)
    monkeypatch.setattr(ScoreFunction, "batch_key", counted)
    X = np.random.default_rng(29).uniform(-1.7, 1.7, (3, 2000))
    run_separation(X, [CubicScore() for _ in range(3)], AdaptConfig(step_size=0.003))
    # once to resolve the score call, once for the epoch's criterion; never per sample
    assert len(keys) == 2 * 3


def test_scores_whose_signs_part_mid_run_are_regrouped():
    # two sign-switching scores start with one kurtosis sign, so one call serves
    # both; once the second channel turns sub-gaussian the signs part, and each
    # channel then needs its own call: grouping resolved once would miss it
    rng = np.random.default_rng(30)
    laplace = rng.laplace(0.0, 2 ** -0.5, (2, 1500))
    X = np.vstack([laplace[0], np.concatenate([laplace[1, :500], rng.uniform(-3 ** 0.5, 3 ** 0.5, 1000)])])
    cfg = AdaptConfig(step_size=0.001, mode="relative")
    sep, _ = run_separation(X, [SignSwitchingScore(), SignSwitchingScore()], cfg)

    scores = [SignSwitchingScore(), SignSwitchingScore()]
    assert scores[0].batch_key() == scores[1].batch_key()
    parted = 0
    G = np.eye(2)
    for u in X.T:
        y = G @ u
        for i, s in enumerate(scores):
            s.update(y[i])
        parted += scores[0].batch_key() != scores[1].batch_key()
        G = adaptive_update(G, u, scores, cfg)
    assert parted > 100
    assert np.allclose(sep.matrix, G, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode, kind", [
    ("relative", "cubic"), ("plain", "tanh"), ("anti_hebbian", "cubic"),
    ("nonlinear_pca", "sign_switching"), ("relative", "tanh"),
])
def test_run_separation_epoch_equals_repeated_per_sample_updates(mode, kind):
    rng = np.random.default_rng(28)
    X = np.linalg.qr(rng.standard_normal((3, 3)))[0] @ rng.uniform(-1.7, 1.7, (3, 1500))
    cfg = AdaptConfig(step_size=0.003, mode=mode)
    sep, _ = run_separation(X, [make_score(kind) for _ in range(3)], cfg)

    # run_separation spheres first in nonlinear_pca mode and folds the whitener in
    whitener = None
    if mode == "nonlinear_pca":
        whitener, Z = whiten(X)
        X = Z.data
    scores = [make_score(kind) for _ in range(3)]
    G = np.eye(3)
    for u in X.T:
        y = G @ u
        for i, s in enumerate(scores):
            s.update(y[i])
        G = adaptive_update(G, u, scores, cfg)
    expected = G if whitener is None else G @ whitener.matrix
    assert np.allclose(sep.matrix, expected, rtol=0, atol=1e-12)


# id: (a call the module refuses, the error it raises)
SCORES_FAILURES = {
    "unknown_kind": (lambda: make_score("sideways"), InvalidSpec),
    # the sign can flip, so no one density stands behind the score
    "log_phi_of_the_sign_switching_score": (lambda: SignSwitchingScore().log_phi(np.ones(3)), InvalidSpec),
}


@pytest.mark.parametrize("call, error", SCORES_FAILURES.values(), ids=SCORES_FAILURES.keys())
def test_scores_failures_are_typed(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("feed", [
    lambda s: s.update(np.zeros(80_000)),
    lambda s: [s.update(0.0) for _ in range(75_000)],
], ids=["one_batch", "sample_by_sample"])
def test_a_channel_silent_past_the_forgetting_has_no_kurtosis_sign(feed):
    # m2 shrinks by _FORGETTING a sample: after 37 071 zeros its square underflows to 0
    s = SignSwitchingScore()
    feed(s)
    assert s.m2 * s.m2 == 0.0
    for call in (lambda: s.kurtosis_sign, s.batch_key, lambda: s.f(np.ones(3))):
        with pytest.raises(DegenerateChannel):
            call()
