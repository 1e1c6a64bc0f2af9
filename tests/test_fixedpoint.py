"""One-unit extraction: step variants, deflation, CMA, Donoho contrast."""

import tracemalloc
import warnings

import numpy as np
import pytest

from bsskit import (
    BssError,
    CubicScore,
    DimensionMismatch,
    Diverged,
    InvalidSpec,
    MixingModel,
    NotConverged,
    OneUnitState,
    RankDeficient,
    ScoreFunction,
    SourceSpec,
    ZeroUpdate,
    cma,
    cma_step,
    deflate_extract,
    donoho_contrast,
    estimate_cum4,
    fastica_step,
    fix_signs,
    generate_sources,
    hopm,
    make_score,
    mix,
    separation_index,
    whiten,
)
from bsskit import algebraic, fixedpoint
from bsskit.fixedpoint import _CMA_BLOCK, _MOMENT_MAX_N, _NORM_FLOOR, _STEP_BLOCK
from bsskit.moments import _PAIR_BLOCK, _as_data

BPSK_PAIR = np.array([[1.0, 1.0, -1.0, -1.0],
                      [1.0, -1.0, 1.0, -1.0]])


class FlatScore(ScoreFunction):
    kind = "flat"

    def f(self, y):
        return np.zeros_like(y)

    def fprime(self, y):
        return np.zeros_like(y)


class BumpScore(ScoreFunction):
    # a custom score defining only f and fprime: f(y) = y exp(-y^2 / 2)
    kind = "bump"

    def f(self, y):
        return y * np.exp(-0.5 * y * y)

    def fprime(self, y):
        return (1.0 - y * y) * np.exp(-0.5 * y * y)


def reference_fastica_step(state, U, score, variant="newton", mu=None):
    """The unblocked step: full-length y, f and f', then means."""
    X = _as_data(U)
    g = np.asarray(state.g, dtype=float)
    y = g @ X
    score.update(y)
    f = score.f(y)
    euf = X @ f / X.shape[1]
    beta = float(np.mean(y * f))
    if variant == "newton":
        g_plus = euf - float(np.mean(score.fprime(y))) * g
    elif variant == "fixed_point":
        g_plus = euf
    else:
        g_plus = g + mu * (euf - beta * g)
    norm = np.linalg.norm(g_plus)
    if norm < _NORM_FLOOR:
        raise ZeroUpdate(f"update norm {norm:.3e} below {_NORM_FLOOR:.0e}")
    g_plus = fix_signs(g_plus / norm)
    return OneUnitState(g=g_plus, beta=beta, iteration=state.iteration + 1)


def reference_deflate_extract(U, score, count, variant="newton", max_iterations=200,
                              tolerance=1e-10, seed=0, step=fastica_step):
    """The streamed deflation loop: every unit steps through fastica_step."""
    X = _as_data(U)
    N = X.shape[0]
    if not (1 <= count <= N):
        raise InvalidSpec(f"count must lie in 1..{N}, got {count}")
    rng = np.random.default_rng(seed)
    rows = []
    for r in range(count):
        unit_score = score() if callable(score) else score
        R = np.array(rows).reshape(r, N)
        g = rng.standard_normal(N)
        g = g - R.T @ (R @ g)
        g = g / np.linalg.norm(g)
        state = OneUnitState(g=g)
        for _ in range(max_iterations):
            prev = state.g
            state = step(state, X, unit_score, variant=variant)
            g = state.g
            if rows:
                g = g - R.T @ (R @ g)
                norm = np.linalg.norm(g)
                if norm < _NORM_FLOOR:
                    raise ZeroUpdate(f"unit {r} vanished after deflation")
                g = fix_signs(g / norm)
                state = OneUnitState(g=g, beta=state.beta, iteration=state.iteration)
            if abs(float(g @ prev)) > 1.0 - tolerance:
                break
        else:
            raise NotConverged(f"unit {r} did not settle in {max_iterations} iterations", index=r)
        rows.append(state.g)
    return np.vstack(rows)


def reference_cma(U, step_size=0.01, epochs=1):
    """The per-sample loop: cma_step on every sample, every epoch."""
    X = _as_data(U)
    g = np.zeros(X.shape[0])
    g[0] = 1.0
    trajectory = []
    for epoch in range(epochs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                for t in range(X.shape[1]):
                    g = cma_step(g, X[:, t], step_size)
        except FloatingPointError as exc:
            raise Diverged(f"cma diverged in epoch {epoch}: {exc}") from exc
        if not np.all(np.isfinite(g)):
            raise Diverged(f"cma output is not finite after epoch {epoch}")
        trajectory.append(g)
    return g, tuple(trajectory)


def subgaussian_sign_switching():
    s = make_score("sign_switching")
    s.update(np.random.default_rng(31).uniform(-1.7, 1.7, 400))
    assert s.kurtosis_sign == -1.0
    return s


def three_point_atoms(spread):
    # {-a, 0 x (spread-2), +a} with uniform weights: unit variance,
    # kurtosis spread/2 - 3, and every sample moment exact.
    a = np.sqrt(spread / 2.0)
    col = np.zeros(spread)
    col[0], col[-1] = -a, a
    return col


def product_design(spreads):
    grids = np.meshgrid(*[three_point_atoms(s) for s in spreads], indexing="ij")
    return np.vstack([g.ravel() for g in grids])


def whitened_bpsk_mixture(n, T, mix_seed, source_seed0):
    A = generate_sources([SourceSpec("bpsk", seed=source_seed0 + k) for k in range(n)], T)
    H = np.random.default_rng(mix_seed).standard_normal((n, n))
    U = mix(MixingModel("static", matrix=H), A)
    whitener, Z = whiten(U)
    return Z, whitener, H


def test_single_channel_is_fixed_under_every_variant():
    X = np.array([[1.0, -1.0, 1.0, -1.0]])
    for variant, mu in (("newton", None), ("fixed_point", None), ("gradient", 0.3)):
        state = fastica_step(OneUnitState(g=np.array([1.0])), X,
                             CubicScore(), variant=variant, mu=mu)
        assert state.g[0] == 1.0
        assert state.iteration == 1
        assert np.isfinite(state.beta)


def test_fixed_point_cubic_is_tensor_power_step_plus_gaussian_shift():
    # On data whose sample covariance is exactly the identity,
    # E[u y^3] = C4 . g . g . g + 3 g holds at the sample level too.
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    X = Q @ BPSK_PAIR
    C = estimate_cum4(X).values
    for trial in range(5):
        g = rng.standard_normal(2)
        g /= np.linalg.norm(g)
        stepped = fastica_step(OneUnitState(g=g), X, CubicScore(), variant="fixed_point")
        oracle = np.einsum("ijkl,j,k,l->i", C, g, g, g) + 3.0 * g
        oracle /= np.linalg.norm(oracle)
        if oracle[int(np.argmax(np.abs(oracle)))] < 0:
            oracle = -oracle
        assert np.allclose(stepped.g, oracle, atol=1e-8)


def test_gradient_with_matched_step_reproduces_newton():
    rng = np.random.default_rng(12)
    X = 2.0 * rng.standard_normal((4, 600))
    score = CubicScore()
    for trial in range(5):
        g = rng.standard_normal(4)
        g /= np.linalg.norm(g)
        y = g @ X
        beta = float(np.mean(y * score.f(y)))
        denom = beta - float(np.mean(score.fprime(y)))
        assert abs(denom) > 1.0  # matched step is well defined here
        newton = fastica_step(OneUnitState(g=g), X, score, variant="newton")
        gradient = fastica_step(OneUnitState(g=g), X, score,
                                variant="gradient", mu=1.0 / denom)
        assert np.allclose(newton.g, gradient.g, atol=1e-10)


def test_newton_reaches_a_source_direction():
    Z, whitener, H = whitened_bpsk_mixture(2, 20_000, mix_seed=21, source_seed0=60)
    directions = whitener.matrix @ H
    directions /= np.linalg.norm(directions, axis=0)
    state = OneUnitState(g=np.array([1.0, 0.0]))
    score = CubicScore()
    for _ in range(50):
        state = fastica_step(state, Z, score)
    assert np.max(np.abs(state.g @ directions)) > 0.999


def test_deflate_single_unit_matches_repeated_steps():
    # tanh streams the data on every step; the cubic units run on the
    # fourth-moment Gram and are checked against the streamed loop below
    Z, _, _ = whitened_bpsk_mixture(2, 5_000, mix_seed=22, source_seed0=62)
    score = make_score("tanh")
    sep = deflate_extract(Z, score, count=1, max_iterations=200, tolerance=1e-10, seed=3)

    g = np.random.default_rng(3).standard_normal(2)
    g /= np.linalg.norm(g)
    state = OneUnitState(g=g)
    for _ in range(200):
        prev = state.g
        state = fastica_step(state, Z, score)
        if abs(float(state.g @ prev)) > 1.0 - 1e-10:
            break
    assert np.array_equal(sep.matrix[0], state.g)


def test_deflation_separates_three_subgaussian_sources():
    specs = [SourceSpec("bpsk", seed=70), SourceSpec("bpsk", seed=71),
             SourceSpec("uniform", seed=72)]
    A = generate_sources(specs, 20_000)
    H = np.random.default_rng(23).standard_normal((3, 3))
    U = mix(MixingModel("static", matrix=H), A)
    whitener, Z = whiten(U)
    sep = deflate_extract(Z, lambda: make_score("cubic"), count=3)
    R = sep.matrix
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-10)
    assert separation_index(R @ whitener.matrix @ H) < -15.0


def test_partial_extraction_hits_distinct_sources():
    specs = [SourceSpec("bpsk", seed=80), SourceSpec("bpsk", seed=81),
             SourceSpec("uniform", seed=82)]
    A = generate_sources(specs, 20_000)
    H = np.random.default_rng(24).standard_normal((3, 3))
    U = mix(MixingModel("static", matrix=H), A)
    whitener, Z = whiten(U)
    sep = deflate_extract(Z, lambda: make_score("cubic"), count=2)
    directions = whitener.matrix @ H
    directions /= np.linalg.norm(directions, axis=0)
    overlap = np.abs(sep.matrix @ directions)
    hits = [int(np.argmax(row)) for row in overlap]
    assert all(row.max() > 0.99 for row in overlap)
    assert hits[0] != hits[1]


def test_every_variant_returns_unit_norm():
    rng = np.random.default_rng(25)
    X = rng.standard_normal((3, 400))
    for variant, mu in (("newton", None), ("fixed_point", None), ("gradient", 0.5)):
        state = OneUnitState(g=np.array([1.0, 0.0, 0.0]))
        for _ in range(30):
            state = fastica_step(state, X, CubicScore(), variant=variant, mu=mu)
            assert abs(np.linalg.norm(state.g) - 1.0) < 1e-12


def test_contrast_never_decreases_along_fixed_point_iterates():
    # The shifted map E[u y^3] = C4.g^3 + 3g is a contrast ascent when the
    # sources are super-gaussian (the shift then favors the same vertex as
    # the cumulant term; with negative kurtosis it pulls the other way).
    spread_sets = [(8, 12, 18), (8, 8, 12), (12, 12, 18), (8, 12, 12)]
    for inst in range(20):
        rng = np.random.default_rng(900 + inst)
        A = product_design(spread_sets[inst % len(spread_sets)])
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        X = Q @ A
        g = rng.standard_normal(3)
        state = OneUnitState(g=g / np.linalg.norm(g))
        score = make_score("cubic")
        psi = [donoho_contrast(state.g, X)]
        for _ in range(10):
            state = fastica_step(state, X, score, variant="fixed_point")
            psi.append(donoho_contrast(state.g, X))
        assert np.min(np.diff(psi)) > -1e-9


def test_cma_batch_average_matches_score_residual_direction():
    Z, _, _ = whitened_bpsk_mixture(2, 5_000, mix_seed=26, source_seed0=64)
    X = Z.data
    rng = np.random.default_rng(27)
    g = rng.standard_normal(2)
    y = g @ X
    g = g / np.sqrt(np.mean(y * y))  # unit output power
    y = g @ X

    mu = 0.05
    displaced = np.vstack([cma_step(g, X[:, t], mu) for t in range(X.shape[1])])
    d_cma = (displaced - g).mean(axis=0) / mu

    score = CubicScore()
    d_score = -(X @ (score.f(y) - y)) / X.shape[1]
    oracle = -np.mean((y**3 - y) * X, axis=1)
    assert np.allclose(d_cma, oracle, atol=1e-8)
    assert np.allclose(d_score, oracle, atol=1e-8)
    cosine = d_cma @ d_score / (np.linalg.norm(d_cma) * np.linalg.norm(d_score))
    assert cosine > 1.0 - 1e-8


def test_cma_fixed_at_perfect_modulus_and_zero_step():
    g = np.array([1.0, 0.0])
    for u in ([1.0, 0.3], [-1.0, -2.0], [1.0, 0.0]):
        assert np.array_equal(cma_step(g, np.array(u), 0.05), g)  # y = +-1
    u = np.array([0.4, 0.2])
    assert np.array_equal(cma_step(g, u, 0.0), g)
    moved = cma_step(g, u, 0.05)
    assert not np.array_equal(moved, g)


def test_cma_pass_drives_modulus_dispersion_down():
    Z, _, _ = whitened_bpsk_mixture(2, 10_000, mix_seed=28, source_seed0=66)
    X = Z.data
    g = np.array([1.0, 0.4])
    g /= np.linalg.norm(g)
    for t in range(X.shape[1]):
        g = cma_step(g, X[:, t], 0.01)
    y = g @ X
    assert float(np.mean((y * y - 1.0) ** 2)) < 0.05


def test_donoho_contrast_values_and_scale_freedom():
    bpsk = np.array([[1.0, -1.0]])
    assert donoho_contrast(np.array([1.0]), bpsk) == 2.0

    rng = np.random.default_rng(29)
    noise = rng.standard_normal((1, 100_000))
    assert donoho_contrast(np.array([1.0]), noise) < 0.05

    X = rng.standard_normal((3, 2_000))
    g = rng.standard_normal(3)
    base = donoho_contrast(g, X)
    assert donoho_contrast(4.0 * g, X) == base  # power-of-two scale: exact
    assert donoho_contrast(0.5 * g, X) == base
    assert np.isclose(donoho_contrast(-1.7 * g, X), base, rtol=1e-12)


def test_guards_and_failure_reporting():
    X = np.random.default_rng(30).standard_normal((3, 300))
    state = OneUnitState(g=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(InvalidSpec):
        fastica_step(state, X, CubicScore(), variant="secant")
    with pytest.raises(InvalidSpec):
        fastica_step(state, X, CubicScore(), variant="gradient")  # mu missing
    with pytest.raises(DimensionMismatch):
        fastica_step(OneUnitState(g=np.array([1.0, 0.0])), X, CubicScore())
    with pytest.raises(ZeroUpdate):
        fastica_step(state, X, FlatScore(), variant="fixed_point")
    with pytest.raises(InvalidSpec):
        deflate_extract(X, CubicScore(), count=4)
    empty = np.zeros((3, 0))
    with pytest.raises(DimensionMismatch):
        fastica_step(state, empty, CubicScore())
    with pytest.raises(DimensionMismatch):
        deflate_extract(empty, CubicScore(), count=1)

    with pytest.raises(NotConverged) as info:
        deflate_extract(X, CubicScore(), count=1, max_iterations=2, tolerance=1e-12)
    assert info.value.index == 0


def test_stop_rule_is_checked_before_the_data_is_read(monkeypatch):
    # 1 - |<g+, g>| < tolerance stops a unit: a tolerance of 1 or more would
    # stop it after one step, one of 0 or less would never stop it
    X = np.random.default_rng(34).standard_normal((3, 300))

    def no_pass(*args, **kwargs):
        raise AssertionError("the data were read")

    monkeypatch.setattr(fixedpoint, "_pair_gram", no_pass)
    monkeypatch.setattr(fixedpoint, "fastica_step", no_pass)
    monkeypatch.setattr(fixedpoint, "_streamed_step", no_pass)  # the raw-direction core deflation steps through
    for max_iterations, tolerance in ((200, 1.0), (200, 5.0), (200, 0.0), (200, -1e-10),
                                      (200, float("nan")), (0, 1e-10), (-1, 1e-10)):
        for score in (CubicScore(), make_score("tanh")):  # the moment path and the streamed one
            with pytest.raises(InvalidSpec):
                deflate_extract(X, score, count=1, max_iterations=max_iterations, tolerance=tolerance)


def moment_test_data(N, T, seed):
    # sphered mixtures: Laplace sources at even seeds, uniform at odd ones,
    # under which the fixed_point variant never settles.  One sample u cannot
    # be sphered; it is scaled to |u|^2 = 9, so that the newton iterate
    # y u - 3 g climbs to u (it does for |u|^2 > 6).
    rng = np.random.default_rng(1000 * N + seed)
    if seed % 2 == 0:
        S = rng.laplace(size=(N, T)) / np.sqrt(2.0)
    else:
        S = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(N, T))
    X = rng.standard_normal((N, N)) @ S
    if T == 1:
        return 3.0 * X / np.linalg.norm(X)
    return whiten(X)[1]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("T", [1, _PAIR_BLOCK - 1, _PAIR_BLOCK, _PAIR_BLOCK + 1, 20_000])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 8, _MOMENT_MAX_N])
def test_cubic_moment_path_matches_the_streamed_reference(N, T, seed):
    # One sample determines one unit, so one is extracted at T = 1.  Later
    # units would lie in the data's null space, where y -> 0 and the Gram
    # path's E[y^2] = g.m2 g carries an absolute error of eps |u|^2 against
    # eps |u| |y| for the streamed (g.u)^2: both paths return rounding noise
    # there, and they part by up to 3e-3 (seen at N = 4).
    X = moment_test_data(N, T, seed)
    count = N if T > 1 else 1
    for variant in ("newton", "fixed_point"):
        where = f"{variant} N={N} T={T} seed={seed}"
        try:
            reference = reference_deflate_extract(X, CubicScore, count, variant=variant, seed=seed)
        except BssError as exc:
            with pytest.raises(type(exc)):
                deflate_extract(X, CubicScore, count, variant=variant, seed=seed)
            continue
        sep = deflate_extract(X, CubicScore, count, variant=variant, seed=seed)
        assert np.max(np.abs(sep.matrix - reference)) <= 1e-12, where


@pytest.mark.parametrize("kind", ["cubic", "tanh"])  # the Gram path, the streamed one
def test_units_beyond_the_data_rank_are_rank_deficient(kind):
    # one sample has rank one: the second unit lies in its null space, where
    # every moment is rounding noise
    X = moment_test_data(4, 1, seed=0)
    with pytest.raises(RankDeficient, match="unit 1 "):
        deflate_extract(X, lambda: make_score(kind), count=4)
    reference = reference_deflate_extract(X, lambda: make_score(kind), 1)
    assert np.max(np.abs(deflate_extract(X, lambda: make_score(kind), count=1).matrix - reference)) <= 1e-12


@pytest.mark.parametrize("kind, N, streams", [
    ("cubic", 1, False), ("cubic", 4, False), ("cubic", _MOMENT_MAX_N, False),
    ("cubic", _MOMENT_MAX_N + 1, True), ("tanh", 4, True), ("sign_switching", 4, True),
])
def test_only_cubic_units_up_to_the_bound_skip_the_streamed_step(monkeypatch, kind, N, streams):
    X = moment_test_data(N, 2_000, seed=0)
    calls = []
    step = fixedpoint._streamed_step  # the core fastica_step wraps

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(fixedpoint, "_streamed_step", counted)
    for variant in ("newton", "fixed_point"):
        calls.clear()
        try:  # on Laplace sources the fixed_point units may not settle
            reference_deflate_extract(X, lambda: make_score(kind), N, variant=variant)
        except NotConverged:
            pass
        iterations = len(calls)
        calls.clear()
        try:
            deflate_extract(X, lambda: make_score(kind), N, variant=variant)
        except NotConverged:
            pass
        assert iterations >= N
        assert len(calls) == (iterations if streams else 0), variant


def counting(monkeypatch, *names):
    """Patch each named fixedpoint function to count its calls; returns {name: [calls]}."""
    calls = {name: [] for name in names}
    for name in names:
        def counted(*args, name=name, original=getattr(fixedpoint, name), **kwargs):
            calls[name].append(1)
            return original(*args, **kwargs)
        monkeypatch.setattr(fixedpoint, name, counted)
    return calls


def test_a_factory_that_mixes_score_kinds_streams_every_unit(monkeypatch):
    # the path is fixed for the whole run: one tanh unit sends the cubic ones to the streamed step too
    X = moment_test_data(4, 2_000, seed=0)

    def alternating():  # a factory of cubic, tanh, cubic, tanh
        kinds = iter(["cubic", "tanh"] * 2)
        return lambda: make_score(next(kinds))

    calls = counting(monkeypatch, "_pair_gram")
    sep = deflate_extract(X, alternating(), 4)
    assert calls["_pair_gram"] == []
    assert np.max(np.abs(sep.matrix - reference_deflate_extract(X, alternating(), 4))) <= 1e-12


@pytest.mark.parametrize("kind, N, gram", [
    ("cubic", 4, True), ("tanh", 4, False), ("cubic", _MOMENT_MAX_N + 1, False),
])
def test_each_run_reads_its_second_moments_once(monkeypatch, kind, N, gram):
    X = moment_test_data(N, 2_000, seed=1)
    calls = counting(monkeypatch, "_pair_gram", "_covariance")
    deflate_extract(X, lambda: make_score(kind), N)
    assert (len(calls["_pair_gram"]), len(calls["_covariance"])) == ((1, 0) if gram else (0, 1))


@pytest.mark.parametrize("kind", ["cubic", "tanh"])
def test_each_unit_and_each_hopm_call_fixes_its_sign_once(monkeypatch, kind):
    # every step is odd in g, so the unit search fixes the sign of its result only
    calls = []

    def counted(vectors, original=fix_signs):
        calls.append(1)
        return original(vectors)

    monkeypatch.setattr(fixedpoint, "fix_signs", counted)
    monkeypatch.setattr(algebraic, "fix_signs", counted)  # hoevd's is not run: hopm gets an init
    X = moment_test_data(8, 20_000, seed=1)
    deflate_extract(X, lambda: make_score(kind), 8)
    assert len(calls) == 8
    calls.clear()
    hopm(estimate_cum4(X), init=np.ones(8))
    assert len(calls) == 1


def test_a_unit_that_deflation_annihilates_is_a_zero_update():
    # the step lands in the span of the units found, so nothing is left of it
    found = np.eye(3)[:2]
    with pytest.raises(ZeroUpdate):
        fixedpoint._unit_search(lambda g: found[0] + 2.0 * found[1], np.eye(3)[2], found, 10, 1e-10)


def test_gradient_and_empty_data_fail_before_the_data_are_read(monkeypatch):
    def no_gram(*args, **kwargs):
        raise AssertionError("the pair-product Gram was built")

    monkeypatch.setattr(fixedpoint, "_pair_gram", no_gram)
    X = np.random.default_rng(35).standard_normal((3, 300))
    score = make_score("sign_switching")
    with pytest.raises(InvalidSpec):
        deflate_extract(X, score, count=1, variant="gradient")
    with pytest.raises(InvalidSpec):
        deflate_extract(X, CubicScore(), count=1, variant="gradient")
    assert (score.m2, score.m4) == (1.0, 3.0)
    monkeypatch.undo()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for variant in ("newton", "fixed_point"):
            with pytest.raises(DimensionMismatch):
                deflate_extract(np.zeros((3, 0)), CubicScore(), count=1, variant=variant)


def test_moment_path_never_builds_a_sample_length_array():
    X = moment_test_data(4, 200_000, seed=0).data
    tracemalloc.start()
    try:
        deflate_extract(X, CubicScore, count=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * X.nbytes


@pytest.mark.parametrize("T", [1, _STEP_BLOCK - 1, _STEP_BLOCK, _STEP_BLOCK + 1, 3 * _STEP_BLOCK + 7])
def test_blocked_step_matches_the_unblocked_reference(T):
    rng = np.random.default_rng(T)
    X = rng.laplace(size=(3, T)) / np.sqrt(2.0)
    g = rng.standard_normal(3)
    state = OneUnitState(g=g / np.linalg.norm(g), iteration=4)
    makers = {"cubic": CubicScore, "tanh": lambda: make_score("tanh"),
              "sign_switching": subgaussian_sign_switching, "custom": BumpScore}
    for name, make in makers.items():
        for variant, mu in (("newton", None), ("fixed_point", None), ("gradient", 0.3)):
            blocked_score, reference_score = make(), make()
            blocked = fastica_step(state, X, blocked_score, variant=variant, mu=mu)
            reference = reference_fastica_step(state, X, reference_score, variant=variant, mu=mu)
            where = f"{name} {variant} T={T}"
            assert np.max(np.abs(blocked.g - reference.g)) < 1e-12, where
            assert abs(blocked.beta - reference.beta) < 1e-12 * max(1.0, abs(reference.beta)), where
            assert blocked.iteration == reference.iteration == 5
            if name == "sign_switching":
                assert (blocked_score.m2, blocked_score.m4) == (reference_score.m2, reference_score.m4)


def test_gradient_without_mu_fails_before_the_score_sees_data():
    X = np.random.default_rng(32).standard_normal((3, 300))
    score = make_score("sign_switching")
    with pytest.raises(InvalidSpec):
        fastica_step(OneUnitState(g=np.array([1.0, 0.0, 0.0])), X, score, variant="gradient")
    assert (score.m2, score.m4) == (1.0, 3.0)


@pytest.mark.parametrize("kind", ["cubic", "tanh"])
def test_step_never_builds_a_sample_length_array(kind):
    X = np.random.default_rng(33).standard_normal((4, 200_000))
    state = OneUnitState(g=np.full(4, 0.5))
    score = make_score(kind)
    tracemalloc.start()
    try:
        fastica_step(state, X, score)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * X.nbytes


def unit_power_mixture(kind, N, T, seed):
    # unit-power BPSK or uniform sources under a random orthogonal mixing
    rng = np.random.default_rng(seed)
    if kind == "bpsk":
        S = rng.choice([-1.0, 1.0], size=(N, T))
    else:
        S = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(N, T))
    Q, _ = np.linalg.qr(rng.standard_normal((N, N)))
    return Q @ S


# At step 0.05 the uniform runs never settle, so the last-bit differences of
# the two summation orders grow along the trajectory (9.5e-12 seen at N = 8,
# T = 199; every other gap seen was below 1.4e-14): hence the looser bound.
_CMA_STEPS = ((0.0, 0.0), (0.001, 1e-12), (0.01, 1e-12), (0.05, 1e-9))


@pytest.mark.parametrize("T", [1, _CMA_BLOCK - 1, _CMA_BLOCK, _CMA_BLOCK + 1, 3 * _CMA_BLOCK + 7, 20_000])
@pytest.mark.parametrize("N", [1, 2, 3, 8, 16])
def test_blocked_cma_matches_the_per_sample_loop(N, T):
    for kind in ("bpsk", "uniform"):
        X = unit_power_mixture(kind, N, T, seed=100 * N + T)
        for step_size, bound in _CMA_STEPS:
            where = f"{kind} N={N} T={T} step={step_size}"
            try:
                # the loop's first epochs are exactly its shorter runs
                _, reference = reference_cma(X, step_size, epochs=3)
            except Diverged:  # step 0.05 at N = 8 and 16
                with pytest.raises(Diverged):
                    cma(X, step_size, epochs=3)
                continue
            for epochs in (1, 2, 3):
                g, trajectory = cma(X, step_size, epochs)
                assert len(trajectory) == epochs, where
                assert g is trajectory[-1], where
                for blocked, looped in zip(trajectory, reference):
                    assert np.max(np.abs(blocked - looped)) <= bound, f"{where} epochs={epochs}"


@pytest.mark.parametrize("N", [1, 3])
def test_cma_divergence_is_a_typed_error(N):
    X = unit_power_mixture("uniform", N, 2_000, seed=N)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Diverged):
            cma(X, step_size=50)
        # one huge sample: its Gram entries are finite, but the float product
        # mu (y^2 - 1) y is inf, the GEMV carries that inf into g without a
        # floating-point error, and the epoch-end check catches it
        with pytest.raises(Diverged, match="not finite"):
            cma(np.full((N, 1), 1e104), step_size=0.01)


@pytest.mark.parametrize("step_size", [-0.01, np.nan, np.inf])
def test_cma_refuses_a_step_size_that_is_negative_or_not_finite(step_size):
    # refused before any sample, as AdaptConfig refuses it
    with pytest.raises(InvalidSpec, match="step_size"):
        cma(unit_power_mixture("uniform", 2, 100, seed=0), step_size=step_size)
