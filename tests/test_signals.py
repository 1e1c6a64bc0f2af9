"""Source generation, mixing variants, and the block-Toeplitz lift."""

import dataclasses
import warnings

import numpy as np
import pytest

import bsskit
from bsskit import (
    AdaptConfig,
    BssError,
    CubicScore,
    DimensionMismatch,
    InvalidSpec,
    MixingModel,
    OneUnitState,
    Separator,
    SignalMatrix,
    SourceSpec,
    Whitener,
    convolve_mimo,
    deflate_extract,
    generate_sources,
    lift_convolutive,
    mix,
    window_stack,
)
from bsskit.signals import _AR_BLOCK, _AR_BURN_IN, _ar1_blocks

SQRT3 = np.sqrt(3.0)


def test_bpsk_alphabet():
    A = generate_sources([SourceSpec("bpsk", seed=1)], 8)
    assert A.data.shape == (1, 8)
    assert np.all(np.isin(A.data, (-1.0, 1.0)))


def test_uniform_support_and_variance():
    A = generate_sources([SourceSpec("uniform", seed=3)], 100_000)
    x = A.data[0]
    assert np.all(np.abs(x) <= SQRT3)
    # var of U(-sqrt3, sqrt3) is 1
    assert 0.97 <= x.var() <= 1.03


def test_gaussian_channels_uncorrelated():
    A = generate_sources([SourceSpec("gaussian", seed=0), SourceSpec("gaussian", seed=1)], 100_000)
    rho = np.corrcoef(A.data)[0, 1]
    assert abs(rho) < 0.02


@pytest.mark.parametrize("kind", ["bpsk", "uniform", "laplace", "gaussian"])
def test_population_moments(kind):
    A = generate_sources([SourceSpec(kind, seed=11)], 100_000)
    x = A.data[0]
    assert abs(x.mean()) < 0.03
    assert abs(x.var() - 1.0) < 0.03


def test_ar1_lag_one_autocorrelation():
    A = generate_sources([SourceSpec("ar1", ar_coefficient=0.9, seed=5)], 100_000)
    x = A.data[0]
    rho = np.mean(x[1:] * x[:-1]) / x.var()
    assert abs(rho - 0.9) < 0.02
    assert abs(x.var() - 1.0) < 0.05


def _ar1_filter(rho, e):
    """x[n] = rho x[n-1] + e[n] from a zero state, through the blocked filter."""
    E = np.zeros((-(-e.size // _AR_BLOCK), _AR_BLOCK))
    E.ravel()[:e.size] = e
    return _ar1_blocks(rho, E).ravel()[:e.size]


def scalar_ar1(rho, e):
    x = np.empty(e.size)
    prev = 0.0
    for n in range(e.size):
        prev = rho * prev + e[n]
        x[n] = prev
    return x


@pytest.mark.parametrize("rho", [0.999, 0.9, 0.5, 0.0, -0.5, -0.999])
def test_blocked_ar1_matches_the_scalar_loop(rho):
    innov_std = np.sqrt(1.0 - rho * rho)
    for length in (1, 63, 64, 65):
        e = np.random.default_rng(length).standard_normal(length) * innov_std
        assert np.max(np.abs(_ar1_filter(rho, e) - scalar_ar1(rho, e))) <= 1e-12
    # 401 000 samples through generate_sources: same innovation draw, burn-in dropped
    T = 401_000 - _AR_BURN_IN
    x = generate_sources([SourceSpec("ar1", ar_coefficient=rho, seed=9)], T).data[0]
    e = np.random.default_rng([9, 0]).standard_normal(T + _AR_BURN_IN) * innov_std
    assert np.max(np.abs(x - scalar_ar1(rho, e)[_AR_BURN_IN:])) <= 1e-12


def reference_ar1_blocks(rho, E):
    """Reference for _ar1_blocks: the block-state carry on numpy scalars."""
    powers = rho ** np.arange(_AR_BLOCK + 1)
    lags = np.arange(_AR_BLOCK)
    toeplitz = np.tril(powers[np.abs(lags[:, None] - lags[None, :])])
    X = E @ toeplitz.T
    states = np.empty(E.shape[0])
    prev = 0.0
    for b, end in enumerate(X[:, -1].tolist()):
        states[b] = prev
        prev = end + powers[-1] * prev
    X += states[:, None] * powers[1:]
    return X


@pytest.mark.parametrize("rho", [0.999, 0.9, 0.5, 0.0, -0.5, -0.999])
def test_ar1_carry_on_floats_is_bit_identical_to_the_numpy_scalar_carry(rho):
    for length in (1, 63, 64, 65, 401_000):
        E = np.zeros((-(-length // _AR_BLOCK), _AR_BLOCK))
        E.ravel()[:length] = np.random.default_rng(length).standard_normal(length)
        assert np.array_equal(_ar1_blocks(rho, E), reference_ar1_blocks(rho, E))


def test_determinism_same_seed():
    specs = [SourceSpec("laplace", seed=7), SourceSpec("ar1", ar_coefficient=-0.5, seed=2)]
    A = generate_sources(specs, 512)
    B = generate_sources(specs, 512)
    assert np.array_equal(A.data, B.data)


def test_source_spec_validation():
    with pytest.raises(InvalidSpec):
        SourceSpec("triangle")
    with pytest.raises(InvalidSpec):
        SourceSpec("ar1", ar_coefficient=1.0)
    with pytest.raises(InvalidSpec):
        SourceSpec("bpsk", ar_coefficient=0.3)
    with pytest.raises(InvalidSpec):
        SourceSpec("bpsk", seed=-1)


# Every seed that reaches a generator obeys SourceSpec's rule where it enters:
# a nonnegative integer, else InvalidSpec before any draw.
SEEDED_ENTRIES = {
    "source": lambda seed: SourceSpec("bpsk", seed=seed),
    "noise": lambda seed: mix(MixingModel("noisy", matrix=np.eye(2), noise_std=0.1, noise_seed=seed),
                              generate_sources([SourceSpec("bpsk"), SourceSpec("uniform")], 100)),
    "adaptive_init": lambda seed: AdaptConfig(init="random_orthogonal", init_seed=seed),
    "deflation_start": lambda seed: deflate_extract(np.random.default_rng(2).uniform(-1, 1, (2, 100)),
                                                    CubicScore, 2, seed=seed),
}


@pytest.mark.parametrize("entry", sorted(SEEDED_ENTRIES))
@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_every_seed_is_a_nonnegative_integer(entry, seed):
    with pytest.raises(InvalidSpec, match="seed must be a nonnegative integer"):
        SEEDED_ENTRIES[entry](seed)
    SEEDED_ENTRIES[entry](np.int64(3))  # a numpy integer is an integer


def test_signal_matrix_rejects_bad_data():
    with pytest.raises(DimensionMismatch):
        SignalMatrix(np.zeros(8))
    with pytest.raises(InvalidSpec):
        SignalMatrix(np.array([[1.0, np.nan]]))
    M = SignalMatrix(np.ones((2, 4)))
    with pytest.raises(ValueError):
        M.data[0, 0] = 2.0


def reference_draw(spec, T, rng):
    # The one-line draws that generate_sources fills in place.
    if spec.kind == "bpsk":
        return rng.integers(0, 2, size=T).astype(float) * 2.0 - 1.0
    if spec.kind == "uniform":
        return rng.uniform(-SQRT3, SQRT3, size=T)
    if spec.kind == "laplace":
        b = 1.0 / np.sqrt(2.0)
        tiny = np.finfo(float).tiny
        u = np.clip(rng.random(T), tiny, None)
        return np.where(u < 0.5, b * np.log(2.0 * u), -b * np.log(np.clip(2.0 * (1.0 - u), tiny, None)))
    if spec.kind == "gaussian":
        return rng.standard_normal(T)
    rho = spec.ar_coefficient
    e = rng.standard_normal(T + _AR_BURN_IN) * np.sqrt(1.0 - rho * rho)
    return _ar1_filter(rho, e)[_AR_BURN_IN:]


@pytest.mark.parametrize("T", [1, 63, 64, 65, 8191, 8193, 20_000])
@pytest.mark.parametrize("seed", [0, 13])
def test_in_place_draws_match_the_one_line_draws(T, seed):
    specs = [SourceSpec("bpsk", seed=seed), SourceSpec("uniform", seed=seed), SourceSpec("laplace", seed=seed),
             SourceSpec("gaussian", seed=seed), SourceSpec("ar1", ar_coefficient=0.9, seed=seed),
             SourceSpec("ar1", ar_coefficient=-0.5, seed=seed)]
    A = generate_sources(specs, T)
    expected = np.vstack([reference_draw(spec, T, np.random.default_rng([seed, i])) for i, spec in enumerate(specs)])
    assert A.data.tobytes() == expected.tobytes()


def test_signal_matrix_copies_its_input():
    a = np.ones((2, 4))
    M = SignalMatrix(a)
    a[0, 0] = 5.0
    assert M.data[0, 0] == 1.0
    assert a.flags.writeable


def test_library_signals_are_adopted_read_only():
    A = generate_sources([SourceSpec("uniform", seed=1), SourceSpec("laplace", seed=2)], 300)
    H = np.array([[1.0, 0.5], [-0.3, 1.0]])
    outputs = [(A, None)] + [(mix(model, A), A) for model in (
        MixingModel("static", matrix=H),
        MixingModel("noisy", matrix=H, noise_std=0.1, noise_seed=2),
        MixingModel("convolutive", taps=(H, 0.5 * H)),
    )]
    for signal, source in outputs:
        assert not signal.data.flags.writeable
        with pytest.raises(ValueError):
            signal.data[0, 0] = 0.0
        if source is not None:
            assert not np.shares_memory(signal.data, source.data)


def test_adopted_signal_keeps_the_checks():
    with pytest.raises(DimensionMismatch):
        SignalMatrix._adopt(np.zeros(8))
    with pytest.raises(DimensionMismatch):
        SignalMatrix._adopt(np.zeros((2, 0)))
    with pytest.raises(InvalidSpec):
        SignalMatrix._adopt(np.array([[1.0, np.inf]]))
    a = np.ones((2, 3))
    M = SignalMatrix._adopt(a)
    assert M.data is a and not a.flags.writeable


def test_static_mix_identity():
    A = generate_sources([SourceSpec("bpsk", seed=0), SourceSpec("bpsk", seed=1)], 32)
    U = mix(MixingModel("static", matrix=np.eye(2)), A)
    assert np.array_equal(U.data, A.data)


def test_static_mix_matches_matrix_product():
    A = SignalMatrix(np.array([[1.0], [1.0]]))
    H = np.array([[1.0, 1.0], [1.0, -1.0]])
    U = mix(MixingModel("static", matrix=H), A)
    assert np.array_equal(U.data[:, 0], [2.0, 0.0])


def test_noisy_mix_reproducible_and_reduces_to_static():
    A = generate_sources([SourceSpec("uniform", seed=4)], 256)
    H = np.array([[1.0], [0.5]])
    U1 = mix(MixingModel("noisy", matrix=H, noise_std=0.1, noise_seed=9), A)
    U2 = mix(MixingModel("noisy", matrix=H, noise_std=0.1, noise_seed=9), A)
    assert np.array_equal(U1.data, U2.data)
    U0 = mix(MixingModel("noisy", matrix=H, noise_std=0.0, noise_seed=9), A)
    Us = mix(MixingModel("static", matrix=H), A)
    assert np.allclose(U0.data, Us.data)


def test_noisy_mix_scales_the_draw_in_place_to_the_same_bits():
    A = generate_sources([SourceSpec("laplace", seed=5 + i) for i in range(3)], 5000)
    H = np.random.default_rng(6).standard_normal((4, 3))
    U = mix(MixingModel("noisy", matrix=H, noise_std=0.37, noise_seed=11), A)
    rng = np.random.default_rng([11, 0x6E])  # the noise stream of noise_seed 11
    assert np.array_equal(U.data, H @ A.data + 0.37 * rng.standard_normal((4, 5000)))


def test_convolutive_impulse_response():
    # taps {I, 0.5 I}: u(1) = a(1) + 0.5 a(0)
    A = SignalMatrix(np.array([[1.0, 2.0, 0.0], [3.0, -1.0, 0.0]]))
    taps = (np.eye(2), 0.5 * np.eye(2))
    U = mix(MixingModel("convolutive", taps=taps), A)
    assert np.allclose(U.data[:, 0], A.data[:, 0])
    assert np.allclose(U.data[:, 1], A.data[:, 1] + 0.5 * A.data[:, 0])


def test_source_count_is_the_column_count_of_the_matrix_or_taps():
    H = np.ones((3, 2))
    models = (MixingModel("static", matrix=H), MixingModel("noisy", matrix=H, noise_std=0.1),
              MixingModel("convolutive", taps=(H, 0.5 * H)))
    A = generate_sources([SourceSpec("bpsk", seed=k) for k in range(3)], 16)
    for model in models:
        assert model.source_count == 2
        with pytest.raises(DimensionMismatch):
            mix(model, A)


def test_convolutive_identity_and_zero_taps():
    A = generate_sources([SourceSpec("bpsk", seed=2)], 64)
    U = mix(MixingModel("convolutive", taps=(np.eye(1),)), A)
    assert np.array_equal(U.data, A.data)
    Z = mix(MixingModel("convolutive", taps=(np.zeros((1, 1)),)), A)
    assert np.all(Z.data == 0.0)


def test_lift_dimensions_4x2_order29_depth20():
    taps = tuple(np.zeros((4, 2)) for _ in range(30))
    T = lift_convolutive(taps, 20)
    assert T.shape == (80, 98)


def test_lift_memoryless_is_block_diagonal():
    H0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    T = lift_convolutive((H0,), 3)
    expected = np.zeros((6, 6))
    for b in range(3):
        expected[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = H0
    assert np.array_equal(T, expected)


def test_lift_scalar_channel_hand_oracle():
    T = lift_convolutive((np.array([[1.0]]), np.array([[2.0]])), 2)
    assert np.array_equal(T, [[1.0, 2.0, 0.0], [0.0, 1.0, 2.0]])


def test_convolution_equals_lifted_model():
    rng = np.random.default_rng(17)
    taps = tuple(rng.standard_normal((3, 2)) for _ in range(4))  # order 3
    A = generate_sources([SourceSpec("uniform", seed=8), SourceSpec("laplace", seed=9)], 64)
    U = convolve_mimo(taps, A)
    L = 5
    TL = lift_convolutive(taps, L)
    wins_u = window_stack(U, L)
    wins_a = window_stack(A, L + 3)
    # u-windows exist from n = L-1, source windows from n = L+order-1
    assert np.allclose(wins_u[:, 3:], TL @ wins_a, atol=1e-12)


def test_window_stack_layout():
    M = SignalMatrix(np.array([[0.0, 1.0, 2.0, 3.0]]))
    W = window_stack(M, 3)
    # column n = [u(n); u(n-1); u(n-2)]
    assert np.array_equal(W, [[2.0, 3.0], [1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        window_stack(M, 5)


def test_mixing_model_validation():
    with pytest.raises(InvalidSpec):
        MixingModel("fancy")
    with pytest.raises(InvalidSpec):
        MixingModel("static")
    with pytest.raises(InvalidSpec):
        MixingModel("convolutive", taps=())
    assert MixingModel("convolutive", taps=(np.eye(2), np.eye(2))).order == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mixing_model_refuses_non_finite_values(bad):
    H = np.array([[bad, 0.0], [0.0, 1.0]])
    for model in (lambda: MixingModel("static", matrix=H),
                  lambda: MixingModel("noisy", matrix=H, noise_std=0.1),
                  lambda: MixingModel("noisy", matrix=np.eye(2), noise_std=abs(bad)),
                  lambda: MixingModel("convolutive", taps=(np.eye(2), H)),
                  lambda: lift_convolutive((np.eye(2), H), 3)):
        with pytest.raises(InvalidSpec):
            model()


def _n(X):
    # channel count of a bare array or of a SignalMatrix
    return np.shape(getattr(X, "data", X))[0]


def _cubic(X):
    return [CubicScore() for _ in range(_n(X))]


# Every public function that takes signal data, called on X (a bare array or
# a SignalMatrix) with otherwise valid arguments sized to its channel count.
SIGNAL_DATA_ENTRY_POINTS = {
    "sample_covariance": lambda X: bsskit.sample_covariance(X),
    "estimate_cum4": lambda X: bsskit.estimate_cum4(X),
    "cumulant_matrix": lambda X: bsskit.cumulant_matrix(X, np.eye(_n(X))),
    "kurtosis": lambda X: bsskit.kurtosis(X),
    "whiten": lambda X: bsskit.whiten(X),
    "amuse": lambda X: bsskit.amuse(X),
    "fastica_step": lambda X: bsskit.fastica_step(OneUnitState(g=np.ones(_n(X))), X, CubicScore()),
    "deflate_extract": lambda X: bsskit.deflate_extract(X, CubicScore(), count=1),
    "cma": lambda X: bsskit.cma(X),
    "donoho_contrast": lambda X: bsskit.donoho_contrast(np.ones(_n(X)), X),
    "universal_criterion": lambda X: bsskit.universal_criterion(np.eye(_n(X)), X, _cubic(X)),
    "batch_update_direction": lambda X: bsskit.batch_update_direction(np.eye(_n(X)), X, _cubic(X), "relative"),
    "run_separation": lambda X: bsskit.run_separation(X, _cubic(X), AdaptConfig()),
    "stability_check": lambda X: bsskit.stability_check(X, _cubic(X)),
    "bussgang_residual": lambda X: bsskit.bussgang_residual(X, _cubic(X)),
    "jade": lambda X: bsskit.jade(X),
    "unimodal_equalizer": lambda X: bsskit.unimodal_equalizer(X, mu1=0.05, mu2=0.5, L=1),
    "deterministic_cm": lambda X: bsskit.deterministic_cm(X),
    "Separator.apply": lambda X: Separator(matrix=np.eye(_n(X))).apply(X),
    "Whitener.apply": lambda X: Whitener(matrix=np.eye(_n(X)), detected_rank=_n(X),
                                         eigenvalues=np.ones(_n(X)), mean=np.zeros(_n(X))).apply(X),
    "mix": lambda X: bsskit.mix(MixingModel("static", matrix=np.eye(_n(X))), X),
    "convolve_mimo": lambda X: bsskit.convolve_mimo((np.eye(_n(X)), 0.5 * np.eye(_n(X))), X),
    "window_stack": lambda X: bsskit.window_stack(X, 2),
}


@pytest.mark.parametrize("shape", [(3, 0), (0, 50)], ids=["no_samples", "no_channels"])
@pytest.mark.parametrize("call", SIGNAL_DATA_ENTRY_POINTS.values(), ids=SIGNAL_DATA_ENTRY_POINTS.keys())
def test_every_entry_point_refuses_empty_signal_data(call, shape):
    X = np.zeros(shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch):
            call(X)


def signal_data():
    # 3 x 200 data on which every entry point returns a result: AR(1) sources
    # of distinct poles, so that amuse's lag eigenvalues are apart, and a
    # uniform one, under a fixed rotation
    A = generate_sources([SourceSpec("ar1", ar_coefficient=0.8, seed=1), SourceSpec("uniform", seed=2),
                          SourceSpec("ar1", ar_coefficient=-0.7, seed=3)], 200)
    Q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))
    return Q @ A.data


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", SIGNAL_DATA_ENTRY_POINTS.values(), ids=SIGNAL_DATA_ENTRY_POINTS.keys())
def test_every_entry_point_refuses_non_finite_signal_data(call, bad):
    X = signal_data()
    X[1, 57] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpec, match="non-finite"):
            call(X)


def _leaves(value):
    # every array and scalar a result holds, in a form that compares bit for bit
    if dataclasses.is_dataclass(value):
        return [leaf for f in dataclasses.fields(value) for leaf in _leaves(getattr(value, f.name))]
    if isinstance(value, (tuple, list)):
        return [leaf for item in value for leaf in _leaves(item)]
    if value is None or isinstance(value, (str, bool, int, float)):
        return [repr(value)]
    arr = np.asarray(value)
    return [(arr.dtype.str, arr.shape, arr.tobytes())]


def _outcome(call, X):
    try:
        return _leaves(call(X))
    except BssError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("call", SIGNAL_DATA_ENTRY_POINTS.values(), ids=SIGNAL_DATA_ENTRY_POINTS.keys())
def test_every_entry_point_reads_a_bare_array_as_its_signal_matrix(call, channels):
    X = signal_data()[:channels]
    assert _outcome(call, X) == _outcome(call, SignalMatrix(X))


def reference_lift(taps, L):
    # the hand-indexed block loop: block row r holds H_k at block column r + k
    M, N = taps[0].shape
    lifted = np.zeros((M * L, N * (L + len(taps) - 1)))
    for r in range(L):
        for k, Hk in enumerate(taps):
            lifted[r * M:(r + 1) * M, (r + k) * N:(r + k + 1) * N] = Hk
    return lifted


@pytest.mark.parametrize("shape, order, L", [((4, 2), 29, 20), ((2, 2), 0, 3), ((1, 1), 1, 2), ((3, 2), 3, 5)])
def test_lift_equals_the_block_loop(shape, order, L):
    taps = np.random.default_rng(order).standard_normal((order + 1, *shape))
    assert np.array_equal(lift_convolutive(taps, L), reference_lift(taps, L))


@pytest.mark.parametrize("taps, error", [
    ((), InvalidSpec),
    ((np.eye(2), np.ones((2, 3))), DimensionMismatch),
    ((np.ones(2),), DimensionMismatch),
], ids=["no_taps", "mixed_shapes", "one_d_tap"])
def test_taps_follow_the_mixing_model_rule(taps, error):
    A = generate_sources([SourceSpec("bpsk", seed=k) for k in range(2)], 16)
    with pytest.raises(error):
        convolve_mimo(taps, A)
    with pytest.raises(error):
        lift_convolutive(taps, 3)


def test_convolution_with_more_taps_than_samples():
    A = SignalMatrix(np.array([[1.0, 2.0, 3.0]]))
    U = convolve_mimo([np.array([[2.0 ** k]]) for k in range(5)], A)
    # u(n) = sum over k <= n of 2^k a(n - k); taps 3 and 4 never reach a sample
    assert np.array_equal(U.data, [[1.0, 4.0, 11.0]])


# id: (a call the module refuses, the error it raises)
SIGNALS_FAILURES = {
    "one_d_static_matrix": (lambda: MixingModel("static", matrix=np.ones(3)), DimensionMismatch),
    "no_samples_to_generate": (lambda: generate_sources([SourceSpec("bpsk")], 0), InvalidSpec),
    "no_source_specs": (lambda: generate_sources([], 100), InvalidSpec),
    "window_stack_of_depth_0": (lambda: window_stack(np.ones((2, 10)), 0), InvalidSpec),
    "lift_of_depth_0": (lambda: lift_convolutive((np.eye(2),), 0), InvalidSpec),
}


@pytest.mark.parametrize("call, error", SIGNALS_FAILURES.values(), ids=SIGNALS_FAILURES.keys())
def test_signals_failures_are_typed(call, error):
    with pytest.raises(error):
        call()
