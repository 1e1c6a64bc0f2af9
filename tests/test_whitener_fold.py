"""Statistics read from raw data through a fitted whitener.

estimate_cum4, deflate_extract, amuse and jade read raw sensor data through
fit_whitener's transform, block by block, instead of building the sphered
copy.  Each is checked here against the path it replaces, whiten and then
the statistic of the sphered data, and against a sample-length allocation.
"""

import tracemalloc

import numpy as np
import pytest

from bsskit import (
    CubicScore,
    InvalidSpec,
    MixingModel,
    OneUnitState,
    SourceSpec,
    amuse,
    deflate_extract,
    estimate_cum4,
    fastica_step,
    fit_whitener,
    generate_sources,
    jade,
    jade_rotation,
    make_score,
    mix,
    sample_covariance,
    whiten,
)
from bsskit.second_order import _sorted_eigh

FOLD_TOLERANCE = 1e-11
OFFSET = 1e3  # in source standard deviations: a mean this large cancels in X X^T / T - m m^T


def mixture(kinds, H, offset=0.0, samples=20_000, seed=0, ar=(0.9, 0.4, -0.5)):
    """H times unit-variance sources of the given kinds, each shifted by ``offset``."""
    rho = iter(ar)
    specs = [SourceSpec(kind, ar_coefficient=next(rho) if kind == "ar1" else None, seed=seed + i)
             for i, kind in enumerate(kinds)]
    A = generate_sources(specs, samples)
    return mix(MixingModel("static", matrix=H), A.data + offset).data


def random_mixing(n, seed):
    return np.random.default_rng(seed).standard_normal((n, n)) + 2.0 * np.eye(n)


TALL = np.array([[1.0, 0.3], [0.2, 1.0], [0.5, -0.4]])  # noise-free: whitening drops one direction

# name -> (mixing, offset); the fold must hold on both
CASES = {"offset": (random_mixing(3, 1), OFFSET), "tall": (TALL, 0.0)}


def relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("case", CASES)
def test_the_whitener_spheres_its_own_data(case):
    H, offset = CASES[case]
    X = mixture(["laplace"] * H.shape[1], H, offset)
    w = fit_whitener(X)
    assert w.detected_rank == H.shape[1]
    # two-pass covariance of the sphered output, exact to rounding at any offset
    assert relative_gap(np.cov(w.apply(X).data, bias=True), np.eye(w.detected_rank)) < FOLD_TOLERANCE


@pytest.mark.parametrize("case", CASES)
def test_cum4_through_the_whitener_matches_whiten_then_cum4(case):
    H, offset = CASES[case]
    X = mixture(["laplace"] * H.shape[1], H, offset)
    w, Z = whiten(X)
    assert relative_gap(estimate_cum4(X, whitener=w).values, estimate_cum4(Z).values) < FOLD_TOLERANCE


# (score maker, variant): cubic units run on the pair-product Gram, tanh units stream
UNITS = {"cubic_newton": (CubicScore, "newton"), "cubic_fixed_point": (CubicScore, "fixed_point"),
         "tanh_newton": (lambda: make_score("tanh"), "newton")}


@pytest.mark.parametrize("unit", UNITS)
@pytest.mark.parametrize("case", CASES)
def test_extraction_through_the_whitener_matches_whiten_then_extract(case, unit):
    H, offset = CASES[case]
    X = mixture(["laplace"] * H.shape[1], H, offset)
    score, variant = UNITS[unit]
    w, Z = whiten(X)
    folded = deflate_extract(X, score, count=w.detected_rank, variant=variant, seed=3, whitener=w)
    reference = deflate_extract(Z, score, count=w.detected_rank, variant=variant, seed=3)
    assert folded.whitener is w
    assert relative_gap(folded.matrix, reference.matrix @ w.matrix) < FOLD_TOLERANCE
    assert relative_gap(folded.apply(X).data, reference.apply(Z).data) < FOLD_TOLERANCE


@pytest.mark.parametrize("kind", ["tanh", "sign_switching"])
@pytest.mark.parametrize("case", CASES)
def test_a_streamed_step_through_the_whitener_matches_one_on_sphered_data(case, kind):
    # every variant, and a score that keeps state, which sees all of y before a block is read
    H, offset = CASES[case]
    X = mixture(["laplace"] * H.shape[1], H, offset)
    w, Z = whiten(X)
    g = np.random.default_rng(5).standard_normal(w.detected_rank)
    state = OneUnitState(g=g / np.linalg.norm(g))
    for variant, mu in (("newton", None), ("fixed_point", None), ("gradient", 0.3)):
        folded = fastica_step(state, X, make_score(kind), variant=variant, mu=mu, whitener=w)
        reference = fastica_step(state, Z, make_score(kind), variant=variant, mu=mu)
        assert relative_gap(folded.g, reference.g) < FOLD_TOLERANCE, variant
        assert abs(folded.beta - reference.beta) < FOLD_TOLERANCE * abs(reference.beta), variant


def test_extraction_through_the_whitener_takes_at_most_its_rank():
    X = mixture(["laplace"] * 2, TALL)
    w = fit_whitener(X)
    deflate_extract(X, CubicScore(), count=2, whitener=w)
    with pytest.raises(InvalidSpec, match="count must lie in 1..2"):
        deflate_extract(X, CubicScore(), count=3, whitener=w)


def whitened_amuse(X, lag=1):
    # amuse as it read before the fold: the eigenvectors of the sphered data's lagged covariance
    w, Z = whiten(X)
    _, Q = _sorted_eigh(sample_covariance(Z, lag).matrix)
    return Q.T @ w.matrix


@pytest.mark.parametrize("lag", [1, 3])
@pytest.mark.parametrize("case", CASES)
def test_amuse_through_the_whitener_matches_whiten_then_amuse(case, lag):
    H, offset = CASES[case]
    X = mixture(["ar1"] * H.shape[1], H, offset)
    assert relative_gap(amuse(X, lag=lag).matrix, whitened_amuse(X, lag)) < FOLD_TOLERANCE


@pytest.mark.parametrize("case", CASES)
def test_jade_through_the_whitener_matches_whiten_then_jade(case):
    # jade as it read before the fold: the joint diagonalizer of the sphered data's cumulant slices
    H, offset = CASES[case]
    X = mixture(["uniform"] * H.shape[1], H, offset)
    w, Z = whiten(X)
    sep = jade(X)
    assert sep.whitener.detected_rank == w.detected_rank
    assert relative_gap(sep.matrix, jade_rotation(estimate_cum4(Z)).T @ w.matrix) < FOLD_TOLERANCE


# name -> call on (data, whitener fitted to it before tracing starts)
ALLOCATIONS = {
    "fit_whitener": lambda X, w: fit_whitener(X),
    "sample_covariance_lag0": lambda X, w: sample_covariance(X, 0),
    "sample_covariance_lag1": lambda X, w: sample_covariance(X, 1),
    "estimate_cum4_through_a_whitener": lambda X, w: estimate_cum4(X, whitener=w),
    "cubic_extraction_through_a_whitener": lambda X, w: deflate_extract(X, CubicScore, count=4, whitener=w),
    "tanh_extraction_through_a_whitener": lambda X, w: deflate_extract(
        X, lambda: make_score("tanh"), count=4, whitener=w),
    "amuse": lambda X, w: amuse(X),
    "jade": lambda X, w: jade(X),
}


@pytest.mark.parametrize("name", ALLOCATIONS)
def test_no_sample_length_copy_is_built(name):
    if name == "amuse":
        X = mixture(["ar1"] * 4, random_mixing(4, 7), samples=200_000, ar=(0.9, 0.5, 0.0, -0.5))
    else:
        X = np.random.default_rng(21).laplace(size=(4, 200_000))
    w = fit_whitener(X)
    tracemalloc.start()
    try:
        ALLOCATIONS[name](X, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * X.nbytes
