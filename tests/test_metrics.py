"""Global-system evaluation: assignment resolution and the dB index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsskit import (
    DimensionMismatch,
    global_system,
    resolve_permutation_scale,
    separation_index,
)


def test_global_system_inverse_and_identity():
    H = np.array([[2.0, 1.0], [0.5, 3.0]])
    assert np.allclose(global_system(np.linalg.inv(H), H).matrix, np.eye(2), atol=1e-12)
    assert np.array_equal(global_system(np.eye(2), H).matrix, H)


def test_global_system_matches_triple_loop():
    rng = np.random.default_rng(70)
    G = rng.standard_normal((3, 3))
    H = rng.standard_normal((3, 3))
    S = global_system(G, H).matrix
    oracle = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                oracle[i, j] += G[i, k] * H[k, j]
    assert np.allclose(S, oracle, atol=1e-12)
    with pytest.raises(DimensionMismatch):
        global_system(G, rng.standard_normal((2, 2)))


def test_resolution_of_diagonal_and_swap():
    perm, scales, residual = resolve_permutation_scale(np.diag([2.0, -0.5]))
    assert list(perm) == [0, 1]
    assert np.allclose(scales, [2.0, -0.5])
    assert residual == 0.0

    perm, scales, residual = resolve_permutation_scale(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert list(perm) == [1, 0]
    assert residual == 0.0


def test_resolution_residual_arithmetic():
    S = np.array([[1.0, 0.1], [0.1, 1.0]])
    perm, scales, residual = resolve_permutation_scale(S)
    assert list(perm) == [0, 1]
    assert np.isclose(residual, np.sqrt(0.02 / 2.02), atol=1e-12)


def test_index_clamps_generalized_permutations():
    S = np.array([[0.0, -3.0, 0.0], [0.0, 0.0, 0.25], [1.5, 0.0, 0.0]])
    assert separation_index(S) == -120.0


@pytest.mark.parametrize("shape", [(3, 3), (2, 3), (3, 2)])
def test_index_of_a_system_that_passes_nothing_is_the_worst(shape):
    # no assigned power: nothing is separated, though nothing leaks either
    assert separation_index(np.zeros(shape)) == 120.0


def test_index_for_uniform_one_percent_leakage():
    S = np.array([[1.0, 0.01], [0.01, 1.0]])
    assert np.isclose(separation_index(S), -40.0, atol=1e-12)


def test_index_counts_outputs_beyond_the_sources_as_leak():
    S = np.array([[1.0, 0.0], [0.0, 1.0], [0.1, 0.1]])
    # the third output is assigned no source: all of its power is leak
    assert separation_index(S) == pytest.approx(-20.0, abs=1e-12)


def test_index_invariant_under_output_reordering():
    rng = np.random.default_rng(71)
    S = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    base = separation_index(S)
    for perm in ([1, 0, 2], [2, 0, 1], [2, 1, 0]):
        P = np.eye(3)[perm]
        assert separation_index(P @ S) == base


def test_residual_zero_iff_generalized_permutation():
    gp = np.array([[0.0, 2.0], [-0.7, 0.0]])
    assert resolve_permutation_scale(gp)[2] < 1e-12
    leaky = np.array([[1.0, 1e-3], [0.0, 1.0]])
    assert resolve_permutation_scale(leaky)[2] > 1e-12


# A per-row gain is not a symmetry: the index is one global leak-to-signal
# power ratio, so scaling rows by diag(1, 10, 0.1) moves it by several dB.
# Only signs and one common positive scale leave it unchanged.  The leak is
# a row's power minus its assigned entry's, so rounding moves the index by
# about eps * signal / leak dB; every entry of the draws leaks 1-100 % power.
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3))
def test_index_invariant_under_row_signs_and_a_common_scale(n, seed, scale):
    rng = np.random.default_rng(seed)
    S = np.eye(n)[rng.permutation(n)] + rng.choice([-1.0, 1.0], (n, n)) * rng.uniform(0.1, 1.0, (n, n))
    signs = rng.choice([-1.0, 1.0], n)
    base = separation_index(S)
    assert separation_index(signs[:, None] * S) == base
    assert abs(separation_index(scale * S) - base) < 1e-12


def test_a_one_dimensional_system_is_refused():
    with pytest.raises(DimensionMismatch):
        resolve_permutation_scale(np.ones(3))
