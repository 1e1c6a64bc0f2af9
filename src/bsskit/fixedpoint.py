"""One-unit extraction: fixed-point iterations, deflation, CMA steps.

All routines here work in sphered coordinates on a single demixing vector g;
full separators are assembled by deflating one unit at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionMismatch, Diverged, InvalidSpec, NotConverged, RankDeficient, ZeroUpdate
from .moments import _contract3, _covariance, _pair_gram, kurtosis
from .scores import CubicScore
from .second_order import _RANK_TOLERANCE, Separator, _sorted_eigh, fix_signs
from .signals import _as_data

_NORM_FLOOR = 1e-12
# samples per block of a fastica_step pass: at N = 4 on one core a step takes
# about 17 % less time than with moments' 4 096, and 16 384 gains nothing
_STEP_BLOCK = 8192
# samples per block of the cma recursion: on one core 32 was no faster at
# N = 3 and slower at N = 16, and 128 was slower at both
_CMA_BLOCK = 64
# most channels for which deflate_extract runs cubic newton/fixed_point units
# on the fourth moments.  Extracting all N units of sphered uniform mixtures
# with newton on one core (min of 11), the moment path against streaming took
# 60 against 70 ms at N = 22, T = 20 000, 84 against 79-82 ms at N = 24
# (302 against 337 ms at T = 100 000), but 143 against 99-101 ms at N = 28.
_MOMENT_MAX_N = 24

VARIANTS = ("newton", "fixed_point", "gradient")


@dataclass(frozen=True)
class OneUnitState:
    """A unit-norm demixing vector with its running statistics.

    beta is E[y f(y)] evaluated where the last step was taken; iteration
    counts completed steps.
    """

    g: np.ndarray
    beta: float = float("nan")
    iteration: int = 0


def fastica_step(state: OneUnitState, U, score, variant: str = "newton", mu: float | None = None,
                 whitener=None) -> OneUnitState:
    """One batch update of the demixing vector.

    newton:      g+ = E[u f(y)] - E[f'(y)] g
    fixed_point: g+ = E[u f(y)]
    gradient:    g+ = g + mu (E[u f(y)] - beta g),  beta = E[y f(y)]

    The result is normalized and sign-fixed (largest-magnitude entry
    positive).  With mu = 1 / (beta - E[f'(y)]) the gradient variant
    reproduces the newton direction exactly.  With a fitted ``whitener``
    (W, m), u = W (x - m) is read from raw data U unbuilt: y = a.x - a.m
    with a = W^T g, and E[u f(y)] = W (E[x f(y)] - m E[f(y)]).

    The expectations are summed over blocks of _STEP_BLOCK samples in one
    pass, so no array as long as the data is built, and f' is evaluated
    for the newton variant only.  A score that keeps state sees all of
    y = g.u through update() before f is evaluated on any block.
    """
    if variant not in VARIANTS:
        raise InvalidSpec(f"variant must be one of {VARIANTS}, got {variant!r}")
    if variant == "gradient" and mu is None:
        raise InvalidSpec("gradient variant needs a step size mu")
    X = _as_data(U)
    M, T = X.shape
    W, m = (np.eye(M), np.zeros(M)) if whitener is None else whitener._affine(X)
    g = np.asarray(state.g, dtype=float)
    if g.shape != (len(W),):
        raise DimensionMismatch(f"g has shape {g.shape} for {len(W)} channels")
    a, shift = W.T @ g, float(g @ (W @ m))
    y = None
    if score.keeps_state:
        y = a @ X
        y -= shift
        score.update(y)
    newton = variant == "newton"
    xf, fs, yf, fp = np.zeros(M), 0.0, 0.0, 0.0
    ones = np.ones(min(T, _STEP_BLOCK))  # a block's sums as BLAS dots, which beat np.sum here
    for start in range(0, T, _STEP_BLOCK):
        X_b = X[:, start:start + _STEP_BLOCK]
        y_b = a @ X_b - shift if y is None else y[start:start + _STEP_BLOCK]
        if newton:
            f_b, fp_b = score.f_and_fprime(y_b)
            fp += float(ones[:len(fp_b)] @ fp_b)
        else:
            f_b = score.f(y_b)
        xf += X_b @ f_b
        fs += float(ones[:len(f_b)] @ f_b)
        yf += float(y_b @ f_b)
    euf = W @ (xf / T - m * (fs / T))
    beta = yf / T
    if newton:
        g_plus = euf - (fp / T) * g
    elif variant == "fixed_point":
        g_plus = euf
    else:
        g_plus = g + mu * (euf - beta * g)
    return _stepped(g_plus, beta, state)


def _stepped(g_plus, beta: float, state: OneUnitState) -> OneUnitState:
    """The state after a step to g_plus: normalized and sign-fixed."""
    norm = np.linalg.norm(g_plus)
    if norm < _NORM_FLOOR:
        raise ZeroUpdate(f"update norm {norm:.3e} below {_NORM_FLOOR:.0e}")
    g_plus = fix_signs(g_plus / norm)
    return OneUnitState(g=g_plus, beta=beta, iteration=state.iteration + 1)


def _cubic_moment_step(m4: np.ndarray, m2: np.ndarray, newton: bool):
    """fastica_step for CubicScore as a contraction of the data's moments.

    The data are read once, by _pair_gram, into m4, the unfolding of every
    E[u_i u_j u_k u_l], and m2 = E[u u^T].  A step then costs O(N^4) and
    reads neither: E[u y^3] = m4 . g . g . g (_contract3),
    beta = E[y^4] = g.E[u y^3] and E[y^2] = g.m2 g.
    """
    def step(state: OneUnitState) -> OneUnitState:
        g = state.g
        euy3 = _contract3(m4, g)
        g_plus = euy3 - (3.0 * float(g @ m2 @ g)) * g if newton else euy3
        return _stepped(g_plus, float(g @ euy3), state)

    return step


def _check_stop_rule(max_iterations: int, tolerance: float, upper: float = 1.0):
    """A search stops once its progress falls below tolerance, so a tolerance of
    0 or less (or NaN) never stops it.  A direction search's progress is
    1 - |<g+, g>|, so a tolerance of ``upper`` = 1 or more stops it after one
    step; a pair sweep's or a fit's progress is unbounded (upper = inf)."""
    if max_iterations < 1:
        raise InvalidSpec(f"the iteration cap must be at least 1, got {max_iterations}")
    if not 0.0 < tolerance < upper:
        raise InvalidSpec(f"the stop tolerance must lie strictly between 0 and {upper:g}, got {tolerance}")


def _check_step_size(step_size: float):
    """A step size is finite and at least 0; 0 freezes the update it scales."""
    if not 0.0 <= step_size < np.inf:  # NaN fails too
        raise InvalidSpec(f"step_size must be finite and >= 0, got {step_size}")


def deflate_extract(U, score, count: int, variant: str = "newton", max_iterations: int = 200,
                    tolerance: float = 1e-10, seed: int = 0, whitener=None) -> Separator:
    """Extract ``count`` units sequentially with Gram-Schmidt deflation.

    ``score`` is either a ScoreFunction instance (shared across units) or a
    zero-argument callable producing a fresh instance per unit, which is the
    right choice for state-tracking scores.  Each unit iterates until the
    direction settles: |<g_k+1, g_k>| > 1 - tolerance, with 0 < tolerance < 1.

    A unit whose score is exactly CubicScore, under the newton or
    fixed_point variant, on at most _MOMENT_MAX_N channels, runs on the
    data's fourth moments: the data are read once for all such units, and
    each step is an O(N^4) contraction (see _cubic_moment_step).  Every other
    unit streams the data through fastica_step on each step.  With a fitted
    ``whitener``, U is raw data read through it as fastica_step reads it,
    count is at most its detected_rank, and the result applies to U.

    Raises NotConverged with the failing row index when a unit stalls, and
    RankDeficient when a settled unit's output power E[y^2] falls below
    whiten's null-direction floor, _RANK_TOLERANCE times E[u u^T]'s largest
    eigenvalue: the unit then lies in the data's null space.
    """
    X = _as_data(U)
    W, m = (np.eye(len(X)), np.zeros(len(X))) if whitener is None else whitener._affine(X)
    N = len(W)
    if not (1 <= count <= N):
        raise InvalidSpec(f"count must lie in 1..{N}, got {count}")
    _check_stop_rule(max_iterations, tolerance)
    moment_step = m2 = floor = None
    rng = np.random.default_rng(seed)
    units = np.empty((count, N))
    for r in range(count):
        unit_score = score() if callable(score) else score
        if type(unit_score) is CubicScore and variant in ("newton", "fixed_point") and N <= _MOMENT_MAX_N:
            if moment_step is None:
                m4, m2 = _pair_gram(X) if whitener is None else _pair_gram(X, m, W)
                moment_step = _cubic_moment_step(m4, m2, newton=variant == "newton")
            step = moment_step
        else:
            step = partial(fastica_step, U=U, score=unit_score, variant=variant, whitener=whitener)
        state = OneUnitState(g=_deflated(rng.standard_normal(N), units, r))
        for _ in range(max_iterations):
            prev = state.g
            state = step(state)
            if r:  # the step built state.g afresh, so it is deflated in place
                state.g[:] = fix_signs(_deflated(state.g, units, r))
            if abs(float(state.g @ prev)) > 1.0 - tolerance:
                break
        else:
            raise NotConverged(f"unit {r} did not settle in {max_iterations} iterations", index=r)
        if m2 is None:  # only streamed units so far: one pass for E[u u^T]
            m2 = W @ _covariance(X, m) @ W.T
        if floor is None:
            floor = _RANK_TOLERANCE * _sorted_eigh(m2)[0][0]
        if state.g @ m2 @ state.g < floor:
            raise RankDeficient(f"unit {r} has output power below the rank floor: it lies in the data's null space")
        units[r] = state.g
    return Separator(matrix=units @ W, whitener=whitener)


def _deflated(g: np.ndarray, units: np.ndarray, r: int) -> np.ndarray:
    """Unit r's g without its components along the orthonormal units[:r] found so far, normalized."""
    found = units[:r]
    g = g - found.T @ (found @ g)
    norm = np.linalg.norm(g)
    if norm < _NORM_FLOOR:
        raise ZeroUpdate(f"unit {r} vanished after deflation")
    return g / norm


def _modulus_error(y: float, step_size: float) -> float:
    """mu (y^2 - 1) y: how far one CMA step moves g along its sample."""
    return step_size * (y * y - 1.0) * y


def cma_step(g, u, step_size: float):
    """Constant-modulus stochastic step: g - mu (y^2 - 1) y u, y = g.u.

    No normalization is applied; the modulus target itself controls scale.
    """
    g = np.asarray(g, dtype=float)
    u = np.asarray(u, dtype=float).ravel()
    return g - _modulus_error(float(g @ u), step_size) * u


def cma(U, step_size: float = 0.01, epochs: int = 1):
    """Constant-modulus adaptation of one demixing vector on sphered data.

    Starts from the first unit vector and applies the cma_step rule to every
    sample, ``epochs`` times.  Returns (g, trajectory), trajectory holding g
    after each epoch.

    The recursion runs exactly, but on a block X_b = [u_1 ... u_B] of
    B = _CMA_BLOCK samples at a time.  With g_b the vector at the block's
    start, sample t's step sees the block's earlier steps e_s u_s only
    through u_s.u_t, so

        y_t = p_t - sum_{s<t} (u_s.u_t) e_s,  p = X_b^T g_b,
        e_t = mu (y_t^2 - 1) y_t,

    and g_{b+1} = g_b - X_b e.  A block is one GEMV for p, one GEMM for the
    Gram X_b^T X_b, a scalar pass with one length-t dot per sample, and a
    second GEMV; the per-sample cost does not grow with the channel count.

    A diverging run overflows to inf and then NaN.  The scalar pass is float
    arithmetic, which overflows silently; the block's numpy operations raise
    at an overflow or a NaN, and an inf that reaches g without one is caught
    by the finiteness check after every epoch.  Either way the run raises
    Diverged instead of iterating on NaN.
    """
    _check_step_size(step_size)
    if epochs < 1:
        raise InvalidSpec(f"epochs must be at least 1, got {epochs}")
    X = _as_data(U)
    N, T = X.shape
    g = np.zeros(N)
    g[0] = 1.0
    B = _CMA_BLOCK
    gram = np.empty((B, B))
    e = np.empty(B)  # the block's step coefficients mu (y_t^2 - 1) y_t
    # sample t of a block reads the first t entries of its Gram row and of e
    steps = [(gram[t, :t], e[:t]) for t in range(B)]
    trajectory = []
    for epoch in range(epochs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                for start in range(0, T, B):
                    X_b = X[:, start:start + B]
                    m = X_b.shape[1]
                    gram[:m, :m] = X_b.T @ X_b
                    p = (g @ X_b).tolist()
                    for t, (row, earlier) in enumerate(steps[:m]):
                        e[t] = _modulus_error(p[t] - float(row.dot(earlier)), step_size)
                    g = g - X_b @ e[:m]
        except FloatingPointError as exc:
            raise Diverged(f"cma diverged in epoch {epoch}: {exc}") from exc
        if not np.all(np.isfinite(g)):
            raise Diverged(f"cma output is not finite after epoch {epoch}")
        trajectory.append(g)
    return g, tuple(trajectory)


def donoho_contrast(g, U) -> float:
    """|c4(y)| / c2(y)^2 for the output y = g.u; scale-invariant."""
    return abs(kurtosis(np.asarray(g, dtype=float) @ _as_data(U)))
