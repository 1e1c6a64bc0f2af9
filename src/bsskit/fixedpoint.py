"""One-unit extraction: fixed-point iterations, deflation, CMA steps.

All routines here work on sphered data and a single demixing vector g; full
separators are assembled by deflating one unit at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Diverged, InvalidSpec, NotConverged, ZeroUpdate
from .moments import _as_data, kurtosis
from .second_order import Separator, fix_signs

_NORM_FLOOR = 1e-12
# samples per block of a fastica_step pass: at N = 4 on one core a step takes
# about 17 % less time than with moments' 4 096, and 16 384 gains nothing
_STEP_BLOCK = 8192

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


def fastica_step(state: OneUnitState, U, score, variant: str = "newton", mu: float | None = None) -> OneUnitState:
    """One batch update of the demixing vector.

    newton:      g+ = E[u f(y)] - E[f'(y)] g
    fixed_point: g+ = E[u f(y)]
    gradient:    g+ = g + mu (E[u f(y)] - beta g),  beta = E[y f(y)]

    The result is normalized and sign-fixed (largest-magnitude entry
    positive).  With mu = 1 / (beta - E[f'(y)]) the gradient variant
    reproduces the newton direction exactly.

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
    N, T = X.shape
    g = np.asarray(state.g, dtype=float)
    if g.shape != (N,):
        raise DimensionMismatch(f"g has shape {g.shape} for {N} channels")
    if T == 0:
        raise DimensionMismatch("the data has no samples")
    y = None
    if score.keeps_state:
        y = g @ X
        score.update(y)
    newton = variant == "newton"
    uf, yf, fp = np.zeros(N), 0.0, 0.0
    for start in range(0, T, _STEP_BLOCK):
        X_b = X[:, start:start + _STEP_BLOCK]
        y_b = g @ X_b if y is None else y[start:start + _STEP_BLOCK]
        if newton:
            f_b, fp_b = score.f_and_fprime(y_b)
            fp += float(np.sum(fp_b))
        else:
            f_b = score.f(y_b)
        uf += X_b @ f_b
        yf += float(y_b @ f_b)
    euf = uf / T
    beta = yf / T
    if newton:
        g_plus = euf - (fp / T) * g
    elif variant == "fixed_point":
        g_plus = euf
    else:
        g_plus = g + mu * (euf - beta * g)
    norm = np.linalg.norm(g_plus)
    if norm < _NORM_FLOOR:
        raise ZeroUpdate(f"update norm {norm:.3e} below {_NORM_FLOOR:.0e}")
    g_plus = fix_signs(g_plus / norm)
    return OneUnitState(g=g_plus, beta=beta, iteration=state.iteration + 1)


def deflate_extract(U, score, count: int, variant: str = "newton", max_iterations: int = 200,
                    tolerance: float = 1e-10, seed: int = 0) -> Separator:
    """Extract ``count`` units sequentially with Gram-Schmidt deflation.

    ``score`` is either a ScoreFunction instance (shared across units) or a
    zero-argument callable producing a fresh instance per unit, which is the
    right choice for state-tracking scores.  Each unit iterates until the
    direction settles: |<g_k+1, g_k>| > 1 - tolerance.

    Raises NotConverged with the failing row index when a unit stalls.
    """
    X = _as_data(U)
    N = X.shape[0]
    if not (1 <= count <= N):
        raise InvalidSpec(f"count must lie in 1..{N}, got {count}")
    rng = np.random.default_rng(seed)
    rows = []
    for r in range(count):
        unit_score = score() if callable(score) else score
        R = np.array(rows).reshape(r, N)  # the units found so far
        g = rng.standard_normal(N)
        g = g - R.T @ (R @ g)
        g = g / np.linalg.norm(g)
        state = OneUnitState(g=g)
        for _ in range(max_iterations):
            prev = state.g
            state = fastica_step(state, X, unit_score, variant=variant)
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
    return Separator(matrix=np.vstack(rows))


def cma_step(g, u, step_size: float):
    """Constant-modulus stochastic step: g - mu (y^2 - 1) y u, y = g.u.

    No normalization is applied; the modulus target itself controls scale.
    """
    g = np.asarray(g, dtype=float)
    u = np.asarray(u, dtype=float).ravel()
    y = float(g @ u)
    return g - step_size * (y * y - 1.0) * y * u


def cma(U, step_size: float = 0.01, epochs: int = 1):
    """Constant-modulus adaptation of one demixing vector on sphered data.

    Starts from the first unit vector and runs cma_step over every sample,
    ``epochs`` times.  Returns (g, trajectory), trajectory holding g after
    each epoch.  A diverging run overflows to inf and then NaN; it raises
    Diverged at the first such operation instead of iterating on NaN.
    """
    if epochs < 1:
        raise InvalidSpec(f"epochs must be at least 1, got {epochs}")
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


def donoho_contrast(g, U) -> float:
    """|c4(y)| / c2(y)^2 for the output y = g.u; scale-invariant."""
    return abs(kurtosis(np.asarray(g, dtype=float) @ _as_data(U)))
