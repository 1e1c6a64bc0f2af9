"""Fixed-point extraction: one-unit iterations, deflation, symmetric FastICA, CMA steps.

All routines here work in sphered coordinates.  A fixed-point step maps one
demixing vector g, or each row of a block of them, to its update g+.  Full
separators come from deflating one unit at a time or from stepping every
row at once and restoring orthogonality with the polar factor.  Every
deflation unit and algebraic.hopm run one loop, _unit_search, which raises
ZeroUpdate when a step, or what deflation leaves of it, vanishes;
symmetric_extract runs _symmetric_search, which raises it when the step
matrix loses a direction.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import DimensionMismatch, Diverged, InvalidSpec, NotConverged, RankDeficient, ZeroUpdate
from .moments import _contract3, _covariance, _pair_gram, kurtosis
from .scores import CubicScore, _score_call
from .second_order import _RANK_TOLERANCE, Separator, _polar, _sorted_eigh, fix_signs
from .signals import _as_data, _blocks, _checked_seed

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
# the loose bound on every row's 1 - |<g+, g>| of symmetric_extract's _two_precision
_SYMMETRIC_SETTLED = 1e-6

VARIANTS = ("newton", "fixed_point", "gradient")
EXTRACTION_VARIANTS = VARIANTS[:2]  # the gradient variant needs a step size, which neither extraction takes


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
    with a = W^T g, and E[u f(y)] = W (E[x f(y)] - m E[f(y)]).  Without
    one, U is taken as sphered (W = I, m = 0): the moments are uncentred.

    The expectations are summed over blocks of _STEP_BLOCK samples in one
    pass, and f' is evaluated for the newton variant only.  A score that
    keeps state is first fed all of y = a.x - a.m through update(), the one
    array as long as the data that is built, so f has this step's sign.
    """
    if variant not in VARIANTS:
        raise InvalidSpec(f"variant must be one of {VARIANTS}, got {variant!r}")
    if variant == "gradient" and mu is None:
        raise InvalidSpec("gradient variant needs a step size mu")
    X = _as_data(U)
    W, m = (np.eye(len(X)), np.zeros(len(X))) if whitener is None else whitener._affine(X)
    g = np.asarray(state.g, dtype=float)
    if g.shape != (len(W),):
        raise DimensionMismatch(f"g has shape {g.shape} for {len(W)} channels")
    if score.keeps_state:
        score.update((W.T @ g) @ X - g @ (W @ m))
    g_plus, beta = _streamed_step(g, X, W, m, [score], variant, mu)
    return OneUnitState(g=fix_signs(_unit(g_plus)), beta=float(beta), iteration=state.iteration + 1)


def _streamed_step(G, X, W, m, scores, variant: str, mu=None):
    """fastica_step's (g+, beta), g+ unnormalized, for the unit G, or for each row of a k x N block G.

    X holds data already checked, read as u = W (x - m), and ``scores`` one
    score per unit, taken as it stands (no update()).  Each block of samples
    takes one k x M product for the outputs, and its sums are k-vectors.
    Every array takes the precision of X, G, W and m, so float32 operands
    step in float32.  beta = E[y f(y)] is read as g . E[u f(y)], which it
    equals because y = g.u.
    """
    M, T = X.shape
    A, shift = (W.T @ G.T).T, (G @ (W @ m))[..., None]  # a = W^T g and a.m, for each unit
    newton = variant == "newton"
    score = _score_call(scores, "f_and_fprime" if newton else "f", len(scores))  # one call per block for each group
    units = G.shape[:-1]  # () for one unit, (k,) for a block
    xf, fs, fp = np.zeros((M,) + units, X.dtype), np.zeros(units, X.dtype), np.zeros(units, X.dtype)
    ones = np.ones(min(T, _STEP_BLOCK), X.dtype)  # a block's sums as BLAS products, which beat np.sum here
    for X_b in _blocks(X, _STEP_BLOCK):
        ones_b = ones[:X_b.shape[1]]
        Y_b = A @ X_b - shift
        if newton:
            F_b, Fp_b = score(Y_b)
            fp += ones_b @ Fp_b.T
        else:
            F_b = score(Y_b)
        xf += X_b @ F_b.T
        fs += ones_b @ F_b.T
    euf = (W @ (xf / T - np.multiply.outer(m, fs / T))).T  # E[u f(y)] = W (E[x f(y)] - m E[f(y)])
    beta = np.sum(G * euf, axis=-1)
    if newton:
        return euf - (fp / T)[..., None] * G, beta
    if variant == "fixed_point":
        return euf, beta
    return G + mu * (euf - beta[..., None] * G), beta


def _cubic_moment_step(m4: np.ndarray, m2: np.ndarray, newton: bool):
    """_streamed_step's g+ for CubicScore as a contraction of the data's moments.

    The data are read once, by _pair_gram, into m4, the unfolding of every
    E[u_i u_j u_k u_l], and m2 = E[u u^T].  A step then costs O(N^4) a unit
    and reads neither: E[u y^3] = m4 . g . g . g (_contract3) and
    E[y^2] = g.m2 g, for the unit g or for each row of a block.
    """
    def step(G):
        euy3 = _contract3(m4, G)
        return euy3 - 3.0 * np.sum(G @ m2 * G, axis=-1)[..., None] * G if newton else euy3

    return step


def _unit(g: np.ndarray, found: np.ndarray | None = None) -> np.ndarray:
    """g without its components along the orthonormal rows of ``found``, normalized; ZeroUpdate if it vanishes."""
    if found is not None:
        g = g - found.T @ (found @ g)
    norm = np.linalg.norm(g)
    if norm < _NORM_FLOOR:
        raise ZeroUpdate(f"direction norm {norm:.3e} below {_NORM_FLOOR:.0e}")
    return g / norm


def _unit_search(step, g: np.ndarray, found: np.ndarray, max_iterations: int, tolerance: float) -> np.ndarray:
    """Iterate g <- step(g) on the unit sphere from a unit g orthogonal to the orthonormal rows of ``found``.

    Each iteration normalizes g+ = step(g), deflates it against found and
    normalizes again (_unit), until 1 - |<g+, g>| < tolerance.  The result
    is sign-fixed once: every step is odd in g and negation is exact, so
    that equals fixing it every iteration.  NotConverged(index=len(found))
    at the cap.
    """
    for _ in range(max_iterations):
        g_plus = _unit(step(g))
        if len(found):
            g_plus = _unit(g_plus, found)
        if 1.0 - abs(float(g_plus @ g)) < tolerance:
            return fix_signs(g_plus)
        g = g_plus
    raise NotConverged(f"unit {len(found)} did not settle in {max_iterations} iterations", index=len(found))


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


def _extraction(U, score, count, variant: str, max_iterations: int, tolerance: float, seed, whitener):
    """The set-up both extractions share: (X, W, m, rng, scores, step, E[u u^T], the rank floor).

    ``count`` (None: one unit per sphered channel), the variant and the
    stop rule are checked before the data are read.  The path is fixed for
    the run: when every score is exactly CubicScore and N <= _MOMENT_MAX_N,
    the data are read once into their fourth moments and ``step`` is
    _cubic_moment_step's; otherwise it is None and every step streams the
    data.  E[u u^T] is read with the fourth moments or by a covariance pass.
    The rank floor is _RANK_TOLERANCE times its largest eigenvalue; with
    count None, RankDeficient when its smallest lies below the floor.
    """
    X = _as_data(U)
    W, m = (np.eye(len(X)), np.zeros(len(X))) if whitener is None else whitener._affine(X)
    N = len(W)
    if count is not None and not 1 <= count <= N:
        raise InvalidSpec(f"count must lie in 1..{N}, got {count}")
    if variant not in EXTRACTION_VARIANTS:
        raise InvalidSpec(f"variant must be one of {EXTRACTION_VARIANTS}, got {variant!r}")
    _check_stop_rule(max_iterations, tolerance)
    rng = np.random.default_rng(_checked_seed(seed))
    scores = [score() if callable(score) else score for _ in range(count or N)]
    if N <= _MOMENT_MAX_N and all(type(s) is CubicScore for s in scores):
        m4, m2 = _pair_gram(X) if whitener is None else _pair_gram(X, m, W)
        step = _cubic_moment_step(m4, m2, newton=variant == "newton")
    else:
        step, m2 = None, W @ _covariance(X, m) @ W.T
    eigvals = _sorted_eigh(m2)[0]
    floor = _RANK_TOLERANCE * eigvals[0]
    if count is None and eigvals[-1] < floor:
        raise RankDeficient(f"the data have rank {int(np.sum(eigvals >= floor))} below their {N} channels: "
                            "some unit would lie in their null space")
    return X, W, m, rng, scores, step, m2, floor


def deflate_extract(U, score, count: int, variant: str = "newton", max_iterations: int = 200,
                    tolerance: float = 1e-10, seed: int = 0, whitener=None) -> Separator:
    """Extract ``count`` units sequentially with Gram-Schmidt deflation.

    ``score`` is either a ScoreFunction instance (shared across units) or a
    zero-argument callable producing a fresh instance per unit; the two run
    alike, as no step feeds a score's state.  Each unit runs _unit_search
    from a seeded random start, deflated against the units found so far,
    until the direction settles: 1 - |<g_k+1, g_k>| < tolerance, with
    0 < tolerance < 1.  Only the newton and fixed_point variants run here.

    The run fixes its path before the first unit (see _extraction): units
    whose scores are all exactly CubicScore, on at most _MOMENT_MAX_N
    channels, contract the data's fourth moments; any other run (a factory
    that mixes score kinds too) streams the data on each step, each unit
    with its own score, as fastica_step does.  With a fitted ``whitener``,
    U is raw data read through it as fastica_step reads it, count is at
    most its detected_rank, and the result applies to U.  Without one, U is
    taken as sphered (W = I, m = 0) and both paths take uncentred moments,
    whereas estimate_cum4 centres.

    Raises NotConverged with the failing row index when a unit stalls, and
    RankDeficient when a settled unit's output power E[y^2] falls below
    whiten's null-direction floor, _RANK_TOLERANCE times E[u u^T]'s largest
    eigenvalue: the unit then lies in the data's null space.
    """
    X, W, m, rng, scores, step, m2, floor = _extraction(U, score, count, variant, max_iterations, tolerance, seed,
                                                        whitener)
    steps = [step] * count if step else [lambda g, s=s: _streamed_step(g, X, W, m, [s], variant)[0] for s in scores]
    units = np.empty((count, len(W)))
    for r, step in enumerate(steps):
        found = units[:r]
        g = _unit_search(step, _unit(rng.standard_normal(len(W)), found), found, max_iterations, tolerance)
        if g @ m2 @ g < floor:
            raise RankDeficient(f"unit {r} has output power below the rank floor: it lies in the data's null space")
        units[r] = g
    return Separator(matrix=units @ W, whitener=whitener)


def symmetric_extract(U, score, variant: str = "newton", max_iterations: int = 200, tolerance: float = 1e-10,
                      seed: int = 0, whitener=None) -> Separator:
    """Extract one unit per sphered channel at once: symmetric FastICA (Hyvarinen, IEEE TNN 10(3), 1999).

    ``score``, ``variant``, ``seed`` and ``whitener`` are read as
    deflate_extract reads them.  G starts as the polar factor of a seeded
    Gaussian N x N matrix; each iteration steps every row of G and takes
    the polar factor of the result, until every row settles,
    1 - |<g+, g>| < tolerance.  No unit inherits the errors of the units
    found before it, as deflation's do.

    The path is deflate_extract's.  A streamed iteration reads the data
    once for all rows, in two precisions (_two_precision): the float32 copy
    is the sphered data, and the rows are made orthonormal in float64, as
    their float32 rounding would read as a move of ~1e-8.  The result's
    ``iterations`` counts both phases.

    Raises RankDeficient before any step when E[u u^T] has an eigenvalue
    below deflate_extract's rank floor, as N orthonormal rows cannot all
    stay out of the data's null space; NotConverged at the cap, indexed by
    the first unsettled row; and ZeroUpdate when the step matrix's smallest
    singular value falls below _NORM_FLOOR times its largest.
    """
    X, W, m, rng, scores, step, *_ = _extraction(U, score, None, variant, max_iterations, tolerance, seed, whitener)
    G = _polar(rng.standard_normal((len(W), len(W))))
    if step:
        G, iterations, unsettled = _symmetric_search(step, G, 0, max_iterations, tolerance)
    else:
        def search(data, G, *counts):
            return _symmetric_search(lambda G: _streamed_step(G, *data, scores, variant)[0], G, *counts)

        G, iterations, unsettled = _two_precision(search, (X, W, m), G, max_iterations, (_SYMMETRIC_SETTLED, tolerance),
                                                  _sphered_float32, lambda G32: _polar(G32.astype(float)))
    if len(unsettled):
        raise NotConverged(f"rows {unsettled.tolist()} did not settle in {max_iterations} iterations",
                           index=int(unsettled[0]))
    G = fix_signs(G.T).T  # every step and the polar factor are odd in each row, so once is enough
    return Separator(matrix=G @ W, whitener=whitener, iterations=iterations)


def _symmetric_search(step, G: np.ndarray, iterations: int, cap: int, tolerance: float):
    """Iterate G <- polar factor of step(G) from an orthogonal G, until every row settles or the count reaches cap.

    A row settles when 1 - |<g+, g>| < tolerance.  Returns (G, iterations,
    the indices of the rows that have not settled).  ZeroUpdate when the
    step matrix's smallest singular value falls below _NORM_FLOOR times
    its largest: the rows then no longer span N directions.
    """
    unsettled = np.arange(len(G))
    while len(unsettled) and iterations < cap:
        iterations += 1
        G_plus = _polar(step(G), _NORM_FLOOR)
        unsettled = np.flatnonzero(~(1.0 - np.abs(np.sum(G_plus * G, axis=1)) < tolerance))
        G = G_plus
    return G, iterations, unsettled


def _two_precision(search, data, start: np.ndarray, cap: int, bounds, copy, lift):
    """Run search on a float32 copy of its data while it settles loosely, then on the data in float64.

    search(data, iterate, count, cap, bound) goes on from ``count`` done
    iterations until its progress falls below ``bound`` or the count
    reaches ``cap``, and returns (iterate, count, ...).  It runs first on
    copy(data) from the start cast to float32, for at most cap - 1
    iterations, to the looser of ``bounds`` = (loose, tight).  The copy is
    dropped, and the search goes on in float64 to the tight bound, from
    lift(iterate) or, if no float32 iteration ran, from the exact start:
    cap counts both phases, and the last iteration is always float64.
    """
    low = copy(data)
    iterate, count, *_ = search(low, start.astype(np.float32), 0, cap - 1, max(bounds))
    del low  # freed before the float64 iterations
    return search(data, lift(iterate) if count else start, count, cap, bounds[1])


def _sphered_float32(data):
    """The data (X, W, m) as (Z, I, 0) in float32, Z = W (x - m) formed block by block in float64 by _blocks."""
    X, W, m = data
    Z = np.empty((len(W), X.shape[1]), dtype=np.float32)
    for Z_b, block in zip(_blocks(Z, _STEP_BLOCK), _blocks(X, _STEP_BLOCK, m, W)):
        Z_b[:] = block
    return Z, np.eye(len(W), dtype=np.float32), np.zeros(len(W), dtype=np.float32)


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
    g = np.zeros(len(X))
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
                for X_b in _blocks(X, B):
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
