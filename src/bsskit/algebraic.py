"""Algebraic separation: tensor decompositions of the fourth-order cumulant.

Most of it works on the estimated (or exact) cumulant tensor: Jacobi
rotations that concentrate its mass on the diagonal, joint diagonalization
of eigenmatrices, higher-order EVD, the power method (on fixedpoint's unit
search), unconstrained PARAFAC and the two-stage rank-one initializer.  The
constant-modulus solvers built on the same Kronecker-square structure,
unimodal_equalizer and deterministic_cm, stream the data themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrum,
    Diverged,
    DimensionMismatch,
    InvalidSpec,
    NotConverged,
    RankDeficient,
    SingularLS,
    ZeroContraction,
    ZeroUpdate,
)
from .fixedpoint import _check_stop_rule, _two_precision, _unit, _unit_search
from .moments import (_PAIR_BLOCK, Cumulant4Tensor, _contract3, _cum4, _cumulant_matrix, _pair_products,
                      tucker_transform, unfold)
from .second_order import Separator, Whitener, _fitted, _sorted_eigh, fix_signs
from .signals import _as_data, window_stack

UNIMODAL_INITS = ("fourth_order", "zero")
# windows per block of the unimodal equalizer's W recursion
_UNIMODAL_BLOCK = 64
_G_RANGE = np.finfo(float).tiny ** np.array([0.5, -0.5])  # norms of g whose squares are normal
# _cum_unfolding_power's (loose, tight) bounds for _two_precision on the
# max-abs change of V in one pass
_INIT_SETTLED = (1e-4, 1e-13)


def _pair_coefficients(t0, t1, t2, t3, t4):
    # In phi = 4 theta the diagonal mass of a pair with entries (C_iiii, C_iiij,
    # C_iijj, C_ijjj, C_jjjj) is exactly a0 + Re(c1 e^{i phi} + c2 e^{2i phi});
    # c1 and c2 as derived symbolically from its quartic multinomial expansion
    w = complex(t0 - 6.0 * t2 + t4, 4.0 * (t3 - t1))
    c1 = complex(7.0 * (t0 * t0 + t4 * t4) - 12.0 * t2 * (t0 + t4) - 2.0 * t0 * t4
                 - 16.0 * (t1 * t1 + t3 * t3) - 36.0 * t2 * t2 - 32.0 * t1 * t3,
                 4.0 * (7.0 * (t3 * t4 - t0 * t1) + 6.0 * t2 * (t3 - t1) + t1 * t4 - t0 * t3))
    return c1 / 16.0, w * w / 64.0


def _cumulant_pair_angle(V, P):
    # The pair's 2^4 block of the rotated tensor: V contracted with the rows
    # P on every mode.  The mass peaks at a unit-circle root of its derivative
    # times 2 z^2 / i, 2 c2 z^4 + c1 z^3 - conj(c1) z - 2 conj(c2); np.roots
    # drops a vanishing c2 and solves the cubic left, whose roots then hold
    # phi = -arg c1.  phi = 0 stays a candidate so the gain is never < 0.
    N = P.shape[1]
    B = (P @ V.reshape(N, -1)).reshape(-1, N) @ P.T
    B = P @ (P @ B.reshape(2, N, 2 * N)).reshape(4, N, 2)
    c1, c2 = _pair_coefficients(*B.ravel()[[0, 1, 3, 7, 15]].tolist())
    roots = np.roots([2.0 * c2, c1, 0.0, -c1.conjugate(), -2.0 * c2.conjugate()])
    z = np.concatenate(([1.0], np.exp(1j * np.angle(roots))))
    gains = (c1 * (z - 1.0) + c2 * (z * z - 1.0)).real
    best = int(np.argmax(gains))
    return float(np.angle(z[best])) / 4.0, float(gains[best])


def _joint_pair_angle(A, P):
    # The summed squared diagonals of the blocks P A_k P^T, as a function of
    # the rotated diagonal difference h cos 2 theta + o sin 2 theta, peak at
    # 4 theta = atan2(2 h.o, h.h - o.o).  The gain reported is |sin theta|:
    # this solver's tolerance bounds the size of a rotation, not its gain.
    B = P @ A @ P.T
    h = B[:, 0, 0] - B[:, 1, 1]
    o = B[:, 0, 1] + B[:, 1, 0]
    theta = math.atan2(float(2.0 * (h @ o)), float(h @ h - o @ o)) / 4.0
    return theta, abs(math.sin(theta))


def _pair_sweep(A, pair_angle, sweep_tolerance, max_sweeps):
    # Jacobi sweeps over index pairs that rotate only Q, rows form: row i of
    # Q is the i-th new coordinate.  A (an N^4 tensor or a K x N x N stack)
    # stays as given; pair_angle(A, P) reads the pair's entries of the
    # rotated array through its two rows P = Q[[i, j]] and returns the
    # pair's Givens angle and its gain, the progress measure sweep_tolerance
    # bounds.  A pair is rotated whenever its gain is positive; the sweeps
    # stop once no pair of a sweep gained sweep_tolerance or more.
    _check_stop_rule(max_sweeps, sweep_tolerance, np.inf)
    N = A.shape[-1]
    Q = np.eye(N)
    for _ in range(max_sweeps):
        best_gain = 0.0
        for i in range(N):
            for j in range(i + 1, N):
                P = Q[[i, j]]
                theta, gain = pair_angle(A, P)
                if gain <= 0.0:
                    continue
                best_gain = max(best_gain, gain)
                c, s = math.cos(theta), math.sin(theta)
                Q[i] = c * P[0] + s * P[1]
                Q[j] = -s * P[0] + c * P[1]
        if best_gain < sweep_tolerance:
            return Q
    raise NotConverged(f"pair sweeps did not settle in {max_sweeps} sweeps")


def jacobi_diagonalize(C: Cumulant4Tensor, sweep_tolerance: float = 1e-10, max_sweeps: int = 50) -> np.ndarray:
    """Diagonalize a cumulant tensor by pairwise Jacobi rotations.

    For every pair the rotation angle in (-pi/4, pi/4] maximizing the pair's
    diagonal mass is found in closed form (Comon 1994): the mass is a
    trigonometric polynomial of degree two in 4 theta, with coefficients
    polynomial in the pair's five entries, and its maximizer is a root of a
    quartic.  Only Q is rotated; each pair's entries are read through two
    rows of Q from C as given.  A rotation is applied only when it strictly
    increases the mass.  Sweeps stop when the best single-rotation gain falls
    below ``sweep_tolerance``; NotConverged is raised when ``max_sweeps``
    sweeps pass without that.

    Returns the orthogonal demixing rotation Q: tucker_transform(C, Q) is
    the (locally) most diagonal representative.
    """
    if C.dim < 2:
        raise InvalidSpec("need at least a 2 x 2 x 2 x 2 tensor")
    return _pair_sweep(C.values, _cumulant_pair_angle, sweep_tolerance, max_sweeps)


def joint_diagonalize(matrices, sweep_tolerance: float = 1e-12, max_sweeps: int = 100) -> np.ndarray:
    """Jointly diagonalize the symmetric parts of a set of matrices by Jacobi sweeps.

    Each pair rotation maximizes the summed squared diagonals of the whole
    set in closed form, so the off-diagonal objective never increases; only
    Q is rotated, and each pair's 2 x 2 blocks are read through two rows of Q.
    Sweeps stop when no rotation of a sweep has |sin theta| of
    ``sweep_tolerance`` or more; NotConverged is raised when ``max_sweeps``
    sweeps pass without that.  Returns orthogonal Q whose columns are the joint
    eigenvectors: Q.T A_k Q is (as nearly as possible) diagonal for every k.
    """
    A = np.array([np.asarray(M, dtype=float) for M in matrices])
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise DimensionMismatch("need a set of square matrices of one size")
    A = (A + A.transpose(0, 2, 1)) / 2.0
    Q = _pair_sweep(A, _joint_pair_angle, sweep_tolerance, max_sweeps)
    return fix_signs(Q.T)


def jade_rotation(C: Cumulant4Tensor) -> np.ndarray:
    """Joint diagonalizer of the N most significant eigenmatrices of C.

    The 2x2 unfolding is eigendecomposed; the N eigenvectors of largest
    magnitude eigenvalue are reshaped to eigenmatrices, weighted by their
    eigenvalues, and jointly diagonalized, which takes their symmetric parts.
    """
    N = C.dim
    eigvals, eigvecs = _sorted_eigh(unfold(C, "2x2"), by_magnitude=True)
    return joint_diagonalize([lam * v.reshape(N, N) for lam, v in zip(eigvals[:N], eigvecs.T[:N])])


def jade(U) -> Separator:
    """Separate raw data by joint diagonalization of cumulant slices.

    Fits a whitener to U and reads the cumulant tensor of the sphered data
    from U through it, as estimate_cum4 does, checking U once and building
    no sphered copy.  The returned separator folds the whitener in.
    """
    whitener, X = _fitted(U)
    Q = jade_rotation(_cum4(X, whitener.mean, whitener.matrix))
    return Separator(matrix=Q.T @ whitener.matrix, whitener=whitener)


def hoevd(C: Cumulant4Tensor):
    """Higher-order EVD: shared factor from the 1x3 unfolding.

    Returns (factor, core) with factor N x N orthogonal (left singular
    vectors, sign-fixed, singular values descending) and
    core = tucker_transform(C, factor.T), so tucker_transform(core, factor)
    reconstructs C.
    """
    M = unfold(C, "1x3")
    left, _, _ = np.linalg.svd(M, full_matrices=False)
    factor = fix_signs(left)
    core = tucker_transform(C, factor.T)
    return factor, core


def hopm(C: Cumulant4Tensor, init=None, max_iterations: int = 500, tolerance: float = 1e-12):
    """Higher-order power method for the dominant symmetric rank-1 term.

    Iterates g <- C . g . g . g (contraction on three modes) in
    fixedpoint._unit_search, the loop every deflation unit runs, from the
    leading HO-EVD factor or ``init``.  Convergence is on the direction, so
    eigenvalue sign flips do not stall it: 1 - |<g+, g>| < tolerance, with
    0 < tolerance < 1.  Returns (lambda, g), g sign-fixed and lambda = C
    contracted with g on all four modes.  ZeroUpdate when init or a
    contraction vanishes.
    """
    _check_stop_rule(max_iterations, tolerance)
    V = C.values.reshape(C.dim**2, -1)  # the 2x2 unfolding
    if init is None:
        g = hoevd(C)[0][:, 0]
    else:
        g = np.asarray(init, dtype=float).ravel()
        if g.shape != (C.dim,):
            raise DimensionMismatch(f"init has shape {g.shape} for dimension {C.dim}")
        g = _unit(g)
    g = _unit_search(lambda g: _contract3(V, g), g, np.empty((0, C.dim)), max_iterations, tolerance)
    gg = np.outer(g, g).ravel()
    return float(gg @ V @ gg), g


@dataclass(frozen=True)
class ParafacFactors:
    """Symmetric CP description: unit-norm factor columns plus weights.

    The reconstruction sum_j weights[j] * h_j (x) h_j (x) h_j (x) h_j uses
    column j of ``factor``.  ``converged`` is False when the cycle limit was
    hit; ``error_trajectory`` holds the unconstrained four-factor fit error
    after each completed cycle.
    """

    factor: np.ndarray
    weights: np.ndarray
    converged: bool = True
    error_trajectory: tuple = ()

    def reconstruction(self) -> np.ndarray:
        H = self.factor
        return np.einsum("j,ij,kj,lj,mj->iklm", self.weights, H, H, H, H)


def _khatri_rao(mats):
    out = mats[0]
    for M in mats[1:]:
        out = (out[:, None, :] * M[None, :, :]).reshape(-1, M.shape[1])
    return out


def kruskal_check(M: int, N: int) -> bool:
    """Uniqueness bound for N symmetric rank-1 terms in dimension M: 4M >= 2N + 3."""
    if not (isinstance(M, (int, np.integer)) and isinstance(N, (int, np.integer))):
        raise InvalidSpec("dimensions must be integers")
    if M < 1 or N < 1:
        raise InvalidSpec(f"dimensions must be positive, got M={M}, N={N}")
    return 4 * M >= 2 * N + 3


def parafac_als(C: Cumulant4Tensor, r: int, init: ParafacFactors | None = None,
                max_iterations: int = 200, tolerance: float = 1e-10) -> ParafacFactors:
    """Unconstrained 4-mode alternating least squares, rank ``r``.

    The four factor matrices evolve independently (symmetry is not imposed)
    and are folded into a symmetric description at the end: columns of the
    mode-1 factor are normalized and the weights refitted by least squares
    on the symmetrized dictionary.  Initialized from the truncated HO-EVD
    factor unless ``init`` is given.
    """
    N = C.dim
    if not (1 <= r <= N):
        raise InvalidSpec(f"rank must lie in 1..{N}, got {r}")
    _check_stop_rule(max_iterations, tolerance, np.inf)
    if init is None:
        base = hoevd(C)[0][:, :r]
    else:
        base = np.asarray(init.factor, dtype=float)[:, :r]
        if base.shape != (N, r):
            raise DimensionMismatch(f"init factor {init.factor.shape} does not fit (N={N}, r={r})")
    factors = [base.copy() for _ in range(4)]
    V = C.values
    unfolded = V.reshape(N, N**3)  # every mode's unfolding, as V is exactly symmetric
    norm_c = np.linalg.norm(V)
    errors = []
    converged = False
    for _ in range(max_iterations):
        for mode in range(4):
            others = [factors[m] for m in range(4) if m != mode]
            gram = np.ones((r, r))
            for A in others:
                gram = gram * (A.T @ A)
            if np.linalg.cond(gram) > 1e12:
                raise SingularLS("factor Gram product is numerically singular")
            Z = _khatri_rao(others)
            factors[mode] = unfolded @ Z @ np.linalg.inv(gram)
        recon = np.einsum("ir,jr,kr,lr->ijkl", *factors)
        err = float(np.linalg.norm(V - recon))
        errors.append(err)
        if len(errors) > 1 and abs(errors[-2] - err) <= tolerance * max(1.0, norm_c):
            converged = True
            break

    H = factors[0].copy()
    norms = np.linalg.norm(H, axis=0)
    if np.any(norms < 1e-12):
        raise SingularLS("a factor column collapsed to zero")
    H = H / norms
    H = fix_signs(H)
    gram = (H.T @ H) ** 4
    rhs = np.einsum("ijkl,ir,jr,kr,lr->r", V, H, H, H, H)
    if np.linalg.cond(gram) > 1e12:
        raise SingularLS("symmetrized dictionary is numerically singular")
    weights = np.linalg.solve(gram, rhs)
    return ParafacFactors(factor=H, weights=weights, converged=converged,
                          error_trajectory=tuple(errors))


@dataclass(frozen=True)
class Rank1Init:
    """Two-stage rank-one initialization of a kurtosis search.

    eigenvalue: dominant-magnitude eigenvalue of the 2x2 unfolding.
    matrix:     its eigenvector reshaped and symmetrized (the W matrix).
    varsigma:   dominant-magnitude eigenvalue of that matrix.
    g0:         the corresponding unit eigenvector, the initial separator.
    """

    g0: np.ndarray
    eigenvalue: float
    varsigma: float
    matrix: np.ndarray


def rank1_init(C: Cumulant4Tensor) -> Rank1Init:
    """Initialize a one-unit search from the cumulant unfolding.

    Takes the dominant-magnitude eigenvector of the 2x2 unfolding,
    reshapes and symmetrizes it into W, and reads the initial
    separator off W's dominant eigenvector.  The dominant eigenvalue must be
    isolated: a tie (within 1e-8 in magnitude) leaves the eigenvector, and
    hence the initialization, undetermined.
    """
    N = C.dim
    eigvals, eigvecs = _sorted_eigh(unfold(C, "2x2"), by_magnitude=True)
    if N > 1 and abs(abs(eigvals[0]) - abs(eigvals[1])) < 1e-8:
        raise DegenerateSpectrum(
            f"two leading unfolding eigenvalues have magnitudes "
            f"{abs(eigvals[0]):.6e} and {abs(eigvals[1]):.6e}"
        )
    W = eigvecs[:, 0].reshape(N, N)
    W = (W + W.T) / 2.0
    varsigmas, vectors = _sorted_eigh(W, by_magnitude=True)
    return Rank1Init(g0=vectors[:, 0], eigenvalue=float(eigvals[0]), varsigma=float(varsigmas[0]), matrix=W)


def _cum_unfolding_power(Z, iterations: int = 16):
    # Dominant-magnitude eigenmatrix of the cumulant 2x2 unfolding of
    # sphered data Z, via iteration on the implicit operator
    #   V -> cumulant_matrix(Z, V),
    # which never materializes the K^4 tensor.  For i.i.d. finite-alphabet
    # window content the operator is -|c4| times the source-coordinate
    # diagonal of V, so its extremal eigenspace is massively degenerate and
    # plain power iteration cannot pick a member.  Each operator step is
    # therefore followed by a matrix squaring: V @ V stays inside that
    # eigenspace while squaring the hidden diagonal profile, so the iterate
    # collapses onto a single rank-one vertex at double-exponential rate.
    # The early passes only pick that vertex, so the passes run in two
    # precisions (fixedpoint._two_precision, to the bounds _INIT_SETTLED),
    # at most ``iterations`` of them in all.
    X = _as_data(Z)
    x0 = X[:, 0]
    V = np.outer(x0, x0)  # anisotropic start; its hidden profile has a generic argmax
    norm = np.linalg.norm(V)
    if norm < 1e-15:
        raise ZeroContraction("leading window is zero")
    V /= norm
    V, _, lam = _two_precision(_unfolding_passes, X, V, iterations, _INIT_SETTLED,
                               lambda X: X.astype(np.float32), lambda V: V.astype(float))
    return lam, V


def _unfolding_passes(X, V, passes, cap, settled):
    """_cum_unfolding_power's passes in the precision of X and V, until V moves
    less than ``settled`` or the pass count reaches ``cap``; returns (V, count, eigenvalue)."""
    lam = 0.0
    while passes < cap:
        passes += 1
        W = _cumulant_matrix(X, V)
        W = (W + W.T) / 2.0
        norm = np.linalg.norm(W)
        if norm < 1e-15:
            raise ZeroContraction("cumulant operator annihilated the iterate")
        lam = float(np.sum(V * W))
        V, previous = W @ W, V
        V /= np.linalg.norm(V)
        if np.max(np.abs(V - previous)) < settled:
            break
    return V, passes, lam


@dataclass(frozen=True)
class UnimodalResult:
    """Outcome of the online constant-modulus eigenvector search.

    g and W live in the sphered window coordinates defined by ``whitener``;
    trajectory holds g after each epoch.  max_g_norm_dev and
    max_w_asymmetry are running diagnostics of the invariants the recursion
    keeps up to rounding (unit norm of g, symmetry of W).
    """

    g: np.ndarray
    trajectory: tuple
    W: np.ndarray
    whitener: Whitener
    window_length: int
    eigenvalue: float
    max_g_norm_dev: float
    max_w_asymmetry: float

    def outputs(self, U) -> np.ndarray:
        """Equalizer output sequence for a raw sensor stream.

        One GEMV over the raw windows: y = a^T (x - m) = a^T x - a^T m with
        a = T_w^T g, so no centred or sphered copy of the windows is built.
        """
        windows = window_stack(U, self.window_length)
        transform, mean = self.whitener._affine(windows)
        a = self.g @ transform
        return a @ windows - a @ mean


def unimodal_equalizer(U, mu1: float, mu2: float, L: int, epochs: int = 1,
                       init: str = "fourth_order") -> UnimodalResult:
    """Blind equalization via the approximate-contrast eigenvector recursion.

    The sensor stream is stacked into depth-L windows and sphered; then, per
    window u:

        W <- W + [mu1 / (1 + mu1 ||u (x) u||^2)] (1 - u^T W u) u u^T
        g <- (g + mu2 W g) / ||g + mu2 W g||

    W estimates the matrix whose quadratic form approximates the normalized
    kurtosis contrast, and g climbs it like a power iteration.  With
    ``init="fourth_order"`` W starts from the fourth-order initialization:
    an extremal eigenmatrix of the cumulant unfolding, driven to a rank-one
    member of its (degenerate) eigenspace and scaled so the modulus target
    matches.  On long data the passes settle on that vertex, an exact fixed
    point of the W recursion for unit-modulus window content; on short data
    they may stop short of it, and the recursion then starts from the last
    iterate.  The eigenmatrix comes from at most 16 passes of the implicit
    cumulant operator, run in two precisions (fixedpoint._two_precision):
    the early passes only pick the vertex, and ``eigenvalue`` and W are
    float64.  ``init="zero"`` starts the recursion bare.

    The W recursion runs exactly, but a block X_b = [u_1 ... u_B] of B = 64
    windows at a time.  Window t's coefficient c_t = gain_t (1 - u_t^T W u_t)
    sees the block's earlier updates c_s u_s u_s^T only through
    (u_s^T u_t)^2, so with W_b the matrix at the block's start the
    coefficients solve one unit-lower-triangular system

        (I + diag(gain) L) c = gain * (1 - diag(X_b^T W_b X_b)),
        L_ts = (u_s^T u_t)^2 for s < t and 0 otherwise,

    and W_{b+1} = W_b + X_b diag(c) X_b^T is one GEMM.  g steps once per
    window, unnormalized, on the W with that window's update, as [I + mu2 W_b |
    mu2 X_b diag(c)] [g; X_b^T g] cut off after window t, and the block's g
    are normalized once at its end: ZeroUpdate if a window left g below 1e-12
    of its norm, Diverged if g's squared norm left the normal floats.
    max_g_norm_dev is the largest | ||g|| - 1 | of the normalized g.  The block
    GEMM rounds W's triangles apart: max_w_asymmetry is the true max
    |W - W^T|, measured at every block end.
    """
    # mu2 = 0 is allowed: it freezes g and leaves only the W fit running
    if not (0.0 < mu1 < np.inf and 0.0 <= mu2 < np.inf):  # NaN fails too
        raise InvalidSpec(f"need finite mu1 > 0 and mu2 >= 0, got mu1 = {mu1}, mu2 = {mu2}")
    if epochs < 1:
        raise InvalidSpec("epochs must be at least 1")
    if init not in UNIMODAL_INITS:
        raise InvalidSpec(f"init must be one of {UNIMODAL_INITS}, got {init!r}")
    whitener, windows = _fitted(window_stack(U, L))
    windows -= whitener.mean[:, None]  # the stack is this call's own, so it is centred in place
    X = whitener.matrix @ windows
    del windows  # freed before the init's float32 copy
    K, T = X.shape

    lam0 = float("nan")
    if init == "fourth_order":
        lam0, V = _cum_unfolding_power(X)
        # V = S S / |S S| for a symmetric S, so tr V = |S|^2 / |S S| >= 1
        W = V / np.trace(V)  # E[u^T W u] = tr(W) = 1 on sphered data
    else:
        W = np.zeros((K, K))

    B = min(_UNIMODAL_BLOCK, T)
    A = np.empty((K, K + B), order="F")  # [I + mu2 W_b | mu2 X_b diag(c)]
    eye = np.eye(K)
    Z = np.empty((K + B, K))  # [I; X_b^T]
    Z[:K] = eye
    G = np.empty((B, K))  # g after each window of the block, normalized at the block's end
    zg = np.empty(K + B)  # [g; X_b^T g] of one window
    # window t of a block reads the first K + t + 1 columns of A and rows of
    # Z; Fortran order keeps those column slices contiguous for ndarray.dot
    steps = [(A[:, :K + t + 1], Z[:K + t + 1], zg[:K + t + 1], G[t]) for t in range(B)]
    lower = np.tri(B, B, -1)  # strict-lower mask of the block system
    previous = np.ones(B + 1)  # 1, then the norms of the block's g; g enters each block at norm 1
    g = np.zeros(K)
    g[0] = 1.0
    max_norm_dev = 0.0
    max_asym = 0.0
    trajectory = []
    for _ in range(epochs):
        for start in range(0, T, B):
            Xb = X[:, start:start + B]
            m = Xb.shape[1]
            gram = Xb.T @ Xb
            norm2 = np.diagonal(gram)
            gain = mu1 / (1.0 + mu1 * (norm2 * norm2))
            M = gram * gram
            M *= lower[:m, :m]
            M *= gain[:, None]
            np.fill_diagonal(M, 1.0)
            c = np.linalg.solve(M, gain * (1.0 - np.einsum("it,it->t", W @ Xb, Xb)))
            np.add(eye, mu2 * W, out=A[:, :K])
            np.multiply(Xb, mu2 * c, out=A[:, K:K + m])
            Z[K:K + m] = Xb.T
            for a, z, out, row in steps[:m]:
                g = a.dot(z.dot(g, out=out), out=row)
            W += (Xb * c) @ Xb.T
            with np.errstate(over="ignore"):  # an overflow reads as an infinite norm
                norms = np.linalg.norm(G[:m], axis=1)  # window t scaled g by norms[t] / norms[t - 1]
            previous[1:m + 1] = norms
            if np.any(norms < 1e-12 * previous[:m]):
                raise ZeroUpdate("equalizer vector vanished")
            if not np.all((norms > _G_RANGE[0]) & (norms < _G_RANGE[1])):  # NaN fails too
                raise Diverged(f"equalizer vector left the float range within a block at mu2 = {mu2}")
            G[:m] /= norms[:, None]
            max_norm_dev = max(max_norm_dev, float(np.max(np.abs(np.linalg.norm(G[:m], axis=1) - 1.0))))
            max_asym = max(max_asym, float(np.max(np.abs(W - W.T))))
        trajectory.append(g.copy())
    return UnimodalResult(
        g=g.copy(),
        trajectory=tuple(trajectory),
        W=W,
        whitener=whitener,
        window_length=L,
        eigenvalue=lam0,
        max_g_norm_dev=max_norm_dev,
        max_w_asymmetry=max_asym,
    )


@dataclass(frozen=True)
class DetCmResult:
    """Constant-modulus block solution.

    residual is the RMS of g' u u' g - 1 over the block; a large value
    flags that no constant-modulus output exists for this data (for
    instance, Gaussian input).
    """

    g: np.ndarray
    matrix: np.ndarray
    residual: float
    rank: int


def _pair_r_factor(X: np.ndarray, sphere: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """R factor of the rows [scale * z_i z_j (i <= j), 1], z = sphere @ x: one stack holds R over a block's rows."""
    n = len(scale)
    stack = np.zeros((n + 1 + min(X.shape[1], _PAIR_BLOCK), n + 1), order="F")
    stack[n + 1:, n] = 1.0
    for P in _pair_products(X, transform=sphere):
        end = n + 1 + P.shape[1]
        np.multiply(P.T, scale, out=stack[n + 1:end, :n])
        stack[:n + 1] = r_factor = np.linalg.qr(stack[:end], mode="r")
    return r_factor


def deterministic_cm(U, max_refinements: int = 200) -> DetCmResult:
    """Solve the constant-modulus equations on a data block.

    The equations are P w = 1, where P has rows (u (x) u)^T (van der Veen &
    Paulraj 1996).  P is never built.  The block is sphered through
    M2 = E[u u^T] = B B^T, z = B^-1 u, and the pair products z_i z_j
    (i <= j, the i < j ones scaled by sqrt 2 so that singular values and
    minimum-norm solutions equal those of all N^2 columns), with a ones
    column beside them, are streamed through a running QR on one stack
    (_pair_r_factor).  Its R factor gives P = Q R_x with
    R_x = R_z (B (x) B)^T, and the component Q^T 1, so the rank, the
    minimum-norm least-squares w and its row space come from the SVD of
    the small R_x.  g is then read off the dominant eigenpair of the
    symmetrized reshape of w, scaled so the output has unit modulus:
    g = sqrt(|eig|) v.

    Finite-alphabet inputs excite strictly fewer than N(N+1)/2 independent
    regressors (binary sources reach only 1 + N(N-1)/2), which leaves the
    least-squares solution set an affine family whose minimum-norm member
    sits between the separating vertices.  The Kronecker-square
    approximation is therefore refined in two stages: alternating
    projections between the solution family and the symmetric rank-one
    matrices walk toward a vertex, then a damped Gauss-Newton descent of
    the block modulus error sum((g'u)^2 - 1)^2 finishes the job.  It runs
    in sphered coordinates h = B^T g, where that error is
    ||R_z a(h) - Q^T 1||^2 plus a constant, a(h) holding the scaled pair
    products of h, so a step costs O(N^5) and no pass over the block.  Once
    no damped step lowers the error, plain Gauss-Newton steps whose
    gradient is taken on the block continue while they lower the error
    measured there, which is what ``residual`` reports.  With a unique LS
    solution both stages are no-ops.  ``max_refinements`` caps the steps
    of both stages together, and must be at least 0.  Raises RankDeficient
    below the binary-excitation rank 1 + N(N-1)/2.
    """
    if max_refinements < 0:
        raise InvalidSpec(f"max_refinements must be at least 0, got {max_refinements}")
    X = _as_data(U)
    N, T = X.shape
    eps = np.finfo(float).eps
    lam, V = np.linalg.eigh(X @ X.T / T)
    if not lam[-1] > 0.0:
        raise RankDeficient(f"regressor rank 0 below identifiable minimum {1 + N * (N - 1) // 2}")
    # a null direction of M2 is floored rather than dropped, so the SVD of
    # R_x, not the sphering, decides the rank
    root = np.sqrt(np.maximum(lam, eps * lam[-1]))
    B = V * root  # M2 = B B^T
    sphere = (V / root).T  # B^-1: z = B^-1 u has E[z z^T] = I
    iu, ju = np.triu_indices(N)
    n = iu.size
    scale = np.where(iu == ju, 1.0, math.sqrt(2.0))
    r_factor = _pair_r_factor(X, sphere, scale)
    R_z, qt1 = r_factor[:n, :n], r_factor[:n, n]
    # the scaled pair coordinates as rows over the N^2 entries of vec(W)
    halve = np.zeros((n, N * N))
    halve[np.arange(n), iu * N + ju] = halve[np.arange(n), ju * N + iu] = 1.0 / scale
    left, svals, right_t = np.linalg.svd(R_z @ halve @ np.kron(B, B).T, full_matrices=False)
    tol = max(T, N * N) * eps * svals[0]
    rank = int(np.sum(svals > tol))
    min_rank = 1 + N * (N - 1) // 2
    if rank < min_rank:
        raise RankDeficient(f"regressor rank {rank} below identifiable minimum {min_rank}")
    # minimum-norm LS solution and the row-space projector
    inv_s = np.zeros_like(svals)
    inv_s[:rank] = 1.0 / svals[:rank]
    w0 = right_t.T @ (inv_s * (left.T @ qt1))
    rowspace = right_t[:rank].T  # N^2 x rank, orthonormal columns

    def project(x):
        # onto the LS solution set: keep the row-space component of w0,
        # move freely in the null space
        return x + rowspace @ (rowspace.T @ (w0 - x))

    w = w0
    for _ in range(50):
        values, vectors = _sorted_eigh(w.reshape(N, N), by_magnitude=True)
        w_new = project((values[0] * np.outer(vectors[:, 0], vectors[:, 0])).reshape(N * N))
        if np.linalg.norm(w_new - w) < 1e-15 * max(1.0, np.linalg.norm(w)):
            w = w_new
            break
        w = w_new

    values, vectors = _sorted_eigh(w.reshape(N, N), by_magnitude=True)
    h = B.T @ (math.sqrt(abs(values[0])) * vectors[:, 0])

    def in_span_error(h):
        return R_z @ (scale * h[iu] * h[ju]) - qt1

    def in_span_jacobian(h):
        dpairs = np.zeros((n, N))  # d a(h) / d h
        dpairs[np.arange(n), iu] += scale * h[ju]
        dpairs[np.arange(n), ju] += scale * h[iu]
        return R_z @ dpairs

    damping = 1e-10
    err = in_span_error(h)
    cost = float(err @ err)
    steps = 0
    while steps < max_refinements and cost >= 1e-28:
        jac = in_span_jacobian(h)
        gram, grad = jac.T @ jac, jac.T @ err
        while damping < 1e12:
            step = np.linalg.solve(gram + damping * np.eye(N), grad)
            err_try = in_span_error(h - step)
            cost_try = float(err_try @ err_try)
            if cost_try < cost:
                h, err, cost = h - step, err_try, cost_try
                damping = max(damping * 0.1, 1e-12)
                break
            damping *= 10.0
        else:
            break
        steps += 1

    # The R factor cannot see the rounding of g @ X, which sets the floor of
    # an exact constant-modulus fit, so plain Gauss-Newton steps with the
    # gradient taken on the block itself finish while they lower its error.
    jac = in_span_jacobian(h)
    gram = jac.T @ jac
    g = sphere.T @ h
    y = g @ X
    err = y * y - 1.0
    cost = float(err @ err)
    for _ in range(max_refinements - steps):
        step = sphere.T @ np.linalg.lstsq(gram, 2.0 * (sphere @ (X @ (y * err))), rcond=None)[0]
        y_try = (g - step) @ X
        err_try = y_try * y_try - 1.0
        cost_try = float(err_try @ err_try)
        if not cost_try < cost:
            break
        g, y, err, cost = g - step, y_try, err_try, cost_try
    g = fix_signs(g)
    residual = math.sqrt(cost / T)

    # report the quadratic form actually attained, kept inside the LS family
    W = project(np.outer(g, g).reshape(N * N)).reshape(N, N)
    return DetCmResult(g=g, matrix=(W + W.T) / 2.0, residual=residual, rank=rank)
