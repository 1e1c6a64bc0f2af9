"""Second- and fourth-order statistics.

Lagged covariances, the fourth moments and the fourth-order cumulant tensor
with its unfoldings, three-mode contraction and multilinear transform,
kurtosis, Hermite polynomials and the truncated Edgeworth density.  Moment
estimators use the 1/(T - lag) convention and remove the sample mean first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import hermite_e

from .errors import DegenerateChannel, DimensionMismatch, InvalidSpec, LagTooLarge
from .signals import _as_data, _blocks

_INV_PERMS4 = [tuple(np.argsort(perm)) for perm in itertools.permutations(range(4))]

# Samples per pair-product block: the block buffer holds N(N+1)/2 x 4 096
# floats (1.2 MB at N = 8), small next to the data itself.
_PAIR_BLOCK = 4096

# floats per centred block of _covariance (8 192 samples at N = 4: 3.3 ms on one core, 4.3 with 4 096)
_COVARIANCE_BLOCK = 32768

_VAR_FLOOR = 1e-12


def _symmetrize4(values: np.ndarray) -> np.ndarray:
    # Average over all 24 index permutations, then gather every entry from
    # its sorted-index representative, so that entries at permuted index
    # quadruples compare equal exactly rather than up to rounding.  The
    # transpose by the inverse of perm holds values[idx[perm]] at idx, so
    # each entry sums the same terms in the same order as a per-entry loop
    # over itertools.permutations would.
    total = values.transpose(_INV_PERMS4[0]).copy()
    for inv in _INV_PERMS4[1:]:
        total += values.transpose(inv)
    total /= 24.0
    return total.ravel()[_sorted_representative(values.shape[0])].reshape(values.shape)


@lru_cache(maxsize=8)
def _sorted_representative(N: int) -> np.ndarray:
    # Flat index of sorted(i, j, k, l) for every flat index of (i, j, k, l).
    quads = np.sort(np.indices((N,) * 4).reshape(4, -1), axis=0)
    rep = np.ravel_multi_index(tuple(quads), (N,) * 4)
    rep.setflags(write=False)
    return rep


@dataclass(frozen=True)
class Cumulant4Tensor:
    """Super-symmetric fourth-order cumulant tensor (N x N x N x N).

    Symmetry is enforced on construction, so entries at permuted index
    quadruples compare equal exactly.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 4 or len(set(arr.shape)) != 1:
            raise DimensionMismatch(f"cumulant tensor must be an N^4 hypercube, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidSpec("cumulant tensor contains non-finite entries")
        arr = _symmetrize4(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class LaggedCovariance:
    """Sample covariance E[u(n) u(n-lag)^T] at one lag."""

    lag: int
    matrix: np.ndarray


def sample_covariance(U, lag: int = 0) -> LaggedCovariance:
    """Mean-removed sample covariance at the given lag.

    Normalizes by the number of summed pairs, T - lag, each block of which is
    centred on its own.  The lag-0 result is symmetrized so downstream
    eigensolvers see an exactly symmetric matrix.
    """
    X = _as_data(U)
    return LaggedCovariance(lag=lag, matrix=_covariance(X, X.mean(axis=1), lag))


def _covariance(X: np.ndarray, mean: np.ndarray, lag: int = 0) -> np.ndarray:
    """sample_covariance of X about the given mean, summed one block at a time.

    Two _blocks readers centre the late and the early samples of the pairs: two
    even at lag 0, where one buffer would turn the GEMM into a slower SYRK."""
    T = X.shape[1]
    if lag < 0:
        raise InvalidSpec(f"lag must be nonnegative, got {lag}")
    if lag >= T:
        raise LagTooLarge(f"lag {lag} leaves no pairs in {T} samples")
    C = np.zeros((len(mean), len(mean)))
    B = max(1, _COVARIANCE_BLOCK // len(mean))  # samples
    for late, early in zip(_blocks(X[:, lag:], B, mean), _blocks(X[:, :T - lag], B, mean)):
        C += late @ early.T
    C /= T - lag
    return (C + C.T) / 2.0 if lag == 0 else C


def _pair_products(X: np.ndarray, mean: np.ndarray | None = None, transform: np.ndarray | None = None):
    """Pair products of the samples of X, _PAIR_BLOCK samples at a time.

    Yields K(K+1)/2 x b blocks whose rows are z_i z_j for i <= j in
    np.triu_indices order, z a block of _blocks(X, _PAIR_BLOCK, mean, transform).
    The pair products fill one buffer made once per call: a block yielded
    is overwritten by the next.
    """
    K = len(X if transform is None else transform)
    rows = np.cumsum([0] + list(range(K, 0, -1)))  # first pair row of each i
    pairs = np.empty((rows[-1], min(X.shape[1], _PAIR_BLOCK)))
    for block in _blocks(X, _PAIR_BLOCK, mean, transform):
        P = pairs[:, :block.shape[1]]
        for i in range(K):
            np.multiply(block[i], block[i:], out=P[rows[i]:rows[i + 1]])
        yield P


def _pair_gram(X: np.ndarray, mean: np.ndarray | None = None, transform: np.ndarray | None = None):
    """Every fourth and second moment of X's samples z (see _pair_products): (m4, m2).

    m4 is the N^2 x N^2 unfolding of E[z_i z_j z_k z_l], row i*N + j and
    column k*N + l, and m2 = E[z z^T].  One pass over X through
    _pair_products sums the Gram of the pair products z_i z_j (i <= j), in
    np.triu_indices order, and their sums; every (i, j) then reads its
    sorted pair's row.
    """
    K = len(X if transform is None else transform)
    iu, ju = np.triu_indices(K)
    gram = np.zeros((iu.size, iu.size))
    total = np.zeros(iu.size)
    for P in _pair_products(X, mean, transform):
        gram += P @ P.T
        total += P.sum(axis=1)
    pair_of = np.empty((K, K), dtype=np.intp)
    pair_of[iu, ju] = pair_of[ju, iu] = np.arange(iu.size)
    pairs = pair_of.ravel()
    return gram[np.ix_(pairs, pairs)] / X.shape[1], total[pair_of] / X.shape[1]


def _contract3(V: np.ndarray, g: np.ndarray) -> np.ndarray:
    """V . g . g . g: the N^2 x N^2 unfolding V of a fourth-order array contracted with g on three modes.

    For a k x N block g, row r of the k x N result is row r's contraction, from one product with V.
    """
    if g.ndim == 1:
        N = len(g)
        return (V @ np.outer(g, g).ravel()).reshape(N, N) @ g
    k, N = g.shape
    P = V @ (g[:, :, None] * g[:, None, :]).reshape(k, N * N).T  # column r: V . g_r . g_r
    return np.einsum("ijr,rj->ri", P.reshape(N, N, k), g)


def estimate_cum4(U, whitener=None) -> Cumulant4Tensor:
    """Fourth-order cumulant tensor from sample moments.

    cum(i,j,k,l) = m4(i,j,k,l) - m2(i,j) m2(k,l) - m2(i,k) m2(j,l)
                   - m2(i,l) m2(j,k), with mean-removed sample moments.

    m4 and m2 come from _pair_gram, accumulated over blocks of samples
    centred one at a time, so no copy of U is ever built.  With a fitted
    ``whitener`` each block is also sphered: the result is the cumulant
    tensor of whitener.apply(U).
    """
    X = _as_data(U)
    return _cum4(X, X.mean(axis=1), None if whitener is None else whitener._affine(X)[0])


def _cum4(X: np.ndarray, mean: np.ndarray, transform: np.ndarray | None) -> Cumulant4Tensor:
    """estimate_cum4 on data X already checked: the cumulant tensor of transform @ (x - mean)."""
    m4, m2 = _pair_gram(X, mean, transform)
    N = len(m2)
    cum = (
        m4.reshape(N, N, N, N)
        - np.einsum("ij,kl->ijkl", m2, m2)
        - np.einsum("ik,jl->ijkl", m2, m2)
        - np.einsum("il,jk->ijkl", m2, m2)
    )
    return Cumulant4Tensor(cum)


def cumulant_matrix(U, M) -> np.ndarray:
    """Cumulant matrix of sphered data: E[(x^T M x) x x^T] - tr(M) I - 2 M.

    For symmetric M this is the 2x2 unfolding of the cumulant tensor
    applied to M, computed from the data without building the tensor
    (Cardoso & Souloumiac 1993).  Exact only when the data are sphered
    (zero mean, identity covariance).
    """
    return _cumulant_matrix(_as_data(U), np.asarray(M, dtype=float))


def _cumulant_matrix(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """cumulant_matrix on data X already checked, in the precision of X and M."""
    K, T = X.shape
    MX = M @ X
    s = np.einsum("it,it->t", MX, X)
    W = np.multiply(X, s, out=MX) @ X.T  # X diag(s) in M X's buffer
    W /= T
    D = 2.0 * M
    D.flat[::K + 1] += np.trace(M)  # tr(M) I + 2 M, with no float64 identity to upcast a float32 M
    W -= D
    return W


def kurtosis(y) -> float:
    """Excess kurtosis of a single channel after standardization."""
    X = _as_data(y)
    if X.shape[0] != 1:
        raise DimensionMismatch(f"kurtosis takes one channel, got {X.shape[0]}")
    y = X[0] - X[0].mean()
    y2 = y * y
    var = float(np.mean(y2))
    if var <= _VAR_FLOOR:
        raise DegenerateChannel(f"channel variance {var:.3e} below {_VAR_FLOOR:.0e}")
    return float(np.mean(y2 * y2) / (var * var) - 3.0)


def tucker_transform(C: Cumulant4Tensor, G) -> Cumulant4Tensor:
    """Apply G to every mode: out = C x1 G x2 G x3 G x4 G.

    With y = G u this maps the cumulant tensor of u to the cumulant tensor
    of y (multilinearity).  G may be rectangular (P x N).
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[1] != C.dim:
        raise DimensionMismatch(f"mode matrix {G.shape} does not match tensor dim {C.dim}")
    out = C.values
    for _ in range(4):  # each mode product moves the new axis to the end
        out = np.tensordot(out, G, axes=([0], [1]))
    return Cumulant4Tensor(out)


def tensor_norm(C) -> float:
    """Frobenius norm; invariant under orthogonal tucker_transform."""
    values = C.values if isinstance(C, Cumulant4Tensor) else np.asarray(C, dtype=float)
    return float(np.sqrt(np.sum(values * values)))


def unfold(C: Cumulant4Tensor, grouping: str) -> np.ndarray:
    """Matricize the tensor.

    "1x3": N x N^3 with column index j*N^2 + k*N + l (row-major).
    "2x2": N^2 x N^2 with row index i*N + j and column index k*N + l.
    Both are plain reshapes, so refolding with the inverse reshape is exact.
    """
    N = C.dim
    if grouping == "1x3":
        return C.values.reshape(N, N**3).copy()
    if grouping == "2x2":
        return C.values.reshape(N * N, N * N).copy()
    raise InvalidSpec(f"grouping must be '1x3' or '2x2', got {grouping!r}")


def psi4_contrast(C: Cumulant4Tensor):
    """Split the squared Frobenius mass into diagonal and off-diagonal parts.

    Returns (diag_mass, offdiag_mass); their sum is tensor_norm(C)^2, which
    orthogonal transforms preserve even though the split shifts.
    """
    N = C.dim
    idx = np.arange(N)
    diag = float(np.sum(C.values[idx, idx, idx, idx] ** 2))
    off = float(np.sum(C.values * C.values) - diag)
    return diag, max(off, 0.0)


def hermite(k: int, y):
    """Probabilists' Hermite polynomial h_k evaluated at y."""
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise InvalidSpec(f"hermite order must be a nonnegative integer, got {k!r}")
    y = np.asarray(y, dtype=float)
    val = hermite_e.hermeval(y, [0.0] * int(k) + [1.0])
    return float(val) if val.ndim == 0 else val


def edgeworth_pdf(y, c3: float, c4: float):
    """Truncated Edgeworth expansion around the standard normal.

    p(y) = p_G(y) [1 + c3 h3/3! + c4 h4/4! + 10 c3^2 h6/6!].  For large
    cumulants the truncation can dip below zero; no correction is applied.
    """
    y = np.asarray(y, dtype=float)
    gauss = np.exp(-0.5 * y * y) / np.sqrt(2.0 * np.pi)
    series = (
        1.0
        + c3 * hermite(3, y) / 6.0
        + c4 * hermite(4, y) / 24.0
        + 10.0 * c3 * c3 * hermite(6, y) / 720.0
    )
    out = gauss * series
    return float(out) if out.ndim == 0 else out
