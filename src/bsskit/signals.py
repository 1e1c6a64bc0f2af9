"""Synthetic source generation and linear mixing.

Sources are zero-mean, unit-variance, mutually independent channels arranged
as the rows of a channels x samples matrix.  Mixing models cover static,
noisy-static and convolutive (FIR) channels, plus the block-Toeplitz lifting
that turns a convolutive problem into a tall static one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidSpec

SOURCE_KINDS = ("bpsk", "uniform", "laplace", "gaussian", "ar1")

_AR_BURN_IN = 1000
_AR_BLOCK = 64  # samples per block of the AR(1) filter
_SLICE = 8192  # samples per slice of the Laplace transform's and the finiteness check's temporaries


@dataclass(frozen=True)
class SourceSpec:
    """One source channel: distribution family, optional AR pole, seed."""

    kind: str
    ar_coefficient: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise InvalidSpec(f"unknown source kind {self.kind!r}")
        if self.kind == "ar1":
            rho = self.ar_coefficient
            if rho is None or not (-1.0 < rho < 1.0):
                raise InvalidSpec("ar1 needs ar_coefficient in (-1, 1)")
        elif self.ar_coefficient is not None:
            raise InvalidSpec(f"ar_coefficient is only valid for ar1, not {self.kind!r}")
        _checked_seed(self.seed)


def _checked_seed(seed, name: str = "seed"):
    """A seed where it enters a generator: a nonnegative integer, else InvalidSpec."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidSpec(f"{name} must be a nonnegative integer, got {seed!r}")
    return seed


def _checked_signal(arr: np.ndarray) -> np.ndarray:
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionMismatch(f"signal data must be a 2-D array of at least 1 x 1, got shape {arr.shape}")
    for start in range(0, arr.shape[1], _SLICE):
        if not np.isfinite(arr[:, start:start + _SLICE]).all():
            raise InvalidSpec("signal data contains non-finite entries")
    return arr


def _frozen_signal(arr: np.ndarray) -> np.ndarray:
    _checked_signal(arr).setflags(write=False)
    return arr


@dataclass(frozen=True)
class SignalMatrix:
    """A bundle of synchronous channels, one row per channel.

    The data array is frozen after construction.  The constructor copies
    what it is given; signals that the library builds itself (drawn, mixed,
    whitened or separated) adopt their freshly built array read-only,
    without a copy.
    """

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_signal(np.array(self.data, dtype=float, order="C")))

    @classmethod
    def _adopt(cls, data: np.ndarray) -> SignalMatrix:
        # For arrays the library has just built and holds no other reference
        # to: the constructor's checks, without its copy.
        signal = object.__new__(cls)
        object.__setattr__(signal, "data", _frozen_signal(np.asarray(data, dtype=float, order="C")))
        return signal

    @property
    def channel_count(self) -> int:
        return self.data.shape[0]


def _as_data(U) -> np.ndarray:
    """A SignalMatrix's data as built (checked then), or a bare array checked, read as one channel when 1-D."""
    if isinstance(U, SignalMatrix):
        return U.data
    X = np.asarray(U, dtype=float)
    return _checked_signal(X[None] if X.ndim == 1 else X)


@dataclass(frozen=True)
class MixingModel:
    """Static, noisy-static or convolutive mixing channel.

    variant: "static" uses ``matrix`` alone; "noisy" adds white Gaussian
    sensor noise of standard deviation ``noise_std`` drawn from the
    ``noise_seed`` substream; "convolutive" applies the FIR taps
    ``taps[0] .. taps[order]``.
    """

    variant: str
    matrix: np.ndarray | None = None
    noise_std: float = 0.0
    noise_seed: int = 0
    taps: tuple = field(default=())

    def __post_init__(self):
        if self.variant not in ("static", "noisy", "convolutive"):
            raise InvalidSpec(f"unknown mixing variant {self.variant!r}")
        _checked_seed(self.noise_seed, "noise_seed")
        if self.variant in ("static", "noisy"):
            if self.matrix is None:
                raise InvalidSpec(f"{self.variant} mixing needs a matrix")
            H = np.array(self.matrix, dtype=float)
            if H.ndim != 2:
                raise DimensionMismatch("mixing matrix must be 2-D")
            object.__setattr__(self, "matrix", H)
            if self.variant == "noisy" and not 0.0 <= self.noise_std < math.inf:
                raise InvalidSpec(f"noise_std must be finite and nonnegative, got {self.noise_std}")
        else:
            taps = tuple(np.array(Hk, dtype=float) for Hk in self.taps)
            if not taps:
                raise InvalidSpec("convolutive mixing needs at least one tap")
            shape = taps[0].shape
            if len(shape) != 2 or any(Hk.shape != shape for Hk in taps):
                raise DimensionMismatch("all taps must share one M x N shape")
            object.__setattr__(self, "taps", taps)
        if not all(np.isfinite(H).all() for H in (self.taps if self.variant == "convolutive" else (self.matrix,))):
            raise InvalidSpec(f"{self.variant} mixing values must be finite")

    @property
    def source_count(self) -> int:
        """Number of sources the model takes: N of its M x N matrix or taps."""
        return (self.taps[0] if self.variant == "convolutive" else self.matrix).shape[1]

    @property
    def order(self) -> int:
        """FIR order (number of taps minus one); 0 for static variants."""
        return len(self.taps) - 1 if self.variant == "convolutive" else 0


def _channel_rng(spec: SourceSpec, channel: int) -> np.random.Generator:
    # Substream keyed by (seed, channel index): identical specs on different
    # rows still get independent streams, and runs are reproducible.
    return np.random.default_rng([spec.seed, channel])


def _draw(spec: SourceSpec, row: np.ndarray, rng: np.random.Generator) -> None:
    # Fills ``row`` in place with the same bytes as the one-line draw (named
    # on a branch where the in-place form differs from it).
    T = row.size
    if spec.kind == "bpsk":  # rng.integers(0, 2, T) * 2.0 - 1.0
        np.multiply(rng.integers(0, 2, size=T), 2.0, out=row)
        row -= 1.0
    elif spec.kind == "uniform":  # rng.uniform(-half, half, T)
        half = math.sqrt(3.0)
        rng.random(out=row)
        row *= half - -half
        row += -half
    elif spec.kind == "laplace":
        # Inverse-CDF transform at scale 1/sqrt(2) for unit variance.  The
        # uniform draw is clipped away from 0 so the log stays finite.
        b = 1.0 / math.sqrt(2.0)
        tiny = np.finfo(float).tiny
        rng.random(out=row)
        for start in range(0, T, _SLICE):
            u = np.clip(row[start:start + _SLICE], tiny, None)
            row[start:start + _SLICE] = np.where(
                u < 0.5, b * np.log(2.0 * u), -b * np.log(np.clip(2.0 * (1.0 - u), tiny, None)))
    elif spec.kind == "gaussian":
        rng.standard_normal(out=row)
    else:
        # ar1: unit-variance stationary AR(1) with Gaussian innovations,
        # drawn straight into the filter's zero-padded block matrix.
        rho = spec.ar_coefficient
        n = T + _AR_BURN_IN
        E = np.zeros((-(-n // _AR_BLOCK), _AR_BLOCK))
        e = E.ravel()[:n]
        rng.standard_normal(out=e)
        e *= math.sqrt(1.0 - rho * rho)
        row[:] = _ar1_blocks(rho, E).ravel()[_AR_BURN_IN:n]


def _ar1_blocks(rho: float, E: np.ndarray) -> np.ndarray:
    # The AR(1) filter on E's rows read as one zero-padded sequence,
    # _AR_BLOCK samples at a time: one GEMM with the lower-triangular
    # Toeplitz matrix of rho powers gives every block's zero-state response,
    # and rho^(i+1) x_prev carries the state of the block before in, on
    # Python floats: numpy's double arithmetic without a numpy call a block.
    powers = rho ** np.arange(_AR_BLOCK + 1)
    lags = np.arange(_AR_BLOCK)
    toeplitz = np.tril(powers[np.abs(lags[:, None] - lags[None, :])])
    X = E @ toeplitz.T
    states = []  # x_prev of each block
    prev, decay = 0.0, float(powers[-1])
    for end in X[:, -1].tolist():
        states.append(prev)
        prev = end + decay * prev
    X += np.array(states)[:, None] * powers[1:]
    return X


def generate_sources(specs, T: int) -> SignalMatrix:
    """Draw ``T`` samples of every source in ``specs``.

    Parameters
    ----------
    specs : sequence of SourceSpec
        One entry per channel.
    T : int
        Sample count, at least 1.

    Returns
    -------
    SignalMatrix
        ``len(specs)`` x ``T``; channels are mutually independent and have
        zero mean and unit variance in expectation.  Each row is drawn in
        place into the one returned array.
    """
    if T < 1:
        raise InvalidSpec(f"sample count must be positive, got {T}")
    specs = list(specs)
    if not specs:
        raise InvalidSpec("need at least one source spec")
    out = np.empty((len(specs), T))
    for i, spec in enumerate(specs):
        _draw(spec, out[i], _channel_rng(spec, i))
    return SignalMatrix._adopt(out)


def convolve_mimo(taps, A) -> SignalMatrix:
    """FIR-filter the source matrix: u(n) = sum_k H_k a(n - k), taps as in MixingModel.

    Prehistory is zero, so the first ``order`` output samples are start-up
    transient; they are kept.
    """
    taps = MixingModel("convolutive", taps=taps).taps
    X = _as_data(A)
    M, N = taps[0].shape
    if N != X.shape[0]:
        raise DimensionMismatch(f"taps expect {N} sources, signal has {X.shape[0]}")
    T = X.shape[1]
    out = np.zeros((M, T))
    for k, Hk in enumerate(taps[:T]):
        out[:, k:] += Hk @ X[:, : T - k]
    return SignalMatrix._adopt(out)


def mix(model: MixingModel, A) -> SignalMatrix:
    """Pass sources through a mixing model and return the sensor signals."""
    if model.variant == "convolutive":
        return convolve_mimo(model.taps, A)
    X = _as_data(A)
    H = model.matrix
    if H.shape[1] != X.shape[0]:
        raise DimensionMismatch(f"mixing matrix expects {H.shape[1]} sources, signal has {X.shape[0]}")
    U = H @ X
    if model.variant == "noisy" and model.noise_std > 0:
        rng = np.random.default_rng([model.noise_seed, 0x6E])
        noise = rng.standard_normal(U.shape)
        noise *= model.noise_std  # in place: one noise array, the same products
        U += noise
    return SignalMatrix._adopt(U)


def lift_convolutive(taps, L: int) -> np.ndarray:
    """Block-Toeplitz lifting of FIR taps (as in MixingModel) to a static matrix.

    Stacking L consecutive sensor vectors gives a static model whose input
    is the last L + order source vectors; the (M*L) x (N*(L+order)) lifted
    matrix is sum_k kron(S_k, H_k), S_k the L x (L+order) identity shifted
    by k: block row r carries H_0 .. H_order from block column r on.
    """
    if L < 1:
        raise InvalidSpec(f"window length must be positive, got {L}")
    taps = MixingModel("convolutive", taps=taps).taps
    return sum(np.kron(np.eye(L, L + len(taps) - 1, k), Hk) for k, Hk in enumerate(taps))


def window_stack(U, L: int) -> np.ndarray:
    """Sliding windows of depth L, newest sample on top.

    Column n of the result is [u(n); u(n-1); ...; u(n-L+1)] for
    n = L-1 .. T-1, matching the lifted model's row convention.
    """
    if L < 1:
        raise InvalidSpec(f"window length must be positive, got {L}")
    X = _as_data(U)
    M, T = X.shape
    if L > T:
        raise DimensionMismatch("window length exceeds sample count")
    cols = T - L + 1
    out = np.empty((M * L, cols))
    for d in range(L):
        out[d * M : (d + 1) * M, :] = X[:, L - 1 - d : T - d]
    return out
