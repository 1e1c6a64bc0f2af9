"""Whitening and second-order separation.

Whitening maps the sensor covariance to the identity and detects rank, which
reduces any remaining mixing to an orthogonal rotation.  When sources have
distinct autocorrelations at some lag, that rotation is recovered from the
eigenvectors of the symmetrized lagged covariance of the sphered data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DegenerateSpectra, DimensionMismatch, InvalidSpec
from .moments import sample_covariance
from .signals import SignalMatrix, _as_data

_RANK_TOLERANCE = 1e-9  # whiten's null-direction floor, relative to the largest eigenvalue


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip a vector, or each column, so its largest-magnitude entry is positive.

    Removes the sign ambiguity of eigenvectors and singular vectors so that
    equal inputs give bit-equal decompositions.
    """
    vectors = np.array(vectors)
    columns = vectors.reshape(len(vectors), -1)  # a view: flips write through
    pivots = columns[np.argmax(np.abs(columns), axis=0), np.arange(columns.shape[1])]
    columns[:, pivots < 0] *= -1
    return vectors


def _sorted_eigh(R: np.ndarray):
    """Eigenpairs of the symmetric part of R: eigenvalues descending, vectors sign-fixed."""
    eigvals, eigvecs = np.linalg.eigh((R + R.T) / 2.0)
    order = np.argsort(eigvals)[::-1]
    return eigvals[order], fix_signs(eigvecs[:, order])


@dataclass(frozen=True)
class Whitener:
    """Sphering transform fitted to one signal batch.

    matrix : detected_rank x M transform T_w with T_w R_u T_w^T = I.
    eigenvalues : all M covariance eigenvalues, descending, clipped at 0.
    mean : per-channel sample mean removed before sphering.
    """

    matrix: np.ndarray
    detected_rank: int
    eigenvalues: np.ndarray
    mean: np.ndarray

    def apply(self, U) -> SignalMatrix:
        X = _as_data(U)
        if X.shape[0] != self.mean.size:
            raise DimensionMismatch(f"whitener expects {self.mean.size} channels, signal has {X.shape[0]}")
        return SignalMatrix._adopt(self.matrix @ (X - self.mean[:, None]))


@dataclass(frozen=True)
class Separator:
    """A demixing matrix, with the whitener it composes with (if any).

    ``matrix`` always acts on raw sensor data: rows are demixing vectors of
    the full separator, whitening included.
    """

    matrix: np.ndarray
    whitener: Whitener | None = None

    def apply(self, U) -> SignalMatrix:
        X = _as_data(U)
        if X.shape[0] != self.matrix.shape[-1]:
            raise DimensionMismatch(f"separator expects {self.matrix.shape[-1]} channels, signal has {X.shape[0]}")
        if self.whitener is not None:
            X = X - self.whitener.mean[:, None]
        return SignalMatrix._adopt(self.matrix @ X)


def whiten(U):
    """Fit a sphering transform and return it with the sphered data.

    Eigenvalues below _RANK_TOLERANCE times the largest are treated as null
    directions and dropped, so the output may have fewer channels than the
    input.

    Returns
    -------
    (Whitener, SignalMatrix)
    """
    X = _as_data(U)
    mean = X.mean(axis=1)
    Xc = X - mean[:, None]
    eigvals, eigvecs = _sorted_eigh(Xc @ Xc.T / X.shape[1])  # sample_covariance(X, 0), from Xc
    eigvals = np.clip(eigvals, 0.0, None)
    if eigvals[0] <= 0.0:
        raise DegenerateInput("all covariance eigenvalues vanish")
    rank = int(np.sum(eigvals >= _RANK_TOLERANCE * eigvals[0]))
    T_w = eigvecs[:, :rank].T / np.sqrt(eigvals[:rank])[:, None]
    w = Whitener(matrix=T_w, detected_rank=rank, eigenvalues=eigvals, mean=mean)
    return w, SignalMatrix._adopt(T_w @ Xc)


def amuse(U, lag: int = 1, gap_tolerance: float = 0.05) -> Separator:
    """Separate via the eigenvectors of one symmetrized lagged covariance.

    After sphering, the lag covariance of the data shares eigenvectors with
    the residual rotation, and its eigenvalues estimate the source
    autocorrelations at that lag.  Distinctness of those autocorrelations is
    what makes the eigenvectors identifiable, so the whole decomposition is
    rejected if any two consecutive eigenvalues come closer than
    ``gap_tolerance``.  The sphered data has unit scale, which makes the
    tolerance scale-free with respect to the raw input.
    """
    if lag < 1:
        raise InvalidSpec(f"amuse needs lag >= 1, got {lag}")
    whitener, Ubar = whiten(U)
    eigvals, Q = _sorted_eigh(sample_covariance(Ubar, lag).matrix)
    gaps = np.abs(np.diff(eigvals))
    if gaps.size and float(gaps.min()) <= gap_tolerance:
        worst = int(np.argmin(gaps))
        raise DegenerateSpectra(
            f"eigenvalue gap {gaps[worst]:.4f} at positions {worst},{worst + 1} "
            f"is within tolerance {gap_tolerance} at lag {lag}"
        )
    return Separator(matrix=Q.T @ whitener.matrix, whitener=whitener)
