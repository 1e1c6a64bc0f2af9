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
from .moments import _covariance
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


def _sorted_eigh(R: np.ndarray, by_magnitude: bool = False):
    """Eigenpairs of the symmetric part of R, vectors sign-fixed: eigenvalues descending,
    or with ``by_magnitude`` their magnitudes descending, the first of equal magnitudes first."""
    eigvals, eigvecs = np.linalg.eigh((R + R.T) / 2.0)
    order = np.argsort(-np.abs(eigvals), kind="stable") if by_magnitude else np.argsort(eigvals)[::-1]
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
        return self._sphere(_as_data(U))

    def _sphere(self, X: np.ndarray) -> SignalMatrix:  # apply, on data already checked
        return SignalMatrix._adopt(self._affine(X)[0] @ (X - self.mean[:, None]))

    def _affine(self, X: np.ndarray):  # (T_w, mean), once X has the channels the whitener was fitted on
        if X.shape[0] != self.mean.size:
            raise DimensionMismatch(f"whitener expects {self.mean.size} channels, signal has {X.shape[0]}")
        return self.matrix, self.mean


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


def fit_whitener(U) -> Whitener:
    """Fit a sphering transform to U without applying it or copying U.

    The covariance is sample_covariance(U, 0).  Eigenvalues below _RANK_TOLERANCE
    times the largest are null directions, which the transform's rows leave out.
    """
    return _fitted(U)[0]


def _fitted(U):  # (fit_whitener(U), U's data), checking U once
    X = _as_data(U)
    mean = X.mean(axis=1)
    eigvals, eigvecs = _sorted_eigh(_covariance(X, mean))  # sample_covariance(X, 0)
    eigvals = np.clip(eigvals, 0.0, None)
    if eigvals[0] <= 0.0:
        raise DegenerateInput("all covariance eigenvalues vanish")
    rank = int(np.sum(eigvals >= _RANK_TOLERANCE * eigvals[0]))
    T_w = eigvecs[:, :rank].T / np.sqrt(eigvals[:rank])[:, None]
    return Whitener(matrix=T_w, detected_rank=rank, eigenvalues=eigvals, mean=mean), X


def whiten(U):
    """fit_whitener(U) with the sphered data it gives: (Whitener, SignalMatrix)."""
    w, X = _fitted(U)
    return w, w._sphere(X)


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
    whitener, X = _fitted(U)  # then the lagged covariance of whitener.apply(U), read from U's data
    eigvals, Q = _sorted_eigh(whitener.matrix @ _covariance(X, whitener.mean, lag) @ whitener.matrix.T)
    gaps = np.abs(np.diff(eigvals))
    if gaps.size and float(gaps.min()) <= gap_tolerance:
        worst = int(np.argmin(gaps))
        raise DegenerateSpectra(
            f"eigenvalue gap {gaps[worst]:.4f} at positions {worst},{worst + 1} "
            f"is within tolerance {gap_tolerance} at lag {lag}"
        )
    return Separator(matrix=Q.T @ whitener.matrix, whitener=whitener)
