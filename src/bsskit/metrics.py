"""Separation quality: global system, indeterminacy resolution, dB index.

A separator composed with the true mixing gives the global system S = G H,
which at perfect separation is a permutation times a diagonal.  The metric
resolves that indeterminacy greedily and reports leaked power in dB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

DB_FLOOR = -120.0
DB_CEIL = 120.0


@dataclass(frozen=True)
class GlobalSystem:
    """S = G H together with its resolved assignment.

    permutation[r] is the source column assigned to output row r; scales[r]
    is the signed gain S[r, permutation[r]].
    """

    matrix: np.ndarray
    permutation: tuple
    scales: np.ndarray
    residual: float


def resolve_permutation_scale(S):
    """Greedy assignment of outputs to sources by largest magnitude.

    Repeatedly picks the largest |S[i, j]| over unassigned rows and columns
    and pairs them; min(rows, cols) pairs are produced.  Returns
    (permutation, scales, residual): the row-wise column assignment, the
    signed gains at the assigned entries, and the relative power left off
    the assignment, ||S - assigned pattern||_F / ||S||_F (0 exactly when S
    is a generalized permutation).
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2:
        raise DimensionMismatch(f"global system must be 2-D, got shape {S.shape}")
    work = np.abs(S).astype(float)
    rows, cols = S.shape
    assign = {}
    for _ in range(min(rows, cols)):
        i, j = np.unravel_index(int(np.argmax(work)), work.shape)
        assign[int(i)] = int(j)
        work[i, :] = -1.0
        work[:, j] = -1.0
    permutation = tuple(assign.get(r, -1) for r in range(rows))
    scales = np.array([S[r, c] if c >= 0 else 0.0 for r, c in enumerate(permutation)])
    total = float(np.sum(S * S))
    leak = max(total - float(scales @ scales), 0.0)
    residual = float(np.sqrt(leak / total)) if total > 0.0 else 0.0
    return permutation, scales, residual


def global_system(G, H) -> GlobalSystem:
    """Compose separator and mixing, resolving permutation and scale."""
    G = np.asarray(G, dtype=float)
    H = np.asarray(H, dtype=float)
    if G.ndim != 2 or H.ndim != 2 or G.shape[1] != H.shape[0]:
        raise DimensionMismatch(f"cannot compose G {G.shape} with H {H.shape}")
    S = G @ H
    permutation, scales, residual = resolve_permutation_scale(S)
    return GlobalSystem(matrix=S, permutation=permutation, scales=scales, residual=residual)


def separation_index(S) -> float:
    """Leaked-to-assigned power ratio in dB; lower is better.

    10 log10( sum of squared off-assignment entries / sum of squared
    assigned entries ), clamped to [-120, 120] so perfect separation stays
    finite.  A system with no assigned power (all zero) reads 120.
    """
    S = np.asarray(S, dtype=float)
    permutation, _, _ = resolve_permutation_scale(S)
    # accumulate in source order: reordering the outputs then leaves every
    # floating-point operation unchanged, so the index is exactly invariant
    row_of = {c: r for r, c in enumerate(permutation) if c >= 0}
    signal = 0.0
    leak = 0.0
    for c in sorted(row_of):
        row = S[row_of[c]]
        signal += row[c] ** 2
        leak += float(row @ row) - row[c] ** 2
    for r, c in enumerate(permutation):
        if c < 0:
            leak += float(S[r] @ S[r])
    return _clamped_db(leak, signal)


def _clamped_db(leak: float, signal: float) -> float:
    """10 log10(leak / signal), clamped to [DB_FLOOR, DB_CEIL]: no signal reads DB_CEIL, else no leak DB_FLOOR."""
    leak = max(leak, 0.0)
    if signal <= 0.0:
        return DB_CEIL
    if leak <= 0.0:
        return DB_FLOOR
    return float(max(min(10.0 * np.log10(leak / signal), DB_CEIL), DB_FLOOR))
