"""Adaptive separation by stochastic ascent of the universal criterion.

The criterion J(G) = ln|det G| + E[sum_i log phi_i(y_i)], y = G u, is climbed
either with the plain gradient (matrix inversion per step), the relative
gradient (equivariant, inversion-free), an anti-Hebbian two-family variant,
or the nonlinear-PCA rule on prewhitened data.  A stability report evaluates
the local conditions that decide whether a separating point attracts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, Diverged, InvalidSpec, SingularG
from .fixedpoint import _check_step_size, _check_stop_rule
from .scores import _apply_scores, _score_call, make_score
from .second_order import Separator, _polar, whiten
from .signals import _as_data, _checked_seed

_DET_FLOOR = 1e-12
_DIVERGENCE_NORM = 1e6

MODES = ("plain", "relative", "nonlinear_pca", "anti_hebbian")
INITS = ("identity", "random_orthogonal")

_ANTI_HEBBIAN_SCORE = "tanh"  # the anti-Hebbian rule's second score family g
_PAIR_MARGIN = 0.05  # see stability_check


@dataclass
class AdaptConfig:
    """Knobs for run_separation.

    max_iterations counts epochs (full passes over the sample set);
    convergence is declared when the Frobenius norm of the change of G over
    one epoch drops below convergence_tolerance.
    """

    step_size: float = 0.005
    mode: str = "relative"
    max_iterations: int = 1
    convergence_tolerance: float = 1e-6
    init: str = "identity"
    init_seed: int = 0

    def __post_init__(self):
        # zero is allowed so parameter sweeps can include the no-update row
        _check_step_size(self.step_size)
        if self.mode not in MODES:
            raise InvalidSpec(f"mode must be one of {MODES}, got {self.mode!r}")
        _check_stop_rule(self.max_iterations, self.convergence_tolerance, np.inf)
        if self.init not in INITS:
            raise InvalidSpec(f"init must be one of {INITS}, got {self.init!r}")
        _checked_seed(self.init_seed, "init_seed")


@dataclass(frozen=True)
class StabilityReport:
    """Sample estimates of the local stability quantities at a separator.

    sigma2, k, m, kappa are per channel: sigma2_i = E[y_i^2],
    k_i = E[f_i'(y_i)], m_i = E[y_i^2 f_i'(y_i)],
    kappa_i = k_i sigma2_i - E[f_i(y_i) y_i].
    """

    sigma2: np.ndarray
    k: np.ndarray
    m: np.ndarray
    kappa: np.ndarray
    verdict: bool
    violations: tuple = field(default=())


def universal_criterion(G, U, scores) -> float:
    """J(G) = ln|det G| + (1/T) sum_t sum_i log phi_i(y_i(t)), y = G u."""
    G = np.asarray(G, dtype=float)
    X = _as_data(U)
    if G.shape[0] != G.shape[1] or G.shape[1] != X.shape[0]:
        raise DimensionMismatch(f"G {G.shape} is not square over {X.shape[0]} channels")
    total = sum(np.mean(_apply_scores(scores, G @ X, "log_phi"), axis=1).tolist())
    det = np.linalg.det(G)
    if abs(det) < _DET_FLOOR:
        raise SingularG(f"|det G| = {abs(det):.3e} below {_DET_FLOOR:.0e}")
    return float(np.log(abs(det))) + total


def _direction(G, X, Y, mode, f, g=None):
    """Each rule's direction averaged over the columns of X (Y = G X; f, g from _resolve),
    so one column gives the per-sample one; .dot, as @'s dispatch costs more at N <= 8."""
    T = X.shape[1]
    F = f(Y)
    if mode == "plain":
        det = np.linalg.det(G)
        if abs(det) < _DET_FLOOR:
            raise SingularG(f"|det G| = {abs(det):.3e}; plain update undefined")
        return np.linalg.inv(G).T - _mean(F.dot(X.T), T)
    if mode == "relative":
        return G - _mean(F.dot(Y.T.dot(G)), T)
    if mode == "anti_hebbian":
        if g is None:
            raise InvalidSpec("anti_hebbian mode needs the second score family")
        return G - _mean(F.dot(g(Y).T.dot(G)), T)
    if mode == "nonlinear_pca":
        return _mean(F.dot((X - G.T.dot(F)).T), T)
    raise InvalidSpec(f"no update direction for mode {mode!r}")


def _mean(total, T):  # a sum over T samples divided by T; one sample's sum is its own mean, with no division
    return total if T == 1 else total / T


def _resolve(scores, g_scores, N):  # _direction's f and g for N channels; g is None without g_scores
    return _score_call(scores, "f", N), None if g_scores is None else _score_call(g_scores, "f", N)


def adaptive_update(G, u, scores, cfg: AdaptConfig, g_scores=None):
    """One stochastic update of G from a single sample u.

    plain:         G + mu (G^-T - f(y) u^T)
    relative:      G + mu (I - f(y) y^T) G
    anti_hebbian:  G + mu (I - f(y) g(y)^T) G
    nonlinear_pca: polar factor of G + mu f(y) [u - G^T f(y)]^T, for sphered u
    """
    G = np.asarray(G, dtype=float)
    u = np.asarray(u, dtype=float).reshape(-1, 1)
    G = G + cfg.step_size * _direction(G, u, G.dot(u), cfg.mode, *_resolve(scores, g_scores, G.shape[0]))
    return _polar(G) if cfg.mode == "nonlinear_pca" else G


def batch_update_direction(G, U, scores, mode: str, g_scores=None):
    """Batch-averaged update direction (the expectation the per-sample
    updates follow); used for gradient and stationarity checks.
    """
    G = np.asarray(G, dtype=float)
    X = _as_data(U)
    return _direction(G, X, G @ X, mode, *_resolve(scores, g_scores, X.shape[0]))


def run_separation(U, scores, cfg: AdaptConfig):
    """Iterate per-sample updates over epochs until G settles.

    Returns (Separator, trajectory) where trajectory holds the criterion
    value after each epoch when every score has a closed-form log-density
    (otherwise it stays empty).  nonlinear_pca mode sphers the data first
    and folds the whitener into the returned separator.  Raises Diverged at
    the first sample update that overflows, or when G ends an epoch
    non-finite or above _DIVERGENCE_NORM in norm.
    """
    whitener = None
    if cfg.mode == "nonlinear_pca":
        whitener, U = whiten(U)
    X = _as_data(U)
    N = X.shape[0]
    g_scores = [make_score(_ANTI_HEBBIAN_SCORE) for _ in range(N)] if cfg.mode == "anti_hebbian" else None
    f, g = _resolve(scores, g_scores, N)  # once per run; this checks the channel count
    if cfg.init == "identity":
        G = np.eye(N)
    else:
        rng = np.random.default_rng(cfg.init_seed)
        G, _ = np.linalg.qr(rng.standard_normal((N, N)))

    # the scores that keep state see each output sample before the update
    tracking = [(i, s) for i, s in enumerate(scores) if s.keeps_state]
    record = all(s.has_log_phi for s in scores)
    trajectory = []
    for epoch in range(cfg.max_iterations):
        G_start = G
        try:  # a diverging run stops at its first overflow
            with np.errstate(over="raise", invalid="raise"):
                for u in X.T[:, :, None]:  # each sample as an N x 1 block
                    y = G.dot(u)
                    for i, s in tracking:
                        s.update(y[i])
                    G = G + cfg.step_size * _direction(G, u, y, cfg.mode, f, g)
                    if cfg.mode == "nonlinear_pca":
                        G = _polar(G)
        except FloatingPointError as exc:
            raise Diverged(f"G diverged in epoch {epoch}: {exc}") from exc
        if not np.all(np.isfinite(G)) or np.linalg.norm(G) > _DIVERGENCE_NORM:
            raise Diverged(f"G norm {np.linalg.norm(G):.3e} after an epoch")
        if record:
            trajectory.append(universal_criterion(G, U, scores))
        if np.linalg.norm(G - G_start) < cfg.convergence_tolerance:
            break
    if whitener is not None:
        return Separator(matrix=G @ whitener.matrix, whitener=whitener), trajectory
    return Separator(matrix=G), trajectory


def stability_check(Y, scores) -> StabilityReport:
    """Evaluate the separating-point stability conditions on output samples.

    Checks, from the same sample: m_i + 1 > 0, k_i > 0,
    sigma2_i sigma2_j k_i k_j > 1 for i != j, the pairwise condition
    (1 + kappa_i)(1 + kappa_j) > 1, and 1 + kappa_i > 0 per channel.

    The pairwise product equals exactly 1 for Gaussian channels, so sampling
    noise alone would flip that verdict from run to run; the condition is
    therefore required to clear 1 by _PAIR_MARGIN, and boundary cases
    classify as unstable.
    """
    Y = _as_data(Y)
    N = Y.shape[0]
    sigma2 = np.mean(Y * Y, axis=1)
    F = _apply_scores(scores, Y)
    Fp = _apply_scores(scores, Y, method="fprime")
    k = np.mean(Fp, axis=1)
    m = np.mean(Y * Y * Fp, axis=1)
    efy = np.mean(F * Y, axis=1)
    kappa = k * sigma2 - efy

    violations = []
    for i in range(N):
        if not m[i] + 1.0 > 0.0:
            violations.append(f"m[{i}] + 1 = {m[i] + 1.0:.4f} <= 0")
        if not k[i] > 0.0:
            violations.append(f"k[{i}] = {k[i]:.4f} <= 0")
        if not 1.0 + kappa[i] > 0.0:
            violations.append(f"1 + kappa[{i}] = {1.0 + kappa[i]:.4f} <= 0")
    for i in range(N):
        for j in range(i + 1, N):
            if not sigma2[i] * sigma2[j] * k[i] * k[j] > 1.0:
                violations.append(
                    f"sigma2[{i}] sigma2[{j}] k[{i}] k[{j}] = "
                    f"{sigma2[i] * sigma2[j] * k[i] * k[j]:.4f} <= 1"
                )
            prod = (1.0 + kappa[i]) * (1.0 + kappa[j])
            if not prod > 1.0 + _PAIR_MARGIN:
                violations.append(
                    f"(1 + kappa[{i}])(1 + kappa[{j}]) = {prod:.4f} <= 1 + {_PAIR_MARGIN}"
                )
    return StabilityReport(
        sigma2=sigma2,
        k=k,
        m=m,
        kappa=kappa,
        verdict=not violations,
        violations=tuple(violations),
    )


def bussgang_residual(Y, scores) -> float:
    """Frobenius norm of E[f(y) y^T] - E[y y^T].

    Vanishes at separation when each source satisfies the Bussgang property
    under its score, and stays visibly nonzero at non-separating rotations.
    """
    Y = _as_data(Y)
    T = Y.shape[1]
    F = _apply_scores(scores, Y)
    return float(np.linalg.norm((F - Y) @ Y.T / T))
