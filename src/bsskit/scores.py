"""Score functions: the per-channel nonlinearities driving the separators.

A score f is minus the log-derivative of the channel's density model, so a
closed-form log_phi exists whenever the density is explicit.  f and fprime
are pure; the kurtosis-tracking score mutates its running estimate only
through an explicit update() call, so gradient checks see a frozen function.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateChannel, DimensionMismatch, InvalidSpec
from .signals import _blocks

_FORGETTING = 0.99  # of the sign-switching score's running moments
# samples per block of a batch update: every weight of one block stays far above
# the subnormal range, where pow is slow (lam^4095 is 1.4e-18)
_FORGET_BLOCK = 4096
_FLOAT32 = np.dtype(np.float32)


class ScoreFunction:
    """Interface of a score.

    A subclass defines f(y) and fprime(y), elementwise over an array y, and
    may define log_phi(y); has_log_phi tells whether it does.  f_and_fprime(y)
    returns both at once and calls f and fprime unless a subclass shares
    their work.  A score that keeps state overrides update(y), called only
    by run_separation and fastica_step, whose updates its state steers;
    keeps_state tells the two kinds apart.  batch_key() groups scores
    whose f is one elementwise function.
    """

    def batch_key(self):
        """Scores with equal keys compute one elementwise function, so one call
        evaluates all their channels: the class, unless the score has state."""
        return self if vars(self) else type(self)

    def f(self, y):
        raise NotImplementedError

    def fprime(self, y):
        raise NotImplementedError

    def f_and_fprime(self, y):
        """(f(y), fprime(y)) from one call."""
        return self.f(y), self.fprime(y)

    def log_phi(self, y):
        raise InvalidSpec(f"score {type(self).__name__} has no closed-form log-density")

    def update(self, y):
        """Feed data to state-tracking scores; a no-op for fixed ones."""

    @property
    def has_log_phi(self) -> bool:
        """True when log_phi() is defined, so the criterion can be evaluated."""
        return type(self).log_phi is not ScoreFunction.log_phi

    @property
    def keeps_state(self) -> bool:
        """True when update() does something, so the score must see the data."""
        return type(self).update is not ScoreFunction.update


def _score_call(scores, method, channels):
    """Y -> _apply_scores(scores, Y, method), grouped by the scores' batch keys as they stand."""
    if len(scores) != channels:
        raise DimensionMismatch(f"{len(scores)} scores for {channels} channels")
    keys = [s.batch_key() for s in scores]
    groups = [[i for i, k in enumerate(keys) if k == key] for key in dict.fromkeys(keys)]
    if len(groups) == 1:
        return getattr(scores[0], method)
    pair = method == "f_and_fprime"  # its result is two arrays

    def call(Y):
        out = (np.empty_like(Y), np.empty_like(Y)) if pair else (np.empty_like(Y),)
        for rows in groups:
            part = getattr(scores[rows[0]], method)(Y[rows])
            for o, p in zip(out, part if pair else (part,)):
                o[rows] = p
        return out if pair else out[0]
    return call


def _floats(y):
    """y as an array of floats: float32 stays float32, for iterations on a float32 copy; all else becomes float64."""
    return y if getattr(y, "dtype", None) is _FLOAT32 else np.asarray(y, dtype=float)


def _apply_scores(scores, Y, method="f"):
    """Channel i's score on row i of Y (N-vector or N x T), one call per batch_key."""
    return _score_call(scores, method, np.shape(Y)[0])(np.asarray(Y, dtype=float))


class CubicScore(ScoreFunction):
    """f(y) = y^3, the model density exp(-y^4/4) up to normalization."""

    def f(self, y):
        y = _floats(y)
        return y * y * y

    def fprime(self, y):
        y = _floats(y)
        return 3.0 * y * y

    def log_phi(self, y):
        y2 = np.square(np.asarray(y, dtype=float))
        return -0.25 * (y2 * y2)


class TanhScore(ScoreFunction):
    """f(y) = tanh(y), the model density 1/cosh(y) up to normalization."""

    def f(self, y):
        return np.tanh(y)

    def fprime(self, y):
        t = np.tanh(y)
        return 1.0 - t * t

    def f_and_fprime(self, y):
        t = np.tanh(y)  # taken once for both
        return t, 1.0 - t * t

    def log_phi(self, y):
        # -log cosh(y), computed via |y| to avoid overflow for large y.
        y = np.asarray(y, dtype=float)
        return -(np.abs(y) + np.log1p(np.exp(-2.0 * np.abs(y))) - np.log(2.0))


class SignSwitchingScore(ScoreFunction):
    """f(y) = sign(c4_hat) * y^3 with an exponentially forgotten kurtosis.

    The sign selects between climbing and descending the fourth-moment
    contrast, which is how one-unit searches pick the right extremum per
    channel.  No closed-form density exists once the sign can flip.
    """

    def __init__(self):
        self.m2 = 1.0
        self.m4 = 3.0  # gaussian start: estimated kurtosis 0, sign resolves to +1

    @property
    def kurtosis_sign(self) -> float:
        m2_squared = self.m2 * self.m2
        if not m2_squared > 0.0:  # the output has stayed at 0 for longer than the forgetting spans
            raise DegenerateChannel(f"running second moment {self.m2:.3e} has no kurtosis sign")
        c4 = self.m4 / m2_squared - 3.0
        return -1.0 if c4 < 0 else 1.0

    def batch_key(self):
        return SignSwitchingScore, self.kurtosis_sign

    def update(self, y):
        lam = _FORGETTING
        if getattr(y, "size", None) == 1:  # exponential forgetting of one numpy sample, on Python floats
            y2 = y.item()
            y2 *= y2
            self.m2 = lam * self.m2 + (1.0 - lam) * y2
            self.m4 = lam * self.m4 + (1.0 - lam) * (y2 * y2)
            return
        # the same recursion in closed form, one block of n samples at a time:
        # weight lam^(n-1-t) (1-lam) on sample t, and lam^n on the moments before it
        y2 = np.square(np.asarray(y, dtype=float).ravel())
        w = (1.0 - lam) * lam ** np.arange(min(y2.size, _FORGET_BLOCK) - 1, -1, -1, dtype=float)
        for y2_b in _blocks(y2, _FORGET_BLOCK):
            w_b = w[w.size - y2_b.size:]
            self.m2 = lam**y2_b.size * self.m2 + float(w_b @ y2_b)
            self.m4 = lam**y2_b.size * self.m4 + float(w_b @ (y2_b * y2_b))

    def f(self, y):
        y = _floats(y)
        return self.kurtosis_sign * (y * y * y)

    def fprime(self, y):
        y = _floats(y)
        return self.kurtosis_sign * 3.0 * y * y


_SCORES = {"cubic": CubicScore, "tanh": TanhScore, "sign_switching": SignSwitchingScore}
SCORE_KINDS = tuple(_SCORES)


def make_score(kind: str) -> ScoreFunction:
    """Instantiate a score by name; each call returns independent state."""
    if kind not in _SCORES:
        raise InvalidSpec(f"unknown score kind {kind!r}; choose from {SCORE_KINDS}")
    return _SCORES[kind]()
