"""Independent correctness checks for the records a benchmark round emits.

Nothing here imports bsskit: the separation index is recomputed with plain
numpy from the global system (separator times true mixing) or, for the
blind equalizer, from a least-squares fit of the output on the delayed
sources, and compared with the ``index_db`` the record carries.
"""

import json
import math

import numpy as np

# the separation property the acceptance suite holds every separator to
MAX_INDEX_DB = -15.0
# the index is clamped to this range by the toolkit's metric
DB_RANGE = (-120.0, 120.0)
# recomputed and recorded leak ratios (10^(dB/10)) must agree this closely;
# the absolute part covers rounding in the toolkit's own subtraction
AGREE_REL, AGREE_ABS = 1e-6, 1e-12
# the equalizer's index is the CLI's correlation formula over the whole
# output; the least-squares fit over the samples where every delay lines up
# measured within 0.0012 dB of it, so agreement within 1 % in leak ratio
FIT_AGREE_REL = 0.01
# share of output signs that must match the best delayed source
MIN_SIGN_AGREEMENT = 0.99


def record_problems(record):
    """Reasons one emitted record fails the per-record checks (empty: passes)."""
    problems = []
    if record.get("status") != "ok":
        problems.append(f"status {record.get('status')!r}")
    index = record.get("index_db")
    if not isinstance(index, (int, float)) or not math.isfinite(index):
        problems.append(f"index_db {index!r} is not a finite number")
    elif index > MAX_INDEX_DB:
        problems.append(f"index_db {index:.2f} above {MAX_INDEX_DB} dB")
    try:
        json.dumps(record, allow_nan=False)
    except ValueError as exc:
        problems.append(f"record is not valid JSON: {exc}")
    return problems


def without_time(record):
    """The record with its wall-time field removed: a pure function of the scenario."""
    return {k: v for k, v in record.items() if k != "elapsed_s"}


def _to_db(leak, signal):
    if signal <= 0.0:
        return DB_RANGE[1] if leak > 0.0 else DB_RANGE[0]
    if leak <= 0.0:
        return DB_RANGE[0]
    return min(max(10.0 * math.log10(leak / signal), DB_RANGE[0]), DB_RANGE[1])


def interference_db(S):
    """Leaked-to-kept power of a global system, each output keeping its strongest source.

    Returns +inf when two outputs share a strongest source: such a system
    separates nothing, whatever its power ratio.
    """
    P = np.square(np.atleast_2d(np.asarray(S, dtype=float)))
    keep = P.argmax(axis=1)
    if len(set(keep.tolist())) != P.shape[0]:
        return math.inf
    kept = np.zeros(P.shape, dtype=bool)
    kept[np.arange(P.shape[0]), keep] = True
    return _to_db(float(P[~kept].sum()), float(P[kept].sum()))


def delayed_source_fit(y, sources, max_delay):
    """Index and sign agreement of an equalizer output against its best delayed source.

    Output sample m lines up with source sample m + (T - len(y)) - d for
    delay d in 0..max_delay.  Over the output samples where every delay
    lines up, y is fitted by least squares on all delayed sources at once,
    and the (source, delay) pair with the largest weight is the one the
    output recovers.  Returns (index_db, sign_agreement) at that pair alone:
    the power of the output that the pair leaves unexplained over the power
    it explains, and the share of output signs that match the pair's
    samples times the sign of the fit.
    """
    y = np.asarray(y, dtype=float)
    A = np.atleast_2d(np.asarray(sources, dtype=float))
    T = A.shape[1]
    offset = T - y.size
    first = max(0, max_delay - offset)
    y = y[first:]
    D = np.stack([src[first + offset - d:T - d] for src in A for d in range(max_delay + 1)],
                 axis=1)
    weights = np.linalg.lstsq(D, y, rcond=None)[0]
    a = D[:, int(np.argmax(np.abs(weights)))]
    gain = float(a @ y) / float(a @ a)
    leak = float(np.sum(np.square(y - gain * a)))
    signal = gain * gain * float(a @ a)
    agree = float(np.mean(y * (gain * a) > 0.0))
    # an output with nothing of the pair in it separates nothing, even a silent one
    return (_to_db(leak, signal) if signal > 0.0 else DB_RANGE[1]), agree


def agreement_problems(record, recomputed_db, rel=AGREE_REL):
    """Reasons a recomputed index disagrees with the record (empty: agrees).

    ``rel`` is the relative tolerance on the leak ratio.
    """
    if not math.isfinite(recomputed_db) or recomputed_db > MAX_INDEX_DB:
        return [f"recomputed index {recomputed_db:.2f} dB does not separate"]
    ours, theirs = 10.0 ** (recomputed_db / 10.0), 10.0 ** (record["index_db"] / 10.0)
    if abs(ours - theirs) > rel * theirs + AGREE_ABS:
        return [f"recomputed index {recomputed_db!r} dB differs from record {record['index_db']!r}"]
    return []


class RoundChecks:
    """Per-record checks of every round, and identity of every round with the first.

    ``plan`` lists ``(name, path, repetitions)`` per scenario; a round is a
    mapping from scenario name to the records it emitted.  Every record,
    failed ones too, goes through ``record_problems``, so a run with a
    failed repetition is not correct.
    """

    def __init__(self, plan):
        self.plan = plan
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, emitted):
        canonical = {}
        for name, _, reps in self.plan:
            records = emitted.get(name, [])
            self.attempted += reps
            self.failed += reps - sum(1 for r in records if r.get("status") == "ok")
            if [r.get("rep") for r in records] != list(range(reps)):
                self.problems.append(f"{name}: emitted reps {[r.get('rep') for r in records]}")
            for record in records:
                self.problems += [f"{name} rep {record.get('rep')}: {p}"
                                  for p in record_problems(record)]
            canonical[name] = [without_time(r) for r in records]
        if self.first is None:
            self.first = canonical
        elif canonical != self.first:
            self.problems.append("records differ from the first round's beyond elapsed_s")
