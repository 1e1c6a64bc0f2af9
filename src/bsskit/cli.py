"""Experiment runner: scenario files in, JSON result records out.

Scenario files are flat ``key = value`` text with dotted paths, parsed
strictly (unknown keys are errors).  Example::

    # two AR(1) sources through a random rotation
    source.1.kind = ar1
    source.1.ar_coefficient = 0.9
    source.2.kind = ar1
    source.2.ar_coefficient = 0.1
    samples = 50000
    mixing = random_orthogonal
    algorithm = amuse
    algorithm.lag = 1
    seed = 0
    repetitions = 20

Subcommands: ``generate`` (write mixture/source files), ``run`` (one JSON
record per repetition), ``sweep`` (cross-product over one parameter), and
``eval`` (score a stored separator matrix against a stored mixing matrix).
Records are emitted one JSON object per line with sorted keys; everything
except the wall-time field is a pure function of the scenario text.  Exit
codes: 0 success, 2 config error, 3 all repetitions failed.

Mixings and the ``mixing.*`` keys each requires: none for identity,
random_orthogonal and random_condition(c); matrix for static; matrix and
noise_std for noisy; tap.0 .. tap.K for convolutive.  Config errors include
unknown keys, keys the scenario's algorithm or mixing does not take (checked
at every sweep point), and source or mixing values SourceSpec or MixingModel reject.
"""

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import time
from collections import namedtuple
from dataclasses import replace

import numpy as np

from .adaptive import INITS, MODES, AdaptConfig, run_separation, stability_check
from .algebraic import UNIMODAL_INITS, deterministic_cm, hopm, jacobi_diagonalize, jade, rank1_init, unimodal_equalizer
from .errors import BssError, DimensionMismatch, Diverged, InvalidPath, InvalidSpec
from .fixedpoint import EXTRACTION_VARIANTS, cma, symmetric_extract
from .metrics import _clamped_db, separation_index
from .moments import estimate_cum4
from .scores import SCORE_KINDS, make_score
from .second_order import amuse, fit_whitener, whiten
from .signals import SOURCE_KINDS, MixingModel, SourceSpec, generate_sources, mix

# numpy refuses an array whose byte count exceeds the largest intp
_MAX_SAMPLES = np.iinfo(np.intp).max // np.dtype(float).itemsize
_TOP_KEYS = {"seed": int, "samples": int, "repetitions": int, "algorithm": str, "mixing": str}

_SOURCE_KEY = re.compile(r"^source\.([1-9]\d*)\.(kind|ar_coefficient)$")
_TAP_KEY = re.compile(r"^tap\.(?:0|[1-9]\d*)$")
_COND_MIXING = re.compile(r"^random_condition\([^)]+\)$")


class ConfigError(Exception):
    """Scenario text failed to parse or validate (exit code 2)."""


def _parse_matrix(text):
    try:
        rows = [[float(x) for x in row.split()] for row in text.split(";")]
    except ValueError as exc:
        raise ConfigError(f"bad matrix literal {text!r}: {exc}") from None
    if not rows or any(len(r) != len(rows[0]) for r in rows) or not rows[0]:
        raise ConfigError(f"ragged or empty matrix literal {text!r}")
    return np.array(rows, dtype=float)


def _format_value(value):
    if isinstance(value, np.ndarray):
        return " ; ".join(" ".join(repr(float(x)) for x in row) for row in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _coerce(key, raw, kind):
    """Value of one key: int and float are converted, a tuple lists the allowed strings."""
    if isinstance(kind, tuple) and raw not in kind:
        raise ConfigError(f"{key} must be one of {kind}, got {raw!r}")
    if kind not in (int, float):
        return raw
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {raw!r}") from None
    if kind is float and not np.isfinite(value):  # strict JSON has no NaN or infinity
        raise ConfigError(f"{key}: expected a finite {kind.__name__}, got {raw!r}")
    return value


def _key_type(key, scenario):
    """Coercion type for a dotted key, or None when the scenario's own schemas lack it."""
    if key in _TOP_KEYS:
        return _TOP_KEYS[key]
    m = _SOURCE_KEY.match(key)
    if m:
        return SOURCE_KINDS if m.group(2) == "kind" else float
    owner, _, name = key.partition(".")
    if owner == "algorithm":
        entry = ALGORITHMS.get(scenario.get("algorithm"))
    elif owner == "mixing" and name != "tap.K":  # a schema's tap.K stands for tap.0, tap.1, ...
        entry = _mixing_entry(scenario.get("mixing", ""))
        name = "tap.K" if _TAP_KEY.match(name) else name
    else:
        return None
    return entry[1].get(name) if entry else None


def _mixing_entry(name):
    """(builder, schema) of a mixing name, or None when the name is unknown."""
    return MIXINGS.get(_COND_MIXING.sub("random_condition(c)", name))


def parse_scenario(text):
    """Parse flat key = value scenario text into a {key: value} dict.

    Strict: unknown keys, repeated keys, and type errors all raise
    ConfigError.  Matrix values keep their ndarray form.
    """
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in pairs:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        pairs[key] = raw

    scenario = {}
    for key, raw in pairs.items():
        kind = _key_type(key, pairs)
        if kind is None:
            raise ConfigError(f"unknown key {key!r}")
        scenario[key] = _parse_matrix(raw) if kind == "matrix" else _coerce(key, raw, kind)
    return scenario


def validate_scenario(scenario):
    """Check cross-key consistency; returns the SourceSpec list, its seeds left at 0.

    SourceSpec and MixingModel check the source and mixing values: both are built here once.
    """
    for key, default in (("seed", 0), ("repetitions", 1)):
        scenario.setdefault(key, default)
    for key in ("samples", "algorithm", "mixing"):
        if key not in scenario:
            raise ConfigError(f"missing required key {key!r}")
    if scenario["seed"] < 0:
        raise ConfigError("seed must be >= 0")
    if scenario["samples"] < 1:
        raise ConfigError("samples must be >= 1")
    if scenario["samples"] > _MAX_SAMPLES:
        raise ConfigError(f"samples must be <= {_MAX_SAMPLES}, the most float64 values one array can hold")
    if scenario["repetitions"] < 0:
        raise ConfigError("repetitions must be >= 0")
    algorithm = _coerce("algorithm", scenario["algorithm"], tuple(ALGORITHMS))
    mixing = scenario["mixing"]
    entry = _mixing_entry(mixing)
    if entry is None:
        raise ConfigError(f"mixing must be one of {tuple(MIXINGS)}, got {mixing!r}")
    # a sweep over the algorithm or the mixing keeps keys parsed for another one
    for key in (k for k in scenario if k.startswith(("algorithm.", "mixing."))):
        kind = _key_type(key, scenario)
        if kind is None:
            owner = key.partition(".")[0]
            raise ConfigError(f"{key} is not a parameter of {owner} {scenario[owner]}")
        _coerce(key, scenario[key], kind)
    if mixing == "convolutive" and algorithm != "unimodal":
        raise ConfigError(f"{algorithm} expects an instantaneous mixture; only unimodal equalizes")

    indices = sorted(int(_SOURCE_KEY.match(k).group(1)) for k in scenario
                     if _SOURCE_KEY.match(k) and k.endswith(".kind"))
    if indices != list(range(1, len(indices) + 1)) or not indices:
        raise ConfigError("sources must be source.1.kind .. source.N.kind, contiguous from 1")
    for key in scenario:
        m = _SOURCE_KEY.match(key)
        if m and int(m.group(1)) > len(indices):
            raise ConfigError(f"{key}: source index beyond source count {len(indices)}")
    specs = []
    for i in indices:
        try:
            specs.append(SourceSpec(scenario[f"source.{i}.kind"], scenario.get(f"source.{i}.ar_coefficient")))
        except InvalidSpec as exc:
            raise ConfigError(f"source.{i}: {exc}") from None
    try:
        model = entry[0](scenario, len(specs), 0, 0)
    except KeyError as exc:
        raise ConfigError(f"mixing = {mixing} requires {exc.args[0]}") from None
    except (InvalidSpec, DimensionMismatch) as exc:
        raise ConfigError(f"mixing = {mixing}: {exc}") from None
    if model.source_count != len(specs):
        raise ConfigError(f"mixing = {mixing} takes {model.source_count} sources, the scenario has {len(specs)}")
    if algorithm == "adaptive":
        mode = scenario.get("algorithm.mode", AdaptConfig.mode)
        sensors = model.matrix.shape[0]
        # nonlinear_pca whitens first, which drops the null directions of a noise-free
        # tall mixing; sensor noise fills them, and a wide mixing has fewer than its sources
        if mode == "nonlinear_pca" and (sensors < len(specs) or sensors > len(specs) and model.noise_std > 0):
            raise ConfigError(f"adaptive mode {mode} needs at least one sensor per source, and exactly one "
                              f"under sensor noise, mixing matrix {model.matrix.shape}")
        if mode != "nonlinear_pca" and sensors != len(specs):
            raise ConfigError(f"adaptive mode {mode} needs one sensor per source, mixing matrix {model.matrix.shape}")
    return specs


def canonical_text(scenario):
    return "\n".join(f"{k} = {_format_value(scenario[k])}" for k in sorted(scenario))


def scenario_id(scenario):
    return hashlib.sha256(canonical_text(scenario).encode("ascii")).hexdigest()[:12]


def load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path!r}: {exc}") from None
    scenario = parse_scenario(text)
    override = os.environ.get("BSSKIT_SEED")
    if override is not None:
        scenario["seed"] = _coerce("BSSKIT_SEED", override, int)
    return scenario, validate_scenario(scenario)


def _delay_match_index(y, A, max_delay):
    """Index in dB for one equalizer output against every delayed source."""
    y = np.asarray(y, dtype=float)
    y = y / max(np.sqrt(np.mean(y * y)), 1e-30)
    best = 0.0
    T = A.shape[1]
    offset = T - y.size  # output m aligns with source sample m + offset
    for j in range(A.shape[0]):
        for d in range(max_delay + 1):
            lo = max(0, d - offset)
            a = A[j, lo + offset - d:T - d]
            seg = y[lo:lo + a.size]
            if a.size < 2:
                continue
            c = float(np.mean(seg * a))
            best = max(best, abs(c))
    return _clamped_db(1.0 - best * best, best * best)


_Mixture = namedtuple("_Mixture", "A model U seed")  # sources, mixing model, sensors, algorithm seed


def _mixture(scenario, specs, rep):
    # derived per-repetition seeds: one per source, then mixing, noise and algorithm
    state = np.random.SeedSequence((scenario["seed"], rep)).generate_state(len(specs) + 3).tolist()
    A = generate_sources([replace(spec, seed=seed) for spec, seed in zip(specs, state)], scenario["samples"])
    model = _mixing_entry(scenario["mixing"])[0](scenario, len(specs), state[-3], state[-2])
    return _Mixture(A, model, mix(model, A), state[-1])


def _index(m, demixing):
    """Separation index of demixing rows, or one row, on the static mixture of m."""
    return separation_index(np.atleast_2d(demixing @ m.model.matrix))


# Adapters: (mixture, params) -> (index_db, iters, verdict).  params holds only
# the algorithm.* keys the scenario sets, so each default lives in the library
# signature, apart from keys the library has no default for or names otherwise.

def _amuse(m, params):
    return _index(m, amuse(m.U, **params).matrix), None, None


def _adaptive(m, params):
    score = params.pop("score", "cubic")
    if "epochs" in params:
        params["max_iterations"] = params.pop("epochs")
    params.setdefault("init_seed", m.seed)
    scores = [make_score(score) for _ in range(m.A.channel_count)]
    sep, trajectory = run_separation(m.U, scores, AdaptConfig(**params))
    index = _index(m, sep.matrix)
    verdict = bool(stability_check(sep.apply(m.U), scores).verdict)
    return index, len(trajectory) or None, verdict


def _fastica(m, params):
    score = params.pop("score", "cubic")
    sep = symmetric_extract(m.U, lambda: make_score(score), seed=m.seed, whitener=fit_whitener(m.U), **params)
    return _index(m, sep.matrix), sep.iterations, None


def _jade(m, params):
    return _index(m, jade(m.U).matrix), None, None


def _jacobi(m, params):
    whitener = fit_whitener(m.U)
    Q = jacobi_diagonalize(estimate_cum4(m.U, whitener=whitener), **params)
    return _index(m, Q @ whitener.matrix), None, None


def _cma(m, params):
    whitener, Z = whiten(m.U)
    g, trajectory = cma(Z, **params)
    return _index(m, g @ whitener.matrix), len(trajectory), None


def _rank1_sea(m, params):
    whitener = fit_whitener(m.U)
    C = estimate_cum4(m.U, whitener=whitener)
    _, g = hopm(C, init=rank1_init(C).g0, **params)
    return _index(m, g @ whitener.matrix), None, None


def _unimodal(m, params):
    mu1, mu2, L = params.pop("mu1", 0.05), params.pop("mu2", 0.5), params.pop("window_length", 16)
    result = unimodal_equalizer(m.U, mu1=mu1, mu2=mu2, L=L, **params)
    index = _delay_match_index(result.outputs(m.U), m.A.data, L + m.model.order)
    return index, len(result.trajectory), None


def _det_cm(m, params):
    return _index(m, deterministic_cm(m.U, **params).g), None, None


_ITERATIONS = {"max_iterations": int, "tolerance": float}

# name -> (adapter, schema); a schema maps each algorithm.* key to int, float
# or the tuple of its allowed strings
ALGORITHMS = {
    "amuse": (_amuse, {"lag": int, "gap_tolerance": float}),
    "adaptive": (_adaptive, {"step_size": float, "mode": MODES, "score": SCORE_KINDS, "epochs": int,
                             "convergence_tolerance": float, "init": INITS, "init_seed": int}),
    "fastica": (_fastica, {"variant": EXTRACTION_VARIANTS, "score": SCORE_KINDS, **_ITERATIONS}),
    "jade": (_jade, {}),
    "jacobi": (_jacobi, {"sweep_tolerance": float, "max_sweeps": int}),
    "sea": (_fastica, _ITERATIONS),  # fastica with its newton variant and cubic score
    "cma": (_cma, {"step_size": float, "epochs": int}),
    "rank1_sea": (_rank1_sea, _ITERATIONS),
    "unimodal": (_unimodal, {"mu1": float, "mu2": float, "window_length": int, "epochs": int,
                             "init": UNIMODAL_INITS}),
    "det_cm": (_det_cm, {"max_refinements": int}),
}


def _random(scenario, n, mix_seed, noise_seed):
    # random_orthogonal is Q; random_condition(c) is Q diag(1 .. 1/c) V^T
    rng = np.random.default_rng(mix_seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if scenario["mixing"] != "random_orthogonal":
        # the name matched _COND_MIXING, so c is the text between its parentheses
        cond = _coerce("mixing", scenario["mixing"][len("random_condition("):-1], float)
        if not cond >= 1.0:
            raise ConfigError(f"random_condition needs c >= 1, got {cond}")
        qv, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q = q @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ qv.T
    return MixingModel("static", matrix=q)


def _convolutive(scenario, n, mix_seed, noise_seed):
    # tap numbers have no leading zeros, so a gap in them is a missing key
    count = sum(k.startswith("mixing.tap.") for k in scenario)
    return MixingModel("convolutive", taps=tuple(scenario[f"mixing.tap.{k}"] for k in range(count)))


# name -> (builder, schema).  A builder maps (scenario, source count, mixing
# seed, noise seed) to the MixingModel, which checks its own values.  A schema
# maps each mixing.* key to its type as in ALGORITHMS; tap.K stands for the
# numbered taps tap.0, tap.1, ...
MIXINGS = {
    "identity": (lambda scenario, n, *seeds: MixingModel("static", matrix=np.eye(n)), {}),
    "random_orthogonal": (_random, {}),
    "random_condition(c)": (_random, {}),
    "static": (lambda scenario, n, *seeds: MixingModel("static", matrix=scenario["mixing.matrix"]),
               {"matrix": "matrix"}),
    "noisy": (lambda scenario, n, mix_seed, noise_seed: MixingModel(
        "noisy", matrix=scenario["mixing.matrix"], noise_std=scenario["mixing.noise_std"],
        noise_seed=noise_seed), {"matrix": "matrix", "noise_std": float}),
    "convolutive": (_convolutive, {"tap.K": "matrix"}),
}


def _run_once(scenario, specs, rep):
    """One repetition: generate, mix, separate, score.  Raises BssError."""
    adapter, _ = ALGORITHMS[scenario["algorithm"]]
    params = {k[len("algorithm."):]: v for k, v in scenario.items() if k.startswith("algorithm.")}
    return adapter(_mixture(scenario, specs, rep), params)


def run_experiment(scenario, specs, extra=None):
    """All repetitions of one scenario, from validate_scenario's specs; returns a list of record dicts.

    Per-repetition errors become records with a status naming the error
    class; they never abort the batch.
    """
    records = []
    sid = scenario_id(scenario)
    for rep in range(scenario["repetitions"]):
        record = {
            "scenario_id": sid,
            "rep": rep,
            "seed": scenario["seed"],
            "algorithm": scenario["algorithm"],
            "index_db": None,
            "iters": None,
            "status": "ok",
            "verdict": None,
        }
        if extra:
            record.update(extra)
        start = time.perf_counter()
        try:
            index, iters, verdict = _run_once(scenario, specs, rep)
            if not np.isfinite(index):
                raise Diverged(f"separation index is {index}")
            record["index_db"] = float(index)
            record["iters"] = iters
            record["verdict"] = verdict
        except BssError as exc:
            record["status"] = type(exc).__name__
        except np.linalg.LinAlgError:
            record["status"] = "LinAlgError"
        record["elapsed_s"] = time.perf_counter() - start
        records.append(record)
    return records


def _emit(records, out_path, csv_path):
    """Write the records; returns the exit code, 3 when every repetition failed."""
    lines = [json.dumps(rec, sort_keys=True, allow_nan=False) for rec in records]
    text = "".join(line + "\n" for line in lines)
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if csv_path:
        with open(csv_path, "w", encoding="ascii") as fh:
            fh.write("scenario_id,rep,seed,algorithm,index_db,iters,status\n")
            for rec in records:
                cells = [rec["scenario_id"], rec["rep"], rec["seed"], rec["algorithm"],
                         "" if rec["index_db"] is None else repr(rec["index_db"]),
                         "" if rec["iters"] is None else rec["iters"], rec["status"]]
                fh.write(",".join(str(c) for c in cells) + "\n")
    return 3 if records and all(rec["status"] != "ok" for rec in records) else 0


def write_signals(path, data):
    """Signal file: header line `channels samples`, one row per channel."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{data.shape[0]} {data.shape[1]}\n")
        for row in data:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def read_signals(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().split()
            rows, cols = int(header[0]), int(header[1])
            data = np.loadtxt(fh, ndmin=2)
    except (OSError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad signal file {path!r}: {exc}") from None
    if data.shape != (rows, cols):
        raise ConfigError(f"{path!r}: header says {rows}x{cols}, found {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"{path!r}: non-finite entry")
    return data


def _cmd_generate(args):
    if args.rep < 0:
        raise ConfigError(f"--rep must be >= 0, got {args.rep}")
    scenario, specs = load_scenario(args.scenario)
    m = _mixture(scenario, specs, args.rep)
    write_signals(args.out, m.U.data)
    if args.sources_out:
        write_signals(args.sources_out, m.A.data)
    return 0


def _cmd_run(args):
    scenario, specs = load_scenario(args.scenario)
    return _emit(run_experiment(scenario, specs), args.out, args.csv)


def _cmd_sweep(args):
    scenario, _ = load_scenario(args.scenario)
    kind = _key_type(args.param, scenario)
    if kind is None or kind == "matrix":
        raise InvalidPath(f"cannot sweep over {args.param!r}")
    values = [_coerce(args.param, raw.strip(), kind) for raw in args.values.split(",")]
    # validate every point before running any
    grid = []
    for value in values:
        point = {**scenario, args.param: value}
        grid.append((value, point, validate_scenario(point)))
    records = []
    for value, point, specs in grid:
        records.extend(run_experiment(point, specs,
                                      extra={"parameter": args.param, "value": value}))
    return _emit(records, args.out, args.csv)


def _cmd_eval(args):
    G = read_signals(args.separator)
    H = read_signals(args.mixing)
    if G.shape[1] != H.shape[0]:
        raise ConfigError(f"separator {G.shape} does not compose with mixing {H.shape}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            record = {"index_db": separation_index(G @ H), "rows": G.shape[0], "status": "ok"}
    except FloatingPointError as exc:
        raise ConfigError(f"separator times mixing leaves the float range: {exc}") from exc
    sys.stdout.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")
    return 0


@functools.lru_cache(maxsize=None)  # built once per process: parsing leaves it as it was
def _parser():
    parser = argparse.ArgumentParser(prog="bsskit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write mixture (and optionally source) signal files")
    p.add_argument("scenario")
    p.add_argument("--out", required=True)
    p.add_argument("--sources-out", default=None)
    p.add_argument("--rep", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run a scenario, one JSON record per repetition")
    p.add_argument("scenario")
    p.add_argument("--out", default=None, help="JSONL path (default stdout)")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run a scenario once per value of one parameter")
    p.add_argument("scenario")
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("eval", help="score a stored separator against a stored mixing matrix")
    p.add_argument("--separator", required=True)
    p.add_argument("--mixing", required=True)
    p.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidPath, InvalidSpec) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
