"""bsskit benchmark: one workload through the scenario CLI, timed and checked.

    python3 perfbench/run.py --workload tensor-batch --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a bsskit checkout; the package is imported from
the checkout's ``src/``.  A run sets up (imports bsskit, writes and parses
the workload's scenario files, warms up), then runs whole rounds through
``bsskit.cli.main(["run", ...])`` until ``--seconds`` have passed.  Every
round repeats exactly the same repetitions, and every emitted record is
checked (see checker.py).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  README.md describes the workloads and metrics.
"""

import time

_START = time.perf_counter()  # set-up is timed from here, so interpreter start-up stays out

import os

# One BLAS and OpenMP thread: the plain single-threaded baseline.  Set before
# numpy is first imported, which is when OpenBLAS reads it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("BSSKIT_SEED", None)  # the benchmark seed alone decides the scenario seeds

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import checker
import layers
import scenarios
from speed import SpeedReference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

# set-up is measured this many times in fresh processes, one after another
SETUP_PROBES = 9
# passes of the speed reference a set-up probe times after its set-up
PROBE_SPEED_PASSES = 3
# warm-up runs one repetition of every scenario at this sample count
WARMUP_SAMPLES = 1000


def _import_bsskit():
    if not (SRC / "bsskit" / "__init__.py").is_file():
        raise SystemExit(f"error: no bsskit package under {SRC}; run from a bsskit checkout")
    sys.path.insert(0, str(SRC))
    import bsskit
    from bsskit import cli
    if Path(bsskit.__file__).resolve().parent != (SRC / "bsskit").resolve():
        raise SystemExit(f"error: imported bsskit from {bsskit.__file__}, not from {SRC}")
    return cli


def set_up(workload, seed, out_dir):
    """Import bsskit, write and parse the scenario files, warm up.

    Returns the cli module and the ``(name, path, repetitions)`` of every
    scenario of the workload.
    """
    cli = _import_bsskit()
    out_dir.mkdir(parents=True, exist_ok=True)
    plan = []
    for name, text in scenarios.build(workload, seed):
        path = out_dir / f"{name}.cfg"
        path.write_text(text)
        scenario, sources = cli.load_scenario(str(path))
        plan.append((name, path, scenario["repetitions"]))
        scenario.update(samples=WARMUP_SAMPLES, repetitions=1)
        cli.run_experiment(scenario, sources)
    return cli, plan


class Round:
    """One pass over every scenario through the CLI.

    ``records[name]`` are the records the scenario emitted, ``wall_s[name]``
    the time its ``bsskit run`` took, and ``factor[name]`` the scale from
    raw to nominal-speed seconds (1.0 when run without a speed reference).
    """

    def __init__(self, cli, plan, out_dir, speed=None):
        self.records, self.wall_s, self.factor = {}, {}, {}
        ref = speed.time() if speed else None
        for name, path, _ in plan:
            out = out_dir / f"{name}.jsonl"
            out.unlink(missing_ok=True)
            start = time.perf_counter()
            cli.main(["run", str(path), "--out", str(out)])
            self.wall_s[name] = time.perf_counter() - start
            if speed:
                after = speed.time()
                self.factor[name] = speed.factor(ref, after)
                ref = after
            else:
                self.factor[name] = 1.0
            lines = out.read_text().splitlines() if out.exists() else []
            self.records[name] = [json.loads(line) for line in lines if line.strip()]

    def wall(self):
        """Nominal-speed seconds of the whole round."""
        return sum(w * self.factor[name] for name, w in self.wall_s.items())


def probe_setup(own_setup_s):
    """This process's set-up time, raw and at nominal speed.

    The speed reference is timed in this process right after the set-up;
    its first pass, which pays for fresh pages, is left out.
    """
    speed = SpeedReference()
    speed.time()
    ref = statistics.median(speed.time() for _ in range(PROBE_SPEED_PASSES))
    return own_setup_s, own_setup_s * speed.factor(ref)


def measure_setup(args):
    """Median set-up time of fresh processes run one after another, at nominal speed.

    Returns (setup_s, nominal samples, raw samples).
    """
    nominal, raw = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        raw_s, nominal_s = map(float, done.stdout.split()[-2:])
        raw.append(raw_s)
        nominal.append(nominal_s)
    return statistics.median(nominal), nominal, raw


def environment():
    """What the timings depend on besides the code: versions, threads, cores."""
    info = {"python": sys.version.split()[0], "numpy": np.__version__,
            "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def process_threads():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def _ok(records):
    return [r for r in records if r.get("status") == "ok"]


def end_to_end(rounds, setup_s):
    """The five end-to-end metrics, and each scenario's mean repetition time per round.

    Times are at nominal machine speed (see speed.py).  Only completed
    repetitions count: a repetition that fails early must not read as a
    speed-up.
    """
    completed = sum(len(_ok(records)) for rnd in rounds for records in rnd.records.values())
    rep_s = {name: [rnd.factor[name] * statistics.fmean(r["elapsed_s"] for r in _ok(rnd.records[name]))
                    for rnd in rounds if _ok(rnd.records[name])]
             for name in rounds[0].records}
    medians = [statistics.median(per_round) for per_round in rep_s.values() if per_round]
    quality = [-r["index_db"] for records in rounds[0].records.values() for r in _ok(records)]
    if not completed or not quality:
        raise SystemExit("error: no repetition completed")
    metrics = {
        "reps_per_s": (completed / len(rounds) / statistics.median(rnd.wall() for rnd in rounds),
                       "1/s"),
        "rep_s_gmean": (math.exp(statistics.fmean(math.log(m) for m in medians)), "s"),
        "sep_quality_db": (statistics.fmean(quality), "dB"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, rep_s


def timed_pass(cli, plan, out_dir, seconds, checks, speed):
    """Whole rounds until ``seconds`` have passed; returns the rounds."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(Round(cli, plan, out_dir, speed))
        checks.add(rounds[-1].records)
        if time.perf_counter() - start >= seconds:
            return rounds


def traced_pass(cli, plan, out_dir, seconds, checks):
    """Plain and traced rounds in turn until ``seconds`` have passed.

    Alternating keeps slow drifts of machine speed out of the overhead
    estimate.  Returns (recorder, plain walls, traced walls).
    """
    recorder = layers.Recorder()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        rnd = Round(cli, plan, out_dir)
        plain.append(rnd.wall())
        checks.add(rnd.records)
        with recorder.tracer.patched():
            rnd = Round(cli, plan, out_dir)
        traced.append(rnd.wall())
        checks.add(rnd.records)
        checks.problems += recorder.check_round(plan, rnd.records)
        if time.perf_counter() - start >= seconds:
            return recorder, plain, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out_dir = RESULTS / f"{args.workload}-seed{args.seed}"
    cli, plan = set_up(args.workload, args.seed, out_dir)
    own_setup_s = time.perf_counter() - _START
    if args.setup_probe:
        print(*map(repr, probe_setup(own_setup_s)))
        return 0

    env = environment()
    env["own_setup_s"] = own_setup_s
    checks = checker.RoundChecks(plan)
    if args.trace:
        recorder, walls, traced_walls = traced_pass(cli, plan, out_dir, args.seconds, checks)
        metrics = layers.per_layer(recorder, walls, traced_walls)
        (out_dir / "trace.json").write_text(json.dumps(
            {"rounds": len(traced_walls), "spans": recorder.tracer.tree()}, indent=1))
    else:
        setup_s, env["setup_samples_s"], env["raw_setup_samples_s"] = measure_setup(args)
        rounds = timed_pass(cli, plan, out_dir, args.seconds, checks, SpeedReference())
        metrics, env["rep_s_by_round"] = end_to_end(rounds, setup_s)
        env["raw_round_walls_s"] = [sum(rnd.wall_s.values()) for rnd in rounds]
        env["speed_factors"] = [rnd.factor for rnd in rounds]
    env["threads_at_end"] = process_threads()

    for problem in checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "result": result}, indent=1))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
