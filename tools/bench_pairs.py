"""Benchmark two commits in alternating pairs and write the evidence to one JSON file.

    python3 tools/bench_pairs.py BASE CHANGE --out BENCH_31.json
    python3 tools/bench_pairs.py HEAD~1 HEAD --pairs 1 --seconds 1 --workloads tensor-batch \
        --skip-tier1 --out /tmp/BENCH_smoke.json

Both commits are checked out the same way, each by ``git worktree`` into a
temporary directory, so neither side runs from a plain copy of a checkout
(which has read about 2 % slower on tensor-batch than a git clone of the same
commit).  For each workload, each pair runs ``perfbench/run.py --trace 0`` once
per side, each run its own subprocess, and which side runs first alternates
from pair to pair: within a pair the side that ran first has read faster.

The file records, for each workload and end-to-end metric of BENCHMARK.json,
each side's median and quartiles over the pairs, the change's median against
the base's in percent, and the number of pairs in which the change read
better.  Each run's record holds its order, ``correct``, ``attempted``,
``failed``, metrics and minor page faults (the RUSAGE_CHILDREN count it added,
its set-up probes included).  Both commits, the seed, the ``env`` line of each
side's first run (without its per-round timings) and, unless --skip-tier1,
each side's tier-1 wall time are recorded too.  The exit code is 1 when any
run read ``correct: false`` or failed a repetition.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
SEED = 1  # the benchmark seed of every run: both sides of a pair read the same scenarios
# the env line's per-round lists, which the run's own result file keeps
_ROUND_KEYS = ("rep_s_by_round", "raw_round_walls_s", "speed_factors")


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True).stdout.strip()


def _child_env():
    """The environment without a PYTHONPATH, so each side imports only its own src/."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def run_bench(checkout, workload, seconds):
    """One perfbench run in ``checkout``: (result, env line, minor faults, wall seconds)."""
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, env=_child_env(), capture_output=True, text=True, timeout=4 * seconds + 900)
    wall = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if done.returncode:
        raise SystemExit(f"error: perfbench in {checkout} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[len("env "):])
    return json.loads(lines[-1]), env, faults, wall


def run_tier1(checkout):
    """The tier-1 suite's wall time in ``checkout``, with BLAS on one thread as in CI, and its summary line."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                           "-p", "no:cacheprovider"],
                          cwd=checkout, env={**_child_env(), "PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - start, "exit_code": done.returncode, "summary": lines[-1] if lines else ""}


def _spread(values):
    """Median and quartiles (a single value stands for all three)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]} if values else \
            {"median": None, "q1": None, "q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, end_to_end):
    """Per metric: each side's spread, the change in percent and the pairs in which the change read better."""
    out = {}
    for spec in end_to_end:
        name = spec["name"]
        by_pair = {}
        for run in runs:
            value = run["metrics"].get(name)
            if value is not None:
                by_pair.setdefault(run["pair"], {})[run["side"]] = value
        values = {side: [pair[side] for pair in by_pair.values() if side in pair] for side in SIDES}
        base, change = _spread(values["base"]), _spread(values["change"])
        higher = spec["better"] == "higher"
        both = [pair for pair in by_pair.values() if len(pair) == 2]
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "base": base, "change": change,
            "change_pct": None if not base["median"] or change["median"] is None
            else 100.0 * (change["median"] / base["median"] - 1.0),
            "change_better_pairs": sum((p["change"] > p["base"]) if higher else (p["change"] < p["base"])
                                       for p in both),
            "pairs": len(both),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the commit measured first in even pairs, e.g. the parent")
    parser.add_argument("change", help="the commit it is compared with")
    parser.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_31.json")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads", nargs="+", default=["tensor-batch", "sample-stream", "long-block"])
    parser.add_argument("--skip-tier1", action="store_true", help="do not time the tier-1 suite on each side")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    commits = {side: {"ref": ref, "sha": _git("rev-parse", "--verify", f"{ref}^{{commit}}")}
               for side, ref in zip(SIDES, (args.base, args.change))}
    bench = {"commits": commits, "seed": SEED, "seconds": args.seconds, "pairs": args.pairs,
             "env": {}, "tier1": {}, "workloads": {}}
    incorrect = 0
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        try:
            for side in SIDES:
                _git("worktree", "add", "--detach", str(checkouts[side]), commits[side]["sha"])
            for side in SIDES if not args.skip_tier1 else ():
                bench["tier1"][side] = run_tier1(checkouts[side])
                print(f"tier-1 {side}: {bench['tier1'][side]}", file=sys.stderr)
            for workload in args.workloads:
                runs = []
                for pair in range(args.pairs):
                    order = SIDES if pair % 2 == 0 else SIDES[::-1]
                    for first, side in zip((True, False), order):
                        result, env, faults, wall = run_bench(checkouts[side], workload, args.seconds)
                        bench["env"].setdefault(side, {k: v for k, v in env.items() if k not in _ROUND_KEYS})
                        metrics = {name: m["value"] for name, m in result["metrics"].items()}
                        runs.append({"pair": pair, "side": side, "first": first, "correct": result["correct"],
                                     "attempted": result["attempted"], "failed": result["failed"],
                                     "minor_faults": faults, "wall_s": wall,
                                     "metrics": metrics})
                        incorrect += result["correct"] is not True or result["failed"] != 0
                        print(f"{workload} pair {pair} {side}: correct={result['correct']} "
                              f"failed={result['failed']} reps_per_s={metrics.get('reps_per_s')}", file=sys.stderr)
                bench["workloads"][workload] = {"metrics": summarize(runs, end_to_end), "runs": runs}
        finally:
            for side in SIDES:
                if checkouts[side].exists():
                    _git("worktree", "remove", "--force", str(checkouts[side]))
            _git("worktree", "prune")
    Path(args.out).write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    for workload, entry in bench["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:14} {name:15} base {m['base']['median']!r:>24} change {m['change']['median']!r:>24} "
                  f"({m['change_better_pairs']}/{m['pairs']} pairs better)")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
