"""Golden records: the CLI records of the benchmark scenarios, rerun and compared.

``golden_records.jsonl`` holds every field but ``elapsed_s`` of each record
that ``cli.run_experiment`` emits for the 12 scenarios of the three benchmark
workloads (``perfbench/scenarios.build``, imported) at benchmark seeds 1, 2, 3
and 6, then of a few small scenarios on paths those workloads leave out.  The
test reruns them: ``status``, ``iters`` and ``verdict`` must match exactly,
``index_db`` to within INDEX_TOLERANCE_DB.

A change that moves results on purpose rewrites the file, and the writer
prints the largest |change of index_db| per workload against the file it
replaces:

    PYTHONPATH=src python tests/test_golden.py
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from bsskit import cli

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_records.jsonl"
SEEDS = (1, 2, 3, 6)
# Rerunning the same scenarios on mixtures with one ulp of rounding noise on
# every sample (two draws) left every status, iteration count and verdict as
# it was, and moved index_db by at most 9.6e-6 dB (det_cm_n3@6; 2.2e-9 dB or
# less off det_cm).  The tolerance leaves ten times that.
INDEX_TOLERANCE_DB = 1e-4


def _workload_scenarios():
    spec = importlib.util.spec_from_file_location("perfbench_scenarios", HERE.parent / "perfbench" / "scenarios.py")
    scenarios = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scenarios)
    return {workload: [(f"{name}@{seed}", text) for seed in SEEDS for name, text in scenarios.build(workload, seed)]
            for workload in scenarios.WORKLOADS}


_MIXED = "mixing = random_orthogonal\nsamples = 4000\nrepetitions = 2\n"
# paths the workloads leave out: the anti-Hebbian rule, a tanh score's stability
# verdict, and symmetric FastICA on a state-keeping score, which streams the data
PATHS = [
    ("adaptive_anti_hebbian", "source.1.kind = uniform\nsource.2.kind = uniform\nsource.3.kind = uniform\n" + _MIXED
     + "algorithm = adaptive\nalgorithm.mode = anti_hebbian\nalgorithm.step_size = 0.003\nseed = 7\n"),
    ("adaptive_tanh", "source.1.kind = laplace\nsource.2.kind = laplace\n" + _MIXED
     + "algorithm = adaptive\nalgorithm.score = tanh\nalgorithm.step_size = 0.003\nseed = 8\n"),
    ("fastica_sign_switching", "source.1.kind = laplace\nsource.2.kind = uniform\nsource.3.kind = laplace\n" + _MIXED
     + "algorithm = fastica\nalgorithm.score = sign_switching\nseed = 9\n"),
]


SCENARIOS = {**_workload_scenarios(), "paths": PATHS}


def run(workload, scenarios):
    """Every record of ``scenarios``, labelled with the workload and scenario name, without elapsed_s."""
    records = []
    for name, text in scenarios:
        scenario = cli.parse_scenario(text)
        for record in cli.run_experiment(scenario, cli.validate_scenario(scenario),
                                         extra={"workload": workload, "scenario": name}):
            del record["elapsed_s"]
            records.append(record)
    return records


def load():
    """The golden records, grouped by workload."""
    groups = {}
    for line in GOLDEN.read_text(encoding="ascii").splitlines():
        record = json.loads(line)
        groups.setdefault(record["workload"], []).append(record)
    return groups


def _index_change(got, want):
    """|change of index_db|, 0 where both are None and inf where only one is."""
    if got["index_db"] is None or want["index_db"] is None:
        return 0.0 if got["index_db"] == want["index_db"] else math.inf
    return abs(got["index_db"] - want["index_db"])


@pytest.mark.parametrize("workload, scenarios", SCENARIOS.items(), ids=SCENARIOS)
def test_records_match_the_golden_file(workload, scenarios):
    want = load()[workload]
    got = run(workload, scenarios)
    assert [(r["scenario"], r["rep"]) for r in got] == [(r["scenario"], r["rep"]) for r in want]
    for g, w in zip(got, want):
        label = f"{workload} {g['scenario']} rep {g['rep']}"
        assert {k: v for k, v in g.items() if k != "index_db"} == {k: v for k, v in w.items() if k != "index_db"}, label
        assert _index_change(g, w) <= INDEX_TOLERANCE_DB, f"{label}: index_db {g['index_db']!r}, golden {w['index_db']!r}"


def main():
    old = load() if GOLDEN.exists() else {}
    lines = []
    for workload, scenarios in SCENARIOS.items():
        records = run(workload, scenarios)
        lines += [json.dumps(r, sort_keys=True, allow_nan=False) for r in records]
        before = old.get(workload, [])
        if [(r["scenario"], r["rep"]) for r in before] == [(r["scenario"], r["rep"]) for r in records]:
            change = max(_index_change(g, w) for g, w in zip(records, before))
            print(f"{workload}: {len(records)} records, largest |change of index_db| {change!r} dB")
        else:
            print(f"{workload}: {len(records)} records, not comparable with the file it replaces")
    GOLDEN.write_text("".join(line + "\n" for line in lines), encoding="ascii")


if __name__ == "__main__":
    main()
