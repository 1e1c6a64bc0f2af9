"""Scenario parsing, dispatch, record emission, exit codes."""

import json
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bsskit
from bsskit import cli
from bsskit import (SourceSpec, estimate_cum4, hopm, jacobi_diagonalize, jade_rotation, make_score, rank1_init,
                    sample_covariance, separation_index, symmetric_extract, whiten)
from bsskit.cli import (
    ALGORITHMS,
    MIXINGS,
    ConfigError,
    _index,
    _mixture,
    canonical_text,
    main,
    parse_scenario,
    read_signals,
    run_experiment,
    scenario_id,
    validate_scenario,
    write_signals,
)
from bsskit.second_order import _sorted_eigh

SRC_DIR = os.path.dirname(os.path.dirname(bsskit.__file__))
README = os.path.join(os.path.dirname(SRC_DIR), "README.md")

JADE_SCENARIO = """\
source.1.kind = bpsk
source.2.kind = bpsk
source.3.kind = bpsk
samples = 20000
mixing = random_orthogonal
algorithm = jade
seed = 3
repetitions = 5
"""

ADAPTIVE_SCENARIO = """\
source.1.kind = bpsk
source.2.kind = bpsk
samples = 4000
mixing = static
mixing.matrix = 1 0.3 ; 0.2 1
algorithm = adaptive
algorithm.step_size = 0.01
seed = 5
repetitions = 1
"""

THREE_BPSK = """\
source.1.kind = bpsk
source.2.kind = bpsk
source.3.kind = bpsk
samples = 2000
mixing = random_orthogonal
seed = 1
repetitions = 1
"""

FIR_BPSK = """\
source.1.kind = bpsk
samples = 2000
mixing = convolutive
mixing.tap.0 = 1 ; 0.4
mixing.tap.1 = 0.3 ; -0.5
seed = 1
repetitions = 1
"""

TWO_AR1 = """\
source.1.kind = ar1
source.1.ar_coefficient = 0.9
source.2.kind = ar1
source.2.ar_coefficient = 0.3
samples = 4000
mixing = random_orthogonal
seed = 1
repetitions = 1
"""


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    monkeypatch.delenv("BSSKIT_SEED", raising=False)


def put(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def records_of(path):
    return [json.loads(line) for line in open(path) if line.strip()]


def test_strict_parsing_rejects_malformed_scenarios(tmp_path):
    with pytest.raises(ConfigError):
        parse_scenario("bogus = 1")
    with pytest.raises(ConfigError):
        parse_scenario("seed = 1\nseed = 2")
    with pytest.raises(ConfigError):
        parse_scenario("samples = many")
    with pytest.raises(ConfigError):
        parse_scenario("mixing = static\nmixing.matrix = 1 2 ; 3")
    with pytest.raises(ConfigError):
        # records are strict JSON, so a parameter cannot carry NaN into them
        parse_scenario("algorithm = cma\nalgorithm.step_size = nan")
    with pytest.raises(ConfigError):
        # parameter belonging to a different algorithm
        parse_scenario("algorithm = jade\nalgorithm.lag = 1")
    with pytest.raises(ConfigError):
        validate_scenario(parse_scenario("samples = 100\nalgorithm = jade\nmixing = identity"))
    with pytest.raises(ConfigError):
        # a choice the library does not offer
        parse_scenario("algorithm = adaptive\nalgorithm.mode = bogus")
    with pytest.raises(ConfigError):
        # only the unimodal equalizer takes a convolutive mixture
        validate_scenario(parse_scenario(FIR_BPSK + "algorithm = jade"))

    # more samples than one float64 array can hold: rejected before anything is allocated
    for samples in ("99999999999999999999999", str(2**62)):
        huge = THREE_BPSK.replace("samples = 2000", f"samples = {samples}") + "algorithm = jade\n"
        with pytest.raises(ConfigError, match="samples"):
            validate_scenario(parse_scenario(huge))
        assert main(["run", put(tmp_path, huge, "huge.cfg")]) == 2

    bad = put(tmp_path, "source.1.kind = bpsk\nwat = 1\n")
    assert main(["run", bad]) == 2


def test_zero_repetitions_runs_clean(tmp_path):
    text = ADAPTIVE_SCENARIO.replace("repetitions = 1", "repetitions = 0")
    out = tmp_path / "r.jsonl"
    assert main(["run", put(tmp_path, text), "--out", str(out)]) == 0
    assert out.read_text() == ""


def test_records_are_reproducible_excluding_wall_time(tmp_path):
    text = JADE_SCENARIO.replace("samples = 20000", "samples = 4000").replace(
        "repetitions = 5", "repetitions = 2")
    scenario = put(tmp_path, text)
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        assert main(["run", scenario, "--out", str(out)]) == 0
        lines = []
        for rec in records_of(out):
            rec.pop("elapsed_s")
            lines.append(json.dumps(rec, sort_keys=True))
        outs.append("\n".join(lines))
    assert outs[0] == outs[1]


def test_jade_scenario_medians_below_threshold(tmp_path):
    out = tmp_path / "r.jsonl"
    assert main(["run", put(tmp_path, JADE_SCENARIO), "--out", str(out),
                 "--csv", str(tmp_path / "r.csv")]) == 0
    recs = records_of(out)
    assert len(recs) == 5
    assert all(rec["status"] == "ok" for rec in recs)
    assert float(np.median([rec["index_db"] for rec in recs])) < -15.0
    header = (tmp_path / "r.csv").read_text().splitlines()[0]
    assert header == "scenario_id,rep,seed,algorithm,index_db,iters,status"


def test_sweep_emits_one_row_per_value_and_repetition(tmp_path):
    text = ADAPTIVE_SCENARIO.replace("repetitions = 1", "repetitions = 2")
    out = tmp_path / "s.jsonl"
    assert main(["sweep", put(tmp_path, text), "--param", "samples",
                 "--values", "1000,4000", "--out", str(out)]) == 0
    recs = records_of(out)
    assert [(r["value"], r["rep"]) for r in recs] == [(1000, 0), (1000, 1), (4000, 0), (4000, 1)]
    assert all(r["parameter"] == "samples" for r in recs)


def test_sweep_step_zero_reports_the_initial_separator(tmp_path):
    out = tmp_path / "s.jsonl"
    assert main(["sweep", put(tmp_path, ADAPTIVE_SCENARIO), "--param",
                 "algorithm.step_size", "--values", "0,0.02", "--out", str(out)]) == 0
    recs = records_of(out)
    H = np.array([[1.0, 0.3], [0.2, 1.0]])
    frozen = [r for r in recs if r["value"] == 0][0]
    assert np.isclose(frozen["index_db"], separation_index(H), atol=1e-12)
    moving = [r for r in recs if r["value"] != 0][0]
    assert moving["index_db"] < frozen["index_db"]


def test_sweep_lag_on_white_sources_fails_structurally(tmp_path):
    text = """\
source.1.kind = bpsk
source.2.kind = bpsk
samples = 5000
mixing = random_orthogonal
algorithm = amuse
seed = 0
repetitions = 2
"""
    out = tmp_path / "s.jsonl"
    assert main(["sweep", put(tmp_path, text), "--param", "algorithm.lag",
                 "--values", "1,2,3", "--out", str(out)]) == 3
    recs = records_of(out)
    assert len(recs) == 6
    assert all(rec["status"] == "DegenerateSpectra" for rec in recs)
    assert all(rec["index_db"] is None for rec in recs)


def test_sweep_rejects_unknown_or_matrix_parameters(tmp_path):
    scenario = put(tmp_path, ADAPTIVE_SCENARIO)
    assert main(["sweep", scenario, "--param", "algorithm.bogus", "--values", "1"]) == 2
    assert main(["sweep", scenario, "--param", "mixing.matrix", "--values", "1"]) == 2
    assert main(["sweep", scenario, "--param", "algorithm.step_size", "--values", "0.01,inf"]) == 2
    assert main(["sweep", scenario, "--param", "algorithm.mode", "--values", "relative,bogus"]) == 2
    # every sweep point is checked against the algorithm it runs: jade has no max_sweeps
    jacobi = put(tmp_path, THREE_BPSK + "algorithm = jacobi\nalgorithm.max_sweeps = 0\n", "jacobi.cfg")
    assert main(["sweep", jacobi, "--param", "algorithm", "--values", "jacobi,jade,amuse"]) == 2


def test_generate_writes_consistent_signal_files(tmp_path):
    scenario = put(tmp_path, ADAPTIVE_SCENARIO)
    u_path = str(tmp_path / "u.txt")
    a_path = str(tmp_path / "a.txt")
    assert main(["generate", scenario, "--out", u_path, "--sources-out", a_path]) == 0
    U = read_signals(u_path)
    A = read_signals(a_path)
    assert U.shape == (2, 4000) and A.shape == (2, 4000)
    H = np.array([[1.0, 0.3], [0.2, 1.0]])
    assert np.allclose(U, H @ A, atol=1e-12)
    assert set(np.unique(A)) == {-1.0, 1.0}


def test_eval_scores_stored_matrices(tmp_path, capsys):
    H = np.array([[1.0, 0.4], [-0.3, 2.0]])
    write_signals(tmp_path / "h.txt", H)
    write_signals(tmp_path / "g.txt", np.linalg.inv(H))
    assert main(["eval", "--separator", str(tmp_path / "g.txt"),
                 "--mixing", str(tmp_path / "h.txt")]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["index_db"] == -120.0
    assert record["status"] == "ok"

    (tmp_path / "broken.txt").write_text("2 3\n1 2\n")
    assert main(["eval", "--separator", str(tmp_path / "broken.txt"),
                 "--mixing", str(tmp_path / "h.txt")]) == 2
    with pytest.raises(ConfigError):
        read_signals(str(tmp_path / "broken.txt"))

    (tmp_path / "nan.txt").write_text("2 2\nnan 0\n0 1\n")
    assert main(["eval", "--separator", str(tmp_path / "nan.txt"),
                 "--mixing", str(tmp_path / "h.txt")]) == 2

    # a product that overflows, and a finite product whose index overflows
    write_signals(tmp_path / "eye.txt", np.eye(2))
    write_signals(tmp_path / "huge.txt", np.full((2, 2), 1e308))
    write_signals(tmp_path / "large.txt", np.array([[1e200, 3e199], [2e199, 1e200]]))
    for separator, mixing in (("huge", "huge"), ("large", "eye")):
        run = subprocess.run(
            [sys.executable, "-W", "error", "-m", "bsskit.cli", "eval",
             "--separator", str(tmp_path / f"{separator}.txt"),
             "--mixing", str(tmp_path / f"{mixing}.txt")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC_DIR})
        assert run.returncode == 2, run.stderr
        assert run.stdout == ""
        assert "Traceback" not in run.stderr and "Warning" not in run.stderr


def test_eval_scores_an_all_zero_separator_worst(tmp_path, capsys):
    write_signals(tmp_path / "h.txt", np.array([[1.0, 0.4], [-0.3, 2.0]]))
    write_signals(tmp_path / "zero.txt", np.zeros((2, 2)))
    assert main(["eval", "--separator", str(tmp_path / "zero.txt"),
                 "--mixing", str(tmp_path / "h.txt")]) == 0
    assert json.loads(capsys.readouterr().out)["index_db"] == 120.0


def test_an_unreadable_scenario_file_is_a_config_error(tmp_path):
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2


# id: (separator file, mixing file) of an eval that cannot score
EVAL_REFUSALS = {
    "unreadable_separator": ("missing", "h"),
    "shapes_that_do_not_compose": ("wide", "h"),
    "product_beyond_the_float_range": ("huge", "huge"),
}


@pytest.mark.parametrize("separator, mixing", EVAL_REFUSALS.values(), ids=EVAL_REFUSALS.keys())
def test_eval_refuses_what_it_cannot_score(tmp_path, capsys, separator, mixing):
    write_signals(tmp_path / "h.txt", np.array([[1.0, 0.4], [-0.3, 2.0]]))
    write_signals(tmp_path / "wide.txt", np.ones((2, 3)))
    write_signals(tmp_path / "huge.txt", np.full((2, 2), 1e308))
    assert main(["eval", "--separator", str(tmp_path / f"{separator}.txt"),
                 "--mixing", str(tmp_path / f"{mixing}.txt")]) == 2
    assert capsys.readouterr().out == ""


def test_a_non_finite_index_is_a_diverged_record(tmp_path, monkeypatch):
    monkeypatch.setitem(ALGORITHMS, "jade", (lambda m, params: (float("nan"), None, None), {}))
    out = tmp_path / "r.jsonl"
    assert main(["run", put(tmp_path, THREE_BPSK + "algorithm = jade\n"), "--out", str(out)]) == 3
    recs = [_strict_json(line) for line in out.read_text().splitlines()]
    assert [(rec["status"], rec["index_db"]) for rec in recs] == [("Diverged", None)]


def test_a_negative_init_seed_fails_each_repetition(tmp_path):
    # a bad algorithm value is the library's to refuse, one repetition at a time
    text = ADAPTIVE_SCENARIO.replace("repetitions = 1", "repetitions = 2") + (
        "algorithm.init = random_orthogonal\nalgorithm.init_seed = -1\n")
    out = tmp_path / "r.jsonl"
    assert main(["run", put(tmp_path, text), "--out", str(out)]) == 3
    assert [rec["status"] for rec in records_of(out)] == ["InvalidSpec", "InvalidSpec"]


def test_run_without_out_writes_the_records_to_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))  # elapsed_s reads 0
    scenario = put(tmp_path, JADE_SCENARIO.replace("repetitions = 5", "repetitions = 2"))
    out = tmp_path / "r.jsonl"
    assert main(["run", scenario, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["run", scenario]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_the_module_entry_runs_a_scenario(tmp_path):
    scenario = put(tmp_path, JADE_SCENARIO.replace("repetitions = 5", "repetitions = 2"))
    out = tmp_path / "r.jsonl"
    assert main(["run", scenario, "--out", str(out)]) == 0
    run = subprocess.run([sys.executable, "-m", "bsskit.cli", "run", scenario],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC_DIR})
    assert (run.returncode, run.stderr) == (0, "")

    def without_wall_time(lines):
        return [{k: v for k, v in _strict_json(line).items() if k != "elapsed_s"} for line in lines]

    assert without_wall_time(run.stdout.splitlines()) == without_wall_time(out.read_text().splitlines())


def test_environment_seed_override(tmp_path, monkeypatch):
    scenario = put(tmp_path, ADAPTIVE_SCENARIO)
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    assert main(["run", scenario, "--out", str(out_a)]) == 0
    monkeypatch.setenv("BSSKIT_SEED", "99")
    assert main(["run", scenario, "--out", str(out_b)]) == 0
    rec_a = records_of(out_a)[0]
    rec_b = records_of(out_b)[0]
    assert rec_a["seed"] == 5 and rec_b["seed"] == 99
    assert rec_a["scenario_id"] != rec_b["scenario_id"]
    assert rec_a["index_db"] != rec_b["index_db"]


def test_scenario_id_ignores_formatting_but_not_values():
    a = validate_scenario(parse_scenario(ADAPTIVE_SCENARIO))
    base = parse_scenario(ADAPTIVE_SCENARIO)
    validate_scenario(base)

    shuffled_text = "\n".join(reversed(ADAPTIVE_SCENARIO.splitlines())) + "\n# comment\n"
    shuffled = parse_scenario(shuffled_text)
    validate_scenario(shuffled)
    assert canonical_text(base) == canonical_text(shuffled)
    assert scenario_id(base) == scenario_id(shuffled)

    bumped = parse_scenario(ADAPTIVE_SCENARIO.replace("seed = 5", "seed = 6"))
    validate_scenario(bumped)
    assert scenario_id(base) != scenario_id(bumped)
    assert a == [SourceSpec("bpsk"), SourceSpec("bpsk")]


def _strict_json(line):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(line, parse_constant=reject)


@pytest.mark.parametrize("algorithm, status", [
    ("algorithm = jacobi\nalgorithm.max_sweeps = 0\n", "InvalidSpec"),
    # a sweep tolerance of 0 or less would sweep to the cap and end NotConverged
    ("algorithm = jacobi\nalgorithm.sweep_tolerance = 0\n", "InvalidSpec"),
    ("algorithm = cma\nalgorithm.step_size = 50\n", "Diverged"),
    ("algorithm = cma\nalgorithm.step_size = -0.01\n", "InvalidSpec"),
    ("algorithm = cma\nalgorithm.epochs = 0\n", "InvalidSpec"),
    # a direction tolerance of 1 or more would stop after one step
    ("algorithm = sea\nalgorithm.tolerance = 5\n", "InvalidSpec"),
    ("algorithm = rank1_sea\nalgorithm.tolerance = 3\n", "InvalidSpec"),
    ("algorithm = fastica\nalgorithm.max_iterations = 0\n", "InvalidSpec"),
    ("algorithm = det_cm\nalgorithm.max_refinements = -4\n", "InvalidSpec"),
], ids=["jacobi_sweep_cap", "jacobi_sweep_tolerance_0", "cma_diverging", "cma_negative_step", "cma_no_epochs",
        "sea_tolerance_5", "rank1_sea_tolerance_3", "fastica_no_iterations", "det_cm_negative_refinements"])
def test_capped_or_diverging_runs_are_never_ok(tmp_path, algorithm, status):
    out = tmp_path / "r.jsonl"
    assert main(["run", put(tmp_path, THREE_BPSK + algorithm), "--out", str(out)]) == 3
    recs = [_strict_json(line) for line in out.read_text().splitlines()]
    assert [(rec["status"], rec["index_db"]) for rec in recs] == [(status, None)]


def test_a_linear_algebra_failure_is_a_failed_record(tmp_path, monkeypatch):
    def fails(m, params):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setitem(ALGORITHMS, "jade", (fails, {}))
    out = tmp_path / "r.jsonl"
    assert main(["run", put(tmp_path, THREE_BPSK + "algorithm = jade\n"), "--out", str(out)]) == 3
    recs = [_strict_json(line) for line in out.read_text().splitlines()]
    assert [(rec["status"], rec["index_db"]) for rec in recs] == [("LinAlgError", None)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_condition_mixing_has_the_named_singular_values(tmp_path, n):
    sources = "".join(f"source.{i}.kind = uniform\n" for i in range(1, n + 1))
    text = sources + "samples = 100\nalgorithm = jade\nmixing = random_condition(10)\n"
    scenario = parse_scenario(text)
    validate_scenario(scenario)
    build, _ = MIXINGS["random_condition(c)"]
    for mix_seed in (0, 7):
        svals = np.linalg.svd(build(scenario, n, mix_seed, 0).matrix, compute_uv=False)
        assert np.max(np.abs(svals - np.geomspace(1.0, 0.1, n))) <= 1e-12
    below_one = text.replace("(10)", "(0.5)")
    with pytest.raises(ConfigError, match="c >= 1"):
        validate_scenario(parse_scenario(below_one))
    assert main(["run", put(tmp_path, below_one)]) == 2


_FUZZ_KEYS = ["algorithm", "samples", "seed", "repetitions", "mixing", "source.1.kind",
              "source.1.ar_coefficient", "mixing.matrix", "mixing.tap.0", "mixing.noise_std",
              "algorithm.step_size", "algorithm.mode", "algorithm.max_sweeps"]
_FUZZ_VALUES = ["jade", "adaptive", "1", "-3", "2.5", "1e400", "nan", "1 2 ; 3 4", "1 ; 2 3", ";",
                "uniform", "relative", "random_condition(nan)", "1_000", "99999999999999999999999",
                "static", "convolutive"]
_fuzz_line = st.builds(
    lambda key, sep, value: key + sep + value,
    st.one_of(st.sampled_from(_FUZZ_KEYS), st.text(max_size=8)),
    st.sampled_from([" = ", "=", " == ", " "]),
    st.one_of(st.sampled_from(_FUZZ_VALUES), st.text(max_size=8), st.integers().map(str),
              st.floats().map(repr)),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(_fuzz_line, max_size=4).map("\n".join)))
@example("samples = 99999999999999999999999")  # beyond int64: once a TypeError from isfinite
def test_parse_scenario_raises_only_config_errors(text):
    try:
        parse_scenario(text)
    except ConfigError:
        pass


def test_fastica_variant_without_a_step_size_key_is_rejected(tmp_path):
    text = THREE_BPSK + "algorithm = fastica\nalgorithm.variant = gradient\n"
    with pytest.raises(ConfigError):
        validate_scenario(parse_scenario(text))
    assert main(["run", put(tmp_path, text)]) == 2


# Per algorithm: the sources, and one block of algorithm.* lines per run.
# Together the runs set every key of the algorithm's schema and every allowed
# string of its choice keys.
REGISTRY_CASES = {
    "amuse": (TWO_AR1, ["algorithm.lag = 2\nalgorithm.gap_tolerance = 0.01\n"]),
    "adaptive": (THREE_BPSK, [
        "algorithm.mode = plain\nalgorithm.score = cubic\nalgorithm.step_size = 0.005\n"
        "algorithm.epochs = 2\nalgorithm.convergence_tolerance = 1e-3\n"
        "algorithm.init = random_orthogonal\nalgorithm.init_seed = 4\n",
        "algorithm.mode = relative\nalgorithm.score = tanh\nalgorithm.init = identity\n",
        "algorithm.mode = nonlinear_pca\nalgorithm.score = sign_switching\n",
        "algorithm.mode = anti_hebbian\nalgorithm.score = cubic\n",
    ]),
    "fastica": (THREE_BPSK, [
        "algorithm.variant = fixed_point\nalgorithm.score = tanh\n"
        "algorithm.max_iterations = 400\nalgorithm.tolerance = 1e-8\n",
        "algorithm.variant = newton\nalgorithm.score = sign_switching\n",
        "algorithm.score = cubic\n",
    ]),
    "jade": (THREE_BPSK, [""]),
    "jacobi": (THREE_BPSK, ["algorithm.sweep_tolerance = 1e-9\nalgorithm.max_sweeps = 30\n"]),
    "sea": (THREE_BPSK, ["algorithm.max_iterations = 300\nalgorithm.tolerance = 1e-9\n"]),
    "cma": (THREE_BPSK, ["algorithm.step_size = 0.005\nalgorithm.epochs = 2\n"]),
    "rank1_sea": (THREE_BPSK, ["algorithm.max_iterations = 800\nalgorithm.tolerance = 1e-10\n"]),
    "unimodal": (FIR_BPSK, [
        "algorithm.mu1 = 0.02\nalgorithm.mu2 = 0.4\nalgorithm.window_length = 4\n"
        "algorithm.epochs = 2\nalgorithm.init = fourth_order\n",
        "algorithm.init = zero\n",
    ]),
    "det_cm": (THREE_BPSK, ["algorithm.max_refinements = 50\n"]),
}


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_every_registry_key_and_choice_runs_to_an_ok_record(tmp_path, algorithm):
    # adapters hand the scenario's keys straight to the library, so a schema key
    # the library does not take would end in a TypeError traceback, not a status
    sources, cases = REGISTRY_CASES[algorithm]
    seen = {}
    for k, params in enumerate(cases):
        text = sources + f"algorithm = {algorithm}\n" + params
        out = tmp_path / f"r{k}.jsonl"
        assert main(["run", put(tmp_path, text, f"s{k}.cfg"), "--out", str(out)]) == 0, params
        recs = [_strict_json(line) for line in out.read_text().splitlines()]
        assert [rec["status"] for rec in recs] == ["ok"], params
        assert np.isfinite(recs[0]["index_db"])
        for key, value in parse_scenario(text).items():
            if key.startswith("algorithm."):
                seen.setdefault(key[len("algorithm."):], set()).add(value)
    schema = ALGORITHMS[algorithm][1]
    assert set(seen) == set(schema)
    for name, kind in schema.items():
        if isinstance(kind, tuple):
            assert seen[name] == set(kind), name


BPSK_AND_AR1 = """\
source.1.kind = bpsk
source.2.kind = ar1
source.2.ar_coefficient = 0.5
samples = 2000
algorithm = jade
seed = 1
repetitions = 2
"""
ORTHOGONAL = BPSK_AND_AR1 + "mixing = random_orthogonal\n"
STATIC = BPSK_AND_AR1 + "mixing = static\nmixing.matrix = 1 0.3 ; 0.2 1\n"
NOISY = BPSK_AND_AR1 + "mixing = noisy\nmixing.matrix = 1 0.3 ; 0.2 1\nmixing.noise_std = 0.1\n"
FIR_TWO_BPSK = """\
source.1.kind = bpsk
source.2.kind = bpsk
samples = 2000
algorithm = unimodal
mixing = convolutive
mixing.tap.0 = 1 0.2 ; 0.1 1
repetitions = 2
"""
SAMPLES = ["--param", "samples", "--values", "1000,2000"]
# two sources seen by three sensors; nonlinear_pca whitens them down to two
TALL_NONLINEAR_PCA = """\
source.1.kind = uniform
source.2.kind = uniform
samples = 2000
mixing = static
mixing.matrix = 1 0.3 ; 0.2 1 ; 0.5 -0.4
algorithm = adaptive
algorithm.mode = nonlinear_pca
seed = 1
repetitions = 2
"""


def _swap(text, old, new):
    assert old in text
    return text.replace(old, new)


TALL_NOISY_NONLINEAR_PCA = _swap(TALL_NONLINEAR_PCA, "= static", "= noisy")


# id: (a scenario that can never run, then the sweep that should stop at it:
# the scenario it starts from, which may be the same one, and its arguments)
CANNOT_RUN = {
    "ar_coefficient_beyond_one": (
        _swap(ORTHOGONAL, "= 0.5", "= 1.5"),
        ORTHOGONAL, ["--param", "source.2.ar_coefficient", "--values", "0.5,1.5"]),
    "negative_noise_std": (
        _swap(NOISY, "= 0.1", "= -1"), NOISY, ["--param", "mixing.noise_std", "--values", "0.1,-1"]),
    "nan_in_the_matrix": (_swap(STATIC, "1 0.3 ; 0.2 1", "nan 0 ; 0 1"), None, SAMPLES),
    "inf_in_a_noisy_matrix": (_swap(NOISY, "1 0.3 ; 0.2 1", "1 0.3 ; 0.2 inf"), None, SAMPLES),
    "inf_in_a_tap": (FIR_TWO_BPSK + "mixing.tap.1 = 0 -inf ; 0 0\n", None, SAMPLES),
    "matrix_of_three_columns_for_two_sources": (
        _swap(STATIC, "1 0.3 ; 0.2 1", "1 0 0 ; 0 1 0"), None, SAMPLES),
    "tap_of_three_columns_for_two_sources": (
        _swap(FIR_TWO_BPSK, "1 0.2 ; 0.1 1", "1 0 0 ; 0 1 0"), None, SAMPLES),
    "matrix_under_random_orthogonal": (
        _swap(STATIC, "= static", "= random_orthogonal"),
        STATIC, ["--param", "mixing", "--values", "static,random_orthogonal"]),
    "noise_std_under_random_orthogonal": (
        ORTHOGONAL + "mixing.noise_std = 0.1\n",
        NOISY, ["--param", "mixing", "--values", "noisy,random_orthogonal"]),
    "noise_std_under_static": (
        _swap(NOISY, "= noisy", "= static"), NOISY, ["--param", "mixing", "--values", "noisy,static"]),
    "matrix_under_convolutive": (FIR_TWO_BPSK + "mixing.matrix = 1 0 ; 0 1\n", None, SAMPLES),
    "source_index_with_leading_zero": (_swap(ORTHOGONAL, "source.1.kind", "source.01.kind"), None, SAMPLES),
    "tap_number_with_leading_zero": (FIR_TWO_BPSK + "mixing.tap.01 = 1 0 ; 0 1\n", None, SAMPLES),
    "adaptive_plain_on_a_tall_mixing": (
        _swap(TALL_NONLINEAR_PCA, "= nonlinear_pca", "= plain"),
        TALL_NONLINEAR_PCA, ["--param", "algorithm.mode", "--values", "nonlinear_pca,plain"]),
    "adaptive_default_relative_on_a_tall_mixing": (
        _swap(TALL_NONLINEAR_PCA, "algorithm.mode = nonlinear_pca\n", ""), None, SAMPLES),
    "adaptive_anti_hebbian_on_a_tall_mixing": (
        _swap(TALL_NONLINEAR_PCA, "= nonlinear_pca", "= anti_hebbian"), None, SAMPLES),
    "adaptive_relative_on_a_wide_mixing": (
        _swap(_swap(TALL_NONLINEAR_PCA, "= nonlinear_pca", "= relative"),
              "1 0.3 ; 0.2 1 ; 0.5 -0.4", "1 0.3 0.1 ; 0.2 1 0.4") + "source.3.kind = uniform\n",
        None, SAMPLES),
    # whitening keeps the three noisy sensor directions, and the two of a wide mixing
    "adaptive_nonlinear_pca_on_a_tall_noisy_mixing": (
        TALL_NOISY_NONLINEAR_PCA + "mixing.noise_std = 0.1\n", TALL_NOISY_NONLINEAR_PCA + "mixing.noise_std = 0\n",
        ["--param", "mixing.noise_std", "--values", "0,0.1"]),
    "adaptive_nonlinear_pca_on_a_wide_mixing": (
        _swap(TALL_NONLINEAR_PCA, "1 0.3 ; 0.2 1 ; 0.5 -0.4", "1 0.3 0.1 ; 0.2 1 0.4") + "source.3.kind = uniform\n",
        None, SAMPLES),
    "missing_samples": (_swap(ORTHOGONAL, "samples = 2000\n", ""), None, ["--param", "seed", "--values", "1,2"]),
    "negative_seed": (_swap(ORTHOGONAL, "seed = 1", "seed = -1"), ORTHOGONAL, ["--param", "seed", "--values", "1,-1"]),
    "no_samples": (
        _swap(ORTHOGONAL, "samples = 2000", "samples = 0"), ORTHOGONAL, ["--param", "samples", "--values", "2000,0"]),
    "negative_repetitions": (
        _swap(ORTHOGONAL, "repetitions = 2", "repetitions = -1"),
        ORTHOGONAL, ["--param", "repetitions", "--values", "2,-1"]),
    "unknown_mixing": (
        _swap(ORTHOGONAL, "= random_orthogonal", "= spiral"),
        ORTHOGONAL, ["--param", "mixing", "--values", "random_orthogonal,spiral"]),
    "source_key_beyond_the_source_count": (ORTHOGONAL + "source.3.ar_coefficient = 0.5\n", None, SAMPLES),
    "static_without_its_matrix": (
        _swap(ORTHOGONAL, "= random_orthogonal", "= static"),
        ORTHOGONAL, ["--param", "mixing", "--values", "random_orthogonal,static"]),
}


@pytest.mark.parametrize("text, sweep_from, sweep", CANNOT_RUN.values(), ids=CANNOT_RUN.keys())
def test_a_scenario_that_cannot_run_is_a_config_error(tmp_path, text, sweep_from, sweep):
    # rejected before any repetition runs, not once per repetition as a failed record
    with pytest.raises(ConfigError):
        validate_scenario(parse_scenario(text))
    out, csv = tmp_path / "r.jsonl", tmp_path / "r.csv"
    assert main(["run", put(tmp_path, text), "--out", str(out), "--csv", str(csv)]) == 2
    base = put(tmp_path, sweep_from or text, "base.cfg")
    assert main(["sweep", base, *sweep, "--out", str(out), "--csv", str(csv)]) == 2
    assert not out.exists() and not csv.exists()
    if sweep_from:  # every point but the last one is valid
        for value in sweep[-1].split(",")[:-1]:
            assert main(["sweep", base, *sweep[:-1], value, "--out", str(out)]) == 0


def test_adaptive_nonlinear_pca_runs_a_tall_mixing(tmp_path):
    out = tmp_path / "r.jsonl"
    assert main(["run", put(tmp_path, TALL_NONLINEAR_PCA), "--out", str(out)]) == 0
    recs = [_strict_json(line) for line in out.read_text().splitlines()]
    assert [rec["status"] for rec in recs] == ["ok", "ok"]


SIGN_SWITCHING_PAIR = """\
source.1.kind = laplace
source.2.kind = laplace
samples = 4000
mixing = random_orthogonal
algorithm = adaptive
algorithm.score = sign_switching
algorithm.epochs = 3
algorithm.convergence_tolerance = 1e-12
seed = 1
repetitions = 2
"""


def test_adaptive_iters_is_null_without_a_criterion_trajectory(tmp_path):
    # sign_switching has no log-density, so no epoch's criterion is recorded
    out = tmp_path / "r.jsonl"
    text = SIGN_SWITCHING_PAIR + "algorithm.step_size = 0.0005\n"
    assert main(["run", put(tmp_path, text), "--out", str(out)]) == 0
    recs = [_strict_json(line) for line in out.read_text().splitlines()]
    assert [(rec["status"], rec["iters"]) for rec in recs] == [("ok", None), ("ok", None)]
    text = _swap(text, "= sign_switching", "= cubic")
    assert main(["run", put(tmp_path, text), "--out", str(out)]) == 0
    assert [rec["iters"] for rec in records_of(out)] == [3, 3]


def test_a_diverging_adaptive_run_stops_without_warnings(tmp_path):
    # two uniform sources at the default step: the sign-switching score overflows
    text = SIGN_SWITCHING_PAIR.replace("laplace", "uniform")
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "bsskit.cli", "run", put(tmp_path, text)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC_DIR})
    assert (run.returncode, run.stderr) == (3, "")
    assert [rec["status"] for rec in map(_strict_json, run.stdout.splitlines())] == ["Diverged", "Diverged"]


def whiten_then_solve(m, algorithm, params):
    # the adapters as they read before the fold: whiten m.U, then solve on the
    # sphered copy; returns the demixing matrix and the record's iters
    whitener, Z = whiten(m.U)
    if algorithm == "amuse":
        return _sorted_eigh(sample_covariance(Z, 1).matrix)[1].T @ whitener.matrix, None
    if algorithm in ("fastica", "sea"):
        score = params.get("score", "cubic")
        sep = symmetric_extract(Z, lambda: make_score(score), seed=m.seed)
        return sep.matrix @ whitener.matrix, sep.iterations
    C = estimate_cum4(Z)
    if algorithm == "jade":
        return jade_rotation(C).T @ whitener.matrix, None
    if algorithm == "jacobi":
        return jacobi_diagonalize(C) @ whitener.matrix, None
    return hopm(C, init=rank1_init(C).g0)[1] @ whitener.matrix, None  # rank1_sea


def three_sources(kind):
    lines = [f"source.{i}.kind = {kind}\n" for i in (1, 2, 3)]
    if kind == "ar1":
        lines = [line + f"source.{i}.ar_coefficient = {rho}\n"
                 for i, line, rho in zip((1, 2, 3), lines, (0.9, 0.4, -0.5))]
    return "".join(lines) + "samples = 5000\nmixing = random_condition(10)\nseed = 11\nrepetitions = 2\n"


@pytest.mark.parametrize("algorithm, kind, params", [
    ("amuse", "ar1", {}), ("jade", "uniform", {}), ("jacobi", "uniform", {}), ("rank1_sea", "uniform", {}),
    ("sea", "uniform", {}), ("fastica", "uniform", {}), ("fastica", "laplace", {"score": "tanh"}),
], ids=["amuse", "jade", "jacobi", "rank1_sea", "sea", "fastica_cubic", "fastica_tanh"])
def test_records_match_whitening_then_solving(algorithm, kind, params):
    text = three_sources(kind) + f"algorithm = {algorithm}\n"
    text += "".join(f"algorithm.{key} = {value}\n" for key, value in params.items())
    scenario = parse_scenario(text)
    specs = validate_scenario(scenario)
    for rep, record in enumerate(run_experiment(scenario, specs)):
        m = _mixture(scenario, specs, rep)
        demixing, iters = whiten_then_solve(m, algorithm, params)
        assert (record["status"], record["iters"]) == ("ok", iters)  # the reference's: it raises nothing
        assert abs(record["index_db"] - _index(m, demixing)) < 1e-9


@pytest.mark.parametrize("literal", ["1 2 ; 3", ";", "", "1 x ; 2 3"],
                         ids=["ragged", "empty_rows", "empty", "non_numeric"])
@pytest.mark.parametrize("key", ["matrix", "tap.0"])
def test_a_malformed_matrix_literal_is_a_config_error(key, literal):
    mixing = "static" if key == "matrix" else "convolutive"
    with pytest.raises(ConfigError, match="matrix literal"):
        parse_scenario(f"mixing = {mixing}\nmixing.{key} = {literal}")


def test_generate_rejects_a_negative_repetition(tmp_path):
    out = tmp_path / "u.txt"
    assert main(["generate", put(tmp_path, ADAPTIVE_SCENARIO), "--out", str(out), "--rep", "-1"]) == 2
    assert not out.exists()


def _readme_list(marker):
    """{name: text} of the README bullet list in the paragraph after ``marker``."""
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split(marker, 1)[1].split("\n\n")[1]
    return dict(re.findall(r"^- `([^`]+)`: (.*?)(?=^- |\Z)", block, re.M | re.S))


@pytest.mark.parametrize("marker, table", [
    ("algorithms and the keys each takes", ALGORITHMS),
    ("mixings and the keys each takes", MIXINGS),
], ids=["algorithms", "mixings"])
def test_readme_lists_the_keys_of_every_table_entry(marker, table):
    # each bullet reads `name`: `key` (`choice`, ... or a note), `key`, ...
    listed = _readme_list(marker)
    assert set(listed) == set(table)
    for name, text in listed.items():
        schema = table[name][1]
        assert sorted(re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", text))) == sorted(schema), name
        notes = dict(re.findall(r"`([^`]+)` \(([^)]*)\)", text))
        for key, kind in schema.items():
            if isinstance(kind, tuple):
                assert set(re.findall(r"`([^`]+)`", notes[key])) == set(kind), (name, key)


def test_main_builds_its_parser_once_and_parsing_leaves_it_unchanged():
    assert cli._parser() is cli._parser()
    first = cli._parser().parse_args(["run", "a.cfg", "--out", "a.jsonl", "--csv", "a.csv"])
    second = cli._parser().parse_args(["run", "b.cfg"])
    assert (first.scenario, first.out, first.csv) == ("a.cfg", "a.jsonl", "a.csv")
    assert (second.scenario, second.out, second.csv) == ("b.cfg", None, None)
