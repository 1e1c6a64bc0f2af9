"""The benchmark's independent checker: passes true separators, fails the rest."""

import json
import math

import numpy as np

import checker


def _record(index_db, status="ok"):
    # the CLI writes non-finite floats as NaN/Infinity, which json.loads accepts
    return json.loads(json.dumps({"status": status, "index_db": index_db, "rep": 0}))


def _mixing(n=4, seed=0):
    return np.random.default_rng(seed).standard_normal((n, n))


def test_true_separator_passes():
    H = _mixing()
    perm = np.eye(4)[[2, 0, 3, 1]]
    G = perm @ np.diag([1.5, -0.7, 2.0, 1.1]) @ np.linalg.inv(H)
    G += 1e-3 * np.random.default_rng(1).standard_normal(G.shape)
    index = checker.interference_db(G @ H)
    assert index < checker.MAX_INDEX_DB
    record = _record(index)
    assert checker.record_problems(record) == []
    assert checker.agreement_problems(record, index) == []


def test_mixing_separator_fails():
    H = _mixing()
    index = checker.interference_db(np.eye(4) @ H)
    assert not index < checker.MAX_INDEX_DB
    # a record that claims separation is contradicted by its global system
    assert checker.agreement_problems(_record(-40.0), index)
    assert checker.record_problems(_record(-5.0))


def test_nan_and_failed_records_fail():
    nan = _record(math.nan)
    assert math.isnan(nan["index_db"])
    problems = checker.record_problems(nan)
    assert any("finite" in p for p in problems)
    assert any("JSON" in p for p in problems)
    assert checker.record_problems(_record(None, status="NotConverged"))


def test_delayed_source_fit_finds_the_delay():
    rng = np.random.default_rng(2)
    sources = rng.choice([-1.0, 1.0], size=(2, 4000))
    L = 8
    # output m lines up with source sample m + L - 1; delay 3 on source 1
    clean = -0.5 * sources[1, L - 1 - 3:4000 - 3]
    noisy = clean + 1e-3 * rng.standard_normal(clean.size)
    index, agree = checker.delayed_source_fit(noisy, sources, max_delay=10)
    assert agree == 1.0 and -60.0 < index < -50.0
    index, agree = checker.delayed_source_fit(clean, sources, max_delay=10)
    assert agree == 1.0 and index == checker.DB_RANGE[0]
    blend = sources[0, L - 1:] + sources[1, L - 1:]
    index, agree = checker.delayed_source_fit(blend, sources, max_delay=10)
    assert agree < checker.MIN_SIGN_AGREEMENT and index > checker.MAX_INDEX_DB
    index, agree = checker.delayed_source_fit(np.zeros(blend.size), sources, max_delay=10)
    assert agree < checker.MIN_SIGN_AGREEMENT and index > checker.MAX_INDEX_DB


def test_round_with_a_failed_record_is_not_correct():
    plan = [("a", None, 2), ("b", None, 1)]
    good = {"a": [dict(_record(-40.0), rep=0), dict(_record(-41.0), rep=1)],
            "b": [_record(-50.0)]}
    checks = checker.RoundChecks(plan)
    checks.add(good)
    checks.add(good)
    assert (checks.attempted, checks.failed, checks.problems) == (6, 0, [])
    failed = dict(good, b=[_record(None, status="NotConverged")])
    checks = checker.RoundChecks(plan)
    checks.add(failed)
    assert (checks.attempted, checks.failed) == (3, 1)
    assert any("status 'NotConverged'" in p for p in checks.problems)
