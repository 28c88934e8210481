"""Output checks: a corrupted table digest or payload counts as a failure."""

from __future__ import annotations

import json

from repro.experiments.sweep import SweepRunner
from repro.service.jobs import JobSpec

from benchmarks.e2e.loadgen import Record
from benchmarks.e2e.simload import check
from benchmarks.e2e.serveload import verify

GOOD = {"fig3": "a" * 64, "tab4": "b" * 64}


def test_matching_digests_pass():
    passes = [{"digests": dict(GOOD)}, {"digests": dict(GOOD)}]
    assert check(passes, dict(GOOD))[:2] == (4, 0)
    assert check(passes, None)[:2] == (4, 0)


def test_corrupted_pinned_digest_is_a_failure():
    passes = [{"digests": dict(GOOD)}, {"digests": dict(GOOD)}]
    attempted, failed, problems = check(passes, {**GOOD, "tab4": "c" * 64})
    assert (attempted, failed) == (4, 2)
    assert all("tab4" in p for p in problems)


def test_a_pass_that_renders_differently_is_a_failure():
    passes = [{"digests": dict(GOOD)}, {"digests": {**GOOD, "fig3": "d" * 64}}]
    assert check(passes, None)[:2] == (4, 1)


def _served(rid: str, seed: int, result: dict) -> Record:
    body = {"kind": "point", "params": {"seed": seed, "n_procs": 2, "ops": 2}, "wait": True}
    return Record(rid, body, due=0.0, status=200, doc={"status": "done", "result": result})


def _truth(seed: int) -> dict:
    body = {"kind": "point", "params": {"seed": seed, "n_procs": 2, "ops": 2}}
    return json.loads(json.dumps(JobSpec.from_request(body).execute(SweepRunner())))


def test_correct_payloads_pass():
    records = [_served("o0", 11, _truth(11)), _served("o1", 11, _truth(11)),
               _served("o2", 12, _truth(12))]
    assert verify(records, seed=0, sample=2) == []
    assert not any(r.failed for r in records)


def test_corrupted_payload_of_a_sampled_key_is_a_failure():
    bad = {**_truth(12), "seconds": 1.0}
    records = [_served("o0", 11, _truth(11)), _served("o1", 12, bad)]
    problems = verify(records, seed=0, sample=2)
    assert [r.failed for r in records] == [False, True]
    assert "differs from inline execution" in problems[0]
    assert records[1].latency_ms == float("inf")


def test_repeated_key_answered_differently_is_a_failure():
    bad = {**_truth(11), "seconds": 1.0}
    records = [_served("o0", 11, _truth(11)), _served("c0-1", 11, bad)]
    problems = verify(records, seed=0, sample=0)
    assert all(r.failed for r in records)
    assert "different payloads" in problems[0]
