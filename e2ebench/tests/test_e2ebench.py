"""The benchmark's own tests: toy-size runs of every workload, and each
correctness check failing on a perturbed, dropped or reordered reply.

Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import oracle  # noqa: E402
from workloads import QUICK, WORKLOADS, make_workload  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def declared_metrics(kind: str):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_is_correct_and_complete(workload, trace):
    done = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--quick"
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = declared_metrics("per_layer" if trace == "1" else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not list(ROOT.glob(".e2ebench-*")), "run left its work directory behind"


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "batched_submit", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode == 2
    assert "correct" not in done.stdout


# ----------------------------------------------------------------------
# Each check fails on a broken reply log
# ----------------------------------------------------------------------
def served(name: str, tmp_path_factory):
    workload = make_workload(name, 5, QUICK[name], str(tmp_path_factory.mktemp(name)))
    workload.keep_replies = True
    try:
        workload.prepare()
        workload.start()
        workload.serve(0.0)
    finally:
        workload.close()
    return workload


@pytest.fixture(scope="module")
def batched(tmp_path_factory):
    return served("batched_submit", tmp_path_factory)


@pytest.fixture(scope="module")
def onboarded(tmp_path_factory):
    return served("onboard_serve", tmp_path_factory)


def audit(workload, replies, failed=()):
    """A fresh audit of ``replies`` against the workload's send log."""
    oracle_ = workload.auditor.oracle
    auditor = oracle.Auditor(oracle.Oracle(oracle_.estimator, oracle_.streams, oracle_.factors))
    auditor.observe(replies, workload.sent, failed)
    auditor.finish(workload.sent, failed)
    return auditor.failures


def test_the_served_log_passes(batched, onboarded):
    for workload in (batched, onboarded):
        assert workload.auditor.failures == []
        assert audit(workload, workload.log) == []
        assert workload.auditor.worst_gap <= oracle.TOLERANCE_M
    assert any(reply.adapted for reply in onboarded.log)
    assert oracle.check_adapted_not_worse(onboarded.auditor.oracle, onboarded.calibration) == []


@pytest.mark.parametrize("name", ["batched", "onboarded"])
def test_perturbed_prediction_fails(name, request):
    workload = request.getfixturevalue(name)
    replies = list(workload.log)
    slot = len(replies) // 2
    replies[slot] = copy.copy(replies[slot])
    replies[slot].joints = np.asarray(replies[slot].joints) + 1e-4
    (failure,) = audit(workload, replies)
    assert "differs from the oracle" in failure


def test_dropped_frame_fails(batched):
    dropped = batched.log[3]
    failures = audit(batched, batched.log[:3] + batched.log[4:])
    assert failures and all(dropped.user in failure for failure in failures)
    assert "unanswered" in failures[0] or "never answered" in failures[0]


def test_last_frame_dropped_fails(batched):
    failures = audit(batched, batched.log[:-1])
    assert len(failures) == 1 and "1 frame(s) never answered" in failures[0]


def test_duplicated_reply_fails(batched):
    failures = audit(batched, batched.log + batched.log[-1:])
    assert len(failures) == 1 and "answered again" in failures[0]


def test_out_of_order_reply_fails(batched):
    replies = list(batched.log)
    first = replies[0]
    later = next(i for i, r in enumerate(replies) if r.user == first.user and i > 0)
    replies[0], replies[later] = replies[later], replies[0]
    failures = audit(batched, replies)
    assert any("out of order" in failure or "unanswered" in failure for failure in failures)


def test_failed_operation_is_excused(batched):
    dropped = batched.log[3]
    failed = [(dropped.user, dropped.epoch, dropped.index, "FrameDropped")]
    assert audit(batched, batched.log[:3] + batched.log[4:], failed) == []


def test_reply_served_from_the_wrong_window_fails(batched):
    # A frame answered as if it came from another point of the stream (what
    # processing a user's frames out of order inside the server produces).
    replies = list(batched.log)
    first = replies[0]
    other = next(r for r in replies if r.user == first.user and r.position != first.position)
    replies[0] = copy.copy(replies[0])
    replies[0].joints = other.joints
    assert any("differs from the oracle" in failure for failure in audit(batched, replies))


def test_adapted_user_worse_than_base_fails(onboarded):
    factors = {
        user: [array * 50.0 for array in arrays]
        for user, arrays in onboarded.auditor.oracle.factors.items()
    }
    broken = oracle.Oracle(onboarded.estimator, onboarded.streams, factors)
    failures = oracle.check_adapted_not_worse(broken, onboarded.calibration)
    assert failures and "above the base model" in failures[0]
