"""The unified retry/backoff layer and storage-degradation mapping.

Covers :mod:`repro.service.retry` — schedule shape, both failure
channels (exceptions and ToolResults), the retryable taxonomy — and the
dispatcher end of the fail-stop contract: a panicked engine surfaces as
a degraded service with ``storage_errors`` counted and ``retryable``
*not* set (re-issuing a write at a fail-stop engine cannot help).
"""

from __future__ import annotations

import random

import pytest

from repro.faults import FaultPlan, FaultyFilesystem
from repro.mcp import ToolCall, ToolResult
from repro.minidb import Database, StorageFailedError
from repro.minidb.errors import DeadlockError, LockTimeoutError
from repro.service import (
    Dispatcher,
    RetryPolicy,
    ServiceOverloaded,
    SessionManager,
    is_retryable_error,
    retryable_result,
    run_with_retries,
)


class TestRetryPolicy:
    def test_delay_grows_exponentially_to_the_cap(self):
        policy = RetryPolicy(
            base_delay_s=0.01, max_delay_s=0.05, multiplier=2.0, jitter=0.0
        )
        rng = random.Random(0)
        delays = [policy.delay_s(a, rng) for a in range(1, 6)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_jitter_only_shaves_never_inflates(self):
        policy = RetryPolicy(base_delay_s=0.01, jitter=1.0, multiplier=1.0)
        rng = random.Random(42)
        for attempt in range(1, 50):
            delay = policy.delay_s(attempt, rng)
            assert 0.0 <= delay <= 0.01

    def test_seed_makes_the_schedule_reproducible(self):
        def schedule(seed):
            policy = RetryPolicy(seed=seed)
            rng = random.Random(policy.seed)
            return [policy.delay_s(a, rng) for a in range(1, 8)]

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)


class TestTaxonomy:
    def test_engine_retryable_flags_are_honored(self):
        assert is_retryable_error(DeadlockError("victim"))
        assert is_retryable_error(LockTimeoutError("slow"))
        assert is_retryable_error(ServiceOverloaded("shed"))

    def test_failstop_and_plain_errors_are_not_retryable(self):
        assert not is_retryable_error(StorageFailedError("fail-stop"))
        assert not is_retryable_error(ValueError("nope"))

    def test_result_channel_reads_the_metadata_mark(self):
        marked = ToolResult.error("deadlock", code="DeadlockError")
        marked.metadata["retryable"] = True
        assert retryable_result(marked)
        assert not retryable_result(ToolResult.error("boom", code="X"))
        assert not retryable_result(ToolResult.ok("fine"))


class TestRunWithRetries:
    def test_retries_until_success(self):
        sleeps = []
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 4:
                raise DeadlockError("victim")
            return "done"

        result = run_with_retries(
            flaky,
            RetryPolicy(max_attempts=8, jitter=0.0, seed=1),
            sleep=sleeps.append,
        )
        assert result == "done"
        assert len(attempts) == 4
        assert len(sleeps) == 3
        assert sleeps == sorted(sleeps), "backoff must be non-decreasing"

    def test_nonretryable_exception_propagates_immediately(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise StorageFailedError("fail-stop")

        with pytest.raises(StorageFailedError):
            run_with_retries(
                broken, RetryPolicy(max_attempts=8), sleep=lambda _s: None
            )
        assert len(attempts) == 1, "fail-stop must not consume retries"

    def test_exhaustion_reraises_the_last_exception(self):
        attempts = []

        def always_deadlocked():
            attempts.append(1)
            raise DeadlockError("victim")

        with pytest.raises(DeadlockError):
            run_with_retries(
                always_deadlocked,
                RetryPolicy(max_attempts=3),
                sleep=lambda _s: None,
            )
        assert len(attempts) == 3

    def test_result_channel_retries_marked_errors(self):
        outcomes = [
            ToolResult.error("deadlock", code="DeadlockError"),
            ToolResult.error("deadlock", code="DeadlockError"),
            ToolResult.ok("committed"),
        ]
        for bad in outcomes[:2]:
            bad.metadata["retryable"] = True
        calls = []

        def attempt():
            calls.append(1)
            return outcomes[len(calls) - 1]

        result = run_with_retries(
            attempt,
            RetryPolicy(max_attempts=8),
            retry_result=retryable_result,
            sleep=lambda _s: None,
        )
        assert not result.is_error
        assert len(calls) == 3

    def test_result_channel_exhaustion_returns_the_last_result(self):
        def always_marked():
            result = ToolResult.error("deadlock", code="DeadlockError")
            result.metadata["retryable"] = True
            return result

        result = run_with_retries(
            always_marked,
            RetryPolicy(max_attempts=3),
            retry_result=retryable_result,
            sleep=lambda _s: None,
        )
        assert result.is_error, "the caller must still see the failure"

    def test_on_retry_observes_each_scheduled_retry(self):
        seen = []

        def flaky():
            if len(seen) < 2:
                raise LockTimeoutError("slow")
            return "ok"

        run_with_retries(
            flaky,
            RetryPolicy(max_attempts=8),
            on_retry=lambda attempt, failure: seen.append(
                (attempt, type(failure).__name__)
            ),
            sleep=lambda _s: None,
        )
        assert seen == [(1, "LockTimeoutError"), (2, "LockTimeoutError")]

    def test_overload_is_retried(self):
        calls = []

        def shed_once():
            calls.append(1)
            if len(calls) == 1:
                raise ServiceOverloaded("queue full")
            return "admitted"

        assert (
            run_with_retries(
                shed_once, RetryPolicy(max_attempts=4), sleep=lambda _s: None
            )
            == "admitted"
        )


# --------------------------------------------------------------------------
# service degradation: panic mode through the dispatchers
# --------------------------------------------------------------------------


def panicked_service(tmp_path, workers):
    fs = FaultyFilesystem(FaultPlan())
    db = Database.open(str(tmp_path / "db"), filesystem=fs)
    admin = db.connect("admin")
    admin.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    admin.execute("INSERT INTO t VALUES (1, 10)")
    manager = SessionManager(db, lock_timeout_s=5.0)
    dispatcher = Dispatcher(manager, workers=workers)
    token = manager.create_session("admin").token
    # poison the next WAL append: the first write through the service
    # latches fail-stop panic mode
    fs.plan = FaultPlan(error_at=fs.ops)
    return db, dispatcher, token


@pytest.mark.parametrize("workers", [1, 4])
class TestDegradedService:
    def test_panic_degrades_to_readonly_with_counters(self, tmp_path, workers):
        db, dispatcher, token = panicked_service(tmp_path, workers)
        before = dispatcher.metrics.snapshot()
        assert before["degraded"] is False
        assert before["storage_errors"] == 0

        write = ToolCall("insert", {"sql": "INSERT INTO t VALUES (2, 20)"})
        result = dispatcher.call(token, write)
        assert result.is_error
        assert result.error_code == "StorageFailedError"
        assert not result.metadata.get("retryable"), (
            "fail-stop must not invite retries"
        )
        assert db.engine.panicked

        # reads still serve; further writes keep refusing and counting
        read = dispatcher.call(
            token, ToolCall("select", {"sql": "SELECT v FROM t WHERE id = 1"})
        )
        assert not read.is_error
        assert read.metadata["rows"] == [(10,)]
        again = dispatcher.call(token, write)
        assert again.error_code == "StorageFailedError"

        after = dispatcher.metrics.snapshot()
        assert after["degraded"] is True
        assert after["storage_errors"] == 2
        dispatcher.close()
        db.close()
