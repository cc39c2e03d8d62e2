"""Unit tests for the resilience primitives (deadlines, admission, breakers).

The end-to-end behaviour — envelopes over HTTP, faults injected through the
serving path — lives in ``test_chaos.py`` and ``test_http.py``; this file
pins the primitives' own contracts in isolation.
"""

import threading
import time

import pytest

from repro.errors import DeadlineExceededError, OverloadedError, XPathSyntaxError
from repro.server.resilience import (
    FAULTS,
    AdmissionController,
    CircuitBreaker,
    Deadline,
    FaultInjector,
    TokenBucket,
)


class TestDeadline:
    def test_remaining_counts_down(self):
        deadline = Deadline.after(10.0)
        assert 9.0 < deadline.remaining() <= 10.0
        assert not deadline.expired

    def test_after_ms(self):
        deadline = Deadline.after_ms(250.0)
        assert 0.0 < deadline.remaining() <= 0.25

    def test_expired_and_check(self):
        deadline = Deadline.after(-0.01)
        assert deadline.expired
        assert deadline.remaining() < 0
        with pytest.raises(DeadlineExceededError, match="exceeded its deadline"):
            deadline.check()

    def test_check_passes_while_live(self):
        Deadline.after(10.0).check()  # must not raise

    def test_wire_round_trip_is_the_same_instant(self):
        deadline = Deadline.after(5.0)
        rebuilt = Deadline.from_wire(deadline.at)
        assert rebuilt.at == deadline.at
        assert Deadline.from_wire(None) is None

    def test_check_message_names_the_waiter(self):
        with pytest.raises(DeadlineExceededError, match="batch"):
            Deadline.after(-1.0).check("batch")


class TestTokenBucket:
    def test_burst_then_refusal(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.take() == 0.0
        assert bucket.take() == 0.0
        wait = bucket.take()
        assert wait > 0.0  # empty: must wait for refill
        assert wait <= 1.0  # one token at 1/s is at most a second away

    def test_refills_over_time(self):
        bucket = TokenBucket(rate=1000.0, burst=1.0)
        assert bucket.take() == 0.0
        assert bucket.take() > 0.0
        time.sleep(0.01)  # 1000/s refills a full token in 1ms
        assert bucket.take() == 0.0

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate=1000.0, burst=1.0)
        time.sleep(0.01)
        assert bucket.take() == 0.0
        assert bucket.take() > 0.0  # burst capped at 1 despite the idle time


class TestAdmissionController:
    def test_unbounded_by_default(self):
        admission = AdmissionController()
        for _ in range(100):
            admission.admit("c")
        assert admission.stats()["inflight"] == 100

    def test_queue_full_sheds_with_retry_after(self):
        admission = AdmissionController(max_queue=2)
        admission.admit()
        admission.admit()
        with pytest.raises(OverloadedError, match="queue is full") as info:
            admission.admit()
        assert info.value.retry_after > 0
        assert admission.stats()["shed_queue_full"] == 1

    def test_release_frees_a_slot(self):
        admission = AdmissionController(max_queue=1)
        admission.admit()
        admission.release()
        admission.admit()  # must not raise
        assert admission.stats()["inflight"] == 1

    def test_rate_limit_is_per_client(self):
        admission = AdmissionController(rate_limit=1.0, rate_burst=1.0)
        admission.admit("alice")
        with pytest.raises(OverloadedError, match="rate limit") as info:
            admission.admit("alice")
        assert 0.0 < info.value.retry_after <= 1.0
        admission.admit("bob")  # a different client's bucket is untouched
        assert admission.stats()["shed_rate_limited"] == 1

    def test_rate_limited_shed_rolls_back_inflight(self):
        admission = AdmissionController(max_queue=10, rate_limit=1.0, rate_burst=1.0)
        admission.admit("c")
        for _ in range(3):
            with pytest.raises(OverloadedError):
                admission.admit("c")
        assert admission.stats()["inflight"] == 1  # sheds never leak slots

    def test_anonymous_clients_skip_the_rate_limit(self):
        admission = AdmissionController(rate_limit=1.0, rate_burst=1.0)
        admission.admit(None)
        admission.admit(None)  # no client identity: depth cap only

    def test_shed_rate_observes_recent_sheds(self):
        admission = AdmissionController(max_queue=1, shed_window=10.0)
        admission.admit()
        for _ in range(5):
            with pytest.raises(OverloadedError):
                admission.admit()
        assert admission.shed_rate() == pytest.approx(0.5)
        assert admission.shed_rate(window=0.0) == 0.0

    def test_client_table_is_bounded(self):
        admission = AdmissionController(rate_limit=1000.0)
        admission.MAX_CLIENTS = 8
        for i in range(50):
            admission.admit(f"client-{i}")
        assert admission.stats()["clients_tracked"] <= 8

    def test_concurrent_admits_respect_the_cap(self):
        admission = AdmissionController(max_queue=5)
        outcomes = []
        barrier = threading.Barrier(20)

        def worker():
            barrier.wait(timeout=5)
            try:
                admission.admit()
                outcomes.append("in")
            except OverloadedError:
                outcomes.append("shed")

        threads = [threading.Thread(target=worker) for _ in range(20)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert outcomes.count("in") == 5
        assert outcomes.count("shed") == 15


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown=60.0)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.stats()["opens"] == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(threshold=3, cooldown=60.0)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_hands_out_one_probe(self):
        breaker = CircuitBreaker(threshold=1, cooldown=0.01)
        breaker.record_failure()
        assert not breaker.allow()
        time.sleep(0.02)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # herd held back for a fresh cooldown

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(threshold=1, cooldown=0.01)
        breaker.record_failure()
        time.sleep(0.02)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown=0.01)
        breaker.record_failure()
        time.sleep(0.02)
        assert breaker.allow()
        breaker.record_failure()
        assert not breaker.allow()


class TestFaultInjector:
    def test_unarmed_fire_is_a_no_op(self):
        injector = FaultInjector()
        injector.fire("anywhere")  # must not raise

    def test_armed_error_raises(self):
        injector = FaultInjector()
        injector.arm("point", error=RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            injector.fire("point")
        injector.fire("other.point")  # only the armed point fires

    def test_times_bounds_then_self_disarms(self):
        injector = FaultInjector()
        injector.arm("point", error=RuntimeError("boom"), times=2)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                injector.fire("point")
        injector.fire("point")  # third fire: disarmed
        assert not injector.enabled

    def test_latency_sleeps(self):
        injector = FaultInjector()
        injector.arm("point", latency=0.05)
        started = time.monotonic()
        injector.fire("point")
        assert time.monotonic() - started >= 0.04

    def test_callback_gets_fire_site_context(self):
        injector = FaultInjector()
        seen = {}
        injector.arm("point", callback=lambda **ctx: seen.update(ctx))
        injector.fire("point", path="/tmp/some-file", attempt=0)
        assert seen == {"path": "/tmp/some-file", "attempt": 0}

    def test_disarm_all(self):
        injector = FaultInjector()
        injector.arm("a", error=RuntimeError())
        injector.arm("b", error=RuntimeError())
        injector.disarm()
        injector.fire("a")
        injector.fire("b")
        assert not injector.enabled

    def test_arm_from_spec_rebuilds_wire_kinds(self):
        injector = FaultInjector()
        injector.arm_from_spec(
            {
                "point": {"kind": "xpath-syntax", "message": "injected"},
                "slow": {"latency": 0.0},
            }
        )
        with pytest.raises(XPathSyntaxError, match="injected"):
            injector.fire("point")
        injector.fire("slow")

    def test_global_injector_is_disarmed_between_tests(self):
        # The process-wide seam must default to off — the production path.
        assert not FAULTS.enabled
