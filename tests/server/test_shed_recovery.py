"""Deadline-aware shedding recovers from an estimate above every deadline.

Only completed jobs update the service-time EWMA, and a scheduler that
sheds every job completes none.  An idle pool whose estimate has gone
stale therefore serves one job as a probe; jobs answered without service
(expired or cancelled in the queue) do not feed the estimate.
"""

import threading
import time

from repro.server.metrics import ServerMetrics
from repro.server.overload import ServiceTimeEstimator
from repro.server.scheduler import Job, Scheduler
from repro.util import Deadline


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_job(job_id, deadline_seconds, respond=None):
    return Job(
        id=job_id,
        method="check",
        params={},
        deadline=Deadline(deadline_seconds),
        respond=respond or (lambda response: None),
        client="test",
    )


class TestStaleEstimate:
    def test_cold_estimate_is_not_stale(self):
        assert not ServiceTimeEstimator().stale("check")

    def test_estimate_goes_stale_after_one_predicted_service(self):
        clock = FakeClock()
        estimator = ServiceTimeEstimator(clock=clock)
        estimator.observe("check", 0.5)
        clock.now = 0.4
        assert not estimator.stale("check")
        clock.now = 0.6
        assert estimator.stale("check")
        assert estimator.stale("never-seen")  # the combined lane
        estimator.observe("check", 0.5)
        assert not estimator.stale("check")


class TestIdleProbe:
    def scheduler(self, clock):
        # Never started: submitted jobs stay in the backlog.
        return Scheduler(
            handler=lambda job, queue_seconds: {},
            workers=1,
            metrics=ServerMetrics(),
            shed=True,
            estimator=ServiceTimeEstimator(clock=clock),
        )

    def test_idle_pool_with_a_stale_estimate_serves_a_probe(self):
        clock = FakeClock()
        scheduler = self.scheduler(clock)
        scheduler.estimator.observe("check", 0.5)
        assert scheduler.submit(make_job(1, 0.01)) == "shed"
        clock.now = 0.6
        assert scheduler.submit(make_job(2, 0.01)) == "accepted"
        # One probe at a time: with the probe queued, the pool is busy.
        assert scheduler.submit(make_job(3, 0.01)) == "shed"


class TestServedJobsOnly:
    def run(self, jobs, handler=lambda job, queue_seconds: {}):
        answered = threading.Semaphore(0)
        scheduler = Scheduler(handler=handler, workers=1)
        for job in jobs:
            job.respond = lambda response: answered.release()
            assert scheduler.submit(job) == "accepted"
        scheduler.start()
        for _ in jobs:
            assert answered.acquire(timeout=10.0)
        assert scheduler.drain(timeout=10.0)
        return scheduler.estimator

    def test_a_job_expired_in_the_queue_is_not_observed(self):
        expired = make_job(1, 0.001)
        time.sleep(0.01)
        assert self.run([expired]).predict("check") is None

    def test_a_cancelled_job_is_not_observed(self):
        cancelled = make_job(1, None)
        cancelled.deadline.cancel()
        assert self.run([cancelled]).predict("check") is None

    def test_a_served_job_is_observed(self):
        assert self.run([make_job(1, 30.0)]).predict("check") is not None


def test_an_estimate_above_every_deadline_recovers():
    """The collapse this guards against: the estimate exceeds the one
    deadline every request carries, so every job is shed and nothing
    ever lowers the estimate again."""
    served = threading.Event()

    def handler(job, queue_seconds):
        time.sleep(0.005)
        served.set()
        return {}

    scheduler = Scheduler(
        handler=handler, workers=1, metrics=ServerMetrics(), shed=True
    )
    scheduler.estimator.observe("check", 0.1)
    scheduler.start()
    deadline = 0.05
    verdicts = []
    try:
        give_up = time.monotonic() + 10.0
        while time.monotonic() < give_up:
            verdicts.append(scheduler.submit(make_job(len(verdicts), deadline)))
            if scheduler.estimator.predict("check") < deadline:
                break
            time.sleep(0.002)
    finally:
        assert scheduler.drain(timeout=10.0)
    assert served.is_set()
    assert verdicts[0] == "shed"
    assert scheduler.estimator.predict("check") < deadline
