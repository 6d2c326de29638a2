"""The retrying client: bounded, jittered, idempotent.

The scripted tests drive :class:`RetryingClient`'s loop against a stub
connection (no sockets, no sleeping); the end-to-end test points it at a
real daemon whose workers crash on purpose.
"""

from random import Random

import pytest

from repro.server import protocol
from repro.server.client import (
    RetryingClient,
    ServeClient,
    ServeError,
    check_files_batch,
    request_fingerprint,
)
from repro.server.daemon import Daemon, DaemonConfig
from repro.server.supervisor import backoff_delay
from repro.testing.faults import FaultRule, injected

WELL_TYPED = """
let make p = {x = p, y = 2};
    get r = #x r;
    out = get (make 1)
in out
"""


def _retryable(code=protocol.WORKER_CRASHED, retry_after_ms=None):
    data = {"reason": "worker-crash"}
    if retry_after_ms is not None:
        data["retry_after_ms"] = retry_after_ms
    return ServeError(code, "worker-crashed", "boom", data)


class ScriptedConnection:
    """A fake ServeClient: pops one scripted outcome per check call."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def check(self, path, source, **kwargs):
        self.calls.append(dict(kwargs))
        outcome = self.script.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def close(self):
        pass


def scripted_client(script, **kwargs):
    sleeps = []
    client = RetryingClient(
        "127.0.0.1:1", sleep=sleeps.append, **kwargs
    )
    connection = ScriptedConnection(script)
    client._client = connection
    return client, connection, sleeps


class TestRetryLoop:
    def test_retries_retryable_then_succeeds(self):
        client, connection, sleeps = scripted_client(
            [_retryable(), _retryable(), {"exit": 0, "report": {}}]
        )
        result = client.check("m.rp", WELL_TYPED)
        assert result["exit"] == 0
        assert client.retries_performed == 2
        assert len(sleeps) == 2
        # Every attempt carries the SAME fingerprint (idempotency) and
        # an increasing retry ordinal (daemon-side accounting).
        fingerprints = {c["fingerprint"] for c in connection.calls}
        assert fingerprints == {
            request_fingerprint("m.rp", WELL_TYPED, "flow")
        }
        assert [c["retry"] for c in connection.calls] == [0, 1, 2]

    def test_all_retryable_codes_are_retried(self):
        for code in protocol.RETRYABLE_CODES:
            client, _, _ = scripted_client(
                [ServeError(code, "x", "x", {}), {"exit": 0}]
            )
            assert client.check("m.rp", WELL_TYPED) == {"exit": 0}

    def test_non_retryable_raises_immediately(self):
        error = ServeError(
            protocol.INVALID_PARAMS, "invalid-params", "bad", {}
        )
        client, connection, sleeps = scripted_client([error, {"exit": 0}])
        with pytest.raises(ServeError) as info:
            client.check("m.rp", WELL_TYPED)
        assert info.value is error
        assert sleeps == []
        assert len(connection.calls) == 1

    def test_exhaustion_raises_last_error(self):
        client, _, sleeps = scripted_client(
            [_retryable() for _ in range(5)], retries=3
        )
        with pytest.raises(ServeError):
            client.check("m.rp", WELL_TYPED)
        assert client.retries_performed == 3
        assert len(sleeps) == 3

    def test_backoff_schedule_is_seeded_and_exponential(self):
        client, _, sleeps = scripted_client(
            [_retryable()] * 3 + [{"exit": 0}],
            retries=4, base_delay=0.05, max_delay=2.0, seed=11,
        )
        client.check("m.rp", WELL_TYPED)
        rng = Random(11)
        expected = [
            backoff_delay(attempt, 0.05, 2.0, rng)
            for attempt in (1, 2, 3)
        ]
        assert sleeps == expected
        # Jitter aside, the schedule grows exponentially from the base.
        assert sleeps[0] < 0.05 * 1.5
        assert sleeps[2] >= sleeps[0]

    def test_retry_after_hint_is_a_floor(self):
        client, _, sleeps = scripted_client(
            [_retryable(retry_after_ms=700), {"exit": 0}]
        )
        client.check("m.rp", WELL_TYPED)
        assert sleeps[0] >= 0.7

    def test_deadline_expiry_stops_the_retry_loop(self):
        # The server's retry_after hint (500 ms) lands past the caller's
        # overall 100 ms deadline: sleeping and resending could only
        # earn another rejection, so the loop raises the error in hand
        # after ONE attempt — no sleep, no wasted round trip.
        client, connection, sleeps = scripted_client(
            [_retryable(code=protocol.OVERLOADED, retry_after_ms=500)] * 5,
            retries=4,
        )
        with pytest.raises(ServeError) as info:
            client.check("m.rp", WELL_TYPED, deadline_ms=100.0)
        assert info.value.code == protocol.OVERLOADED
        assert len(connection.calls) == 1
        assert sleeps == []
        assert client.retries_performed == 0

    def test_generous_deadline_still_retries(self):
        client, connection, _ = scripted_client(
            [_retryable(retry_after_ms=10), {"exit": 0}]
        )
        result = client.check("m.rp", WELL_TYPED, deadline_ms=60_000.0)
        assert result["exit"] == 0
        assert len(connection.calls) == 2
        assert client.retries_performed == 1

    def test_connection_error_reconnects(self):
        replacement = ScriptedConnection([{"exit": 0}])
        client, first, sleeps = scripted_client(
            [ConnectionResetError("gone")], retries=2
        )
        client._connected_real = client._connected
        client._connected = lambda: (
            client._client or replacement
        )
        # First attempt uses `first`, fails, disconnects; the retry gets
        # the replacement connection.
        client._client = first
        result = client.check("m.rp", WELL_TYPED)
        assert result == {"exit": 0}
        assert len(sleeps) == 1


@pytest.fixture()
def daemon():
    daemons = []

    def start(**config):
        instance = Daemon(DaemonConfig(**config))
        host, port = instance.serve_tcp(port=0, background=True)
        daemons.append(instance)
        return instance, f"{host}:{port}"

    yield start
    for instance in daemons:
        instance.request_shutdown()
        assert instance.wait_drained(timeout=30.0)


class TestEndToEnd:
    def test_survives_worker_crashes(self, daemon):
        instance, address = daemon(workers=2)
        with injected(
            [FaultRule("scheduler.pickup", 1.0, "crash", limit=2)], seed=5
        ):
            with RetryingClient(address, seed=1) as client:
                served = client.check("m.rp", WELL_TYPED)
        assert served["exit"] == 0
        assert client.retries_performed == 2
        robustness = instance.metrics.snapshot()["robustness"]
        assert robustness["client_retries"] == 2

    def test_check_files_batch_retries(self, daemon, tmp_path):
        _, address = daemon(workers=2)
        module = tmp_path / "m.rp"
        module.write_text(WELL_TYPED)
        with injected(
            [FaultRule("scheduler.pickup", 1.0, "crash", limit=1)], seed=2
        ):
            payloads = check_files_batch(
                address, [(str(module), module.read_text())]
            )
        assert [p["exit"] for p in payloads] == [0]
        assert payloads[0]["report"]["ok"] is True

    def test_retried_request_replays_not_rechecks(self, daemon):
        """Identical source re-sent = replay hit, not a second inference."""
        instance, address = daemon()
        with ServeClient(address) as client:
            first = client.check("m.rp", WELL_TYPED)
            again = client.check("m.rp", WELL_TYPED)
        assert first["cached"] is False
        assert again["cached"] is True
        sessions = instance.metrics.snapshot()["sessions"]
        assert sessions["hits"] == 1
