"""One shard worker process of the sharded daemon.

A shard is simply the PR 3–5 :class:`~repro.server.daemon.Daemon` —
warm-session registry, bounded worker pool, budgets, quarantine, thread
supervisor and all — running in its own process on a loopback TCP port,
so N shards use N cores with no GIL in common.  When the fleet has a
persistent result store (``--store``), every shard opens the *same*
directory through its :class:`DaemonConfig` — safe because the store's
writes are atomic renames of self-verifying entries and only gc takes a
lock — so one shard's solve warms all its peers (and their respawns).  The router
(:mod:`repro.server.router`) speaks the ordinary newline-delimited
JSON-RPC to it; nothing in the daemon knows it is a shard.

Shard processes are started with the ``spawn`` multiprocessing start
method, pinned explicitly: ``fork`` would duplicate the router's threads,
locks and sockets into the child (a classic deadlock factory), behaves
differently on macOS, and is being phased out as the POSIX default.
``spawn`` gives every shard a clean interpreter whose only inheritance is
the environment — which is exactly the channel the chaos harness uses
(``ROWPOLY_FAULTS``), so injected faults reach shards and the router
process stays immune.

The handshake is one message on a :func:`multiprocessing.Pipe`: the child
binds an ephemeral port and sends ``("ready", host, port, pid)``; a child
that cannot start sends ``("error", reason)`` instead of leaving the
router to infer failure from silence.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

from .daemon import Daemon, DaemonConfig

#: The pinned multiprocessing start method for shard processes (and for
#: the ``check --jobs`` process pool — see :data:`repro.cli`): identical
#: behaviour on Linux/macOS and under future Python defaults.
START_METHOD = "spawn"


def spawn_context() -> multiprocessing.context.BaseContext:
    """The explicit ``spawn`` multiprocessing context.

    Every process the serving stack creates goes through this — never
    the ambient default, which is platform- and version-dependent.
    """
    return multiprocessing.get_context(START_METHOD)


def shard_main(
    index: int, config: DaemonConfig, conn, generation: int = 1
) -> None:
    """Entry point of one spawned shard process.

    Runs a full :class:`Daemon` on ``127.0.0.1:<ephemeral>``, reports the
    bound address (and pid) through ``conn``, then serves until drained.
    SIGTERM triggers the daemon's graceful drain; SIGINT is ignored so a
    terminal Ctrl-C reaches only the router, which drains its shards
    deliberately (shutdown RPC) rather than racing a signal broadcast.

    ``generation`` counts the processes that have held this shard index
    (1 for the first, +1 per respawn).  Injected faults draw from a seed
    derived from the spec's seed, the index and the generation: a fleet
    stays reproducible, yet a respawned shard does not replay the draws
    that killed its predecessor.
    """
    from ..testing.faults import install_from_env

    stream = f"shard{index}.gen{generation}"

    # Per-shard fault targeting: ``ROWPOLY_FAULTS_SHARD_<index>``
    # overrides the fleet-wide ``ROWPOLY_FAULTS`` for exactly this shard
    # index (surviving respawns — the replacement process re-reads it).
    # The overload chaos arm uses this to slow one shard and watch the
    # router's breaker evict and re-adopt it while its peers stay clean.
    targeted = os.environ.get(f"ROWPOLY_FAULTS_SHARD_{index}")
    if targeted is not None:
        environ = dict(os.environ)
        environ["ROWPOLY_FAULTS"] = targeted
        install_from_env(environ, stream)
    else:
        install_from_env(os.environ, stream)
    try:
        daemon = Daemon(config)
        host, port = daemon.serve_tcp("127.0.0.1", 0, background=True)
    except Exception as error:  # noqa: BLE001 — reported, then fatal
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        finally:
            conn.close()
        raise SystemExit(1)

    def on_sigterm(signum, frame):
        daemon.request_shutdown()

    signal.signal(signal.SIGTERM, on_sigterm)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    conn.send(("ready", host, port, os.getpid()))
    conn.close()
    while not daemon.drained.wait(0.5):
        pass
