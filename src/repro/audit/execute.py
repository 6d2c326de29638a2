"""Execute: the one batch executor behind ``rowpoly check`` and ``audit run``.

The middle stage of the audit pipeline — and the whole of ``rowpoly
check`` between reading its files and printing — runs every
:class:`~repro.audit.discover.AuditUnit` through the *same* canonical
check routine every other surface uses
(:func:`repro.server.service.check_source`), in one of three modes:

* **in-process** — one throwaway session per module, sharing the
  caller's persistent-store handle (so the audit's ``store_hits`` are
  observable through the attached metrics hook);
* **local pool** (``jobs > 1``) — a spawned :class:`ProcessPoolExecutor`
  with one store handle per worker process (``map`` preserves input
  order, so downstream artifacts are independent of scheduling);
* **daemon fleet** (``server``) — batch submission through
  :func:`repro.server.client.check_files_batch`, which drives a
  ``rowpoly serve`` daemon (or ``--shards N`` router) with one retrying
  connection per plan shard.

All three produce payloads of one shape
(:meth:`~repro.server.service.CheckOutcome.payload`: ``{"file",
"report", "exit", "trace", "solver_stats"}``), in plan order, with
byte-identical stable reports.  Sources arrive already read: no mode
reads a module file, or stdin, itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from ..infer.state import FlowOptions
from ..server.service import check_source
from ..util import Budget
from .discover import AuditPlan


@dataclass(frozen=True)
class ExecuteConfig:
    """Everything the Execute stage needs to know about *how* to run."""

    engine: str = "flow"
    options: Optional[FlowOptions] = None
    #: Wire-shaped budget spec (``Budget.from_params`` input) or None.
    budget_spec: Optional[dict] = None
    #: Persistent result-store directory (``None`` = no store).
    store_dir: Optional[str] = None
    #: Local worker processes (ignored when ``server`` is set).
    jobs: int = 1
    #: ``HOST:PORT`` of a running daemon/router; routes the batch there.
    server: Optional[str] = None
    retries: int = 4
    retry_seed: int = 0


#: Persistent-store handles, keyed by directory: one open per process
#: (each spawned pool worker, or the caller when it passes no store).
_WORKER_STORES: dict[str, object] = {}


def _open_worker_store(store_dir: Optional[str]):
    if store_dir is None:
        return None
    store = _WORKER_STORES.get(store_dir)
    if store is None:
        from ..store import open_store

        store = _WORKER_STORES[store_dir] = open_store(store_dir)
    return store


def _execute_one(
    unit: tuple[str, str], config: ExecuteConfig, store=None
) -> dict[str, object]:
    """Check one ``(path, source)``; also the pool's unit of work.

    A fresh budget per check: budgets are stateful (the wall clock
    starts at construction).
    """
    path, source = unit
    if store is None:
        store = _open_worker_store(config.store_dir)
    budget = (
        Budget.from_params(config.budget_spec)
        if config.budget_spec is not None
        else None
    )
    return check_source(
        path, source, engine=config.engine, options=config.options,
        budget=budget, store=store,
    ).payload(path)


def execute(
    plan: AuditPlan,
    config: ExecuteConfig,
    store=None,
) -> list[dict[str, object]]:
    """Run the plan; payloads come back in plan order.

    ``store`` is an already-open cache backend for the in-process path
    (the caller owns it so its metrics hook — and therefore the audit's
    ``store_hits`` — survive the run); the pool and fleet paths manage
    their own handles from ``config.store_dir``.
    """
    units = [(unit.path, unit.source) for unit in plan.units]
    if config.server:
        from ..server.client import check_files_batch

        return check_files_batch(
            config.server,
            units,
            engine=config.engine,
            options=config.options,
            budget=config.budget_spec,
            retries=config.retries,
            retry_seed=config.retry_seed,
            concurrency=max(plan.shards, 1),
        )
    if config.jobs > 1 and len(units) > 1:
        from concurrent.futures import ProcessPoolExecutor

        from ..server.shard import spawn_context

        # About four chunks per worker, as multiprocessing.Pool.map
        # sizes them; a list shorter than that goes one unit per chunk,
        # so it still spreads over every worker.
        chunksize = max(1, len(units) // (4 * config.jobs))
        # Pinned "spawn" start method (same as the sharded daemon): the
        # platform default ``fork`` would clone the caller's threads and
        # locks, and differs across OSes and Python versions.
        with ProcessPoolExecutor(
            max_workers=config.jobs, mp_context=spawn_context()
        ) as pool:
            return list(
                pool.map(
                    partial(_execute_one, config=config),
                    units,
                    chunksize=chunksize,
                )
            )
    return [_execute_one(unit, config, store) for unit in units]
