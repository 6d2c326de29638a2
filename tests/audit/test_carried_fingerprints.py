"""Finding identity rides with the report: the Judge parses nothing.

The check that makes a report knows the content fingerprint of every
declaration it does not call ``ok``.  Its payload carries them
(``fingerprints``) to the Judge, and so do the module-level store entry
and the daemon's response, so no execution path needs the source again.
"""

import dataclasses

from repro.audit import ExecuteConfig, discover, execute, run_audit
from repro.audit.judge import judge
from repro.lang import parse_module
from repro.server.service import check_source, fingerprint_source
from repro.store import open_store
from repro.store.keys import config_digest, module_key

BROKEN = "bad = #absent (@{x = 1} ({}));\nuse = plus bad 1\n"
CLEAN = "mk = @{x = 1} ({});\nit = #x mk\n"
DIGEST = config_digest("flow", None)


def _corpus(tmp_path) -> str:
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "broken.rp").write_text(BROKEN)
    (root / "clean.rp").write_text(CLEAN)
    return str(root)


def _judge(plan, payloads):
    return judge(plan, payloads, engine="flow", config_digest=DIGEST)


def _module_key(source: str) -> str:
    return module_key(fingerprint_source(source), DIGEST)


class _Recording:
    """A store wrapper that records the keys written through it."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.puts: list[str] = []

    def get(self, key: str):
        return self.inner.get(key)

    def put(self, key: str, payload: dict) -> None:
        self.puts.append(key)
        self.inner.put(key, payload)


def test_payloads_carry_the_fingerprints_of_failing_decls_only(tmp_path):
    plan = discover([_corpus(tmp_path)])
    broken, clean = execute(plan, ExecuteConfig())
    assert broken["fingerprints"] == {
        decl.name: decl.fingerprint for decl in parse_module(BROKEN)
    }
    assert "fingerprints" not in clean


def test_judge_over_blanked_sources_gives_the_same_document(tmp_path):
    plan = discover([_corpus(tmp_path)])
    payloads = execute(plan, ExecuteConfig())
    blanked = dataclasses.replace(plan, units=tuple(
        dataclasses.replace(unit, source="") for unit in plan.units
    ))
    document = _judge(plan, payloads).document
    assert document["summary"]["by_code"] == {"RP0001": 1, "RP0006": 1}
    assert _judge(blanked, payloads).document == document


def test_failing_decl_without_a_fingerprint_is_unjudged(tmp_path):
    plan = discover([_corpus(tmp_path)])
    payloads = execute(plan, ExecuteConfig())
    for payload in payloads:
        payload.pop("fingerprints", None)
    result = _judge(plan, payloads)
    # Never a finding minted from the module's own fingerprint.
    assert result.document["findings"] == []
    assert result.document["unreadable"] == [{
        "file": plan.units[0].path,
        "message": "no fingerprint for declaration 'bad', 'use'",
    }]
    assert result.modules_ok == 1
    assert result.modules_with_findings == 0
    assert result.exit == 2


def test_entry_without_fingerprints_is_a_miss_only_when_failing(tmp_path):
    corpus = _corpus(tmp_path)
    store_dir = str(tmp_path / "store")
    offline = run_audit([corpus]).document
    assert run_audit([corpus], store_dir=store_dir).document == offline
    disk = open_store(store_dir, memory_entries=0)
    written = {
        source: disk.get(_module_key(source)) for source in (BROKEN, CLEAN)
    }
    assert "fingerprints" not in written[CLEAN]  # ok entries: old bytes
    # The failing module's entry as it was written before entries
    # carried fingerprints.
    parent_shaped = dict(written[BROKEN])
    del parent_shaped["fingerprints"]
    disk.put(_module_key(BROKEN), parent_shaped)

    recording = _Recording(disk)
    check_source("clean.rp", CLEAN, store=recording)
    assert recording.puts == []  # served from its entry
    check_source("broken.rp", BROKEN, store=recording)
    assert _module_key(BROKEN) in recording.puts  # checked, rewritten
    assert disk.get(_module_key(BROKEN)) == written[BROKEN]

    disk.put(_module_key(BROKEN), parent_shaped)
    assert run_audit([corpus], store_dir=store_dir).document == offline
    assert disk.get(_module_key(BROKEN)) == written[BROKEN]
