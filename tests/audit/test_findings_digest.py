"""SHA-256 pin of the findings document `rowpoly audit run --json` prints.

A finding's id is minted from its code, the content fingerprint of its
declaration (of the module source, for a parse failure) and the shape of
its diagnostic, so this digest moves when any of them moves: a
fingerprint taken from other bytes, a diagnostic reworded, an occurrence
cited at another line.  The corpus holds every kind of entry the Judge
mints: injected missing fields, a dependency error, the same defect in
two modules of different bytes, a parse failure and clean modules.
"""

import hashlib
import json

from repro.audit import run_audit
from repro.gdsl.corpus import CorpusConfig, generate_corpus, write_corpus

BROKEN = "bad = #absent (@{x = 1} ({}));\nuse = plus bad 1\n"

DOCUMENT_DIGEST = (
    "b97454db9393d5053c6671f73eacf630af9b7d7b291b5863c4af10c4b66c6868"
)


def write_fixed_corpus(root) -> None:
    corpus = generate_corpus(CorpusConfig(modules=10, seed=5, error_rate=0.5))
    write_corpus(corpus, str(root / "corpus"))
    (root / "corpus" / "broken.rp").write_text(BROKEN)
    (root / "corpus" / "nested").mkdir()
    # The same defects a line lower, in a module of other bytes: ``use``
    # stays one finding only because its identity comes from the
    # declaration's content (``bad``'s message cites its line).
    (root / "corpus" / "nested" / "again.rp").write_text(
        "extra = 1;\n" + BROKEN
    )
    (root / "corpus" / "junk.rp").write_text("let = =\n")


def test_offline_findings_document_is_pinned(tmp_path, monkeypatch):
    write_fixed_corpus(tmp_path)
    # Relative roots: occurrences and repro commands cite paths as given.
    monkeypatch.chdir(tmp_path)
    result = run_audit(["corpus"])
    assert result.exit == 2  # the parse failure is a usage exit
    text = json.dumps(result.document, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DOCUMENT_DIGEST
