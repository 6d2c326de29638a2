"""SHA-256 pins of the report bytes `rowpoly check --json` prints.

The flow kernel (β's clause algebra, stale-flag elimination, flag-name
bookkeeping) may get faster, but the reports it produces must not move by
a byte: the same clauses in the same order give the same solver work, the
same signatures and the same diagnostics.  These digests were computed
before the kernel's unit/binary fast path existed; any change to them is
a change to the user-facing output.

Two inputs:

* the four Fig. 9 decoders at scale 0.02 (seed 1), with and without
  field tracking;
* an eight-module corpus in which every module carries an injected
  missing field.  Each RP0001 there is raised by the eager stale-flag
  elimination and diagnosed on the pre-elimination formula.
"""

import hashlib
import json

import pytest

from repro.gdsl import FIG9_CORPORA, build_corpus
from repro.gdsl.corpus import CorpusConfig, generate_corpus
from repro.infer.state import FlowOptions
from repro.server.service import check_source

FIG9_DIGESTS = {
    ("Atmel AVR", "fields"):
        "6b551fa47c32c7647b4758b33e22fbf6e9ab3ff76809d54db0635eb271f1061b",
    ("Atmel AVR", "plain"):
        "ede1dd06e7224a11146c09b6b2067255729dc3ad55c7920b948bef011b91186e",
    ("Atmel AVR + Sem", "fields"):
        "7060969d5111f44874449b08768c0db3dcf1b88f861f0c03b002a9cf92d8e555",
    ("Atmel AVR + Sem", "plain"):
        "cd09a1fb401a1f3f3bb71a96816c2da01ca1dfaa6cb97b12f8a5e8327e37c92b",
    ("Intel x86", "fields"):
        "fbba61db9458ceb7253ac53b59816a99ec00dd31b2217c68fbc7b4429c775c55",
    ("Intel x86", "plain"):
        "4c98a8563739df4f12d73c8429b857801b736cdbd47b6171068b046df0e4f759",
    ("Intel x86 + Sem", "fields"):
        "59ff892e4da8c8d8dfce1416ca78a48ae342096de9400b1fddc0a4f9d8e81971",
    ("Intel x86 + Sem", "plain"):
        "0bf6d371f3caf083c988bd4f9aeaf4d8049d9c53c1983c11d72f9b5df027daf1",
}

ERROR_CORPUS_DIGESTS = {
    "mod_00000.rp":
        "9798fe436a8ccc1906aac6382aba3c6675ec9a086abc8503f02c0579793b048e",
    "mod_00001.rp":
        "e4c02717f656d1508d65975f9d2f37a49bfa02441bf5e1bcad25bc4d5916b465",
    "mod_00002.rp":
        "52ba481be2e6eeac6f7574fd330fc7e684fba70e18c03d2c100759125faf5bbc",
    "mod_00003.rp":
        "b53df934eea8f6d573a24e316903f8eff85d9f9c5cf81ce7eb48fe8deaa6c3bf",
    "mod_00004.rp":
        "151a258576dfec143ba6d26856494f56493fa0a21ddf9b9fffd5dae1d7dbf511",
    "mod_00005.rp":
        "8f35a8d51a41e8ea65ca7a9dc24bdbc2d875efae718ac814186ffe4fb36e0e3e",
    "mod_00006.rp":
        "1935e59009a8326d749768fc0b655e977235ebfa1472995e7b8cf61b411c5725",
    "mod_00007.rp":
        "da515ae138636b69f89c8fc9a5a36ff4d7e298f35d37b993df11e75461d38b86",
}


def report_digest(outcome) -> str:
    """SHA-256 of one report, encoded as `rowpoly check --json` does."""
    text = json.dumps(outcome.report, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("spec", FIG9_CORPORA, ids=lambda s: s.name)
def test_fig9_reports_are_pinned(spec):
    source = build_corpus(spec, 0.02, seed=1).source
    for mode, options in (
        ("fields", None),
        ("plain", FlowOptions(track_fields=False)),
    ):
        outcome = check_source(spec.name, source, options=options)
        assert outcome.exit == 0
        assert report_digest(outcome) == FIG9_DIGESTS[(spec.name, mode)], mode


def test_failing_module_reports_are_pinned():
    corpus = generate_corpus(CorpusConfig(modules=8, seed=1, error_rate=1.0))
    digests = {}
    for module in corpus.modules:
        outcome = check_source(module.name, module.source)
        assert outcome.exit == 1
        codes = [d["code"] for d in outcome.report["decls"] if d["status"] != "ok"]
        assert codes == ["RP0001", "RP0006"]
        digests[module.name] = report_digest(outcome)
    assert digests == ERROR_CORPUS_DIGESTS
