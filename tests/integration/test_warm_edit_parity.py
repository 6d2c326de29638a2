"""A warm session's report ≡ an offline check's, byte for byte, over edits.

A warm session re-parses only what an edit touched and reuses every
cached declaration result it still can; an offline check parses and
checks the whole text anew.  Over seeded edit streams on a GDSL decoder
with a failing declaration (an RP0001 whose witness names a record made
in another declaration), the two must print the same report bytes, and
so must a fresh check on a result store that every earlier text of the
stream wrote to.

The edits move text without changing what it means — literal bumps,
blank lines, comments and spaces between tokens — or fix and re-break the
failing declaration, so that every step exercises the positions a cached
report, a cached export's flag names or a stored report carries.  One
more kind turns a decoder's field copy into an RP0002 and back: its
message renders type terms, whose ids each path draws differently.
"""

import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdsl import FIG9_CORPORA, build_corpus
from repro.infer import InferSession
from repro.server.service import check_source
from repro.store.backend import MemoryCache

FAILING = (
    "\n    broken = #nofield init_state\n    ;"
    "\n    user = \\s -> broken\n    ;"
)


def _module(seed: int) -> str:
    source = build_corpus(FIG9_CORPORA[0], 0.02, seed=seed).source
    cut = source.index(";") + 1  # after the first declaration
    return source[:cut] + FAILING + source[cut:]


SOURCES = {seed: _module(seed) for seed in (0, 1)}


def apply_edit(source: str, edit) -> str:
    kind, where, choice = edit
    if kind == "literal":
        literals = list(re.finditer(r"(?<![\w'])\d+", source))
        match = literals[choice % len(literals)]
        bumped = str(int(match.group()) + 1 + choice * 7)
        return source[: match.start()] + bumped + source[match.end():]
    if kind == "toggle":
        if "#nofield" in source:
            return source.replace("#nofield", "#opcode0", 1)
        return source.replace("#opcode0 init_state", "#nofield init_state", 1)
    if kind == "clash":
        # `else @{f = #g s2} s2` stores the selector `#g` instead, which
        # the branch join cannot unify with f's Int; and back.
        fixed = re.sub(r"#(\w+)\} (s\d+)", r"#\1 \2} \2", source, count=1)
        if fixed != source:
            return fixed
        return re.sub(r"#(\w+) (s\d+)\} \2", r"#\1} \2", source, count=1)
    # Only between tokens: before a space or a newline, outside comments.
    comments = [m.span() for m in re.finditer(r"--[^\n]*", source)]
    gaps = [
        m.start() for m in re.finditer(r"[ \n]", source)
        if not any(start < m.start() < end for start, end in comments)
    ]
    position = gaps[int(where * (len(gaps) - 1))]
    if kind == "comment":
        position = source.index("\n", position)
        return source[:position] + " -- note" + source[position:]
    if kind == "shrink" and source[position:position + 2] in ("  ", "\n\n"):
        return source[:position] + source[position + 1:]
    text = ("\n", "\n\n", " ", "   ")[choice % 4]
    return source[:position] + text + source[position:]


edits = st.tuples(
    st.sampled_from(
        ("literal", "literal", "space", "space", "comment", "shrink",
         "toggle", "clash")
    ),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=40),
)


def _bytes(outcome) -> str:
    return json.dumps(outcome.report, indent=2, sort_keys=True)


@settings(max_examples=10, deadline=None)
@given(seed=st.sampled_from(sorted(SOURCES)),
       stream=st.lists(edits, min_size=1, max_size=6))
def test_warm_and_stored_reports_equal_offline(seed, stream):
    source = SOURCES[seed]
    session = InferSession()
    store = MemoryCache()
    check_source("m.rp", source, session=session)
    check_source("m.rp", source, store=store)
    for edit in stream:
        source = apply_edit(source, edit)
        offline = check_source("m.rp", source)
        assert offline.report["decls"], offline.report  # it parsed
        warm = check_source("m.rp", source, session=session)
        stored = check_source("m.rp", source, store=store)
        assert _bytes(warm) == _bytes(offline)
        assert _bytes(stored) == _bytes(offline)
        assert warm.exit == stored.exit == offline.exit


#: ``k`` fails with an RP0002 whose terms carry type variables and flags.
CLASH = "g = \\r -> #x r;\nh = plus 1 2;\nk = plus (g {x = 1}) (\\y -> y)\n"


def test_unification_failure_prints_the_same_on_every_path():
    offline = check_source("m.rp", CLASH)
    # A warm session whose supplies an earlier text of `k` advanced.
    session = InferSession()
    check_source("m.rp", CLASH.replace("(\\y -> y)", "2"), session=session)
    warm = check_source("m.rp", CLASH, session=session)
    # A store that serves `g` and `h`, so `k` alone is inferred.
    store = MemoryCache()
    check_source("m.rp", CLASH.replace("(\\y -> y)", "3"), store=store)
    stored = check_source("m.rp", CLASH, store=store)
    k = offline.report["decls"][2]
    assert k["code"] == "RP0002"
    assert k["message"] == (
        "cannot unify Int with a -> a (constructor clash) (at 3:5)"
    )
    assert _bytes(warm) == _bytes(offline)
    assert _bytes(stored) == _bytes(offline)
