"""The store's read boundary, fuzzed: an entry is its exact bytes.

A disk entry is the key-sorted, compact JSON encoding of its envelope
plus a newline, and a reader accepts a file only if it is exactly that
layout around the payload bytes its sha-256 covers.  So every damaged or
re-serialised entry — one byte flipped, dropped or inserted anywhere,
other whitespace, other key order — must read as a miss and be
quarantined, by ``get`` and by ``verify()`` alike, and never return a
payload.
"""

import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import STORE_FORMAT, DiskStore, payload_digest
from repro.store.disk import _canonical, entry_bytes

KEY = "cd" + "5" * 62

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)
PAYLOADS = st.dictionaries(st.text(), JSON_VALUES, max_size=5)

#: Small, but with a nested value, non-ASCII text and an empty list.
SAMPLE = {"name": "fé", "deps": [], "flow": [[1, -2], {"n": None}]}


def _envelope(key: str, payload: dict) -> dict:
    return {
        "format": STORE_FORMAT,
        "key": key,
        "sha256": payload_digest(payload),
        "payload": payload,
    }


def _written(store: DiskStore, key: str, payload: dict) -> tuple[str, bytes]:
    store.put(key, payload)
    path = os.path.join(store.root, "objects", key[:2], key + ".json")
    with open(path, "rb") as handle:
        return path, handle.read()


def _assert_rejected(store: DiskStore, path: str, data: bytes) -> None:
    """``data`` in place of the entry is a miss for ``get`` and corrupt
    for ``verify()``, and each moves exactly those bytes to quarantine."""
    quarantined = os.path.join(store.root, "quarantine", KEY + ".json")
    for read in ("get", "verify"):
        with open(path, "wb") as handle:
            handle.write(data)
        if read == "get":
            assert store.get(KEY) is None, data
        else:
            assert store.verify()["corrupt"] == 1, data
        assert not os.path.exists(path), data
        with open(quarantined, "rb") as handle:
            assert handle.read() == data
        os.unlink(quarantined)


@settings(max_examples=200, deadline=None)
@given(payload=PAYLOADS)
def test_entry_bytes_are_the_sorted_compact_envelope(payload):
    expected = json.dumps(
        _envelope(KEY, payload), sort_keys=True, separators=(",", ":")
    ) + "\n"
    assert entry_bytes(KEY, _canonical(payload)) == expected.encode()


@settings(max_examples=60, deadline=None)
@given(payload=PAYLOADS)
def test_put_then_get_round_trips(payload):
    with tempfile.TemporaryDirectory() as root:
        store = DiskStore(root)
        _, raw = _written(store, KEY, payload)
        assert raw == entry_bytes(KEY, _canonical(payload))
        assert store.get(KEY) == payload
        assert DiskStore(root).get(KEY) == payload
        assert store.verify() == {"checked": 1, "corrupt": 0}


@settings(max_examples=60, deadline=None)
@given(payload=PAYLOADS, data=st.data())
def test_a_damaged_entry_is_never_read(payload, data):
    with tempfile.TemporaryDirectory() as root:
        store = DiskStore(root)
        path, raw = _written(store, KEY, payload)
        kind = data.draw(st.sampled_from(["flip", "truncate", "insert"]))
        if kind == "flip":
            at = data.draw(st.integers(0, len(raw) - 1))
            byte = data.draw(st.integers(1, 255))
            damaged = raw[:at] + bytes([raw[at] ^ byte]) + raw[at + 1:]
        elif kind == "truncate":
            damaged = raw[:data.draw(st.integers(0, len(raw) - 1))]
        else:
            at = data.draw(st.integers(0, len(raw)))
            byte = data.draw(st.integers(0, 255))
            damaged = raw[:at] + bytes([byte]) + raw[at:]
        _assert_rejected(store, path, damaged)


def test_every_single_byte_damage_is_a_quarantined_miss(tmp_path):
    store = DiskStore(str(tmp_path))
    path, raw = _written(store, KEY, SAMPLE)
    assert store.get(KEY) == SAMPLE
    for at in range(len(raw) + 1):
        if at < len(raw):
            _assert_rejected(store, path, raw[:at])
            flipped = bytes([raw[at] ^ 0x20])
            _assert_rejected(store, path, raw[:at] + flipped + raw[at + 1:])
        # A space is the insertion a JSON parser would forgive.
        _assert_rejected(store, path, raw[:at] + b" " + raw[at:])


def test_a_re_serialised_envelope_is_a_quarantined_miss(tmp_path):
    store = DiskStore(str(tmp_path))
    path, raw = _written(store, KEY, SAMPLE)
    envelope = _envelope(KEY, SAMPLE)
    reordered = dict(reversed(list(envelope.items())))
    for text in (
        json.dumps(envelope, sort_keys=True) + "\n",  # default spacing
        json.dumps(envelope, sort_keys=True, indent=2) + "\n",
        json.dumps(reordered, separators=(",", ":")) + "\n",  # key order
        json.dumps(envelope, sort_keys=True, separators=(",", ":")),
        json.dumps(envelope, sort_keys=True, separators=(",", ":"))
        + "\r\n",
    ):
        assert text.encode() != raw
        assert json.loads(text) == envelope  # the same JSON value
        _assert_rejected(store, path, text.encode())
