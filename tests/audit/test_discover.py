"""Discover: deterministic enumeration and content-derived sharding."""

import os

import pytest

from repro.audit import DiscoveryError, discover, shard_of


def _write_tree(root):
    (root / "sub").mkdir()
    (root / "a.rp").write_text("a = 1\n")
    (root / "sub" / "b.rp").write_text("b = 2\n")
    (root / "sub" / "c.rp").write_text("c = 3\n")
    (root / "notes.txt").write_text("not a module\n")


class TestDiscover:
    def test_walk_is_sorted_and_suffix_filtered(self, tmp_path):
        _write_tree(tmp_path)
        plan = discover([str(tmp_path)])
        assert [os.path.basename(u.path) for u in plan.units] == [
            "a.rp", "b.rp", "c.rp",
        ]

    def test_same_tree_twice_is_the_same_plan(self, tmp_path):
        _write_tree(tmp_path)
        assert discover([str(tmp_path)]) == discover([str(tmp_path)])

    def test_file_named_twice_is_discovered_once(self, tmp_path):
        _write_tree(tmp_path)
        direct = str(tmp_path / "a.rp")
        plan = discover([str(tmp_path), direct, direct])
        assert len(plan) == 3

    def test_units_carry_source_and_fingerprint(self, tmp_path):
        _write_tree(tmp_path)
        unit = discover([str(tmp_path)]).units[0]
        assert unit.source == "a = 1\n"
        assert len(unit.fingerprint) == 24

    def test_nonexistent_root_is_a_usage_error(self, tmp_path):
        with pytest.raises(DiscoveryError):
            discover([str(tmp_path / "missing")])

    def test_unreadable_file_is_data_not_a_crash(self, tmp_path):
        _write_tree(tmp_path)
        os.symlink(str(tmp_path / "gone"), str(tmp_path / "dangling.rp"))
        plan = discover([str(tmp_path)])
        assert len(plan) == 3
        assert [path for path, _ in plan.unreadable] == [
            str(tmp_path / "dangling.rp")
        ]

    def test_undecodable_file_is_unreadable(self, tmp_path):
        _write_tree(tmp_path)
        (tmp_path / "latin1.rp").write_bytes(b"b = 1 \xff\n")
        plan = discover([str(tmp_path)])
        assert len(plan) == 3
        [(path, message)] = plan.unreadable
        assert path == str(tmp_path / "latin1.rp")
        assert message.startswith(path) and "byte 6" in message


class TestSharding:
    def test_shard_is_content_derived(self, tmp_path):
        _write_tree(tmp_path)
        before = {
            u.fingerprint: u.shard
            for u in discover([str(tmp_path)], shards=4).units
        }
        # Rename every module: fingerprints (hence shards) must not move.
        for index, name in enumerate(["a.rp"]):
            os.replace(tmp_path / name, tmp_path / f"renamed{index}.rp")
        after = {
            u.fingerprint: u.shard
            for u in discover([str(tmp_path)], shards=4).units
        }
        assert before == after

    def test_shard_in_range_and_sizes_complete(self, tmp_path):
        _write_tree(tmp_path)
        plan = discover([str(tmp_path)], shards=4)
        assert all(0 <= u.shard < 4 for u in plan.units)
        sizes = plan.shard_sizes()
        assert sorted(sizes) == ["0", "1", "2", "3"]
        assert sum(sizes.values()) == len(plan)

    def test_single_shard_is_always_zero(self):
        assert shard_of("ff" * 12, 1) == 0

    def test_bad_shard_count_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            discover([str(tmp_path)], shards=0)
