"""Unit tests for the on-disk artifact cache and its content keys."""

import pickle

import pytest

from repro.core.artifact_cache import ArtifactCache, artifact_key, _params_to_jsonable
from repro.core.pipeline import HaloParams
from repro.hds.pipeline import HdsParams


class TestArtifactKey:
    def test_deterministic(self):
        a = artifact_key("health", "test", HaloParams(), HdsParams())
        b = artifact_key("health", "test", HaloParams(), HdsParams())
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_workload_and_scale_differentiate(self):
        base = artifact_key("health", "test", HaloParams())
        assert artifact_key("ft", "test", HaloParams()) != base
        assert artifact_key("health", "train", HaloParams()) != base

    def test_params_differentiate(self):
        base = artifact_key("health", "test", HaloParams(), HdsParams())
        changed = artifact_key(
            "health", "test", HaloParams().with_affinity_distance(256), HdsParams()
        )
        assert changed != base

    def test_version_differentiates(self):
        assert artifact_key("health", "test", version="1.0.0") != artifact_key(
            "health", "test", version="2.0.0"
        )

    def test_extra_kwargs_differentiate(self):
        assert artifact_key("health", "test", variant="a") != artifact_key(
            "health", "test", variant="b"
        )

    def test_default_version_is_package_version(self):
        from repro import __version__

        assert artifact_key("health", "test") == artifact_key(
            "health", "test", version=__version__
        )

    def test_unhashable_params_rejected(self):
        with pytest.raises(TypeError):
            artifact_key("health", "test", halo_params=object())

    def test_jsonable_canonicalises_containers(self):
        assert _params_to_jsonable({"b": 2, "a": (1, [2])}) == {"a": [1, [2]], "b": 2}
        assert _params_to_jsonable(None) is None


class TestArtifactCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        key = artifact_key("health", "test")
        assert cache.get(key) is None
        assert not cache.contains(key)
        cache.put(key, {"payload": [1, 2, 3]})
        assert cache.contains(key)
        assert cache.get(key) == {"payload": [1, 2, 3]}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_creates_root_lazily(self, tmp_path):
        root = tmp_path / "nested" / "cache"
        cache = ArtifactCache(root)
        assert cache.get("no-such-key") is None
        assert not root.exists()  # a pure read never creates the directory
        cache.put("k", 1)
        assert root.is_dir()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("k", [1, 2])
        cache.path_for("k").write_bytes(b"not a pickle")
        assert cache.get("k") is None
        # The entry can be rewritten and read back.
        cache.put("k", [3])
        assert cache.get("k") == [3]

    def test_entry_with_a_damaged_string_is_a_miss(self, tmp_path):
        # A flipped byte inside a pickled string makes the load raise
        # UnicodeDecodeError, not an UnpicklingError.
        cache = ArtifactCache(tmp_path)
        cache.put("k", {"switch_table": 1})
        blob = cache.path_for("k").read_bytes()
        cache.path_for("k").write_bytes(blob.replace(b"switch", b"sw\xe5tch"))
        assert cache.get("k") is None
        assert cache.stats.misses == 1

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("k", list(range(100)))
        blob = cache.path_for("k").read_bytes()
        cache.path_for("k").write_bytes(blob[: len(blob) // 2])
        assert cache.get("k") is None

    def test_put_is_atomic_no_tmp_residue(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("k", "value")
        leftovers = [p for p in cache.root.iterdir() if p.suffix != ".pkl"]
        assert leftovers == []

    def test_unpicklable_value_leaves_no_partial_entry(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises((pickle.PicklingError, TypeError, AttributeError)):
            cache.put("k", lambda: None)
        assert not cache.contains("k")
        leftovers = list(cache.root.iterdir())
        assert leftovers == []

    def test_clear_removes_entries(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert cache.get("a") is None
        assert cache.clear() == 0


class TestFaultInjectedRecovery:
    """Regression: injector-corrupted entries are misses and get rewritten."""

    def _warm(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        key = artifact_key("health", "test", HaloParams(), HdsParams())
        cache.put(key, {"payload": list(range(100))})
        return cache, key

    @pytest.mark.parametrize("mode", ["bitflip", "truncate"])
    def test_injected_corruption_is_miss_then_rewrite(self, tmp_path, mode):
        from repro.faults import FaultPlan, inject_into_path

        cache, key = self._warm(tmp_path)
        damaged = inject_into_path(cache.root, FaultPlan(seed=1, corrupt_mode=mode))
        assert damaged == [cache.path_for(key)]
        # Corruption degrades to a miss, never to an exception or garbage.
        assert cache.get(key) is None
        assert cache.stats.misses == 1
        # The producer path rewrites the entry and the cache recovers fully.
        cache.put(key, {"payload": list(range(100))})
        assert cache.get(key) == {"payload": list(range(100))}

    def test_zero_byte_entry_is_miss(self, tmp_path):
        cache, key = self._warm(tmp_path)
        cache.path_for(key).write_bytes(b"")
        assert cache.get(key) is None
