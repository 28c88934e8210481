"""The result cache as the service uses it: layout, LRU eviction,
pinning, peek, read-through and corruption."""

from __future__ import annotations

import os
import pickle
import threading

import pytest

from repro.experiments.sweep import CACHE_FORMAT_VERSION, ResultCache


def make_key(i: int) -> str:
    """Distinct 64-hex keys spread across shards."""
    import hashlib

    return hashlib.sha256(str(i).encode()).hexdigest()


class TestLayout:
    def test_two_level_fanout_path(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = make_key(1)
        cache.store(key, "v")
        path = tmp_path / "c" / "objects" / key[:2] / key[2:4] / f"{key}.pkl"
        assert path.exists()

    def test_root_is_absolute(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = ResultCache(".c2")
        assert cache.root.is_absolute()
        assert cache.root == tmp_path / ".c2"

    def test_format_marker_written_and_checked(self, tmp_path):
        ResultCache(tmp_path / "c")
        marker = tmp_path / "c" / "CACHE_FORMAT"
        assert marker.read_text().strip() == str(CACHE_FORMAT_VERSION)
        marker.write_text("999\n")
        with pytest.raises(ValueError, match="format"):
            ResultCache(tmp_path / "c")

    def test_rejects_nonpositive_cap(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path / "c", cap_bytes=0)


class TestLoadStore:
    def test_roundtrip_counts(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = make_key(2)
        hit, _ = cache.load(key)
        assert not hit and cache.misses == 1
        cache.store(key, {"answer": 42})
        hit, value = cache.load(key)
        assert hit and value == {"answer": 42}
        assert cache.hits == 1

    def test_corrupt_entry_counted_and_deleted(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = make_key(3)
        cache.store(key, "good")
        path = cache._path(key)
        path.write_bytes(b"garbage")
        hit, _ = cache.load(key)
        assert not hit
        assert cache.corrupt == 1 and cache.misses == 1
        # the poisoned file is gone, so a rewrite is visible again
        assert not path.exists()
        cache.store(key, "fresh")
        hit, value = cache.load(key)
        assert hit and value == "fresh"

    def test_entry_missing_value_field_is_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = make_key(4)
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"wrong": "shape"}))
        hit, _ = cache.load(key)
        assert not hit and cache.corrupt == 1

    def test_sweeprunner_accepts_cache2(self, tmp_path):
        from repro.experiments.sweep import SweepRunner

        from tests.experiments.test_sweep import square

        cache = ResultCache(tmp_path / "c")
        runner = SweepRunner(cache=cache)
        calls = [dict(x=i) for i in range(4)]
        first = runner.map(square, calls)
        second = runner.map(square, calls)
        assert first == second == [0, 1, 4, 9]
        assert cache.hits == 4 and cache.misses == 4


class TestEviction:
    def _fill(self, cache, n, size=1000, start=0):
        keys = []
        for i in range(start, start + n):
            key = make_key(i)
            cache.store(key, os.urandom(size))
            keys.append(key)
        return keys

    def test_size_cap_enforced_lru(self, tmp_path):
        cache = ResultCache(tmp_path / "c", cap_bytes=6000)
        keys = self._fill(cache, 10)  # ~10x1KB > 6KB cap
        assert cache.resident_bytes() <= 6000
        assert cache.evictions > 0
        # newest entries survive, oldest were dropped
        assert cache.load(keys[-1])[0]
        assert not cache.load(keys[0])[0]

    def test_hit_refreshes_lru_position(self, tmp_path):
        cache = ResultCache(tmp_path / "c")  # fill uncapped first
        keys = self._fill(cache, 6)
        # make key 0 the most recently used despite oldest store
        now = 2_000_000_000
        for i, key in enumerate(keys):
            os.utime(cache._path(key), (now + i, now + i))
        os.utime(cache._path(keys[0]), (now + 100, now + 100))
        cache.cap_bytes = 3500
        cache.evict_to_cap()
        assert cache.load(keys[0])[0], "recently used entry must survive"
        assert not cache.load(keys[1])[0], "LRU entry must be evicted"

    def test_pinned_entries_survive_eviction(self, tmp_path):
        cache = ResultCache(tmp_path / "c", cap_bytes=5000)
        with cache.pin_session():
            campaign_keys = self._fill(cache, 3)  # this job's in-flight points
            # a concurrent job (other thread, no pins) blows the cap
            other = threading.Thread(target=self._fill, args=(cache, 8, 1000, 100))
            other.start()
            other.join()
            assert cache.evictions > 0, "cap was never enforced"
            for key in campaign_keys:
                assert cache.load(key)[0], "pinned in-flight entry evicted"

    def test_pins_released_after_session(self, tmp_path):
        cache = ResultCache(tmp_path / "c", cap_bytes=2000)
        with cache.pin_session():
            keys = self._fill(cache, 4)
        # after the session the same keys are ordinary LRU citizens
        self._fill(cache, 4, start=50)
        assert not all(cache.load(k)[0] for k in keys)

    def test_uncapped_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        self._fill(cache, 10)
        assert cache.evict_to_cap() == 0
        assert cache.evictions == 0


class TestPeek:
    def test_peek_returns_value_and_meta_without_counters(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = make_key(20)
        cache.store(key, "v", meta={"func": "tests.square"})
        hit, value, meta = cache.peek(key)
        assert hit and value == "v" and meta["func"] == "tests.square"
        assert cache.hits == 0 and cache.misses == 0

    def test_peek_miss_is_silent(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert cache.peek(make_key(21)) == (False, None, {})
        assert cache.misses == 0

    def test_peek_unlinks_corrupt_entry(self, tmp_path):
        """A poisoned file must not keep shadowing the key: peek drops
        it so the next store (or replica push) is visible again."""
        cache = ResultCache(tmp_path / "c")
        key = make_key(22)
        cache.store(key, "good")
        path = cache._path(key)
        path.write_bytes(b"garbage")
        assert cache.peek(key) == (False, None, {})
        assert not path.exists()
        cache.store(key, "fresh")
        assert cache.peek(key)[1] == "fresh"

    def test_peek_never_consults_remote(self, tmp_path):
        """Peers answer peeks; a remote-consulting peek could ping-pong
        between two workers missing the same key forever."""
        cache = ResultCache(tmp_path / "c")
        calls = []
        cache.remote_fetch = lambda key: calls.append(key) or (True, "remote")
        assert cache.peek(make_key(23))[0] is False
        assert calls == []


class TestReadThrough:
    """Counter invariants of the fleet read-through seam."""

    def test_remote_hit_counts_hit_and_adopts(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = make_key(30)
        cache.remote_fetch = lambda k: (True, "remote-value")
        hit, value = cache.load(key)
        assert hit and value == "remote-value"
        assert (cache.hits, cache.remote_hits, cache.misses) == (1, 1, 0)
        # adopted locally: the next load is a plain local hit
        cache.remote_fetch = None
        assert cache.load(key) == (True, "remote-value")
        assert (cache.hits, cache.remote_hits, cache.misses) == (2, 1, 0)

    def test_remote_miss_counts_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.remote_fetch = lambda k: (False, None)
        assert cache.load(make_key(31)) == (False, None)
        assert (cache.hits, cache.remote_hits, cache.misses) == (0, 0, 1)

    def test_corrupt_then_remote_hit_counts_both(self, tmp_path):
        """A corrupt local entry resolved remotely is a miss (the local
        copy was lost) AND a hit (the point was still cache-served)."""
        cache = ResultCache(tmp_path / "c")
        key = make_key(32)
        cache.store(key, "good")
        cache._path(key).write_bytes(b"garbage")
        cache.remote_fetch = lambda k: (True, "replica-copy")
        hit, value = cache.load(key)
        assert hit and value == "replica-copy"
        assert cache.corrupt == 1
        assert (cache.hits, cache.remote_hits, cache.misses) == (1, 1, 1)

    def test_raising_remote_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")

        def sick_peer(key):
            raise OSError("connection refused")

        cache.remote_fetch = sick_peer
        assert cache.load(make_key(33)) == (False, None)
        assert (cache.hits, cache.remote_hits, cache.misses) == (0, 0, 1)


class TestKeysAndFingerprint:
    def test_keys_lists_resident_sorted(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        stored = {make_key(i) for i in range(40, 45)}
        for key in stored:
            cache.store(key, key)
        assert cache.keys() == sorted(stored)
        assert cache.hits == 0 and cache.misses == 0

    def test_fingerprint_is_content_only(self, tmp_path):
        a = ResultCache(tmp_path / "a")
        b = ResultCache(tmp_path / "b")
        assert a.fingerprint() == b.fingerprint(), "empty shards match"
        for i in range(50, 53):
            a.store(make_key(i), i)
            b.store(make_key(i), i)
        assert a.fingerprint() == b.fingerprint(), "same keys, same print"
        a.store(make_key(99), "extra")
        assert a.fingerprint() != b.fingerprint()


class TestConcurrency:
    def test_parallel_stores_and_loads(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        errors = []

        def work(base):
            try:
                for i in range(30):
                    key = make_key(base * 1000 + i)
                    cache.store(key, (base, i))
                    hit, value = cache.load(key)
                    assert hit and value == (base, i)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.hits == 120

    def test_stats_shape(self, tmp_path):
        cache = ResultCache(tmp_path / "c", cap_bytes=1 << 20)
        stats = cache.stats()
        for field in ("root", "hits", "misses", "corrupt", "evictions",
                      "bytes", "entries", "cap_bytes", "format"):
            assert field in stats
