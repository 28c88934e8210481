"""The one result cache and the one allowlisted unpickler.

Every pickle the program reads goes through
:func:`repro.experiments.sweep.safe_loads`: cache entries on disk and
fleet payloads off the wire.  These tests pin what that loader refuses,
that any decode failure is a corrupt miss, that keys cannot name paths
outside the cache root, and that request bodies are read with a checked
length.
"""

from __future__ import annotations

import http.client
import io
import os
import pickle
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import sweep
from repro.experiments.sweep import ResultCache, SweepRunner, point_key, safe_loads
from repro.faults import FaultPlan
from repro.machine import MachineConfig
from repro.obs import ObsSpec
from repro.service.app import ServiceApp, _Handler, make_server
from repro.service.fleet import FleetWorkerApp, make_worker_server, wire
from repro.util.cli import write_report

from tests.experiments.test_sweep import square

TOKEN = "test-token"


class _RunsShell:
    """Unpickles into ``os.system(command)``."""

    def __init__(self, command: str):
        self.command = command

    def __reduce__(self):
        return os.system, (self.command,)


class _CallsReproFunction:
    """Unpickles into a call of a ``repro`` function that writes a file."""

    def __init__(self, path: str):
        self.path = path

    def __reduce__(self):
        return write_report, (self.path, "written by a pickle", [])


#: Payload builders, each taking the file its unpickling would create.
HOSTILE = {
    "os.system": lambda marker: _RunsShell(f"touch {marker}"),
    "repro-function": lambda marker: _CallsReproFunction(str(marker)),
}


def traversal_key(target) -> str:
    """A key whose shard path resolves to ``target`` + ``.pkl``: the
    second shard level starts with ``/``, which restarts the path at
    the filesystem root."""
    return ".." + str(target)


#: Entry files that exist but cannot be decoded into an entry.
UNDECODABLE = {
    "garbage": b"garbage\n",  # ValueError from the GET opcode
    "empty": b"",  # EOFError
    "truncated": pickle.dumps({"value": 1})[:-3],
    "missing-module": b"cno_such_module\nThing\n.",
    "missing-repro-module": b"crepro.no_such_module\nThing\n.",
    "not-a-dataclass": pickle.dumps({"value": wire.FleetAuth("s")}),
    "not-a-dict": pickle.dumps([1, 2, 3]),
    "no-value-field": pickle.dumps({"wrong": "shape"}),
}


def key_of(i: int) -> str:
    return point_key(square, dict(x=i))


def plant(cache: ResultCache, key: str, data: bytes) -> None:
    path = cache._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


class TestSafeLoader:
    @pytest.mark.parametrize(
        "value",
        [
            MachineConfig.ksr1(),
            ObsSpec(),
            FaultPlan(corruption_rate=0.01, dead_cells=(3,)),
            {"nested": [(1, 2.5, "s", None, b"b")], "set": frozenset({1})},
        ],
        ids=["MachineConfig", "ObsSpec", "FaultPlan", "builtins"],
    )
    def test_repro_dataclasses_and_builtins_round_trip(self, value):
        assert safe_loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)) == value

    @pytest.mark.parametrize("kind", HOSTILE)
    def test_hostile_payload_refused(self, kind, tmp_path):
        marker = tmp_path / "pwned"
        with pytest.raises(pickle.UnpicklingError):
            safe_loads(pickle.dumps(HOSTILE[kind](marker)))
        assert not marker.exists()

    @pytest.mark.parametrize("kind", HOSTILE)
    def test_hostile_cache_entry_is_a_corrupt_miss(self, kind, tmp_path):
        marker = tmp_path / "pwned"
        cache = ResultCache(tmp_path / "c")
        key = key_of(1)
        plant(cache, key, pickle.dumps({"value": HOSTILE[kind](marker), "meta": {}}))
        assert cache.load(key) == (False, None)
        assert cache.corrupt == 1 and cache.misses == 1
        assert not cache._path(key).exists()
        assert not marker.exists()

    @pytest.mark.parametrize("kind", HOSTILE)
    def test_hostile_wire_payload_is_a_wire_error(self, kind, tmp_path):
        marker = tmp_path / "pwned"
        with pytest.raises(wire.WireError):
            wire.load_payload(pickle.dumps(HOSTILE[kind](marker)))
        assert not marker.exists()


class TestDecodeFailures:
    """Any exception while decoding an entry is a corrupt miss."""

    @pytest.mark.parametrize("data", UNDECODABLE.values(), ids=UNDECODABLE.keys())
    def test_load_counts_corrupt_miss_and_unlinks(self, data, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = key_of(2)
        plant(cache, key, data)
        assert cache.load(key) == (False, None)
        assert (cache.hits, cache.misses, cache.corrupt) == (0, 1, 1)
        assert not cache._path(key).exists()

    @pytest.mark.parametrize("data", UNDECODABLE.values(), ids=UNDECODABLE.keys())
    def test_peek_is_a_silent_miss_and_unlinks(self, data, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = key_of(3)
        plant(cache, key, data)
        assert cache.peek(key) == (False, None, {})
        assert not cache._path(key).exists()

    def test_sweep_recomputes_over_an_undecodable_entry(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        plant(cache, key_of(4), UNDECODABLE["missing-module"])
        assert SweepRunner(cache=cache).run(square, x=4) == 16
        assert cache.load(key_of(4)) == (True, 16)


class TestCodeVersion:
    def test_entry_from_another_code_version_is_a_miss(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "c")
        monkeypatch.setattr(sweep, "_code_version", "0" * 64)
        cache.store(point_key(square, dict(x=5)), "value computed by other code")
        monkeypatch.undo()
        assert SweepRunner(cache=cache).run(square, x=5) == 25
        assert (cache.hits, cache.misses) == (0, 1)


class TestKeyValidation:
    @pytest.mark.parametrize(
        "key",
        ["../../../../outside/victim", "ABCDEF" + "0" * 58, "0" * 63, "0" * 65, "", 7],
        ids=["traversal", "uppercase", "short", "long", "empty", "not-a-string"],
    )
    def test_malformed_keys_rejected(self, key, tmp_path):
        cache = ResultCache(tmp_path / "c")
        for call in (cache.load, cache.peek, cache.contains,
                     lambda k: cache.store(k, "v")):
            with pytest.raises(ValueError, match="malformed cache key"):
                call(key)

    @pytest.mark.parametrize("planted", [
        pickle.dumps({"value": "planted", "meta": {}}), b"garbage\n",
    ], ids=["readable", "undecodable"])
    def test_traversal_key_neither_reads_nor_deletes(self, planted, tmp_path):
        """A ``*.pkl`` planted outside the root is neither served (when
        readable) nor unlinked as corrupt (when not)."""
        cache = ResultCache(tmp_path / "root")
        victim = tmp_path / "victim.pkl"
        victim.write_bytes(planted)
        key = traversal_key(victim.with_suffix(""))
        for call in (cache.load, cache.peek, cache.contains):
            with pytest.raises(ValueError):
                call(key)
        assert victim.read_bytes() == planted
        assert (cache.hits, cache.misses, cache.corrupt) == (0, 0, 0)


@pytest.fixture
def worker(tmp_path):
    """One fleet worker served on an ephemeral port."""
    app = FleetWorkerApp(str(tmp_path / "shard"), worker_id="w",
                         auth=wire.FleetAuth(TOKEN))
    server = make_worker_server(app, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield app, server.server_address[1]
    server.shutdown()
    thread.join(timeout=10)
    app.close(drain_deadline=0)


@pytest.fixture
def daemon(tmp_path):
    """One inline ``ksr-serve`` daemon served on an ephemeral port."""
    app = ServiceApp(str(tmp_path / "cache"), backend="inline")
    server = make_server(app, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    thread.join(timeout=10)
    app.close(drain_deadline=0)


def request(port, method, path, body=b"", headers=None):
    """One raw HTTP exchange; ``Content-Length`` is whatever ``headers`` say."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.putrequest(method, path, skip_accept_encoding=True)
        for name, value in (headers or {}).items():
            conn.putheader(name, value)
        conn.endheaders(body or None)
        reply = conn.getresponse()
        return reply.status, reply.read()
    finally:
        conn.close()


def fleet_headers(body: bytes) -> dict[str, str]:
    return {wire.FLEET_TOKEN_HEADER: TOKEN, "Content-Type": wire.PICKLE_CONTENT_TYPE,
            "Content-Length": str(len(body))}


class TestFleetEndpoints:
    @pytest.mark.parametrize("kind", HOSTILE)
    def test_hostile_map_payload_is_400(self, kind, worker, tmp_path):
        _, port = worker
        marker = tmp_path / "pwned"
        body = pickle.dumps(HOSTILE[kind](marker))
        status, _ = request(port, "POST", "/v1/fleet/map", body, fleet_headers(body))
        assert status == 400
        assert not marker.exists()

    def test_entry_get_with_malformed_key_is_400(self, worker, tmp_path):
        _, port = worker
        victim = tmp_path / "victim.pkl"
        victim.write_bytes(pickle.dumps({"value": "planted", "meta": {}}))
        for key in (traversal_key(victim.with_suffix("")), "not-a-key"):
            status, _ = request(port, "GET", f"/v1/fleet/entry/{key}",
                                headers={wire.FLEET_TOKEN_HEADER: TOKEN})
            assert status == 400, key
        assert victim.exists()

    def test_entry_put_with_malformed_key_is_400(self, worker):
        app, port = worker
        body = wire.dump_payload({"key": "../escape", "value": 1, "meta": {}})
        status, _ = request(port, "POST", "/v1/fleet/entry", body, fleet_headers(body))
        assert status == 400
        assert app.cache.keys() == []

    def test_entry_round_trips_with_valid_key(self, worker):
        app, port = worker
        key = key_of(6)
        body = wire.dump_payload({"key": key, "value": 36, "meta": {}})
        status, _ = request(port, "POST", "/v1/fleet/entry", body, fleet_headers(body))
        assert status == 200
        status, data = request(port, "GET", f"/v1/fleet/entry/{key}",
                               headers={wire.FLEET_TOKEN_HEADER: TOKEN})
        assert status == 200 and wire.load_payload(data)["value"] == 36

    def test_negative_content_length_is_400(self, worker):
        _, port = worker
        headers = {**fleet_headers(b""), "Content-Length": "-1"}
        status, _ = request(port, "POST", "/v1/fleet/map", b"", headers)
        assert status == 400


class TestJsonBody:
    @pytest.mark.parametrize("length", ["-1", "abc", "1_0", "+5"])
    def test_malformed_content_length_is_400_without_waiting(self, length, daemon):
        """A negative length used to read to EOF, holding the handler
        thread for as long as a keep-alive client stayed connected."""
        status, data = request(daemon, "POST", "/v1/jobs", b"",
                               {"Content-Length": length})
        assert status == 400 and b"Content-Length" in data

    def test_valid_body_still_reaches_the_app(self, daemon):
        body = b'{"kind": "nope"}'
        status, data = request(daemon, "POST", "/v1/jobs", body,
                               {"Content-Length": str(len(body))})
        assert status == 400 and b"Content-Length" not in data


def json_body(content_length: str, data: bytes):
    """Drive ``_Handler._json_body`` without a socket; ``(body, statuses)``."""
    handler = _Handler.__new__(_Handler)
    handler.headers = {"Content-Length": content_length}
    handler.rfile = io.BytesIO(data)
    statuses: list[int] = []
    handler._reply = lambda status, doc, headers=None: statuses.append(status)
    return handler._json_body(), statuses, handler.rfile.tell()


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.binary(max_size=200),
        st.builds(lambda cut, tail: wire.dump_payload(
            {"func": "repro.x", "calls": [{"seed": 1}]})[:cut] + tail,
            st.integers(0, 60), st.binary(max_size=8)),
    ))
    def test_load_payload_raises_only_wire_error(self, data):
        try:
            wire.load_payload(data)
        except wire.WireError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.integers(-(10**6), 10**6).map(str), st.text(max_size=6)),
        st.binary(max_size=64),
    )
    def test_json_body_answers_a_dict_or_one_400(self, length, data):
        body, statuses, consumed = json_body(length, data)
        if body is None:
            assert statuses == [400]
        else:
            assert isinstance(body, dict) and statuses == []
        if not (length.isascii() and length.isdigit()):
            assert statuses == [400] and consumed == 0
        else:
            assert consumed == min(int(length), len(data))
