"""End-to-end tests for the merge daemon.

Everything runs against a real daemon bound to an ephemeral localhost port
(or a unix socket), talked to through the real client - the full wire
path.  Covers: request/response happy paths, bit-identical decisions vs
the direct (daemon-less) pipeline, warm-request accounting, wire-level
rejections (malformed JSON, oversized payloads, unknown methods/sessions),
bounded-queue backpressure (429), concurrent clients hammering one daemon,
session TTL eviction and client disconnects mid-request.
"""

import json
import os
import socket
import threading
import time

import pytest

from repro.evaluation.pipeline import compile_module
from repro.service import (DaemonConfig, MergeDaemon, ServiceClient,
                           ServiceError)
from repro.service.protocol import build_module, jsonable_decisions

WORKLOAD = {"kind": "workload", "suite": "mibench", "benchmark": "rijndael"}

SOURCE = """
int scale2(int a, int b) { int c; c = a + b; return c * 2; }
int scale3(int a, int b) { int c; c = a + b; return c * 3; }
int lonely(int x) { return x + 41; }
"""

EXTRA_FUNCTION = """
int scale5(int a, int b) { int c; c = a + b; return c * 5; }
"""


def make_daemon(**overrides):
    settings = dict(port=0, session_ttl=60.0, tick_seconds=0.05)
    settings.update(overrides)
    return MergeDaemon(DaemonConfig(**settings)).start()


@pytest.fixture
def daemon():
    daemon = make_daemon()
    yield daemon
    daemon.shutdown()


@pytest.fixture
def client(daemon):
    with ServiceClient(daemon.address, timeout=30.0) as client:
        yield client


def direct_decisions(payload, **kwargs):
    result = compile_module(build_module(payload), "fmsa", **kwargs)
    return jsonable_decisions(result.merge_report.decision_keys())


# -- happy paths --------------------------------------------------------------

class TestBasics:
    def test_health_and_stats(self, client):
        assert client.health()["ok"] is True
        stats = client.stats()
        assert stats["requests_total"] >= 1
        assert stats["sessions_open"] == 0
        assert "align_cache_entries" in stats

    def test_compile_module_round_trip(self, client):
        result = client.compile_module(WORKLOAD)
        assert result["merge_count"] >= 1
        assert result["size_after"] < result["size_baseline"]
        assert result["decisions"]
        assert result["warm"] is False  # first request builds the pass

    def test_warm_requests_reuse_the_pass(self):
        # result cache off: repeats exercise the engine-level warm tier
        # (reused pass + resident alignment cache), not the response memo
        daemon = make_daemon(result_cache_size=0)
        try:
            with ServiceClient(daemon.address, timeout=30.0) as client:
                cold = client.compile_module(WORKLOAD)
                warm = client.compile_module(WORKLOAD)
                assert cold["warm"] is False and warm["warm"] is True
                assert warm["result_cache_hit"] is False
                assert cold["decisions"] == warm["decisions"]
                stats = client.stats()
                assert stats["warm_requests"] == 1
                assert stats["cold_requests"] == 1
                assert stats["result_cache_hits"] == 0
        finally:
            daemon.shutdown()

    def test_identical_requests_hit_the_result_cache(self, client):
        cold = client.compile_module(WORKLOAD)
        assert cold["result_cache_hit"] is False
        warm = client.compile_module(WORKLOAD)
        assert warm["warm"] is True
        assert warm["result_cache_hit"] is True
        assert warm["decisions"] == cold["decisions"]
        # different options miss: they are a different pure function
        other = client.compile_module(WORKLOAD, options={"threshold": 2})
        assert other["result_cache_hit"] is False
        stats = client.stats()
        assert stats["result_cache_hits"] == 1
        assert stats["result_cache_entries"] == 2

    def test_techniques_other_than_fmsa(self, client):
        result = client.compile_module(WORKLOAD,
                                       options={"technique": "identical"})
        assert result["technique"] == "identical"
        assert result["decisions"] == []

    def test_session_lifecycle(self, client):
        opened = client.open_session({"kind": "source", "text": SOURCE})
        sid = opened["session"]
        assert opened["merge_count"] == 1  # scale2 + scale3 merge

        update = client.session_update(
            sid, [{"op": "add", "name": "scale5", "source": EXTRA_FUNCTION}])
        assert update["merge_count"] >= 1
        assert update["edits"] == 1

        closed = client.close_session(sid)
        assert closed["closed"] is True
        with pytest.raises(ServiceError) as err:
            client.session_update(sid, [])
        assert err.value.code == "unknown-session"

    def test_unix_socket_transport(self, tmp_path):
        path = str(tmp_path / "merged.sock")
        daemon = make_daemon(unix_socket=path)
        try:
            assert daemon.address == path
            with ServiceClient(path, timeout=30.0) as client:
                assert client.health()["ok"] is True
                result = client.compile_module(WORKLOAD)
                assert result["decisions"] == direct_decisions(WORKLOAD)
        finally:
            daemon.shutdown()
        assert not os.path.exists(path)


# -- bit-identity vs the direct path ------------------------------------------

class TestDecisionParity:
    def test_daemon_decisions_match_direct_compile(self):
        daemon = make_daemon()
        try:
            with ServiceClient(daemon.address, timeout=60.0) as client:
                served = client.compile_module(WORKLOAD)
        finally:
            daemon.shutdown()
        assert served["decisions"] == direct_decisions(WORKLOAD)

    def test_session_decisions_match_direct_session_after_edits(self, client):
        sid = client.open_session({"kind": "source", "text": SOURCE})["session"]
        update = client.session_update(
            sid, [{"op": "add", "name": "scale5", "source": EXTRA_FUNCTION},
                  {"op": "remove", "name": "lonely"}])
        # reference point: the same module payload and edit script driven
        # through a direct (daemon-less) session
        from repro.evaluation.pipeline import open_compile_session
        from repro.service.protocol import build_edits
        module = build_module({"kind": "source", "text": SOURCE})
        edits = build_edits(
            [{"op": "add", "name": "scale5", "source": EXTRA_FUNCTION},
             {"op": "remove", "name": "lonely"}])
        with open_compile_session(module) as session:
            session.update(edits)
            reference = jsonable_decisions(session.report.decision_keys())
        assert update["decisions"] == reference


# -- wire-level rejections ----------------------------------------------------

def raw_post(address, path, body: bytes, headers=None):
    """POST raw bytes (bypassing the client's JSON encoding) and return
    ``(status, decoded-body)``."""
    host, _, port = address.rpartition(":")
    import http.client
    connection = http.client.HTTPConnection(host, int(port), timeout=30.0)
    try:
        default = {"Content-Type": "application/json",
                   "Content-Length": str(len(body))}
        default.update(headers or {})
        connection.putrequest("POST", path)
        for name, value in default.items():
            connection.putheader(name, value)
        connection.endheaders()
        connection.send(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


class TestRejections:
    def test_malformed_json_is_400(self, daemon):
        status, payload = raw_post(daemon.address, "/compile_module",
                                   b"this is not json {")
        assert status == 400
        assert payload["error"]["code"] == "bad-request"

    def test_non_object_json_is_400(self, daemon):
        status, payload = raw_post(daemon.address, "/compile_module",
                                   b"[1, 2, 3]")
        assert status == 400
        assert payload["error"]["code"] == "bad-request"

    def test_oversized_payload_is_413_without_reading_the_body(self):
        daemon = make_daemon(max_payload_bytes=1024)
        try:
            body = b'{"module": "' + b"x" * 4096 + b'"}'
            status, payload = raw_post(daemon.address, "/compile_module", body)
            assert status == 413
            assert payload["error"]["code"] == "too-large"
        finally:
            daemon.shutdown()

    def test_unknown_method_is_404(self, daemon, client):
        status, payload = raw_post(daemon.address, "/frobnicate", b"{}")
        assert status == 404
        assert payload["error"]["code"] == "unknown-method"
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/compile_module")
        assert err.value.code == "unknown-method"

    def test_unknown_session_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.session_update("deadbeef", [])
        assert err.value.code == "unknown-session"
        with pytest.raises(ServiceError) as err:
            client.close_session("deadbeef")
        assert err.value.code == "unknown-session"

    def test_bad_options_are_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.compile_module(WORKLOAD, options={"technique": "magic"})
        assert err.value.code == "bad-request"
        with pytest.raises(ServiceError) as err:
            client.compile_module(WORKLOAD, options={"threshold": "high"})
        assert err.value.code == "bad-request"
        with pytest.raises(ServiceError) as err:
            client.compile_module(WORKLOAD, options={"no_such_option": 1})
        assert err.value.code == "bad-request"

    def test_invalid_edit_script_is_400(self, client):
        sid = client.open_session({"kind": "source", "text": SOURCE})["session"]
        with pytest.raises(ServiceError) as err:
            client.session_update(
                sid, [{"op": "remove", "name": "does_not_exist"}])
        assert err.value.code == "bad-request"
        # the session survives a rejected script
        update = client.session_update(sid, [])
        assert update["merge_count"] == 1


# -- backpressure -------------------------------------------------------------

class TestBackpressure:
    def test_busy_rejection_when_the_queue_is_full(self):
        daemon = make_daemon(queue_limit=1)
        try:
            # occupy the single admission slot deterministically, as an
            # in-flight request would
            assert daemon._admission.acquire(blocking=False)
            try:
                with ServiceClient(daemon.address, timeout=30.0) as client:
                    with pytest.raises(ServiceError) as err:
                        client.compile_module(WORKLOAD)
                    assert err.value.is_busy
                    assert err.value.status == 429
                    # health and stats bypass admission
                    assert client.health()["ok"] is True
                    assert client.stats()["busy_rejections"] == 1
            finally:
                daemon._admission.release()
            with ServiceClient(daemon.address, timeout=30.0) as client:
                assert client.compile_module(WORKLOAD)["merge_count"] >= 1
        finally:
            daemon.shutdown()

    def test_session_limit_is_busy(self):
        daemon = make_daemon(max_sessions=1)
        try:
            with ServiceClient(daemon.address, timeout=30.0) as client:
                sid = client.open_session(
                    {"kind": "source", "text": SOURCE})["session"]
                with pytest.raises(ServiceError) as err:
                    client.open_session({"kind": "source", "text": SOURCE})
                assert err.value.is_busy
                client.close_session(sid)
                assert client.open_session(
                    {"kind": "source", "text": SOURCE})["session"]
        finally:
            daemon.shutdown()


# -- concurrency --------------------------------------------------------------

class TestConcurrentClients:
    def test_hammering_clients_get_bit_identical_decisions(self):
        daemon = make_daemon(queue_limit=16)
        payloads = [
            WORKLOAD,
            {"kind": "workload", "suite": "mibench", "benchmark": "sha"},
            {"kind": "source", "text": SOURCE},
        ]
        expected = [direct_decisions(p) for p in payloads]
        results = {}
        errors = []

        def hammer(worker):
            try:
                with ServiceClient(daemon.address, timeout=120.0) as client:
                    for round_ in range(3):
                        payload = payloads[(worker + round_) % len(payloads)]
                        while True:
                            try:
                                response = client.compile_module(payload)
                                break
                            except ServiceError as error:
                                if not error.is_busy:
                                    raise
                                time.sleep(0.02)  # backpressure: retry
                        results.setdefault(
                            (worker + round_) % len(payloads),
                            []).append(response["decisions"])
            except Exception as error:  # pragma: no cover - failure detail
                errors.append((worker, error))

        try:
            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            daemon.shutdown()
        assert not errors, errors
        for index, decision_lists in results.items():
            for decisions in decision_lists:
                assert decisions == expected[index], f"payload {index}"

    def test_concurrent_sessions_are_independent(self, daemon):
        decisions = {}
        errors = []

        def drive(worker):
            try:
                with ServiceClient(daemon.address, timeout=60.0) as client:
                    sid = client.open_session(
                        {"kind": "source", "text": SOURCE})["session"]
                    update = client.session_update(
                        sid, [{"op": "add", "name": "scale5",
                               "source": EXTRA_FUNCTION}])
                    decisions[worker] = update["decisions"]
                    client.close_session(sid)
            except Exception as error:  # pragma: no cover
                errors.append((worker, error))

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert len(set(map(json.dumps, decisions.values()))) == 1


# -- session TTL eviction -----------------------------------------------------

class TestEviction:
    def test_idle_sessions_are_evicted(self):
        daemon = make_daemon(session_ttl=0.2, tick_seconds=0.05)
        try:
            with ServiceClient(daemon.address, timeout=30.0) as client:
                sid = client.open_session(
                    {"kind": "source", "text": SOURCE})["session"]
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if client.stats()["sessions_evicted"] >= 1:
                        break
                    time.sleep(0.05)
                stats = client.stats()
                assert stats["sessions_evicted"] == 1
                assert stats["sessions_open"] == 0
                with pytest.raises(ServiceError) as err:
                    client.session_update(sid, [])
                assert err.value.code == "unknown-session"
        finally:
            daemon.shutdown()

    def test_active_sessions_survive(self):
        daemon = make_daemon(session_ttl=0.6, tick_seconds=0.05)
        try:
            with ServiceClient(daemon.address, timeout=30.0) as client:
                sid = client.open_session(
                    {"kind": "source", "text": SOURCE})["session"]
                for _ in range(4):  # keep touching it past one TTL window
                    time.sleep(0.2)
                    client.session_update(sid, [])
                assert client.stats()["sessions_evicted"] == 0
        finally:
            daemon.shutdown()


# -- failure recovery ---------------------------------------------------------

class TestClientDisconnect:
    def test_disconnect_mid_request_is_survived_and_counted(self, daemon):
        host, _, port = daemon.address.rpartition(":")
        # declare a large body, send half of it, vanish
        raw = socket.create_connection((host, int(port)), timeout=10)
        raw.sendall(b"POST /compile_module HTTP/1.1\r\n"
                    b"Host: x\r\nContent-Length: 5000\r\n\r\n")
        raw.sendall(b'{"module": ')
        raw.close()
        with ServiceClient(daemon.address, timeout=30.0) as client:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if client.stats()["client_disconnects"] >= 1:
                    break
                time.sleep(0.05)
            assert client.stats()["client_disconnects"] >= 1
            # the daemon still serves normal requests
            assert client.compile_module(WORKLOAD)["merge_count"] >= 1


class TestSanitizerMode:
    def test_sanitize_stats_counters(self):
        daemon = make_daemon(sanitize=True, result_cache_size=0)
        try:
            with ServiceClient(daemon.address, timeout=60.0) as client:
                result = client.compile_module(WORKLOAD)
                # 0 means the sanitizer ran and found nothing; None (the
                # plain-daemon value) means it never ran at all
                assert result["sanitize_violations"] == 0

                opened = client.open_session(
                    {"kind": "source", "text": SOURCE})
                sid = opened["session"]
                client.session_update(sid, [])
                client.close_session(sid)

                stats = client.stats()
                assert stats["sanitize_enabled"] is True
                assert stats["sanitize_runs"] > 0
                assert stats["sanitize_violations"] == 0
                assert stats["sanitize_wall_seconds"] >= 0.0
        finally:
            daemon.shutdown()

    def test_sanitize_decisions_match_plain_daemon(self):
        plain = make_daemon()
        checked = make_daemon(sanitize=True)
        try:
            with ServiceClient(plain.address, timeout=60.0) as a, \
                    ServiceClient(checked.address, timeout=60.0) as b:
                assert (a.compile_module(WORKLOAD)["decisions"]
                        == b.compile_module(WORKLOAD)["decisions"])
        finally:
            plain.shutdown()
            checked.shutdown()

    def test_sanitize_off_by_default(self, client):
        stats = client.stats()
        assert stats["sanitize_enabled"] is False
        assert "sanitize_runs" not in stats
