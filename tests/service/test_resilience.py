"""Daemon resilience: slow/malicious clients are bounded by the per-request
timeout, mid-response disconnects are absorbed and counted, repeated
internal failures trip the circuit breaker (503 + Retry-After, then a
half-open probe heals it) while the daemon keeps serving bit-identical
answers."""

import socket
import time

import pytest

from repro.resilience import FaultPlan, install_fault_plan
from repro.service import ServiceClient, ServiceError
from tests.service.test_daemon import WORKLOAD, make_daemon


@pytest.fixture(autouse=True)
def clean_fault_plan():
    install_fault_plan(None)
    yield
    install_fault_plan(None)


def tcp_endpoint(daemon):
    host, _, port = daemon.address.rpartition(":")
    return host, int(port)


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


class TestSlowClients:
    def test_header_then_stall_hits_the_request_timeout(self):
        daemon = make_daemon(request_timeout=0.5)
        try:
            # a real stalling client: full headers promising a body that
            # never arrives; the handler thread must not be parked forever
            raw = socket.create_connection(tcp_endpoint(daemon), timeout=10)
            raw.sendall(b"POST /compile_module HTTP/1.1\r\n"
                        b"Host: x\r\nContent-Length: 5000\r\n\r\n")
            with ServiceClient(daemon.address, timeout=30.0) as client:
                assert wait_for(
                    lambda: client.stats()["request_timeouts"] >= 1)
                # the stalled socket cost one handler thread for 0.5s,
                # nothing more: the daemon still serves and reports healthy
                assert client.compile_module(WORKLOAD)["merge_count"] >= 1
                assert client.health()["ok"] is True
            raw.close()
        finally:
            daemon.shutdown()

    def test_injected_slow_client_is_counted_and_retried_through(self):
        daemon = make_daemon()
        try:
            install_fault_plan(
                FaultPlan.parse("seed=1,service.slow_client:nth=1:count=1"))
            with ServiceClient(daemon.address, timeout=30.0) as client:
                # first delivery dies as a simulated body-read stall; the
                # client's single transport retry lands on a clean handler
                assert client.compile_module(WORKLOAD)["merge_count"] >= 1
                assert client.stats()["request_timeouts"] >= 1
        finally:
            daemon.shutdown()

    def test_mid_response_disconnect_is_absorbed(self):
        daemon = make_daemon()
        try:
            install_fault_plan(
                FaultPlan.parse("seed=1,service.socket_drop:nth=1:count=1"))
            with ServiceClient(daemon.address, timeout=30.0) as client:
                # the daemon computes the answer, then the wire breaks while
                # sending it; the client transparently retries once
                assert client.compile_module(WORKLOAD)["merge_count"] >= 1
                assert client.stats()["client_disconnects"] >= 1
                # and the daemon is entirely unbothered
                assert client.health()["ok"] is True
        finally:
            daemon.shutdown()


class TestCircuitBreaker:
    def test_breaker_opens_sheds_and_heals(self):
        daemon = make_daemon(breaker_threshold=2, breaker_reset_seconds=0.3)
        try:
            install_fault_plan(FaultPlan.parse("seed=1,scheduler.plan_fail"))
            with ServiceClient(daemon.address, timeout=30.0) as client:
                # distinct seeds: each request must reach the engine (and
                # fail there), not the result cache
                for n in (1, 2):
                    with pytest.raises(ServiceError) as excinfo:
                        client.compile_module(dict(WORKLOAD, seed=n))
                    assert excinfo.value.code == "internal"
                # threshold reached: the breaker now sheds load up front
                with pytest.raises(ServiceError) as excinfo:
                    client.compile_module(dict(WORKLOAD, seed=3))
                assert excinfo.value.code == "unavailable"
                assert excinfo.value.status == 503
                health = client.health()  # health bypasses the breaker
                assert health["breaker"] == "open"
                assert health["degraded"] is True
                assert client.stats()["breaker_rejections"] >= 1
                # the fault clears; after the reset window the half-open
                # probe succeeds and the breaker closes again
                install_fault_plan(None)
                time.sleep(0.35)
                assert client.compile_module(
                    dict(WORKLOAD, seed=4))["merge_count"] >= 1
                health = client.health()
                assert health["breaker"] == "closed"
                assert health["degraded"] is False
        finally:
            daemon.shutdown()
