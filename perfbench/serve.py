"""``serve``: a closed loop of ``/match`` requests against ``repro serve``.

The service runs in its own process (``python -m repro.cli serve``) with
its drain snapshot going to a stats file in a temporary directory inside
the checkout.  This process drives it over :data:`CONNECTIONS`
keep-alive connections, each sending its next request only after the
previous verdict arrived (callers wait for each verdict).  Texts are
about 200 bytes and the patterns are warmed with ``/compile`` before the
first request, so per-call cost — HTTP parsing, admission, the executor
hop, the cache lookup — does most of the work.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import List, Tuple

import harness
import inputs

#: Keep-alive connections, one closed loop each; at most ``nproc``.
CONNECTIONS = min(2, os.cpu_count() or 1)
START_TIMEOUT = 60.0


class Connection:
    """A minimal HTTP/1.1 keep-alive client (one request at a time)."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.sock.sendall(head.encode("latin-1") + body)
        status = int(self.reader.readline().split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, self.reader.read(length)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Service:
    """One ``repro serve`` child process."""

    def __init__(self, workdir: Path):
        # A directory per service, so each drain must write its own file.
        own = Path(tempfile.mkdtemp(dir=workdir))
        self.stats_file = own / "stats.json"
        self._log = open(own / "serve.log", "ab")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0",
                "--stats-file", str(self.stats_file),
                "--drain-seconds", "5",
            ],
            cwd=str(harness.ROOT),
            env=harness.child_env(),
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.port = self._wait_listening()

    def _wait_listening(self) -> int:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(START_TIMEOUT):
                self.stop()
                raise harness.BenchmarkError("service did not start in time")
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            self.stop()
            raise harness.BenchmarkError(f"service failed to start: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """The service process's peak resident set (VmHWM)."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise harness.BenchmarkError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait for the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return code


def _post(connection: Connection, path: str, payload: dict) -> Tuple[int, dict]:
    status, body = connection.request("POST", path, json.dumps(payload).encode())
    return status, json.loads(body)


def start_warm(workdir: Path, patterns: List[str]) -> Tuple[Service, float]:
    """Start a service and warm every pattern; returns it and the seconds
    until it could answer its first ``/match`` from the cache, scaled to
    the reference host speed."""
    before = harness.calibration_seconds()
    started = time.perf_counter()
    service = Service(workdir)
    try:
        connection = Connection(service.port)
        try:
            for pattern in patterns:
                status, _ = _post(connection, "/compile", {"pattern": pattern})
                if status != 200:
                    raise harness.BenchmarkError(f"/compile answered {status}")
        finally:
            connection.close()
    except BaseException:
        service.stop()
        raise
    elapsed = time.perf_counter() - started
    factor = harness.speed_factor([before, harness.calibration_seconds()])
    return service, elapsed * factor


def _service_counters(port: int) -> dict:
    connection = Connection(port)
    try:
        _, body = connection.request("GET", "/metrics")
    finally:
        connection.close()
    totals: dict = {}
    for line in body.decode().splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            key = name.split("{", 1)[0]
            totals[key] = totals.get(key, 0.0) + float(value)
    return totals


def _layer_probes(run: harness.Run, data: inputs.Serve, latency_us: float) -> None:
    """``read_request``/``render_response`` on in-memory bytes and a
    direct warm ``Engine.match`` on the same requests."""
    from repro.engine import Engine
    from repro.service.http import read_request, render_response

    raw = []
    for pattern, text in data.requests:
        body = json.dumps({"pattern": pattern, "text": text}).encode()
        raw.append(
            f"POST /match HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n\r\n".encode()
            + body
        )

    async def parse_all() -> List[float]:
        seconds = []
        for request in raw:
            reader = asyncio.StreamReader()
            reader.feed_data(request)
            reader.feed_eof()
            started = time.perf_counter()
            parsed = await read_request(reader)
            json.loads(await parsed.body())
            seconds.append(time.perf_counter() - started)
        return seconds

    parse = asyncio.run(parse_all())
    render = []
    for _ in data.requests:
        started = time.perf_counter()
        render_response(200, b'{"matched": true}')
        render.append(time.perf_counter() - started)
    engine = Engine()
    for pattern in data.patterns:
        engine.matcher(pattern)
    match = []
    for pattern, text in data.requests:
        started = time.perf_counter()
        engine.match(pattern, text)
        match.append(time.perf_counter() - started)
    layers = {
        "http.parse_us": harness.median(parse) * 1e6,
        "http.render_us": harness.median(render) * 1e6,
        "engine.match_us": harness.median(match) * 1e6,
    }
    run.layer.update(layers)
    run.layer["service.overhead_us"] = latency_us - sum(layers.values())


def run(seed: int, seconds: float, traced: bool) -> dict:
    data = inputs.serve(seed)
    harness.assert_no_newlines(text.encode("latin-1") for _, text in data.requests)
    oracle = harness.Oracle(data.patterns)
    expected = [oracle.matches(p, t.encode("latin-1")) for p, t in data.requests]
    bodies = [
        json.dumps({"pattern": p, "text": t}).encode() for p, t in data.requests
    ]
    compiled = inputs.compile_sample(data.patterns)
    result = harness.Run(traced=traced, ledger=harness.Ledger(traced))
    begun = time.perf_counter()
    harness.simulate_sample(result, inputs.sim_runs(compiled, data.chunks))
    remaining = seconds * (0.8 if traced else 1.0) - (time.perf_counter() - begun)
    with tempfile.TemporaryDirectory(dir=harness.WORK_DIR) as tmp:
        workdir = Path(tmp)
        setups = []
        for _ in range(harness.SETUP_REPEATS - 1):
            service, elapsed = start_warm(workdir, data.patterns)
            setups.append(elapsed)
            service.stop()
        service, elapsed = start_warm(workdir, data.patterns)
        setups.append(elapsed)
        try:
            shed, latency = _drive(
                service, data, compiled, bodies, expected, remaining, traced, result
            )
            rss_mb = service.peak_rss_mb()
            counters = _service_counters(service.port)
        finally:
            code = service.stop()
        result.check(code == 0, f"service exited {code} after drain")
        result.check(service.stats_file.is_file(), "drain wrote no stats snapshot")
    if traced:
        hits = counters.get("repro_cache_hits_total", 0.0)
        result.layer["engine.cache_hit_ratio"] = harness.ratio(
            hits, hits + counters.get("repro_cache_misses_total", 0.0)
        )
        result.layer["service.shed"] = float(shed)
        _layer_probes(result, data, latency * 1e6)
    return harness.result_json(result, harness.median(setups), rss_mb)


def _drive(service, data, compiled, bodies, expected, seconds, traced, result):
    """Rounds of: the compile phase, then every request once over the
    closed-loop connections.  Returns (429 count, traced p50 latency)."""
    connections = [Connection(service.port) for _ in range(CONNECTIONS)]
    shed = 0
    traced_latency: List[float] = []

    def loop(index: int, latencies: List[float], statuses: List[tuple]) -> None:
        connection = connections[index]
        for position in range(index, len(bodies), CONNECTIONS):
            started = time.perf_counter()
            status, body = connection.request("POST", "/match", bodies[position])
            latencies.append(time.perf_counter() - started)
            statuses.append((position, status, body))

    def one_round(tracing: bool) -> None:
        nonlocal shed
        harness.compile_phase(result, compiled, tracing)
        ledger = result.ledger if tracing else harness.Ledger(False)
        latencies: List[List[float]] = [[] for _ in connections]
        statuses: List[List[tuple]] = [[] for _ in connections]
        threads = [
            threading.Thread(target=loop, args=(i, latencies[i], statuses[i]))
            for i in range(len(connections))
        ]
        # The client threads share this process; calibrate around the
        # burst, not during it.
        before = harness.calibration_seconds()
        with ledger.span("service.requests"):
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            wall = time.perf_counter() - started
        factor = harness.speed_factor([before, harness.calibration_seconds()])
        result.match_wall += wall * factor
        for thread in threads:
            if thread.is_alive():
                raise harness.BenchmarkError("a client connection hung")
        answered = sum(len(per_connection) for per_connection in statuses)
        result.check(answered == len(bodies), f"{len(bodies) - answered} requests unanswered")
        for per_connection in latencies:
            result.match_seconds.extend(seconds * factor for seconds in per_connection)
            if tracing:
                traced_latency.extend(per_connection)
        for per_connection in statuses:
            for position, status, body in per_connection:
                result.attempted += 1
                result.match_bytes += len(data.requests[position][1])
                shed += status == 429
                result.check(status == 200, f"/match answered {status}")
                if status == 200:
                    result.check(
                        json.loads(body)["matched"] == expected[position],
                        f"/match verdict for request {position}",
                    )

    try:
        harness.run_rounds(seconds, traced, one_round, result)
    finally:
        for connection in connections:
            connection.close()
    return shed, harness.median(traced_latency)
