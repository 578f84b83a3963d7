"""Server process control and the closed-loop HTTP client.

The server under test is ``python3 -m repro serve --snapshot ... --workers
1`` in a child process; it receives only the snapshot path and, per
request, the question text.  Requests go over ``http.client`` from
threads of this one process, each a closed loop: a client sends its next
request only after the previous one completed.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Budget for one request; a slower answer counts as failed.
REQUEST_TIMEOUT_S = 30.0
#: Budget for the server to print its address and answer ``/healthz``.
STARTUP_TIMEOUT_S = 90.0


class ServerError(Exception):
    """The server under test could not be started or queried."""


@dataclass(slots=True)
class Sample:
    """One attempted request, as the client saw it."""

    kind: str                  # "read" or "write"
    latency_ms: float
    ok: bool
    status: int                # HTTP status, 0 on a transport error
    connect_ms: float | None = None
    body: dict | None = None
    item: object = None        # the workload item that produced it
    after_write: bool = False  # first read of its client after a write


@dataclass(slots=True)
class Server:
    """A running ``repro serve`` child and its address."""

    proc: subprocess.Popen
    host: str
    port: int
    setup_s: float

    def get(self, path: str, timeout: float = REQUEST_TIMEOUT_S) -> tuple[dict, int]:
        """``GET path`` → (JSON body, body bytes) on a fresh connection."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            raw = response.read()
            if response.status != 200:
                raise ServerError(f"GET {path} -> {response.status}")
            return json.loads(raw), len(raw)
        finally:
            conn.close()

    def vm_hwm_mb(self) -> float:
        """Peak resident set (``VmHWM``) of the server process, in MB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM, then SIGKILL after 10 s; always waits for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def start_server(
    root: Path, snapshot: Path, ingest_token: str | None = None
) -> Server:
    """Spawn ``repro serve`` and wait until ``/healthz`` answers ready.

    ``setup_s`` runs from the spawn to the first ready ``/healthz``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("REPRO_INGEST_TOKEN", None)
    command = [
        sys.executable, "-m", "repro", "serve",
        "--snapshot", str(snapshot), "--workers", "1",
        "--host", "127.0.0.1", "--port", "0",
    ]
    if ingest_token is not None:
        command += ["--ingest-token", ingest_token]
    started = time.monotonic()
    proc = subprocess.Popen(
        command, cwd=root, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )
    server = None
    try:
        line = _read_line(proc, started + STARTUP_TIMEOUT_S)
        marker = "listening on http://"
        if marker not in line:
            raise ServerError(f"unexpected server banner: {line!r}")
        address = line.split(marker, 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        server = Server(proc, host, int(port), 0.0)
        while True:
            try:
                body, _size = server.get("/healthz", timeout=5.0)
                if body.get("ready"):
                    break
            except (OSError, ServerError):
                pass
            if time.monotonic() > started + STARTUP_TIMEOUT_S:
                raise ServerError("server never became ready")
            time.sleep(0.002)
        server.setup_s = time.monotonic() - started
        return server
    except BaseException:
        if server is None:
            server = Server(proc, "", 0, 0.0)
        server.stop()
        raise


def _read_line(proc: subprocess.Popen, deadline: float) -> str:
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise ServerError("server printed no address in time")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if ready:
            line = proc.stdout.readline()
            if not line:
                raise ServerError(f"server exited with {proc.wait()}")
            return line


class Client:
    """One closed-loop HTTP client (one thread, one connection at a time).

    ``keep_alive`` reuses one persistent connection; otherwise every
    request opens and closes its own, and ``connect_ms`` is recorded.
    """

    def __init__(self, server: Server, keep_alive: bool, token: str | None = None):
        self.server = server
        self.keep_alive = keep_alive
        self.token = token
        self._conn: http.client.HTTPConnection | None = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def ask(self, question: str, no_cache: bool, item: object = None) -> Sample:
        payload = {"question": question}
        if no_cache:
            payload["no_cache"] = True
        return self._post("read", "/ask", payload, item)

    def ingest(self, add: list, remove: list, item: object = None) -> Sample:
        payload = {"add": add}
        if remove:
            payload["remove"] = remove
        return self._post("write", "/ingest", payload, item)

    def _post(self, kind: str, path: str, payload: dict, item: object) -> Sample:
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if kind == "write":
            headers["X-Ingest-Token"] = self.token or ""
        started = time.monotonic()
        connect_ms = None
        status = 0
        parsed = None
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.server.host, self.server.port, timeout=REQUEST_TIMEOUT_S
                )
                self._conn.connect()
                connect_ms = (time.monotonic() - started) * 1000.0
            self._conn.request("POST", path, body, headers)
            response = self._conn.getresponse()
            raw = response.read()
            status = response.status
            if status == 200:
                parsed = json.loads(raw)
            if not self.keep_alive or response.will_close:
                self.close()
        except (OSError, http.client.HTTPException, ValueError):
            # Refused, reset, timed out or garbled: a failed request.
            self.close()
        latency_ms = (time.monotonic() - started) * 1000.0
        return Sample(
            kind, latency_ms, status == 200 and parsed is not None,
            status, connect_ms, parsed, item,
        )


@dataclass(slots=True)
class LoopResult:
    samples: list[Sample] = field(default_factory=list)
    elapsed_s: float = 0.0
    cpu_s: float = 0.0
    lag_ms: list[float] = field(default_factory=list)


def closed_loop(clients: list[Client], streams: list, seconds: float, step) -> LoopResult:
    """Drive each client through its stream until ``seconds`` have passed.

    ``step(client, item, state)`` sends one request and returns its
    :class:`Sample`; ``state`` is a per-client dict the step may use.
    Every attempted request is kept.  A ticker thread records how late
    it wakes (the client process's own scheduling lag).  An exception in
    a client thread is raised here once all threads have stopped.
    """
    result = LoopResult()
    per_client: list[list[Sample]] = [[] for _ in clients]
    errors: list[BaseException] = []
    stop = threading.Event()
    deadline = time.monotonic() + seconds

    def drive(index: int) -> None:
        client, stream, out = clients[index], iter(streams[index]), per_client[index]
        state: dict = {}
        try:
            while time.monotonic() < deadline:
                out.append(step(client, next(stream), state))
        except BaseException as error:
            errors.append(error)
        finally:
            client.close()

    def tick() -> None:
        period = 0.05
        due = time.monotonic() + period
        while not stop.is_set():
            time.sleep(max(0.0, due - time.monotonic()))
            result.lag_ms.append((time.monotonic() - due) * 1000.0)
            due += period

    threads = [threading.Thread(target=drive, args=(i,), daemon=True)
               for i in range(len(clients))]
    ticker = threading.Thread(target=tick, daemon=True)
    cpu0, wall0 = time.process_time(), time.monotonic()
    ticker.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.elapsed_s = time.monotonic() - wall0
    result.cpu_s = time.process_time() - cpu0
    stop.set()
    ticker.join(timeout=1.0)
    if errors:
        raise errors[0]
    for samples in per_client:
        result.samples.extend(samples)
    return result
