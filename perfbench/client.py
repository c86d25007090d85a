"""A single-threaded closed-loop HTTP/1.1 client over two keep-alive connections.

The *governor* connection walks a cycle of table lookups and ``/metrics``
scrapes; the *analyst* connection walks a fixed plan of FVM queries.  Each
connection has at most one request in flight (closed loop), and both are
driven from one ``selectors`` loop, so the server sees the two clients
concurrently while the client itself stays cheap and deterministic in what
it sends.

:func:`run_round_in_fresh_process` runs each round's client in its own
interpreter (this file as a script), so no single client process's speed
sets every round of a run.
"""

from __future__ import annotations

import json
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import BenchError


class Connection:
    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.target = ""
        self.sent_at = 0.0
        self._buffer = b""

    def send(self, target: str) -> None:
        self.target = target
        self._buffer = b""
        self.sent_at = time.perf_counter()
        self.sock.sendall(
            f"GET {target} HTTP/1.1\r\nHost: perfbench\r\nConnection: keep-alive\r\n\r\n".encode()
        )

    def receive(self) -> Optional[Tuple[int, bytes, float]]:
        """Read what is available; return (status, body, seconds) once complete."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise BenchError(f"server closed the connection during {self.target}")
        self._buffer += chunk
        head_end = self._buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = self._buffer[:head_end].decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = self._buffer[head_end + 4:]
        if len(body) < length:
            return None
        elapsed = time.perf_counter() - self.sent_at
        return int(head[0].split()[1]), body[:length], elapsed

    def close(self) -> None:
        self.sock.close()


@dataclass
class TrafficRound:
    """What one round of two-connection traffic observed."""

    lookup_latencies_s: List[float] = field(default_factory=list)
    #: when each lookup completed, in seconds since the round started
    lookup_done_s: List[float] = field(default_factory=list)
    scrape_latencies_s: List[float] = field(default_factory=list)
    #: analyst responses in plan order: (target, status, body, seconds)
    analyst: List[Tuple[str, int, bytes, float]] = field(default_factory=list)
    #: when each analyst response completed, in seconds since the round started
    analyst_done_s: List[float] = field(default_factory=list)
    #: first body seen per lookup target, and whether every repeat matched it
    lookup_bodies: Dict[str, bytes] = field(default_factory=dict)
    lookup_mismatches: int = 0
    n_requests: int = 0
    n_failed: int = 0
    final_stats: bytes = b""


def run_round(host: str, port: int, cycle: List[str], analyst_plan: List[str],
              timeout_s: float = 120.0) -> TrafficRound:
    """Drive both connections until the governor has walked its whole cycle
    and the analyst plan is done.

    The governor starts the cycle with the analyst and wraps round it while
    the analyst is still busy.  A final ``/stats`` document is read on the
    governor connection.
    """
    observed = TrafficRound()
    governor, analyst = Connection(host, port), Connection(host, port)
    selector = selectors.DefaultSelector()
    try:
        selector.register(governor.sock, selectors.EVENT_READ, governor)
        selector.register(analyst.sock, selectors.EVENT_READ, analyst)
        started = time.perf_counter()
        deadline = started + timeout_s
        governor.send(cycle[0])
        analyst.send(analyst_plan[0])
        observed.n_requests += 2
        position = step = 0
        governor_busy = True
        while step < len(analyst_plan) or governor_busy:
            events = selector.select(timeout=max(0.0, deadline - time.perf_counter()))
            if not events:
                raise BenchError("traffic round timed out")
            for key, _mask in events:
                connection = key.data
                answer = connection.receive()
                if answer is None:
                    continue
                status, body, seconds = answer
                done_s = time.perf_counter() - started
                if status != 200:
                    observed.n_failed += 1
                if connection is analyst:
                    observed.analyst.append((analyst.target, status, body, seconds))
                    observed.analyst_done_s.append(done_s)
                    step += 1
                    if step < len(analyst_plan):
                        analyst.send(analyst_plan[step])
                        observed.n_requests += 1
                    continue
                governor_busy = False
                if governor.target == "/metrics":
                    observed.scrape_latencies_s.append(seconds)
                else:
                    observed.lookup_latencies_s.append(seconds)
                    observed.lookup_done_s.append(done_s)
                    _remember(observed, governor.target, body)
                position += 1
                if step < len(analyst_plan) or position < len(cycle):
                    governor.send(cycle[position % len(cycle)])
                    observed.n_requests += 1
                    governor_busy = True
        governor.send("/stats")
        observed.n_requests += 1
        status, observed.final_stats, _ = _drain(governor)
        if status != 200:
            observed.n_failed += 1
    finally:
        selector.close()
        governor.close()
        analyst.close()
    return observed


def _remember(observed: TrafficRound, target: str, body: bytes) -> None:
    first = observed.lookup_bodies.setdefault(target, body)
    if first != body:
        observed.lookup_mismatches += 1


def _drain(connection: Connection) -> Tuple[int, bytes, float]:
    while True:
        answer = connection.receive()
        if answer is not None:
            return answer


def run_round_in_fresh_process(host: str, port: int, cycle: List[str], analyst_plan: List[str],
                               work: Path) -> TrafficRound:
    """:func:`run_round` in a new interpreter; the answers come back as JSON."""
    request, result = work / "client-request.json", work / "client-result.json"
    request.write_text(json.dumps({"host": host, "port": port, "cycle": cycle,
                                   "analyst_plan": analyst_plan}))
    done = subprocess.run([sys.executable, __file__, str(request), str(result)],
                          capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise BenchError(f"client exited {done.returncode}: {done.stderr.strip()[-300:]}")
    document = json.loads(result.read_text())
    document["analyst"] = [(t, status, body.encode(), s) for t, status, body, s in document["analyst"]]
    document["lookup_bodies"] = {k: v.encode() for k, v in document["lookup_bodies"].items()}
    document["final_stats"] = document["final_stats"].encode()
    return TrafficRound(**document)


def _to_json(observed: TrafficRound) -> Dict[str, Any]:
    document = asdict(observed)
    document["analyst"] = [(t, status, body.decode(), s) for t, status, body, s in observed.analyst]
    document["lookup_bodies"] = {k: v.decode() for k, v in observed.lookup_bodies.items()}
    document["final_stats"] = observed.final_stats.decode()
    return document


if __name__ == "__main__":
    order = json.loads(Path(sys.argv[1]).read_text())
    traffic = run_round(order["host"], order["port"], order["cycle"], order["analyst_plan"])
    Path(sys.argv[2]).write_text(json.dumps(_to_json(traffic)))
