"""Shared plumbing: the checkout, program commands, timing and results.

Every end-to-end number comes from a ``repro-undervolt`` command started
as a fresh process (``python3 -m repro.cli`` with the checkout's ``src/``
on ``PYTHONPATH``), timed from process start to exit by the caller.
"""

from __future__ import annotations

import json
import os
import resource
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark measures (the directory above this one).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores and traces; removed at the end of every run.
WORK_ROOT = ROOT / ".perfbench_work"

#: Wall-clock cap on any one program command.
COMMAND_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot run: missing program, failed command, bad output."""


def require_program() -> None:
    """Refuse to run outside a checkout that holds the program's source."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC / 'repro'}; run from a checkout")


def import_program() -> None:
    """Make ``import repro`` resolve to the checkout's source tree."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_argv(args: Sequence[str]) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def run_cli(args: Sequence[str]) -> Tuple[float, str]:
    """Run one ``repro-undervolt`` command; return (wall seconds, stdout)."""
    started = time.perf_counter()
    try:
        done = subprocess.run(
            cli_argv(args),
            env=program_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=COMMAND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"command timed out: repro-undervolt {' '.join(args)}") from None
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-5:]
        raise BenchError(
            f"repro-undervolt {' '.join(args)} exited {done.returncode}: " + " | ".join(tail)
        )
    return elapsed, done.stdout


def run_cli_json(args: Sequence[str]) -> Tuple[float, Dict[str, Any]]:
    elapsed, stdout = run_cli([*args, "--json"])
    try:
        return elapsed, json.loads(stdout)
    except json.JSONDecodeError:
        raise BenchError(f"repro-undervolt {' '.join(args)} printed no JSON document") from None


class ServeProcess:
    """A ``repro-undervolt serve`` process, started and timed to its ready line."""

    def __init__(self, args: Sequence[str], log_path: Path) -> None:
        self._log = open(log_path, "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            cli_argv(["serve", *args]),
            env=program_env(),
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            line = self._ready_line(deadline=started + 60.0)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started
        # "serving N dies on http://HOST:PORT (...)"
        address = line.split("http://", 1)[1].split()[0].rstrip("/")
        host, port = address.rsplit(":", 1)
        self.host, self.port = host, int(port)

    def _ready_line(self, deadline: float) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(timeout=max(0.0, deadline - time.perf_counter())):
                raise BenchError("serve printed no ready line within 60 s")
        line = self.process.stdout.readline().decode()
        if not line.startswith("serving "):
            raise BenchError(f"serve did not start: {line.strip() or 'no output'}")
        return line

    def stop(self) -> int:
        """SIGTERM, then wait; returns the exit status."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            status = self.process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            status = self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()
        return status


class Workdir:
    """A per-run scratch directory under the checkout, removed on exit."""

    def __init__(self, label: str) -> None:
        self.path = WORK_ROOT / f"{label}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *_exc: Any) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still holds its own directory


def children_peak_rss_mb() -> float:
    """Largest peak resident set of any waited-for child process (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("no samples to take a median of")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    if not values:
        raise BenchError("no samples to take a percentile of")
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return float(ordered[min(rank, len(ordered)) - 1])


class Outcome:
    """Operation counts and check failures of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def report(self, problems: List[str]) -> None:
        """Record the problems a function of ``checks.py`` returned."""
        self.problems.extend(problems)

    @property
    def correct(self) -> bool:
        return not self.problems


def result_line(outcome: Outcome, metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": int(outcome.attempted),
            "failed": int(outcome.failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def note(message: str, detail: Optional[Dict[str, Any]] = None) -> None:
    """A progress or detail line on stdout (never the last line)."""
    if detail is None:
        print(message, flush=True)
    else:
        print(f"{message} {json.dumps(detail, sort_keys=True)}", flush=True)
