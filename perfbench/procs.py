"""Child processes of one run: the program's CLI and the server under test."""

from __future__ import annotations

import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hostinfo
from client import wait_ready

HERE = Path(__file__).resolve().parent
_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


class SetupError(RuntimeError):
    """A child process failed before the measured phase."""


@dataclass
class ServerProcess:
    """A running server child: its pid, port and the run's own state."""

    proc: subprocess.Popen
    port: int
    trace: Optional[Path]
    state: Dict[str, object] = field(default_factory=dict)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Context:
    """Where one run works and how it starts the program.

    *root* is the checkout: the program is imported from ``root/src``
    and scratch files live under ``root/.perfbench_work`` (removed when
    the run ends).
    """

    def __init__(self, root: Path, seed: int, trace: bool, ops: int) -> None:
        self.root = root
        self.seed = seed
        self.trace = trace
        self.ops = ops
        self.setup_index = 0
        base = root / ".perfbench_work"
        base.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONUNBUFFERED"] = "1"
        self.env["PYTHONHASHSEED"] = "0"
        self.servers: List[ServerProcess] = []

    def close(self) -> None:
        for server in self.servers:
            server.stop()
        shutil.rmtree(self.work, ignore_errors=True)

    def _trace_file(self, what: str) -> Optional[Path]:
        if not self.trace:
            return None
        return self.work / f"trace-{what}-{self.setup_index}.json"

    def _command(self, mode: str, args: List[str], launcher_args: List[str]) -> Tuple[List[str], Optional[Path]]:
        """``repro <mode> <args>`` directly, or through the launcher when
        traced (``ingest`` always goes through the launcher)."""
        trace = self._trace_file(mode)
        if trace is None and mode != "ingest":
            return [sys.executable, "-m", "repro.cli", mode, *args], None
        command = [sys.executable, str(HERE / "server.py"), mode, *launcher_args]
        if trace is not None:
            command += ["--trace", str(trace)]
        return command + ["--", *args], trace

    def run_program(self, mode: str, args: List[str]) -> None:
        """Run a one-shot program command (``repro build``)."""
        command, _ = self._command(mode, args, [])
        done = subprocess.run(
            command, cwd=self.root, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=300,
        )
        if done.returncode != 0:
            raise SetupError(f"{mode} failed ({done.returncode}): {done.stdout[-2000:]!r}")

    def start_server(
        self, mode: str, args: List[str], launcher_args: Optional[List[str]] = None
    ) -> ServerProcess:
        """Start a server child, pin it, and wait until it answers."""
        command, trace = self._command(mode, args, launcher_args or [])
        with open(self.work / f"{mode}-{self.setup_index}.log", "wb") as log:
            proc = subprocess.Popen(
                command, cwd=self.root, env=self.env,
                stdout=subprocess.PIPE, stderr=log,
            )
        server = ServerProcess(proc, 0, trace)
        self.servers.append(server)
        hostinfo.pin(proc.pid, 1)
        server.port = self._await_port(proc)
        if wait_ready(server.port) is None:
            raise SetupError(f"{mode} server never answered /healthz")
        return server

    def _await_port(self, proc: subprocess.Popen) -> int:
        assert proc.stdout is not None
        pending = b""
        while True:
            ready, _, _ = select.select([proc.stdout], [], [], 120)
            if not ready:
                raise SetupError("server did not report its port within 120 s")
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                raise SetupError(f"server exited before listening (code {proc.wait()})")
            pending += chunk
            found = _LISTENING.search(pending.decode("utf-8", "replace"))
            if found:
                return int(found.group(1))
