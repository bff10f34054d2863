"""Child processes: the ``repro`` CLI, the server, and what /proc says about them."""

from __future__ import annotations

import http.client
import os
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Seconds any single CLI step may take before the run is abandoned.
STEP_TIMEOUT = 120.0


def cli_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class StepFailed(RuntimeError):
    """A CLI step or the server failed; the run cannot be scored."""


def run_cli(argv: List[str]) -> float:
    """Run ``python -m repro ARGV`` to completion; return its wall seconds."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv], env=cli_env(), cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=STEP_TIMEOUT,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise StepFailed(f"repro {' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return elapsed


def import_seconds() -> float:
    """``import repro.cli`` as one CLI process pays it, timed inside the child."""
    code = "import time; t = time.perf_counter(); import repro.cli; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=cli_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=STEP_TIMEOUT, check=True,
    )
    return float(out.stdout.strip())


def host_steal_s() -> float:
    """CPU seconds the hypervisor has taken from this VM so far (all CPUs)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    steal = int(fields[8]) if len(fields) > 8 else 0
    return steal / os.sysconf("SC_CLK_TCK")


class ServerProcess:
    """``repro [--trace FILE] serve --dir LAKE --port 0`` with default settings."""

    def __init__(self, lake_dir: str, log_path: str, trace_file: Optional[str] = None):
        argv = [sys.executable, "-m", "repro"]
        if trace_file:
            argv += ["--trace", trace_file]
        argv += ["serve", "--dir", lake_dir, "--port", "0"]
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(argv, env=cli_env(), cwd=ROOT,
                                     stdout=subprocess.PIPE, stderr=self._log)
        self.port = 0
        try:
            self.port = self._read_port()
            self._await_healthy()
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _read_port(self) -> int:
        """Parse the port from the startup banner ``serving ... on http://HOST:PORT``."""
        deadline = time.monotonic() + STEP_TIMEOUT
        fd = self.proc.stdout.fileno()
        line = b""
        while b"\n" not in line:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise StepFailed("server printed no banner in time")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise StepFailed(f"server exited before serving (code {self.proc.wait()})")
            line += chunk
        banner = line.split(b"\n", 1)[0].decode()
        try:
            return int(banner.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        except (IndexError, ValueError):
            raise StepFailed(f"unexpected server banner {banner!r}") from None

    def _await_healthy(self) -> None:
        deadline = time.monotonic() + STEP_TIMEOUT
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.01)
        raise StepFailed("server never became healthy")

    def cpu_seconds(self) -> float:
        """User + system CPU of the server so far, from ``/proc/<pid>/stat``."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server in MiB."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise StepFailed("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it will not go."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
