"""A ``dsspy serve --state-dir`` subprocess owned by one benchmark run.

Each daemon gets a fresh state directory and port file under the run's
own work directory, listens on an ephemeral port, and is stopped with
SIGTERM.  A non-zero exit, a stop that needs SIGKILL, or a process left
behind afterwards marks the daemon unclean, and the run counts as
failed.  If the benchmark itself dies, the kernel sends the daemon
SIGTERM (``PR_SET_PDEATHSIG``), and the next run reaps whatever a killed
run left in the work directory.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

_PR_SET_PDEATHSIG = 1
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _die_with_parent() -> None:
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    except (OSError, AttributeError):
        pass  # not Linux: the run's finally-block still stops the daemon


def _pids_mentioning(text: str) -> list[int]:
    """Live processes whose command line contains ``text``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
        except OSError:
            continue
        if text.encode() in cmdline:
            found.append(int(entry.name))
    return found


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def reap_stale_runs(work_root: Path) -> None:
    """Kill daemons of earlier runs that died, and delete their dirs.

    A run directory is named ``run-<pid>-<n>``; it is stale when that
    benchmark process is gone.
    """
    if not work_root.is_dir():
        return
    for run_dir in work_root.glob("run-*"):
        parts = run_dir.name.split("-")
        if len(parts) >= 2 and parts[1].isdigit() and _alive(int(parts[1])):
            continue
        for pid in _pids_mentioning(str(run_dir) + os.sep):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 10
        while _pids_mentioning(str(run_dir) + os.sep) and time.monotonic() < deadline:
            time.sleep(0.05)
        shutil.rmtree(run_dir, ignore_errors=True)


class Daemon:
    """One profiling daemon subprocess with its own state directory."""

    def __init__(self, root: Path, run_dir: Path, name: str) -> None:
        self.dir = run_dir / name
        self.dir.mkdir(parents=True)
        self.state_dir = self.dir / "state"
        port_file = self.dir / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["TMPDIR"] = str(self.dir)
        self._clean: bool | None = None
        self._stderr = open(self.dir / "stderr.log", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--port-file", str(port_file),
                "--state-dir", str(self.state_dir),
                # Finished sessions stay listed in STATS for the whole
                # run (the default linger is 60 s; runs are shorter).
                "--linger", "600",
            ],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._stderr,
            preexec_fn=_die_with_parent,
        )
        deadline = time.monotonic() + 60
        while True:
            text = port_file.read_text().strip() if port_file.exists() else ""
            if text:
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(
                    f"daemon did not start: {(self.dir / 'stderr.log').read_text()}"
                )
            time.sleep(0.005)
        self.address = f"127.0.0.1:{text}"

    def cpu_s(self) -> float:
        """Daemon user + system CPU seconds so far."""
        fields = (Path("/proc") / str(self.proc.pid) / "stat").read_text()
        fields = fields.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        for line in (Path("/proc") / str(self.proc.pid) / "status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def state_bytes(self) -> int:
        return sum(
            p.stat().st_size for p in self.state_dir.rglob("*") if p.is_file()
        )

    def stop(self) -> bool:
        """SIGTERM and wait; True when the daemon exited 0 and nothing
        that mentions its directory is left running.  Idempotent."""
        if self._clean is not None:
            return self._clean
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                clean = False
                self.proc.kill()
                self.proc.wait()
        self._stderr.close()
        if self.proc.returncode != 0:
            clean = False
        for pid in _pids_mentioning(str(self.dir) + os.sep):
            clean = False
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self._clean = clean
        return clean
