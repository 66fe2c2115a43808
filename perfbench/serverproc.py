"""Launch the Communix server as users do, time its set-up, stop it.

The untraced server is ``python -m repro.server``; the traced one is
``perfbench/traced_server.py``, which installs the per-layer wrappers and
then calls the same ``repro.server.__main__.main``.  Both listen on an
ephemeral loopback TCP port and print their bound address, which is how
the generator finds them.
"""

from __future__ import annotations

import contextlib
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.net import dial, parse_endpoint
from repro.server.protocol import encode_stats_request, read_frame, write_frame
from repro.util.encoding import from_canonical_json

_LISTENING = re.compile(
    r"listening on (\S+) .*crypto backend (\S+?)\)"
)
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
#: Pause between a set-up launch answering and its SIGTERM.
SETTLE_S = 0.05


class ServerError(RuntimeError):
    pass


#: CPUs this process may use, read before any pinning narrows them.
_ALLOWED = tuple(sorted(os.sched_getaffinity(0)))


def cpu_split() -> tuple[set, set] | None:
    """(generator CPUs, server CPUs): the two lowest allowed CPUs, one
    each, or ``None`` when fewer than two are allowed."""
    allowed = _ALLOWED
    if len(allowed) < 2:
        return None
    return {allowed[0]}, {allowed[1]}


@contextlib.contextmanager
def _server_affinity():
    """Spawn under the server's CPU mask (a child inherits its parent's
    mask), then return this thread to the generator's CPU."""
    split = cpu_split()
    if split is None:
        yield
        return
    generator, server = split
    os.sched_setaffinity(0, server)
    try:
        yield
    finally:
        os.sched_setaffinity(0, generator)


class ServerProcess:
    """One running server; ``setup_s`` is launch-to-first-answer time."""

    def __init__(self, root: Path, workdir: Path, args: list[str],
                 traced: bool = False, trace_dump: Path | None = None):
        self.root = root
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        if traced:
            env["PERFBENCH_TRACE_DUMP"] = str(trace_dump)
            entry = [sys.executable, str(root / "perfbench" / "traced_server.py")]
        else:
            entry = [sys.executable, "-m", "repro.server"]
        workdir.mkdir(parents=True, exist_ok=True)
        self.log_path = workdir / f"server-{time.monotonic_ns()}.log"
        self._log = open(self.log_path, "wb")
        started = time.perf_counter()
        with _server_affinity():
            self.proc = subprocess.Popen(
                [*entry, "--addr", "tcp://127.0.0.1:0", *args],
                cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
            )
        try:
            self.url, self.crypto_backend = self._await_listening(started)
            self._await_answer()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _readline(self, deadline: float) -> str:
        fd = self.proc.stdout.fileno()
        buf = b""
        while not buf.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise ServerError("server did not start in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 1)
            if not chunk:
                raise ServerError(
                    f"server exited during start-up: {self.log_tail()}"
                )
            buf += chunk
        return buf.decode("utf-8", "replace").rstrip("\n")

    def _await_listening(self, started: float) -> tuple[str, str]:
        deadline = started + START_TIMEOUT_S
        while True:
            match = _LISTENING.search(self._readline(deadline))
            if match:
                return "tcp://" + match.group(1), match.group(2)

    def _await_answer(self) -> None:
        """One STATS round trip: the server is set up once it answers."""
        sock = dial(parse_endpoint(self.url), timeout=START_TIMEOUT_S)
        try:
            sock.settimeout(START_TIMEOUT_S)
            write_frame(sock, encode_stats_request(1))
            reply = read_frame(sock)
        finally:
            sock.close()
        if reply is None or not from_canonical_json(reply).get("ok"):
            raise ServerError("server refused the set-up STATS probe")

    def log_tail(self, lines: int = 20) -> str:
        if not self._log.closed:
            self._log.flush()
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
                raise ServerError("server did not drain within "
                                  f"{STOP_TIMEOUT_S:.0f}s of SIGTERM")
        self._close_files()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except (subprocess.TimeoutExpired, ValueError, OSError):
            pass
        self._close_files()

    def _close_files(self) -> None:
        if self.proc.stdout is not None and not self.proc.stdout.closed:
            self.proc.stdout.close()
        if not self._log.closed:
            self._log.close()


def launch_for_setup(root: Path, workdir: Path, args: list[str],
                     launches: int, **kwargs) -> tuple[ServerProcess, list[float]]:
    """Start the server ``launches`` times; all but the last are stopped
    again.  Returns the running server and every set-up time.

    ``repro.server`` installs its SIGTERM handler only after it prints
    its address and starts serving, so a SIGTERM sent the moment it
    answers can kill it without a drain; a stopped set-up launch is
    therefore given :data:`SETTLE_S` first.
    """
    times = []
    for i in range(launches):
        server = ServerProcess(root, workdir, args, **kwargs)
        times.append(server.setup_s)
        if i < launches - 1:
            time.sleep(SETTLE_S)
            code = server.stop()
            if code != 0:
                raise ServerError(f"server exited {code} on SIGTERM: "
                                  f"{server.log_tail()}")
    return server, times
