"""Server CPU time and peak memory from ``/proc/<pid>``, and run provenance.

CPU is the sum of ``se.sum_exec_runtime`` over every thread in
``/proc/<pid>/task/*/sched`` (nanosecond-grained user+system time).  When
the kernel does not expose ``sched`` files the process-wide
``utime + stime`` of ``/proc/<pid>/stat`` is used instead (clock ticks).
Peak RSS is ``VmHWM`` from ``/proc/<pid>/status``.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

CLK_TCK = os.sysconf("SC_CLK_TCK")


def parse_sched_runtime_ms(text: str) -> float | None:
    """``se.sum_exec_runtime`` (milliseconds) from a ``sched`` file."""
    for line in text.splitlines():
        if line.startswith("se.sum_exec_runtime"):
            return float(line.split(":", 1)[1])
    return None


def parse_stat_cpu_s(text: str, clk_tck: int = CLK_TCK) -> float:
    """``utime + stime`` in seconds from a ``/proc/<pid>/stat`` line.

    The command name (field 2) may hold spaces and parentheses, so fields
    are counted from the last ``)``.
    """
    rest = text[text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime/stime are fields 14/15.
    utime, stime = int(rest[11]), int(rest[12])
    return (utime + stime) / clk_tck


def parse_status_kb(text: str, key: str) -> int | None:
    """A ``kB`` field such as ``VmHWM`` from a ``/proc/<pid>/status``."""
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    return None


def parse_steal_s(text: str, clk_tck: int = CLK_TCK) -> float:
    """Time stolen from this machine's CPUs by its hypervisor, from the
    aggregate ``cpu`` line of ``/proc/stat``."""
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            return int(fields[8]) / clk_tck
    raise ValueError("no aggregate cpu line")


def steal_s() -> float:
    return parse_steal_s(Path("/proc/stat").read_text())


def process_cpu_s(pid: int) -> float:
    """Total CPU seconds of every live thread of ``pid``."""
    total_ms = 0.0
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tids = list(task_dir.iterdir())
    except OSError:
        tids = []
    for tid in tids:
        try:
            runtime = parse_sched_runtime_ms((tid / "sched").read_text())
        except OSError:
            continue  # thread exited between listing and reading
        if runtime is None:
            break
        total_ms += runtime
    else:
        if tids:
            return total_ms / 1000.0
    return parse_stat_cpu_s(Path(f"/proc/{pid}/stat").read_text())


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MiB."""
    kb = parse_status_kb(Path(f"/proc/{pid}/status").read_text(), "VmHWM")
    if kb is None:
        raise OSError(f"/proc/{pid}/status has no VmHWM")
    return kb / 1024.0


def _commit(root: Path) -> str:
    """The checked-out commit, or ``unknown`` outside a git work tree
    (git is not asked to search parent directories)."""
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(root: Path, server_affinity: list | None = None,
               crypto_backend: str | None = None) -> dict:
    """Where and how a result was measured."""
    stamp = {
        "commit": _commit(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "crypto_backend": crypto_backend,
        "generator_affinity": sorted(os.sched_getaffinity(0)),
        "server_affinity": server_affinity,
    }
    return stamp
