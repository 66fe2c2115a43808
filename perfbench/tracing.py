"""Per-layer self time, recorded from wrappers around each layer's calls.

A :class:`Tracer` wraps a callable under a layer name.  Each call is a
span; spans nest per thread, so a span's *self* time is its duration
minus the time of the spans it called.  Wall time (``perf_counter``) and
thread CPU time (``thread_time``) are both kept.  Totals are aggregated
in memory per name and read with :meth:`Tracer.snapshot`.  Count-only
wrappers (:meth:`Tracer.count`) record calls without timing them.

Nothing in the program is edited: the wrappers are installed on module
and class attributes by the benchmark's own entry points
(``traced_server.py`` for the server, the generator for the node side).
"""

from __future__ import annotations

import functools
import inspect
import threading
from time import perf_counter, thread_time


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        # name -> [calls, wall, self_wall, cpu, self_cpu]
        self._totals: dict[str, list] = {}
        self._counts: dict[str, int] = {}
        self.enabled = True
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ record
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, wall: float, self_wall: float,
                cpu: float, self_cpu: float) -> None:
        with self._lock:
            row = self._totals.get(name)
            if row is None:
                row = self._totals[name] = [0, 0.0, 0.0, 0.0, 0.0]
            row[0] += 1
            row[1] += wall
            row[2] += self_wall
            row[3] += cpu
            row[4] += self_cpu

    def wrap(self, name: str, fn):
        """``fn`` timed as a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            children = [0.0, 0.0]
            stack.append(children)
            wall0 = perf_counter()
            cpu0 = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = thread_time() - cpu0
                wall = perf_counter() - wall0
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                    stack[-1][1] += cpu
                tracer._record(name, wall, wall - children[0],
                               cpu, cpu - children[1])

        return traced

    def count(self, name: str, fn):
        """``fn`` with its calls counted under ``name`` (not timed)."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.enabled:
                with tracer._lock:
                    tracer._counts[name] = tracer._counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # ----------------------------------------------------------- install
    def install(self, owner, attr: str, name: str, counted: bool = False
                ) -> None:
        """Replace ``owner.attr`` (a module function or a class's method,
        static method or ``__init__``) by its wrapped form."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            fn = raw.__func__
        elif isinstance(raw, classmethod):
            raise TypeError(f"{attr}: classmethods are not wrapped")
        else:
            fn = raw
        wrapped = self.count(name, fn) if counted else self.wrap(name, fn)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # -------------------------------------------------------------- read
    def reset(self) -> None:
        with self._lock:
            self._totals.clear()
            self._counts.clear()

    def snapshot(self) -> dict:
        """``{"spans": {name: {calls, wall_s, self_wall_s, cpu_s,
        self_cpu_s}}, "counts": {name: calls}}``."""
        with self._lock:
            spans = {
                name: {"calls": row[0], "wall_s": row[1],
                       "self_wall_s": row[2], "cpu_s": row[3],
                       "self_cpu_s": row[4]}
                for name, row in self._totals.items()
            }
            return {"spans": spans, "counts": dict(self._counts)}


def diff(after: dict, before: dict) -> dict:
    """``after - before`` of two :meth:`Tracer.snapshot` results."""
    spans = {}
    for name, row in after["spans"].items():
        base = before["spans"].get(name)
        spans[name] = {key: value - (base[key] if base else 0)
                       for key, value in row.items()}
    counts = {name: value - before["counts"].get(name, 0)
              for name, value in after["counts"].items()}
    extra = {key: value for key, value in after.items()
             if key not in ("spans", "counts")}
    return {"spans": spans, "counts": counts, **extra}


# ------------------------------------------------------------ node side
def install_node_wrappers(tracer: Tracer) -> None:
    """Wrap the calls a joining node makes into the client, repository,
    agent and application-model layers."""
    from repro.appmodel.loader import Application
    from repro.client import client as client_module
    from repro.client.endpoints import SocketEndpoint
    from repro.core.generalization import Generalizer
    from repro.core.repository import LocalRepository
    from repro.core.validation import ClientSideValidator

    tracer.install(SocketEndpoint, "get_page", "client.get_page")
    # poll_once parses each downloaded blob through this name.
    tracer.install(client_module.DeadlockSignature, "from_bytes",
                   "client.from_bytes")
    tracer.install(LocalRepository, "append_from_server",
                   "repository.append_from_server")
    tracer.install(ClientSideValidator, "validate", "agent.validate")
    tracer.install(Generalizer, "incorporate", "agent.incorporate")
    tracer.install(Application, "frame_hash", "appmodel.frame_hash",
                   counted=True)
