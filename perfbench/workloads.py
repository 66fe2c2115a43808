"""The three workloads and their independent correctness checks.

``publish``  closed loop, two connections in lock-step rounds, ADD only,
             in-memory server.
``durable``  as ``publish``, each operation an ADD then a paginated GET of
             what that node has not yet seen; the server logs to
             ``--data-dir`` (default ``--fsync always``).
``join``     server on a data dir preloaded with a labelled corpus; new
             nodes join one after another (download, then inspect).

Each phase returns raw measurements; ``run.py`` turns them into metrics.
The timed window opens after set-up and a warm-up, and closes when the
last operation started before the deadline completes: no request is
retried, dropped or re-timed.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import inputs, procfs
from perfbench.serverproc import ServerError, ServerProcess, launch_for_setup
from perfbench.tracing import diff
from repro.client import CommunixClient, SocketEndpoint
from repro.client.client import DEFAULT_PAGE_SIZE
from repro.core.agent import CommunixAgent
from repro.core.history import DeadlockHistory
from repro.core.repository import LocalRepository
from repro.net import dial, parse_endpoint
from repro.server.protocol import (
    decode_get_page,
    encode_add_request,
    encode_request,
    read_frame,
    write_frame,
)
from repro.util.encoding import from_canonical_json

CONNECTIONS = 2
#: A response this late is a stall: the transport's 200 ms select
#: timeout, not work, delivered it.
STALL_THRESHOLD_S = 0.190
#: Server launches per run; set-up time is their median.
SETUP_LAUNCHES = 5


class CheckFailed(AssertionError):
    """An output of the program disagrees with an independent check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Conn:
    """One framed request/response connection; times each round trip."""

    def __init__(self, url: str):
        self.sock = dial(parse_endpoint(url), timeout=30.0)
        self.sock.settimeout(120.0)
        #: Next database index this node has not seen (``durable``).
        self.cursor = 0

    def roundtrip(self, request: bytes) -> tuple[bytes, float]:
        started = time.perf_counter()
        write_frame(self.sock, request)
        reply = read_frame(self.sock)
        elapsed = time.perf_counter() - started
        if reply is None:
            raise CheckFailed("server closed the connection")
        return reply, elapsed

    def add(self, blob: bytes, token: str) -> tuple[dict, float]:
        reply, elapsed = self.roundtrip(encode_add_request(blob, token))
        return from_canonical_json(reply), elapsed

    def get_page(self, start: int, max_count: int = DEFAULT_PAGE_SIZE):
        reply, elapsed = self.roundtrip(encode_request(
            {"op": "GET", "from_index": start, "max_count": max_count}))
        next_index, blobs, more = decode_get_page(reply)
        return next_index, blobs, more, elapsed

    def drain(self, start: int = 0) -> list[bytes]:
        """Every blob from ``start`` on, page by page."""
        blobs: list[bytes] = []
        cursor = start
        while True:
            next_index, page, more, _ = self.get_page(cursor)
            check(next_index == cursor + len(page),
                  f"GET({cursor}) returned {len(page)} blobs but "
                  f"next_index {next_index}")
            blobs.extend(page)
            cursor = next_index
            if not more:
                return blobs

    def close(self) -> None:
        self.sock.close()


@dataclass
class Window:
    """What one timed window measured."""

    seconds: float = 0.0
    operations: int = 0
    failed: int = 0
    requests: int = 0
    server_cpu_s: float = 0.0
    rss_mb_at_start: float = 0.0
    rss_mb_at_end: float = 0.0
    server_affinity: list = field(default_factory=list)
    add_latency: list = field(default_factory=list)
    get_latency: list = field(default_factory=list)
    op_latency: list = field(default_factory=list)
    slices: list = field(default_factory=list)
    steal_s: float = 0.0
    extra: dict = field(default_factory=dict)


class _Open:
    """Window bookkeeping on the server process: CPU and peak RSS."""

    def __init__(self, server: ServerProcess):
        self.pid = server.pid
        self.affinity = sorted(os.sched_getaffinity(self.pid))
        self.rss_start = procfs.peak_rss_mb(self.pid)
        self.cpu_start = procfs.process_cpu_s(self.pid)
        self.steal_start = procfs.steal_s()
        self.started = time.perf_counter()

    def close(self, window: Window, ended: float) -> None:
        window.server_cpu_s = procfs.process_cpu_s(self.pid) - self.cpu_start
        window.seconds = ended - self.started
        window.rss_mb_at_start = self.rss_start
        window.rss_mb_at_end = procfs.peak_rss_mb(self.pid)
        window.server_affinity = self.affinity
        window.steal_s = procfs.steal_s() - self.steal_start


# ----------------------------------------------------------------- writes
@dataclass
class _Sent:
    blob: bytes
    index: int | None
    verdict: str


#: The timed window is cut into this many slices; rates and CPU per
#: request are reported as the median over slices, so a start-up
#: transient or one disturbed slice does not move them.
SLICES = 10


class _Slicer:
    """Cuts a window into slices at operation boundaries, reading the
    server's CPU time at each cut.  ``counts()`` returns the running
    (operations, requests) totals at the moment of a cut."""

    def __init__(self, pid: int, started: float, seconds: float, counts):
        self.pid = pid
        self.length = seconds / SLICES
        self.next_cut = started + self.length
        self.counts = counts
        self.marks = [(started, procfs.process_cpu_s(pid), 0, 0)]

    def maybe_cut(self, now: float) -> None:
        if now >= self.next_cut:
            self.cut(now)
            while self.next_cut <= now:
                self.next_cut += self.length

    def cut(self, now: float) -> None:
        operations, requests = self.counts()
        self.marks.append((now, procfs.process_cpu_s(self.pid),
                           operations, requests))

    def slices(self) -> list[dict]:
        """Per slice: seconds, operations, requests, server CPU seconds."""
        marks = list(self.marks)
        if (len(marks) > 2
                and marks[-1][0] - marks[-2][0] < self.length / 2):
            del marks[-2]  # fold a short last slice into the one before
        result = []
        for (t0, c0, o0, r0), (t1, c1, o1, r1) in zip(marks, marks[1:]):
            if o1 > o0:
                result.append({"seconds": t1 - t0, "operations": o1 - o0,
                               "requests": r1 - r0, "server_cpu_s": c1 - c0})
        return result


class _Rounds:
    """Lock-step rounds: every connection starts operation *k* together,
    as when two users publish at the same instant.  The round count and
    the deadline are judged once per round, for all connections."""

    def __init__(self, parties: int, deadline: float, limit: int | None,
                 slicer: "_Slicer | None" = None):
        self.deadline = deadline
        self.limit = limit
        self.rounds = 0
        self.go = True
        self.slicer = slicer
        self.barrier = threading.Barrier(parties, action=self._decide)

    def _decide(self) -> None:
        now = time.perf_counter()
        if self.slicer is not None:
            self.slicer.maybe_cut(now)
        self.go = ((self.limit is None or self.rounds < self.limit)
                   and now < self.deadline)
        if self.go:
            self.rounds += 1

    def next(self) -> bool:
        self.barrier.wait()
        return self.go


def _write_loop(conn: Conn, stream: inputs.UserStream, rounds: _Rounds,
                durable: bool, sent: list, latencies: dict) -> None:
    """One connection's closed loop, one operation per round.  On
    ``durable`` every ADD is followed by a paginated GET from this node's
    cursor, which must return the node's own blob at its acked index
    (read-your-writes)."""
    cursor = conn.cursor
    while rounds.next():
        blob, token = stream.next_add()
        started = time.perf_counter()
        reply, add_s = conn.add(blob, token)
        ok = bool(reply.get("ok")) and reply.get("verdict") == "ok"
        index = reply.get("index") if ok else None
        sent.append(_Sent(blob, index, str(reply.get("verdict"))))
        latencies["add"].append(add_s)
        if durable:
            seen_from = cursor
            seen: list[bytes] = []
            more = True
            while more:
                cursor, page, more, get_s = conn.get_page(cursor)
                latencies["get"].append(get_s)
                seen.extend(page)
            if ok:
                offset = index - seen_from
                check(0 <= offset < len(seen) and seen[offset] == blob,
                      f"GET after ADD did not return the blob acked at "
                      f"index {index}")
        latencies["op"].append(time.perf_counter() - started)
        latencies["ended"] = time.perf_counter()
    conn.cursor = cursor


def _run_connections(conns, streams, seconds: float | None, limit, durable,
                     server: ServerProcess | None):
    """Both connections in lock-step rounds, one in this thread and one in
    a second thread.  With ``server`` given, the window's server CPU and
    peak RSS are read around the run."""
    sent = [[] for _ in conns]
    lat = [{"add": [], "get": [], "op": []} for _ in conns]
    errors: list[BaseException] = []
    window = Window()
    opened = _Open(server) if server is not None else None
    started = time.perf_counter()

    def counts() -> tuple[int, int]:
        operations = sum(len(s) for s in sent)
        return operations, operations + sum(len(l["get"]) for l in lat)

    slicer = (_Slicer(server.pid, started, seconds, counts)
              if server is not None else None)
    rounds = _Rounds(len(conns),
                     started + seconds if seconds is not None else float("inf"),
                     limit, slicer)

    def body(c: int) -> None:
        try:
            _write_loop(conns[c], streams[c], rounds, durable, sent[c], lat[c])
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
            rounds.barrier.abort()

    helper = threading.Thread(target=body, args=(1,), name="perfbench-conn1")
    helper.start()
    body(0)
    helper.join()
    if errors:
        raise errors[0]
    ended = max(l.get("ended", started) for l in lat)
    if opened is not None:
        slicer.cut(ended)
        window.slices = slicer.slices()
        opened.close(window, ended)
    for c in range(len(conns)):
        window.add_latency.extend(lat[c]["add"])
        window.get_latency.extend(lat[c]["get"])
        window.op_latency.extend(lat[c]["op"])
    window.operations = sum(len(s) for s in sent)
    window.failed = sum(1 for s in sent for x in s if x.index is None)
    window.requests = len(window.add_latency) + len(window.get_latency)
    return window, sent


def _check_drain(conn: Conn, acked: list[_Sent], what: str) -> None:
    """The database holds exactly the acked blobs, each once, each at
    the index its ADD was acked with, at dense indices from 0."""
    stored = conn.drain(0)
    check(len(stored) == len(acked),
          f"{what}: drained {len(stored)} blobs, {len(acked)} were acked")
    check(len(set(stored)) == len(stored), f"{what}: a blob is stored twice")
    for item in acked:
        check(item.index is not None and 0 <= item.index < len(stored)
              and stored[item.index] == item.blob,
              f"{what}: blob acked at index {item.index} is not there")


def _launch(root: Path, workdir: Path, args: list[str], launches: int,
            trace_hooks):
    return launch_for_setup(
        root, workdir, args, launches, traced=trace_hooks is not None,
        trace_dump=trace_hooks.dump if trace_hooks is not None else None)


def write_phase(root: Path, workdir: Path, seed: int, seconds: float,
                durable: bool, launches: int, trace_hooks=None) -> dict:
    """``publish`` (``durable=False``) or ``durable`` on a fresh server;
    ``trace_hooks`` selects the traced server."""
    args: list[str] = []
    if durable:
        data_dir = workdir / f"data-{time.monotonic_ns()}"
        args = ["--data-dir", str(data_dir)]
    server, setup_times = _launch(root, workdir, args, launches, trace_hooks)
    conns: list[Conn] = []
    try:
        templates = inputs.user_template_sets(seed)
        streams = [inputs.UserStream(seed, c, CONNECTIONS, templates)
                   for c in range(CONNECTIONS)]
        conns = [Conn(server.url) for _ in range(CONNECTIONS)]
        # Warm-up: one full user per connection.
        _, warm_sent = _run_connections(
            conns, streams, None, inputs.ADDS_PER_USER, durable, None)
        before = trace_hooks.begin(server) if trace_hooks else None
        window, sent = _run_connections(
            conns, streams, seconds, None, durable, server)
        trace = trace_hooks.end(server, before) if trace_hooks else None

        acked = [x for group in warm_sent + sent for x in group
                 if x.index is not None]
        for group in warm_sent:
            check(all(x.index is not None for x in group),
                  "a warm-up ADD was refused")
        check(window.failed == 0,
              f"{window.failed} ADDs refused: "
              f"{sorted({x.verdict for g in sent for x in g if x.index is None})}")
        blob, token = streams[0].extra_add()
        reply, _ = conns[0].add(blob, token)
        check(reply.get("verdict") == "quota_exceeded",
              f"ADD beyond the daily quota got {reply.get('verdict')!r}")
        users = [u for s in streams for u in s.users]
        check(max(u[2] for u in users) <= inputs.ADDS_PER_USER,
              "a user sent more ADDs than the daily quota")
        if not durable:
            _check_drain(conns[0], acked, "publish drain")
        for conn in conns:
            conn.close()
        conns = []
        stopped_code = server.stop()
        check(stopped_code == 0, f"server exited {stopped_code} on SIGTERM")
        if durable:
            # Restart on the same data dir: what was acked must be back.
            restarted = ServerProcess(root, workdir, args)
            try:
                conn = Conn(restarted.url)
                try:
                    _check_drain(conn, acked, "durable restart")
                finally:
                    conn.close()
            finally:
                restarted.stop()
        return {
            "setup_times": setup_times,
            "window": window,
            "trace": trace,
            "crypto_backend": server.crypto_backend,
            "stored": len(acked),
            "users": len(users),
        }
    finally:
        for conn in conns:
            conn.close()
        server.kill()


# ------------------------------------------------------------------- join
def _join_node(url: str, app, get_latency: list) -> dict:
    """One node joins: poll the whole database into an empty repository,
    then run the agent's start-up inspection."""
    endpoint = SocketEndpoint(url)
    timed_get_page = endpoint.get_page

    def get_page(from_index, max_count):
        started = time.perf_counter()
        try:
            return timed_get_page(from_index, max_count)
        finally:
            get_latency.append(time.perf_counter() - started)

    endpoint.get_page = get_page
    try:
        repository = LocalRepository()
        client = CommunixClient(endpoint, repository)
        started = time.perf_counter()
        download = client.poll_once()
        downloaded = time.perf_counter()
        agent = CommunixAgent(app, DeadlockHistory(), repository)
        report = agent.on_application_start()
        inspected = time.perf_counter()
    finally:
        endpoint.close()
    return {"download": download, "report": report, "repository": repository,
            "download_s": downloaded - started,
            "inspect_s": inspected - downloaded}


def _check_node(node: dict, expected: inputs.JoinExpectation) -> None:
    download, report = node["download"], node["report"]
    check(not download.failed, f"download failed: {download.error}")
    check(download.malformed == 0, "the server sent malformed signatures")
    ids = {s.sig_id for s in node["repository"].all_signatures()}
    check(ids == expected.sig_ids,
          f"node stored {len(ids)} signatures, expected the "
          f"{len(expected.sig_ids)} distinct preloaded ones")
    check(report.inspected == len(expected.sig_ids),
          f"agent inspected {report.inspected} signatures")
    check(report.accepted == expected.accepted,
          f"agent accepted {report.accepted}, labels imply "
          f"{expected.accepted}")
    check(report.rejected == expected.rejected,
          f"agent rejections {report.rejected}, labels imply "
          f"{expected.rejected}")
    check(report.added + report.merged + report.absorbed + report.duplicates
          == report.accepted,
          "added + merged + absorbed + duplicates != accepted")


@dataclass
class JoinInputs:
    app: object
    data_dir: Path
    expected: inputs.JoinExpectation


JOIN_CORPUS = 8192


def prepare_join(workdir: Path, seed: int) -> JoinInputs:
    app = inputs.join_application()
    corpus = inputs.labelled_corpus(app, seed, JOIN_CORPUS)
    expected = inputs.expectation(corpus)
    data_dir = workdir / "join-data"
    stored = inputs.preload(str(data_dir), corpus)
    check(stored == len(expected.sig_ids),
          f"preload stored {stored}, expected {len(expected.sig_ids)}")
    return JoinInputs(app, data_dir, expected)


def join_phase(root: Path, workdir: Path, prepared: JoinInputs,
               seconds: float, launches: int, trace_hooks=None,
               node_tracer=None) -> dict:
    args = ["--data-dir", str(prepared.data_dir)]
    server, setup_times = _launch(root, workdir, args, launches, trace_hooks)
    try:
        warm = _join_node(server.url, prepared.app, [])
        _check_node(warm, prepared.expected)
        window = Window()
        totals = {"signatures": 0, "download_s": 0.0, "inspect_s": 0.0,
                  "inspected": 0}
        before = trace_hooks.begin(server) if trace_hooks else None
        if node_tracer is not None:
            node_tracer.reset()
            node_tracer.enabled = True
        opened = _Open(server)
        deadline = opened.started + seconds
        while time.perf_counter() < deadline:
            pages_before = len(window.get_latency)
            cpu_before = procfs.process_cpu_s(server.pid)
            node = _join_node(server.url, prepared.app, window.get_latency)
            cpu_after = procfs.process_cpu_s(server.pid)
            # One slice per node: its join time, pages and server CPU.
            window.slices.append({
                "seconds": node["download_s"] + node["inspect_s"],
                "operations": len(node["repository"]),
                "requests": len(window.get_latency) - pages_before,
                "server_cpu_s": cpu_after - cpu_before,
            })
            window.operations += 1
            totals["signatures"] += len(node["repository"])
            totals["download_s"] += node["download_s"]
            totals["inspect_s"] += node["inspect_s"]
            totals["inspected"] += node["report"].inspected
            # Check and drop each node before the next joins, so every
            # node starts from the same generator heap.
            if node_tracer is not None:
                node_tracer.enabled = False
            _check_node(node, prepared.expected)
            del node
            gc.collect()
            if node_tracer is not None:
                node_tracer.enabled = True
        ended = time.perf_counter()
        opened.close(window, ended)
        if node_tracer is not None:
            node_tracer.enabled = False
        trace = trace_hooks.end(server, before) if trace_hooks else None
        window.requests = len(window.get_latency)
        window.extra = {
            **totals,
            "first_node_download_s": warm["download_s"],
            "first_node_inspect_s": warm["inspect_s"],
        }
        code = server.stop()
        check(code == 0, f"server exited {code} on SIGTERM")
        return {
            "setup_times": setup_times,
            "window": window,
            "trace": trace,
            "node_trace": (node_tracer.snapshot()
                           if node_tracer is not None else None),
            "crypto_backend": server.crypto_backend,
        }
    finally:
        if node_tracer is not None:
            node_tracer.enabled = False
        server.kill()


# ------------------------------------------------------------ trace hooks
class ServerTraceHooks:
    """Reads the traced server's cumulative totals at window edges."""

    def __init__(self, dump: Path):
        self.dump = dump
        self.sequence = 0

    def _read(self, server: ServerProcess) -> dict:
        self.sequence += 1
        os.kill(server.pid, signal.SIGUSR1)
        deadline = time.perf_counter() + 30.0
        while time.perf_counter() < deadline:
            try:
                payload = json.loads(self.dump.read_text())
            except (OSError, ValueError):
                payload = None
            if payload is not None and payload.get("sequence") == self.sequence:
                return payload
            time.sleep(0.005)
        raise ServerError("traced server did not dump its totals")

    def begin(self, server: ServerProcess) -> dict:
        self.sequence = 0
        self.dump.unlink(missing_ok=True)
        return self._read(server)

    def end(self, server: ServerProcess, before: dict) -> dict:
        after = self._read(server)
        result = diff(after, before)
        result["counters"] = {
            key: value - before["counters"].get(key, 0)
            for key, value in after["counters"].items()
        }
        result["cumulative"] = after
        return result
