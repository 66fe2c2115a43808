"""The Communix server with per-layer wrappers installed.

Usage: ``PERFBENCH_TRACE_DUMP=<file> python3 perfbench/traced_server.py
[repro.server flags]``.  The wrappers are installed on the names that
``repro.server.transport`` and ``repro.server.server`` look up at call
time, then ``repro.server.__main__.main`` runs unchanged.  On ``SIGUSR1``
the cumulative per-layer totals (plus the server's cache and fsync
counters) are written to the dump file as JSON, replaced atomically.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracing import Tracer  # noqa: E402


def install_server_wrappers(tracer: Tracer, servers: list) -> None:
    from repro.core.signature import DeadlockSignature
    from repro.crypto.userid import UserIdAuthority
    from repro.server import transport
    from repro.server.database import SignatureDatabase
    from repro.server.server import CommunixServer
    from repro.server.validation import ServerSideValidator
    from repro.store import SignatureStore

    # Request decode, looked up in the transport's module namespace.
    tracer.install(transport, "decode_request", "protocol.decode_request")
    tracer.install(transport, "decode_add_signature",
                   "protocol.decode_add_signature")
    # The server core: handler entry points the transport calls.
    for name in ("process_add", "process_get_wire", "issue_user_token",
                 "stats_payload"):
        tracer.install(CommunixServer, name, f"server.{name}")
    tracer.install(DeadlockSignature, "from_bytes", "signature.from_bytes")
    tracer.install(DeadlockSignature, "to_bytes", "signature.to_bytes")
    tracer.install(UserIdAuthority, "decode", "crypto.decode")
    tracer.install(ServerSideValidator, "check_add_uid",
                   "validation.check_add_uid")
    tracer.install(SignatureDatabase, "append", "database.append")
    tracer.install(SignatureDatabase, "wire_from", "database.wire_from")
    tracer.install(SignatureDatabase, "_replay_store", "database.replay")
    tracer.install(SignatureStore, "__init__", "store.open")
    for name in ("append", "stage_append", "commit_staged"):
        tracer.install(SignatureStore, name, "store.append")

    original_init = CommunixServer.__init__

    def capturing_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        servers.append(self)

    CommunixServer.__init__ = capturing_init


def server_counters(servers: list) -> dict:
    if not servers:
        return {}
    server = servers[-1]
    cache = server.validator.token_cache
    counters = {
        "token_cache_hits": cache.hits,
        "token_cache_misses": cache.misses,
        "page_cache_hits": server.database.page_cache_hits,
        "page_cache_misses": server.database.page_cache_misses,
    }
    if server.store is not None:
        counters["store_records"] = server.store.record_count
        counters["store_fsyncs"] = server.store.fsyncs_issued
    return counters


def main() -> int:
    dump_path = Path(os.environ["PERFBENCH_TRACE_DUMP"])
    tracer = Tracer()
    servers: list = []
    install_server_wrappers(tracer, servers)
    sequence = [0]

    def dump(*_):
        sequence[0] += 1
        payload = tracer.snapshot()
        payload["counters"] = server_counters(servers)
        payload["sequence"] = sequence[0]
        payload["process_cpu_s"] = time.process_time()
        tmp = dump_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, dump_path)

    signal.signal(signal.SIGUSR1, dump)
    from repro.server.__main__ import main as server_main

    return server_main(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
