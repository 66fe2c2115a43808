"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload publish --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics against the server as users
start it (``python -m repro.server``).  ``--trace 1`` runs the workload
twice, untraced and then with per-layer wrappers, and reports per-layer
self times and the tracing overhead.  Human-readable detail goes to the
lines before the last; the last line of standard output is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("publish", "durable", "join")


def _bootstrap() -> None:
    if not (ROOT / "src" / "repro" / "server" / "__main__.py").is_file():
        print(f"perfbench: no Communix sources under {ROOT / 'src'}",
              file=sys.stderr)
        raise SystemExit(2)
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -------------------------------------------------------------- end to end
#: A slice whose rate is within this share of the median slice rate is
#: in the run's steady state.
STEADY_BAND = 0.25


def _slice_medians(window) -> tuple[float, float]:
    """(operations per second, server CPU microseconds per request).

    The rate is the median over slices.  CPU per request is summed over
    the steady slices only (rate within :data:`STEADY_BAND` of that
    median), so a start-up transient in another regime does not mix in,
    while the steady slices still average out each other's noise.
    """
    rates = [s["operations"] / s["seconds"] for s in window.slices]
    rate = statistics.median(rates)
    steady = [s for s, r in zip(window.slices, rates)
              if abs(r - rate) <= STEADY_BAND * rate]
    requests = sum(s["requests"] for s in steady)
    cpu_s = sum(s["server_cpu_s"] for s in steady)
    return rate, cpu_s / requests * 1e6


def end_to_end(workload: str, phase: dict) -> tuple[dict, dict]:
    """(metrics for the result line, the workload's named figures)."""
    from perfbench.samples import late_share, percentile, summarize
    from perfbench.workloads import STALL_THRESHOLD_S

    window = phase["window"]
    setup_s = statistics.median(phase["setup_times"])
    rate, cpu_us = _slice_medians(window)
    add = summarize(window.add_latency)
    get = summarize(window.get_latency)
    named = {
        "setup_s": setup_s,
        "setup_s_each": phase["setup_times"],
        "server_cpu_us_per_req": cpu_us,
        "server_cpu_us_per_req_whole_window": (
            window.server_cpu_s / window.requests * 1e6),
        "requests": window.requests,
        "window_s": window.seconds,
        "slices": [[round(x["seconds"], 3), x["operations"], x["requests"],
                    round(x["server_cpu_s"], 5)] for x in window.slices],
        "cpu_steal_s": window.steal_s,
        "server_rss_mb_window_start": window.rss_mb_at_start,
        "server_rss_mb": window.rss_mb_at_end,
    }
    if workload == "join":
        extra = window.extra
        named.update({
            "nodes": window.operations,
            "node_sigs_per_s": rate,
            "download_sigs_per_s": extra["signatures"] / extra["download_s"],
            "inspect_sigs_per_s": extra["inspected"] / extra["inspect_s"],
            "first_node_download_s": extra["first_node_download_s"],
            "first_node_inspect_s": extra["first_node_inspect_s"],
            "get": get,
        })
        latency = get["p50_ms"]
    else:
        adds = len(window.add_latency)
        named.update({
            "add_per_s": rate,
            "add_per_s_whole_window": adds / window.seconds,
            "add": add,
            "add_p95_ms": percentile(window.add_latency, 95) * 1e3,
            "add_late_share": late_share(window.add_latency,
                                         STALL_THRESHOLD_S),
            "stored": phase["stored"],
            "users": phase["users"],
        })
        if workload == "durable":
            named["get"] = get
            named["op"] = summarize(window.op_latency)
            latency = percentile(window.op_latency, 95) * 1e3
            named["op_p95_ms"] = latency
        else:
            latency = named["add_p95_ms"]
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "server_cpu_us_per_req": _metric(cpu_us, "us"),
        "sigs_per_s": _metric(rate, "sig/s"),
        "latency_ms": _metric(latency, "ms"),
        "server_rss_mb": _metric(window.rss_mb_at_start, "MB"),
    }
    return metrics, named


# --------------------------------------------------------------- per layer
def _span(trace: dict | None, name: str) -> dict:
    empty = {"calls": 0, "wall_s": 0.0, "self_wall_s": 0.0, "cpu_s": 0.0,
             "self_cpu_s": 0.0}
    if trace is None:
        return empty
    return trace["spans"].get(name, empty)


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def per_layer(workload: str, untraced: dict, traced: dict) -> tuple[dict, dict]:
    from perfbench.workloads import STALL_THRESHOLD_S

    window = traced["window"]
    trace = traced["trace"]
    node = traced.get("node_trace")
    counters = trace["counters"]
    requests = window.requests
    adds = _span(trace, "server.process_add")["calls"]
    handler_cpu = sum(
        _span(trace, f"server.{name}")["cpu_s"]
        for name in ("process_add", "process_get_wire", "issue_user_token",
                     "stats_payload"))
    latencies = window.add_latency + window.get_latency
    stalls = sum(1 for v in latencies if v >= STALL_THRESHOLD_S)
    hits, misses = counters.get("token_cache_hits", 0), counters.get(
        "token_cache_misses", 0)
    page_hits, page_misses = counters.get("page_cache_hits", 0), counters.get(
        "page_cache_misses", 0)
    cumulative = trace["cumulative"]
    replay_s = (_span(cumulative, "store.open")["wall_s"]
                + _span(cumulative, "database.replay")["wall_s"])
    decode = (_span(trace, "protocol.decode_request")["self_cpu_s"]
              + _span(trace, "protocol.decode_add_signature")["self_cpu_s"])
    crypto = _span(trace, "crypto.decode")
    reads = _span(trace, "database.wire_from")
    validate = _span(node, "agent.validate")
    get_page = _span(node, "client.get_page")
    parse = _span(node, "client.from_bytes")
    received = window.extra.get("signatures", 0) if workload == "join" else 0
    frame_hash = node["counts"].get("appmodel.frame_hash", 0) if node else 0
    untraced_cpu = _slice_medians(untraced["window"])[1]
    traced_cpu = _slice_medians(window)[1]
    us = "us"
    metrics = {
        "transport.us_per_req": _metric(
            _per(window.server_cpu_s - handler_cpu, requests, 1e6), us),
        "transport.stalls_per_1k": _metric(_per(stalls, requests, 1e3),
                                           "1/1k"),
        "protocol.decode_us_per_req": _metric(_per(decode, requests, 1e6), us),
        "signature.parse_us_per_add": _metric(_per(
            _span(trace, "signature.from_bytes")["self_cpu_s"], adds, 1e6), us),
        "signature.encode_us_per_add": _metric(_per(
            _span(trace, "signature.to_bytes")["self_cpu_s"], adds, 1e6), us),
        "crypto.decode_us_per_miss": _metric(_per(
            crypto["self_cpu_s"], crypto["calls"], 1e6), us),
        "validation.token_cache_hit_ratio": _metric(
            _per(hits, hits + misses), "ratio"),
        "validation.us_per_add": _metric(_per(
            _span(trace, "validation.check_add_uid")["self_cpu_s"], adds,
            1e6), us),
        "database.append_us_per_add": _metric(_per(
            _span(trace, "database.append")["self_cpu_s"], adds, 1e6), us),
        "database.read_us_per_get": _metric(_per(
            reads["self_cpu_s"], reads["calls"], 1e6), us),
        "database.page_cache_hit_ratio": _metric(
            _per(page_hits, page_hits + page_misses), "ratio"),
        "store.append_us_per_add": _metric(_per(
            _span(trace, "store.append")["wall_s"], adds, 1e6), us),
        "store.adds_per_fsync": _metric(_per(
            counters.get("store_records", 0), counters.get("store_fsyncs", 0)),
            "count"),
        "store.replay_s": _metric(replay_s, "s"),
        "client.page_wait_ms": _metric(_per(
            get_page["wall_s"], get_page["calls"], 1e3), "ms"),
        "client.parse_us_per_sig": _metric(_per(
            parse["self_cpu_s"], parse["calls"], 1e6), us),
        "repository.append_us_per_sig": _metric(_per(
            _span(node, "repository.append_from_server")["self_cpu_s"],
            received, 1e6), us),
        "agent.validate_us_per_sig": _metric(_per(
            validate["self_cpu_s"], validate["calls"], 1e6), us),
        "agent.generalize_us_per_accepted": _metric(_per(
            _span(node, "agent.incorporate")["self_cpu_s"],
            _span(node, "agent.incorporate")["calls"], 1e6), us),
        "appmodel.frame_hash_calls_per_sig": _metric(
            _per(frame_hash, validate["calls"]), "count"),
        "trace.overhead_pct": _metric(
            _per(traced_cpu - untraced_cpu, untraced_cpu, 100.0), "%"),
    }
    ledger = {}
    for source, spans in (("server", trace), ("node", node)):
        if spans is None:
            continue
        base = requests if source == "server" else max(1, window.operations)
        for name, row in sorted(spans["spans"].items()):
            ledger[f"{source}:{name}"] = {
                "calls": row["calls"],
                "self_cpu_us_per_unit": _per(row["self_cpu_s"], base, 1e6),
                "self_wall_us_per_unit": _per(row["self_wall_s"], base, 1e6),
            }
    named = {
        "untraced_cpu_us_per_req": untraced_cpu,
        "traced_cpu_us_per_req": traced_cpu,
        "ledger_unit": "per request (server) / per node (node)",
        "ledger": ledger,
        "counters": counters,
    }
    return metrics, named


# -------------------------------------------------------------------- main
def _run_phase(workload: str, workdir: Path, seed: int, seconds: float,
               traced: bool, launches: int, prepared=None) -> dict:
    from perfbench import workloads
    from perfbench.tracing import Tracer, install_node_wrappers

    hooks = (workloads.ServerTraceHooks(workdir / "trace-dump.json")
             if traced else None)
    if workload != "join":
        return workloads.write_phase(ROOT, workdir, seed, seconds,
                                     workload == "durable", launches, hooks)
    node_tracer = None
    if traced:
        node_tracer = Tracer()
        node_tracer.enabled = False
        install_node_wrappers(node_tracer)
    try:
        return workloads.join_phase(ROOT, workdir, prepared, seconds,
                                    launches, hooks, node_tracer)
    finally:
        if node_tracer is not None:
            node_tracer.uninstall()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()
    from perfbench import procfs, workloads

    workdir = ROOT / ".perfbench_work" / (
        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        prepared = (workloads.prepare_join(workdir, args.seed)
                    if args.workload == "join" else None)
        try:
            if args.trace:
                # Two half-length windows: untraced, then traced.
                half = args.seconds / 2
                untraced = _run_phase(args.workload, workdir, args.seed,
                                      half, False, 1, prepared)
                traced = _run_phase(args.workload, workdir, args.seed,
                                    half, True, 1, prepared)
                metrics, named = per_layer(args.workload, untraced, traced)
                phases = (untraced, traced)
            else:
                phase = _run_phase(args.workload, workdir, args.seed,
                                   args.seconds, False,
                                   workloads.SETUP_LAUNCHES, prepared)
                metrics, named = end_to_end(args.workload, phase)
                phases = (phase,)
        except workloads.CheckFailed as exc:
            # A wrong output voids the run: no result line is printed.
            print(f"perfbench: correctness check failed: {exc}",
                  file=sys.stderr)
            return 1
        last = phases[-1]
        attempted = sum(p["window"].operations for p in phases)
        failed = sum(p["window"].failed for p in phases)
        named["provenance"] = procfs.provenance(
            ROOT, last["window"].server_affinity, last["crypto_backend"])
        named["workload"] = args.workload
        named["seed"] = args.seed
        print("perfbench detail: " + json.dumps(named))
        print(json.dumps({"correct": True, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
