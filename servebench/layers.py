"""Per-layer numbers for the traced run.

Two sources, both outside the program: the spans ``repro --trace FILE
serve`` already emits, and timed calls into each layer's public
functions on an independently opened snapshot.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import time
from collections import Counter
from typing import Callable, Dict, List, Sequence

from stats import percentile, self_times
from workloads import Key


def _us(samples: Sequence[float]) -> float:
    return statistics.median(samples) * 1e6


def load_spans(trace_file: str, start_unix: float, end_unix: float) -> List[dict]:
    """Spans that started inside ``[start_unix, end_unix)``."""
    with open(trace_file) as handle:
        spans = [json.loads(line) for line in handle if line.strip()]
    return [s for s in spans if start_unix <= s["start_unix"] < end_unix]


def report_trace(report, trace_file: str, plain, traced) -> None:
    """Split the traced closed-loop p50 into front end, batch wait and batch work."""
    spans = load_spans(trace_file, traced.rounds[0].closed.wall_start,
                       traced.rounds[-1].closed.wall_end)
    own = self_times(spans)

    def named(name: str) -> List[dict]:
        return [s for s in spans if s["name"] == name]

    requests = named("serve.request.search")
    batches = named("serve.batch")
    p50 = percentile(traced.closed_latencies(), 0.5)
    request_us = _us([s["duration"] for s in requests])
    frontend_us = p50 * 1e6 - request_us
    wait_us = request_us - _us([s["duration"] for s in batches])
    batch_us = _us([own[s["span_id"]] for s in named("search.query_batch")])
    sizes = [s["attributes"]["size"] for s in batches]
    hybrid = [own[s["span_id"]] for s in named("search.hybrid")]
    accounted_us = frontend_us + wait_us + batch_us

    report.metric("serve.request_us", request_us, "us", f"median serve.request.search, n={len(requests)}")
    report.metric("serve.frontend_us", frontend_us, "us", "traced client p50 - serve.request_us")
    report.metric("batch.wait_us", wait_us, "us", "serve.request_us - median serve.batch")
    report.metric("search.batch_us", batch_us, "us", "median self time of search.query_batch")
    report.metric("search.fusion_us", _us(hybrid), "us",
                  f"median self time of search.hybrid, n={len(hybrid)}")
    report.metric("batch.size_mean", statistics.mean(sizes), "count", f"n={len(sizes)} batches")
    report.metric("batch.dedup_ratio", sum(sizes) / len(requests), "ratio",
                  "unique triples scored per request")
    report.metric("trace.p50_ms", p50 * 1e3, "ms", "traced closed-loop p50")
    report.metric("trace.accounted_ms", accounted_us / 1e3, "ms",
                  "frontend + batch wait + search.batch self time")
    report.metric("trace.gap_ms", p50 * 1e3 - accounted_us / 1e3, "ms",
                  "p50 not accounted: child spans of the batch and span bookkeeping")
    report.metric("obs.trace_overhead", traced.qps() / plain.qps(), "ratio",
                  f"traced qps {traced.qps():.1f} / untraced qps {plain.qps():.1f}")
    report.metric("serve.cpu_us_per_req", plain.server_cpu_us(), "us", "untraced, /proc/<pid>/stat")
    report.metric("client.cpu_us_per_req", plain.client_cpu_us(), "us", "load generator, untraced")


def _timed(call: Callable[[], object]) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


@contextlib.contextmanager
def report_snapshot(report, lake_dir: str, work: str, reopens: int):
    """Time cold/warm snapshot opens, lake loads and fsck; yield a warm snapshot."""
    from repro.lake import load_lake
    from repro.reliability.fsck import fsck_lake
    from repro.serve import LakeSnapshot

    cold_dir = os.path.join(work, "cold")
    shutil.copytree(lake_dir, cold_dir, ignore=shutil.ignore_patterns("cache"))
    start = time.perf_counter()
    LakeSnapshot.open(cold_dir).close()
    report.metric("snapshot.cold_open_s", time.perf_counter() - start, "s", "no embedding cache yet")
    shutil.rmtree(cold_dir)

    loads = []
    for _ in range(reopens):
        start = time.perf_counter()
        lake = load_lake(lake_dir, materialize=False)
        loads.append(time.perf_counter() - start)
        lake.close()
    report.metric("lake.load_s", statistics.median(loads), "s", f"median of {reopens}")
    report.metric("fsck.inprocess_s", _timed(lambda: fsck_lake(lake_dir)), "s", "fsck_lake, no CLI")

    opens = []
    snapshot = None
    for _ in range(reopens):
        if snapshot is not None:
            snapshot.close()
        start = time.perf_counter()
        snapshot = LakeSnapshot.open(lake_dir)
        opens.append(time.perf_counter() - start)
    report.metric("snapshot.warm_open_s", statistics.median(opens), "s", f"median of {reopens}")
    try:
        yield snapshot
    finally:
        snapshot.close()


def postings_scanned(snapshot, texts: Sequence[str]) -> float:
    """Mean BM25 postings one query visits, counted from the card tokens."""
    from repro.utils.text import simple_tokenize

    df: Counter = Counter()
    for record in snapshot.lake:
        df.update(set(simple_tokenize(record.card.text())))
    return statistics.mean(sum(df[token] for token in simple_tokenize(text)) for text in texts)


def report_replay(report, snapshot, keys: Sequence[Key], batch_rows: int) -> None:
    """Replay served queries in process, timing each layer's public call."""
    import numpy as np

    from repro.core.search.behavioral import extract_query_domains, task_profile_vector

    engine = snapshot.engine
    behavioral = engine.behavioral
    index = behavioral.index
    texts = sorted({text for text, _, _ in keys})
    k = keys[0][1]
    for text, _, method in keys[:20]:  # first-call effects stay out of the medians
        engine.search(text, k=k, method=method)

    by_method: Dict[str, List[float]] = {}
    encode = []
    for text, k, method in keys:
        hits = []
        by_method.setdefault(method, []).append(
            _timed(lambda: hits.extend(engine.search(text, k=k, method=method))))
        payload = {"query": text, "k": k, "method": method,
                   "results": [{"model_id": h.model_id, "score": h.score} for h in hits]}
        encode.append(_timed(lambda: json.dumps(payload, default=str).encode()))
    for method, samples in sorted(by_method.items()):
        report.metric(f"search.engine_{method}_us", _us(samples), "us",
                      f"SearchEngine.search, n={len(samples)}")
    report.metric("serve.encode_us", _us(encode), "us", "json.dumps of a response payload")

    report.metric("search.keyword_us", _us([_timed(lambda: engine.keyword_index.query(t, k=k)) for t in texts]),
                  "us", "keyword_index.query")
    report.metric("search.bm25_postings_per_query",
                  postings_scanned(snapshot, [t for t, _, m in keys if m in ("keyword", "hybrid")]),
                  "count", "postings visited per BM25 query")
    report.metric("search.domains_us", _us([_timed(lambda: extract_query_domains(t)) for t in texts]),
                  "us", "extract_query_domains")
    report.metric("search.behavioral_us", _us([_timed(lambda: behavioral.search_text(t, k=k)) for t in texts]),
                  "us", "behavioral.search_text")

    profiles = [task_profile_vector(behavioral.probes, domains)
                for domains in map(extract_query_domains, texts) if domains]
    report.metric("index.query_us", _us([_timed(lambda: index.query(p, k=k)) for p in profiles]),
                  "us", "behavioral index.query")
    per_row = []
    for first in range(0, len(profiles) - batch_rows + 1, batch_rows):
        block = np.stack(profiles[first:first + batch_rows])
        per_row.append(_timed(lambda: index.query_batch(block, k=k)) / batch_rows)
    report.metric("index.query_batch_us_per_row", _us(per_row), "us",
                  f"behavioral index.query_batch, {batch_rows} rows per call")
    report.metric("index.rows", float(len(index)), "count", "rows in the behavioral index")
