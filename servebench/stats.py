"""Small statistics helpers: percentiles, windowed throughput, span self time, nDCG."""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile (0 < q < 1) by the nearest-rank rule.

    Returns ``None`` unless at least :data:`MIN_TAIL_SAMPLES` samples lie
    strictly beyond it, so a reported p99 always rests on ten or more
    slower requests (and a median on at least twenty samples).
    """
    n = len(samples)
    if n == 0 or not 0 < q < 1:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(samples)[rank - 1]


def phase_rates(done_times: Iterable[float],
                phases: Sequence[Tuple[float, float]]) -> List[float]:
    """Completions per second inside each ``(start, end)`` phase, a sub-window of the run."""
    times = sorted(done_times)
    return [(bisect.bisect_left(times, end) - bisect.bisect_left(times, start)) / (end - start)
            for start, end in phases]


def median_rate(done_times: Iterable[float], phases: Sequence[Tuple[float, float]]) -> float:
    """Median phase throughput: one host stall moves one phase, not the run."""
    rates = phase_rates(done_times, phases)
    return statistics.median(rates) if rates else 0.0


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Mapping]) -> Dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Spans are trace records with ``span_id``, ``parent_id``,
    ``start_unix`` and ``duration``; children are clipped to the parent.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span["span_id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span.get("parent_id"))
        if parent is None:
            continue
        lo = max(span["start_unix"], parent["start_unix"])
        hi = min(span["start_unix"] + span["duration"],
                 parent["start_unix"] + parent["duration"])
        if hi > lo:
            children.setdefault(parent["span_id"], []).append((lo, hi))
    return {
        span_id: span["duration"] - covered(children.get(span_id, ()))
        for span_id, span in by_id.items()
    }


def relevance(model_id: str, domains: Sequence[str],
              relevant: Mapping[str, Set[str]]) -> float:
    """Share of the query's domains on which the model is truly competent."""
    if not domains:
        return 0.0
    return sum(model_id in relevant.get(d, ()) for d in domains) / len(domains)


def ndcg_at_k(ranked: Sequence[str], domains: Sequence[str],
              relevant: Mapping[str, Set[str]], candidates: Iterable[str],
              k: int = 10) -> Optional[float]:
    """nDCG@k of one ranking; ``None`` when no candidate is relevant at all."""
    gains = [relevance(m, domains, relevant) for m in ranked[:k]]
    ideal = sorted((relevance(m, domains, relevant) for m in candidates), reverse=True)[:k]
    idcg = sum(g / math.log2(i + 2) for i, g in enumerate(ideal))
    if idcg == 0:
        return None
    return sum(g / math.log2(i + 2) for i, g in enumerate(gains)) / idcg

