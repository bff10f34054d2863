"""Tests for the benchmark's own helpers.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest servebench/tests -q
"""

from __future__ import annotations

import itertools
import os
import random
import socketserver
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from loadgen import FramingError, LoadGenerator, ResponseParser  # noqa: E402
from stats import (  # noqa: E402
    covered, median_rate, ndcg_at_k, percentile, phase_rates, self_times,
)
from workloads import WORKLOADS, QueryStream, encode_request, requests  # noqa: E402


# -- query stream -----------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_query_stream_is_deterministic_per_seed(name):
    workload = WORKLOADS[name]
    first = list(itertools.islice(QueryStream(workload, 7).lane("closed"), 300))
    again = list(itertools.islice(QueryStream(workload, 7).lane("closed"), 300))
    other = list(itertools.islice(QueryStream(workload, 8).lane("closed"), 300))
    assert first == again
    assert first != other


def test_small_hot_repeats_a_fixed_query_set():
    stream = QueryStream(WORKLOADS["small-hot"], 3)
    keys = list(itertools.islice(stream.lane("closed"), 3000))
    assert len(set(keys)) <= 64
    counts = sorted((keys.count(k) for k in set(keys)), reverse=True)
    assert counts[0] > 10 * counts[-1]  # Zipf skew
    assert {text for text, _, _ in keys} <= set(stream.domains)


def test_large_diverse_never_repeats_across_lanes():
    stream = QueryStream(WORKLOADS["large-diverse"], 3)
    closed = list(itertools.islice(stream.lane("closed"), 500))
    opened = list(itertools.islice(stream.lane("open"), 500))
    texts = [text for text, _, _ in closed + opened]
    assert len(set(texts)) == len(texts)
    for text in texts:
        assert 2 <= len(stream.domains[text]) <= 4


def test_requests_prebuilds_then_continues_lazily():
    stream = QueryStream(WORKLOADS["small-hot"], 1)
    lane = list(itertools.islice(stream.lane("open"), 30))
    got = list(itertools.islice(requests(stream.lane("open"), 10), 30))
    assert [key for key, _ in got] == lane
    assert all(data == encode_request(key) for key, data in got)


# -- percentiles --------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 101))
    assert percentile(samples, 0.9) == 90  # 10 samples beyond
    assert percentile(samples, 0.91) is None  # only 9 beyond
    assert percentile(list(range(1000)), 0.99) == 989
    assert percentile(list(range(999)), 0.99) is None


def test_percentile_median_and_degenerate_inputs():
    assert percentile(list(range(1, 21)), 0.5) == 10
    assert percentile(list(range(1, 20)), 0.5) is None
    assert percentile([], 0.5) is None
    assert percentile([5.0] * 50, 1.0) is None
    assert percentile([3, 1, 2] * 10, 0.5) == 2  # input order does not matter


# -- HTTP framing ---------------------------------------------------------------
def _response(body: bytes, status: int = 200) -> bytes:
    return (f"HTTP/1.1 {status} OK\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n").encode() + body


def test_framing_pipelined_responses_in_one_read():
    parser = ResponseParser()
    data = _response(b'{"a": 1}') + _response(b"", 404) + _response(b"xyz", 503)
    assert parser.feed(data) == [(200, b'{"a": 1}'), (404, b""), (503, b"xyz")]
    assert parser.feed(_response(b"next")) == [(200, b"next")]  # nothing left over


def test_framing_split_reads_byte_by_byte():
    parser = ResponseParser()
    data = _response(b'{"results": []}') * 2
    out = []
    for i in range(len(data)):
        out += parser.feed(data[i:i + 1])
    assert out == [(200, b'{"results": []}')] * 2


def test_framing_split_inside_header_and_body():
    parser = ResponseParser()
    data = _response(b"0123456789") + _response(b"abc")
    assert parser.feed(data[:20]) == []
    cut = len(_response(b"0123456789")) - 3
    assert parser.feed(data[20:cut]) == []
    assert parser.feed(data[cut:]) == [(200, b"0123456789"), (200, b"abc")]


@pytest.mark.parametrize("data", [
    b"garbage\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Type: x\r\n\r\n",
])
def test_framing_rejects_malformed(data):
    with pytest.raises(FramingError):
        ResponseParser().feed(data)


# -- sub-window throughput ----------------------------------------------------------
def test_phase_rates_count_only_completions_inside_each_phase():
    done = [i * 0.01 for i in range(110)]  # 100/s; the last 0.1 s drains after the phase
    assert phase_rates(done, [(0.0, 0.5), (0.5, 1.0)]) == [100.0, 100.0]
    assert phase_rates(done, [(0.0, 0.25)]) == [100.0]


def test_median_rate_ignores_one_stall():
    done = [i * 0.01 for i in range(200) if not 50 <= i < 75]  # 0.25 s stall
    phases = [(i * 0.25, (i + 1) * 0.25) for i in range(8)]
    assert min(phase_rates(done, phases)) == 0.0
    assert median_rate(done, phases) == 100.0


def test_median_rate_spans_phases_of_any_length():
    done = [i * 0.01 for i in range(100)] + [10 + i * 0.005 for i in range(100)]
    phases = [(0.0, 1.0), (10.0, 10.25), (10.25, 10.5)]
    assert phase_rates(done, phases) == [100.0, 200.0, 200.0]
    assert median_rate(done, phases) == 200.0
    assert median_rate([], []) == 0.0


# -- span self time ----------------------------------------------------------------
def _span(span_id, parent_id, start, duration, name="s"):
    return {"span_id": span_id, "parent_id": parent_id, "start_unix": start,
            "duration": duration, "name": name}


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(1, 3), (2, 5), (7, 8)]) == 5
    assert covered([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 2.0),    # [1, 3]
        _span(3, 1, 2.0, 3.0),    # [2, 5] overlaps the first child
        _span(4, 1, 8.0, 4.0),    # [8, 12] clipped to the parent's end
        _span(5, 2, 1.5, 1.0),    # grandchild: only counts against span 2
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - (4 + 2))
    assert own[2] == pytest.approx(2 - 1)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(4.0)


def test_self_time_of_orphans_is_their_duration():
    own = self_times([_span(7, 99, 0.0, 2.5)])  # parent not in the window
    assert own == {7: 2.5}


# -- nDCG -------------------------------------------------------------------------
def test_ndcg_orders_by_share_of_relevant_domains():
    relevant = {"legal": {"a", "b"}, "code": {"a", "c"}}
    domains = ("legal", "code")
    candidates = ["a", "b", "c", "d"]
    assert ndcg_at_k(["a", "b", "c"], domains, relevant, candidates, k=3) == pytest.approx(1.0)
    assert ndcg_at_k(["d", "c", "b", "a"], domains, relevant, candidates, k=4) < 0.7
    assert ndcg_at_k(["a"], ("news",), relevant, candidates) is None  # nothing relevant


# -- load generator against a toy server ----------------------------------------------
class _Handler(socketserver.BaseRequestHandler):
    """Answers each request with ``ok``, split over two writes."""

    def handle(self):
        buffer = b""
        while True:
            chunk = self.request.recv(4096)
            if not chunk:
                return
            buffer += chunk
            while b"\r\n\r\n" in buffer:
                _, buffer = buffer.split(b"\r\n\r\n", 1)
                reply = _response(b'"ok"')
                self.request.sendall(reply[:7])
                self.request.sendall(reply[7:])


@pytest.fixture
def toy_port():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _lane():
    return requests(QueryStream(WORKLOADS["small-hot"], 1).lane("closed"), 100)


def test_closed_loop_accounts_every_request(toy_port):
    with LoadGenerator(toy_port, connections=2) as gen:
        result = gen.closed_loop(_lane(), 0.2)
    assert result.attempted == len(result.samples) > 10
    assert result.failed == 0
    assert all(s.body == b'"ok"' and s.latency > 0 for s in result.samples)


def test_open_loop_pipelines_on_schedule(toy_port):
    with LoadGenerator(toy_port, connections=2) as gen:
        result = gen.open_loop(_lane(), 400.0, random.Random(1), 0.25)
    assert result.attempted == len(result.ok) > 30
    assert result.failed == 0
    assert all(s.lateness >= 0 for s in result.samples)


def test_hangup_counts_outstanding_as_failed():
    class Rude(socketserver.BaseRequestHandler):
        def handle(self):
            self.request.recv(4096)  # read a request, then hang up

    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Rude)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with LoadGenerator(server.server_address[1], connections=1) as gen:
            result = gen.closed_loop(_lane(), 0.1)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert result.failed == result.attempted > 0
    assert result.ok == []
