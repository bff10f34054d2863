"""Workload definitions: the lake each workload generates and its query stream.

Everything here is a pure function of the seed.  The program under test
only ever sees the generated lake (through ``repro generate``) and the
encoded HTTP requests; it never learns which workload it is serving.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple
from urllib.parse import urlencode

#: One search request as the benchmark tracks it: (query text, k, method).
Key = Tuple[str, int, str]

K = 10

#: Words that appear on nearly every model card, so a query carrying one
#: scans a posting list as long as the lake.
FILLER_WORDS = ("model", "classifier", "text", "specialized", "best", "for")


@dataclass(frozen=True)
class Workload:
    #: ``repro generate`` arguments besides ``--dir`` and ``--seed``.
    generate_args: Tuple[str, ...]
    #: Method -> share of the query stream.
    method_mix: Tuple[Tuple[str, float], ...]
    #: Inclusive range of domains one query mentions.
    domains_per_query: Tuple[int, int]
    #: Distinct queries repeated with Zipf skew; 0 means every query is new.
    distinct_queries: int
    #: Poisson arrival rate of the open-loop phase, requests per second.
    open_rate: float


#: ``small-hot``: a 16-model flat lake where the HTTP front end and the
#: batch window dominate and Zipf repeats expose dedup or memoization.
#: ``large-diverse``: a ~790-model sharded lake where BM25 posting scans
#: and the sharded store dominate and no query repeats.  Open-loop rates
#: are about a third of closed-loop capacity on the 2-vCPU tuning host.
WORKLOADS: Dict[str, Workload] = {
    "small-hot": Workload(
        generate_args=("--foundations", "3", "--chains", "3", "--depth", "2"),
        method_mix=(("keyword", 1 / 3), ("behavioral", 1 / 3), ("hybrid", 1 / 3)),
        domains_per_query=(1, 3),
        distinct_queries=64,
        open_rate=200.0,
    ),
    "large-diverse": Workload(
        generate_args=("--foundations", "20", "--chains", "25", "--depth", "2"),
        method_mix=(("hybrid", 0.45), ("keyword", 0.4), ("behavioral", 0.15)),
        domains_per_query=(2, 4),
        distinct_queries=0,
        open_rate=100.0,
    ),
}

#: Zipf exponent of the repeated-query stream.
ZIPF_S = 1.1


def _domain_vocabulary() -> Dict[str, List[str]]:
    from repro.data.domains import DOMAIN_NAMES, get_domain

    return {name: list(get_domain(name).content_words()) for name in DOMAIN_NAMES}


def _make_query(rng: random.Random, workload: Workload,
                vocabulary: Dict[str, List[str]]) -> Tuple[Key, Tuple[str, ...]]:
    """One query and the domains it was built from."""
    low, high = workload.domains_per_query
    domains = tuple(sorted(rng.sample(sorted(vocabulary), rng.randint(low, high))))
    words: List[str] = []
    for domain in domains:
        if rng.random() < 0.5:
            words.append(domain)
        words.extend(rng.sample(vocabulary[domain], rng.randint(1, 2)))
    if rng.random() < 0.5:
        words.append(rng.choice(FILLER_WORDS))
    rng.shuffle(words)
    methods = [m for m, _ in workload.method_mix]
    weights = [w for _, w in workload.method_mix]
    method = rng.choices(methods, weights)[0]
    return (" ".join(words), K, method), domains


def _distinct(rng: random.Random, workload: Workload) -> Iterator[Tuple[Key, Tuple[str, ...]]]:
    vocabulary = _domain_vocabulary()
    seen = set()
    while True:
        key, domains = _make_query(rng, workload, vocabulary)
        if key[0] not in seen:
            seen.add(key[0])
            yield key, domains


class QueryStream:
    """The deterministic query stream of one workload and seed.

    ``lane(name)`` gives the request sequence of one kind of load phase.
    Lanes are independent sequences, so how many requests one phase
    completes never changes what another sends.  On a workload without
    repeats the lanes take interleaved items of one sequence of distinct
    queries, so no query is sent twice to one server.
    """

    LANES = ("closed", "open", "warmup")

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        #: Query text -> the domains it was built from (for nDCG).
        self.domains: Dict[str, Tuple[str, ...]] = {}
        self._hot: List[Key] = []
        if workload.distinct_queries:
            source = _distinct(random.Random(f"{seed}:hot"), workload)
            for key, domains in itertools.islice(source, workload.distinct_queries):
                self._hot.append(key)
                self.domains[key[0]] = domains

    def lane(self, name: str) -> Iterator[Key]:
        index = self.LANES.index(name)
        if self._hot:
            rng = random.Random(f"{self.seed}:{name}")
            weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(self._hot))]
            while True:
                yield from rng.choices(self._hot, weights, k=256)
        source = _distinct(random.Random(f"{self.seed}:distinct"), self.workload)
        for key, domains in itertools.islice(source, index, None, len(self.LANES)):
            self.domains[key[0]] = domains
            yield key


def encode_request(key: Key) -> bytes:
    """The exact bytes sent for one search (HTTP/1.1, keep-alive)."""
    text, k, method = key
    target = "/search?" + urlencode({"q": text, "k": k, "method": method})
    return f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")


def requests(lane: Iterator[Key], prebuilt: int) -> Iterator[Tuple[Key, bytes]]:
    """A lane as encoded requests: the first ``prebuilt`` encoded up front.

    Should a run outpace the prebuilt part, the rest is encoded on demand.
    """
    cache: Dict[Key, bytes] = {}
    head = []
    for key in itertools.islice(lane, prebuilt):
        data = cache.get(key)
        if data is None:
            data = cache[key] = encode_request(key)
        head.append((key, data))
    return itertools.chain(head, ((key, encode_request(key)) for key in lane))


def generate_argv(workload: Workload, lake_dir: str, seed: int) -> List[str]:
    """``repro`` argv that generates this workload's lake."""
    return ["generate", "--dir", lake_dir, "--seed", str(seed), *workload.generate_args]

