"""``search_mixed``: one closed-loop client searching beside ingest.

A ``RetrievalService`` over an ``IVFIndex`` (residual PQ codes, float
store kept for exact rerank) holding 2x10^5 items in the served int8
encoder's 32-d embedding space, built at set-up from the seed.  The
client alternates two calls:

- ``search()`` on a batch of raw-image queries drawn with Zipf skew from
  a fixed pool; an ``EmbeddingCache`` sits in front of the encoder, so
  popular queries hit;
- ``add()`` of fresh images, which always miss the cache and evict
  entries from the same LRU.

Writes run beside reads on one cache, batcher and index lock, so a gain
for search that costs ingest (or the reverse) shows.  This is the only
workload that loads the retrieval scan, rerank and ranking.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.retrieval import IVFIndex, RetrievalService
from repro.retrieval.trainer import l2_normalize
from repro.serving import EmbeddingCache, EmbeddingService, ModelRegistry

from .. import measure
from ..encoder import (
    TimedForward,
    build_int8_encoder,
    random_images,
    reference_embeddings,
)
from .base import Window, Workload

ITEMS = 200_000
#: Images whose embeddings seed the item distribution; the first
#: ``POOL`` of them are also the query pool.
BASES = 2048
POOL = 1024
ZIPF_EXPONENT = 1.1
#: Item spread around its base embedding, in units of the bases' own
#: covariance.
SPREAD = 0.3
QUERY_BATCH = 16
ADD_BATCH = 16
CACHE_CAPACITY = 256
K = 10
NUM_CELLS = 256
SUBSPACES = 16
NPROBE = 8
RERANK = 100
FIT_SAMPLE = 20_000
#: Probe queries for the recall oracle, and the floor recall@10 must
#: reach (about 0.99 at these settings on every seed tried).
RECALL_QUERIES = 256
RECALL_FLOOR = 0.95
#: Raw probe images for the search() == search_embeddings() check.
PROBE_POOL = 32
PROBE_FRESH = 32
TIMEOUT_S = 30.0
#: Searches that refill the cache after the traced run republishes.
REWARM_SEARCHES = 32
MODEL = "encoder-int8"


class SearchMixed(Workload):
    name = "search_mixed"

    def setup(self) -> None:
        self.model = build_int8_encoder()
        rng = np.random.default_rng(self.seed)
        bases = random_images(rng, BASES)
        self.pool = bases[:POOL]
        embedded = reference_embeddings(self.model, bases)
        cov = np.cov(embedded.T) + 1e-9 * np.eye(embedded.shape[1])
        noise = rng.standard_normal((ITEMS, embedded.shape[1]))
        self.items = l2_normalize(
            embedded[rng.integers(0, BASES, size=ITEMS)]
            + SPREAD * noise @ np.linalg.cholesky(cov).T)
        self.index = IVFIndex.fit(
            self.items[:FIT_SAMPLE], num_cells=NUM_CELLS,
            num_subspaces=SUBSPACES, nprobe=NPROBE, epochs=3,
            seed=self.seed, store_embeddings=True)
        self.index.add(self.items)
        self.registry = ModelRegistry()
        self.registry.publish(MODEL, self.model)
        self.cache = EmbeddingCache(capacity=CACHE_CAPACITY)
        self.service = EmbeddingService(
            self.registry, MODEL, max_batch_size=32, max_wait_ms=2.0,
            cache=self.cache, engine="eager")
        self.retrieval = RetrievalService(self.service, self.index).start()
        weights = 1.0 / np.arange(1, POOL + 1) ** ZIPF_EXPONENT
        self.zipf = weights / weights.sum()
        self.rank_to_pool = rng.permutation(POOL)
        self.traffic_rng = np.random.default_rng([self.seed, 1])
        #: (ids, images) of every add() that returned.
        self.ingested: List[Tuple[np.ndarray, np.ndarray]] = []
        self.timed: Optional[TimedForward] = None
        self.stats: List[Dict[str, float]] = []
        self._search()
        self._add()

    def _queries(self) -> np.ndarray:
        ranks = self.traffic_rng.choice(POOL, size=QUERY_BATCH, p=self.zipf)
        return self.pool[self.rank_to_pool[ranks]]

    def _search(self) -> None:
        self.retrieval.search(list(self._queries()), k=K, timeout=TIMEOUT_S,
                              rerank=RERANK)

    def _add(self) -> None:
        images = random_images(self.traffic_rng, ADD_BATCH)
        ids = self.retrieval.add(list(images), timeout=TIMEOUT_S)
        self.ingested.append((ids, images))

    def instrument(self, spans) -> None:
        super().instrument(spans)
        self.timed = TimedForward(self.model, spans)
        # Same weights under a new version; rebind the index to it and
        # refill the cache, whose keys name the version.
        entry = self.registry.publish(MODEL, self.timed)
        self.retrieval.swap_index(self.index, model_key=entry.key)
        for _ in range(REWARM_SEARCHES):
            self._search()
        spans.wrap(self.service, "embed_many", "serving.embed")
        spans.wrap(self.service.engine, "execute", "engine.execute")
        spans.wrap(self.index, "add", "retrieval.index_add")
        search_stats = self.index.search_stats

        def timed_search(*args, **kwargs):
            span = spans.begin("retrieval.index_search")
            try:
                ids, dists, stats = search_stats(*args, **kwargs)
            finally:
                spans.end(span)
            self.stats.append(dict(stats, queries=float(len(args[0]))))
            return ids, dists, stats

        self.index.search_stats = timed_search

    def _call(self, kind: str, fn, clock: measure.HostSpeed,
              starts: List[float], latencies: List[float]) -> None:
        clock.tick()
        span = self.spans.begin(kind, request=self.attempted) \
            if self.spans else None
        start = clock.now()
        try:
            fn()
        except Exception as exc:  # a failed call is counted
            self.failed += 1
            self.errors.append(repr(exc))
        else:
            starts.append(start)
            latencies.append((clock.now() - start) * 1e3)
        finally:
            if span is not None:
                self.spans.end(span)
        self.attempted += 1

    def measure(self, seconds: float) -> Window:
        calls: Dict[str, Tuple[List[float], List[float]]] = {
            "search": ([], []), "add": ([], [])}
        hits, misses = self.cache.hits, self.cache.misses
        if self.timed is not None:
            self.timed.calls.clear()
        self.stats.clear()
        clock = measure.HostSpeed()
        clock.start()
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            self._call("retrieval.search", self._search, clock,
                       *calls["search"])
            self._call("retrieval.add", self._add, clock, *calls["add"])
        wall = time.perf_counter() - start
        clock.stop()
        self.window = (wall, self.cache.hits - hits,
                       self.cache.misses - misses)
        raw = {kind: np.array(ms) for kind, (_, ms) in calls.items()}
        scaled = {kind: raw[kind] * clock.factors(at)
                  for kind, (at, _) in calls.items()}
        search_ms, add_ms = scaled["search"], scaled["add"]
        tail, pct, beyond = measure.tail(search_ms)
        images = QUERY_BATCH * len(search_ms) + ADD_BATCH * len(add_ms)
        return Window(
            e2e={
                "images_per_s":
                    images / ((search_ms.sum() + add_ms.sum()) / 1e3),
                "p50_ms": measure.p50(search_ms),
                "tail_ms": tail,
                "aux_p50_ms": measure.p50(add_ms),
            },
            notes={
                "calls": {"search": len(search_ms), "add": len(add_ms)},
                "tail": f"search p{pct:g} of {len(search_ms)}, "
                        f"{beyond} beyond",
                "aux": "add() p50 latency",
                "host_speed": f"{clock.speed():.3f} of reference over "
                              f"{len(clock.probes)} probes",
                "raw": {"images_per_s": images / wall,
                        "p50_ms": measure.p50(raw["search"]),
                        "aux_p50_ms": measure.p50(raw["add"])},
                "index_items": len(self.index),
            },
        )

    def layers(self, window: Window) -> Dict[str, float]:
        wall, hits, misses = self.window
        spans = self.spans
        queries = sum(s["queries"] for s in self.stats)
        lookups = hits + misses

        def mean(key: str) -> float:
            return float(np.mean([s[key] for s in self.stats]))

        return {
            "retrieval.embed_ms":
                spans.mean_ms("serving.embed", parent="retrieval.search"),
            "retrieval.scan_ms": 1e3 * mean("scan_s"),
            "retrieval.rerank_ms": 1e3 * mean("rerank_s"),
            "retrieval.shortlist": mean("shortlist"),
            "retrieval.cells_probed":
                sum(s["cells_probed"] for s in self.stats) / queries,
            "retrieval.add_ms": spans.mean_ms("retrieval.add"),
            "retrieval.add_embed_ms":
                spans.mean_ms("serving.embed", parent="retrieval.add"),
            "retrieval.add_index_ms": spans.mean_ms("retrieval.index_add"),
            "serving.cache_hit_ratio": hits / lookups,
            "serving.cache_lookups": float(lookups),
            "engine.execute_ms": spans.mean_ms("engine.execute"),
            **self.timed.metrics(wall),
        }

    def check(self) -> List[str]:
        problems: List[str] = []
        # 1. search() on raw probe images == search_embeddings() on their
        #    eager embeddings, ids and distances byte for byte.
        probe = np.concatenate([
            self.pool[:PROBE_POOL],
            random_images(np.random.default_rng([self.seed, 2]), PROBE_FRESH),
        ])
        expected = reference_embeddings(self.model, probe)
        ids, dists = self.retrieval.search(list(probe), k=K, rerank=RERANK,
                                           timeout=TIMEOUT_S)
        ref_ids, ref_dists = self.retrieval.search_embeddings(
            expected, k=K, rerank=RERANK)
        if ids.tobytes() != ref_ids.tobytes() or \
                dists.tobytes() != ref_dists.tobytes():
            rows = int(np.count_nonzero(
                np.any((ids != ref_ids) | (dists != ref_dists), axis=1)))
            self.failed += max(rows, 1)
            problems.append(f"search() differs from search_embeddings() on "
                            f"{rows} of {len(probe)} probe queries")
        # 2. Every ingested row is the normalized eager embedding.
        all_ids = np.concatenate([ids for ids, _ in self.ingested])
        all_images = np.concatenate([images for _, images in self.ingested])
        ingested = l2_normalize(reference_embeddings(self.model, all_images))
        stored = self.index.store.gather(all_ids)
        bad = np.any(stored != ingested.astype(np.float32), axis=1)
        if bad.any():
            self.failed += int(bad.sum())
            problems.append(f"{int(bad.sum())} ingested rows differ from "
                            f"their eager embeddings")
        # 3. recall@10 against an exact float oracle over the final index.
        corpus = np.concatenate([self.items, np.zeros_like(ingested)])
        corpus[all_ids] = ingested
        queries = l2_normalize(
            reference_embeddings(self.model, self.pool[:RECALL_QUERIES]))
        found, _ = self.retrieval.search_embeddings(queries, k=K,
                                                    rerank=RERANK)
        hits = 0
        for start in range(0, RECALL_QUERIES, 32):
            block = queries[start:start + 32]
            d = ((block ** 2).sum(1)[:, None] - 2.0 * block @ corpus.T
                 + (corpus ** 2).sum(1)[None, :])
            truth = np.argpartition(d, K, axis=1)[:, :K]
            for row, true_ids in zip(found[start:start + 32], truth):
                hits += len(set(row.tolist()) & set(true_ids.tolist()))
        self.recall = hits / (RECALL_QUERIES * K)
        if self.recall < RECALL_FLOOR:
            problems.append(f"recall@10 {self.recall:.4f} is below "
                            f"{RECALL_FLOOR}")
        self.check_note = (
            f"{len(probe)} probe searches byte-equal: {not problems}; "
            f"{len(all_ids)} ingested rows checked; "
            f"recall_at_10 {self.recall:.4f} over {RECALL_QUERIES} queries "
            f"(floor {RECALL_FLOOR})")
        return problems

    def close(self) -> None:
        # Also called after a set-up that failed part way.
        retrieval = getattr(self, "retrieval", None)
        if retrieval is not None:
            retrieval.stop()
