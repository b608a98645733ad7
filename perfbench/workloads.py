"""The benchmark's workloads: corpus, server flags and seeded request streams.

Every input is derived from the workload seed alone — the corpus (via
``repro.data.synthetic.generate_corpus``), the hot key set, the Poisson
schedule and the ingest deltas — so the same seed always sends the same
bytes.  The server only ever sees the generated corpus file and requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from loadgen import Request, poisson_times

CATEGORY = "Cellphone"
SCALE = 1.0
#: Distinct keys of the hot read set: far below the server's 256-entry
#: result cache, so after warm-up every hot read is a cache hit.
HOT_KEYS = 24
HOT_TARGETS = 8
#: Hot keys that are ``/v1/narrow`` (TargetHkS on top of the selection,
#: default fallback stages), so the graph layer is on the path.
HOT_NARROW_KEYS = 3
ZIPF_S = 1.1
#: Hot keys use budgets m in 2..6: an evicted hot key re-solves in ~15 ms
#: instead of the ~45 ms an m=10 solve takes, which keeps ingest_mix below
#: saturation on two connections.
HOT_MAX_M = 6
COLD_MUS = (0.05, 0.1, 0.2, 0.4)
COLD_NARROW_SHARE = 0.1
ALGORITHMS = ("CompaReSetS", "CompaReSetS+")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    keys: str  # "hot" | "cold"
    read_rate: float  # offered reads per second in the measured phase
    write_rate: float  # offered ingest deltas per second mixed into it
    durable: bool  # --state-dir (WAL + snapshots)
    shards: int
    latency_limit_ms: float
    limit_reason: str
    ladder: tuple[float, ...]  # offered read rates for --ladder

    def serve_args(self, corpus: str, state_dir: str) -> list[str]:
        args = ["serve", "--corpus", corpus, "--port", "0"]
        if self.durable or self.shards > 1:
            # Cluster mode keeps per-shard WALs too; pointing them at the
            # run's own directory keeps every write inside the checkout.
            args += ["--state-dir", state_dir]
        if self.shards > 1:
            args += ["--shards", str(self.shards)]
        return args


_CACHED_LIMIT = (
    "cached reads: the 10 ms p99 docs/ROBUSTNESS.md sets for answers that "
    "skip all solve work (a shed); a cache hit skips it too"
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hot_read",
            why="Zipf reads over 24 pre-warmed keys on one process: http, "
            "transport, admission and cache do the work, the solver none",
            keys="hot", read_rate=30.0, write_rate=0.0, durable=False, shards=1,
            latency_limit_ms=10.0, limit_reason=_CACHED_LIMIT,
            ladder=(10.0, 20.0, 30.0, 40.0),
        ),
        Workload(
            name="cold_select",
            why="every read a distinct key over all targets (10% narrow): "
            "solver stages and graph narrowing do the work, http little",
            keys="cold", read_rate=9.0, write_rate=0.0, durable=False, shards=1,
            latency_limit_ms=150.0,
            limit_reason="cold solves: about three times the ~45 ms an m=10 "
            "solve takes at the seed",
            ladder=(5.0, 10.0, 15.0, 20.0),
        ),
        Workload(
            name="ingest_mix",
            why="hot reads plus 15% durable 1-3 review ingests on the same "
            "skew: writes fsync the WAL, patch artifacts and evict hot keys",
            keys="hot", read_rate=8.0, write_rate=1.4, durable=True, shards=1,
            latency_limit_ms=10.0, limit_reason=_CACHED_LIMIT,
            ladder=(8.0, 16.0, 22.5, 30.0),
        ),
        Workload(
            name="cluster_read",
            why="the hot_read stream at 240 reads/s through the asyncio gateway "
            "and 2 shard workers: serve.cluster does the work, the solver none "
            "(all cache hits)",
            # 240 rather than 120 reads/s: with less idle time between
            # requests the p50 moved less when other guests loaded the host
            # (README.md, "Host noise").
            keys="hot", read_rate=240.0, write_rate=0.0, durable=False, shards=2,
            latency_limit_ms=10.0, limit_reason=_CACHED_LIMIT,
            ladder=(60.0, 120.0, 240.0, 480.0),
        ),
    )
}


def instances(corpus) -> dict[str, set[str]]:
    """Viable targets under the server's default request, with the product
    ids of each one's instance (the target and its comparative items)."""
    from repro.data.instances import build_instance

    found = {}
    for product in corpus.products:
        instance = build_instance(
            corpus, product.product_id, max_comparisons=10, min_reviews=3
        )
        if instance is not None:
            found[product.product_id] = {p.product_id for p in instance.products}
    return found


def _read(key: tuple) -> tuple[str, dict]:
    """``key`` is (endpoint, target, m, mu, algorithm)."""
    endpoint, target, m, mu, algorithm = key
    body = {"target": target, "m": m, "mu": mu, "algorithm": algorithm}
    if endpoint == "narrow":
        body["k"] = 3
    return f"/v1/{endpoint}", body


def hot_targets(rng: random.Random, members: dict[str, set[str]]) -> list[str]:
    """HOT_TARGETS seeded targets, none inside another one's instance.

    An ingest for a hot target then evicts exactly that target's hot keys
    (the cache tags an entry with every product of its instance), so every
    seed gets the same eviction pattern.  Should a corpus offer too few
    such targets, the rest are drawn without the condition.
    """
    pool = sorted(members)
    rng.shuffle(pool)
    chosen: list[str] = []
    covered: set[str] = set()
    for target in pool:
        if target not in covered and not members[target] & set(chosen):
            chosen.append(target)
            covered |= members[target]
        if len(chosen) == HOT_TARGETS:
            return chosen
    return chosen + [t for t in pool if t not in chosen][: HOT_TARGETS - len(chosen)]


def hot_keys(targets: list[str]) -> list[tuple]:
    """The hot key set, most popular first (Zipf rank = list position).

    Budgets cycle through 2..HOT_MAX_M by rank and the narrow keys take the
    least popular ranks, so every seed gets the same mix of solve costs.
    Rank r gets target r mod 8 and budget 2 + r mod 5, so all 24 differ.
    """
    keys: list[tuple] = []
    for rank in range(HOT_KEYS):
        endpoint = "narrow" if rank >= HOT_KEYS - HOT_NARROW_KEYS else "select"
        m = 2 + rank % (HOT_MAX_M - 1)
        keys.append((endpoint, targets[rank % len(targets)], m, 0.1, "CompaReSetS+"))
    return keys


def zipf_weights(n: int) -> list[float]:
    return [1.0 / (rank + 1) ** ZIPF_S for rank in range(n)]


def cold_keys(rng: random.Random, targets: list[str], count: int) -> list[tuple]:
    """``count`` distinct keys: uniform target, m in 2..10, a few mus."""
    keys: list[tuple] = []
    seen = set()
    while len(keys) < count:
        endpoint = "narrow" if rng.random() < COLD_NARROW_SHARE else "select"
        key = (endpoint, rng.choice(targets), rng.randint(2, 10),
               rng.choice(COLD_MUS), rng.choice(ALGORITHMS))
        if key not in seen:
            seen.add(key)
            keys.append(key)
    return keys


class DeltaMaker:
    """Fresh 1-3 review deltas, copies of a product's own reviews.

    Copying the product's reviews keeps the delta inside the instance's
    aspect vocabulary, the case the store patches in place.
    """

    def __init__(self, corpus, seed: int) -> None:
        self.corpus = corpus
        self.seed = seed
        self.made = 0

    def __call__(self, rng: random.Random, product_id: str) -> dict:
        from repro.serve.wal import review_record

        reviews = []
        for source in rng.sample(list(self.corpus.reviews_of(product_id)), rng.randint(1, 3)):
            record = review_record(source)
            self.made += 1
            record["review_id"] = f"pb{self.seed}-{self.made}"
            record["reviewer_id"] = "perfbench"
            reviews.append(record)
        return {"reviews": reviews}


@dataclass
class Plan:
    """Everything a run sends: warm-up requests and the measured schedule."""

    warmup: list[Request]
    schedule: list[Request]


def plan(workload: Workload, corpus, seed: int, seconds: float,
         read_rate: float | None = None) -> Plan:
    rng = random.Random(f"{workload.name}/{seed}")
    members = instances(corpus)
    targets = sorted(members)
    rate = workload.read_rate if read_rate is None else read_rate
    n_reads = round(rate * seconds)
    n_writes = round(workload.write_rate * seconds)
    deltas = DeltaMaker(corpus, seed)

    if workload.keys == "hot":
        keys = hot_keys(hot_targets(rng, members))
        read_keys = rng.choices(keys, zipf_weights(len(keys)), k=n_reads)
        warmup_keys = keys
    else:
        read_keys = cold_keys(rng, targets, n_reads)
        # Warm every target's artifacts with a key outside the measured set
        # (m=1), so measured reads pay the solve but not the artifact build.
        warmup_keys = [("select", t, 1, 0.1, "CompaReSetS+") for t in targets]
    # Writes go to products drawn with the reads' skew: the targets of
    # the read keys, as often as they are read.
    write_products = [key[1] for key in read_keys]

    kinds = ["read"] * n_reads + ["write"] * n_writes
    rng.shuffle(kinds)
    times = poisson_times(rng, len(kinds), seconds)
    schedule: list[Request] = []
    reads = iter(read_keys)
    for at, kind in zip(times, kinds):
        if kind == "read":
            key = next(reads)
            path, body = _read(key)
            schedule.append(Request(at, "read", path, body, key))
        else:
            product = rng.choice(write_products)
            schedule.append(Request(at, "write", "/v1/ingest", deltas(rng, product)))
    warmup = [Request(0.0, "read", *_read(key), key) for key in warmup_keys]
    return Plan(warmup=warmup, schedule=schedule)
