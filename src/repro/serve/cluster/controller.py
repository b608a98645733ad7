"""Cluster lifecycle: partition, spawn supervised shards, run the gateway.

:class:`ServingCluster` is the one piece that knows the whole topology.
Given a corpus path, a shard count, and a replication factor it:

1. builds the :class:`~repro.serve.cluster.ring.HashRing` and partitions
   the corpus with ``replicas`` copies of every key range (deterministic
   for a fixed ``(shards, vnodes, seed, replicas)``, so a restart over
   the same state dir re-derives the same partition and every shard's
   snapshots/WAL still match its sub-corpus);
2. writes each shard's sub-corpus to ``<state_dir>/shard-{i}/corpus.jsonl``
   and starts one :class:`~repro.serve.supervisor.Supervisor` per shard
   with the framed-socket child entry point
   (:func:`~repro.serve.cluster.worker.shard_child_main`) — crash
   restarts, backoff, and same-port rebinds all come from PR 6's
   machinery unchanged;
3. runs a :class:`~repro.serve.cluster.gateway.ClusterGateway` on a
   dedicated asyncio event-loop thread, wired with a durable
   :class:`~repro.serve.cluster.hints.HintQueue`, an ingest journal
   (the WAL every acknowledged delta lands in — the replay stream for
   live resizes), and a ``shard_alive`` probe over the supervisors so
   hint drain targets only recovered shards.

The controller is also the chaos harness's handle on the cluster:
:meth:`kill_shard` SIGKILLs one worker mid-traffic and the supervisor
brings it back through snapshot+WAL recovery; with ``replicas >= 2``
the gateway meanwhile serves the victim's keys from replicas and queues
ingest hints, so the blast radius is latency, not availability.

:meth:`resize` changes the shard count **live**: fresh workers are
partitioned from ``HashRing.resized``, bulk-fed from the journal while
traffic keeps flowing, caught up under a brief ingest stall (503 +
``Retry-After`` — reads never pause; in-flight ingests are drained
first so every acknowledged delta is in the journal the catch-up pass
reads), and the gateway's topology is
flipped atomically under a generation token before the workers that
lost their ownership are drained and stopped.  Only key ranges that
moved are streamed: the preference-list's stability under growth means
a surviving shard never *gains* keys when the ring grows, so growth
streams data solely to the new shards; on shrink, survivors that do
gain ranges are replaced by new-generation workers built the same way.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from tempfile import mkdtemp

from repro.data.corpus import Corpus
from repro.data.io import load_corpus, save_corpus
from repro.serve.admission import AdmissionController
from repro.serve.cluster.gateway import ClusterGateway, ShardClient
from repro.serve.cluster.hints import HintQueue
from repro.serve.cluster.ring import HashRing, PartitionPlan, partition_corpus
from repro.serve.cluster.worker import shard_child_main
from repro.serve.jitter import RetryJitter
from repro.serve.supervisor import RestartPolicy, Supervisor
from repro.serve.wal import WriteAheadLog

logger = logging.getLogger(__name__)


@dataclass
class ClusterConfig:
    """Everything needed to boot one cluster.

    ``state_dir=None`` uses a throwaway temp directory — durability
    still works within the process lifetime (crash restarts recover),
    it just does not survive the controller itself.  ``engine_options``
    are per-shard :class:`SelectionEngine` kwargs plus the admission
    knobs (``max_pending``/``rate_limit``/``rate_burst``) the worker
    resolves itself.  ``replicas`` is the preference-list length: every
    key lives on that many shards, reads fail over along the list, and
    ingest hints are queued (up to ``hint_limit`` per shard) for
    unreachable members.  ``resize_grace`` is how long old workers stay
    up after a topology flip so in-flight requests that captured the
    previous epoch can finish.
    """

    corpus_path: str | Path
    shards: int = 2
    host: str = "127.0.0.1"
    gateway_port: int = 0
    state_dir: str | Path | None = None
    vnodes: int = 64
    ring_seed: int = 7
    engine_options: dict = field(default_factory=dict)
    max_pending: int = 256
    rate_limit: float | None = None
    rate_burst: float | None = None
    restart_policy: RestartPolicy | None = None
    ready_timeout: float = 60.0
    pool_size: int = 8
    jitter_seed: int | None = None
    replicas: int = 1
    hint_limit: int = 512
    hint_drain_interval: float = 0.25
    resize_grace: float = 0.5


class ClusterError(RuntimeError):
    """The cluster could not be assembled, started, or resized."""


class ServingCluster:
    """A running gateway + shard fleet; use as a context manager.

    ``start()`` is synchronous and returns once every shard reported
    ready and the gateway is bound; the asyncio loop keeps running on a
    daemon thread until :meth:`stop`.
    """

    def __init__(self, config: ClusterConfig) -> None:
        if config.shards < 1:
            raise ClusterError(f"shards must be >= 1, got {config.shards}")
        if not 1 <= config.replicas <= config.shards:
            raise ClusterError(
                f"replicas must be in [1, {config.shards}], "
                f"got {config.replicas}"
            )
        self.config = config
        self.corpus: Corpus | None = None
        self.ring: HashRing | None = None
        self.plan: PartitionPlan | None = None
        self.supervisors: list[Supervisor] = []
        self.gateway: ClusterGateway | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._server: asyncio.base_events.Server | None = None
        self._bound: tuple[str, int] | None = None
        self._state_dir: Path | None = None
        self._hints: HintQueue | None = None
        self._journal: WriteAheadLog | None = None
        self._jitter: RetryJitter | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServingCluster":
        config = self.config
        self.corpus = load_corpus(config.corpus_path)
        self.ring = HashRing(
            config.shards, vnodes=config.vnodes, seed=config.ring_seed
        )
        self.plan = partition_corpus(self.corpus, self.ring, config.replicas)
        self._state_dir = Path(
            config.state_dir
            if config.state_dir is not None
            else mkdtemp(prefix="repro-cluster-")
        )
        self._state_dir.mkdir(parents=True, exist_ok=True)
        try:
            self._start_shards()
            self._start_gateway()
        except Exception:
            self.stop()
            raise
        return self

    def _spawn_shard(self, shard: int, plan: PartitionPlan, shard_dir: Path) -> Supervisor:
        """Write a shard's sub-corpus and start its supervised worker."""
        shard_dir.mkdir(parents=True, exist_ok=True)
        corpus_file = shard_dir / "corpus.jsonl"
        # Deterministic partition: rewriting on every boot is
        # idempotent for an unchanged corpus + ring, and a changed
        # one *should* replace the file (the WAL/snapshots carry the
        # shard's own delta history on top).
        save_corpus(plan.corpora[shard], corpus_file)
        supervisor = Supervisor(
            shard_dir,
            corpus_path=corpus_file,
            host=self.config.host,
            port=0,
            policy=self.config.restart_policy or RestartPolicy(),
            ready_timeout=self.config.ready_timeout,
            engine_options=dict(self.config.engine_options),
            child_main=shard_child_main,
        )
        supervisor.start()
        return supervisor

    def _start_shards(self) -> None:
        assert self.plan is not None
        for shard in range(self.config.shards):
            self.supervisors.append(
                self._spawn_shard(
                    shard, self.plan, self._state_dir / f"shard-{shard}"
                )
            )
        for shard, supervisor in enumerate(self.supervisors):
            try:
                supervisor.wait_ready(self.config.ready_timeout)
            except Exception as exc:
                raise ClusterError(f"shard {shard} failed to start: {exc}") from exc

    def _start_gateway(self) -> None:
        assert self.corpus is not None and self.plan is not None
        loop = asyncio.new_event_loop()
        self._loop = loop
        self._loop_thread = threading.Thread(
            target=loop.run_forever, name="repro-gateway-loop", daemon=True
        )
        self._loop_thread.start()

        jitter = (
            RetryJitter(seed=self.config.jitter_seed)
            if self.config.jitter_seed is not None
            else None
        )
        self._jitter = jitter
        admission = AdmissionController(
            max_pending=self.config.max_pending,
            rate=self.config.rate_limit,
            burst=self.config.rate_burst,
            jitter=jitter,
        )
        gateway_dir = self._state_dir / "gateway"
        gateway_dir.mkdir(parents=True, exist_ok=True)
        # Both survive a controller restart over the same state dir:
        # undelivered hints resume draining and the journal keeps its
        # full acked-delta history for future resizes.
        self._hints = HintQueue(
            gateway_dir, max_per_shard=self.config.hint_limit
        )
        self._journal = WriteAheadLog(gateway_dir / "journal.wal")
        supervisors = self.supervisors

        def _build() -> ClusterGateway:
            clients = [
                ShardClient(
                    shard,
                    self.config.host,
                    # Read the port through the supervisor on every dial:
                    # it is stable across restarts (same-port rebind) but
                    # only known once the first child reports ready.
                    (lambda s=supervisors[shard]: s.port),
                    pool_size=self.config.pool_size,
                    jitter=jitter,
                )
                for shard in range(self.config.shards)
            ]
            return ClusterGateway(
                self.corpus,
                self.plan,
                self.ring,
                clients,
                admission=admission,
                jitter=jitter,
                restart_total=lambda: sum(s.restarts for s in supervisors),
                hints=self._hints,
                journal=self._journal,
                # The list object is shared and mutated in place by
                # resize(), so this probe always sees the live fleet.
                shard_alive=(
                    lambda shard: 0 <= shard < len(supervisors)
                    and supervisors[shard].is_alive()
                ),
                hint_drain_interval=self.config.hint_drain_interval,
            )

        async def _boot() -> tuple[ClusterGateway, asyncio.base_events.Server]:
            gateway = _build()
            server = await gateway.start(
                self.config.host, self.config.gateway_port
            )
            return gateway, server

        future = asyncio.run_coroutine_threadsafe(_boot(), loop)
        self.gateway, self._server = future.result(timeout=30.0)
        sock = self._server.sockets[0]
        self._bound = sock.getsockname()[:2]

    def stop(self) -> None:
        """Stop the gateway, then terminate every shard (idempotent)."""
        loop = self._loop
        if loop is not None and self._server is not None:
            server = self._server
            gateway = self.gateway

            async def _shutdown() -> None:
                server.close()
                # Open keep-alive connections first: the server's
                # wait_closed() may wait for them to end.
                if gateway is not None:
                    await gateway.aclose()
                await server.wait_closed()

            try:
                asyncio.run_coroutine_threadsafe(_shutdown(), loop).result(10.0)
            except Exception:
                # The shards and files below still get released; the
                # failure is reported, not swallowed.
                logger.exception("cluster gateway shutdown failed")
            self._server = None
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
            if self._loop_thread is not None:
                self._loop_thread.join(10.0)
            loop.close()
            self._loop = None
            self._loop_thread = None
        for supervisor in self.supervisors:
            supervisor.stop()
        self.supervisors = []
        if self._hints is not None:
            self._hints.close()
            self._hints = None
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    # -- live resize ---------------------------------------------------------

    def _on_loop(self, coro, timeout: float = 30.0):
        assert self._loop is not None
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    def resize(self, n_shards: int) -> dict:
        """Resize the live cluster to ``n_shards`` without stopping it.

        Sequence: spawn fresh workers from the resized ring's partition
        → bulk-replay the ingest journal into them (traffic untouched)
        → stall ingest (503 + ``Retry-After``; reads keep flowing) and
        drain the ingests already in flight so their journal appends
        land → catch-up replay → atomic topology flip under a new
        generation → resume ingest → grace period → stop workers that
        lost their ownership.  Requests observe only {200, 429,
        503+Retry-After} throughout, and never a wrong-shard answer:
        every request routes against one immutable topology snapshot.

        Returns ``{"generation", "fresh", "dropped", "replayed_upto"}``.
        On failure the old topology stays in force and fresh workers are
        torn down.
        """
        config = self.config
        if (
            self.corpus is None
            or self.plan is None
            or self.ring is None
            or self.gateway is None
            or self._loop is None
        ):
            raise ClusterError("cluster is not started")
        if n_shards < 1:
            raise ClusterError(f"shards must be >= 1, got {n_shards}")
        if config.replicas > n_shards:
            raise ClusterError(
                f"cannot resize to {n_shards} shards with "
                f"replicas={config.replicas}"
            )
        old_n = self.plan.shards
        if n_shards == old_n:
            return {
                "generation": self.gateway.generation,
                "fresh": [],
                "dropped": [],
                "replayed_upto": 0,
            }
        gateway = self.gateway
        new_ring = self.ring.resized(n_shards)
        new_plan = partition_corpus(self.corpus, new_ring, config.replicas)
        epoch = gateway.generation + 1

        # Fresh workers: brand-new shard ids, plus (on shrink) surviving
        # shards whose held-set *grew* — preference-list stability under
        # growth guarantees the latter never happens when growing, which
        # is why growth streams data only to the new shards.
        fresh = [
            shard
            for shard in range(n_shards)
            if shard >= old_n
            or not new_plan.held(shard) <= self.plan.held(shard)
        ]
        dropped = list(range(n_shards, old_n))

        new_supervisors: dict[int, Supervisor] = {}
        try:
            for shard in fresh:
                # Generation-suffixed dirs: a fresh worker must not
                # inherit a previous epoch's WAL/snapshots.
                new_supervisors[shard] = self._spawn_shard(
                    shard, new_plan, self._state_dir / f"shard-{shard}-g{epoch}"
                )
            for shard, supervisor in new_supervisors.items():
                supervisor.wait_ready(config.ready_timeout)

            async def _make_clients() -> dict[int, ShardClient]:
                return {
                    shard: ShardClient(
                        shard,
                        config.host,
                        (lambda s=new_supervisors[shard]: s.port),
                        pool_size=config.pool_size,
                        jitter=self._jitter,
                    )
                    for shard in fresh
                }

            fresh_clients = self._on_loop(_make_clients())
            targets = set(fresh)
            # Bulk replay with traffic flowing; only deltas acked after
            # this pass remain for the stalled catch-up below.
            replayed = self._on_loop(
                gateway.replay_journal(new_plan, fresh_clients, targets),
                timeout=600.0,
            )
        except Exception as exc:
            for supervisor in new_supervisors.values():
                supervisor.stop()
            raise ClusterError(f"resize to {n_shards} failed: {exc}") from exc

        async def _unstall() -> None:
            gateway.set_ingest_stall(False)

        old_clients = list(gateway.clients)
        try:
            # Stall *and drain*: an ingest that beat the stall check may
            # still be awaiting shard acks, and it journals only after
            # they return — the catch-up replay below must see that
            # append, or an acknowledged delta never reaches the fresh
            # workers.
            self._on_loop(gateway.stall_ingest_and_drain(), timeout=180.0)
            try:
                replayed = self._on_loop(
                    gateway.replay_journal(
                        new_plan, fresh_clients, targets, after_seq=replayed
                    ),
                    timeout=600.0,
                )

                async def _flip() -> int:
                    clients = [
                        fresh_clients[shard]
                        if shard in fresh_clients
                        else old_clients[shard]
                        for shard in range(n_shards)
                    ]
                    return gateway.swap_topology(new_ring, new_plan, clients)

                generation = self._on_loop(_flip())
            finally:
                self._on_loop(_unstall())
        except Exception as exc:
            for supervisor in new_supervisors.values():
                supervisor.stop()
            raise ClusterError(f"resize to {n_shards} failed: {exc}") from exc

        # The flip is done; let requests that captured the old topology
        # finish against the old workers before stopping them.
        time.sleep(config.resize_grace)
        retiring = [
            old_clients[shard]
            for shard in set(fresh_clients) | set(dropped)
            if shard < old_n
        ]

        async def _close_retiring() -> None:
            for client in retiring:
                await client.aclose()

        self._on_loop(_close_retiring())
        retired = [self.supervisors[shard] for shard in dropped] + [
            self.supervisors[shard] for shard in fresh if shard < old_n
        ]
        for supervisor in retired:
            supervisor.stop()
        if self._hints is not None:
            for shard in dropped:
                self._hints.drop_shard(shard)

        # In-place so the gateway's restart_total / shard_alive lambdas
        # (which captured this list object) keep seeing the live fleet.
        self.supervisors[:] = [
            new_supervisors[shard]
            if shard in new_supervisors
            else self.supervisors[shard]
            for shard in range(n_shards)
        ]
        self.ring = new_ring
        self.plan = new_plan
        return {
            "generation": generation,
            "fresh": fresh,
            "dropped": dropped,
            "replayed_upto": replayed,
        }

    # -- introspection & chaos ----------------------------------------------

    @property
    def base_url(self) -> str:
        if self._bound is None:
            raise ClusterError("cluster is not started")
        host, port = self._bound
        return f"http://{host}:{port}"

    @property
    def gateway_address(self) -> tuple[str, int]:
        if self._bound is None:
            raise ClusterError("cluster is not started")
        return self._bound

    def shard_port(self, shard: int) -> int | None:
        return self.supervisors[shard].port

    def kill_shard(self, shard: int) -> int:
        """SIGKILL one shard worker (chaos); the supervisor restarts it."""
        return self.supervisors[shard].kill()

    def restarts(self) -> list[int]:
        return [supervisor.restarts for supervisor in self.supervisors]

    def drain_hints(self) -> dict[int, int]:
        """One synchronous hint-drain pass; ``{shard: delivered}``."""
        if self.gateway is None or self._loop is None:
            raise ClusterError("cluster is not started")
        return self._on_loop(self.gateway.drain_hints())

    def check_replicas(self, product_id: str) -> dict:
        """Probe a product's replica group for divergence (read repair)."""
        if self.gateway is None or self._loop is None:
            raise ClusterError("cluster is not started")
        return self._on_loop(self.gateway.check_replicas(product_id))

    def hint_depths(self) -> dict[int, int]:
        """Pending hinted deltas per shard (empty when all caught up)."""
        if self._hints is None:
            return {}
        return {
            shard: self._hints.depth(shard)
            for shard in self._hints.shards_with_hints()
        }

    def __enter__(self) -> "ServingCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_cluster(config: ClusterConfig) -> ServingCluster:
    """Build and start a cluster in one call."""
    return ServingCluster(config).start()
