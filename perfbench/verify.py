"""Correctness: the server's answers against an in-process SelectionEngine.

A seeded sample of read responses is byte-compared (canonical JSON of the
``result`` block) with the answer an in-process engine gives on the same
corpus.  Reads that ran after some ingests are checked against the engine
after replaying exactly the acknowledged deltas that preceded them, in
ack order; the ``corpus_version`` a response carries names that point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from loadgen import Outcome

#: Read responses byte-compared per run.
SAMPLE = 48


@dataclass
class Verdict:
    checked: int = 0
    wrong: list[str] = field(default_factory=list)  # rids of wrong answers
    notes: list[str] = field(default_factory=list)


def _ack_versions(ack: dict) -> list[str]:
    """Versions a write produced: one, or one per shard in cluster mode."""
    if "shards" in ack:
        return [s["version"] for s in ack["shards"].values() if "version" in s]
    return [ack["version"]]


def _ack_order(ack: dict) -> int:
    if "delta_seq" in ack:
        return ack["delta_seq"]
    return int(ack["version"][1:].split("-", 1)[0])  # "g{N}-{digest}"


def check(corpus, outcomes: list[Outcome], initial_versions: set[str], seed: int) -> Verdict:
    from repro.serve.engine import SelectionEngine
    from repro.serve.http import encode_json, parse_request
    from repro.serve.store import ItemStore

    verdict = Verdict()
    acks: list[tuple[int, dict, Outcome]] = []
    for outcome in outcomes:
        if outcome.request.kind != "write" or not outcome.ok:
            continue
        ack = outcome.json()
        if ack.get("added") != len(outcome.request.body["reviews"]):
            verdict.wrong.append(outcome.rid)
            verdict.notes.append(f"{outcome.rid}: ack added {ack.get('added')}")
            continue
        acks.append((_ack_order(ack), ack, outcome))
    acks.sort(key=lambda item: item[0])
    position = {version: 0 for version in initial_versions}
    for index, (_, ack, _) in enumerate(acks, start=1):
        for version in _ack_versions(ack):
            position[version] = index

    reads = [o for o in outcomes if o.request.kind == "read" and o.ok]
    sample = random.Random(f"verify/{seed}").sample(reads, min(SAMPLE, len(reads)))
    pending: list[tuple[int, Outcome, dict]] = []
    for outcome in sample:
        response = outcome.json()
        version = response["provenance"]["corpus_version"]
        if version not in position:
            verdict.wrong.append(outcome.rid)
            verdict.notes.append(f"{outcome.rid}: unknown corpus_version {version}")
            continue
        pending.append((position[version], outcome, response))
    pending.sort(key=lambda item: item[0])

    engine = SelectionEngine(ItemStore(corpus))
    try:
        applied = 0
        expected_cache: dict[tuple, bytes] = {}
        for point, outcome, response in pending:
            while applied < point:
                engine.ingest_reviews(acks[applied][2].request.body["reviews"])
                applied += 1
                expected_cache.clear()
            request = outcome.request
            cache_key = (request.path, tuple(sorted(request.body.items())))
            if cache_key not in expected_cache:
                parsed = parse_request(request.body, request.path == "/v1/narrow")
                answer = (
                    engine.narrow(parsed) if request.path == "/v1/narrow"
                    else engine.select(parsed)
                )
                expected_cache[cache_key] = encode_json(answer.result)
            verdict.checked += 1
            if encode_json(response["result"]) != expected_cache[cache_key]:
                verdict.wrong.append(outcome.rid)
                verdict.notes.append(f"{outcome.rid}: result differs from in-process engine")
    finally:
        engine.close()
    return verdict
