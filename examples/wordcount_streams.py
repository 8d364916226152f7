#!/usr/bin/env python3
"""WordCount on the Kafka-Streams-like stack (§5.2), both planes.

Data plane: random Zipf sentences → topic → per-partition word counters
kept in real LSM stores (flushed/compacted), verified against a
reference reduction.  Control plane: the single-node fluid benchmark,
baseline vs mitigated, reproducing Figure 17's comparison.

Run:  python examples/wordcount_streams.py
"""

from repro.api import (
    LSMOptions,
    LSMStore,
    MitigationPlan,
    build_scenario_job,
    render_tails,
    scenario,
)
from repro.stream.kafka import KafkaBroker
from repro.workloads import SentenceGenerator, count_words

PARTITIONS = 4
SENTENCES = 400


def main():
    print("== data plane: sentences -> kafka -> LSM word counters ==")
    generator = SentenceGenerator(vocabulary_size=500, seed=3)
    broker = KafkaBroker()
    topic = broker.create_topic("lines", partitions=PARTITIONS)
    records = list(generator.sentences(SENTENCES))
    for record in records:
        topic.produce(record)

    stores = [LSMStore(LSMOptions(), name=f"count/{p}") for p in range(PARTITIONS)]
    for partition in topic.partitions:
        store = stores[partition.index]
        for record in partition.read(0, max_records=10**9):
            for word in record.value.decode().split():
                key = word.encode()
                current = store.get(key)
                store.put(key, str(int(current) + 1 if current else 1).encode())
        flush = store.begin_flush(now=0.0)
        if flush is not None:
            store.finish_flush(flush, now=0.0)
        while True:
            compaction = store.pick_compaction(now=0.0)
            if compaction is None:
                break
            store.finish_compaction(compaction, now=0.0)

    counted = {}
    for store in stores:
        for word, count in store.scan():
            counted[word.decode()] = counted.get(word.decode(), 0) + int(count)
    reference = count_words(records)
    assert counted == reference, "LSM counts diverge from reference!"
    top = sorted(counted.items(), key=lambda kv: -kv[1])[:8]
    print(f"counted {sum(counted.values())} words, {len(counted)} distinct; "
          f"LSM counts == reference reduction")
    print("top words:", ", ".join(f"{w}={c}" for w, c in top))

    print("\n== control plane: Figure 17's comparison ==")
    tails = {}
    for name, plan in (("baseline", None), ("solution", MitigationPlan.paper_solution())):
        job = build_scenario_job(
            scenario("baseline_wordcount", mitigation=plan), seed=2
        )
        result = job.run(160.0)
        tails[name] = result.tail_summary(start=40.0)
    print(render_tails(tails))


if __name__ == "__main__":
    main()
