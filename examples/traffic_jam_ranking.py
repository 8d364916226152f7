#!/usr/bin/env python3
"""The real-time traffic-jam ranking pipeline, data plane included.

Demonstrates the full stack the benchmark abstracts:

1. the synthetic Tokyo fleet (`TrafficModel`) emits one ~6 kB event per
   car per second;
2. events are produced into a partitioned Kafka topic and routed by key;
3. street objects aggregate car counts in a real LSM store (one store
   per street partition, flushed and compacted like RocksDB);
4. the city-wide top-10 jam ranking is computed from the stores;
5. finally the fluid benchmark reports what end-to-end latency this
   deployment would see under continuous checkpointing.

Run:  python examples/traffic_jam_ranking.py
"""

import json

from repro.api import LSMOptions, LSMStore, build_scenario_job
from repro.stream.kafka import KafkaBroker
from repro.workloads import TrafficModel

PARTITIONS = 8
TICKS = 5


def main():
    print("== data plane: cars -> kafka -> street stores -> ranking ==")
    model = TrafficModel(num_cars=2000, seed=7)
    broker = KafkaBroker()
    topic = broker.create_topic("car-events", partitions=PARTITIONS)

    # One LSM store per partition, standing in for one street-stage
    # instance's RocksDB.
    stores = [
        LSMStore(LSMOptions(), name=f"streets/{p}") for p in range(PARTITIONS)
    ]

    for tick in range(TICKS):
        model.tick(1.0)
        for record in model.events(timestamp=float(tick)):
            topic.produce(record)

    # Consume each partition, updating per-street car counts.
    for partition in topic.partitions:
        store = stores[partition.index]
        for record in partition.read(0, max_records=10**9):
            event = json.loads(record.value.decode().rstrip())
            street = event["street"].encode()
            current = store.get(street)
            count = int(current) + 1 if current else 1
            store.put(street, str(count).encode())
        flush = store.begin_flush(now=0.0)
        if flush is not None:
            store.finish_flush(flush, now=0.0)

    # City-wide top-10 jam ranking (stage s2's job).
    densities = {}
    for store in stores:
        for street, count in store.scan():
            densities[street] = densities.get(street, 0) + int(count)
    ranking = sorted(densities.items(), key=lambda kv: -kv[1])[:10]
    print(f"events produced: {topic.total_records()}, streets: {len(densities)}")
    print("top-10 jammed streets (street, observations):")
    for street, count in ranking:
        print(f"  {street.decode():24s} {count}")

    print("\n== control plane: what latency does this cost? ==")
    job = build_scenario_job("baseline_traffic", seed=1)
    result = job.run(120.0)
    tails = result.tail_summary(start=40.0)
    print(
        "baseline tails: "
        + "  ".join(f"{k}={v:.2f}s" for k, v in tails.items())
    )
    print(f"flushes: {len(result.flush_spans())}, "
          f"compactions: {len(result.compaction_spans())}")


if __name__ == "__main__":
    main()
