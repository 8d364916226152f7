"""``lsm_dataplane`` — real puts and gets on the LSM store, no simulator.

Closed loop, one client: the next operation is issued when the previous
one returns, and an inline flush or compaction is charged to the batch
of 200 operations whose put triggered it.
"""

from __future__ import annotations

import random
from time import perf_counter

from ..stats import median, percentile
from . import Check, Verdict, digest_of

NAME = "lsm_dataplane"
WHY = (
    "the inverse of fig12_sweep: lsm/ does all the work through real "
    "put/get (not the engine's account() path) and sim/ none; reads sit "
    "beside writes so a write-side gain bought with deeper reads shows"
)
UNIT_SECONDS = 1.0

BATCH = 200
VALUE_BYTES = 100

#: Small buffers so every round flushes dozens of times and compacts
#: down to L2 and beyond.
KiB = 1024
OPTIONS = dict(
    write_buffer_size=128 * KiB,
    l0_compaction_trigger=4,
    max_bytes_for_level_base=512 * KiB,
    target_file_size=128 * KiB,
    wal_enabled=True,
)

#: keys, write puts, read gets, hit-only gets, miss-only gets, mixed
#: ops, puts after the snapshot (kept below one memtable: a flush would
#: drop their WAL segment and the replay could not bring them back).
FULL = dict(keys=20000, writes=40000, reads=20000, hits=4000, misses=4000,
            mixed=20000, wal=400)
SMALL = dict(keys=2000, writes=4000, reads=2000, hits=400, misses=400,
             mixed=2000, wal=100)


#: Sample lists a round collects per batch / per event, and the numbers
#: it yields once.
PER_BATCH = ("put_us", "get_us", "hit_us", "miss_us", "flush_ms", "compaction_ms")
PER_ROUND = ("mixed_kops", "snapshot_restore_ms", "wal_replay_ms")


def _batches(ops: list) -> list:
    return [ops[i:i + BATCH] for i in range(0, len(ops), BATCH)]


def build(seed: int, small: bool) -> dict:
    import numpy as np

    from repro import api

    size = SMALL if small else FULL
    rng = random.Random(seed)
    nkeys = size["keys"]
    keys = [b"k%07d" % i for i in range(nkeys)]
    pool = [rng.randbytes(VALUE_BYTES - 8) for _ in range(256)]
    serial = iter(range(10**8))

    def value() -> bytes:
        return pool[rng.randrange(256)] + b"%08d" % next(serial)

    def miss() -> bytes:
        return b"m%07d" % rng.randrange(nkeys)

    # Half the puts are Zipf-hot, half uniform over the key space.
    hot = np.random.default_rng(seed).zipf(1.2, size["writes"]) % nkeys
    writes = [
        (keys[hot[i]] if i & 1 else keys[rng.randrange(nkeys)], value())
        for i in range(size["writes"])
    ]
    model = dict(writes)
    present = sorted(model)

    def hit() -> bytes:
        return present[rng.randrange(len(present))]

    # 80 % present keys (spread over every level), 20 % misses.
    reads = [miss() if i % 5 == 4 else hit() for i in range(size["reads"])]
    hits = [hit() for _ in range(size["hits"])]
    misses = [miss() for _ in range(size["misses"])]
    expected = {
        "reads": [model.get(k) for k in reads],
        "hits": [model[k] for k in hits],
        "misses": [None] * len(misses),
    }

    mixed, mixed_expected = [], []
    for i in range(size["mixed"]):
        if i & 1:
            key = miss() if i % 10 == 9 else hit()
            mixed.append((False, key, None))
            mixed_expected.append(model.get(key))
        else:
            key, val = keys[rng.randrange(nkeys)], value()
            mixed.append((True, key, val))
            model[key] = val
    expected["mixed"] = mixed_expected

    wal = [(keys[rng.randrange(nkeys)], value()) for _ in range(size["wal"])]
    model.update(wal)

    puts = writes + [(k, v) for is_put, k, v in mixed if is_put] + wal
    return {
        "policies": api.policy_names(),
        "write_batches": _batches(writes),
        "read_batches": _batches(reads),
        "hit_batches": _batches(hits),
        "miss_batches": _batches(misses),
        "mixed": mixed,
        "wal": wal,
        "expected": expected,
        "model": model,
        "user_bytes": sum(len(k) + len(v) for k, v in puts),
        "small": small,
    }


def _timed_gets(store, batches, per_op_us: list) -> list:
    get, got = store.get, []
    for batch in batches:
        start = perf_counter()
        got.extend([get(key) for key in batch])
        per_op_us.append((perf_counter() - start) / len(batch) * 1e6)
    return got


def _round(policy: str, inputs: dict, rec) -> dict:
    from repro import api

    store = api.LSMStore(
        api.LSMOptions(compaction_policy=policy, **OPTIONS), name=policy
    )
    out = {"store": store, **{name: [] for name in PER_BATCH}}
    now = 0.0

    def maintain(reason: str = "memtable-full") -> None:
        """Flush inline, then compact until nothing is due."""
        nonlocal now
        now += 1.0
        start = perf_counter()
        job = store.begin_flush(reason=reason, now=now)
        if job is not None:
            store.finish_flush(job, now=now)
            out["flush_ms"].append((perf_counter() - start) * 1e3)
        while True:
            start = perf_counter()
            job = store.pick_compaction(now=now)
            if job is None:
                return
            store.finish_compaction(job, now=now)
            out["compaction_ms"].append((perf_counter() - start) * 1e3)

    put = store.put
    with rec.span("lsm.write_phase"):
        for batch in inputs["write_batches"]:
            start = perf_counter()
            for key, value in batch:
                put(key, value)
                if store.memtable_full:
                    maintain()
            out["put_us"].append((perf_counter() - start) / len(batch) * 1e6)

    with rec.span("lsm.read_phase"):
        out["reads"] = _timed_gets(store, inputs["read_batches"], out["get_us"])
        out["hits"] = _timed_gets(store, inputs["hit_batches"], out["hit_us"])
        out["misses"] = _timed_gets(store, inputs["miss_batches"], out["miss_us"])

    with rec.span("lsm.mixed_phase"):
        get, got = store.get, []
        start = perf_counter()
        for is_put, key, value in inputs["mixed"]:
            if is_put:
                put(key, value)
                if store.memtable_full:
                    maintain()
            else:
                got.append(get(key))
        out["mixed_kops"] = len(inputs["mixed"]) / (perf_counter() - start) / 1e3
        out["mixed"] = got

    with rec.span("lsm.snapshot_restore"):
        maintain(reason="checkpoint")
        start = perf_counter()
        snapshot = store.snapshot_state()
        store.restore_from_checkpoint(snapshot)
        out["snapshot_restore_ms"] = (perf_counter() - start) * 1e3
        for key, value in inputs["wal"]:
            put(key, value)
        start = perf_counter()
        store.restore_from_checkpoint(snapshot)  # replays the WAL tail
        out["wal_replay_ms"] = (perf_counter() - start) * 1e3
    return out


def unit(inputs: dict, rec) -> dict:
    rounds = {}
    for policy in inputs["policies"]:
        start = perf_counter()
        with rec.span("lsm.round"):
            rounds[policy] = _round(policy, inputs, rec)
        rounds[policy]["round_ms"] = (perf_counter() - start) * 1e3
    return {"rounds": rounds}


def verify(inputs: dict, outcome: dict) -> Verdict:
    rounds, expected, model = outcome["rounds"], inputs["expected"], inputs["model"]
    checks, shape = [], {}
    samples = {name: [] for name in PER_BATCH + PER_ROUND}
    written = 0
    for policy, out in rounds.items():
        store = out["store"]
        wrong = sum(
            got != want
            for phase in ("reads", "hits", "misses", "mixed")
            for got, want in zip(out[phase], expected[phase])
        )
        checks.append(Check(f"gets-match-model:{policy}", wrong == 0,
                            f"{wrong} get(s) returned a wrong value"))
        try:
            store.check_invariants()
            checks.append(Check(f"invariants:{policy}", True))
        except Exception as error:  # any invariant error is one failed check
            checks.append(Check(f"invariants:{policy}", False, repr(error)))
        # After restore + WAL replay the store must hold exactly the
        # model; all six doing so means identical logical contents.
        checks.append(
            Check(f"restored-equals-model:{policy}", dict(store.scan()) == model)
        )
        for name in PER_BATCH:
            samples[name].extend(out[name])
        for name in PER_ROUND:
            samples[name].append(out[name])
        samples[f"round_ms.{policy}"] = [out["round_ms"]]
        stats = store.stats
        written += stats.flush_bytes + stats.compaction_input_bytes
        shape[policy] = [
            stats.flush_count,
            stats.compaction_count,
            [len(store.levels.level(i)) for i in range(store.levels.num_levels)],
        ]
    if not inputs["small"]:
        for policy, (flushes, _, levels) in shape.items():
            deep = any(levels[2:])
            checks.append(
                Check(f"reaches-L2-and-15-flushes:{policy}",
                      deep and flushes >= 15, f"flushes={flushes} levels={levels}")
            )
    exact = {
        "lsm.write_amp": written / (len(rounds) * inputs["user_bytes"]),
        "lsm.flush_count": sum(s[0] for s in shape.values()),
        "lsm.compaction_count": sum(s[1] for s in shape.values()),
        "sim.events_per_unit": 0,
    }
    digest = digest_of(
        {
            "contents": digest_of(sorted((k.hex(), v.hex()) for k, v in model.items())),
            "shape": shape,
        }
    )
    return Verdict(digest=digest, checks=checks, samples=samples, exact=exact)


def metrics(samples: dict, exact: dict) -> dict:
    """The operation-level and ``lsm.*`` metrics of pooled unit samples."""
    out = {
        "put_us_p50": median(samples["put_us"]),
        "put_us_p99": percentile(samples["put_us"], 99),
        "get_us_p50": median(samples["get_us"]),
        "mixed_kops_per_s": median(samples["mixed_kops"]),
        "lsm.put_us": median(samples["put_us"]),
        "lsm.get_us_p95": percentile(samples["get_us"], 95),
        "lsm.get_hit_us": median(samples["hit_us"]),
        "lsm.get_miss_us": median(samples["miss_us"]),
        "lsm.flush_ms": median(samples["flush_ms"]),
        # a miniature round may never compact
        "lsm.compaction_ms": median(samples["compaction_ms"] or [0.0]),
        "lsm.snapshot_restore_ms": median(samples["snapshot_restore_ms"]),
        "lsm.wal_replay_ms": median(samples["wal_replay_ms"]),
    }
    for name, values in samples.items():
        if name.startswith("round_ms."):
            out[f"lsm.{name}"] = median(values)
    for name in ("lsm.write_amp", "lsm.flush_count", "lsm.compaction_count"):
        out[name] = exact[name]
    return out
