"""Seeded inputs of the benchmark's workloads.

A tape is the fixed-count list of requests one run sends, one JSON
object per op.  The same (workload, seed, seconds) always gives a
byte-identical tape; the program only ever sees the generated requests.

The sets the tapes draw from are fixed, and a seed only chooses their
order (and, on serve-warm, the stats positions), so every seed asks for
the same total work: runs with different seeds are comparable, and the
paper-quality metrics do not move with the seed.

The (kernel, size) pairs come from the analyze pool of the repository's
traffic-replay experiment (bench/main.ml); no recorded production mix
exists, so the shares of the kernels in a tape are the pool's.
"""

import json
import random

# bench/main.ml, traffic-replay: the analyze pool, drawn uniformly
POOL = [("gemm", 32), ("gemm", 48), ("mvt", 200), ("mvt", 256),
        ("atax", 200), ("bicg", 200), ("gesummv", 200), ("trisolv", 200)]
KERNELS = ["gemm", "mvt", "atax", "bicg", "gesummv", "trisolv"]

# serve-cold's distinct sizes: the pool's size band of each kernel
# widened until the tape holds enough distinct requests.  Set-up warms
# every program shape at sizes below the band.
COLD_SIZES = {"gemm": range(24, 57)}
COLD_SIZES.update({k: range(160, 289) for k in KERNELS if k != "gemm"})
COLD_WARMUP_SIZES = {"gemm": (8, 12, 16, 20)}
COLD_WARMUP_SIZES.update({k: (64, 96, 128) for k in KERNELS if k != "gemm"})

# Nominal ops per second of each workload on a 2-core x86 host; they only
# turn --seconds into a fixed op count and never depend on a measurement.
WARM_RATE = 160
COLD_RATE = 10

STATS_EVERY = 100

# the `run` processes of the traced pass: one cache-bound and one
# bandwidth-bound kernel of the pool
CLI_RUNS = [("gemm", 48), ("mvt", 256)]


def params(kernel, n):
    return {"workload": kernel, "sizes": {"n": n}}


def analyze(kernel, n):
    return {"op": "analyze", "params": params(kernel, n)}


def warm_fill():
    """The (kernel, size) set serve-warm's set-up stores and its tape reads."""
    return [analyze(k, n) for k, n in POOL]


def cold_warmup():
    """serve-cold's untimed set-up requests."""
    return [analyze(k, n) for k in KERNELS for n in COLD_WARMUP_SIZES[k]]


def runs():
    """`run` requests over the pool, sent untimed after the tape for the
    paper-quality metrics."""
    return [{"op": "run", "params": params(k, n)} for k, n in POOL]


def cold_pool(count):
    """`count` distinct (kernel, size) analyze requests, disjoint from
    cold_warmup(): kernels round-robin, each kernel's sizes in a fixed
    scrambled order so the set holds small and large sizes alike."""
    sizes = {k: list(COLD_SIZES[k]) for k in KERNELS}
    for k in KERNELS:
        random.Random("serve-cold-pool/" + k).shuffle(sizes[k])
    pool = []
    depth = 0
    while len(pool) < count:
        added = False
        for k in KERNELS:
            if depth < len(sizes[k]) and len(pool) < count:
                pool.append(analyze(k, sizes[k][depth]))
                added = True
        if not added:
            raise ValueError("serve-cold pool exhausted at %d ops" % len(pool))
        depth += 1
    return pool


def tape(workload, seed, seconds):
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "serve-warm":
        fill = warm_fill()
        reps = max(13, round(seconds * WARM_RATE / len(fill)))
        ops = [op for op in fill for _ in range(reps)]
        rng.shuffle(ops)
        # about 1 op in 100 is a v1 stats request: a metrics scrape
        for pos in sorted(rng.sample(range(len(ops)), len(ops) // STATS_EVERY),
                          reverse=True):
            ops.insert(pos, {"op": "stats", "params": {}})
        return ops
    if workload == "serve-cold":
        ops = cold_pool(max(100, round(seconds * COLD_RATE)))
        rng.shuffle(ops)
        return ops
    raise ValueError("unknown workload %r" % workload)


def dumps(ops):
    """JSON lines, the tape's canonical bytes."""
    return "".join(json.dumps(op, sort_keys=True) + "\n" for op in ops)
