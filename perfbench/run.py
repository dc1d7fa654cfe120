#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of PolyUFC.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds `polyufc` and the
benchmark's client perfbench/ledger with dune, makes the workload's
inputs from --seed, sets up, runs a fixed-count tape sized from
--seconds, checks every output and prints, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  The line before it
records the host (nproc, load average, steal ticks) and the sample count
behind every quantile.  Scratch files live in .perfbench_run/ under the
checkout.

Workloads (why each was chosen is in BENCHMARK.json):
  serve-warm  a daemon on a store filled during set-up; every analyze
              hits the memory tier, ~1 op in 100 is a v1 stats scrape.
  serve-cold  a daemon under a --cache-max-bytes watermark the tape
              overflows; every analyze is a distinct miss.

This script starts and stops the daemons, times set-up, reads /proc and
checks outputs; every request goes through perfbench/ledger, one process
with one closed-loop connection.  The daemon runs one executor thread and
one worker domain, so client plus daemon keep at most two threads busy.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the tape twice,
untraced and then traced through perfbench/ledger, so its tape is sized
from half of --seconds; it prints the per-layer metrics: self time of
each layer's public functions, the work counters, the unattributed time
and the tracing overhead.  The traced serve-warm run also times
`polyufc run --json` processes, the only path through the roofline
microbenchmarks and the simulator.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import measure  # noqa: E402
import tapes  # noqa: E402

WORKLOADS = ("serve-warm", "serve-cold")
WORK = ".perfbench_run"
PROFILE = "perfbench"
EXE = os.path.join("_build", "default", "bin", "polyufc.exe")
LEDGER = os.path.join("_build", "default", "perfbench", "ledger", "ledger.exe")
SETUP_REPS = 7
COLD_MAX_BYTES = 128 * 1024
INLINE_SAMPLE = 8


class Failure(Exception):
    """The program misbehaved in a way no metric can carry."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def build():
    # no shared build cache: the run reads and writes only its checkout
    r = subprocess.run(["dune", "build", "--root", ".", "--profile", PROFILE,
                        "./bin/polyufc.exe", "./perfbench/ledger/ledger.exe"],
                       stdout=sys.stderr, stderr=sys.stderr,
                       env=dict(os.environ, DUNE_CACHE="disabled"))
    if r.returncode != 0:
        raise Failure("dune build failed with exit code %d" % r.returncode)


def write_jsonl(name, ops):
    path = os.path.join(WORK, name + ".jsonl")
    with open(path, "w") as f:
        f.write(tapes.dumps(ops))
    return path


def ledger(*args):
    r = subprocess.run([LEDGER, *args], stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise Failure("ledger %s exited with code %d" % (args[0], r.returncode))


def read_lines(path):
    with open(path, "rb") as f:
        return f.read().split(b"\n")[:-1]


class Daemon:
    """`polyufc serve` with one executor thread and one worker domain."""

    def __init__(self, name, extra=()):
        self.name = name
        self.sock_path = os.path.join(WORK, name + ".sock")
        self.store = os.path.join(WORK, name + ".store")
        with open(os.path.join(WORK, name + ".log"), "wb") as log_file:
            self.proc = subprocess.Popen(
                [os.path.abspath(EXE), "serve", "--socket=" + self.sock_path,
                 "--workers=1", "--jobs=1", "--cache-dir=" + self.store, *extra],
                stdin=subprocess.DEVNULL, stdout=log_file, stderr=log_file)

    def send(self, name, ops):
        """Send `ops` in order; the payload bytes of each."""
        out = os.path.join(WORK, name + ".out")
        ledger("send", "--socket", self.sock_path,
               "--requests", write_jsonl(name, ops), "--out", out)
        return read_lines(out)

    def stop(self):
        """Graceful drain on SIGTERM; kill if it does not exit in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Daemons:
    """Daemons started by this run, stopped whatever happens."""

    def __init__(self):
        self.daemons = []

    def start(self, name, extra=()):
        d = Daemon(name, extra)
        self.daemons.append(d)
        return d

    def stop(self, d):
        self.daemons.remove(d)
        d.stop()

    def stop_all(self):
        while self.daemons:
            self.daemons.pop().stop()


def key(op):
    return json.dumps(op, sort_keys=True)


# --- set-up ------------------------------------------------------------


def setup(daemons, workload, name):
    """Spawn a daemon and send its untimed set-up requests: the store
    fill (serve-warm) or the per-shape warm-up (serve-cold).  Returns the
    daemon, the set-up seconds and the payload of every fill miss."""
    t0 = time.perf_counter()
    if workload == "serve-warm":
        d = daemons.start(name)
        payloads = d.send(name + ".fill", tapes.warm_fill())
        fills = {key(op): p for op, p in zip(tapes.warm_fill(), payloads)}
    else:
        d = daemons.start(name, ["--cache-max-bytes=%d" % COLD_MAX_BYTES])
        d.send(name + ".warmup", tapes.cold_warmup())
        fills = {}
    return d, time.perf_counter() - t0, fills


def replay(d, ops):
    """The untraced pass: per-op ms, tape wall seconds, payload lines."""
    out, payloads = os.path.join(WORK, "replay.json"), os.path.join(WORK, "replay.out")
    ledger("replay", "--socket", d.sock_path, "--tape", write_jsonl("tape", ops),
           "--out", out, "--payloads", payloads)
    with open(out) as f:
        r = json.load(f)
    lines = read_lines(payloads)
    if len(lines) != len(ops):
        raise Failure("replay wrote %d payloads for %d ops" % (len(lines), len(ops)))
    return r["latency_ms"], r["wall_s"], lines


# --- correctness and paper metrics --------------------------------------


def inline_analyze(op):
    p = op["params"]
    r = subprocess.run([EXE, "analyze", "--json", "--no-cache", "-w", p["workload"],
                        "-s", "n=%d" % p["sizes"]["n"]],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return r.stdout if r.returncode == 0 else None


def check(workload, seed, ops, payloads, fills):
    """Failed, refused and mismatched ops of the untraced pass."""
    failed = 0
    rng = random.Random("check/%s/%d" % (workload, seed))
    sample = set(rng.sample(range(len(ops)), min(INLINE_SAMPLE, len(ops))))
    for i, (op, payload) in enumerate(zip(ops, payloads)):
        if payload.startswith(b"!"):
            log("op %d %s failed: %s" % (i, key(op), payload[1:].decode()))
            failed += 1
        elif op["op"] == "stats":
            if "counters" not in json.loads(payload):
                log("op %d: stats document without counters" % i)
                failed += 1
        elif workload == "serve-warm" and payload != fills[key(op)]:
            log("op %d %s: hit differs from the miss that filled it" % (i, key(op)))
            failed += 1
        elif i in sample and inline_analyze(op) != payload + b"\n":
            log("op %d %s: served payload differs from inline analyze" % (i, key(op)))
            failed += 1
    return failed


def paper_metrics(d):
    """Fig. 7's capped-vs-UFS EDP gain (as EDP_ufs / EDP_capped) and
    Fig. 6's PolyUFC-CM OI error against the simulator, from `run`
    requests over the pool."""
    gains, errs = [], []
    for op, payload in zip(tapes.runs(), d.send(d.name + ".runs", tapes.runs())):
        doc = json.loads(payload)
        if doc.get("compile", {}).get("fidelity") != "exact" or "evaluation" not in doc:
            raise Failure("run %s is not an exact result" % key(op))
        base = doc["evaluation"]["baseline"]
        gains.append(base["edp"] / doc["evaluation"]["capped"]["edp"])
        oi_sim = base["flops"] / base["dram_bytes"]
        errs.append(abs(doc["compile"]["oi"] - oi_sim) / oi_sim)
    return {"edp_gain_geomean": measure.geomean(gains),
            "oi_rel_err_mean": statistics.fmean(errs)}


# --- untraced run: end-to-end metrics -----------------------------------


def run_untraced(daemons, workload, seed, ops):
    setups = []
    for i in range(SETUP_REPS):
        d, s, fills = setup(daemons, workload, "setup%d" % i)
        setups.append(s)
        if i < SETUP_REPS - 1:
            daemons.stop(d)
    cpu0 = measure.proc_cpu_s(d.proc.pid)
    lat_ms, wall_s, payloads = replay(d, ops)
    cpu_s = measure.proc_cpu_s(d.proc.pid) - cpu0
    rss = measure.proc_peak_rss_mb(d.proc.pid)
    failed = check(workload, seed, ops, payloads, fills)
    paper = paper_metrics(d)
    daemons.stop(d)

    p50, n = measure.quantile(lat_ms, 0.5)
    p90, _ = measure.quantile(lat_ms, 0.9)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ops) / wall_s,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "cpu_ms_per_op": cpu_s * 1e3 / len(ops),
        "peak_rss_mb": rss,
        "success_rate": (len(ops) - failed) / len(ops),
        **paper,
    }
    samples = {"ops": n, "latency_p90_beyond": measure.beyond(lat_ms, 0.9),
               "setup_reps": len(setups), "setup_s": setups}
    return metrics, samples, len(ops), failed


# --- traced run: per-layer metrics --------------------------------------


def run_traced(daemons, workload, seed, ops):
    d, _, fills = setup(daemons, workload, "untraced")
    lat_ms, _, payloads = replay(d, ops)
    failed = check(workload, seed, ops, payloads, fills)
    daemons.stop(d)

    # serve-cold writes the store, so the traced pass has a daemon of its own
    t, _, _ = setup(daemons, workload, "traced")
    stores = {}
    names = ["probe-exec", "probe-replay"] + (["cli"] if workload == "serve-warm" else [])
    for name in names:
        stores[name] = os.path.join(WORK, name + ".store")
        shutil.copytree(t.store, stores[name])
    warmup = tapes.warm_fill() if workload == "serve-warm" else tapes.cold_warmup()
    out, spans = os.path.join(WORK, "ledger.json"), os.path.join(WORK, "spans.json")
    argv = ["--socket", t.sock_path, "--tape", write_jsonl("tape", ops),
            "--warmup", write_jsonl("warmup", warmup),
            "--probe-exec", stores["probe-exec"],
            "--probe-replay", stores["probe-replay"], "--spans", spans, "--out", out]
    if workload == "serve-cold":
        argv += ["--cache-max-bytes", str(COLD_MAX_BYTES)]
    else:
        # the filled store holds the analyze entry of every `run` kernel
        argv += ["--cli-exe", os.path.abspath(EXE), "--cli-store", stores["cli"],
                 "--cli-ops", write_jsonl("cli", [tapes.params(k, n)
                                                  for k, n in tapes.CLI_RUNS])]
    ledger("trace", *argv)
    daemons.stop(t)
    with open(out) as f:
        led = json.load(f)
    metrics = led["metrics"]
    metrics["trace.untraced_p50_ms"] = statistics.median(lat_ms)
    metrics["trace.overhead_ms"] = (metrics["trace.traced_p50_ms"]
                                    - metrics["trace.untraced_p50_ms"])
    samples = {"ops": len(ops), "probed_ops": led["probed_ops"], "spans": spans}
    return metrics, samples, len(ops) + led["attempted"], failed + led["failed"]


# --- main ---------------------------------------------------------------


def main(argv):
    args = parse_args(argv)
    os.chdir(os.path.dirname(HERE))
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/polyufc.ml")
            and os.path.isdir("lib")):
        log("not a PolyUFC source checkout (need dune-project, bin/, lib/)")
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    # the traced run replays its tape twice
    seconds = max(1, args.seconds // 2) if args.trace else args.seconds
    ops = tapes.tape(args.workload, args.seed, seconds)
    steal0, load0 = measure.steal_ticks(), measure.loadavg()

    daemons = Daemons()
    try:
        run = run_traced if args.trace else run_untraced
        values, samples, attempted, failed = run(daemons, args.workload, args.seed, ops)
    finally:
        daemons.stop_all()

    # a layer a workload does not reach reads 0
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    for name in sorted(set(values) - set(metrics)):
        log("measured but not declared in BENCHMARK.json: " + name)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tape_ops": len(ops), "samples": samples,
              "host": {"nproc": measure.nproc(), "loadavg_start": load0,
                       "loadavg_end": measure.loadavg(),
                       "steal_ticks": measure.steal_ticks() - steal0}}
    print(json.dumps({"perfbench": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # a terminated run still stops its daemons (the finally in main)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main(sys.argv[1:]))
    except Failure as e:
        log(str(e))
        sys.exit(1)
    except Exception:  # noqa: BLE001 - report, never print a result
        traceback.print_exc()
        sys.exit(1)
