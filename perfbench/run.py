#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the shipped abnn2_server.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library, abnn2_server,
abnn2_offline and the benchmark's client runner (perfbench_runner) into
.bench_build/perfbench, then starts the runner, which starts abnn2_server as
a child process and plays the client over SocketChannel + FramedChannel.

--trace 0 measures with tracing off and prints the end-to-end metrics.
--trace 1 spends half of the time untraced and half with ABNN2_TRACE on in
both processes, merges the Chrome traces of the client and every server
process, and prints the per-layer metrics (plus the tracing overhead, the
traced against the untraced median latency).

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Every batch's logits are checked against the plaintext model; any failed
batch, wrong logit, BUSY reply or check failure makes the exit code 1.
See perfbench/README.md for the workloads and every metric.
"""
import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("lan-cold-fc-b1", "lan-warm-fc-b8x2", "wan-silent-ternary-b1")
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
CACHE_DIR = os.path.join(".bench_build", "perfbench-cache")
RUN_ROOT = os.path.join(".bench_build", "perfbench-run")
TARGETS = ("perfbench_runner", "abnn2_server", "abnn2_offline")
FC_LAYERS = 3  # the Fig-4 net: 784-128-128-10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the three targets (a no-op when fresh)."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise RuntimeError("run from the repository root: no src/CMakeLists.txt")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                    *TARGETS], check=True, stdout=sys.stderr, stderr=sys.stderr)
    return {
        "runner": os.path.join(BUILD_DIR, "perfbench_runner"),
        "server": os.path.join(BUILD_DIR, "abnn2", "tools", "abnn2_server"),
        "dealer": os.path.join(BUILD_DIR, "abnn2", "tools", "abnn2_offline"),
    }


def run_runner(bins, args, seconds, work, tag, traced):
    """One runner process; returns its parsed result JSON."""
    out = os.path.join(work, tag + ".json")
    cmd = [bins["runner"], "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(seconds), "--server",
           os.path.abspath(bins["server"]), "--dealer",
           os.path.abspath(bins["dealer"]), "--work-dir",
           os.path.join(work, tag), "--cache-dir", CACHE_DIR, "--out", out]
    env = {k: v for k, v in os.environ.items() if not k.startswith("ABNN2_")}
    if traced:
        trace_dir = os.path.abspath(os.path.join(work, tag, "traces"))
        cmd += ["--trace-dir", trace_dir]
        env["ABNN2_TRACE"] = os.path.join(trace_dir, "client.json")
    # The first warm run in a checkout also deals the pool (about 60 s).
    subprocess.run(cmd, check=True, env=env, timeout=seconds + 140,
                   stdout=sys.stderr, stderr=sys.stderr)
    with open(out) as f:
        return json.load(f)


# ---- end-to-end metrics -----------------------------------------------------


def tail(values):
    """Highest percentile with >= 10 samples beyond it: (value, pct, n).

    Below 20 samples that percentile is under the median, which is no tail;
    the maximum is reported instead (pct 100)."""
    s = sorted(values)
    n = len(s)
    if n >= 20:
        return s[n - 11], 100.0 * (n - 10) / n, n
    return s[-1], 100.0, n


def timed(res, phase="measure"):
    """Timed (non-set-up) batches of one phase of a run."""
    return [b for b in res["batches"]
            if b["phase"] == phase and not b["setup"]]


def per_input(ok, key):
    """Mean of `key` over the distinct (client, input) pairs of a run.

    Bytes depend on the input (the optimized ReLU garbles only positive
    neurons), so the plain mean over batches would depend on how many times
    each input happened to run; this one repeats exactly for a seed."""
    by_input = {}
    for b in ok:
        by_input.setdefault((b["client"], b["input"]), b[key])
    return sum(by_input.values()) / len(by_input)


def e2e_metrics(res):
    t = timed(res)
    ok = [b for b in t if b["ok"]]
    if not ok:
        raise RuntimeError("no successful timed batch")
    lat = [b["latency_ms"] for b in ok]
    tail_v, tail_pct, n = tail(lat)
    timed_s = sum(c["timed_s"] for c in res["cycles"])
    cpu_s = sum(c["cpu_s"] for c in res["cycles"])
    m = {
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (tail_v, "ms"),
        "offline_p50_ms": (statistics.median(b["offline_ms"] for b in ok), "ms"),
        "online_p50_ms": (statistics.median(b["online_ms"] for b in ok), "ms"),
        "predictions_per_s": (len(ok) * res["batch"] / timed_s, "1/s"),
        "comm_mb_per_batch": (per_input(ok, "bytes") / 1e6, "MB"),
        "rounds_per_batch": (per_input(ok, "rounds"), "count"),
        "cpu_s_per_batch": (cpu_s / len(ok), "s"),
        "setup_s": (statistics.median(c["setup_s"] for c in res["cycles"]), "s"),
        "server_peak_rss_mb": (statistics.median(
            c["server_peak_rss_mb"] for c in res["cycles"]), "MB"),
    }
    notes = {"latency_tail_pct": tail_pct, "latency_n": n,
             "setups": len(res["cycles"]),
             "steal_pct": 100.0 * statistics.mean(
                 c["steal"] for c in res["cycles"])}
    return m, notes


def wan_model(res, e2e):
    """NetworkModel (kWanQuotient) prediction for the measured batch:
    unshaped loopback latency of the same batch + bytes / bandwidth +
    rounds * rtt."""
    cal = [b["latency_ms"] for b in timed(res, "calibration") if b["ok"]]
    if not cal:
        return None
    compute_ms = statistics.median(cal)
    wan = res["wan"]
    model = (compute_ms + e2e["comm_mb_per_batch"][0] * 1e6
             / wan["bandwidth_bytes_per_s"] * 1e3
             + e2e["rounds_per_batch"][0] * wan["rtt_s"] * 1e3)
    measured = e2e["latency_p50_ms"][0]
    return {"model_ms": model, "error_pct": 100.0 * (model - measured) / measured,
            "compute_ms": compute_ms}


def determinism_errors(res, all_inputs):
    """Every timed batch of one input moves the same bytes in the same
    rounds; with `all_inputs`, every input ran at least once (the per-input
    means of comm_mb_per_batch and rounds_per_batch need them all)."""
    t = [b for b in timed(res) if b["ok"]]
    seen = {}
    errs = []
    for b in t:
        key = (b["client"], b["input"])
        first = seen.setdefault(key, (b["bytes"], b["rounds"]))
        if first != (b["bytes"], b["rounds"]):
            errs.append("input %s: %s bytes/rounds, earlier %s" % (
                key, (b["bytes"], b["rounds"]), first))
    want = res["clients"] * res["inputs_per_client"]
    if all_inputs and len(seen) != want:
        errs.append("only %d of %d inputs ran a timed batch" % (len(seen), want))
    return errs


# ---- trace merge --------------------------------------------------------------


def load_trace(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    counters = {e["name"]: e["args"]["value"] for e in events
                if e.get("ph") == "C"}
    return spans, counters


def layer_key(name):
    """Maps a span name to its per-layer metric prefix (None = not tracked)."""
    base, _, idx = name.partition("[")
    idx = idx.rstrip("]")
    if base in ("triplets", "linear", "relu"):
        return "core.%s.%s" % (base, idx)
    if base in ("handshake", "backend-setup", "reveal"):
        return "core." + base
    if base in ("kk13/extend", "iknp/extend", "silent/extend"):
        return "ot." + base.replace("/", "-")
    if base.endswith("base-ot") or base.startswith("ot/base-ot-"):
        return "ot.base-ot"
    if base == "pool/slice":
        return "runtime.pool"
    if base in ("gc/garble", "gc/eval", "gc/garbler-run"):
        return base.replace("/", ".")
    if base == "ec/scalarmult-batch":
        return "ec.scalarmult-batch"
    if base == "session":
        return "serve.session"
    return None


def compute_self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    direct children on the same thread cover."""
    by_tid = {}
    for s in spans:
        s["self"] = s["dur"]
        by_tid.setdefault((s["pid"], s["tid"]), []).append(s)
    eps = 0.002  # timestamps are printed with 1 ns resolution
    for seq in by_tid.values():
        seq.sort(key=lambda s: (s["ts"], -s["dur"]))
        stack = []
        for s in seq:
            while stack and stack[-1]["ts"] + stack[-1]["dur"] <= s["ts"] + eps:
                stack.pop()
            if stack:
                stack[-1]["self"] -= s["dur"]
            stack.append(s)


def batch_windows(spans, server):
    """Per-batch windows of one process: sorted list of
    (start, end, tid, setup).

    Server: one depth-0 "session[token]" span per batch; the first of each
    token is the connection's set-up batch. Client: a depth-0 "offline" span
    and the following "online" span on the same thread; the first pair of
    each thread (one thread per connection) is the set-up batch."""
    wins = []
    top = sorted((s for s in spans if s["args"].get("depth") == 0
                  and s["args"].get("party", -1) >= 0), key=lambda s: s["ts"])
    if server:
        seen = set()
        for s in top:
            if s["name"].startswith("session["):
                wins.append((s["ts"], s["ts"] + s["dur"], s["tid"],
                             s["name"] not in seen))
                seen.add(s["name"])
    else:
        per_tid = {}
        for s in top:
            per_tid.setdefault(s["tid"], []).append(s)
        for tid, seq in per_tid.items():
            starts = [s for s in seq if s["name"] == "offline"]
            ends = [s for s in seq if s["name"] == "online"]
            for i, (a, b) in enumerate(zip(starts, ends)):
                wins.append((a["ts"], b["ts"] + b["dur"], tid, i == 0))
    wins.sort()
    return wins


def window_of(wins, starts, span):
    """Index of the batch window holding `span`: the one on its own thread
    for party spans, any running one for pool-worker spans."""
    party = span["args"].get("party", -1)
    i = bisect.bisect_right(starts, span["ts"] + 0.002) - 1
    # Windows of concurrent connections overlap; look back over a few.
    for j in range(i, max(-1, i - 8), -1):
        a, b, tid, _ = wins[j]
        if span["ts"] <= b + 0.002 and (party < 0 or tid == span["tid"]):
            return j
    return None


class ProcessStats:
    """Per-layer aggregates of one process (client, or every server process
    of the run) over its timed and its set-up batches."""

    def __init__(self):
        self.windows = {True: 0, False: 0}  # setup? -> batches
        # (key, setup?) -> totals of self time, bytes sent, rounds, calls
        self.sums = {}
        # (key, setup?) -> per-batch wall time of the key on party threads
        self.walls = {}
        self.worker_busy = {}  # pool worker tid -> slice time, timed batches
        self.step_bytes = 0  # bytes sent inside depth-1 steps, timed batches
        self.counters = {}

    def add(self, path, server, start_us=0.0):
        """Adds one trace file; batches starting before `start_us` (the
        runner's warm-up) are left out."""
        spans, counters = load_trace(path)
        for k, v in counters.items():
            self.counters[k] = self.counters.get(k, 0) + v
        compute_self_times(spans)
        wins = [w for w in batch_windows(spans, server) if w[0] >= start_us]
        starts = [w[0] for w in wins]
        for w in wins:
            self.windows[w[3]] += 1
        per_win = [dict() for _ in wins]
        for s in spans:
            args = s["args"]
            party = args.get("party", -1)
            w_idx = window_of(wins, starts, s)
            if w_idx is None:
                continue
            setup = wins[w_idx][3]
            if not setup and args.get("depth") == 1:
                self.step_bytes += args.get("bytes_sent", 0)
            key = layer_key(s["name"])
            if key is None:
                continue
            agg = self.sums.setdefault((key, setup), {
                "self": 0.0, "bytes": 0, "rounds": 0, "calls": 0})
            agg["self"] += s["self"]
            agg["bytes"] += args.get("bytes_sent", 0)
            agg["rounds"] += args.get("rounds", 0)
            agg["calls"] += 1
            if party >= 0:
                per_win[w_idx][key] = per_win[w_idx].get(key, 0.0) + s["dur"]
            if key == "runtime.pool" and party < 0 and not setup:
                self.worker_busy[s["tid"]] = (
                    self.worker_busy.get(s["tid"], 0.0) + s["dur"])
        for w, d in zip(wins, per_win):
            for key, v in d.items():
                self.walls.setdefault((key, w[3]), []).append(v)

    def per_batch(self, key, field, setup=False):
        n = self.windows[setup]
        agg = self.sums.get((key, setup))
        return agg[field] / n if agg and n else 0.0

    def wall_ms(self, key, setup=False):
        v = self.walls.get((key, setup))
        return statistics.median(v) / 1e3 if v else 0.0

    def imbalance(self):
        """Busiest pool worker's slice time over the mean worker's."""
        busy = list(self.worker_busy.values())
        return max(busy) / statistics.mean(busy) if busy else 0.0


def layer_metrics(res_a, res_b, e2e_a, e2e_b):
    """Per-layer metrics from the traced half (res_b) of a --trace 1 run;
    res_a is the untraced half (tracing overhead, WAN model)."""
    client, server = ProcessStats(), ProcessStats()
    client.add(res_b["client_trace"], server=False,
               start_us=res_b["client_trace_start_us"])
    for c in res_b["cycles"]:
        server.add(c["server_trace"], server=True)
    procs = (server, client)
    m = {}

    def wall(key, setup=False):
        return max(p.wall_ms(key, setup) for p in procs)

    def total(key, field, setup=False):
        return sum(p.per_batch(key, field, setup) for p in procs)

    def rounds(key):
        # Both endpoints observe every round trip (net/channel.h), so a
        # step's round count is the larger of the two, never the sum.
        return max(p.per_batch(key, "rounds") for p in procs)

    for i in range(FC_LAYERS):
        k = "core.triplets.%d" % i
        m[k + ".wall_ms"] = (wall(k), "ms")
        m[k + ".bytes"] = (total(k, "bytes"), "bytes")
        m[k + ".rounds"] = (rounds(k), "count")
        m["core.linear.%d.wall_ms" % i] = (wall("core.linear.%d" % i), "ms")
    for i in range(FC_LAYERS - 1):
        k = "core.relu.%d" % i
        m[k + ".wall_ms"] = (wall(k), "ms")
        m[k + ".bytes"] = (total(k, "bytes"), "bytes")
        m[k + ".rounds"] = (rounds(k), "count")
    m["core.handshake.wall_ms"] = (wall("core.handshake"), "ms")
    m["core.backend-setup.wall_ms"] = (wall("core.backend-setup", True), "ms")
    m["core.reveal.wall_ms"] = (wall("core.reveal"), "ms")

    ext_bytes = 0.0
    for name in ("kk13-extend", "iknp-extend", "silent-extend"):
        k = "ot." + name
        m[k + ".self_ms"] = (total(k, "self") / 1e3, "ms")
        m[k + ".calls"] = (total(k, "calls"), "count")
        ext_bytes += total(k, "bytes")
    m["ot.base-ot.self_ms"] = (total("ot.base-ot", "self", True) / 1e3, "ms")
    m["ot.base-ot.calls"] = (total("ot.base-ot", "calls", True), "count")
    m["ot.extension_mb"] = (ext_bytes / 1e6, "MB")

    m["runtime.pool.busy_ms"] = (
        sum(p.per_batch("runtime.pool", "self") for p in procs) / 1e3, "ms")
    m["runtime.pool.slices"] = (total("runtime.pool", "calls"), "count")
    m["runtime.pool.imbalance"] = (
        max(p.imbalance() for p in procs), "ratio")

    m["gc.garble.self_ms"] = (total("gc.garble", "self") / 1e3, "ms")
    m["gc.eval.self_ms"] = (total("gc.eval", "self") / 1e3, "ms")
    m["gc.garbler-run.wall_ms"] = (wall("gc.garbler-run"), "ms")
    m["ec.scalarmult-batch.self_ms"] = (
        total("ec.scalarmult-batch", "self", True) / 1e3, "ms")

    sc = server.counters
    hits, misses = sc.get("serve.pool.hit", 0), sc.get("serve.pool.miss", 0)
    tb = [b for b in timed(res_b) if b["ok"]]
    dealer = res_b.get("dealer") or {}
    m["offline.pool_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["offline.checkout_ms"] = (
        statistics.median(b["checkout_ms"] for b in tb), "ms")
    m["offline.dealer_ms_per_bundle"] = (dealer.get("ms_per_bundle", 0.0), "ms")

    m["serve.session.self_ms"] = (
        server.per_batch("serve.session", "self") / 1e3, "ms")
    m["serve.busy_rejections"] = (
        sc.get("serve.sessions.rejected_busy", 0), "count")

    connects = [x for c in res_b["cycles"] for x in c["connect_ms"]]
    m["net.connect_ms"] = (statistics.median(connects), "ms")
    m["net.shaper.wait_ms"] = (
        statistics.median(b["shaper_ms"] for b in tb), "ms")
    model = wan_model(res_a, e2e_a)
    m["net.model_latency_ms"] = (model["model_ms"] if model else 0.0, "ms")
    m["net.model_error_pct"] = (model["error_pct"] if model else 0.0, "%")

    m["obs.trace_overhead_pct"] = (
        100.0 * (e2e_b["latency_p50_ms"][0] / e2e_a["latency_p50_ms"][0] - 1),
        "%")

    # Every byte of a batch is sent inside exactly one depth-1 step
    # (handshake, triplets[i], relu[i], reveal, ...) of one party, so the
    # steps' bytes must add up to what the client's channel metered.
    metered = sum(b["bytes"] for b in tb)
    checks = []
    if server.step_bytes + client.step_bytes != metered:
        checks.append("per-layer bytes %d != metered %d" % (
            server.step_bytes + client.step_bytes, metered))
    return m, checks


# ---- main -----------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        bins = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    work = os.path.join(RUN_ROOT, "%s-%d-%d" % (args.workload, args.seed,
                                                os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.trace:
            half = args.seconds / 2
            res_a = run_runner(bins, args, half, work, "untraced", False)
            res_b = run_runner(bins, args, half, work, "traced", True)
            runs = [res_a, res_b]
        else:
            res_a = run_runner(bins, args, args.seconds, work, "run", False)
            runs = [res_a]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError) as e:
        log("perfbench: runner failed: %s (logs kept in %s)" % (e, work))
        return 1

    attempted = sum(len(r["batches"]) for r in runs)
    failed = sum(1 for r in runs for b in r["batches"] if not b["ok"])
    checks = [e for r in runs for e in r["errors"]]
    for r in runs:
        checks += determinism_errors(r, all_inputs=not args.trace)
    try:
        e2e_a, notes = e2e_metrics(res_a)
        model = wan_model(res_a, e2e_a)
        if args.trace:
            e2e_b, _ = e2e_metrics(res_b)
            metrics, more = layer_metrics(res_a, res_b, e2e_a, e2e_b)
            checks += more
        else:
            metrics = e2e_a
    except (RuntimeError, OSError, ValueError, statistics.StatisticsError) as e:
        log("perfbench: no metrics (%d of %d batches failed): %s; %s" % (
            failed, attempted, e, "; ".join(checks)))
        return 1
    error_rate = failed / attempted

    print("perfbench %s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    for name, (value, unit) in metrics.items():
        print("  %-34s %14.4f %s" % (name, value, unit))
    print("  %-34s %14.4f ratio (%d of %d batches failed)" % (
        "error_rate", error_rate, failed, attempted))
    print("  latency_tail_ms is p%.1f of n=%d timed batches; setup_s is the "
          "median of %d set-ups" % (notes["latency_tail_pct"],
                                    notes["latency_n"], notes["setups"]))
    print("  hypervisor steal: %.1f%% of the machine's CPU time in the timed "
          "windows" % notes["steal_pct"])
    if model:
        print("  WAN measured latency_p50_ms %.1f vs NetworkModel %.1f ms "
              "(error %+.1f%%, unshaped compute %.1f ms)" % (
                  e2e_a["latency_p50_ms"][0], model["model_ms"],
                  model["error_pct"], model["compute_ms"]))
    if "shaper_selftest" in res_a:
        st = res_a["shaper_selftest"]
        print("  shaper self-test: rtt %.2f ms, bandwidth %.2f MB/s" % (
            st["rtt_ms"], st["bandwidth_mb_s"]))
    if "dealer" in res_a:
        d = res_a["dealer"]
        print("  dealer: %d bundles, %.1f ms per bundle (%s)" % (
            d["bundles"], d["ms_per_bundle"],
            "dealt now" if d["paid"] else "cached"))
    for c in checks:
        print("  CHECK FAILED: %s" % c)

    correct = failed == 0 and not checks
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
