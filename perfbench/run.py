#!/usr/bin/env python3
"""The forecast-service benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Builds neusight-serve and the two benchmark tools from source into
.bench_build/, starts `neusight-serve --listen` with the workload's fixed
options, drives seeded traffic over loopback TCP from one client process,
checks every answer, and prints a table followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. --workload all runs
every workload in turn.
"""

import argparse
import bisect
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
RUNS = os.path.join(BUILD, "runs")
SERVE = os.path.join(CMAKE_DIR, "neusight", "neusight-serve")
CLIENT = os.path.join(CMAKE_DIR, "perfbench-client")
LAYERS = os.path.join(CMAKE_DIR, "perfbench-layers")

MODELS = ["BERT-Large", "GPT2-Large", "GPT3-XL", "OPT-1.3B", "GPT3-2.7B",
          "SwitchTrans"]
NVIDIA_GPUS = ["P4", "P100", "V100", "T4", "A100-40GB", "A100-80GB", "L4",
               "H100"]
# Figure 7: the GPUs held out of every training set, and each model's
# two evaluation batch sizes (src/eval/harness.cpp).
HELD_OUT_GPUS = ["H100", "L4", "A100-80GB"]
FIG7_BATCHES = {"BERT-Large": (8, 16), "GPT2-Large": (4, 8),
                "GPT3-XL": (2, 4), "OPT-1.3B": (2, 4), "GPT3-2.7B": (1, 2),
                "SwitchTrans": (4, 8)}

# Fixed options of each workload (why each exists: README.md). `rate`
# is the open-loop offered rate in requests/s; `sat_frac` the share of
# --seconds spent in the closed-loop saturation phase (the rest is the
# open-loop phase);
# `setups` how many set-ups setup_s is the median of (each serve_unique
# set-up trains a predictor); `warm` how many requests the set-up's
# warm-up pass sends; `repeats` whether the saturation phase may cycle
# through its requests again.
# Throughput is the median over `window_s` windows of the saturation
# phase, and each latency percentile the median over windows of the
# latency phase of that window's percentile: a short stall on a shared
# host then moves one window, not the result.
WORKLOADS = {
    "serve_hot": {
        "backend": "oracle", "shards": 2, "connections": 4, "depth": 8,
        "rate": 1500.0, "sat_frac": 0.4, "window_s": 1.0, "setups": 15,
        "warm": 256, "repeats": True,
    },
    "serve_unique": {
        "backend": "neusight", "shards": 1, "connections": 4, "depth": 8,
        "rate": 300.0, "sat_frac": 0.4, "window_s": 1.0, "setups": 3,
        "warm": 64, "repeats": False,
    },
    "plan": {
        "backend": "oracle", "shards": 1, "connections": 4, "depth": 1,
        "rate": None, "sat_frac": 1.0, "window_s": 1.0, "setups": 15,
        "warm": 128, "repeats": True,
    },
}

PROBE_ROUNDS = 20
PINGS = 400
LAYER_BUDGET_S = 0.5
SERVER_START_TIMEOUT_S = 600.0
# Windows and set-ups in which the hypervisor took more than this share
# of the CPU time measure the host's neighbours, not the program; they
# are set aside when enough others remain (quiet()).
STEAL_LIMIT = 0.02

END_TO_END = [("setup_s", "s"), ("throughput_rps", "1/s"), ("peak_rss_mb", "MB")]
# Printed and recorded, but not in BENCHMARK.json: the latencies move
# with the vCPU time a shared host's hypervisor steals by more than any
# bound allows (see README.md), failed_frac is 0 on a healthy run, and
# forecast_error_pct exists on serve_unique only.
EXTRA_END_TO_END = [("p50_ms", "ms"), ("p99_ms", "ms"),
                    ("failed_frac", "fraction"), ("forecast_error_pct", "%")]

PER_LAYER = [
    ("net.ping_rtt_us", "us"), ("net.outside_us", "us"),
    ("net.decode_us", "us"), ("net.encode_us", "us"),
    ("net.requests.rejected", "count"), ("net.timeouts", "count"),
    ("serve.queue_wait_us.p50", "us"), ("serve.queue_wait_us.p99", "us"),
    ("serve.execute_us.p50", "us"), ("serve.execute_us.p99", "us"),
    ("serve.coalesced_frac", "fraction"),
    ("cache.prediction.hit_frac", "fraction"),
    ("cache.prediction.evictions", "count"),
    ("cache.graph.hit_frac", "fraction"), ("cache.probe_ns", "ns"),
    ("engine.forecast_us.inference", "us"),
    ("engine.forecast_us.decode", "us"),
    ("engine.forecast_us.training", "us"),
    ("engine.forecast_us.sweep", "us"),
    ("engine.forecast_us.simulate", "us"),
    ("graph.build_us", "us"), ("graph.kernels_per_request", "count"),
    ("graph.unique_kernel_frac", "fraction"),
    ("core.predict_kernels_us", "us"), ("core.tile_lookup_ns", "ns"),
    ("core.fingerprint_ns", "ns"),
    ("nn.infer_rows_per_s.f64", "rows/s"),
    ("nn.infer_rows_per_s.f32", "rows/s"),
    ("dataset.generate_s", "s"), ("gpusim.oracle_kernel_us", "us"),
    ("dist.sweep_ms", "ms"), ("sweep.evaluated_points", "count"),
    ("sweep.skipped_frac", "fraction"),
    ("sweep.stage_price_hit_frac", "fraction"),
    ("sim.events_per_s", "events/s"), ("sim.events", "count"),
    ("bench.lag_ms", "ms"), ("bench.trace_overhead_frac", "fraction"),
]
# Times the NeuSight fit, so only the workload that trains reports it.
TRAIN_LAYER = [("nn.train_s", "s")]


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def median_or(values, fallback):
    return statistics.median(values) if values else fallback


def window_rate(done_us, seconds, window_s):
    """Completions per second in each whole window of the phase."""
    windows = int(seconds // window_s)
    counts = [0] * windows
    for t in done_us:
        i = int(t / 1e6 / window_s)
        if i < windows:
            counts[i] += 1
    return [c / window_s for c in counts]


def window_percentiles(latency_us, due_us, seconds, window_s, q):
    """The q-th percentile of the latencies due in each whole window
    (None for a window without samples)."""
    windows = int(seconds // window_s)
    buckets = [[] for _ in range(windows)]
    for lat, due in zip(latency_us, due_us):
        i = int(due / 1e6 / window_s)
        if i < windows:
            buckets[i].append(lat)
    return [percentile(b, q) if b else None for b in buckets]


def quiet(values, steals):
    """The values (one per window or set-up) whose interval lost at most
    STEAL_LIMIT of its CPU time to the hypervisor, when at least three
    and a third of them qualify; otherwise, in a stretch where the host
    steals throughout, the third (at least three) that lost the least.
    Empty windows (None) never count."""
    pairs = [(v, st) for v, st in zip(values, steals) if v is not None]
    need = max(3, math.ceil(len(pairs) / 3))
    keep = [v for v, st in pairs if st is not None and st <= STEAL_LIMIT]
    if len(keep) >= need:
        return keep
    ranked = sorted(range(len(pairs)), key=lambda i: (
        pairs[i][1] if pairs[i][1] is not None else 1.0, i))
    return [pairs[i][0] for i in sorted(ranked[:need])]


def percentile(samples, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of raw samples."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("percentile rank must be in (0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# Workload inputs: every request comes from the seed, nothing else.
# ---------------------------------------------------------------------------

def workload_rng(workload, seed, stream):
    return random.Random("%s/%d/%s" % (workload, seed, stream))


def open_loop_schedule(rng, rate, seconds):
    """Poisson arrival offsets in microseconds over [0, seconds)."""
    if rate <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be positive")
    offsets = []
    t = rng.expovariate(rate)
    while t < seconds:
        offsets.append(t * 1e6)
        t += rng.expovariate(rate)
    return offsets


def zipf_cum_weights(n, s=1.0):
    total = 0.0
    cum = []
    for rank in range(1, n + 1):
        total += 1.0 / rank ** s
        cum.append(total)
    return cum


def hot_pool(rng):
    """256 fingerprints over 64 graph shapes x 4 GPUs. Rank r's model
    and op are fixed (only batch, past, dtype and GPUs vary with the
    seed), so the cost profile of the popular head is seed-invariant;
    64 shapes stay under each shard's 128-graph cache."""
    pool = []
    for r in range(64):
        req = {"op": ("inference", "decode")[(r // 6) % 2],
               "model": MODELS[r % len(MODELS)],
               "batch": rng.choice([1, 2, 4, 8, 16, 32])}
        if req["op"] == "decode":
            req["past"] = rng.choice([256, 512, 1024, 2048])
        if rng.random() < 0.5:
            req["dtype"] = "fp16"
        for gpu in rng.sample(NVIDIA_GPUS, 4):
            pool.append(dict(req, gpu=gpu))
    return pool


def fig7_cases():
    cases = []
    for phase in ("inference", "training"):
        for model in MODELS:
            for batch in FIG7_BATCHES[model]:
                for gpu in HELD_OUT_GPUS:
                    cases.append({"op": phase, "model": model,
                                  "batch": batch, "gpu": gpu})
    return cases


def base_probes():
    """One request of every op the engine serves; fixed across seeds."""
    return [
        {"op": "inference", "model": "GPT3-XL", "batch": 96, "gpu": "H100"},
        {"op": "decode", "model": "GPT2-Large", "batch": 96, "past": 1024,
         "gpu": "A100-40GB"},
        {"op": "training", "model": "BERT-Large", "batch": 96,
         "gpu": "V100"},
        {"op": "sweep", "model": "GPT2-Large", "gpu": "H100",
         "num_gpus": 4, "global_batch": 8},
        {"op": "simulate", "model": "GPT2-Large", "gpu": "H100",
         "global_batch": 8, "pp": 4, "micro_batches": 8,
         "schedule": "zero-bubble"},
    ]


def probes_for(workload):
    probes = base_probes()
    if workload == "serve_unique":
        for case in fig7_cases():
            for backend in ("neusight", "oracle"):
                probes.append(dict(case, backend=backend))
    return probes


def unique_stream(rng):
    """Every single-GPU request of the grid, shuffled; none repeats, and
    none equals a probe (probes use batch 96 or fp32 Figure-7 cells on
    held-out GPUs, which the grid skips)."""
    fig7 = {(c["op"], c["model"], c["batch"], c["gpu"])
            for c in fig7_cases()}
    grid = []
    for op in ("inference", "decode", "training"):
        for model in MODELS:
            for batch in range(1, 65):
                for gpu in NVIDIA_GPUS:
                    for dtype in ("fp32", "fp16"):
                        if dtype == "fp32" and (op, model, batch, gpu) in fig7:
                            continue
                        req = {"op": op, "model": model, "batch": batch,
                               "gpu": gpu}
                        if dtype == "fp16":
                            req["dtype"] = "fp16"
                        if op == "decode":
                            for past in (128, 256, 512, 1024, 2048, 4096):
                                grid.append(dict(req, past=past))
                        else:
                            grid.append(req)
    rng.shuffle(grid)
    return grid


# GPUs whose memory fits a runnable plan for every sweep of the grid,
# and those on which most simulated layouts fit (an OOM answer skips
# the simulation).
SWEEP_GPUS = ["V100", "A100-40GB", "A100-80GB", "H100"]
SIM_GPUS = ["A100-80GB", "H100"]
# Multi-GPU layouts of simulate requests: (tp, pp, dp). tp divides every
# model's heads and hidden size, pp*2 virtual stages fit every model.
SIM_LAYOUTS = [(1, 2, 1), (1, 4, 1), (2, 2, 1), (1, 2, 2), (2, 2, 2),
               (1, 4, 2), (2, 4, 1)]
SIM_SCHEDULES = ["gpipe", "1f1b", "interleaved", "zero-bubble"]


def plan_stream(rng):
    """Alternating sweep and simulate requests, each family drawn
    without replacement from its shuffled grid (mostly distinct)."""
    sweeps = [{"op": "sweep", "model": m, "gpu": g, "num_gpus": n,
               "global_batch": b}
              for m in MODELS for g in SWEEP_GPUS for n in (2, 4, 8)
              for b in (4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64)]
    sims = []
    for m in MODELS:
        for g in SIM_GPUS:
            for tp, pp, dp in SIM_LAYOUTS:
                for micro in (1, 2, 4, 8):
                    for sched in SIM_SCHEDULES:
                        req = {"op": "simulate", "model": m, "gpu": g,
                               "tp": tp, "pp": pp, "dp": dp,
                               "micro_batches": micro, "schedule": sched,
                               "global_batch": dp * micro *
                               rng.choice((1, 2))}
                        if rng.random() < 0.5:
                            req["jitter"] = 0.05
                            req["seed"] = rng.randrange(1, 1000)
                        sims.append(req)
    rng.shuffle(sweeps)
    rng.shuffle(sims)
    stream = []
    for i in range(len(sweeps)):
        stream.append(sweeps[i])
        stream.append(sims[i])
    return stream


def workload_inputs(workload, seed, seconds, trace):
    """The seeded request sets of one run: warm (set-up), timed
    closed-loop phases, open-loop schedule, and the fixed probes.
    Returns a dict of lists; open entries are (offset_us, request)."""
    spec = WORKLOADS[workload]
    sat_s = seconds * spec["sat_frac"]
    open_s = seconds - sat_s
    inputs = {"probes": probes_for(workload)}
    traced_half = trace and spec["shards"] == 1  # see run_workload
    phases = ["saturation"] + (["saturation_traced"] if traced_half else [])
    if workload == "serve_hot":
        pool = hot_pool(workload_rng(workload, seed, "pool"))
        cum = zipf_cum_weights(len(pool))
        draw = workload_rng(workload, seed, "draws")
        inputs["warm"] = list(pool)[:spec["warm"]]
        for phase in phases:
            inputs[phase] = draw.choices(pool, cum_weights=cum, k=40000)
        sched = open_loop_schedule(workload_rng(workload, seed, "arrivals"),
                                   spec["rate"], open_s)
        inputs["open"] = list(zip(sched, draw.choices(
            pool, cum_weights=cum, k=len(sched))))
    elif workload == "serve_unique":
        stream = unique_stream(workload_rng(workload, seed, "grid"))
        inputs["warm"] = stream[:spec["warm"]]
        rest = stream[spec["warm"]:]
        sched = open_loop_schedule(workload_rng(workload, seed, "arrivals"),
                                   spec["rate"], open_s)
        inputs["open"] = list(zip(sched, rest[:len(sched)]))
        rest = rest[len(sched):]
        share = len(rest) // len(phases)
        for i, phase in enumerate(phases):
            inputs[phase] = rest[i * share:(i + 1) * share]
    else:
        stream = plan_stream(workload_rng(workload, seed, "grid"))
        inputs["warm"] = stream[:spec["warm"]]
        for phase in phases:
            inputs[phase] = stream[spec["warm"]:]
        inputs["open"] = []
    return inputs


def write_requests(path, requests):
    with open(path, "w") as f:
        for req in requests:
            if isinstance(req, tuple):
                f.write("%.3f\t%s\n" % (req[0], json.dumps(
                    req[1], separators=(",", ":"))))
            else:
                f.write("0\t%s\n" % json.dumps(req, separators=(",", ":")))


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build():
    """Configure (once) and build the server and both tools. Returns an
    error message, or None on success."""
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j",
                  str(min(4, os.cpu_count() or 1)), "--target",
                  "neusight-serve", "perfbench-client", "perfbench-layers"])
    with open(log, "w") as out:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                                 cwd=ROOT)
            if rc != 0:
                with open(log) as f:
                    tail = f.read()[-3000:]
                return "build step failed: %s\n%s" % (" ".join(cmd), tail)
    return None


def build_type():
    try:
        with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_times():
    """Aggregate /proc/stat CPU times (user .. steal), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor took between two cpu_times()."""
    if not before or not after:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


class CpuSampler:
    """Samples cpu_times() every 50 ms while a phase runs, so each of
    the phase's windows can be charged its own steal share."""

    def __init__(self):
        self.samples = []
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self.done.is_set():
            self.samples.append((time.monotonic(), cpu_times()))
            self.done.wait(0.05)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.done.set()
        self.thread.join()
        self.samples.append((time.monotonic(), cpu_times()))

    def steal(self, t0, t1):
        """Steal share between the samples bracketing [t0, t1]."""
        times = [t for t, _ in self.samples]
        i = max(0, bisect.bisect_right(times, t0) - 1)
        j = min(len(times) - 1, bisect.bisect_left(times, t1))
        if j <= i:
            return None
        return steal_share(self.samples[i][1], self.samples[j][1])

    def window_steals(self, origin_s, seconds, window_s):
        return [self.steal(origin_s + k * window_s,
                           origin_s + (k + 1) * window_s)
                for k in range(int(seconds // window_s))]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# The server under test
# ---------------------------------------------------------------------------

class Server:
    """One neusight-serve --listen process tree."""

    # Every server not yet stopped, so an aborted run still stops them.
    live = []

    def __init__(self, spec, rundir, label, trained_path, trace_out=None):
        cmd = [SERVE, "--listen", "127.0.0.1:0", "--backend",
               spec["backend"], "--shards", str(spec["shards"]),
               "--predictor", trained_path]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        self.log = open(os.path.join(rundir, "server-%s.log" % label), "w")
        self.ready = threading.Event()
        self.port = None
        self.listening_at = None  # time.monotonic() of the listen line
        self.started = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=rundir,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        Server.live.append(self)

    def _read(self):
        for raw in self.proc.stderr:
            line = raw.decode(errors="replace")
            self.log.write(line)
            self.log.flush()
            if self.port is None and "listening on 127.0.0.1:" in line:
                self.listening_at = time.monotonic()
                self.port = int(line.split("127.0.0.1:")[1].split()[0])
                self.ready.set()
        self.ready.set()

    def wait_ready(self, timeout):
        self.ready.wait(timeout)
        return self.port is not None and self.proc.poll() is None

    def pids(self):
        """The router (or only) process and its shard workers."""
        pids = [self.proc.pid]
        try:
            with open("/proc/%d/task/%d/children"
                      % (self.proc.pid, self.proc.pid)) as f:
                pids += [int(p) for p in f.read().split()]
        except OSError:
            pass
        return pids

    def peak_rss_mb(self):
        total_kb = 0
        for pid in self.pids():
            try:
                with open("/proc/%d/status" % pid) as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def death(self, phase):
        """Describe the process if it has died, else None."""
        rc = self.proc.poll()
        if rc is None:
            return None
        how = ("signal %s" % signal.Signals(-rc).name if rc < 0
               else "exit code %d" % rc)
        return {"process": "neusight-serve (pid %d)" % self.proc.pid,
                "how": how, "phase": phase}

    def stats(self):
        """The merged metrics snapshot of the "stats" op, or None."""
        try:
            with socket.create_connection(("127.0.0.1", self.port),
                                          timeout=30) as sock:
                sock.sendall(b'{"op":"stats","tag":"stats"}\n')
                data = b""
                while not data.endswith(b"\n"):
                    chunk = sock.recv(1 << 20)
                    if not chunk:
                        return None
                    data += chunk
            reply = json.loads(data)
            return reply.get("stats") if reply.get("ok") else None
        except (OSError, ValueError):
            return None

    def stop(self):
        """SIGTERM (graceful drain), then wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            rc = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            rc = self.proc.wait()
        self.reader.join(timeout=10)
        self.proc.stderr.close()
        self.log.close()
        if self in Server.live:
            Server.live.remove(self)
        return rc

    def kill(self):
        for pid in reversed(self.pids()):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


def run_client(args, timeout):
    rc = subprocess.call([CLIENT] + args, timeout=timeout,
                         stdout=subprocess.DEVNULL)
    return rc


def drive(server, rundir, name, req_path, mode, spec, seconds, cycle=False):
    """One load phase of the requests in req_path (written by
    write_requests); returns the client's raw result dict. Its origin_s
    and elapsed_us place the phase's first send and last reply on
    time.monotonic()'s clock."""
    out_path = os.path.join(rundir, name + ".out.json")
    args = ["drive", "--port", str(server.port or 1), "--requests",
            req_path, "--mode", mode, "--connections",
            str(spec["connections"]), "--depth", str(spec["depth"]),
            "--seconds", "%.3f" % seconds, "--out", out_path]
    if cycle:
        args.append("--cycle")
    with CpuSampler() as host:
        rc = run_client(args, timeout=seconds + 60)
    if rc != 0:
        raise RuntimeError("perfbench-client drive failed (%d)" % rc)
    with open(out_path) as f:
        result = json.load(f)
    result["window_steal"] = host.window_steals(
        result["origin_s"], seconds, spec["window_s"])
    return result


def counter(stats, name):
    value = (stats or {}).get(name, 0)
    return value if isinstance(value, (int, float)) else 0


def counter_delta(before, after, name):
    return counter(after, name) - counter(before, name)


def frac(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------

class Ledger:
    """Counts, samples and failures of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unmatched = 0
        self.codes = {}
        self.deaths = []
        self.mismatches = []
        self.notes = []

    def add_phase(self, result):
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.unmatched += result["unmatched"]
        for code, n in result["codes"].items():
            self.codes[code] = self.codes.get(code, 0) + n

    def fail_all(self, count, code):
        self.attempted += count
        self.failed += count
        self.codes[code] = self.codes.get(code, 0) + count


def run_dir(workload):
    """The workload's run directory. Each run replaces it, so the files
    of the last run (request sets, client samples, server logs and the
    traced run's Chrome traces) stay for inspection."""
    return os.path.join(RUNS, workload)


def start_server(spec, rundir, label, trained, warm_path, ledger,
                 trace_out=None):
    """Spawn a server and send it the warm-up pass. Returns (server,
    set-up seconds): spawn to listening plus first send to last reply
    of the warm-up pass, so the runner's own work between the two (and
    the client's start) is not counted. On a failure the death is in
    the ledger and the server is None."""
    server = Server(spec, rundir, label, trained, trace_out=trace_out)
    if not server.wait_ready(SERVER_START_TIMEOUT_S):
        ledger.deaths.append(server.death("set-up") or {
            "process": "neusight-serve (pid %d)" % server.proc.pid,
            "how": "never listened", "phase": "set-up"})
        ledger.fail_all(spec["warm"], "server_unavailable")
        server.kill()
        server.stop()
        return None, None
    warm = drive(server, rundir, "warm-" + label, warm_path, "closed",
                 dict(spec, depth=8), SERVER_START_TIMEOUT_S)
    ledger.add_phase(warm)
    death = server.death("set-up")
    if death:
        ledger.deaths.append(death)
        server.stop()
        return None, None
    return server, (server.listening_at - server.started +
                    warm["elapsed_us"] / 1e6)


def stop_server(server, ledger):
    rc = server.stop()
    if rc != 0 and not ledger.deaths:
        ledger.deaths.append({"process": "neusight-serve",
                              "how": "exit code %d on SIGTERM" % rc,
                              "phase": "shutdown"})


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (correct, ledger, metrics, samples).
    metrics maps name -> value; samples maps name -> count."""
    spec = WORKLOADS[workload]
    rundir = run_dir(workload)
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    # The trained predictor lives in the run directory, so set-up trains
    # from scratch every time it needs one.
    trained = os.path.join(rundir, "neusight_nvidia.bin")
    inputs = workload_inputs(workload, seed, seconds, trace)
    paths = {}
    for name in ("warm", "saturation", "saturation_traced", "open"):
        if inputs.get(name):
            paths[name] = os.path.join(rundir, name + ".requests")
            write_requests(paths[name], inputs[name])
    ledger = Ledger()
    metrics = {}
    samples = {}

    # Set-up, repeated: spawn, listen, warm-up pass. The last server
    # stays up for the timed phases.
    setup_times = []
    setup_steals = []
    server = None
    for attempt in range(spec["setups"]):
        if server:
            stop_server(server, ledger)
        if os.path.exists(trained):
            os.remove(trained)
        cpu_start = cpu_times()
        server, setup = start_server(spec, rundir, "setup%d" % attempt,
                                     trained, paths["warm"], ledger)
        if server is None:
            break
        setup_times.append(setup)
        setup_steals.append(steal_share(cpu_start, cpu_times()))
    setup_times = quiet(setup_times, setup_steals)
    samples["setup_s"] = len(setup_times)
    metrics["setup_s"] = median_or(setup_times, 0.0)

    latency = None  # (client result, phase seconds) of the latency phase
    lag_us = []
    rps = {}
    windows = {}
    before = after = None
    probe = None
    rss = 0.0
    alive = server is not None and not ledger.deaths
    if alive:
        # Output check: the fixed probes against the in-process engine.
        probe_reqs = os.path.join(rundir, "probes.requests")
        probe_out = os.path.join(rundir, "probes.out.json")
        write_requests(probe_reqs, inputs["probes"])
        rc = run_client(["probe", "--port", str(server.port), "--requests",
                         probe_reqs, "--backend", spec["backend"],
                         "--predictor", trained,
                         "--rounds", str(PROBE_ROUNDS if trace else 0),
                         "--pings", str(PINGS if trace else 0),
                         "--out", probe_out], timeout=170)
        ledger.attempted += len(inputs["probes"])
        if rc != 0:
            ledger.failed += len(inputs["probes"])
            ledger.codes["probe_failed"] = len(inputs["probes"])
            ledger.mismatches.append({"diff": "probe client failed"})
        else:
            with open(probe_out) as f:
                probe = json.load(f)
            ledger.mismatches += probe["mismatches"]
        before = server.stats()

        # The traced run splits the saturation phase between this server
        # and a second one started with --trace-out (single-shard servers
        # only: neusight-serve traces one process). The seed decides which
        # half runs first, so phase order does not bias the comparison.
        phases = ["saturation"]
        if "saturation_traced" in inputs:
            phases.append("saturation_traced")
            if seed % 2:
                phases.reverse()
        sat_s = seconds * spec["sat_frac"] / len(phases)
        for phase in phases:
            target = server
            if phase == "saturation_traced":
                target, _ = start_server(
                    spec, rundir, "traced", trained, paths["warm"], ledger,
                    trace_out=os.path.join(rundir, "server.trace.json"))
                if target is None:
                    break
            res = drive(target, rundir, phase, paths[phase], "closed",
                        spec, sat_s, cycle=spec["repeats"])
            ledger.add_phase(res)
            rates = quiet(window_rate(res["done_us"], sat_s,
                                      spec["window_s"]),
                          res["window_steal"])
            rps[phase] = median_or(rates,
                                   frac(res["ok"], res["elapsed_us"] / 1e6))
            windows[phase] = len(rates)
            if spec["rate"] is None and latency is None:
                latency = (res, sat_s)
            if target is not server:
                death = target.death(phase)
                if death:
                    ledger.deaths.append(death)
                stop_server(target, ledger)
            if server.death(phase):
                break
        if spec["rate"] is not None and not server.death("saturation"):
            open_s = seconds * (1 - spec["sat_frac"])
            res = drive(server, rundir, "open", paths["open"], "open", spec,
                        open_s)
            ledger.add_phase(res)
            latency = (res, open_s)
        if latency:
            lag_us = latency[0]["lag_us"]
        death = server.death("timed phases")
        if death:
            ledger.deaths.append(death)
        else:
            after = server.stats()
            rss = server.peak_rss_mb()
            deaths = counter_delta(before, after, "net.shard.deaths")
            if deaths:
                ledger.deaths.append({
                    "process": "shard worker", "how": "%d death(s), "
                    "signal not visible (reaped by the router)" % deaths,
                    "phase": "timed phases"})
        stop_server(server, ledger)
    elif server:
        server.stop()

    metrics["throughput_rps"] = rps.get("saturation", 0.0)
    samples["throughput_rps"] = windows.get("saturation", 0)
    samples["p50_ms"] = samples["p99_ms"] = 0
    metrics["p50_ms"] = metrics["p99_ms"] = 0.0
    if latency and latency[0]["latency_us"]:
        res, phase_s = latency
        lat = res["latency_us"]
        due = [d - l for d, l in zip(res["done_us"], lat)]
        for q in (50, 99):
            metrics["p%d_ms" % q] = median_or(
                quiet(window_percentiles(lat, due, phase_s,
                                         spec["window_s"], q),
                      res["window_steal"]),
                percentile(lat, q)) / 1e3
        samples["p50_ms"] = samples["p99_ms"] = len(lat)
    metrics["peak_rss_mb"] = rss
    samples["peak_rss_mb"] = 1 if rss else 0
    metrics["failed_frac"] = frac(ledger.failed, ledger.attempted)
    samples["failed_frac"] = ledger.attempted
    if workload == "serve_unique":
        err = forecast_error(probe) if probe else None
        metrics["forecast_error_pct"] = err if err is not None else 0.0
        samples["forecast_error_pct"] = len(fig7_cases()) if probe else 0

    if trace:
        layer_metrics(workload, spec, inputs, rundir, trained, probe, before,
                      after, lag_us, rps, ledger, metrics, samples)

    correct = (ledger.failed == 0 and ledger.unmatched == 0 and
               not ledger.mismatches and not ledger.deaths)
    return correct, ledger, metrics, samples


def forecast_error(probe):
    """Mean absolute % error of served neusight answers against served
    oracle answers on the Figure-7 cases."""
    replies = list(probe["replies"].values())
    # Probes are sent in order: base probes, then (neusight, oracle)
    # pairs of each Figure-7 case.
    base = len(base_probes())
    errors = []
    for i in range(len(fig7_cases())):
        ns = replies[base + 2 * i]
        truth = replies[base + 2 * i + 1]
        if not (ns.get("ok") and truth.get("ok")):
            return None
        errors.append(abs(ns["latency_ms"] - truth["latency_ms"]) /
                      truth["latency_ms"] * 100.0)
    return statistics.fmean(errors)


def layer_metrics(workload, spec, inputs, rundir, trained, probe, before,
                  after, lag_us, rps, ledger, metrics, samples):
    """The traced run's per-layer figures: TCP-side ones from this run,
    counters from the server's "stats" op, the rest in-process."""
    def put(name, value, count):
        metrics[name] = value
        samples[name] = count

    def put_median(name, values):
        put(name, statistics.median(values) if values else 0.0, len(values))

    put_median("net.ping_rtt_us", probe["ping_us"] if probe else [])
    put_median("net.outside_us", probe["outside_us"] if probe else [])
    rejected = counter_delta(before, after, "net.requests.rejected")
    if spec["shards"] == 1:  # no router ledger on a single-shard server
        rejected = counter_delta(before, after, "serve.rejected")
    put("net.requests.rejected", rejected, 1 if after else 0)
    put("net.timeouts", counter_delta(before, after, "net.timeouts"),
        1 if after else 0)
    completed = counter_delta(before, after, "serve.completed")
    put("serve.coalesced_frac",
        frac(counter_delta(before, after, "serve.coalesced"), completed),
        completed)
    for cache in ("prediction", "graph"):
        hits = counter_delta(before, after, "cache.%s.hits" % cache)
        misses = counter_delta(before, after, "cache.%s.misses" % cache)
        put("cache.%s.hit_frac" % cache, frac(hits, hits + misses),
            hits + misses)
    put("cache.prediction.evictions",
        counter_delta(before, after, "cache.prediction.evictions"),
        1 if after else 0)
    put("bench.lag_ms", percentile(lag_us, 99) / 1e3 if lag_us else 0.0,
        len(lag_us))
    untraced = rps.get("saturation", 0.0)
    traced = rps.get("saturation_traced", 0.0)
    put("bench.trace_overhead_frac",
        1.0 - traced / untraced if untraced and traced else 0.0,
        2 if untraced and traced else 0)
    if spec["shards"] > 1:
        ledger.notes.append("bench.trace_overhead_frac: not measured, "
                            "neusight-serve traces only with --shards 1")

    paths = {}
    for name in ("saturation", "warm", "probes"):
        paths[name] = os.path.join(rundir, "layers-%s.requests" % name)
        write_requests(paths[name], inputs[name][:4000])
    out = os.path.join(rundir, "layers.out.json")
    cmd = [LAYERS, "--requests", paths["saturation"], "--warm",
           paths["warm"], "--probes", paths["probes"], "--backend",
           spec["backend"], "--predictor", trained, "--depth",
           str(spec["connections"] * spec["depth"] // spec["shards"]),
           "--budget", str(LAYER_BUDGET_S), "--trace-out",
           os.path.join(rundir, "layers.trace.json"), "--out", out]
    if workload == "serve_unique":
        cmd.append("--train")
    proc = subprocess.run(cmd, cwd=rundir, timeout=170,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    names = [n for n, _ in PER_LAYER + (TRAIN_LAYER
                                        if workload == "serve_unique"
                                        else [])]
    if proc.returncode != 0:
        how = ("signal %s" % signal.Signals(-proc.returncode).name
               if proc.returncode < 0 else
               "exit code %d" % proc.returncode)
        ledger.deaths.append({"process": "perfbench-layers", "how": how,
                              "phase": "per-layer timing"})
        for name in names:
            metrics.setdefault(name, 0.0)
            samples.setdefault(name, 0)
        return
    with open(out) as f:
        layers = json.load(f)
    for name, values in layers["samples"].items():
        if name in ("serve.queue_wait_us", "serve.execute_us"):
            for q in (50, 99):
                put("%s.p%d" % (name, q),
                    percentile(values, q) if values else 0.0, len(values))
        else:
            put_median(name, values)
    for name, value in layers["values"].items():
        put(name, value, 1)
    for name in names:
        if name not in metrics:
            put(name, 0.0, 0)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def metric_table(workload, trace):
    if trace:
        return PER_LAYER + (TRAIN_LAYER if workload == "serve_unique"
                            else [])
    extra = [m for m in EXTRA_END_TO_END
             if m[0] != "forecast_error_pct" or workload == "serve_unique"]
    return END_TO_END + extra


def report(workload, seed, seconds, trace, correct, ledger, metrics,
           samples):
    table = metric_table(workload, trace)
    print("== %s (seed %d, %s s, %s run)" % (
        workload, seed, seconds, "traced" if trace else "untraced"))
    for name, unit in table:
        print("  %-32s %18.6f %-9s n=%d" % (name, metrics.get(name, 0.0),
                                            unit, samples.get(name, 0)))
    print("  attempted %d, failed %d, unmatched replies %d, probe "
          "mismatches %d" % (ledger.attempted, ledger.failed,
                             ledger.unmatched, len(ledger.mismatches)))
    for death in ledger.deaths:
        print("  DIED: %s by %s during %s" % (death["process"], death["how"],
                                              death["phase"]))
    for m in ledger.mismatches[:5]:
        print("  MISMATCH: %s" % json.dumps(m))
    ledger_line = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "commit": commit(),
        "host": {"cores": os.cpu_count()}, "build": build_type(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
        "options": WORKLOADS[workload],
        "correct": correct, "failure_codes": ledger.codes,
        "deaths": ledger.deaths, "notes": ledger.notes,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit,
                           "samples": samples.get(name, 0)}
                    for name, unit in table},
    }
    print("ledger: " + json.dumps(ledger_line, sort_keys=True))
    return ledger_line


def final_line_metrics(workload, trace, metrics):
    """The metrics of the final JSON line: exactly the BENCHMARK.json
    lists (end_to_end, or per_layer with --trace 1)."""
    table = PER_LAYER if trace else END_TO_END
    return {name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in table}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    error = build()
    if error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2

    workloads = sorted(WORKLOADS) if args.workload == "all" \
        else [args.workload]
    results = []
    # A SIGTERM to the runner unwinds through the finally below, so no server
    # outlives the run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        for workload in workloads:
            # Host interference, for reading the figures: a VM whose
            # hypervisor steals CPU runs every timed phase slower.
            loadavg = os.getloadavg()[0]
            cpu_before = cpu_times()
            correct, ledger, metrics, samples = run_workload(
                workload, args.seed, args.seconds, bool(args.trace))
            ledger.notes.append("1-min load average at start: %.2f"
                                % loadavg)
            steal = steal_share(cpu_before, cpu_times())
            if steal is not None:
                ledger.notes.append("CPU steal during the run: %.1f%%"
                                    % (100 * steal))
            report(workload, args.seed, args.seconds, bool(args.trace),
                   correct, ledger, metrics, samples)
            results.append((workload, correct, ledger, metrics))
    finally:
        for server in list(Server.live):
            server.kill()
            server.stop()

    if len(results) == 1:
        workload, correct, ledger, metrics = results[0]
        final_metrics = final_line_metrics(workload, args.trace, metrics)
    else:
        final_metrics = {}
        for workload, _, _, metrics in results:
            for name, m in final_line_metrics(workload, args.trace,
                                            metrics).items():
                final_metrics[workload + "." + name] = m
    correct = all(r[1] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r[2].attempted for r in results),
        "failed": sum(r[2].failed for r in results),
        "metrics": final_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
