#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the prophet simulator.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --workload NAME --write-pins

Run from the root of a source checkout. The harness builds `prophet`
and `bench_micro` into .bench_build, and its host-speed reference
(refloop/) into .bench_build/refloop, then drives the binaries from
outside on one vCPU; it never links against the simulator. With
--trace 0 it times the workload, rescales every time by the reference
runs around it, and prints the end-to-end metrics; with --trace 1 it makes
one instrumented pass (--metrics-out, --trace-out, daemon health,
bench_micro) and prints the per-layer metrics. Every operation's output
is checked against the pins in perfbench/pins, and the last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--write-pins reruns one operation at seed 0 and rewrites the workload's
pin file, for changes that are meant to move the model's results.
README.md in this directory says why each workload exists.
"""

import argparse
import collections
import itertools
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))

BUILD_DIR = ".bench_build"
WORK_ROOT = ".perfbench_work"
SPEC_DIR = os.path.join(HERE, "specs")
PIN_DIR = os.path.join(HERE, "pins")

SETUP_REPS = 5          # cold set-ups per run; setup_s is their median
OP_TIMEOUT_S = 60       # one operation may not take longer than this
MIN_SERVE_REQUESTS = 100  # so at least 10 requests lie beyond p90
SERVE_BATCH_S = 0.5     # requests timed between two reference runs

# The host-speed reference (refloop/): its fixed work, the hit count
# that work must produce, and its time on an uncontended vCPU of the
# 4-vCPU Xeon VM, which end-to-end times are rescaled to.
REF_ACCESSES = 8000000
REF_HITS = 122906
REF_NOMINAL_S = 0.125


class SetupError(Exception):
    """The benchmark could not run: no result is printed."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def child_env(work):
    env = dict(os.environ)
    env.pop("PROPHET_FAULTS", None)
    env["PROPHET_LOG"] = "warn"
    env["TMPDIR"] = os.path.abspath(work)
    return env


# ------------------------------------------------------------------ build

def build():
    """Configure once, then bring prophet, bench_micro and refloop up
    to date."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise SetupError("run from the root of a prophet source checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", ".", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF",
                     "-DPROPHET_BUILD_LEGACY_BENCHES=OFF"])
    run_checked(["cmake", "--build", BUILD_DIR, "--target", "prophet",
                 "bench_micro", "-j", "4"])
    ref_dir = os.path.join(BUILD_DIR, "refloop")
    if not os.path.isfile(os.path.join(ref_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", os.path.join(HERE, "refloop"),
                     "-B", ref_dir, "-DCMAKE_BUILD_TYPE=Release"])
    run_checked(["cmake", "--build", ref_dir])


def run_checked(cmd):
    """Run a build command with its output on stderr."""
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=850).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        raise SetupError("%s: %s" % (cmd[0], e))
    if rc != 0:
        raise SetupError("%s exited %d" % (" ".join(cmd[:3]), rc))


def binary(name):
    return os.path.abspath(os.path.join(BUILD_DIR, name))


# -------------------------------------------------------------- processes

# One finished child: wall seconds, exit code, peak RSS in MB.
Timed = collections.namedtuple("Timed", "wall rc rss_mb")


def timed_run(cmd, cwd, env, log_path):
    """Run @p cmd to completion; time it from spawn to reap.

    os.wait4 reaps the child and returns its own rusage, so the peak
    RSS belongs to this process alone. A timer kills a hung child.
    """
    with open(log_path, "ab") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=cwd, env=env,
                             stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(OP_TIMEOUT_S, p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Timed(wall, p.returncode, ru.ru_maxrss / 1024.0)


# ------------------------------------------------------------- host speed

def pin_to_one_cpu():
    """Run the harness and every child on one vCPU from now on.

    The speed of a vCPU of a shared host changes independently of the
    others, so the reference only tracks an operation on the same one.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Reference:
    """The reference loop, run between consecutive timed operations."""

    def __init__(self):
        self.last = self.measure()
        self.times = [self.last]

    def measure(self):
        try:
            out = subprocess.run(
                [binary("refloop/refloop"), str(REF_ACCESSES)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired as e:
            raise SetupError("refloop: %s" % e)
        fields = out.stdout.split()
        if out.returncode != 0 or len(fields) != 2 \
                or int(fields[1]) != REF_HITS:
            raise SetupError("refloop: exit %d, output %r"
                             % (out.returncode, out.stdout))
        return float(fields[0])

    def scale(self, wall):
        """@p wall, just measured, in nominal seconds.

        Rescales by REF_NOMINAL_S over the mean of the reference times
        right before and right after it; the run after it is the next
        operation's run before.
        """
        before = self.last
        self.last = self.measure()
        self.times.append(self.last)
        return wall * REF_NOMINAL_S / ((before + self.last) / 2)


# ------------------------------------------------------------------ specs

def load_spec(name, seed):
    with open(os.path.join(SPEC_DIR, name + ".json")) as f:
        spec = json.load(f)
    if name == "rpg2_graph":
        # Same scaled graph (vertices cap at 65536), another graph seed.
        spec["workloads"] = ["pagerank_%d_100" % (100000 + seed)]
    return spec


def pin_path(name):
    return os.path.join(PIN_DIR, name + ".json")


def load_pin(name, seed):
    """The pinned outputs, or None where the seed has no pin."""
    if seed != 0 and name == "rpg2_graph":
        return None
    with open(pin_path(name)) as f:
        return json.load(f)


def write_pin(name, doc):
    os.makedirs(PIN_DIR, exist_ok=True)
    with open(pin_path(name), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote " + pin_path(name))


# ------------------------------------------------------- CLI workloads

class CliWorkload:
    """A `prophet run` workload on a private, warm trace cache."""

    def __init__(self, name, seed, work, expected, ref=None):
        self.name = name
        self.work = work
        self.ref = ref
        self.env = child_env(work)
        self.spec = load_spec(name, seed)
        self.spec_path = self.write_spec(name, self.spec)
        self.jobs = len(self.spec["workloads"]) * len(self.spec["pipelines"])
        self.expected = expected
        self.cache = None
        self.attempted = 0
        self.failed = 0

    def write_spec(self, name, spec):
        path = os.path.join(self.work, name + ".json")
        with open(path, "w") as f:
            json.dump(spec, f)
        return os.path.abspath(path)

    def synthesize(self, rep):
        """Cold set-up: generate and store every trace on one thread."""
        cache = os.path.abspath(os.path.join(self.work, "cache%d" % rep))
        t = timed_run([binary("prophet"), "trace-cache", "warm",
                       self.spec_path, "--threads", "1",
                       "--trace-cache-dir", cache],
                      self.work, self.env, self.log_path())
        if t.rc != 0:
            raise SetupError("trace-cache warm exited %d" % t.rc)
        return cache, t.wall

    def setup(self, reps):
        """Cold set-ups; their times in nominal seconds, with a reference."""
        times = []
        for rep in range(reps):
            if self.cache:
                shutil.rmtree(self.cache)
            self.cache, wall = self.synthesize(rep)
            times.append(self.ref.scale(wall) if self.ref else wall)
        return times

    def log_path(self):
        return os.path.join(self.work, "prophet.log")

    def run_op(self, spec_path=None, jobs=None, expected=None,
               traced=False):
        """One `prophet run`; returns (Timed, sink doc or None).

        The op's jobs count as attempted; a job is failed when it errors,
        is missing, or differs from the pin, and a run that misses the
        trace cache or exits non-zero fails at least one job.
        """
        spec_path = spec_path or self.spec_path
        jobs = self.jobs if jobs is None else jobs
        expected = self.expected if expected is None else expected
        result = os.path.join(self.work, "result.json")
        if os.path.exists(result):
            os.remove(result)
        cmd = [binary("prophet"), "run", spec_path,
               "--trace-cache-dir", self.cache]
        if traced:
            cmd += ["--metrics-out", "metrics.json",
                    "--trace-out", "trace.json"]
        t = timed_run(cmd, self.work, self.env, self.log_path())
        self.attempted += jobs
        try:
            with open(result) as f:
                doc = json.load(f)
        except (OSError, ValueError):
            log("%s: exit %d and no result document" % (self.name, t.rc))
            self.failed += jobs
            return t, None
        got = layers.normalize_sink_doc(doc)
        if expected is None:
            # No pin for this seed: every op must agree with the first.
            self.expected = expected = got
        bad = layers.failed_jobs(expected, got)
        cache = doc.get("trace_cache", {})
        all_hits = (cache.get("misses") == 0
                    and cache.get("hits") == len(self.spec["workloads"]))
        if (t.rc != 0 or not all_hits) and bad == 0:
            bad = 1
        if bad:
            log("%s: %d job(s) failed (exit %d, trace cache %s)"
                % (self.name, bad, t.rc, cache))
        self.failed += bad
        return t, doc

    def timed(self, seconds, min_ops=3):
        """Operations until @p seconds are spent, at least @p min_ops.

        Returns (Timed, records, nominal wall) per operation. The last
        one starts only if at least half of it fits, so a run overshoots
        by half an operation on average, not a whole one.
        """
        # Warm-up: the first read of the freshly stored traces.
        self.ref.scale(self.run_op()[0].wall)
        ops = []
        end = time.perf_counter() + seconds
        while len(ops) < min_ops or (
                time.perf_counter()
                + statistics.median(t.wall for t, _, _ in ops) / 2 < end):
            t, doc = self.run_op()
            records = layers.sink_summary(doc)["records"] if doc else 0
            ops.append((t, records, self.ref.scale(t.wall)))
        return ops


def cli_end_to_end(name, seed, seconds, work):
    ref = Reference()
    w = CliWorkload(name, seed, work, load_pin(name, seed), ref)
    setup = w.setup(SETUP_REPS)
    ops = w.timed(seconds)
    log("%s: setup %s; %d ops %s nominal %s; reference %s" % (
        name, fmt(setup), len(ops), fmt(t.wall for t, _, _ in ops),
        fmt(n for _, _, n in ops), fmt(ref.times)))
    metrics = {
        "wall_s": (statistics.median(n for _, _, n in ops), "s"),
        "mrec_per_s": (statistics.median(r / n for _, r, n in ops) / 1e6,
                       "Mrec/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(t.rss_mb for t, _, _ in ops), "MB"),
    }
    return w.attempted, w.failed, metrics


def cli_per_layer(name, seed, work):
    """One traced `prophet run` bracketed by untraced ones."""
    ref = Reference()
    w = CliWorkload(name, seed, work, load_pin(name, seed), ref)
    w.setup(1)
    ref.scale(w.run_op()[0].wall)  # warm-up, as in the timed runs
    raw = [w.run_op()[0]]
    untraced = [ref.scale(raw[0].wall)]
    traced, doc = w.run_op(traced=True)
    traced_nominal = ref.scale(traced.wall)
    raw.append(w.run_op()[0])
    untraced.append(ref.scale(raw[1].wall))
    report = layers.parse_metrics_report(
        read_json(os.path.join(work, "metrics.json")))
    spans = layers.parse_spans(read_json(os.path.join(work, "trace.json")))
    attr = layers.span_attribution(spans)

    baseline_sim = attr["baseline_simulate_s"]
    if name == "prophet_mcf":
        # The timed spec has no baseline job; a second traced run of the
        # baseline on the same trace supplies the reference simulate span.
        spec = load_spec("prophet_mcf_baseline", seed)
        path = w.write_spec("prophet_mcf_baseline", spec)
        w.run_op(spec_path=path, jobs=1,
                 expected=load_pin("prophet_mcf_baseline", seed),
                 traced=True)
        base_attr = layers.span_attribution(layers.parse_spans(
            read_json(os.path.join(work, "trace.json"))))
        baseline_sim = base_attr["baseline_simulate_s"]

    c = report["counters"]
    model = layers.sink_summary(doc or {})
    sim_records = c.get("sim.records", 0)
    workers = int(report["pool_workers"])
    m = {
        "tracing_overhead_pct": (
            (traced_nominal / statistics.median(untraced) - 1) * 100, "%"),
        "host.ref_s": (statistics.median(ref.times), "s"),
        "host.raw_wall_s": (statistics.median(t.wall for t in raw), "s"),
        "trace.load_s": (report["phase_s"].get("trace_load", 0.0), "s"),
        "trace.cache_hits": (c.get("trace_cache.hits", 0), "count"),
        "trace.cache_misses": (c.get("trace_cache.misses", 0), "count"),
        "trace.resident_hits": (c.get("runner.trace_resident_hits", 0),
                                "count"),
        "core.profile_s": (report["phase_s"].get("profile", 0.0), "s"),
        "core.profile_runs": (report["phase_count"].get("profile", 0),
                              "count"),
        "prefetch.temporal_s": (
            attr["prophet_simulate_s"] - baseline_sim
            if attr["prophet_simulate_s"] else 0.0, "s"),
        "sim.simulate_s": (report["phase_s"].get("simulate", 0.0), "s"),
        "sim.warmup_s": (report["phase_s"].get("warmup", 0.0), "s"),
        "sim.runs": (c.get("sim.runs", 0), "count"),
        "sim.records": (sim_records, "count"),
        "sim.useful_record_share": (
            model["records"] / sim_records if sim_records else 0.0,
            "ratio"),
        "sim.pool_busy_s": (report["pool_busy_s"], "s"),
        "sim.pool_utilization": (report["pool_utilization"], "ratio"),
        "sim.barrier_idle_s": (layers.barrier_idle(spans, workers), "s"),
        "sim.tail_idle_s": (layers.tail_idle(spans, workers), "s"),
        "rpg2.tuning_runs": (attr["rpg2_tuning_runs"], "count"),
        "rpg2.identify_s": (attr["rpg2_identify_s"], "s"),
        "driver.job_self_s": (attr["job_self_s"], "s"),
        "driver.sink_render_s": (
            report["phase_s"].get("sink_render", 0.0), "s"),
        "driver.startup_s": (traced.wall - attr["experiment_s"], "s"),
        "driver.retries": (c.get("driver.retries", 0), "count"),
        "serve.latency_p50_ms": (0.0, "ms"),
        "serve.latency_p90_ms": (0.0, "ms"),
        "serve.driver_ms": (0.0, "ms"),
        "serve.overhead_ms": (0.0, "ms"),
        "serve.request_ms": (0.0, "ms"),
    }
    m.update(model_metrics(model))
    return w, m


def read_json(path):
    with open(path) as f:
        return json.load(f)


def model_metrics(model):
    """Exact simulated counts; a speed-only change must not move them."""
    return {
        "prefetch.issued": (model["issued"], "count"),
        "prefetch.useful": (model["useful"], "count"),
        "prefetch.accuracy": (
            model["useful"] / model["issued"] if model["issued"] else 0.0,
            "ratio"),
        "mem.l2_demand_misses": (model["l2_demand_misses"], "count"),
        "mem.dram_reads": (model["dram_reads"], "count"),
    }


# ---------------------------------------------------------- serve_warm

def recv_exact(sock, n):
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("daemon closed the connection mid-frame")
        buf += chunk
    return bytes(buf)


def exchange(path, frame, timeout=OP_TIMEOUT_S):
    """One closed-loop request; returns (seconds, response payload)."""
    t0 = time.perf_counter()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(path)
        s.sendall(frame)
        n = layers.decode_frame_header(recv_exact(s, 8))
        payload = recv_exact(s, n)
    return time.perf_counter() - t0, payload


class Daemon:
    """A `prophet serve` process on a fresh, empty trace cache."""

    def __init__(self, work, rep, env):
        self.dir = os.path.join(work, "serve%d" % rep)
        os.makedirs(self.dir)
        self.socket = os.path.join(self.dir, "s.sock")
        self.t0 = time.perf_counter()
        self.log = open(os.path.join(work, "serve.log"), "ab")
        self.proc = subprocess.Popen(
            [binary("prophet"), "serve", "--socket", "s.sock",
             "--trace-cache-dir", "cache"],
            cwd=self.dir, env=env, stdout=subprocess.DEVNULL,
            stderr=self.log)

    def first_exchange(self, frame):
        """Send @p frame as soon as the daemon accepts connections.

        Polls every 0.5 ms: fine enough not to quantize a start-up of
        tens of ms, and the daemon shares the harness's one vCPU, which
        a loop without sleeps would take half of.
        """
        deadline = self.t0 + 60
        while True:
            if self.proc.poll() is not None:
                raise SetupError("prophet serve exited %d at start-up"
                                 % self.proc.returncode)
            if time.perf_counter() > deadline:
                raise SetupError("prophet serve never accepted")
            try:
                _, payload = exchange(self.socket, frame)
                return time.perf_counter() - self.t0, payload
            except (FileNotFoundError, ConnectionRefusedError):
                time.sleep(0.0005)

    def health(self):
        _, payload = exchange(self.socket,
                              layers.encode_frame({"type": "health"}))
        doc = json.loads(payload)
        if doc.get("type") != "health":
            raise SetupError("health request answered %s" % doc.get("type"))
        return doc

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise SetupError("no VmHWM for the daemon")

    def stop(self):
        """SIGTERM (the daemon drains), SIGKILL after 10 s; always reaps."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self.log.close()


class ServeWorkload:
    """Closed-loop `run` requests of the smoke spec to one daemon."""

    def __init__(self, work, expected, ref=None):
        self.work = work
        self.ref = ref
        self.env = child_env(work)
        with open(os.path.join(SPEC_DIR, "serve_warm.json")) as f:
            self.frame = layers.encode_frame(
                {"type": "run", "spec_text": f.read()})
        self.expected = expected
        self.daemons = []
        self.attempted = 0
        self.failed = 0

    def start(self, rep):
        """Cold start: launch a daemon and wait for its first result."""
        d = Daemon(self.work, rep, self.env)
        self.daemons.append(d)
        setup_s, payload = d.first_exchange(self.frame)
        self.check(payload)
        return d, setup_s

    def setup(self, reps):
        """Cold starts; their times in nominal seconds, with a reference."""
        times = []
        for rep in range(reps):
            if self.daemons:
                self.daemons[-1].stop()
            d, setup_s = self.start(rep)
            times.append(self.ref.scale(setup_s) if self.ref else setup_s)
        return d, times

    def check(self, payload):
        """Count one request; fail it on any deviation from the pin.

        Only the result frame decides: its type, exit code, failed jobs
        and sink bytes. The daemon's disconnect counter is not used, as
        it can count a client that closed after its result was written.
        """
        self.attempted += 1
        try:
            r = layers.parse_result_frame(payload)
            sinks = layers.normalize_serve_sinks(r["sinks"])
            if self.expected is None:
                self.expected = sinks
            ok = (r["type"] == "result" and r["exit_code"] == 0
                  and r["failed_jobs"] == 0 and sinks == self.expected)
        except (ValueError, KeyError, TypeError):
            r, ok = None, False
        if not ok:
            log("serve_warm: request failed: %s" % (
                (r["type"], r["code"], r["exit_code"]) if r else "bad frame",))
            self.failed += 1
        return r if ok else None

    def request(self, d):
        try:
            wall, payload = exchange(d.socket, self.frame)
        except (OSError, ValueError) as e:
            log("serve_warm: request error: %s" % e)
            self.attempted += 1
            self.failed += 1
            return None, None
        return wall, self.check(payload)

    def requests(self, d, seconds, min_requests):
        """Closed loop: the next request goes out when the last returns.

        Returns the request walls, the driver walls and, with a
        reference, the mean request wall of each SERVE_BATCH_S batch in
        nominal seconds; the reference runs between batches.
        """
        walls, driver, batches = [], [], []
        batch = []
        end = time.perf_counter() + seconds
        for sent in itertools.count():
            if sent >= min_requests and time.perf_counter() >= end:
                break
            wall, r = self.request(d)
            if r is not None:
                walls.append(wall)
                driver.append(r["wall_seconds"])
                batch.append(wall)
            if self.ref and sum(batch) >= SERVE_BATCH_S:
                batches.append(self.ref.scale(statistics.mean(batch)))
                batch = []
        return walls, driver, batches

    def check_resident(self, before, after):
        """Fail the pass if any request after set-up touched a trace."""
        b, a = before["counters"], after["counters"]
        keys = ("trace_cache.hits", "trace_cache.misses",
                "runner.trace_generated")
        loads = sum(a.get(k, 0) - b.get(k, 0) for k in keys)
        if loads:
            log("serve_warm: %d trace loads after set-up" % loads)
            self.failed += loads

    def stop(self):
        for d in self.daemons:
            d.stop()


def serve_end_to_end(seed, seconds, work):
    ref = Reference()
    w = ServeWorkload(work, load_pin("serve_warm", seed), ref)
    try:
        d, setup = w.setup(SETUP_REPS)
        before = d.health()
        w.requests(d, SERVE_BATCH_S, 0)  # warm-up
        walls, _, batches = w.requests(d, seconds, MIN_SERVE_REQUESTS)
        w.check_resident(before, d.health())
        rss = d.peak_rss_mb()
    finally:
        w.stop()
    log("serve_warm: setup %s; %d requests, median %.4f s; batches %s; "
        "reference %s" % (fmt(setup), len(walls), statistics.median(walls),
                          fmt(batches), fmt(ref.times)))
    records = layers.sink_summary(
        w.expected["json"])["records"]
    metrics = {
        "wall_s": (statistics.median(batches), "s"),
        "mrec_per_s": (statistics.median(records / b for b in batches)
                       / 1e6, "Mrec/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return w.attempted, w.failed, metrics


def serve_per_layer(seed, seconds, work):
    """Result frames and health deltas over a pass of warm requests."""
    ref = Reference()
    w = ServeWorkload(work, load_pin("serve_warm", seed), ref)
    try:
        d, _ = w.setup(1)
        before = d.health()
        # Half the run: bench_micro takes the rest.
        walls, driver, _ = w.requests(d, seconds / 2, MIN_SERVE_REQUESTS)
        after = d.health()
        w.check_resident(before, after)
    finally:
        w.stop()

    def delta(section, key, field=None):
        a = after[section].get(key, 0)
        b = before[section].get(key, 0)
        if field:
            a = a[field] if a else 0
            b = b[field] if b else 0
        return a - b

    def phase_s(name):
        return delta("histograms", "phase.%s_ns" % name, "sum") / 1e9

    n = len(walls)
    req_ns = delta("histograms", "serve.request_ns", "sum")
    req_count = delta("histograms", "serve.request_ns", "count")
    sim_records = delta("counters", "sim.records")
    model = layers.sink_summary(w.expected["json"])
    m = {
        # The daemon has no span tracing: result frames and health are
        # always on, so this pass adds no instrumentation to measure.
        "tracing_overhead_pct": (0.0, "%"),
        "host.ref_s": (statistics.median(ref.times), "s"),
        "host.raw_wall_s": (statistics.median(walls), "s"),
        "trace.load_s": (phase_s("trace_load"), "s"),
        "trace.cache_hits": (delta("counters", "trace_cache.hits"),
                             "count"),
        "trace.cache_misses": (delta("counters", "trace_cache.misses"),
                               "count"),
        "trace.resident_hits": (
            delta("counters", "runner.trace_resident_hits"), "count"),
        "core.profile_s": (phase_s("profile"), "s"),
        "core.profile_runs": (
            delta("histograms", "phase.profile_ns", "count"), "count"),
        "prefetch.temporal_s": (0.0, "s"),
        "sim.simulate_s": (phase_s("simulate"), "s"),
        "sim.warmup_s": (phase_s("warmup"), "s"),
        "sim.runs": (delta("counters", "sim.runs"), "count"),
        "sim.records": (sim_records, "count"),
        "sim.useful_record_share": (
            model["records"] * n / sim_records if sim_records else 0.0,
            "ratio"),
        "sim.pool_busy_s": (delta("counters", "threadpool.busy_ns") / 1e9,
                            "s"),
        "sim.pool_utilization": (0.0, "ratio"),
        "sim.barrier_idle_s": (0.0, "s"),
        "sim.tail_idle_s": (0.0, "s"),
        "rpg2.tuning_runs": (0, "count"),
        "rpg2.identify_s": (0.0, "s"),
        "driver.job_self_s": (0.0, "s"),
        "driver.sink_render_s": (phase_s("sink_render"), "s"),
        "driver.startup_s": (0.0, "s"),
        "driver.retries": (delta("counters", "driver.retries"), "count"),
        "serve.latency_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "serve.latency_p90_ms": (layers.quantile(walls, 0.9) * 1e3, "ms"),
        "serve.driver_ms": (statistics.median(driver) * 1e3, "ms"),
        "serve.overhead_ms": (
            statistics.median(a - b for a, b in zip(walls, driver)) * 1e3,
            "ms"),
        "serve.request_ms": (
            req_ns / req_count / 1e6 if req_count else 0.0, "ms"),
    }
    # Per-pass totals, like a CLI run's sink sums over its jobs.
    m.update(model_metrics({k: v * n for k, v in model.items()}))
    return w, m


# ----------------------------------------------------------- bench_micro

def micro_metrics(work):
    out = os.path.abspath(os.path.join(work, "micro.json"))
    cmd = [binary("bench_micro"), "--benchmark_filter=" + layers.MICRO_FILTER,
           "--benchmark_out=" + out, "--benchmark_out_format=json"]
    t = timed_run(cmd, work, child_env(work),
                  os.path.join(work, "micro.log"))
    if t.rc != 0:
        raise SetupError("bench_micro exited %d" % t.rc)
    return layers.parse_bench_micro(read_json(out))


# ------------------------------------------------------------------ main

WORKLOADS = ("fig10_sweep", "prophet_mcf", "rpg2_graph", "serve_warm")


def fmt(values):
    return "[" + " ".join("%.3f" % v for v in values) + "]"


def measure(name, seed, seconds, trace, work):
    if not trace:
        if name == "serve_warm":
            return serve_end_to_end(seed, seconds, work)
        return cli_end_to_end(name, seed, seconds, work)
    if name == "serve_warm":
        w, m = serve_per_layer(seed, seconds, work)
    else:
        w, m = cli_per_layer(name, seed, work)
    m.update(micro_metrics(work))
    return w.attempted, w.failed, m


def write_pins(name, work):
    if name == "serve_warm":
        w = ServeWorkload(work, expected=None)
        try:
            d, _ = w.setup(1)
            w.request(d)
        finally:
            w.stop()
        if w.failed:
            raise SetupError("serve_warm: requests disagree or failed")
        write_pin(name, w.expected)
        return
    names = [name] + (["prophet_mcf_baseline"]
                      if name == "prophet_mcf" else [])
    for n in names:
        w = CliWorkload(n, 0, work, expected=None)
        w.setup(1)
        t, doc = w.run_op()
        if t.rc != 0 or doc is None or doc.get("failed_jobs"):
            raise SetupError("%s: run failed (exit %d)" % (n, t.rc))
        write_pin(n, layers.normalize_sink_doc(doc))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true",
                    help="rewrite the workload's pins from one seed-0 run")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 4_000_000_000:
        ap.error("--seed must be in [0, 4e9)")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv):
    args = parse_args(argv)
    work = os.path.join(WORK_ROOT, args.workload)
    try:
        build()
        pin_to_one_cpu()
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        if args.write_pins:
            write_pins(args.workload, work)
            return 0
        attempted, failed, metrics = measure(
            args.workload, args.seed, args.seconds, args.trace, work)
    except (SetupError, OSError, ValueError, KeyError) as e:
        log("error: %s" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
