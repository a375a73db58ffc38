"""Parsers and per-layer attribution for the benchmark harness.

Everything here is a pure function of documents the simulator already
writes: the `--metrics-out` report, the `--trace-out` Chrome trace,
`bench_micro`'s google-benchmark JSON, the JSON sink, and the serve
daemon's PFRM result frames. run.py does the I/O; the tests in
test_layers.py drive these functions on hand-built inputs.
"""

import json
import re
import struct

FRAME_MAGIC = 0x4D524650  # "PFRM", little-endian
FRAME_HEADER = struct.Struct("<II")

# JSON-sink fields that vary between identical runs. Everything else in
# the document is a deterministic function of the spec and the model.
VOLATILE_DOC_KEYS = ("timestamp", "wall_seconds", "trace_cache", "threads")


# ---------------------------------------------------------------- frames

def encode_frame(doc):
    """One PFRM frame carrying @p doc as compact JSON."""
    payload = json.dumps(doc, separators=(",", ":")).encode()
    return FRAME_HEADER.pack(FRAME_MAGIC, len(payload)) + payload


def decode_frame_header(header):
    """Payload length from an 8-byte frame header; ValueError if bad."""
    if len(header) != FRAME_HEADER.size:
        raise ValueError("truncated frame header")
    magic, length = FRAME_HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise ValueError("bad frame magic 0x%08x" % magic)
    return length


def parse_result_frame(payload):
    """The fields of a daemon response the harness checks and times.

    Returns a dict with type, exit_code, failed_jobs, wall_seconds and
    sinks ({sink type: content}). Error frames come back with their
    type "error" and code, so the caller counts them as failures.
    """
    doc = json.loads(payload)
    out = {
        "type": doc.get("type"),
        "code": doc.get("code"),
        "exit_code": doc.get("exit_code"),
        "failed_jobs": doc.get("failed_jobs"),
        "wall_seconds": doc.get("wall_seconds"),
        "sinks": {},
    }
    for sink in doc.get("sinks") or []:
        out["sinks"][sink.get("type")] = sink.get("content")
    return out


# ------------------------------------------------------- output checking

def normalize_sink_doc(doc):
    """A JSON-sink document without its wall-clock and cache fields."""
    return {k: v for k, v in doc.items() if k not in VOLATILE_DOC_KEYS}


def normalize_table(text):
    """Table-sink bytes without the nondeterministic wall-clock line."""
    return "".join(line for line in text.splitlines(True)
                   if not line.startswith("wall-clock:"))


def normalize_serve_sinks(sinks):
    """Comparable form of a result frame's captured sink bytes."""
    out = {}
    for kind, content in sinks.items():
        if kind == "table":
            out[kind] = normalize_table(content)
        elif kind == "json":
            out[kind] = normalize_sink_doc(json.loads(content))
        else:
            out[kind] = content
    return out


def failed_jobs(expected, actual):
    """Jobs of @p actual that fail against the pinned @p expected.

    Both are normalized JSON-sink documents. A job fails when it is
    missing, reports an error, or differs from its pin in any metric or
    statistic. A difference outside the results list (spec hash, record
    count) fails the whole run, so it counts every pinned job.
    """
    want = expected.get("results", [])
    got = actual.get("results", [])
    top_want = {k: v for k, v in expected.items() if k != "results"}
    top_got = {k: v for k, v in actual.items() if k != "results"}
    if top_want != top_got:
        return max(1, len(want))
    failed = 0
    for i, job in enumerate(want):
        if i >= len(got) or got[i] != job:
            failed += 1
    return failed + max(0, len(got) - len(want))


def sink_summary(doc):
    """Exact model counts summed over a JSON-sink document's jobs."""
    out = {"issued": 0, "useful": 0, "l2_demand_misses": 0,
           "dram_reads": 0, "records": 0, "jobs": 0}
    for r in doc.get("results", []):
        if "error" in r:
            continue
        s = r["stats"]
        out["issued"] += s["l2_prefetches_issued"]
        out["useful"] += s["l2_prefetches_useful"]
        out["l2_demand_misses"] += s["l2_demand_misses"]
        out["dram_reads"] += s["dram_reads"]
        out["records"] += s["records"]
        out["jobs"] += 1
    return out


# ------------------------------------------------------------ statistics

def quantile(values, q):
    """The @p q quantile (0..1) with linear interpolation."""
    v = sorted(values)
    if not v:
        raise ValueError("quantile of no values")
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


# ---------------------------------------------------------- metrics-out

def parse_metrics_report(doc):
    """The `--metrics-out` fields the per-layer table reads."""
    phases = doc.get("phases", {})
    counters = doc.get("counters", {})
    pool = doc.get("thread_pool", {})

    def phase(name):
        p = phases.get(name, {})
        return p.get("seconds", 0.0), p.get("count", 0)

    return {
        "phase_s": {k: phase(k)[0] for k in phases},
        "phase_count": {k: phase(k)[1] for k in phases},
        "counters": dict(counters),
        "pool_workers": pool.get("workers", 1),
        "pool_busy_s": pool.get("busy_seconds", 0.0),
        "pool_utilization": pool.get("utilization", 0.0),
    }


# ---------------------------------------------------------------- spans

def parse_spans(doc):
    """Complete ("X") events of a Chrome trace as seconds-based dicts."""
    spans = []
    for e in doc.get("traceEvents", []):
        if e.get("ph") != "X":
            continue
        start = float(e["ts"]) / 1e6
        spans.append({
            "name": e["name"],
            "cat": e.get("cat", ""),
            "tid": e["tid"],
            "start": start,
            "end": start + float(e["dur"]) / 1e6,
        })
    return spans


def children(parent, spans):
    """Spans nested inside @p parent on the same thread."""
    return [s for s in spans
            if s is not parent and s["tid"] == parent["tid"]
            and s["start"] >= parent["start"] and s["end"] <= parent["end"]]


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(parent, spans):
    """@p parent's duration minus what its child spans cover."""
    kids = children(parent, spans)
    return (parent["end"] - parent["start"]) - covered(
        (k["start"], k["end"]) for k in kids)


def experiment_span(spans):
    for s in spans:
        if s["cat"] == "experiment":
            return s
    raise ValueError("trace has no experiment span")


def job_spans(spans):
    """Driver job spans: per-job work and the baseline warm-up jobs."""
    return [s for s in spans if s["cat"] == "job"]


def barrier_idle(spans, workers):
    """Worker-seconds idle until the last baseline span ends.

    ExperimentDriver runs every baseline before any pipeline job, so
    until the last baseline finishes, @p workers threads have that much
    time and the baselines fill only the sum of their spans.
    """
    exp = experiment_span(spans)
    baselines = [s for s in job_spans(spans)
                 if s["name"].startswith("baseline ")]
    if not baselines:
        return 0.0
    barrier = max(s["end"] for s in baselines) - exp["start"]
    busy = sum(s["end"] - s["start"] for s in baselines)
    return workers * barrier - busy


def tail_idle(spans, workers):
    """Worker-seconds from each worker's last job to the run's end.

    A worker that ran no job at all idles for the whole experiment.
    """
    exp = experiment_span(spans)
    last_end = {}
    for s in job_spans(spans):
        last_end[s["tid"]] = max(last_end.get(s["tid"], s["end"]), s["end"])
    idle = sum(exp["end"] - end for end in last_end.values())
    idle += max(0, workers - len(last_end)) * (exp["end"] - exp["start"])
    return idle


def span_attribution(spans):
    """Per-layer seconds and counts the trace alone determines."""
    exp = experiment_span(spans)
    jobs = job_spans(spans)
    rpg2_jobs = [s for s in jobs if s["name"].endswith("/rpg2")]
    prophet_sim = 0.0
    for s in jobs:
        if s["name"].endswith("/prophet"):
            prophet_sim += sum(k["end"] - k["start"]
                               for k in children(s, spans)
                               if k["name"].startswith("simulate "))
    return {
        "experiment_s": exp["end"] - exp["start"],
        "job_self_s": sum(self_time(s, spans) for s in jobs),
        "rpg2_identify_s": sum(self_time(s, spans) for s in rpg2_jobs),
        "rpg2_tuning_runs": sum(
            1 for s in rpg2_jobs for k in children(s, spans)
            if k["name"].startswith("simulate ")),
        "prophet_simulate_s": prophet_sim,
        "baseline_simulate_s": sum(
            k["end"] - k["start"] for s in jobs
            if s["name"].startswith("baseline ")
            or s["name"].endswith("/baseline")
            for k in children(s, spans)
            if k["name"].startswith("simulate ")),
    }


# ----------------------------------------------------------- bench_micro

# bench_micro benchmark -> (per-layer metric, unit). "ns" reads the time
# per iteration, "Mrec/s" the records (items) per second.
MICRO_METRICS = {
    "BM_MarkovLookup": ("prefetch.markov_lookup_ns", "ns"),
    "BM_MarkovInsert": ("prefetch.markov_insert_ns", "ns"),
    "BM_CacheLookupHit": ("mem.cache_lookup_ns", "ns"),
    "BM_TraceCacheStore": ("trace.store_mrec_per_s", "Mrec/s"),
    "BM_TraceCacheLoad": ("trace.load_mrec_per_s", "Mrec/s"),
    "BM_SystemStep/none": ("sim.step_mrec_per_s.none", "Mrec/s"),
    "BM_SystemStep/triage": ("sim.step_mrec_per_s.triage", "Mrec/s"),
    "BM_SystemStep/triangel": ("sim.step_mrec_per_s.triangel", "Mrec/s"),
    "BM_SystemStep/prophet": ("sim.step_mrec_per_s.prophet", "Mrec/s"),
    "BM_SystemStepSampled/prophet":
        ("sim.step_sampled_mrec_per_s.prophet", "Mrec/s"),
}

# Benches with a fixed iteration count carry an "/iterations:N" suffix.
MICRO_FILTER = "^(%s)(/iterations:[0-9]+)?$" % "|".join(sorted(MICRO_METRICS))

_TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def parse_bench_micro(doc):
    """Per-layer {metric: (value, unit)} from google-benchmark's JSON.

    Iteration rows only; aggregate rows (mean/median/stddev) appear
    only with repetitions, which the harness does not request.
    """
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        entry = MICRO_METRICS.get(
            re.sub(r"/iterations:[0-9]+$", "", b.get("name", "")))
        if entry is None:
            continue
        if b.get("error_occurred"):
            raise ValueError("%s failed: %s" % (b["name"],
                                                b.get("error_message")))
        name, unit = entry
        if unit == "ns":
            out[name] = (b["real_time"] * _TIME_UNIT_NS[b["time_unit"]], unit)
        else:
            out[name] = (b["items_per_second"] / 1e6, unit)
    missing = sorted(n for n, _ in MICRO_METRICS.values() if n not in out)
    if missing:
        raise ValueError("bench_micro output lacks " + ", ".join(missing))
    return out
