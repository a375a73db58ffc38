"""Tests for the benchmark harness's parsers, attribution and checks.

    python3 -m unittest discover -s perfbench

They need no build: every input is built by hand in the shape the
simulator writes it.
"""

import copy
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layers  # noqa: E402
import run  # noqa: E402


def span(name, cat, tid, start, end):
    return {"name": name, "cat": cat, "tid": tid, "start": start,
            "end": end}


def sink_doc(ipc=0.5, issued=10):
    return {
        "experiment": "t", "spec_hash": "00", "records": 100,
        "timestamp": "2026-01-01T00:00:00Z", "wall_seconds": 1.25,
        "threads": 1, "trace_cache": {"hits": 1, "misses": 0},
        "results": [
            {"workload": "mcf", "pipeline": "baseline",
             "metrics": {"ipc": 0.4},
             "stats": {"records": 100, "l2_prefetches_issued": 0,
                       "l2_prefetches_useful": 0, "l2_demand_misses": 7,
                       "dram_reads": 9}},
            {"workload": "mcf", "pipeline": "prophet",
             "metrics": {"ipc": ipc},
             "stats": {"records": 100, "l2_prefetches_issued": issued,
                       "l2_prefetches_useful": 4, "l2_demand_misses": 5,
                       "dram_reads": 8}},
        ],
    }


class MetricsReportTest(unittest.TestCase):
    def test_phases_counters_and_pool(self):
        doc = {
            "wall_seconds": 2.5, "peak_rss_bytes": 1 << 20,
            "failed_jobs": 0,
            "phases": {"profile": {"seconds": 1.5, "count": 7},
                       "trace_load": {"seconds": 0.25, "count": 7}},
            "thread_pool": {"workers": 3, "busy_seconds": 6.0,
                            "utilization": 0.8},
            "counters": {"sim.runs": 28, "trace_cache.hits": 7},
        }
        r = layers.parse_metrics_report(doc)
        self.assertEqual(r["phase_s"]["profile"], 1.5)
        self.assertEqual(r["phase_count"]["profile"], 7)
        self.assertEqual(r["counters"]["sim.runs"], 28)
        self.assertEqual(r["pool_workers"], 3)
        self.assertEqual(r["pool_utilization"], 0.8)

    def test_missing_sections_read_as_zero(self):
        r = layers.parse_metrics_report({"wall_seconds": 1.0})
        self.assertEqual(r["phase_s"], {})
        self.assertEqual(r["pool_busy_s"], 0.0)
        self.assertEqual(r["pool_workers"], 1)


class SpanTest(unittest.TestCase):
    def test_chrome_trace_events(self):
        doc = {"traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "worker-0"}},
            {"ph": "X", "pid": 1, "tid": 1, "ts": 1500.5, "dur": 250.25,
             "cat": "job", "name": "job mcf/prophet"},
        ], "displayTimeUnit": "ms"}
        spans = layers.parse_spans(doc)
        self.assertEqual(len(spans), 1)
        s = spans[0]
        self.assertEqual((s["name"], s["cat"], s["tid"]),
                         ("job mcf/prophet", "job", 1))
        self.assertAlmostEqual(s["start"], 0.0015005)
        self.assertAlmostEqual(s["end"] - s["start"], 0.00025025)

    def test_self_time_subtracts_the_union_of_children(self):
        job = span("job w/rpg2", "job", 1, 0.0, 10.0)
        spans = [job,
                 span("simulate w", "sim", 1, 1.0, 4.0),
                 span("trace-load w", "trace", 1, 3.0, 5.0),
                 span("simulate w", "sim", 1, 6.0, 7.0),
                 span("simulate w", "sim", 2, 0.0, 10.0)]  # other thread
        self.assertAlmostEqual(layers.self_time(job, spans), 10 - 4 - 1)

    def test_barrier_and_tail_idle(self):
        # Three workers; baselines end at 2, 3 and 4 (the barrier). Jobs
        # then run until 9, 8 and 6; the experiment ends at 10.
        spans = [
            span("experiment fig10", "experiment", 0, 0.0, 10.0),
            span("baseline a", "job", 1, 0.0, 2.0),
            span("baseline b", "job", 2, 0.0, 3.0),
            span("baseline c", "job", 3, 0.5, 4.0),
            span("job a/prophet", "job", 1, 4.0, 9.0),
            span("job b/prophet", "job", 2, 4.0, 8.0),
            span("job c/prophet", "job", 3, 4.0, 6.0),
            span("simulate a", "sim", 1, 4.5, 8.5),
        ]
        # 3 workers x 4 s of barrier, minus 2 + 3 + 3.5 s of baselines.
        self.assertAlmostEqual(layers.barrier_idle(spans, 3), 3.5)
        # (10 - 9) + (10 - 8) + (10 - 6).
        self.assertAlmostEqual(layers.tail_idle(spans, 3), 7.0)
        # A fourth worker that never ran a job idles the whole run.
        self.assertAlmostEqual(layers.tail_idle(spans, 4), 17.0)

    def test_attribution(self):
        spans = [
            span("experiment g", "experiment", 0, 0.0, 12.0),
            span("baseline g", "job", 0, 0.0, 2.0),
            span("simulate g", "sim", 0, 0.5, 2.0),
            span("job g/rpg2", "job", 0, 2.0, 11.0),
            span("simulate g", "sim", 0, 3.0, 6.0),
            span("simulate g", "sim", 0, 6.0, 10.0),
            span("job g/prophet", "job", 1, 0.0, 5.0),
            span("profile g", "sim", 1, 0.0, 2.0),
            span("simulate g", "sim", 1, 2.5, 5.0),
        ]
        a = layers.span_attribution(spans)
        self.assertEqual(a["rpg2_tuning_runs"], 2)
        self.assertAlmostEqual(a["rpg2_identify_s"], 2.0)
        self.assertAlmostEqual(a["prophet_simulate_s"], 2.5)
        self.assertAlmostEqual(a["baseline_simulate_s"], 1.5)
        self.assertAlmostEqual(a["job_self_s"], 0.5 + 2.0 + 0.5)
        self.assertAlmostEqual(a["experiment_s"], 12.0)


class BenchMicroTest(unittest.TestCase):
    def doc(self):
        rows = []
        for name, (_, unit) in layers.MICRO_METRICS.items():
            row = {"name": name, "run_type": "iteration",
                   "real_time": 2.0, "time_unit": "ns"}
            if unit == "Mrec/s":
                row.update(name=name + "/iterations:3", time_unit="ms",
                           items_per_second=2.5e6)
            rows.append(row)
        rows.append({"name": "BM_MarkovLookup_mean",
                     "run_type": "aggregate", "real_time": 99.0,
                     "time_unit": "ns"})
        return {"context": {}, "benchmarks": rows}

    def test_values_and_units(self):
        m = layers.parse_bench_micro(self.doc())
        self.assertEqual(m["prefetch.markov_lookup_ns"], (2.0, "ns"))
        self.assertEqual(m["sim.step_mrec_per_s.prophet"], (2.5, "Mrec/s"))
        self.assertEqual(m["trace.load_mrec_per_s"], (2.5, "Mrec/s"))
        self.assertEqual(len(m), len(layers.MICRO_METRICS))

    def test_time_unit_conversion(self):
        doc = self.doc()
        for b in doc["benchmarks"]:
            if b["name"] == "BM_CacheLookupHit":
                b.update(real_time=0.5, time_unit="us")
        self.assertEqual(
            layers.parse_bench_micro(doc)["mem.cache_lookup_ns"],
            (500.0, "ns"))

    def test_missing_or_failed_bench_is_an_error(self):
        doc = self.doc()
        doc["benchmarks"] = [b for b in doc["benchmarks"]
                             if not b["name"].startswith("BM_TraceCacheLoad")]
        with self.assertRaises(ValueError):
            layers.parse_bench_micro(doc)
        doc = self.doc()
        doc["benchmarks"][0]["error_occurred"] = True
        with self.assertRaises(ValueError):
            layers.parse_bench_micro(doc)

    def test_filter_selects_suffixed_names(self):
        import re
        f = re.compile(layers.MICRO_FILTER)
        self.assertTrue(f.search("BM_SystemStep/prophet/iterations:3"))
        self.assertTrue(f.search("BM_MarkovLookup"))
        self.assertFalse(f.search("BM_SystemStepSampled/none/iterations:3"))
        self.assertFalse(f.search("BM_BloomInsertEstimate"))


class FrameTest(unittest.TestCase):
    def test_round_trip(self):
        frame = layers.encode_frame({"type": "ping"})
        n = layers.decode_frame_header(frame[:8])
        self.assertEqual(json.loads(frame[8:8 + n]), {"type": "ping"})
        self.assertEqual(frame[:4], b"PFRM")

    def test_bad_header(self):
        with self.assertRaises(ValueError):
            layers.decode_frame_header(b"XXXX\x00\x00\x00\x00")
        with self.assertRaises(ValueError):
            layers.decode_frame_header(b"PFRM")

    def test_result_and_error_frames(self):
        r = layers.parse_result_frame(json.dumps({
            "type": "result", "exit_code": 0, "failed_jobs": 0,
            "interrupted": False, "wall_seconds": 0.02,
            "sinks": [{"type": "table", "path": "", "content": "t"},
                      {"type": "csv", "path": "x.csv", "content": "c"}]}))
        self.assertEqual(r["sinks"], {"table": "t", "csv": "c"})
        self.assertEqual(r["wall_seconds"], 0.02)
        e = layers.parse_result_frame(json.dumps({
            "type": "error", "code": "server-overloaded", "exit_code": 4}))
        self.assertEqual((e["type"], e["code"]),
                         ("error", "server-overloaded"))
        self.assertEqual(e["sinks"], {})


class OutputCheckTest(unittest.TestCase):
    def test_normalized_docs_ignore_wall_clock(self):
        a = layers.normalize_sink_doc(sink_doc())
        b = sink_doc()
        b.update(timestamp="later", wall_seconds=9.0,
                 trace_cache={"hits": 0, "misses": 1})
        self.assertEqual(layers.failed_jobs(a, layers.normalize_sink_doc(b)),
                         0)

    def test_wrong_pin_is_one_failed_job(self):
        pin = layers.normalize_sink_doc(sink_doc(ipc=0.5000001))
        got = layers.normalize_sink_doc(sink_doc())
        self.assertEqual(layers.failed_jobs(pin, got), 1)

    def test_missing_job_and_top_level_mismatch(self):
        pin = layers.normalize_sink_doc(sink_doc())
        got = copy.deepcopy(pin)
        got["results"].pop()
        self.assertEqual(layers.failed_jobs(pin, got), 1)
        got = copy.deepcopy(pin)
        got["records"] = 200
        self.assertEqual(layers.failed_jobs(pin, got), 2)

    def test_table_wall_clock_line_dropped(self):
        t = "== smoke ==\nIPC\n| mcf |\nwall-clock: 0.02 s (x)\n"
        self.assertEqual(layers.normalize_table(t),
                         "== smoke ==\nIPC\n| mcf |\n")

    def test_sink_summary(self):
        s = layers.sink_summary(sink_doc(issued=10))
        self.assertEqual((s["issued"], s["useful"], s["records"]),
                         (10, 4, 200))
        self.assertEqual((s["l2_demand_misses"], s["dram_reads"]),
                         (12, 17))

    def test_quantile(self):
        v = [float(i) for i in range(1, 11)]
        self.assertAlmostEqual(layers.quantile(v, 0.9), 9.1)
        self.assertEqual(layers.quantile([3.0], 0.9), 3.0)


class HarnessCheckTest(unittest.TestCase):
    """The harness counts a deliberately wrong pin as one failure."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.work = self.tmp.name

    def tearDown(self):
        self.tmp.cleanup()

    def test_cli_op_against_wrong_pin(self):
        doc = sink_doc()
        doc["trace_cache"] = {"hits": 1, "misses": 0}
        work = self.work

        def fake_run(cmd, cwd, env, log_path):
            with open(os.path.join(work, "result.json"), "w") as f:
                json.dump(doc, f)
            return run.Timed(1.0, 0, 10.0)

        right = layers.normalize_sink_doc(doc)
        wrong = copy.deepcopy(right)
        wrong["results"][1]["stats"]["dram_reads"] += 1
        with mock.patch.object(run, "timed_run", fake_run):
            w = run.CliWorkload("prophet_mcf", 0, work, right)
            w.cache = work
            w.run_op(jobs=2)
            self.assertEqual((w.attempted, w.failed), (2, 0))
            w = run.CliWorkload("prophet_mcf", 0, work, wrong)
            w.cache = work
            w.run_op(jobs=2)
            self.assertEqual((w.attempted, w.failed), (2, 1))

    def test_cli_op_missing_the_trace_cache_fails(self):
        doc = sink_doc()
        doc["trace_cache"] = {"hits": 0, "misses": 1}
        work = self.work

        def fake_run(cmd, cwd, env, log_path):
            with open(os.path.join(work, "result.json"), "w") as f:
                json.dump(doc, f)
            return run.Timed(1.0, 0, 10.0)

        with mock.patch.object(run, "timed_run", fake_run):
            w = run.CliWorkload("prophet_mcf", 0, work,
                                layers.normalize_sink_doc(doc))
            w.cache = work
            w.run_op(jobs=2)
        self.assertEqual(w.failed, 1)

    def test_serve_result_against_wrong_pin(self):
        frame = json.dumps({
            "type": "result", "exit_code": 0, "failed_jobs": 0,
            "wall_seconds": 0.02,
            "sinks": [{"type": "table", "content":
                       "IPC\nwall-clock: 0.02 s\n"},
                      {"type": "json", "content": json.dumps(sink_doc())},
                      {"type": "csv", "content": "a,b\n"}]})
        pin = layers.normalize_serve_sinks(
            layers.parse_result_frame(frame)["sinks"])
        w = run.ServeWorkload(self.work, pin)
        self.assertIsNotNone(w.check(frame))
        wrong = copy.deepcopy(pin)
        wrong["csv"] = "a,c\n"
        w = run.ServeWorkload(self.work, wrong)
        self.assertIsNone(w.check(frame))
        error = json.dumps({"type": "error", "code": "cancelled",
                            "exit_code": 6})
        self.assertIsNone(w.check(error))
        self.assertEqual((w.attempted, w.failed), (2, 2))


class ReferenceTest(unittest.TestCase):
    """Walls are rescaled by the reference runs on either side."""

    def test_scale_uses_the_runs_before_and_after(self):
        times = iter([0.25, 0.25, 0.125])
        with mock.patch.object(run.Reference, "measure",
                               lambda self: next(times)):
            ref = run.Reference()
            # Half speed on both sides: 2 s of wall are 1 nominal second
            # when the nominal reference time is 0.125 s.
            self.assertAlmostEqual(ref.scale(2.0),
                                   2.0 * run.REF_NOMINAL_S / 0.25)
            self.assertAlmostEqual(ref.scale(1.0),
                                   1.0 * run.REF_NOMINAL_S / 0.1875)
        self.assertEqual(ref.times, [0.25, 0.25, 0.125])

    def test_wrong_hit_count_is_refused(self):
        out = run.subprocess.CompletedProcess([], 0, stdout="0.1 7\n")
        with mock.patch.object(run.subprocess, "run", return_value=out):
            with self.assertRaises(run.SetupError):
                run.Reference()


if __name__ == "__main__":
    unittest.main()
