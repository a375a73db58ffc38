#include "driver/sink.hh"

#include <cstdarg>
#include <cstdio>
#include <fstream>

#include "common/log.hh"
#include "sim/config_report.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

namespace prophet::driver
{

namespace
{

/**
 * printf-append into a string — the table sink renders through this
 * so one code path feeds both stdout and the serve daemon's captured
 * response bytes, and the two cannot drift.
 */
void
appendf(std::string &out, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    if (n > 0) {
        const std::size_t old = out.size();
        out.resize(old + static_cast<std::size_t>(n) + 1);
        std::vsnprintf(&out[old], static_cast<std::size_t>(n) + 1,
                       fmt, ap2);
        out.resize(old + static_cast<std::size_t>(n));
    }
    va_end(ap2);
}

/** Metric value for a job (metrics are precomputed by the driver). */
double
metricValue(const JobResult &r, const std::string &metric)
{
    for (const auto &[name, value] : r.metrics)
        if (name == metric)
            return value;
    prophet_panic("job result missing a spec metric");
}

/**
 * stdout tables, one per metric: workloads as rows, pipelines as
 * columns, plus the figures' Geomean row (geomean over the positive
 * values only, so a pipeline stuck at zero reports 0 instead of
 * poisoning the mean). A static-report spec renders its report
 * instead — through this same sink, so the CLI, the serve daemon's
 * capturing sinks, and the golden tests share one path.
 */
class TableSink : public Sink
{
  public:
    explicit TableSink(std::string *capture = nullptr)
        : capture(capture)
    {
    }

    void
    result(const JobResult &r) override
    {
        results.push_back(r);
    }

    bool
    finish(const ExperimentSpec &spec, const RunMeta &meta) override
    {
        std::string out =
            spec.report == ExperimentSpec::Report::SystemConfig
            ? sim::systemConfigReport(spec.baseConfig())
            : renderTables(spec, meta);
        if (capture)
            *capture = std::move(out);
        else
            std::fwrite(out.data(), 1, out.size(), stdout);
        return true;
    }

  private:
    std::string *capture; ///< null = stdout (the CLI path)
    std::vector<JobResult> results;

    std::string
    renderTables(const ExperimentSpec &spec, const RunMeta &meta) const
    {
        std::string out;
        appendf(out,
                "\n== %s: %zu workload%s x %zu pipeline%s "
                "(records=%zu, threads=%u, spec %016llx) ==\n\n",
                spec.name.c_str(), spec.workloads.size(),
                spec.workloads.size() == 1 ? "" : "s",
                spec.pipelines.size(),
                spec.pipelines.size() == 1 ? "" : "s", meta.records,
                meta.threads,
                static_cast<unsigned long long>(meta.specHash));
        for (const auto &metric : spec.metrics)
            printMetric(out, spec, metric);
        printFailures(out);
        // Cumulative phase split from the metrics registry: summed
        // over workers, so the parenthesis can exceed the wall time
        // on multiple threads. Golden-output comparisons already
        // exclude the "wall-clock: " line (its value is nondeterministic),
        // so extending it costs no byte-identity.
        appendf(out,
                "wall-clock: %.2f s (trace-load %.2f s, "
                "simulate %.2f s across %u thread%s)\n",
                meta.wallSeconds, meta.traceLoadSeconds,
                meta.simulateSeconds, meta.threads,
                meta.threads == 1 ? "" : "s");
        return out;
    }

    const JobResult &
    at(const std::string &w, const std::string &p) const
    {
        for (const auto &r : results)
            if (r.workload == w && r.pipeline == p)
                return r;
        prophet_panic("table sink missing a (workload, pipeline)");
    }

    void
    printMetric(std::string &out, const ExperimentSpec &spec,
                const std::string &metric) const
    {
        // Column titles and order come straight from the registry-
        // validated pipeline instances (label, else display name).
        std::vector<std::string> hdr{"workload"};
        for (const auto &p : spec.pipelines)
            hdr.push_back(sim::pipelineColumnTitle(p));
        stats::Table table(std::move(hdr));

        std::vector<std::vector<double>> cols(spec.pipelines.size());
        for (const auto &w : spec.workloads) {
            std::vector<std::string> row{w};
            for (std::size_t i = 0; i < spec.pipelines.size(); ++i) {
                const JobResult &r =
                    at(w, spec.pipelines[i].resultName());
                if (!r.ok) {
                    // A failed job renders as a marked cell and stays
                    // out of the geomean: the partial table reports
                    // every number that was actually computed.
                    row.push_back("FAILED");
                    continue;
                }
                double v = metricValue(r, metric);
                row.push_back(stats::Table::fmt(v));
                if (v > 0.0)
                    cols[i].push_back(v);
            }
            table.addRow(std::move(row));
        }
        std::vector<std::string> geo{"Geomean"};
        for (const auto &c : cols)
            geo.push_back(stats::Table::fmt(stats::geomean(c)));
        table.addRow(std::move(geo));
        appendf(out, "%s\n%s\n", metricDisplayName(metric).c_str(),
                table.render().c_str());
    }

    /** Printed only when failures exist: no-failure output is
     *  byte-identical to the pre-failure-handling renderer. */
    void
    printFailures(std::string &out) const
    {
        std::size_t failed = 0;
        for (const auto &r : results)
            if (!r.ok)
                ++failed;
        if (failed == 0)
            return;
        appendf(out, "failures: %zu of %zu job%s\n", failed,
                results.size(), results.size() == 1 ? "" : "s");
        for (const auto &r : results) {
            if (r.ok)
                continue;
            // errorMessage self-describes (recordFailure guarantees
            // the code-name prefix), so no code column here.
            appendf(out, "  %s/%s: %s (attempts=%u)\n",
                    r.workload.c_str(), r.pipeline.c_str(),
                    r.errorMessage.c_str(), r.attempts);
        }
        appendf(out, "\n");
    }
};

json::Value
statsToJson(const sim::RunStats &s)
{
    json::Value o = json::Value::makeObject();
    o.set("ipc", json::Value(s.ipc));
    o.set("cycles", json::Value(s.cycles));
    o.set("instructions", json::Value(s.instructions));
    o.set("records", json::Value(s.records));
    o.set("l1_misses", json::Value(s.l1Misses));
    o.set("l2_demand_accesses", json::Value(s.l2DemandAccesses));
    o.set("l2_demand_misses", json::Value(s.l2DemandMisses));
    o.set("llc_misses", json::Value(s.llcMisses));
    o.set("l2_prefetches_issued", json::Value(s.l2PrefetchesIssued));
    o.set("l2_prefetches_useful", json::Value(s.l2PrefetchesUseful));
    o.set("late_prefetches", json::Value(s.latePrefetches));
    o.set("dram_reads", json::Value(s.dramReads));
    o.set("dram_writes", json::Value(s.dramWrites));
    o.set("dram_prefetch_reads", json::Value(s.dramPrefetchReads));
    o.set("final_metadata_ways",
          json::Value(static_cast<double>(s.finalMetadataWays)));
    // Sampled-run keys exist only on sampled rows: documents from
    // specs without "sampling" stay byte-identical to the
    // pre-sampling schema.
    if (s.sampled) {
        o.set("sampled", json::Value(true));
        o.set("sampled_records", json::Value(s.sampledRecords));
        o.set("sample_scale", json::Value(s.sampleScale));
    }
    return o;
}

/** The whole run as one JSON document. */
class JsonFileSink : public Sink
{
  public:
    explicit JsonFileSink(std::string path,
                          std::string *capture = nullptr)
        : path(std::move(path)), capture(capture)
    {
    }

    void
    result(const JobResult &r) override
    {
        json::Value o = json::Value::makeObject();
        o.set("workload", json::Value(r.workload));
        o.set("pipeline", json::Value(r.pipeline));
        json::Value metrics = json::Value::makeObject();
        for (const auto &[name, value] : r.metrics)
            metrics.set(name, json::Value(value));
        o.set("metrics", std::move(metrics));
        o.set("stats", statsToJson(r.stats));
        // The "error" key exists only on failed rows, so a fully
        // successful document stays byte-identical to the
        // pre-failure-handling schema.
        if (!r.ok) {
            ++failedCount;
            json::Value err = json::Value::makeObject();
            err.set("code", json::Value(errorCodeName(r.errorCode)));
            err.set("message", json::Value(r.errorMessage));
            err.set("attempts",
                    json::Value(static_cast<double>(r.attempts)));
            o.set("error", std::move(err));
        }
        rows.push(std::move(o));
    }

    bool
    finish(const ExperimentSpec &spec, const RunMeta &meta) override
    {
        json::Value root = json::Value::makeObject();
        root.set("experiment", json::Value(meta.specName));
        char hash_buf[24];
        std::snprintf(hash_buf, sizeof(hash_buf), "%016llx",
                      static_cast<unsigned long long>(meta.specHash));
        root.set("spec_hash", json::Value(hash_buf));
        root.set("timestamp", json::Value(meta.timestamp));
        root.set("records", json::Value(meta.records));
        root.set("threads",
                 json::Value(static_cast<double>(meta.threads)));
        root.set("wall_seconds", json::Value(meta.wallSeconds));
        json::Value cache = json::Value::makeObject();
        cache.set("hits", json::Value(meta.traceCacheHits));
        cache.set("misses", json::Value(meta.traceCacheMisses));
        root.set("trace_cache", std::move(cache));
        root.set("spec", spec.toJson());
        if (failedCount > 0)
            root.set("failed_jobs",
                     json::Value(static_cast<double>(failedCount)));
        root.set("results", std::move(rows));

        std::string doc = json::dump(root, 2);
        if (capture) {
            *capture = std::move(doc);
            return true;
        }
        std::ofstream out(path, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "json sink: cannot write %s\n",
                         path.c_str());
            return false;
        }
        out << doc;
        out.flush();
        if (!out) {
            std::fprintf(stderr, "json sink: write to %s failed\n",
                         path.c_str());
            return false;
        }
        std::fprintf(stderr, "json sink: wrote %s\n", path.c_str());
        return true;
    }

  private:
    std::string path;
    std::string *capture; ///< null = write the file (the CLI path)
    json::Value rows = json::Value::makeArray();
    std::size_t failedCount = 0;
};

/**
 * One CSV row per (workload, pipeline). Rows are buffered and
 * rendered in finish(): the header comes from the spec's metric list
 * (not the first row, which may have failed and carry no metrics),
 * and a trailing "error" column is appended only when at least one
 * job failed — a fully successful file is byte-identical to the
 * pre-failure-handling format.
 */
class CsvFileSink : public Sink
{
  public:
    explicit CsvFileSink(std::string path,
                         std::string *capture = nullptr)
        : path(std::move(path)), capture(capture)
    {
    }

    void
    result(const JobResult &r) override
    {
        results.push_back(r);
    }

    bool
    finish(const ExperimentSpec &spec, const RunMeta &) override
    {
        bool any_failed = false;
        for (const auto &r : results)
            if (!r.ok)
                any_failed = true;

        std::string doc;
        std::string hdr = "workload,pipeline";
        for (const auto &name : spec.metrics)
            hdr += "," + name;
        // stats_ prefix keeps these distinct from a requested
        // "ipc" metric column.
        hdr += ",stats_ipc,stats_cycles,stats_l2_demand_misses,"
               "stats_dram_reads,stats_dram_writes";
        if (any_failed)
            hdr += ",error";
        doc += hdr;
        doc += "\n";

        char buf[64];
        for (const auto &r : results) {
            std::string line = r.workload + "," + r.pipeline;
            if (r.ok) {
                for (const auto &[name, value] : r.metrics) {
                    (void)name;
                    std::snprintf(buf, sizeof(buf), ",%.17g", value);
                    line += buf;
                }
                std::snprintf(buf, sizeof(buf), ",%.17g",
                              r.stats.ipc);
                line += buf;
                line += "," + std::to_string(r.stats.cycles);
                line += "," + std::to_string(r.stats.l2DemandMisses);
                line += "," + std::to_string(r.stats.dramReads);
                line += "," + std::to_string(r.stats.dramWrites);
                if (any_failed)
                    line += ",";
            } else {
                // Metric and stats cells stay empty — an empty cell
                // cannot be mistaken for a measured zero.
                for (std::size_t i = 0;
                     i < spec.metrics.size() + 5; ++i)
                    line += ",";
                line += ",";
                line += csvQuote(r.errorMessage);
            }
            doc += line;
            doc += "\n";
        }
        if (capture) {
            *capture = std::move(doc);
            return true;
        }
        std::ofstream out(path, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "csv sink: cannot write %s\n",
                         path.c_str());
            return false;
        }
        out << doc;
        out.flush();
        if (!out) {
            std::fprintf(stderr, "csv sink: write to %s failed\n",
                         path.c_str());
            return false;
        }
        std::fprintf(stderr, "csv sink: wrote %s\n", path.c_str());
        return true;
    }

  private:
    std::string path;
    std::string *capture; ///< null = write the file (the CLI path)
    std::vector<JobResult> results;

    static std::string
    csvQuote(const std::string &s)
    {
        std::string q = "\"";
        for (char c : s) {
            if (c == '"')
                q += '"';
            q += c;
        }
        q += '"';
        return q;
    }
};

} // anonymous namespace

std::string
metricDisplayName(const std::string &metric)
{
    if (metric == "speedup")
        return "Performance Speedup";
    if (metric == "traffic")
        return "Normalized DRAM Traffic";
    if (metric == "coverage")
        return "Prefetching Coverage";
    if (metric == "accuracy")
        return "Prefetching Accuracy";
    if (metric == "ipc")
        return "IPC";
    if (metric == "meta_lines")
        return "Off-chip Metadata Lines";
    return metric;
}

std::unique_ptr<Sink>
makeSink(const SinkSpec &spec)
{
    switch (spec.kind) {
      case SinkSpec::Kind::Table:
        return std::make_unique<TableSink>();
      case SinkSpec::Kind::JsonFile:
        return std::make_unique<JsonFileSink>(spec.path);
      case SinkSpec::Kind::CsvFile:
        return std::make_unique<CsvFileSink>(spec.path);
    }
    prophet_panic("unhandled sink kind");
}

std::unique_ptr<Sink>
makeCapturingSink(const SinkSpec &spec, std::string *out)
{
    switch (spec.kind) {
      case SinkSpec::Kind::Table:
        return std::make_unique<TableSink>(out);
      case SinkSpec::Kind::JsonFile:
        return std::make_unique<JsonFileSink>(spec.path, out);
      case SinkSpec::Kind::CsvFile:
        return std::make_unique<CsvFileSink>(spec.path, out);
    }
    prophet_panic("unhandled sink kind");
}

} // namespace prophet::driver
