// icebench: one workload per process, set up from a seed, warmed up, then
// measured in a timed closed-loop window with every result checked against
// the baseline engine's answer.
//
//   icebench --workload fig1_iceberg --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced window. --trace 1
// runs half the window untraced and half traced (bench-side spans around
// every call, the library's own spans, metrics-registry deltas) and prints
// the per-layer metrics. The last stdout line is the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// preceded by a {"host":{..}} record. Human-readable tables go to stderr.
// See icebench/README.md for the metric definitions.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "icebench/oracle.h"
#include "icebench/workloads.h"
#include "src/common/shape.h"
#include "src/common/string_util.h"
#include "src/engine/database.h"
#include "src/expr/expr.h"
#include "src/fme/subsumption.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/parser/parser.h"
#include "src/server/session.h"
#include "src/stats/column_stats.h"

#ifndef ICEBENCH_BUILD_TYPE
#define ICEBENCH_BUILD_TYPE "unknown"
#endif

namespace icebench {
namespace {

using iceberg::Database;
using iceberg::ExecOptions;
using iceberg::ExecStats;
using iceberg::IcebergOptions;
using iceberg::IcebergReport;
using iceberg::IcebergServer;
using iceberg::MetricsRegistry;
using iceberg::MetricsSnapshot;
using iceberg::QueryOutcome;
using iceberg::Session;
using iceberg::Status;
using iceberg::TablePtr;
using iceberg::TraceSpan;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kDefaultSeed = 1;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double Elapsed(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated percentile (p in [0, 1]) of `v`; sorts a copy.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

/// Latency samples (ms) counted in fixed log-spaced buckets, 64 per
/// doubling from 1 us up (each 1.1% wide). Its memory does not grow with
/// the number of samples, so peak_rss_mb does not depend on throughput.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Add(double ms) {
    size_t b = 0;
    if (ms > kMinMs) {
      b = 1 + static_cast<size_t>(std::log2(ms / kMinMs) * kPerDoubling);
      b = std::min(b, kBuckets - 1);
    }
    ++counts_[b];
    ++count_;
  }

  void Merge(const LatencyHistogram& o) {
    for (size_t b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    count_ += o.count_;
  }

  uint64_t count() const { return count_; }

  /// The p-th percentile (p in [0, 1]) at the same rank as Percentile(),
  /// placed inside its bucket by the rank's position among the bucket's
  /// samples.
  double Percentile(double p) const {
    if (count_ == 0) return 0;
    const double rank = p * static_cast<double>(count_ - 1);
    double below = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const double c = static_cast<double>(counts_[b]);
      if (c == 0 || rank >= below + c) {
        below += c;
        continue;
      }
      if (b == 0) return kMinMs;
      const double pos = (static_cast<double>(b - 1) +
                          (rank - below + 0.5) / c) / kPerDoubling;
      return kMinMs * std::exp2(pos);
    }
    return kMinMs * std::exp2(static_cast<double>(kBuckets - 1) /
                              kPerDoubling);
  }

 private:
  static constexpr double kMinMs = 1e-3;
  static constexpr double kPerDoubling = 64;
  static constexpr size_t kBuckets = 28 * 64;  // up to ~2.7e5 ms
  std::vector<uint32_t> counts_;
  uint64_t count_ = 0;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss survives exec on Linux, so it would report the launching
/// script's peak when that is larger.)
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

// ---------------------------------------------------------------- metrics

struct MetricDef {
  std::string name;
  std::string unit;
};

std::vector<MetricDef> EndToEndMetrics() {
  return {
      {"setup_s", "s"},
      {"throughput_qps", "1/s"},
      {"latency_geomean_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
}

/// The untraced window is measured in this many equal parts;
/// throughput_qps reports the median part, so a burst of host contention
/// inside one part does not move it.
constexpr int kParts = 10;

const char* kAllWorkloads[] = {"fig1_iceberg", "selective_join",
                               "serve_mixed"};

std::vector<MetricDef> PerLayerMetrics() {
  std::vector<MetricDef> m = {
      {"latency_geomean_p90_ms", "ms"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"write_p50_ms", "ms"},
      {"write_p99_ms", "ms"},
      {"failed_ratio", "ratio"},
      {"parser.parse_us", "us"},
      {"common.shape_us", "us"},
      {"server.queue_wait_p50_us", "us"},
      {"server.queue_wait_p99_us", "us"},
      {"server.retries_per_stmt", "count/stmt"},
      {"server.snapshot_conflicts", "count/stmt"},
      {"server.shed", "count/stmt"},
      {"server.plan_cache_hit_ratio", "ratio"},
      {"server.plan_cache_invalidations", "count/stmt"},
      {"server.replay_fallback_ratio", "ratio"},
      {"server.program_hit_ratio", "ratio"},
      {"server.registry_hit_ratio", "ratio"},
      {"server.registry_evicted", "count/stmt"},
      {"server.insert_us", "us"},
  };
  std::set<std::string> seen;
  for (const char* w : kAllWorkloads) {
    WorkloadSpec spec;
    MakeWorkloadSpec(w, 1.0, &spec);
    for (const Statement& s : spec.statements) {
      if (!seen.insert(s.group).second) continue;
      m.push_back({"engine." + s.group + ".p50_ms", "ms"});
      m.push_back({"engine." + s.group + ".p90_ms", "ms"});
    }
  }
  const std::vector<MetricDef> rest = {
      {"optimizer.infer_us", "us"},
      {"optimizer.apriori_pick_us", "us"},
      {"optimizer.apriori_apply_us", "us"},
      {"optimizer.pick_nljp_us", "us"},
      {"optimizer.execute_us", "us"},
      {"optimizer.fallbacks", "count/stmt"},
      {"optimizer.nljp_chosen", "count/stmt"},
      {"rewrite.apriori_keep_ratio", "ratio"},
      {"rewrite.apriori_skipped", "count/stmt"},
      {"fme.derive_us", "us"},
      {"nljp.bindings", "count/stmt"},
      {"nljp.inner_evaluations", "count/stmt"},
      {"nljp.prune_ratio", "ratio"},
      {"nljp.memo_hit_ratio", "ratio"},
      {"nljp.prune_tests_per_binding", "count/binding"},
      {"nljp.inner_pairs_examined", "count/stmt"},
      {"nljp.inner_eval_us", "us"},
      {"nljp.cache_entries", "count/stmt"},
      {"nljp.cache_bytes", "bytes/stmt"},
      {"nljp.cache_evictions", "count/stmt"},
      {"exec.pairs_examined", "count/stmt"},
      {"exec.join_yield", "ratio"},
      {"exec.groups_created", "count/stmt"},
      {"exec.having_keep_ratio", "ratio"},
      {"exec.index_probes", "count/stmt"},
      {"exec.batch_rows", "count/stmt"},
      {"exec.chunks_skipped", "count/stmt"},
      {"exec.query_us", "us"},
      {"exec.finalize_us", "us"},
      {"exec.transfer_build_us", "us/stmt"},
      {"exec.transfer_rows_eliminated", "count/stmt"},
      {"exec.transfer_hit_ratio", "ratio"},
      {"exec.transfer_filter_bytes_peak", "bytes"},
      {"exec.worker_utilization", "ratio"},
      {"exec.morsels", "count/stmt"},
      {"exec.claim_ns_p50", "ns"},
      {"stats.build_us", "us"},
      {"stats.builds", "count"},
      {"plan.cbo_plans", "count/stmt"},
      {"plan.reorders", "count/stmt"},
      {"plan.order_replays", "count/stmt"},
      {"plan.nljp_vetoed", "count/stmt"},
      {"storage.load_rows_per_s", "rows/s"},
      {"storage.table_bytes", "bytes"},
      {"obs.trace_overhead_ratio", "ratio"},
      {"bench.writer_lag_p99_ms", "ms"},
      {"bench.samples", "count"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string MetricsJson(const std::vector<MetricDef>& defs,
                        const std::map<std::string, double>& values) {
  std::string out = "{";
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = values.find(defs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (i > 0) out += ", ";
    out += "\"" + defs[i].name + "\": {\"value\": " + JsonNumber(v) +
           ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  return out + "}";
}

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string digests_path;
  std::string trace_out;
  std::string git = "unknown";
  bool emit_digests = false;
  /// Self-test knob: one admission slot, no queue, no retries, so the two
  /// serve_mixed readers shed each other.
  bool starve_admission = false;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--scale F] [--digests PATH] "
               "[--trace-out PATH] [--git HASH] [--emit-digests] "
               "[--starve-admission]\n",
               argv0);
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--scale") {
      o.scale = std::atof(value().c_str());
    } else if (arg == "--digests") {
      o.digests_path = value();
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--git") {
      o.git = value();
    } else if (arg == "--emit-digests") {
      o.emit_digests = true;
    } else if (arg == "--starve-admission") {
      o.starve_admission = true;
    } else {
      Usage(argv[0]);
    }
  }
  if (o.workload.empty() || o.seconds <= 0 || o.scale <= 0) {
    Usage(argv[0]);
  }
  return o;
}

// ---------------------------------------------------------------- window

/// Layer numbers read from the reports a statement returns (traced only).
struct ReportTotals {
  uint64_t statements = 0;
  IcebergReport::Timing timing;
  uint64_t rows_before = 0, rows_after = 0;
  uint64_t nljp_cache_entries = 0, nljp_cache_bytes = 0;
  double busy_us = 0, capacity_us = 0;  // worker utilization terms

  void Add(const ReportTotals& o) {
    statements += o.statements;
    timing.infer_us += o.timing.infer_us;
    timing.apriori_pick_us += o.timing.apriori_pick_us;
    timing.apriori_apply_us += o.timing.apriori_apply_us;
    timing.pick_nljp_us += o.timing.pick_nljp_us;
    timing.execute_us += o.timing.execute_us;
    rows_before += o.rows_before;
    rows_after += o.rows_after;
    nljp_cache_entries += o.nljp_cache_entries;
    nljp_cache_bytes += o.nljp_cache_bytes;
    busy_us += o.busy_us;
    capacity_us += o.capacity_us;
  }
  void AddIceberg(const IcebergReport& r) {
    ++statements;
    timing.infer_us += r.timing.infer_us;
    timing.apriori_pick_us += r.timing.apriori_pick_us;
    timing.apriori_apply_us += r.timing.apriori_apply_us;
    timing.pick_nljp_us += r.timing.pick_nljp_us;
    timing.execute_us += r.timing.execute_us;
    for (const auto& red : r.reductions) {
      rows_before += red.rows_before;
      rows_after += red.rows_after;
    }
    nljp_cache_entries += r.nljp_stats.cache_entries;
    nljp_cache_bytes += r.nljp_stats.cache_bytes;
    AddWorkers(r.nljp_stats.busy_us_per_worker, r.nljp_stats.workers,
               r.nljp_stats.execute_us);
    AddWorkers(r.exec_stats.busy_us_per_worker, r.exec_stats.workers,
               r.exec_stats.execute_us);
  }
  void AddBaseline(const ExecStats& s) {
    ++statements;
    AddWorkers(s.busy_us_per_worker, s.workers, s.execute_us);
  }
  void AddWorkers(const std::vector<int64_t>& busy, size_t workers,
                  int64_t execute_us) {
    if (workers <= 1 || busy.empty()) return;
    for (int64_t b : busy) busy_us += static_cast<double>(b);
    capacity_us += static_cast<double>(workers) *
                   static_cast<double>(execute_us);
  }
};

/// Everything one timed window observed.
struct Window {
  double seconds = 0;
  uint64_t attempted = 0;  // reads + writes
  uint64_t failed = 0;     // errors, sheds, wrong results
  uint64_t mismatches = 0;
  uint64_t reads_ok = 0;
  /// Latencies per statement and data set, keyed by DigestKey.
  std::map<std::string, LatencyHistogram> latency_ms;
  std::vector<double> write_ms, writer_lag_ms, insert_us;
  // Traced-window layer readings.
  std::vector<double> parse_us, shape_us, queue_wait_us;
  uint64_t retries = 0, snapshot_conflicts = 0, shed = 0;
  ReportTotals totals;
  std::map<std::string, ReportTotals> per_statement;
  MetricsSnapshot delta;

  void Merge(const Window& o) {
    attempted += o.attempted;
    failed += o.failed;
    mismatches += o.mismatches;
    reads_ok += o.reads_ok;
    for (const auto& [name, h] : o.latency_ms) latency_ms[name].Merge(h);
    auto append = [](std::vector<double>* dst, const std::vector<double>& s) {
      dst->insert(dst->end(), s.begin(), s.end());
    };
    append(&write_ms, o.write_ms);
    append(&writer_lag_ms, o.writer_lag_ms);
    append(&insert_us, o.insert_us);
    append(&parse_us, o.parse_us);
    append(&shape_us, o.shape_us);
    append(&queue_wait_us, o.queue_wait_us);
    retries += o.retries;
    snapshot_conflicts += o.snapshot_conflicts;
    shed += o.shed;
    totals.Add(o.totals);
    for (const auto& [name, t] : o.per_statement) per_statement[name].Add(t);
  }

  /// Latencies of `statement` on every data set; of every statement when
  /// `statement` is empty.
  LatencyHistogram Pooled(const std::string& statement = "") const {
    LatencyHistogram all;
    for (const auto& [key, h] : latency_ms) {
      if (statement.empty() || key.rfind(statement + "@", 0) == 0) {
        all.Merge(h);
      }
    }
    return all;
  }
};

class Bench {
 public:
  Bench(const Options& opt, const WorkloadSpec& spec,
        std::vector<Database*> dbs, std::map<std::string, Digest> expected)
      : opt_(opt), spec_(spec), dbs_(std::move(dbs)),
        expected_(std::move(expected)) {
    if (spec_.path == Path::kServer) {
      iceberg::ServerConfig config;
      config.admission.max_concurrent =
          static_cast<size_t>(spec_.reader_clients);
      config.admission.max_queue_depth =
          2 * static_cast<size_t>(spec_.reader_clients);
      config.admission.queue_timeout_ms = 5000;
      config.admission.memory_budget_bytes =
          static_cast<size_t>(spec_.reader_clients) * (64u << 20);
      config.retry.max_attempts = 4;
      if (opt_.starve_admission) {
        config.admission.max_concurrent = 1;
        config.admission.max_queue_depth = 0;
        config.retry.max_attempts = 1;
      }
      config.default_threads = spec_.exec_threads;
      config.iceberg = IcebergOptions::All();
      config.iceberg.base_exec.num_threads = spec_.exec_threads;
      server_ = std::make_unique<IcebergServer>(dbs_[0], config);
    }
    for (size_t i = 0; i < spec_.statements.size(); ++i) {
      (spec_.statements[i].group == "cold" ? cold_ : hot_).push_back(i);
    }
  }

  /// Runs the workload for `seconds`; `traced` turns on tracing and the
  /// per-layer readings for the window.
  Window Run(double seconds, bool traced) {
    iceberg::SetTraceEnabled(traced);
    MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    Window window;
    std::mutex mu;
    std::vector<std::thread> threads;
    for (int c = 0; c < spec_.reader_clients; ++c) {
      threads.emplace_back([&, c] {
        Window local = ReaderLoop(c, deadline, traced);
        std::lock_guard<std::mutex> lock(mu);
        window.Merge(local);
      });
    }
    for (int w = 0; w < spec_.writer_clients; ++w) {
      threads.emplace_back([&] {
        Window local = WriterLoop(start, deadline);
        std::lock_guard<std::mutex> lock(mu);
        window.Merge(local);
      });
    }
    for (std::thread& t : threads) t.join();
    window.seconds = SecondsSince(start);
    window.delta = MetricsRegistry::Global().Snapshot().DiffSince(before);
    iceberg::SetTraceEnabled(false);
    return window;
  }

 private:
  /// The k-th statement of `client` and the data set it runs on.
  std::pair<const Statement*, int> Next(int client, uint64_t k) const {
    if (spec_.path != Path::kServer) {
      // Every statement on data set 0, then every statement on 1, ...
      const uint64_t n = spec_.statements.size();
      const uint64_t i = k + static_cast<uint64_t>(client);
      return {&spec_.statements[i % n],
              static_cast<int>((i / n) % dbs_.size())};
    }
    // Four hot statements, then one cold; clients start at different
    // literals so they do not run in lockstep.
    const uint64_t round = k / 5;
    if (k % 5 == 4) return {&spec_.statements[cold_[round % cold_.size()]], 0};
    const uint64_t hot_k = round * 4 + k % 5 + 7 * static_cast<uint64_t>(client);
    return {&spec_.statements[hot_[hot_k % hot_.size()]], 0};
  }

  Window ReaderLoop(int client, Clock::time_point deadline, bool traced) {
    Window w;
    std::unique_ptr<Session> session;
    if (server_ != nullptr) session = server_->OpenSession();
    for (uint64_t k = 0; Clock::now() < deadline; ++k) {
      const auto [stmt, instance] = Next(client, k);
      const Statement& st = *stmt;
      Database* db = dbs_[static_cast<size_t>(instance)];
      TraceSpan statement_span("icebench.statement", "bench");
      if (traced) {
        // Standalone calls into the parser and shape layers, timed from
        // outside; the engine repeats this work inside its own call.
        Clock::time_point t = Clock::now();
        {
          TraceSpan span("icebench.parse", "bench");
          auto parsed = iceberg::ParseSql(st.sql);
          (void)parsed;
        }
        Clock::time_point t_parse = Clock::now();
        {
          TraceSpan span("icebench.shape", "bench");
          iceberg::QueryShape shape = iceberg::ComputeQueryShape(st.sql);
          (void)shape;
        }
        w.parse_us.push_back(Elapsed(t, t_parse) * 1e6);
        w.shape_us.push_back(SecondsSince(t_parse) * 1e6);
      }
      ++w.attempted;
      TablePtr table;
      Status status;
      ReportTotals one;
      const Clock::time_point t0 = Clock::now();
      {
        TraceSpan span("icebench.execute", "bench");
        switch (spec_.path) {
          case Path::kIceberg: {
            IcebergOptions options = IcebergOptions::All();
            options.base_exec.num_threads = spec_.exec_threads;
            IcebergReport report;
            auto result = db->QueryIceberg(st.sql, options,
                                            traced ? &report : nullptr);
            status = result.status();
            if (result.ok()) table = *result;
            if (traced) one.AddIceberg(report);
            break;
          }
          case Path::kBaseline: {
            ExecOptions exec;
            exec.num_threads = spec_.exec_threads;
            exec.cbo = true;
            exec.predicate_transfer = true;
            ExecStats stats;
            auto result = db->Query(st.sql, exec, traced ? &stats : nullptr);
            status = result.status();
            if (result.ok()) table = *result;
            if (traced) one.AddBaseline(stats);
            break;
          }
          case Path::kServer: {
            QueryOutcome outcome = session->Execute(st.sql);
            status = outcome.status;
            table = outcome.table;
            if (traced) {
              one.AddIceberg(outcome.report);
              w.queue_wait_us.push_back(
                  static_cast<double>(outcome.queue_wait_us));
              w.retries += static_cast<uint64_t>(
                  std::max(0, outcome.attempts - 1));
              w.snapshot_conflicts +=
                  static_cast<uint64_t>(outcome.snapshot_conflicts);
            }
            if (!status.ok() && status.IsRetryable()) ++w.shed;
            break;
          }
        }
      }
      const double ms = SecondsSince(t0) * 1e3;
      statement_span.End();
      if (!status.ok()) {
        ++w.failed;
        if (!status.IsRetryable()) {
          std::fprintf(stderr, "%s failed: %s\n", st.name.c_str(),
                       status.ToString().c_str());
        }
        continue;
      }
      if (DigestTable(*table) != expected_.at(DigestKey(st.name, instance))) {
        ++w.failed;
        ++w.mismatches;
        continue;
      }
      ++w.reads_ok;
      w.latency_ms[DigestKey(st.name, instance)].Add(ms);
      if (traced) {
        w.totals.Add(one);
        w.per_statement[st.name].Add(one);
      }
    }
    return w;
  }

  /// Open loop: insert i is due at start + i / rate and is timed from then,
  /// so a stall also charges the inserts queued behind it.
  Window WriterLoop(Clock::time_point start, Clock::time_point deadline) {
    Window w;
    std::unique_ptr<Session> session = server_->OpenSession();
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / spec_.write_rate));
    for (int64_t i = 0;; ++i) {
      const Clock::time_point due = start + i * interval;
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      const int64_t id = next_event_id_.fetch_add(1);
      Status status;
      {
        TraceSpan span("icebench.insert", "bench");
        status = session->Insert(
            "event", {iceberg::Value::Int(id), iceberg::Value::Int(i)});
      }
      const Clock::time_point done = Clock::now();
      ++w.attempted;
      if (!status.ok()) {
        ++w.failed;
        continue;
      }
      w.write_ms.push_back(Elapsed(due, done) * 1e3);
      w.writer_lag_ms.push_back(Elapsed(due, sent) * 1e3);
      w.insert_us.push_back(Elapsed(sent, done) * 1e6);
    }
    return w;
  }

  const Options& opt_;
  const WorkloadSpec& spec_;
  const std::vector<Database*> dbs_;  // one per data set
  const std::map<std::string, Digest> expected_;
  std::unique_ptr<IcebergServer> server_;
  std::vector<size_t> hot_, cold_;
  std::atomic<int64_t> next_event_id_{0};
};

// ---------------------------------------------------------------- metrics

/// Geometric mean over (statement, data set) of the p-th percentile
/// latency: every statement on every data set weighs the same.
double GeomeanOfPercentile(const Window& w, double p) {
  double log_sum = 0;
  int n = 0;
  for (const auto& [name, h] : w.latency_ms) {
    if (h.count() == 0) continue;
    log_sum += std::log(std::max(h.Percentile(p), 1e-9));
    ++n;
  }
  return n == 0 ? 0 : std::exp(log_sum / n);
}

/// Throughput is the median over the window's parts (`part_qps`); the
/// latency geomean takes each percentile over the whole window, where every
/// statement and data set has the most samples.
std::map<std::string, double> EndToEnd(const std::vector<double>& part_qps,
                                       const Window& whole, double setup_s) {
  return {
      {"setup_s", setup_s},
      {"throughput_qps", Median(part_qps)},
      {"latency_geomean_ms", GeomeanOfPercentile(whole, 0.5)},
      {"peak_rss_mb", PeakRssMb()},
  };
}

/// Times DeriveSubsumption on each of the workload's join conditions and
/// returns the mean over conditions of the per-condition median, in us.
double DeriveMicros(const WorkloadSpec& spec) {
  using iceberg::fme::SubsumptionSpec;
  std::vector<double> per_theta;
  for (const WorkloadSpec::Theta& t : spec.thetas) {
    auto parsed = iceberg::ParseExpression(t.condition);
    if (!parsed.ok()) continue;
    iceberg::ExprPtr theta = *parsed;
    std::vector<iceberg::Expr*> refs;
    iceberg::CollectColumnRefs(theta, &refs);
    for (iceberg::Expr* ref : refs) {
      const bool left = iceberg::EqualsIgnoreCase(ref->qualifier, "l");
      const auto& names = left ? t.left : t.right;
      for (size_t i = 0; i < names.size(); ++i) {
        if (iceberg::EqualsIgnoreCase(names[i], ref->column)) {
          ref->resolved_index =
              static_cast<int>(left ? i : t.left.size() + i);
        }
      }
    }
    SubsumptionSpec s;
    iceberg::SplitConjuncts(theta, &s.theta);
    for (size_t i = 0; i < t.left.size(); ++i) s.binding_offsets.push_back(i);
    const size_t l_count = t.left.size();
    s.is_left_offset = [l_count](size_t off) { return off < l_count; };
    s.types_by_offset.assign(t.left.size() + t.right.size(),
                             iceberg::DataType::kInt64);
    std::vector<double> us;
    for (int rep = 0; rep < 25; ++rep) {
      const Clock::time_point t0 = Clock::now();
      auto derived = iceberg::fme::DeriveSubsumption(s);
      us.push_back(SecondsSince(t0) * 1e6);
      if (!derived.ok()) break;
    }
    per_theta.push_back(Median(us));
  }
  double sum = 0;
  for (double v : per_theta) sum += v;
  return per_theta.empty() ? 0 : sum / static_cast<double>(per_theta.size());
}

/// Set-up timings of one run. They are taken at several points of the run
/// (before the warm-up and before each part of the timed window), so their
/// median spans the run the way the parts' throughput does.
struct SetupTimes {
  std::vector<double> setup_s;   // time per set-up, one per batch
  std::vector<double> stats_us;  // traced runs only
};

/// Sets every data set up spec.setup_reps times from an empty Database.
/// Each set-up is timed as a batch of spec.setup_batch identical set-ups,
/// so a span is long against the timer and a cache miss. Traced runs also
/// time the first GetOrBuildTableStats on each fresh table (not part of
/// setup_s). The last round's databases go to *keep when it is not null.
bool TimeSetups(const WorkloadSpec& spec, uint64_t seed, bool traced,
                SetupTimes* times,
                std::vector<std::unique_ptr<Database>>* keep) {
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    if (keep != nullptr) keep->clear();
    for (int i = 0; i < spec.instances; ++i) {
      std::vector<std::unique_ptr<Database>> batch;
      for (int b = 0; b < spec.setup_batch; ++b) {
        batch.push_back(std::make_unique<Database>());
      }
      const Clock::time_point t0 = Clock::now();
      for (const auto& db : batch) {
        Status st = SetupDatabase(spec, InstanceSeed(seed, i), db.get());
        if (!st.ok()) {
          std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
          return false;
        }
      }
      times->setup_s.push_back(SecondsSince(t0) / spec.setup_batch);
      std::unique_ptr<Database> db = std::move(batch.back());
      batch.clear();
      if (traced) {
        const Clock::time_point t1 = Clock::now();
        for (const std::string& name : BaseTables(spec)) {
          iceberg::GetOrBuildTableStats(**db->GetTable(name));
        }
        times->stats_us.push_back(SecondsSince(t1) * 1e6);
      }
      if (keep != nullptr) keep->push_back(std::move(db));
    }
  }
  return true;
}

struct SetupResult {
  std::vector<std::unique_ptr<Database>> dbs;  // one per data set
  SetupTimes times;
  double rows_per_set = 0;
  double table_bytes = 0;  // all data sets
  std::string data_digest;

  double setup_s() const { return Median(times.setup_s); }
};

/// Sets the data sets up (TimeSetups) and keeps them for the run.
bool Setup(const WorkloadSpec& spec, uint64_t seed, bool traced,
           SetupResult* out) {
  if (!TimeSetups(spec, seed, traced, &out->times, &out->dbs)) return false;
  size_t rows = 0, bytes = 0;
  Digest data;
  for (const auto& db : out->dbs) {
    for (const std::string& name : BaseTables(spec)) {
      TablePtr t = *db->GetTable(name);
      rows += t->num_rows();
      bytes += t->ApproxBytes();
      Digest d = DigestTable(*t);
      data.rows += d.rows;
      data.hash += d.hash;
    }
  }
  out->rows_per_set =
      static_cast<double>(rows) / static_cast<double>(spec.instances);
  out->table_bytes = static_cast<double>(bytes);
  out->data_digest = data.Hex();
  return true;
}

std::map<std::string, double> PerLayer(const WorkloadSpec& spec,
                                       const Window& untraced,
                                       const Window& traced,
                                       const SetupResult& setup) {
  std::map<std::string, double> m;
  const MetricsSnapshot& d = traced.delta;
  auto counter = [&](const char* name) -> double {
    auto it = d.counters.find(name);
    return it == d.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto hist_mean = [&](const char* name) -> double {
    auto it = d.histograms.find(name);
    return it == d.histograms.end() ? 0.0 : it->second.Mean();
  };
  const double stmts = static_cast<double>(traced.reads_ok);
  auto per_stmt = [&](const char* name) { return Ratio(counter(name), stmts); };

  const LatencyHistogram pooled = traced.Pooled();
  // The tail over the untraced half: tracing stays off, as for the
  // end-to-end metrics.
  m["latency_geomean_p90_ms"] = GeomeanOfPercentile(untraced, 0.9);
  m["latency_p50_ms"] = pooled.Percentile(0.5);
  m["latency_p99_ms"] = pooled.Percentile(0.99);
  m["write_p50_ms"] = Percentile(traced.write_ms, 0.5);
  m["write_p99_ms"] = Percentile(traced.write_ms, 0.99);
  m["failed_ratio"] =
      Ratio(static_cast<double>(untraced.failed + traced.failed),
            static_cast<double>(untraced.attempted + traced.attempted));

  m["parser.parse_us"] = Median(traced.parse_us);
  m["common.shape_us"] = Median(traced.shape_us);

  if (spec.path == Path::kServer) {
    const double attempts = static_cast<double>(traced.queue_wait_us.size());
    m["server.queue_wait_p50_us"] = Percentile(traced.queue_wait_us, 0.5);
    m["server.queue_wait_p99_us"] = Percentile(traced.queue_wait_us, 0.99);
    m["server.retries_per_stmt"] =
        Ratio(static_cast<double>(traced.retries), attempts);
    m["server.snapshot_conflicts"] =
        Ratio(static_cast<double>(traced.snapshot_conflicts), attempts);
    m["server.shed"] = Ratio(static_cast<double>(traced.shed), attempts);
    const double hits = counter("plan_cache.hits");
    m["server.plan_cache_hit_ratio"] =
        Ratio(hits, hits + counter("plan_cache.misses"));
    m["server.plan_cache_invalidations"] = per_stmt("plan_cache.invalidations");
    m["server.replay_fallback_ratio"] =
        Ratio(counter("plan_cache.replay_fallbacks"), hits);
    const double program_hits = counter("plan_cache.program_hits");
    m["server.program_hit_ratio"] =
        Ratio(program_hits, program_hits + counter("plan_cache.program_misses"));
    const double registry_hits = counter("nljp.registry.hits");
    m["server.registry_hit_ratio"] = Ratio(
        registry_hits, registry_hits + counter("nljp.registry.misses"));
    m["server.registry_evicted"] = per_stmt("nljp.registry.evicted_caches");
    m["server.insert_us"] = Median(traced.insert_us);
  }

  std::map<std::string, LatencyHistogram> by_group;
  for (const Statement& s : spec.statements) {
    by_group[s.group].Merge(traced.Pooled(s.name));
  }
  for (const auto& [group, h] : by_group) {
    m["engine." + group + ".p50_ms"] = h.Percentile(0.5);
    m["engine." + group + ".p90_ms"] = h.Percentile(0.9);
  }

  const ReportTotals& t = traced.totals;
  const double n = static_cast<double>(t.statements);
  m["optimizer.infer_us"] = Ratio(static_cast<double>(t.timing.infer_us), n);
  m["optimizer.apriori_pick_us"] =
      Ratio(static_cast<double>(t.timing.apriori_pick_us), n);
  m["optimizer.apriori_apply_us"] =
      Ratio(static_cast<double>(t.timing.apriori_apply_us), n);
  m["optimizer.pick_nljp_us"] =
      Ratio(static_cast<double>(t.timing.pick_nljp_us), n);
  m["optimizer.execute_us"] =
      Ratio(static_cast<double>(t.timing.execute_us), n);
  m["optimizer.fallbacks"] = per_stmt("optimizer.fallbacks");
  m["optimizer.nljp_chosen"] = per_stmt("optimizer.nljp_chosen");
  // 1.0 = the reducers removed nothing (also when no reducer ran).
  m["rewrite.apriori_keep_ratio"] =
      t.rows_before == 0 ? 1.0
                         : Ratio(static_cast<double>(t.rows_after),
                                 static_cast<double>(t.rows_before));
  m["rewrite.apriori_skipped"] = per_stmt("cbo.apriori_skipped");
  m["fme.derive_us"] = DeriveMicros(spec);

  const double bindings = counter("nljp.bindings");
  m["nljp.bindings"] = Ratio(bindings, stmts);
  m["nljp.inner_evaluations"] = per_stmt("nljp.inner_evaluations");
  m["nljp.prune_ratio"] = Ratio(counter("nljp.pruned"), bindings);
  m["nljp.memo_hit_ratio"] = Ratio(counter("nljp.memo_hits"), bindings);
  m["nljp.prune_tests_per_binding"] = Ratio(counter("nljp.prune_tests"), bindings);
  m["nljp.inner_pairs_examined"] = per_stmt("nljp.inner_pairs_examined");
  m["nljp.inner_eval_us"] = hist_mean("nljp.inner_eval_us");
  m["nljp.cache_entries"] = Ratio(static_cast<double>(t.nljp_cache_entries), n);
  m["nljp.cache_bytes"] = Ratio(static_cast<double>(t.nljp_cache_bytes), n);
  m["nljp.cache_evictions"] = per_stmt("nljp.cache_evictions");

  const double pairs = counter("exec.pairs_examined");
  const double groups = counter("exec.groups_created");
  m["exec.pairs_examined"] = Ratio(pairs, stmts);
  m["exec.join_yield"] = Ratio(counter("exec.rows_joined"), pairs);
  m["exec.groups_created"] = Ratio(groups, stmts);
  m["exec.having_keep_ratio"] = Ratio(counter("exec.groups_output"), groups);
  m["exec.index_probes"] = per_stmt("exec.index_probes");
  m["exec.batch_rows"] = per_stmt("scan.batch_rows");
  m["exec.chunks_skipped"] = per_stmt("scan.chunks_skipped");
  m["exec.query_us"] = hist_mean("exec.query_us");
  m["exec.finalize_us"] = hist_mean("agg.finalize_us");
  m["exec.transfer_build_us"] = Ratio(counter("transfer.build_ns") / 1e3, stmts);
  m["exec.transfer_rows_eliminated"] = per_stmt("transfer.rows_eliminated");
  m["exec.transfer_hit_ratio"] =
      Ratio(counter("transfer.hits"), counter("transfer.probes"));
  auto peak = d.gauges.find("transfer.filter_bytes_peak");
  m["exec.transfer_filter_bytes_peak"] =
      peak == d.gauges.end() ? 0.0 : static_cast<double>(peak->second);
  m["exec.worker_utilization"] = Ratio(t.busy_us, t.capacity_us);
  m["exec.morsels"] = per_stmt("taskpool.morsels");
  auto claim = d.histograms.find("taskpool.claim_ns");
  m["exec.claim_ns_p50"] = claim == d.histograms.end()
                               ? 0.0
                               : static_cast<double>(
                                     claim->second.Percentile(50));

  m["stats.build_us"] = Median(setup.times.stats_us);
  m["stats.builds"] = counter("cbo.stats_builds");
  m["plan.cbo_plans"] = per_stmt("cbo.plans");
  m["plan.reorders"] = per_stmt("cbo.reorders");
  m["plan.order_replays"] = per_stmt("cbo.order_replays");
  m["plan.nljp_vetoed"] = per_stmt("cbo.nljp_vetoed");
  m["storage.load_rows_per_s"] = Ratio(setup.rows_per_set, setup.setup_s());
  m["storage.table_bytes"] = setup.table_bytes;

  m["obs.trace_overhead_ratio"] =
      Ratio(Ratio(stmts, traced.seconds),
            Ratio(static_cast<double>(untraced.reads_ok), untraced.seconds));
  m["bench.writer_lag_p99_ms"] = Percentile(traced.writer_lag_ms, 0.99);
  m["bench.samples"] = stmts;
  return m;
}

// ---------------------------------------------------------------- report

void PrintStatementTable(const WorkloadSpec& spec, const Window& w) {
  std::fprintf(stderr, "%-8s %8s %10s %10s\n", "stmt", "runs", "p50_ms",
               "p90_ms");
  for (const Statement& s : spec.statements) {
    const LatencyHistogram h = w.Pooled(s.name);
    std::fprintf(stderr, "%-8s %8llu %10.3f %10.3f\n", s.name.c_str(),
                 static_cast<unsigned long long>(h.count()),
                 h.Percentile(0.5), h.Percentile(0.9));
  }
}

/// Where each statement spends its optimizer time (traced iceberg runs).
void PrintBreakdown(const WorkloadSpec& spec, const Window& w) {
  if (spec.path == Path::kBaseline) return;
  std::fprintf(stderr, "\n%-8s %10s %10s %10s %10s %10s %10s\n", "stmt",
               "keep", "infer_us", "pick_us", "apply_us", "nljp_us",
               "exec_us");
  for (const Statement& s : spec.statements) {
    auto it = w.per_statement.find(s.name);
    if (it == w.per_statement.end() || it->second.statements == 0) continue;
    const ReportTotals& t = it->second;
    const double n = static_cast<double>(t.statements);
    const double keep =
        t.rows_before == 0 ? 1.0
                           : static_cast<double>(t.rows_after) /
                                 static_cast<double>(t.rows_before);
    std::fprintf(stderr, "%-8s %10.4f %10.1f %10.1f %10.1f %10.1f %10.1f\n",
                 s.name.c_str(), keep,
                 static_cast<double>(t.timing.infer_us) / n,
                 static_cast<double>(t.timing.apriori_pick_us) / n,
                 static_cast<double>(t.timing.apriori_apply_us) / n,
                 static_cast<double>(t.timing.pick_nljp_us) / n,
                 static_cast<double>(t.timing.execute_us) / n);
  }
}

int Main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);
  WorkloadSpec spec;
  if (!MakeWorkloadSpec(opt.workload, opt.scale, &spec)) {
    std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
    return 2;
  }

  SetupResult setup;
  if (!Setup(spec, opt.seed, opt.trace, &setup)) return 1;
  std::vector<Database*> dbs;
  for (const auto& db : setup.dbs) dbs.push_back(db.get());

  // Expected answers: stored digests for the default seed, else computed
  // live from the baseline engine (not part of setup_s).
  std::map<std::string, Digest> expected;
  bool stored = !opt.emit_digests && !opt.digests_path.empty() &&
                LoadStoredDigests(opt.digests_path, spec, opt.seed, &expected);
  if (!stored) {
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < dbs.size(); ++i) {
      Status st = ReferenceDigests(dbs[i], spec.statements,
                                   static_cast<int>(i), &expected);
      if (!st.ok()) {
        std::fprintf(stderr, "reference run failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
    }
    std::fprintf(stderr, "oracle: live reference digests in %.2f s\n",
                 SecondsSince(t0));
  }
  if (opt.emit_digests) {
    std::printf("%s", FormatDigestLines(spec, opt.seed, expected).c_str());
    return 0;
  }

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const int pinned = spec.reader_clients * spec.exec_threads +
                     spec.writer_clients;
  const bool oversubscribed = pinned > static_cast<int>(nproc);
  if (oversubscribed) {
    std::fprintf(stderr, "WARNING: %d pinned threads exceed nproc=%u\n",
                 pinned, nproc);
  }

  Bench bench(opt, spec, dbs, expected);
  // Warm up: every statement runs at least once (caches fill, lazy
  // statistics build) before anything is timed.
  const double warmup_s =
      std::min(2.0, std::max(0.2, opt.seconds * 0.05));
  Window warm = bench.Run(warmup_s, false);
  const size_t keys =
      spec.statements.size() * static_cast<size_t>(spec.instances);
  for (int round = 0; round < 20 && warm.failed == 0 &&
                      warm.latency_ms.size() < keys;
       ++round) {
    Window more = bench.Run(warmup_s, false);
    warm.Merge(more);
  }

  // More set-ups before each part (outside the timed window): setup_s
  // then samples the host across the run, as throughput_qps does.
  auto more_setups = [&] {
    return TimeSetups(spec, opt.seed, opt.trace, &setup.times, nullptr);
  };
  std::map<std::string, double> metrics;
  Window timed;
  if (!opt.trace) {
    std::vector<double> part_qps;
    for (int i = 0; i < kParts; ++i) {
      if (!more_setups()) return 1;
      const Window part = bench.Run(opt.seconds / kParts, false);
      part_qps.push_back(Ratio(static_cast<double>(part.reads_ok),
                               part.seconds));
      timed.Merge(part);
    }
    metrics = EndToEnd(part_qps, timed, setup.setup_s());
  } else {
    if (!more_setups()) return 1;
    Window untraced = bench.Run(opt.seconds / 2, false);
    if (!more_setups()) return 1;
    iceberg::ClearTrace();
    timed = bench.Run(opt.seconds / 2, true);
    if (!opt.trace_out.empty() && !iceberg::DumpTrace(opt.trace_out)) {
      std::fprintf(stderr, "cannot write trace to %s\n",
                   opt.trace_out.c_str());
    }
    metrics = PerLayer(spec, untraced, timed, setup);
    timed.attempted += untraced.attempted;
    timed.failed += untraced.failed;
    timed.mismatches += untraced.mismatches;
  }

  PrintStatementTable(spec, timed);
  if (opt.trace) PrintBreakdown(spec, timed);
  for (const auto& [name, h] : timed.latency_ms) {
    if (!opt.trace && h.count() < 100) {
      std::fprintf(stderr, "WARNING: %s ran %llu times (< 100)\n",
                   name.c_str(), static_cast<unsigned long long>(h.count()));
    }
  }

  std::printf(
      "{\"host\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"seconds\": %s, \"scale\": %s, \"nproc\": %u, \"git\": \"%s\", "
      "\"build_type\": \"%s\", \"rows\": %zu, \"data_sets\": %d, "
      "\"data_digest\": \"%s\", "
      "\"threads\": {\"readers\": %d, \"exec\": %d, \"writers\": %d, "
      "\"total\": %d}, \"oversubscribed\": %s, \"stored_digests\": %s}}\n",
      spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? 1 : 0, JsonNumber(opt.seconds).c_str(),
      JsonNumber(opt.scale).c_str(), nproc, opt.git.c_str(),
      ICEBENCH_BUILD_TYPE, spec.rows, spec.instances,
      setup.data_digest.c_str(),
      spec.reader_clients, spec.exec_threads, spec.writer_clients, pinned,
      oversubscribed ? "true" : "false", stored ? "true" : "false");
  const bool correct = timed.mismatches == 0 && warm.mismatches == 0;
  const uint64_t failed = timed.failed + warm.mismatches;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(timed.attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(opt.trace ? PerLayerMetrics() : EndToEndMetrics(),
                          metrics)
                  .c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace icebench

int main(int argc, char** argv) { return icebench::Main(argc, argv); }
