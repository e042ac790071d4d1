#ifndef ICEBENCH_WORKLOADS_H_
#define ICEBENCH_WORKLOADS_H_

// The benchmark's three workloads: the statements each one runs, the data
// it generates from the seed, and the threads it pins. The Figure 1 and
// selective pairs/skyband statements come from bench/workload_queries.h;
// the stored digests pin their answers, so an edit there that changes a
// result fails the oracle instead of moving the workload silently.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/database.h"

namespace icebench {

/// How a workload submits its read statements.
enum class Path {
  kIceberg,   // Database::QueryIceberg(IcebergOptions::All())
  kBaseline,  // Database::Query on the baseline engine (CBO + transfer on)
  kServer,    // IcebergServer sessions (Session::Execute)
};

struct Statement {
  std::string name;   // metric key, e.g. "q4", "jo1", "hot07"
  std::string group;  // engine.<group>.* metric key ("hot"/"cold" on serve)
  std::string sql;
};

struct WorkloadSpec {
  std::string name;
  Path path = Path::kIceberg;
  std::vector<Statement> statements;
  /// Rows of the generated base table (score or object).
  size_t rows = 0;
  /// Pinned thread counts: closed-loop reader clients, engine workers per
  /// statement, open-loop writer clients. Never 0 (auto).
  int reader_clients = 1;
  int exec_threads = 1;
  int writer_clients = 0;
  /// Writer rate (inserts per second) when writer_clients > 0.
  double write_rate = 0;
  /// Independent data sets generated per run (InstanceSeed); read
  /// statements cycle over them so one run averages several draws of the
  /// data instead of measuring one.
  int instances = 1;
  /// When > 0, teamid is reassigned round-robin (pid % balanced_teams)
  /// after generation: every roster then has the same number of players
  /// whatever the seed, so the seed moves the statistics but not the size
  /// of a roster (selective_join).
  int balanced_teams = 0;
  /// Rounds of set-ups at each set-up point of a run, and set-ups of one
  /// data set timed as one span; setup_s is the median over spans of the
  /// time per set-up.
  int setup_reps = 1;
  int setup_batch = 1;
  /// Join conditions timed through DeriveSubsumption (fme.derive_us):
  /// each entry is {binding attributes of l, attributes of r, theta}.
  struct Theta {
    std::vector<std::string> left;
    std::vector<std::string> right;
    std::string condition;
  };
  std::vector<Theta> thetas;
};

/// The spec of workload `name` at data scale `scale` (1 = the benchmark's
/// size); false when the name is unknown.
bool MakeWorkloadSpec(const std::string& name, double scale,
                      WorkloadSpec* spec);

/// Seed of data set `instance` of a run with seed `seed`.
inline uint64_t InstanceSeed(uint64_t seed, int instance) {
  return seed * 16 + static_cast<uint64_t>(instance);
}

/// Builds the workload's tables, keys and indexes from `seed` in a fresh
/// database (the span setup_s measures).
iceberg::Status SetupDatabase(const WorkloadSpec& spec, uint64_t seed,
                              iceberg::Database* db);

/// Names of the tables SetupDatabase loads with generated data.
std::vector<std::string> BaseTables(const WorkloadSpec& spec);

}  // namespace icebench

#endif  // ICEBENCH_WORKLOADS_H_
