#include "icebench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/workload_queries.h"
#include "src/workload/baseball.h"

namespace icebench {
namespace {

using iceberg::BaseballConfig;
using iceberg::Database;
using iceberg::DataType;
using iceberg::Schema;
using iceberg::Status;
using iceberg::Value;
using iceberg::bench::Figure1Queries;
using iceberg::bench::RosterPairsSql;
using iceberg::bench::RosterSkybandSql;
using iceberg::bench::WindowedPairsSql;

std::string Num(int v) { return std::to_string(v); }

/// JO1-JO3: dominance skyband anchored on a next-season roster, roster
/// last in FROM order, so the CBO must front it to avoid running the
/// dominance join over every season.
std::string RosterAnchoredSkybandSql(const std::string& a1,
                                     const std::string& a2, int k, int teamid,
                                     int year, int min_stat) {
  std::string filter =
      min_stat > 0 ? " AND s.hits >= " + Num(min_stat) : "";
  return "SELECT a.pid, a.year, COUNT(*) FROM score a, score b, score s "
         "WHERE a." + a1 + " <= b." + a1 + " AND a." + a2 + " <= b." + a2 +
         " AND (a." + a1 + " < b." + a1 + " OR a." + a2 + " < b." + a2 + ")" +
         " AND s.teamid = " + Num(teamid) + " AND s.year = " + Num(year) +
         filter + " AND s.pid = a.pid AND s.year = a.year + 1 "
         "GROUP BY a.pid, a.year HAVING COUNT(*) <= " + Num(k);
}

std::vector<WorkloadSpec::Theta> Figure1Thetas() {
  return {
      {{"hits", "hruns"}, {"hits", "hruns"},
       "l.hits <= r.hits AND l.hruns <= r.hruns AND "
       "(l.hits < r.hits OR l.hruns < r.hruns)"},
      {{"h2", "sb"}, {"h2", "sb"},
       "l.h2 <= r.h2 AND l.sb <= r.sb AND (l.h2 < r.h2 OR l.sb < r.sb)"},
      {{"hits1", "hruns1", "hits2", "hruns2"},
       {"hits1", "hruns1", "hits2", "hruns2"},
       "r.hits1 >= l.hits1 AND r.hruns1 >= l.hruns1 AND r.hits2 >= l.hits2 "
       "AND r.hruns2 >= l.hruns2 AND (r.hits1 > l.hits1 OR "
       "r.hruns1 > l.hruns1 OR r.hits2 > l.hits2 OR r.hruns2 > l.hruns2)"},
      {{"h", "hr"}, {"h", "hr"}, "l.h < r.h AND l.hr < r.hr"},
  };
}

std::string HotSql(int threshold) {
  return "SELECT L.id, COUNT(*) FROM object L, object R "
         "WHERE L.x <= R.x AND L.y <= R.y AND (L.x < R.x OR L.y < R.y) "
         "GROUP BY L.id HAVING COUNT(*) <= " + Num(threshold);
}

/// Five shapes distinct from the hot one (and from each other).
std::vector<std::string> ColdSql() {
  return {
      "SELECT L.id, COUNT(*) FROM object L, object R "
      "WHERE L.x <= R.x GROUP BY L.id HAVING COUNT(*) <= 40",
      "SELECT L.id, COUNT(*) FROM object L, object R "
      "WHERE L.y <= R.y AND L.x <= R.x GROUP BY L.id HAVING COUNT(*) <= 60",
      "SELECT id FROM object WHERE x > 48 AND y > 40",
      "SELECT L.id, COUNT(*) FROM object L, object R "
      "WHERE L.x < R.x AND L.y < R.y GROUP BY L.id HAVING COUNT(*) <= 30",
      "SELECT L.id, COUNT(*) FROM object L, object R "
      "WHERE L.x >= R.x AND L.y >= R.y GROUP BY L.id HAVING COUNT(*) >= 24",
  };
}

size_t ScaledRows(size_t rows, double scale, size_t floor) {
  return std::max(floor, static_cast<size_t>(std::llround(
                             static_cast<double>(rows) * scale)));
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

bool MakeWorkloadSpec(const std::string& name, double scale,
                      WorkloadSpec* spec) {
  *spec = WorkloadSpec();
  spec->name = name;
  if (name == "fig1_iceberg") {
    spec->path = Path::kIceberg;
    spec->rows = ScaledRows(1000, scale, 240);
    spec->instances = 4;
    const auto queries = Figure1Queries();
    for (size_t i = 0; i < queries.size(); ++i) {
      std::string key = "q";
      key += std::to_string(i + 1);
      spec->statements.push_back({key, key, queries[i].sql});
    }
    spec->thetas = Figure1Thetas();
    return true;
  }
  if (name == "selective_join") {
    // The generator sweeps all players once per season (12 rows per
    // player, 2 rounds): 6 seasons, 1985..1990. The rosters pick
    // mid-range seasons so the prior season exists; teams and HAVING
    // thresholds are chosen so every statement returns rows on 20 teams
    // of 2000 rows.
    spec->path = Path::kBaseline;
    spec->rows = ScaledRows(2000, scale, 240);
    spec->exec_threads = 2;
    spec->instances = 4;
    spec->balanced_teams = 20;
    spec->statements = {
        {"jo1", "jo1",
         RosterAnchoredSkybandSql("hits", "hruns", 2000, 5, 1987, 0)},
        {"jo2", "jo2",
         RosterAnchoredSkybandSql("h2", "sb", 1300, 12, 1988, 30)},
        {"jo3", "jo3",
         RosterAnchoredSkybandSql("hits", "hruns", 1700, 17, 1989, 0)},
        {"q5w", "q5w", RosterPairsSql(4, 300, "SUM", 5, 1987)},
        {"q6w", "q6w", WindowedPairsSql(2, 10, "AVG", 1989)},
        {"q7w", "q7w", RosterPairsSql(4, 300, "SUM", 12, 1988)},
        {"q8w", "q8w", RosterSkybandSql(200, 5, 1987)},
    };
    spec->thetas = Figure1Thetas();
    return true;
  }
  if (name == "serve_mixed") {
    spec->path = Path::kServer;
    spec->rows = ScaledRows(48, scale, 16);
    spec->reader_clients = 2;
    spec->writer_clients = 1;
    spec->write_rate = 20.0;
    // One set-up of 48 rows takes microseconds: time 40 as one span.
    spec->setup_reps = 3;
    spec->setup_batch = 40;
    // 16 HAVING literals of one shape: 16 fingerprints against the NLJP
    // registry's 8 caches, one plan-cache entry of 64.
    for (int i = 0; i < 16; ++i) {
      char name_buf[16];
      std::snprintf(name_buf, sizeof(name_buf), "hot%02d", i);
      spec->statements.push_back({name_buf, "hot", HotSql(5 + 3 * i)});
    }
    std::vector<std::string> cold = ColdSql();
    for (size_t i = 0; i < cold.size(); ++i) {
      spec->statements.push_back(
          {"cold" + std::to_string(i + 1), "cold", cold[i]});
    }
    spec->thetas = {
        {{"x", "y"}, {"x", "y"},
         "l.x <= r.x AND l.y <= r.y AND (l.x < r.x OR l.y < r.y)"},
        {{"x"}, {"x"}, "l.x <= r.x"},
        {{"x", "y"}, {"x", "y"}, "l.x < r.x AND l.y < r.y"},
        {{"x", "y"}, {"x", "y"}, "l.x >= r.x AND l.y >= r.y"},
    };
    return true;
  }
  return false;
}

Status SetupDatabase(const WorkloadSpec& spec, uint64_t seed, Database* db) {
  if (spec.path != Path::kServer) {
    BaseballConfig config;
    config.num_rows = spec.rows;
    config.num_players = spec.rows / 12;
    config.stat_granularity = 4;  // paper-like duplicate density
    config.seed = seed;
    if (spec.balanced_teams <= 0) return iceberg::RegisterBaseball(db, config);
    iceberg::TablePtr generated = iceberg::MakeBaseballScores(config);
    auto scores = std::make_shared<iceberg::Table>("score", generated->schema());
    const size_t pid_col = *generated->schema().FindColumn("pid");
    const size_t team_col = *generated->schema().FindColumn("teamid");
    for (iceberg::Row row : generated->rows()) {
      row[team_col] = Value::Int(row[pid_col].AsInt() % spec.balanced_teams);
      scores->AppendUnchecked(std::move(row));
    }
    // The same key and indexes as RegisterBaseball.
    ICEBERG_RETURN_NOT_OK(db->RegisterTable(scores));
    ICEBERG_RETURN_NOT_OK(db->DeclareKey("score", {"pid", "year", "round"}));
    ICEBERG_RETURN_NOT_OK(
        db->CreateHashIndex("score", {"pid", "year", "round"}));
    ICEBERG_RETURN_NOT_OK(db->CreateOrderedIndex("score", {"hits", "hruns"}));
    return db->CreateOrderedIndex("score", {"h2", "sb"});
  }
  ICEBERG_RETURN_NOT_OK(db->CreateTable(
      "object", Schema({{"id", DataType::kInt64},
                        {"x", DataType::kInt64},
                        {"y", DataType::kInt64}})));
  ICEBERG_RETURN_NOT_OK(db->DeclareKey("object", {"id"}));
  for (size_t i = 0; i < spec.rows; ++i) {
    uint64_t h = SplitMix64(seed * 0x100000001b3ull + i);
    ICEBERG_RETURN_NOT_OK(
        db->Insert("object", {Value::Int(static_cast<int64_t>(i)),
                              Value::Int(static_cast<int64_t>(h % 97)),
                              Value::Int(static_cast<int64_t>((h >> 32) % 89))}));
  }
  // Side table of the open-loop writer; no read statement touches it.
  ICEBERG_RETURN_NOT_OK(db->CreateTable(
      "event", Schema({{"id", DataType::kInt64}, {"ts", DataType::kInt64}})));
  return db->DeclareKey("event", {"id"});
}

std::vector<std::string> BaseTables(const WorkloadSpec& spec) {
  if (spec.path == Path::kServer) return {"object"};
  return {"score"};
}

}  // namespace icebench
