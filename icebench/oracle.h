#ifndef ICEBENCH_ORACLE_H_
#define ICEBENCH_ORACLE_H_

// Correctness oracle: every timed result is compared with the baseline
// engine's answer on the same data by row count and an order-independent
// digest of the canonically formatted rows.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "icebench/workloads.h"
#include "src/storage/table.h"

namespace icebench {

struct Digest {
  size_t rows = 0;
  uint64_t hash = 0;  // sum of per-row hashes: a multiset digest

  bool operator==(const Digest& o) const {
    return rows == o.rows && hash == o.hash;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
  std::string Hex() const;
};

/// Digest of a result table. Rows are formatted canonically (integers in
/// decimal, doubles with 12 significant digits, strings quoted) and hashed
/// one by one; the sum of row hashes does not depend on row order.
Digest DigestTable(const iceberg::Table& table);

/// Key of the expected answer of `statement` on data set `instance`.
std::string DigestKey(const std::string& statement, int instance);

/// The reference answer of every statement on data set `instance`: the
/// baseline engine's serial reference paths (one thread, no CBO, no
/// transfer, row-at-a-time).
iceberg::Status ReferenceDigests(iceberg::Database* db,
                                 const std::vector<Statement>& statements,
                                 int instance,
                                 std::map<std::string, Digest>* out);

/// Reads the digests stored for (workload, seed, rows) from `path`, a
/// whitespace-separated file of lines
///   <workload> <seed> <rows> <statement@instance> <result rows> <digest>
/// ('#' starts a comment). Returns false when the file lacks an entry for
/// some statement and data set.
bool LoadStoredDigests(const std::string& path, const WorkloadSpec& spec,
                       uint64_t seed, std::map<std::string, Digest>* out);

/// Renders digests in the LoadStoredDigests line format.
std::string FormatDigestLines(const WorkloadSpec& spec, uint64_t seed,
                              const std::map<std::string, Digest>& digests);

}  // namespace icebench

#endif  // ICEBENCH_ORACLE_H_
