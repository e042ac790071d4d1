#include "icebench/oracle.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/exec/exec_options.h"

namespace icebench {
namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t Mix(uint64_t x) {
  x = (x ^ (x >> 33)) * 0xff51afd7ed558ccdull;
  x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53ull;
  return x ^ (x >> 33);
}

void AppendCanonical(const iceberg::Value& v, std::string* out) {
  if (v.is_null()) {
    out->append("NULL");
  } else if (v.is_int()) {
    out->append(std::to_string(v.AsInt()));
  } else if (v.is_double()) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v.AsDouble());
    out->append(buf);
  } else {
    out->push_back('\'');
    out->append(v.AsString());
    out->push_back('\'');
  }
}

}  // namespace

std::string Digest::Hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

Digest DigestTable(const iceberg::Table& table) {
  Digest d;
  d.rows = table.num_rows();
  std::string line;
  for (const iceberg::Row& row : table.rows()) {
    line.clear();
    for (const iceberg::Value& v : row) {
      AppendCanonical(v, &line);
      line.push_back('|');
    }
    d.hash += Mix(Fnv1a(line));
  }
  return d;
}

std::string DigestKey(const std::string& statement, int instance) {
  return statement + "@" + std::to_string(instance);
}

iceberg::Status ReferenceDigests(iceberg::Database* db,
                                 const std::vector<Statement>& statements,
                                 int instance,
                                 std::map<std::string, Digest>* out) {
  iceberg::ExecOptions reference;
  reference.num_threads = 1;
  reference.cbo = false;
  reference.predicate_transfer = false;
  reference.vectorize = false;
  for (const Statement& s : statements) {
    auto result = db->Query(s.sql, reference);
    if (!result.ok()) return result.status();
    (*out)[DigestKey(s.name, instance)] = DigestTable(**result);
  }
  return iceberg::Status::OK();
}

bool LoadStoredDigests(const std::string& path, const WorkloadSpec& spec,
                       uint64_t seed, std::map<std::string, Digest>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::map<std::string, Digest> found;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, statement, hex;
    uint64_t line_seed = 0;
    size_t rows = 0;
    Digest d;
    if (!(fields >> workload >> line_seed >> rows >> statement >> d.rows >>
          hex)) {
      continue;
    }
    if (workload != spec.name || line_seed != seed || rows != spec.rows) {
      continue;
    }
    d.hash = std::strtoull(hex.c_str(), nullptr, 16);
    found[statement] = d;
  }
  for (int i = 0; i < spec.instances; ++i) {
    for (const Statement& s : spec.statements) {
      if (found.count(DigestKey(s.name, i)) == 0) return false;
    }
  }
  *out = std::move(found);
  return true;
}

std::string FormatDigestLines(const WorkloadSpec& spec, uint64_t seed,
                              const std::map<std::string, Digest>& digests) {
  std::string text;
  for (int i = 0; i < spec.instances; ++i) {
    for (const Statement& s : spec.statements) {
      const std::string key = DigestKey(s.name, i);
      const Digest& d = digests.at(key);
      text += spec.name + " " + std::to_string(seed) + " " +
              std::to_string(spec.rows) + " " + key + " " +
              std::to_string(d.rows) + " " + d.Hex() + "\n";
    }
  }
  return text;
}

}  // namespace icebench
