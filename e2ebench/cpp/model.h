// The benchmark's own record of what the engine should hold, kept apart
// from the engine: per table, a map from row to expiration time, updated
// from each write's served_at. Read results are compared with answers
// computed from this model at the result's served_at.

#ifndef EXPDB_E2EBENCH_MODEL_H_
#define EXPDB_E2EBENCH_MODEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/relation.h"

namespace e2ebench {

using Row = std::vector<int64_t>;

struct RowHash {
  size_t operator()(const Row& row) const;
};

/// Row -> expiration time in ticks.
using Table = std::unordered_map<Row, int64_t, RowHash>;

class Model {
 public:
  /// An INSERT ... TTL served at `now`: texp = now + ttl, and a row that
  /// is still live keeps the later of its two expiration times.
  void Insert(const std::string& table, const Row& row, int64_t now,
              int64_t ttl);

  /// Erases the rows of `table` live at `now` for which `match` holds.
  /// \return how many were erased.
  size_t EraseLive(const std::string& table, int64_t now,
                   const std::function<bool(const Row&)>& match);

  /// Calls `fn` for every row of `table` live at `now`.
  void ForEachLive(const std::string& table, int64_t now,
                   const std::function<void(const Row&, int64_t)>& fn) const;

  /// The row's texp when it is live at `now`, else -1.
  int64_t LiveTexp(const std::string& table, const Row& row,
                   int64_t now) const;

  Table& table(const std::string& name) { return tables_[name]; }

 private:
  std::map<std::string, Table> tables_;
};

/// An expected result: rows with their expiration times. When
/// `exact_texp` is false the rows are compared as a set.
struct Expected {
  std::map<Row, int64_t> rows;
  bool exact_texp = true;
};

/// Compares `rel` (as served at `served_at`) with `expected`. Every
/// returned tuple must also satisfy texp > served_at. Non-integer values
/// are an error: every benchmark column is INT.
/// \return "" on a match, else a description of the first difference.
std::string CompareResult(const expdb::Relation& rel, int64_t served_at,
                          const Expected& expected);

}  // namespace e2ebench

#endif  // EXPDB_E2EBENCH_MODEL_H_
