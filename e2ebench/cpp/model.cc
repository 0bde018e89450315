#include "model.h"

#include <sstream>

namespace e2ebench {

size_t RowHash::operator()(const Row& row) const {
  uint64_t h = 1469598103934665603ull;
  for (int64_t v : row) {
    h ^= static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return static_cast<size_t>(h);
}

void Model::Insert(const std::string& table, const Row& row, int64_t now,
                   int64_t ttl) {
  Table& t = tables_[table];
  const int64_t texp = now + ttl;
  auto [it, inserted] = t.emplace(row, texp);
  if (!inserted) {
    // An expired row is gone; a live one keeps the later time.
    it->second = it->second > now ? std::max(it->second, texp) : texp;
  }
}

size_t Model::EraseLive(const std::string& table, int64_t now,
                        const std::function<bool(const Row&)>& match) {
  Table& t = tables_[table];
  size_t erased = 0;
  for (auto it = t.begin(); it != t.end();) {
    if (it->second > now && match(it->first)) {
      it = t.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  return erased;
}

void Model::ForEachLive(
    const std::string& table, int64_t now,
    const std::function<void(const Row&, int64_t)>& fn) const {
  auto t = tables_.find(table);
  if (t == tables_.end()) return;
  for (const auto& [row, texp] : t->second) {
    if (texp > now) fn(row, texp);
  }
}

int64_t Model::LiveTexp(const std::string& table, const Row& row,
                        int64_t now) const {
  auto t = tables_.find(table);
  if (t == tables_.end()) return -1;
  auto it = t->second.find(row);
  return it != t->second.end() && it->second > now ? it->second : -1;
}

namespace {

std::string RowString(const Row& row) {
  std::ostringstream out;
  out << "(";
  for (size_t i = 0; i < row.size(); ++i) out << (i ? ", " : "") << row[i];
  out << ")";
  return out.str();
}

}  // namespace

std::string CompareResult(const expdb::Relation& rel, int64_t served_at,
                          const Expected& expected) {
  std::string error;
  size_t matched = 0;
  rel.ForEach([&](const expdb::Tuple& tuple, expdb::Timestamp texp) {
    if (!error.empty()) return;
    Row row;
    row.reserve(tuple.arity());
    for (const expdb::Value& v : tuple.values()) {
      if (!v.is_int64()) {
        error = "non-integer value " + v.ToString();
        return;
      }
      row.push_back(v.AsInt64());
    }
    const int64_t t = texp.IsInfinite() ? INT64_MAX : texp.ticks();
    if (t <= served_at) {
      error = "tuple " + RowString(row) + " has texp " + std::to_string(t) +
              " <= served_at " + std::to_string(served_at);
      return;
    }
    auto it = expected.rows.find(row);
    if (it == expected.rows.end()) {
      error = "unexpected tuple " + RowString(row);
      return;
    }
    if (expected.exact_texp && it->second != t) {
      error = "tuple " + RowString(row) + " has texp " + std::to_string(t) +
              ", model says " + std::to_string(it->second);
      return;
    }
    ++matched;
  });
  if (!error.empty()) return error;
  if (matched != expected.rows.size()) {
    return "result has " + std::to_string(matched) + " tuples, model has " +
           std::to_string(expected.rows.size());
  }
  return "";
}

}  // namespace e2ebench
