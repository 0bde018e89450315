// e2ebench: drives one workload through engine::SessionManager sessions
// on one engine::Engine and prints its metrics.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--trace-file PATH] [--perturb row|tick]
//
// --trace 0 sets the workload up 11 times, runs its closed loop for S
// seconds through Session::Execute on the last of those engines, sets it
// up 10 more times (setup_s is the median of the 21) and prints the
// end-to-end metrics. --trace 1 runs the same seed call by
// call with a span around every layer boundary (TracedExecutor) for S
// seconds, and runs exactly the same rounds through Session::Execute on
// a second engine, in alternating slices (so the run takes about 2S), to report tracing overhead and
// check that both paths did the same work; it prints the per-layer
// metrics. --perturb leaves
// a one-row or one-tick error in the model, so the run must fail.
//
// Every result is checked against the workload's model; check time is
// left out of every timing. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The line before
// it, prefixed "e2ebench-detail ", holds per-class latencies and counts.
// The exit code is 0 only when every check passed.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/session_manager.h"
#include "executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads.h"

namespace e2ebench {
namespace {

using expdb::obs::MetricsRegistry;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_file;
  std::string perturb;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = std::stoi(value);
    } else if (key == "--trace-file") {
      args->trace_file = value;
    } else if (key == "--perturb") {
      args->perturb = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1) &&
         (args->perturb.empty() || args->perturb == "row" ||
          args->perturb == "tick");
}

/// One set-up engine with its sessions and the workload that fed it.
struct Instance {
  std::unique_ptr<Workload> workload;
  std::shared_ptr<expdb::engine::Engine> engine;
  std::unique_ptr<expdb::engine::SessionManager> manager;
  std::vector<std::shared_ptr<expdb::sql::Session>> sessions;
  double setup_s = 0;
};

/// Builds the engine and runs the workload's set-up script through
/// session 0, checking every statement. Set-up time excludes the checks.
std::unique_ptr<Instance> SetUp(const Args& args, std::string* error) {
  auto inst = std::make_unique<Instance>();
  inst->workload = MakeWorkload(args.workload, args.seed);
  if (inst->workload == nullptr) {
    *error = "unknown workload " + args.workload;
    return nullptr;
  }
  const std::vector<Stmt> script = inst->workload->Setup();
  int64_t check_ns = 0;
  const int64_t start = NowNs();
  inst->engine = std::make_shared<expdb::engine::Engine>();
  inst->manager =
      std::make_unique<expdb::engine::SessionManager>(inst->engine);
  for (int s = 0; s < inst->workload->sessions(); ++s) {
    inst->sessions.push_back(inst->manager->OpenSession());
  }
  for (const Stmt& stmt : script) {
    auto result = inst->sessions[0]->Execute(stmt.sql);
    if (!result.ok()) {
      *error = "set-up statement failed: " + result.status().ToString() +
               " [" + stmt.sql.substr(0, 120) + "]";
      return nullptr;
    }
    const int64_t c0 = NowNs();
    const std::string mismatch = inst->workload->Check(stmt, *result);
    check_ns += NowNs() - c0;
    if (!mismatch.empty()) {
      *error = "set-up check failed: " + mismatch;
      return nullptr;
    }
  }
  inst->setup_s = static_cast<double>(NowNs() - start - check_ns) / 1e9;
  return inst;
}

/// Runs the probe read and makes sure the checker accepts it, and that a
/// model with one row removed, or one texp moved by one tick, is
/// rejected. With `perturb` set, that error is left in the model and the
/// probe is checked again, so the run fails.
std::string SelfTest(Instance* inst, const std::string& perturb) {
  Workload& wl = *inst->workload;
  const Probe probe = wl.MakeProbe();
  auto result = inst->sessions[0]->Execute(probe.stmt.sql);
  if (!result.ok()) return "probe failed: " + result.status().ToString();
  std::string mismatch = wl.Check(probe.stmt, *result);
  if (!mismatch.empty()) return "probe: " + mismatch;
  Table& table = wl.model(probe.stmt.model).table(probe.table);
  auto it = table.find(probe.row);
  if (it == table.end() || !result->relation.has_value() ||
      result->relation->size() == 0) {
    return "probe row is not in the model or the probe read is empty";
  }
  const int64_t texp = it->second;
  it->second = texp + 1;
  const bool tick_caught = !wl.Check(probe.stmt, *result).empty();
  table.erase(probe.row);
  const bool row_caught = !wl.Check(probe.stmt, *result).empty();
  table[probe.row] = texp;
  if (!tick_caught || !row_caught) {
    return std::string("checker missed a perturbed ") +
           (tick_caught ? "row" : "tick");
  }
  if (perturb == "tick") table[probe.row] = texp + 1;
  if (perturb == "row") table.erase(probe.row);
  if (!perturb.empty()) {
    mismatch = wl.Check(probe.stmt, *result);
    if (!mismatch.empty()) return "model perturbed by one " + perturb + ": " + mismatch;
  }
  return "";
}

struct SessionRun {
  std::array<std::vector<int64_t>, kNumClasses> latency_ns;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rounds = 0;
  int64_t busy_ns = 0;   ///< inside Run()
  int64_t other_ns = 0;  ///< checking, pausing and making statements
  int64_t wall_ns = 0;
  /// At the end of each round: time since the session started, and the
  /// statements completed and the time outside checking, pausing and
  /// making statements, both since the session started.
  std::vector<std::array<int64_t, 3>> round_ends;
  uint64_t wrong = 0;  ///< results the model disagrees with
  std::vector<std::string> errors;  ///< the first few failures and mismatches
};

/// One session's closed loop: whole rounds until `deadline_ns` (0 = none)
/// or `max_rounds` rounds.
void RunSession(Workload* wl, int session, Executor* exec,
                int64_t deadline_ns, uint64_t max_rounds, SessionRun* out) {
  std::vector<Stmt> round;
  const std::chrono::microseconds pause(wl->pause_us());
  const int64_t start = NowNs();
  while (out->rounds < max_rounds &&
         (deadline_ns == 0 || NowNs() < deadline_ns)) {
    const int64_t g0 = NowNs();
    round.clear();
    wl->NextRound(session, &round);
    out->other_ns += NowNs() - g0;
    for (const Stmt& stmt : round) {
      const int64_t t0 = NowNs();
      auto result = exec->Run(stmt.sql);
      const int64_t t1 = NowNs();
      ++out->attempted;
      if (!result.ok()) {
        ++out->failed;
        if (out->errors.size() < 5) {
          out->errors.push_back("failed: " + result.status().ToString() +
                                " [" + stmt.sql.substr(0, 120) + "]");
        }
        continue;
      }
      out->busy_ns += t1 - t0;
      out->latency_ns[static_cast<int>(stmt.cls)].push_back(t1 - t0);
      const std::string mismatch = wl->Check(stmt, *result);
      if (pause.count() > 0) std::this_thread::sleep_for(pause);
      out->other_ns += NowNs() - t1;
      if (mismatch.empty()) continue;
      ++out->wrong;
      if (out->errors.size() < 5) {
        out->errors.push_back("wrong result: " + mismatch + " [" +
                              stmt.sql.substr(0, 120) + "]");
      }
    }
    ++out->rounds;
    const int64_t now = NowNs();
    out->round_ends.push_back({now - start,
                               static_cast<int64_t>(out->attempted - out->failed),
                               now - start - out->other_ns});
  }
  out->wall_ns = NowNs() - start;
}

/// Runs every session of `inst` concurrently, session 0 on this thread.
std::vector<SessionRun> RunAll(Instance* inst,
                               const std::vector<std::unique_ptr<Executor>>& execs,
                               int64_t deadline_ns,
                               const std::vector<uint64_t>& max_rounds) {
  const int n = inst->workload->sessions();
  std::vector<SessionRun> runs(n);
  std::vector<std::thread> threads;
  for (int s = 1; s < n; ++s) {
    threads.emplace_back(RunSession, inst->workload.get(), s, execs[s].get(),
                         deadline_ns, max_rounds[s], &runs[s]);
  }
  RunSession(inst->workload.get(), 0, execs[0].get(), deadline_ns,
             max_rounds[0], &runs[0]);
  for (std::thread& t : threads) t.join();
  return runs;
}

double Percentile(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

/// Statements per second in consecutive `slice_ns` slices of the run,
/// summed over sessions; a round counts in the slice it ends in.
std::vector<double> SliceThroughputs(const std::vector<SessionRun>& runs,
                                     int64_t slice_ns) {
  std::vector<double> out;
  for (int64_t k = 0;; ++k) {
    double sum = 0;
    for (const SessionRun& r : runs) {
      // The last round ending before each slice boundary.
      std::array<int64_t, 3> from{0, 0, 0}, to{-1, 0, 0};
      for (const auto& e : r.round_ends) {
        if (e[0] < k * slice_ns) from = e;
        if (e[0] < (k + 1) * slice_ns) to = e;
      }
      if (r.wall_ns < (k + 1) * slice_ns || to[2] <= from[2]) return out;
      sum += static_cast<double>(to[1] - from[1]) * 1e9 /
             static_cast<double>(to[2] - from[2]);
    }
    out.push_back(sum);
  }
}

double PeakRssMiB() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

/// Global counters read before and after the traced phase.
const char* const kCounters[] = {
    "expdb_eval_operators_total",        "expdb_eval_tuples_out_total",
    "expdb_segment_pruned_total",        "expdb_segment_checked_total",
    "expdb_segment_dropped_total",       "expdb_expiration_removed_total",
    "expdb_expiration_index_pushes_total", "expdb_expiration_index_pops_total",
    "expdb_expiration_stale_entries_total", "expdb_engine_write_waits_total",
    "expdb_engine_maintenance_runs_total", "expdb_view_delta_applies_total",
    "expdb_view_delta_fallbacks_total",  "expdb_view_recomputations_total",
    "expdb_view_patches_applied_total",  "expdb_eval_parallel_loops_total",
    "expdb_eval_parallel_morsels_total", "expdb_eval_parallel_fallback_total",
    "expdb_result_cache_hits_total",     "expdb_result_cache_patches_total",
    "expdb_result_cache_misses_total",   "expdb_result_cache_evictions_total",
};

std::map<std::string, uint64_t> ReadCounters() {
  std::map<std::string, uint64_t> out;
  for (const char* name : kCounters) out[name] = CounterValue(name);
  return out;
}

/// The work counts two executions of the same statements must agree on.
std::map<std::string, uint64_t> WorkCounts(Instance* inst) {
  expdb::engine::Engine& e = *inst->engine;
  const expdb::plan::ResultCache::Stats rc = e.result_cache().stats();
  const expdb::ViewStats views = e.views().TotalStats();
  return {{"stmt_cache.hits", e.stmt_cache().hits()},
          {"stmt_cache.misses", e.stmt_cache().misses()},
          {"result_cache.hits", rc.hits},
          {"result_cache.patches", rc.patches},
          {"result_cache.misses", rc.misses},
          {"view.delta_applies", views.delta_applies},
          {"view.delta_fallbacks", views.delta_fallbacks},
          {"view.recomputations", views.recomputations},
          {"expiration.removed", e.expiration().stats().removed}};
}

class JsonObject {
 public:
  void Number(const std::string& key, double value) {
    std::ostringstream v;
    v.precision(15);
    v << (std::isfinite(value) ? value : 0.0);
    Raw(key, v.str());
  }
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + Quote(key) + ": " + json;
  }
  void String(const std::string& key, const std::string& value) {
    Raw(key, Quote(value));
  }
  std::string str() const { return "{" + body_ + "}"; }
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    out += expdb::obs::JsonEscape(s);
    out += '"';
    return out;
  }

 private:
  std::string body_;
};

void Metric(JsonObject* metrics, const std::string& name, double value,
            const std::string& unit) {
  JsonObject m;
  m.Number("value", value);
  m.String("unit", unit);
  metrics->Raw(name, m.str());
}

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int64_t busy_ns = 0;
  uint64_t wrong = 0;
  std::vector<std::string> errors;
};

Totals Sum(const std::vector<SessionRun>& runs) {
  Totals t;
  for (const SessionRun& r : runs) {
    t.attempted += r.attempted;
    t.failed += r.failed;
    t.busy_ns += r.busy_ns;
    t.wrong += r.wrong;
    t.errors.insert(t.errors.end(), r.errors.begin(), r.errors.end());
  }
  return t;
}

std::vector<std::unique_ptr<Executor>> SessionExecutors(Instance* inst) {
  std::vector<std::unique_ptr<Executor>> out;
  for (const auto& s : inst->sessions) {
    out.push_back(std::make_unique<SessionExecutor>(s));
  }
  return out;
}

int Fail(const std::string& message) {
  std::cerr << "e2ebench: " << message << "\n";
  return 2;
}

int RunUntraced(const Args& args) {
  // Set-ups before and after the timed phase, so that the median spans
  // the run's whole length and a change in the host's speed during the
  // run falls on setup_s as it does on the other metrics.
  constexpr int kSetupsBefore = 11;
  constexpr int kSetupsAfter = 10;
  std::vector<double> setups;
  std::unique_ptr<Instance> inst;
  std::string error;
  for (int i = 0; i < kSetupsBefore; ++i) {
    inst.reset();
    inst = SetUp(args, &error);
    if (inst == nullptr) return Fail(error);
    setups.push_back(inst->setup_s);
  }
  const std::string self_test = SelfTest(inst.get(), args.perturb);

  const int sessions = inst->workload->sessions();
  const auto execs = SessionExecutors(inst.get());
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  const std::vector<SessionRun> runs =
      RunAll(inst.get(), execs, deadline, std::vector<uint64_t>(sessions, UINT64_MAX));
  Totals totals = Sum(runs);
  const double peak_rss_mib = PeakRssMiB();
  for (int i = 0; i < kSetupsAfter; ++i) {
    std::unique_ptr<Instance> extra = SetUp(args, &error);
    if (extra == nullptr) return Fail(error);
    setups.push_back(extra->setup_s);
  }
  std::sort(setups.begin(), setups.end());

  // Throughput: each session's completed statements over its own time
  // outside checking, pausing and statement generation, summed over
  // sessions.
  double throughput = 0;
  std::array<std::vector<int64_t>, kNumClasses> by_class;
  std::vector<int64_t> reads;
  for (const SessionRun& r : runs) {
    throughput += static_cast<double>(r.attempted - r.failed) /
                  (static_cast<double>(r.wall_ns - r.other_ns) / 1e9);
    for (int c = 0; c < kNumClasses; ++c) {
      by_class[c].insert(by_class[c].end(), r.latency_ns[c].begin(),
                         r.latency_ns[c].end());
      if (IsRead(static_cast<Cls>(c))) {
        reads.insert(reads.end(), r.latency_ns[c].begin(), r.latency_ns[c].end());
      }
    }
  }

  JsonObject detail;
  detail.String("workload", args.workload);
  detail.Number("seed", static_cast<double>(args.seed));
  detail.Number("sessions", sessions);
  size_t live_rows = 0;
  for (const std::string& name : inst->engine->db().RelationNames()) {
    live_rows += inst->engine->db().GetRelation(name).value()->CountUnexpiredAt(
        inst->engine->Now());
  }
  detail.Number("live_rows_at_end", static_cast<double>(live_rows));
  detail.Number("ticks_at_end", static_cast<double>(inst->engine->Now().ticks()));
  JsonObject classes;
  for (int c = 0; c < kNumClasses; ++c) {
    const auto& v = by_class[c];
    if (v.empty()) continue;
    JsonObject cls;
    cls.Number("count", static_cast<double>(v.size()));
    cls.Number("p50_us", Percentile(v, 0.50) / 1e3);
    int64_t total_ns = 0;
    for (int64_t ns : v) total_ns += ns;
    cls.Number("total_ms", static_cast<double>(total_ns) / 1e6);
    if (v.size() >= 1000) cls.Number("p99_us", Percentile(v, 0.99) / 1e3);
    classes.Raw(ClassName(static_cast<Cls>(c)), cls.str());
  }
  detail.Raw("classes", classes.str());
  detail.Number("read_p99_us", Percentile(reads, 0.99) / 1e3);
  std::vector<double> slices = SliceThroughputs(runs, 3'000'000'000);
  JsonObject slice_list;
  for (size_t i = 0; i < slices.size(); ++i) slice_list.Number(std::to_string(i), slices[i]);
  detail.Raw("throughput_slices", slice_list.str());
  JsonObject setup_list;
  for (size_t i = 0; i < setups.size(); ++i) {
    setup_list.Number(std::to_string(i), setups[i]);
  }
  detail.Raw("setup_s_sorted", setup_list.str());
  std::cout << "e2ebench-detail " << detail.str() << "\n";

  JsonObject metrics;
  Metric(&metrics, "setup_s", setups[setups.size() / 2], "s");
  Metric(&metrics, "throughput_sps", throughput, "1/s");
  Metric(&metrics, "peak_rss_mb", peak_rss_mib, "MiB");
  Metric(&metrics, "read_p50_us", Percentile(reads, 0.50) / 1e3, "us");

  for (const std::string& e : totals.errors) std::cerr << "e2ebench: " << e << "\n";
  if (!self_test.empty()) std::cerr << "e2ebench: self-test: " << self_test << "\n";
  const bool correct = self_test.empty() && totals.wrong == 0;
  JsonObject out;
  out.Raw("correct", correct ? "true" : "false");
  out.Number("attempted", static_cast<double>(totals.attempted));
  out.Number("failed", static_cast<double>(totals.failed));
  out.Raw("metrics", metrics.str());
  std::cout << out.str() << std::endl;
  return correct ? 0 : 1;
}

/// Appends one slice's run of a session to its totals.
void Merge(SessionRun* into, const SessionRun& from) {
  for (int c = 0; c < kNumClasses; ++c) {
    into->latency_ns[c].insert(into->latency_ns[c].end(),
                               from.latency_ns[c].begin(),
                               from.latency_ns[c].end());
  }
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->rounds += from.rounds;
  into->busy_ns += from.busy_ns;
  into->other_ns += from.other_ns;
  into->wall_ns += from.wall_ns;
  into->wrong += from.wrong;
  for (const std::string& e : from.errors) {
    if (into->errors.size() < 5) into->errors.push_back(e);
  }
}

int RunTraced(const Args& args) {
  // Two engines set up from the same seed: `traced` runs call by call
  // with spans, `replay` runs the same rounds through Session::Execute.
  // They take turns in short slices, so that a change in the machine's
  // speed during the run falls on both alike.
  constexpr int64_t kSliceNs = 2'000'000'000;
  std::string error;
  std::unique_ptr<Instance> traced = SetUp(args, &error);
  if (traced == nullptr) return Fail(error);
  std::unique_ptr<Instance> replay = SetUp(args, &error);
  if (replay == nullptr) return Fail(error);
  std::string self_test = SelfTest(traced.get(), args.perturb);
  if (self_test.empty()) self_test = SelfTest(replay.get(), args.perturb);
  expdb::obs::TraceRecorder::Global().set_enabled(true);
  const int sessions = traced->workload->sessions();
  std::vector<LayerTimes> layers(sessions);
  std::vector<std::unique_ptr<Executor>> execs;
  for (int s = 0; s < sessions; ++s) {
    execs.push_back(std::make_unique<TracedExecutor>(
        traced->engine.get(), traced->workload->parallelism(), &layers[s]));
  }
  const auto replay_execs = SessionExecutors(replay.get());

  std::vector<SessionRun> runs_a(sessions), runs_b(sessions);
  std::map<std::string, uint64_t> counts;  // global counters, traced slices only
  std::vector<expdb::obs::SpanRecord> spans;
  const int64_t traced_ns = static_cast<int64_t>(args.seconds * 1e9);
  for (int64_t elapsed = 0; elapsed < traced_ns;) {
    const std::map<std::string, uint64_t> before = ReadCounters();
    const int64_t start = NowNs();
    const std::vector<SessionRun> slice_a = RunAll(
        traced.get(), execs, start + std::min(kSliceNs, traced_ns - elapsed),
        std::vector<uint64_t>(sessions, UINT64_MAX));
    elapsed += NowNs() - start;
    for (const auto& [name, value] : ReadCounters()) {
      counts[name] += value - before.at(name);
    }
    spans = expdb::obs::TraceRecorder::Global().Snapshot();
    std::vector<uint64_t> rounds;
    for (const SessionRun& r : slice_a) rounds.push_back(r.rounds);
    const std::vector<SessionRun> slice_b =
        RunAll(replay.get(), replay_execs, 0, rounds);
    for (int s = 0; s < sessions; ++s) {
      Merge(&runs_a[s], slice_a[s]);
      Merge(&runs_b[s], slice_b[s]);
    }
  }
  const size_t rc_bytes = traced->engine->result_cache().stats().bytes;
  const std::map<std::string, uint64_t> work_a = WorkCounts(traced.get());
  const std::map<std::string, uint64_t> work_b = WorkCounts(replay.get());
  if (!args.trace_file.empty()) {
    std::ofstream file(args.trace_file, std::ios::trunc);
    file << expdb::obs::ChromeTraceJson(spans);
    if (!file) return Fail("cannot write " + args.trace_file);
  }

  Totals a = Sum(runs_a);
  const Totals b = Sum(runs_b);
  // With several sessions the two engines interleave statements
  // differently, so their work counts need not agree.
  std::string fidelity;
  if (sessions == 1) {
    for (const auto& [name, value] : work_a) {
      if (work_b.at(name) != value && fidelity.empty()) {
        fidelity = name + ": call by call " + std::to_string(value) +
                   ", Session::Execute " + std::to_string(work_b.at(name));
      }
    }
  }

  LayerTimes sum;
  for (const LayerTimes& l : layers) sum.Add(l);
  auto delta = [&](const char* name) {
    return static_cast<double>(counts.at(name));
  };
  auto ms = [](int64_t ns) { return static_cast<double>(ns) / 1e6; };
  JsonObject m;
  Metric(&m, "sql.parse.busy_ms", ms(sum.parse), "ms");
  Metric(&m, "sql.normalize.busy_ms", ms(sum.normalize), "ms");
  Metric(&m, "sql.bind.busy_ms", ms(sum.bind), "ms");
  Metric(&m, "sql.unattributed_ms", ms(sum.Unattributed()), "ms");
  Metric(&m, "plan.stmt_cache.busy_ms", ms(sum.stmt_cache), "ms");
  Metric(&m, "plan.stmt_cache.hits", static_cast<double>(work_a.at("stmt_cache.hits")), "count");
  Metric(&m, "plan.stmt_cache.misses", static_cast<double>(work_a.at("stmt_cache.misses")), "count");
  Metric(&m, "plan.plan.busy_ms", ms(sum.plan), "ms");
  Metric(&m, "plan.plan.nodes_per_plan",
         sum.plans ? static_cast<double>(sum.plan_nodes) / sum.plans : 0.0, "nodes");
  Metric(&m, "plan.instantiate.busy_ms", ms(sum.instantiate), "ms");
  Metric(&m, "plan.execute.busy_ms", ms(sum.execute), "ms");
  Metric(&m, "plan.execute.operators", delta("expdb_eval_operators_total"), "count");
  Metric(&m, "plan.execute.rows_out", delta("expdb_eval_tuples_out_total"), "count");
  Metric(&m, "plan.result_cache.lookup.busy_ms", ms(sum.rc_lookup), "ms");
  Metric(&m, "plan.result_cache.fill.busy_ms", ms(sum.rc_fill), "ms");
  const double hits = delta("expdb_result_cache_hits_total");
  const double misses = delta("expdb_result_cache_misses_total");
  Metric(&m, "plan.result_cache.hits", hits, "count");
  Metric(&m, "plan.result_cache.patches", delta("expdb_result_cache_patches_total"), "count");
  Metric(&m, "plan.result_cache.misses", misses, "count");
  Metric(&m, "plan.result_cache.evictions", delta("expdb_result_cache_evictions_total"), "count");
  Metric(&m, "plan.result_cache.hit_ratio",
         hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  Metric(&m, "plan.result_cache.bytes", static_cast<double>(rc_bytes), "bytes");
  Metric(&m, "relational.segments.pruned", delta("expdb_segment_pruned_total"), "count");
  Metric(&m, "relational.segments.checked", delta("expdb_segment_checked_total"), "count");
  Metric(&m, "relational.segments.dropped", delta("expdb_segment_dropped_total"), "count");
  Metric(&m, "relational.delete.busy_ms", ms(sum.delete_scan), "ms");
  Metric(&m, "expiration.insert.busy_ms", ms(sum.exp_insert), "ms");
  Metric(&m, "expiration.advance.busy_ms", ms(sum.exp_advance), "ms");
  Metric(&m, "expiration.removed", delta("expdb_expiration_removed_total"), "count");
  Metric(&m, "expiration.index.pushes", delta("expdb_expiration_index_pushes_total"), "count");
  Metric(&m, "expiration.index.pops", delta("expdb_expiration_index_pops_total"), "count");
  Metric(&m, "expiration.index.stale", delta("expdb_expiration_stale_entries_total"), "count");
  Metric(&m, "expiration.compact.busy_ms", ms(sum.compact), "ms");
  Metric(&m, "engine.maintenance.busy_ms", ms(sum.maintenance), "ms");
  Metric(&m, "engine.maintenance.passes", delta("expdb_engine_maintenance_runs_total"), "count");
  Metric(&m, "engine.lock_wait.snapshot_ms", ms(sum.snapshot_wait), "ms");
  Metric(&m, "engine.lock_wait.write_ms", ms(sum.write_wait), "ms");
  Metric(&m, "engine.lock_wait.exclusive_ms", ms(sum.exclusive_wait), "ms");
  Metric(&m, "engine.write_waits", delta("expdb_engine_write_waits_total"), "count");
  Metric(&m, "view.read.busy_ms", ms(sum.view_read), "ms");
  Metric(&m, "view.advance.busy_ms", ms(sum.view_advance), "ms");
  Metric(&m, "view.notify.busy_ms", ms(sum.view_notify), "ms");
  const double applies = delta("expdb_view_delta_applies_total");
  const double recomputations = delta("expdb_view_recomputations_total");
  Metric(&m, "view.delta_applies", applies, "count");
  Metric(&m, "view.delta_fallbacks", delta("expdb_view_delta_fallbacks_total"), "count");
  Metric(&m, "view.recomputations", recomputations, "count");
  Metric(&m, "view.patches_applied", delta("expdb_view_patches_applied_total"), "count");
  Metric(&m, "view.incremental_ratio",
         applies + recomputations > 0 ? applies / (applies + recomputations) : 0.0,
         "ratio");
  Metric(&m, "common.thread_pool.parallel_loops", delta("expdb_eval_parallel_loops_total"), "count");
  Metric(&m, "common.thread_pool.morsels", delta("expdb_eval_parallel_morsels_total"), "count");
  Metric(&m, "common.thread_pool.fallbacks", delta("expdb_eval_parallel_fallback_total"), "count");
  Metric(&m, "bench.traced_statements", static_cast<double>(a.attempted), "count");
  Metric(&m, "bench.trace_overhead",
         b.busy_ns > 0 ? static_cast<double>(a.busy_ns) / b.busy_ns - 1 : 0.0,
         "ratio");

  JsonObject detail;
  detail.String("workload", args.workload);
  detail.Number("seed", static_cast<double>(args.seed));
  detail.Number("replayed_statements", static_cast<double>(b.attempted));
  JsonObject work;
  for (const auto& [name, value] : work_a) {
    JsonObject pair;
    pair.Number("traced", static_cast<double>(value));
    pair.Number("session", static_cast<double>(work_b.at(name)));
    work.Raw(name, pair.str());
  }
  detail.Raw("work_counts", work.str());
  detail.Raw("fidelity_checked", sessions == 1 ? "true" : "false");
  std::cout << "e2ebench-detail " << detail.str() << "\n";

  for (const std::string& e : a.errors) std::cerr << "e2ebench: traced: " << e << "\n";
  for (const std::string& e : b.errors) std::cerr << "e2ebench: replay: " << e << "\n";
  if (!self_test.empty()) std::cerr << "e2ebench: self-test: " << self_test << "\n";
  if (!fidelity.empty()) std::cerr << "e2ebench: fidelity: " << fidelity << "\n";
  const bool correct = self_test.empty() && fidelity.empty() && a.wrong == 0 &&
                       b.wrong == 0 && b.failed == a.failed;
  JsonObject out;
  out.Raw("correct", correct ? "true" : "false");
  out.Number("attempted", static_cast<double>(a.attempted));
  out.Number("failed", static_cast<double>(a.failed));
  out.Raw("metrics", m.str());
  std::cout << out.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Args args;
  if (!e2ebench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: e2ebench --workload ttl_churn|view_dashboard|"
                 "wide_plans --seed N --seconds S --trace 0|1 "
                 "[--trace-file PATH] [--perturb row|tick]\n";
    return 2;
  }
  return args.trace == 1 ? e2ebench::RunTraced(args)
                         : e2ebench::RunUntraced(args);
}
