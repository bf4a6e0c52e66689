// pipeline_bench — iotaxo's whole capture -> commit -> restart -> dashboard
// -> replay path as one closed loop, on three traffic shapes.
//
//   pipeline_bench --workload bulk_cold|metadata_many_eras|live_interleaved
//                  --seed N --seconds S --trace 0|1 --workdir DIR
//
// Every round runs every stage once, so a slow phase of the host hits all
// stages alike. Each number is timed from outside the library, around calls
// into its public functions; every stage's output is checked against the
// naive reference in reference.h and against properties of the method. The
// last stdout line is the result object; the line before it is the run
// record (machine fingerprint, seed, rounds).
//
// --trace 1 alternates traced and untraced rounds: traced rounds record
// spans around every layer call and arm the library's self-metrics, and the
// result carries per-layer metrics plus the tracing overhead measured
// against the untraced rounds of the same process.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/dfg/dfg.h"
#include "analysis/dfg/live_dfg.h"
#include "analysis/unified_store.h"
#include "frameworks/framework.h"
#include "frameworks/lanl_trace.h"
#include "frameworks/tracefs.h"
#include "fs/memfs.h"
#include "interpose/tracers.h"
#include "mpi/runtime.h"
#include "pfs/pfs.h"
#include "reference.h"
#include "replay/pseudo_app.h"
#include "replay/replayer.h"
#include "sim/cluster.h"
#include "spans.h"
#include "trace/async_sink.h"
#include "trace/binary_format.h"
#include "util/cipher.h"
#include "util/metrics.h"
#include "workload/io_intensive.h"
#include "workload/mpi_io_test.h"

namespace perfbench {
namespace {

namespace stdfs = std::filesystem;
using namespace iotaxo;
using analysis::UnifiedTraceStore;
namespace dfg = analysis::dfg;

// Thread counts are fixed, never auto: query workers, DFG workers, async
// sink workers. Queries and DFG builds run on the calling thread: with more
// than one thread every query and DFG build starts a fresh pool
// (parallel_for), so its time includes thread start-up and the wake-up of
// idle vCPUs, which on a shared VM host follow the neighbours' load. Two
// threads were no faster on a 4-vCPU host.
constexpr std::size_t kQueryThreads = 1;
constexpr std::size_t kDfgThreads = 1;
constexpr std::size_t kSinkWorkers = 1;
constexpr int kSetupRepeats = 3;
// Jobs sit in disjoint slots of simulated time (history jobs first, the
// round's jobs after them), so windowed queries over "the latest job" can
// skip history and every round sees the same time layout.
constexpr SimTime kSlotGap = 600 * kSecond;
constexpr SimTime kEpoch = 1159808385LL * kSecond;

struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void require(bool ok, const std::string& what) {
  if (!ok) {
    throw CheckFailure(what);
  }
}

// ------------------------------------------------------------ run record

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
};

[[nodiscard]] std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

[[nodiscard]] std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

[[nodiscard]] std::string cpu_model() {
  std::istringstream in(read_text("/proc/cpuinfo"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

[[nodiscard]] std::string load_average() {
  const std::string s = read_text("/proc/loadavg");
  std::istringstream in(s);
  std::string one;
  std::string five;
  std::string fifteen;
  in >> one >> five >> fifteen;
  return one + " " + five + " " + fifteen;
}

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------ rounds

/// What one round measured. Times in ms unless named _s.
struct RoundSample {
  bool traced = false;
  double capture_events = 0;
  double capture_s = 0;
  double commit_events = 0;
  double commit_s = 0;
  double stored_bytes = 0;
  double stored_events = 0;
  double restart_ms = 0;
  std::vector<double> dashboard_ms;
  double replay_events = 0;
  double replay_s = 0;
  double pipeline_ms = 0;  // every stage except checks and layer probes
  /// Per-layer values of a traced round (name -> value).
  std::map<std::string, double> layer;
};

/// Per-round bookkeeping: stage timing, span root, self-metrics deltas.
class Round {
 public:
  Round(SpanLog& log, int id, bool traced) : log_(log), traced_(traced) {
    log_.set_round(id);
    log_.set_enabled(traced);
    obs::set_enabled(traced);
    if (traced) {
      obs::reset();
    }
    root_ = log_.open("round");
  }
  ~Round() {
    log_.set_fallback_parent(-1);
    obs::set_enabled(false);
  }
  Round(const Round&) = delete;
  Round& operator=(const Round&) = delete;

  void finish() { log_.close(root_); }

  [[nodiscard]] SpanLog& log() { return log_; }
  [[nodiscard]] bool traced() const { return traced_; }
  [[nodiscard]] int root() const { return root_; }
  RoundSample sample;
  /// Self-metric deltas per stage (traced rounds only).
  std::map<std::string, obs::MetricsSnapshot> stage_metrics;
  std::map<std::string, double> stage_ms;

 private:
  SpanLog& log_;
  bool traced_;
  int root_ = -1;
};

/// A stage of a round: a top-level span, a stopwatch, and (traced) the
/// self-metrics delta over its extent. Sink-worker spans opened while the
/// stage runs nest under it.
class Stage {
 public:
  Stage(Round& round, std::string name)
      : round_(round), name_(std::move(name)) {
    // The span covers the self-metrics snapshots too, so a traced round's
    // stages still tile its wall time.
    span_ = round_.log().open("stage." + name_);
    round_.log().set_fallback_parent(span_);
    if (round_.traced()) {
      before_ = obs::snapshot();
    }
    t0_ = now_ns();
  }
  ~Stage() {
    const double ms = static_cast<double>(now_ns() - t0_) / 1e6;
    round_.stage_ms[name_] += ms;
    if (round_.traced()) {
      const obs::MetricsSnapshot d = obs::delta(before_, obs::snapshot());
      obs::MetricsSnapshot& acc = round_.stage_metrics[name_];
      for (const auto& [key, v] : d.values) {
        obs::MetricValue& a = acc.values[key];
        a.kind = v.kind;
        a.value += v.value;
        a.sum += v.sum;
      }
    }
    round_.log().set_fallback_parent(-1);
    round_.log().close(span_);
  }
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  Round& round_;
  std::string name_;
  obs::MetricsSnapshot before_;
  int span_ = -1;
  std::int64_t t0_ = 0;
};

class Stopwatch {
 public:
  Stopwatch() : t0_(now_ns()) {}
  [[nodiscard]] double ms() const {
    return static_cast<double>(now_ns() - t0_) / 1e6;
  }
  [[nodiscard]] double s() const { return ms() / 1e3; }

 private:
  std::int64_t t0_;
};

[[nodiscard]] double counter(const Round& r, const std::string& stage,
                             const std::string& name) {
  const auto st = r.stage_metrics.find(stage);
  if (st == r.stage_metrics.end()) {
    return 0;
  }
  const auto it = st->second.values.find(name);
  if (it == st->second.values.end()) {
    return 0;
  }
  return static_cast<double>(it->second.kind == obs::MetricKind::kHistogram
                                 ? it->second.sum
                                 : it->second.value);
}

/// Histogram sum in ms (the library records _ns histograms).
[[nodiscard]] double hist_ms(const Round& r, const std::string& stage,
                             const std::string& name) {
  return counter(r, stage, name) / 1e6;
}

// ------------------------------------------------------------ dashboard

struct DashParams {
  SimTime begin = 0;
  SimTime end = 0;
  SimTime bucket = 1;
  int rank = 0;
  std::size_t top = 10;
};

struct DashResult {
  std::map<std::string, analysis::CallStats> calls;
  std::vector<trace::TraceEvent> timeline;
  Bytes window = 0;
  std::vector<std::pair<SimTime, Bytes>> series;
  std::vector<analysis::FileHeat> hot;
  dfg::Dfg graph;
};

/// The five queries with fixed parameters plus one DFG (the live graph's
/// snapshot when a maintainer is attached, else a cold build).
DashResult dashboard_pass(const UnifiedTraceStore& store, const DashParams& p,
                          SpanLog& log, const dfg::LiveDfg* live) {
  DashResult r;
  {
    const ScopedSpan s(log, "query.call_stats");
    r.calls = store.call_stats();
  }
  {
    const ScopedSpan s(log, "query.rank_timeline");
    r.timeline = store.rank_timeline(p.rank);
  }
  {
    const ScopedSpan s(log, "query.bytes_in_window");
    r.window = store.bytes_in_window(p.begin, p.end);
  }
  {
    const ScopedSpan s(log, "query.io_rate_series");
    r.series = store.io_rate_series(p.bucket);
  }
  {
    const ScopedSpan s(log, "query.hottest_files");
    r.hot = store.hottest_files(p.top);
  }
  if (live != nullptr) {
    const ScopedSpan s(log, "dfg.live_snapshot");
    r.graph = live->snapshot();
  } else {
    const ScopedSpan s(log, "dfg.build");
    dfg::DfgOptions options;
    options.threads = kDfgThreads;
    r.graph = dfg::DfgBuilder(store).build(options);
  }
  return r;
}

void check_graph(const dfg::Dfg& got, const RefStore& ref,
                 const std::string& where) {
  const auto& want = ref.graphs();
  require(got.ranks.size() == want.size(),
          where + ": DFG has " + std::to_string(got.ranks.size()) +
              " ranks, reference " + std::to_string(want.size()));
  for (const dfg::RankDfg& r : got.ranks) {
    const auto w = want.find(r.rank);
    require(w != want.end(), where + ": DFG rank not in reference");
    require(r.nodes.size() == w->second.nodes.size() &&
                r.edges.size() == w->second.edges.size(),
            where + ": DFG rank " + std::to_string(r.rank) + " shape differs");
    for (const auto& [id, n] : r.nodes) {
      const auto it = w->second.nodes.find(std::string(got.name(id)));
      require(it != w->second.nodes.end() && it->second.count == n.count &&
                  it->second.duration == n.total_duration &&
                  it->second.bytes == n.bytes,
              where + ": DFG node " + std::string(got.name(id)) + " differs");
    }
    for (const auto& [key, e] : r.edges) {
      const auto it = w->second.edges.find(
          {std::string(got.name(key.first)), std::string(got.name(key.second))});
      require(it != w->second.edges.end() && it->second.count == e.count &&
                  it->second.bytes == e.bytes &&
                  it->second.gap_min == e.gap_min &&
                  it->second.gap_max == e.gap_max &&
                  it->second.gap_sum == e.gap_sum,
              where + ": DFG edge " + std::string(got.name(key.first)) +
                  " -> " + std::string(got.name(key.second)) + " differs");
    }
  }
}

void check_dashboard(const DashResult& got, const RefStore& ref,
                     const DashParams& p, const std::string& where) {
  require(ref.events() > 0, where + ": empty reference");
  const auto& calls = ref.call_stats();
  require(got.calls.size() == calls.size(),
          where + ": call_stats has " + std::to_string(got.calls.size()) +
              " names, reference " + std::to_string(calls.size()));
  for (const auto& [name, c] : calls) {
    const auto it = got.calls.find(name);
    require(it != got.calls.end() && it->second.count == c.count &&
                it->second.total_time == c.time &&
                it->second.total_bytes == c.bytes,
            where + ": call_stats[" + name + "] differs");
  }

  require(std::is_sorted(got.timeline.begin(), got.timeline.end(),
                         [](const trace::TraceEvent& a,
                            const trace::TraceEvent& b) {
                           return a.local_start < b.local_start;
                         }),
          where + ": rank_timeline is not in start order");
  std::vector<trace::TraceEvent> timeline = got.timeline;
  RefStore::sort_events(timeline);
  require(!timeline.empty() && timeline == ref.rank_timeline(),
          where + ": rank_timeline(" + std::to_string(p.rank) + ") differs");

  require(got.window == ref.bytes_in_window(p.begin, p.end),
          where + ": bytes_in_window " + std::to_string(got.window) +
              " != reference " +
              std::to_string(ref.bytes_in_window(p.begin, p.end)));
  require(got.series == ref.io_rate_series(p.bucket),
          where + ": io_rate_series differs");

  const std::vector<RefHeat> heat = ref.hottest_files();
  const std::size_t n = std::min(p.top, heat.size());
  require(got.hot.size() == n, where + ": hottest_files length differs");
  std::map<std::string, const RefHeat*> by_path;
  for (const RefHeat& h : heat) {
    by_path[h.path] = &h;
  }
  std::set<std::string> seen;
  for (std::size_t i = 0; i < n; ++i) {
    // Equal byte counts may come back in any order, so rank i must carry
    // the reference's i-th byte count and name a file with exactly it.
    const analysis::FileHeat& h = got.hot[i];
    const auto it = by_path.find(h.path);
    require(h.bytes == heat[i].bytes && it != by_path.end() &&
                it->second->ops == h.ops && it->second->bytes == h.bytes &&
                seen.insert(h.path).second,
            where + ": hottest_files[" + std::to_string(i) + "] differs");
  }
  check_graph(got.graph, ref, where);
}

// ------------------------------------------------------------ store dir

struct DirStat {
  std::size_t containers = 0;
  std::uintmax_t container_bytes = 0;
  std::uintmax_t total_bytes = 0;
};

[[nodiscard]] DirStat dir_stat(const stdfs::path& dir) {
  DirStat st;
  for (const stdfs::directory_entry& e : stdfs::directory_iterator(dir)) {
    if (!e.is_regular_file()) {
      continue;
    }
    const std::uintmax_t size = e.file_size();
    st.total_bytes += size;
    if (e.path().extension().string().rfind(".iotb", 0) == 0) {
      ++st.containers;
      st.container_bytes += size;
    }
  }
  return st;
}

[[nodiscard]] std::vector<std::uint8_t> read_bytes(const stdfs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The committed history a round starts from: its file names and the
/// manifest bytes that commit exactly them.
struct History {
  stdfs::path dir;
  std::set<std::string> files;
  std::vector<std::uint8_t> manifest;
  RefStore ref;
  long long events = 0;
  std::size_t eras = 0;
};

void snapshot_history(History& h) {
  h.files.clear();
  for (const stdfs::directory_entry& e : stdfs::directory_iterator(h.dir)) {
    h.files.insert(e.path().filename().string());
  }
  h.manifest = read_bytes(h.dir / "MANIFEST.iotm");
  h.eras = dir_stat(h.dir).containers;
}

/// Drop the round's eras and put the history manifest back, so every round
/// commits onto the same directory state.
void restore_history(const History& h) {
  for (const stdfs::directory_entry& e : stdfs::directory_iterator(h.dir)) {
    if (h.files.count(e.path().filename().string()) == 0) {
      stdfs::remove(e.path());
    }
  }
  const stdfs::path tmp = h.dir / "MANIFEST.iotm.restore";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(h.manifest.data()),
              static_cast<std::streamsize>(h.manifest.size()));
  }
  stdfs::rename(tmp, h.dir / "MANIFEST.iotm");
}

// ------------------------------------------------------------ helpers

[[nodiscard]] sim::Cluster slot_cluster(std::uint64_t seed, int slot,
                                        int nodes) {
  sim::ClusterParams p;
  p.node_count = nodes;
  p.seed = seed * 1000003ULL + static_cast<std::uint64_t>(slot);
  p.epoch = kEpoch + static_cast<SimTime>(slot) * kSlotGap;
  return sim::Cluster(p);
}

/// Events of a bundle in the order UnifiedTraceStore::ingest files them,
/// with the stamps the store's timeline correction should produce.
[[nodiscard]] std::vector<trace::TraceEvent> store_order(
    const trace::TraceBundle& b) {
  const std::optional<RefClock> clock = RefClock::fit(b.clock_probes);
  std::vector<trace::TraceEvent> out;
  for (const trace::RankStream& rs : b.ranks) {
    for (trace::TraceEvent ev : rs.events) {
      if (clock.has_value()) {
        ev.local_start = clock->correct(ev.rank, ev.local_start);
      }
      out.push_back(std::move(ev));
    }
  }
  return out;
}

[[nodiscard]] Bytes transfer_syscall_bytes(
    const std::vector<trace::TraceEvent>& events) {
  Bytes total = 0;
  for (const trace::TraceEvent& ev : events) {
    if (ev.cls == trace::EventClass::kSyscall &&
        (ev.name == "SYS_write" || ev.name == "SYS_read")) {
      total += ev.bytes;
    }
  }
  return total;
}

/// Bytes a replay of `events` must write and read: per rank, the pseudo-app
/// is driven by library calls when the rank has any, else by syscalls.
[[nodiscard]] std::pair<Bytes, Bytes> replayable_bytes(
    const std::vector<trace::TraceEvent>& events) {
  std::map<int, bool> lib_driven;
  for (const trace::TraceEvent& ev : events) {
    bool& lib = lib_driven[ev.rank];
    lib = lib || ev.cls == trace::EventClass::kLibraryCall;
  }
  Bytes written = 0;
  Bytes read = 0;
  for (const trace::TraceEvent& ev : events) {
    const bool lib = lib_driven[ev.rank];
    if (ev.bytes <= 0 ||
        ev.cls != (lib ? trace::EventClass::kLibraryCall
                       : trace::EventClass::kSyscall)) {
      continue;
    }
    if (ev.name == "MPI_File_write_at" || ev.name == "write" ||
        ev.name == "SYS_write") {
      written += ev.bytes;
    } else if (ev.name == "MPI_File_read_at" || ev.name == "read" ||
               ev.name == "SYS_read") {
      read += ev.bytes;
    }
  }
  return {written, read};
}

[[nodiscard]] long long program_ops(const std::vector<mpi::Program>& progs) {
  long long n = 0;
  for (const mpi::Program& p : progs) {
    n += static_cast<long long>(p.size());
  }
  return n;
}

/// Bytes mpi_io_test moves, from its parameters alone.
[[nodiscard]] Bytes mpi_io_test_bytes(const workload::MpiIoTestParams& p) {
  const long long blocks =
      std::max<long long>(1, p.total_bytes / p.nranks / p.nobj / p.block);
  return static_cast<Bytes>(p.nranks) * p.nobj * blocks * p.block;
}

/// Bytes io_intensive moves through write()/read() (mmap I/O excluded).
[[nodiscard]] Bytes io_intensive_bytes(const workload::IoIntensiveParams& p) {
  const int read_every =
      p.read_fraction > 0
          ? std::max(1, static_cast<int>(1.0 / p.read_fraction))
          : 0;
  long long reread = 0;
  for (int f = 0; f < p.files_per_rank; ++f) {
    if (read_every > 0 && f % read_every == 0) {
      ++reread;
    }
  }
  return static_cast<Bytes>(p.nranks) *
         (p.files_per_rank + reread) * p.writes_per_file * p.write_block;
}

void replay_check(const replay::ReplayResult& rr,
                  const std::vector<trace::TraceEvent>& replayed,
                  const std::string& where) {
  const auto [written, read] = replayable_bytes(replayed);
  require(written > 0 && rr.run.bytes_written == written &&
              rr.run.bytes_read == read,
          where + ": replay moved " + std::to_string(rr.run.bytes_written) +
              "/" + std::to_string(rr.run.bytes_read) +
              " B, trace transfers " + std::to_string(written) + "/" +
              std::to_string(read) + " B");
}

void store_health_check(const analysis::StoreHealth& h, std::size_t eras,
                        const std::string& where) {
  require(h.healthy() && h.recovered_eras == eras,
          where + ": attach recovered " + std::to_string(h.recovered_eras) +
              " of " + std::to_string(eras) + " eras, quarantined " +
              std::to_string(h.quarantined.size()));
}

void stored_bytes_check(const stdfs::path& dir, std::uintmax_t measured) {
  std::uintmax_t sum = 0;
  for (const stdfs::directory_entry& e : stdfs::directory_iterator(dir)) {
    if (e.is_regular_file()) {
      sum += stdfs::file_size(e.path());
    }
  }
  require(sum == measured, "stored bytes differ from the sum of file sizes");
}

// ------------------------------------------------------------ workloads

/// Per-layer shape of the store after capture (traced rounds).
void note_pools(const UnifiedTraceStore& store, RoundSample& out) {
  out.layer["store.pools_after_capture"] =
      static_cast<double>(store.pool_count());
  double pool_bytes = 0;
  for (const analysis::StorePoolInfo& info : store.pool_infos()) {
    pool_bytes += static_cast<double>(info.approx_bytes);
  }
  out.layer["store.pool_bytes"] = pool_bytes;
}

/// Per-layer counts of the round's capture and directory (traced rounds).
void note_directory(const DirStat& ds, double events, RoundSample& out) {
  out.layer["interpose.events_captured"] = events;
  out.layer["store.stored_bytes"] = static_cast<double>(ds.total_bytes);
  out.layer["store.attach.files"] = static_cast<double>(ds.containers);
  out.layer["store.attach.bytes"] = static_cast<double>(ds.container_bytes);
}

/// A workload: set-up (jobs + committed history) and a fixed list of
/// operations per round.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Build inputs into `dir` (fresh, empty). Called kSetupRepeats times.
  virtual void setup(const stdfs::path& dir) = 0;
  [[nodiscard]] virtual int ops_per_round() const = 0;
  /// Run one round; `done` counts operations that completed and passed
  /// their checks. Throws on the first failure.
  virtual void round(Round& r, int index, int& done) = 0;
  /// Put the store directory back to its committed history after a round
  /// that threw.
  virtual void recover() = 0;
};

/// The shared loop of the two workloads that capture whole jobs with a
/// tracing framework, commit them cold and restart from the directory; the
/// subclasses supply the job, the capture and the dashboard's windows.
class ColdWorkload : public Workload {
 public:
  static constexpr int kWarmPasses = 3;

  void setup(const stdfs::path& dir) override;
  [[nodiscard]] int ops_per_round() const override { return 5; }
  void round(Round& r, int index, int& done) override;
  void recover() override { restore_history(history_); }

 protected:
  /// One captured job: its framework bundles in ingest order, their events
  /// in store order (corrected), and the job itself for the layer probe.
  struct Capture {
    int tag = 0;
    mpi::Job job;
    std::vector<trace::TraceBundle> bundles;
    std::vector<trace::TraceEvent> events;
    /// Events of the last bundle (the replayable strace capture); windows
    /// over "the latest job" are cut on its transfers.
    std::vector<trace::TraceEvent> last_bundle_events;
  };

  /// History jobs commit with `history_era_bytes`, each round's job with
  /// `round_era_bytes` (compact()'s era bound).
  ColdWorkload(std::uint64_t seed, int ranks, int history_jobs,
               std::size_t history_era_bytes, std::size_t round_era_bytes,
               const trace::BinaryOptions& binary)
      : seed_(seed),
        ranks_(ranks),
        history_jobs_(history_jobs),
        history_era_bytes_(history_era_bytes),
        round_era_bytes_(round_era_bytes),
        binary_(binary) {
    for (int slot = 0; slot <= history_jobs; ++slot) {
      clusters_.push_back(slot_cluster(seed, slot, ranks));
    }
  }

  /// Trace job `tag` and ingest it; `*seconds` gets the capture wall time.
  [[nodiscard]] virtual Capture capture(UnifiedTraceStore& store,
                                        const sim::Cluster& cluster, int tag,
                                        SpanLog& log, double* seconds) = 0;
  virtual void check_capture(const Capture& c) const = 0;
  [[nodiscard]] virtual DashParams dash(const RefStore& all,
                                        const RefStore& latest) const = 0;
  [[nodiscard]] virtual fs::VfsPtr make_vfs() const = 0;

  [[nodiscard]] int timeline_rank() const {
    return static_cast<int>(seed_ % static_cast<std::uint64_t>(ranks_));
  }

  /// Ingest one bundle as a source, inside a `store.ingest` span.
  static void ingest(UnifiedTraceStore& store, const trace::TraceBundle& b,
                     SpanLog& log) {
    const ScopedSpan s(log, "store.ingest");
    store.ingest(b);
  }

  std::uint64_t seed_;

 private:
  [[nodiscard]] UnifiedTraceStore::ColdTierOptions cold() const {
    UnifiedTraceStore::ColdTierOptions o;
    o.directory = history_.dir.string();
    o.binary = binary_;
    return o;
  }
  /// Fill the store-order event lists from the bundles.
  static void order_events(Capture& c) {
    for (const trace::TraceBundle& b : c.bundles) {
      c.last_bundle_events = store_order(b);
      c.events.insert(c.events.end(), c.last_bundle_events.begin(),
                      c.last_bundle_events.end());
    }
  }

  int ranks_;
  int history_jobs_;
  std::size_t history_era_bytes_;
  std::size_t round_era_bytes_;
  trace::BinaryOptions binary_;
  std::vector<sim::Cluster> clusters_;
  History history_;
};

void ColdWorkload::setup(const stdfs::path& dir) {
  history_ = History{};
  history_.dir = dir;
  history_.ref = RefStore(timeline_rank());
  SpanLog off;
  for (int slot = 0; slot < history_jobs_; ++slot) {
    UnifiedTraceStore store;
    Capture c = capture(store, clusters_[static_cast<std::size_t>(slot)],
                        -1 - slot, off, nullptr);
    order_events(c);
    check_capture(c);
    store.compact(history_era_bytes_, cold());
    for (const trace::TraceEvent& ev : c.events) {
      history_.ref.add(ev);
    }
    history_.events += static_cast<long long>(c.events.size());
  }
  snapshot_history(history_);
}

void ColdWorkload::round(Round& r, int index, int& done) {
  SpanLog& log = r.log();
  RoundSample& out = r.sample;
  const sim::Cluster& cluster =
      clusters_[static_cast<std::size_t>(history_jobs_)];
  UnifiedTraceStore store;
  store.set_query_threads(kQueryThreads);
  Capture c;
  {
    const Stage st(r, "capture");
    double s = 0;
    c = capture(store, cluster, index, log, &s);
    out.capture_s = s;
  }
  RefStore round_ref(timeline_rank());
  RefStore full_ref;
  RefStore latest(timeline_rank());
  DashParams round_dp;
  {
    const Stage st(r, "check");
    order_events(c);
    out.capture_events = static_cast<double>(c.events.size());
    full_ref = history_.ref;
    for (const trace::TraceEvent& ev : c.events) {
      round_ref.add(ev);
      full_ref.add(ev);
    }
    for (const trace::TraceEvent& ev : c.last_bundle_events) {
      latest.add(ev);
    }
    check_capture(c);
    round_dp = dash(round_ref, latest);
    check_dashboard(dashboard_pass(store, round_dp, log, nullptr), round_ref,
                    round_dp, "after ingest");
    if (r.traced()) {
      note_pools(store, out);
    }
  }
  ++done;
  {
    const Stage st(r, "commit");
    const Stopwatch sw;
    {
      const ScopedSpan s(log, "store.compact");
      store.compact(round_era_bytes_, cold());
    }
    out.commit_s = sw.s();
    out.commit_events = static_cast<double>(c.events.size());
  }
  DirStat ds;
  DashParams dp;
  {
    const Stage st(r, "check");
    ds = dir_stat(history_.dir);
    out.stored_bytes = static_cast<double>(ds.total_bytes);
    out.stored_events = static_cast<double>(history_.events) +
                        static_cast<double>(c.events.size());
    stored_bytes_check(history_.dir, ds.total_bytes);
    check_dashboard(dashboard_pass(store, round_dp, log, nullptr), round_ref,
                    round_dp, "after commit");
    dp = dash(full_ref, latest);
  }
  ++done;
  UnifiedTraceStore restarted;
  restarted.set_query_threads(kQueryThreads);
  analysis::StoreHealth health;
  DashResult first;
  {
    const Stage st(r, "restart");
    const Stopwatch sw;
    {
      const ScopedSpan s(log, "store.attach");
      health = restarted.attach_dir(history_.dir.string());
    }
    {
      const ScopedSpan s(log, "store.first_pass");
      first = dashboard_pass(restarted, dp, log, nullptr);
    }
    out.restart_ms = sw.ms();
  }
  {
    const Stage st(r, "check");
    store_health_check(health, ds.containers, "restart");
    check_dashboard(first, full_ref, dp, "after restart");
  }
  ++done;
  for (int i = 0; i < kWarmPasses; ++i) {
    DashResult warm;
    {
      const Stage st(r, "dashboard");
      const Stopwatch sw;
      const ScopedSpan s(log, "dashboard.pass");
      warm = dashboard_pass(restarted, dp, log, nullptr);
      out.dashboard_ms.push_back(sw.ms());
    }
    if (i == 0) {
      const Stage st(r, "check");
      check_dashboard(warm, full_ref, dp, "first warm pass");
    }
  }
  ++done;
  replay::ReplayResult rr;
  {
    // The last bundle is the strace capture: Tracefs traces carry VFS
    // operations only and are not replayable.
    const Stage st(r, "replay");
    replay::ReplayOptions ro;
    ro.capture_trace = false;
    const Stopwatch sw;
    std::vector<mpi::Program> programs;
    {
      const ScopedSpan s(log, "replay.generate");
      programs = replay::generate_pseudo_app(c.bundles.back(), ro.pseudo);
    }
    {
      const ScopedSpan s(log, "replay.run");
      replay::Replayer replayer(cluster, make_vfs());
      rr = replayer.replay(c.bundles.back(), ro);
    }
    out.replay_s = sw.s();
    out.replay_events = static_cast<double>(rr.run.events_emitted);
    if (r.traced()) {
      out.layer["replay.ops"] = static_cast<double>(program_ops(programs));
    }
  }
  {
    const Stage st(r, "check");
    replay_check(rr, c.last_bundle_events, "replay");
  }
  ++done;
  if (r.traced()) {
    const Stage st(r, "probe");
    {
      const ScopedSpan s(log, "mpi.untraced_run");
      (void)frameworks::run_untraced(cluster, c.job, make_vfs());
    }
    const trace::EventBatch batch = trace::EventBatch::from_events(c.events);
    {
      const ScopedSpan s(log, "trace.binary_format.encode");
      (void)trace::encode_binary_v3(batch, binary_);
    }
    note_directory(ds, static_cast<double>(c.events.size()), out);
  }
  {
    // Teardown is timed too: the round's stage spans tile its wall time.
    const Stage st(r, "cleanup");
    restarted = UnifiedTraceStore();
    store = UnifiedTraceStore();
    c = Capture{};
    first = DashResult{};
    round_ref = RefStore{};
    full_ref = RefStore{};
    latest = RefStore{};
    restore_history(history_);
  }
}

/// Bulk capture of the N-to-1 strided mpi_io_test under LANL-Trace's strace
/// mode: many ranks and small blocks, few distinct strings, large
/// compressed eras.
class BulkCold : public ColdWorkload {
 public:
  static constexpr int kRanks = 32;
  static constexpr Bytes kBlock = 4 * kKiB;
  static constexpr long long kBlocksPerRank = 1024;

  explicit BulkCold(std::uint64_t seed)
      : ColdWorkload(seed, kRanks, /*history_jobs=*/6,
                     /*history_era_bytes=*/256u << 20,
                     /*round_era_bytes=*/256u << 20, binary()) {}

 private:
  [[nodiscard]] static trace::BinaryOptions binary() {
    trace::BinaryOptions b;
    b.compress = true;
    b.checksum = true;
    return b;
  }

  [[nodiscard]] workload::MpiIoTestParams params(int tag) const {
    workload::MpiIoTestParams p;
    p.pattern = workload::Pattern::kNto1Strided;
    p.nranks = kRanks;
    p.block = kBlock;
    p.total_bytes = kBlock * kBlocksPerRank * kRanks;
    p.path = "/pfs/s" + std::to_string(seed_) + "_" + std::to_string(tag) +
             ".out";
    p.think_time = from_micros(static_cast<double>(1 + seed_ % 7));
    return p;
  }

  Capture capture(UnifiedTraceStore& store, const sim::Cluster& cluster,
                  int tag, SpanLog& log, double* seconds) override {
    Capture c;
    c.tag = tag;
    c.job = workload::make_mpi_io_test(params(tag));
    frameworks::LanlTraceParams lp;
    lp.mode = interpose::PtraceTracer::Mode::kStrace;
    frameworks::LanlTrace lanl(lp);
    const Stopwatch sw;
    {
      const ScopedSpan s(log, "frameworks.trace");
      c.bundles.push_back(lanl.trace(cluster, c.job, make_vfs(), {}).bundle);
    }
    ingest(store, c.bundles.back(), log);
    if (seconds != nullptr) {
      *seconds = sw.s();
    }
    return c;
  }

  void check_capture(const Capture& c) const override {
    require(transfer_syscall_bytes(c.events) ==
                mpi_io_test_bytes(params(c.tag)),
            "capture: transfer syscall bytes differ from the job's");
  }

  /// Full span, except that the last transfer sits on the (excluded) end.
  [[nodiscard]] DashParams dash(const RefStore& all,
                                const RefStore& /*latest*/) const override {
    DashParams p;
    p.begin = all.min_time();
    p.end = all.transfer_stamp(1.0);
    p.bucket = std::max<SimTime>(1, (all.max_time() - all.min_time()) / 4096);
    p.rank = timeline_rank();
    return p;
  }

  [[nodiscard]] fs::VfsPtr make_vfs() const override {
    return std::make_shared<pfs::Pfs>();
  }
};

/// Tracefs on the metadata-heavy io_intensive job, plus LANL-Trace's strace
/// view of the same job: thousands of distinct paths, one source per rank
/// and framework, and one small era per source.
class MetadataManyEras : public ColdWorkload {
 public:
  static constexpr int kRanks = 16;

  /// The history's era bound (1 byte) is below any source's footprint, so
  /// compact() merges nothing and every source spills as an era of its own:
  /// 256 files. Each round merges its sources into ~1 MiB eras (8 per
  /// job), so the round's commit is not all fsync latency, whose swings on
  /// a shared device would otherwise swamp the encode and commit work.
  explicit MetadataManyEras(std::uint64_t seed)
      : ColdWorkload(seed, kRanks, /*history_jobs=*/8,
                     /*history_era_bytes=*/1, /*round_era_bytes=*/1u << 20,
                     binary()) {}

 private:
  [[nodiscard]] static trace::BinaryOptions binary() {
    trace::BinaryOptions b;
    b.checksum = true;
    return b;
  }

  [[nodiscard]] workload::IoIntensiveParams params(int tag) const {
    workload::IoIntensiveParams p;
    p.nranks = kRanks;
    p.files_per_rank = 160;
    p.write_block = 4 * kKiB;
    p.writes_per_file = 4;
    p.read_fraction = 0.5;
    p.mmap_files_per_rank = 4;
    p.root = "/scratch/s" + std::to_string(seed_) + "_" + std::to_string(tag);
    p.think_time = from_micros(static_cast<double>(20 + seed_ % 13));
    return p;
  }

  /// Each rank's stream is a source of its own (each node's trace file),
  /// carrying the job's clock probes so the store corrects it.
  Capture capture(UnifiedTraceStore& store, const sim::Cluster& cluster,
                  int tag, SpanLog& log, double* seconds) override {
    Capture c;
    c.tag = tag;
    c.job = workload::make_io_intensive(params(tag));
    frameworks::Tracefs tracefs;
    frameworks::LanlTraceParams lp;
    lp.mode = interpose::PtraceTracer::Mode::kStrace;
    frameworks::LanlTrace lanl(lp);
    const Stopwatch sw;
    {
      const ScopedSpan s(log, "frameworks.trace");
      c.bundles.push_back(tracefs.trace(cluster, c.job, make_vfs(), {}).bundle);
    }
    {
      const ScopedSpan s(log, "frameworks.trace");
      c.bundles.push_back(lanl.trace(cluster, c.job, make_vfs(), {}).bundle);
    }
    for (const trace::TraceBundle& b : c.bundles) {
      for (const trace::RankStream& rs : b.ranks) {
        trace::TraceBundle one;
        one.metadata = b.metadata;
        one.clock_probes = b.clock_probes;
        one.ranks.push_back(rs);
        ingest(store, one, log);
      }
    }
    if (seconds != nullptr) {
      *seconds = sw.s();
    }
    return c;
  }

  void check_capture(const Capture& c) const override {
    const workload::IoIntensiveParams p = params(c.tag);
    require(transfer_syscall_bytes(c.last_bundle_events) ==
                io_intensive_bytes(p),
            "capture: strace transfer bytes differ from the job's");
    // The VFS-level tracer sees the same transfers, and mmap I/O as well.
    Bytes vfs = 0;
    Bytes mapped = 0;
    for (const trace::RankStream& rs : c.bundles.front().ranks) {
      for (const trace::TraceEvent& ev : rs.events) {
        if (ev.name == "vfs_write" || ev.name == "vfs_read") {
          vfs += ev.bytes;
        } else if (ev.name == "vfs_mmap_write") {
          mapped += ev.bytes;
        }
      }
    }
    require(vfs == io_intensive_bytes(p) &&
                mapped == static_cast<Bytes>(p.nranks) *
                              p.mmap_files_per_rank * p.writes_per_file *
                              p.write_block,
            "capture: Tracefs transfer bytes differ from the job's");
  }

  /// Narrow: the middle tenth of the latest job's transfers, with a
  /// transfer on each edge.
  [[nodiscard]] DashParams dash(const RefStore& /*all*/,
                                const RefStore& latest) const override {
    DashParams p;
    p.begin = latest.transfer_stamp(0.45);
    p.end = latest.transfer_stamp(0.55);
    p.bucket = kSlotGap / 64;
    p.rank = timeline_rank();
    return p;
  }

  [[nodiscard]] fs::VfsPtr make_vfs() const override {
    return std::make_shared<fs::MemFs>();
  }
};

/// Feeds every batch the capture delivers into the live store (on the async
/// sink's worker) and keeps a copy as the reference's input.
class StoreSink : public trace::EventSink {
 public:
  StoreSink(UnifiedTraceStore& store, SpanLog& log)
      : store_(store), log_(log) {
    meta_["framework"] = "ltrace-daemon";
    meta_["application"] = "mpi_io_test";
  }
  void on_event(const trace::TraceEvent& ev) override {
    trace::EventBatch one;
    one.append(ev);
    on_batch(one);
  }
  void on_batch(const trace::EventBatch& batch) override {
    {
      const ScopedSpan s(log_, "store.ingest");
      store_.ingest(batch, meta_);
    }
    delivered_.push_back(batch);
  }
  /// Batches delivered since the last take, in delivery order.
  [[nodiscard]] std::vector<trace::EventBatch> take() {
    return std::exchange(delivered_, {});
  }

 private:
  UnifiedTraceStore& store_;
  SpanLog& log_;
  std::map<std::string, std::string> meta_;
  std::vector<trace::EventBatch> delivered_;
};

/// Times the drain barrier the runtime calls at the end of a run.
class DrainTimer : public mpi::IoObserver {
 public:
  DrainTimer(std::shared_ptr<interpose::PtraceTracer> tracer, SpanLog& log)
      : tracer_(std::move(tracer)), log_(log) {}
  void on_run_begin(const mpi::RunContext& ctx) override {
    tracer_->on_run_begin(ctx);
  }
  [[nodiscard]] SimTime on_event(const trace::TraceEvent& ev) override {
    return tracer_->on_event(ev);
  }
  void flush() override {
    const ScopedSpan s(log_, "trace.async_sink.drain");
    tracer_->flush();
  }
  void on_run_end() override { tracer_->on_run_end(); }

 private:
  std::shared_ptr<interpose::PtraceTracer> tracer_;
  SpanLog& log_;
};

/// An always-on capture daemon: ltrace capture through RankBatcher and the
/// async sink into a streaming store with a live DFG, a dashboard over the
/// live store after every job, and periodic encrypted, projected commits.
class LiveInterleaved : public Workload {
 public:
  static constexpr int kRanks = 16;
  static constexpr int kHistoryJobs = 8;
  static constexpr int kJobsPerRound = 4;
  static constexpr int kCommitEvery = 2;
  static constexpr int kWarmPasses = 2;

  explicit LiveInterleaved(std::uint64_t seed)
      : seed_(seed), key_(derive_key("perfbench-live")) {
    binary_.compress = true;
    binary_.checksum = true;
    binary_.encrypt = true;
    binary_.project = true;
    binary_.key = key_;
    for (int slot = 0; slot < kHistoryJobs + kJobsPerRound; ++slot) {
      clusters_.push_back(slot_cluster(seed, slot, kRanks));
    }
  }

  [[nodiscard]] workload::MpiIoTestParams params(int tag) const {
    workload::MpiIoTestParams p;
    p.pattern = workload::Pattern::kNtoN;
    p.nranks = kRanks;
    p.block = 16 * kKiB;
    p.nobj = 4;
    p.total_bytes = p.block * 192 * p.nobj * kRanks;
    p.path = "/pfs/live_s" + std::to_string(seed_) + "_" + std::to_string(tag);
    p.think_time = from_micros(static_cast<double>(3 + seed_ % 11));
    return p;
  }

  /// A capture session of the daemon: it reopens its store directory, then
  /// streams new jobs in beside the attached history, with a live graph
  /// maintained over both.
  struct Session {
    Session(SpanLog& log, const stdfs::path& dir, const CipherKey& key)
        : sink(std::make_shared<StoreSink>(store, log)) {
      store.set_query_threads(kQueryThreads);
      analysis::AttachOptions ao;
      ao.key = key;
      health = store.attach_dir(dir.string(), ao);
      analysis::StreamIngestOptions so;
      so.flush_events = 4096;
      so.era_bytes = 4u << 20;
      store.set_stream_ingest(so);
      live = dfg::set_live_dfg(store);
    }
    UnifiedTraceStore store;
    std::shared_ptr<StoreSink> sink;
    std::unique_ptr<dfg::LiveDfg> live;
    analysis::StoreHealth health;
  };

  struct Job {
    std::vector<trace::TraceEvent> events;  // delivery order
    workload::MpiIoTestParams params;
    trace::EventBatch batch;  // the job's trace, for replay
  };

  /// Run one job under the tracer; returns its events in delivery order.
  Job capture(Session& s, int slot, int tag, SpanLog& log, double* seconds) {
    Job j;
    j.params = params(tag);
    const mpi::Job job = workload::make_mpi_io_test(j.params);
    trace::AsyncFlushMode async;
    async.enabled = true;
    async.options.workers = kSinkWorkers;
    auto tracer = std::make_shared<interpose::PtraceTracer>(
        interpose::PtraceTracer::Mode::kLtrace, s.sink,
        interpose::InterposeCosts{}, 256, async);
    mpi::RunOptions ro;
    ro.vfs = std::make_shared<pfs::Pfs>();
    ro.cmdline = job.cmdline;
    ro.observers = {std::make_shared<DrainTimer>(tracer, log)};
    const Stopwatch sw;
    {
      const ScopedSpan span(log, "interpose.runtime_run");
      mpi::Runtime runtime(clusters_[static_cast<std::size_t>(slot)], ro);
      (void)runtime.run(job.programs);
    }
    if (seconds != nullptr) {
      *seconds = sw.s();
    }
    for (const trace::EventBatch& b : s.sink->take()) {
      for (std::size_t i = 0; i < b.size(); ++i) {
        j.events.push_back(b.materialize(i));
      }
      j.batch.append(b);
    }
    return j;
  }

  void check_capture(const Job& j) const {
    require(transfer_syscall_bytes(j.events) == mpi_io_test_bytes(j.params),
            "capture: transfer syscall bytes differ from the job's");
  }

  [[nodiscard]] UnifiedTraceStore::ColdTierOptions cold(
      const stdfs::path& dir) const {
    UnifiedTraceStore::ColdTierOptions o;
    o.directory = dir.string();
    o.binary = binary_;
    return o;
  }

  void setup(const stdfs::path& dir) override {
    history_ = History{};
    history_.dir = dir;
    history_.ref = RefStore(timeline_rank());
    SpanLog off;
    for (int slot = 0; slot < kHistoryJobs; slot += kCommitEvery) {
      Session s(off, dir, key_);
      for (int k = slot; k < slot + kCommitEvery; ++k) {
        const Job j = capture(s, k, -1 - k, off, nullptr);
        check_capture(j);
        for (const trace::TraceEvent& ev : j.events) {
          history_.ref.add(ev);
        }
        history_.events += static_cast<long long>(j.events.size());
      }
      s.store.compact(kEraBytes, cold(dir));
    }
    snapshot_history(history_);
  }

  [[nodiscard]] int ops_per_round() const override {
    // capture + live dashboard + replay per job, the commits, restart.
    return 3 * kJobsPerRound + kJobsPerRound / kCommitEvery + 1;
  }

  [[nodiscard]] int timeline_rank() const {
    return static_cast<int>(seed_ % kRanks);
  }

  /// The middle fifth of the latest job's transfers, with a transfer on
  /// each edge.
  [[nodiscard]] DashParams dash(const RefStore& latest_job) const {
    DashParams p;
    p.begin = latest_job.transfer_stamp(0.4);
    p.end = latest_job.transfer_stamp(0.6);
    p.bucket = kSlotGap / 256;
    p.rank = timeline_rank();
    return p;
  }

  void round(Round& r, int index, int& done) override;
  void recover() override { restore_history(history_); }

 private:
  static constexpr std::size_t kEraBytes = 8u << 20;
  std::uint64_t seed_;
  CipherKey key_;
  trace::BinaryOptions binary_;
  std::vector<sim::Cluster> clusters_;
  History history_;
};

void LiveInterleaved::round(Round& r, int index, int& done) {
  SpanLog& log = r.log();
  RoundSample& out = r.sample;
  std::unique_ptr<Session> session;
  RefStore session_ref;
  {
    const Stage st(r, "capture");
    session = std::make_unique<Session>(log, history_.dir, key_);
  }
  {
    const Stage st(r, "check");
    store_health_check(session->health, history_.eras, "session start");
    session_ref = history_.ref;
  }
  Job last;
  trace::EventBatch round_batch;  // every job's trace, for the encode probe
  for (int k = 0; k < kJobsPerRound; ++k) {
    const int slot = kHistoryJobs + k;
    Job j;
    {
      const Stage st(r, "capture");
      double s = 0;
      j = capture(*session, slot, index * kJobsPerRound + k, log, &s);
      out.capture_events += static_cast<double>(j.events.size());
      out.capture_s += s;
    }
    DashParams dp;
    {
      const Stage st(r, "check");
      RefStore latest(timeline_rank());
      for (const trace::TraceEvent& ev : j.events) {
        session_ref.add(ev);
        latest.add(ev);
      }
      check_capture(j);
      if (r.traced()) {
        note_pools(session->store, out);
      }
      dp = dash(latest);
    }
    ++done;
    for (int i = 0; i <= kWarmPasses; ++i) {
      DashResult res;
      {
        const Stage st(r, "dashboard");
        const Stopwatch sw;
        const ScopedSpan s(log, "dashboard.pass");
        res = dashboard_pass(session->store, dp, log, session->live.get());
        out.dashboard_ms.push_back(sw.ms());
      }
      if (i == 0) {
        // The first pass after each job is both the after-ingest check and
        // the first warm pass; its DFG panel is the live snapshot.
        const Stage st(r, "check");
        check_dashboard(res, session_ref, dp, "live pass");
      }
    }
    ++done;
    if ((k + 1) % kCommitEvery == 0) {
      {
        const Stage st(r, "commit");
        const Stopwatch sw;
        {
          const ScopedSpan s(log, "store.compact");
          session->store.compact(kEraBytes, cold(history_.dir));
        }
        out.commit_s += sw.s();
      }
      {
        const Stage st(r, "check");
        check_dashboard(dashboard_pass(session->store, dp, log,
                                       session->live.get()),
                        session_ref, dp, "after commit");
      }
      ++done;
    }
    // Every job is replayed, so a round's replay sample is ~200 ms of work
    // rather than one job's ~50 ms.
    replay::ReplayResult rr;
    {
      const Stage st(r, "replay");
      replay::ReplayOptions ro;
      ro.capture_trace = false;
      const Stopwatch sw;
      std::vector<mpi::Program> programs;
      {
        const ScopedSpan s(log, "replay.generate");
        programs = replay::generate_pseudo_app(j.batch, {}, ro.pseudo);
      }
      {
        const ScopedSpan s(log, "replay.run");
        replay::Replayer replayer(clusters_[kHistoryJobs],
                                  std::make_shared<pfs::Pfs>());
        rr = replayer.replay(j.batch, {}, ro);
      }
      out.replay_s += sw.s();
      out.replay_events += static_cast<double>(rr.run.events_emitted);
      if (r.traced()) {
        out.layer["replay.ops"] += static_cast<double>(program_ops(programs));
      }
    }
    {
      const Stage st(r, "check");
      replay_check(rr, j.events, "replay");
    }
    ++done;
    {
      const Stage st(r, "check");
      if (r.traced()) {
        round_batch.append(j.batch);
      }
      last = std::move(j);
    }
  }
  out.commit_events = out.capture_events;
  DirStat ds;
  DashParams dp;
  {
    const Stage st(r, "cleanup");
    session.reset();
    ds = dir_stat(history_.dir);
    out.stored_bytes = static_cast<double>(ds.total_bytes);
    out.stored_events =
        static_cast<double>(history_.events) + out.capture_events;
    RefStore latest(timeline_rank());
    for (const trace::TraceEvent& ev : last.events) {
      latest.add(ev);
    }
    dp = dash(latest);
  }
  UnifiedTraceStore restarted;
  restarted.set_query_threads(kQueryThreads);
  analysis::StoreHealth health;
  DashResult first;
  {
    const Stage st(r, "restart");
    const Stopwatch sw;
    analysis::AttachOptions ao;
    ao.key = key_;
    {
      const ScopedSpan s(log, "store.attach");
      health = restarted.attach_dir(history_.dir.string(), ao);
    }
    {
      const ScopedSpan s(log, "store.first_pass");
      first = dashboard_pass(restarted, dp, log, nullptr);
    }
    out.restart_ms = sw.ms();
  }
  {
    const Stage st(r, "check");
    stored_bytes_check(history_.dir, ds.total_bytes);
    store_health_check(health, ds.containers, "restart");
    check_dashboard(first, session_ref, dp, "after restart");
  }
  ++done;
  if (r.traced()) {
    const Stage st(r, "probe");
    {
      const ScopedSpan s(log, "mpi.untraced_run");
      (void)frameworks::run_untraced(clusters_[kHistoryJobs],
                                     workload::make_mpi_io_test(last.params),
                                     std::make_shared<pfs::Pfs>());
    }
    {
      const ScopedSpan s(log, "trace.binary_format.encode");
      (void)trace::encode_binary_v3(round_batch, binary_);
    }
    note_directory(ds, out.capture_events, out);
  }
  {
    // Teardown is timed too: the round's stage spans tile its wall time.
    const Stage st(r, "cleanup");
    restarted = UnifiedTraceStore();
    last = Job{};
    round_batch = trace::EventBatch{};
    first = DashResult{};
    session_ref = RefStore{};
    restore_history(history_);
  }
}

// ------------------------------------------------------------ results

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Every round's samples, one JSON line before the result (for steadiness
/// studies: how a run's rounds spread against how runs spread).
void print_round_samples(const std::vector<RoundSample>& rounds) {
  std::string out = "{\"round_samples\": {";
  auto list = [&](const char* name, auto values) {
    out += out.back() == '{' ? "\"" : ", \"";
    out += name;
    out += "\": [";
    for (const RoundSample& s : rounds) {
      for (const double v : values(s)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%.6g",
                      out.back() == '[' ? "" : ", ", v);
        out += buf;
      }
    }
    out += "]";
  };
  using One = std::vector<double>;
  list("capture_s", [](const RoundSample& s) { return One{s.capture_s}; });
  list("commit_s", [](const RoundSample& s) { return One{s.commit_s}; });
  list("restart_ms", [](const RoundSample& s) { return One{s.restart_ms}; });
  list("dashboard_ms", [](const RoundSample& s) { return s.dashboard_ms; });
  list("replay_s", [](const RoundSample& s) { return One{s.replay_s}; });
  out += "}}";
  std::printf("%s\n", out.c_str());
}

[[nodiscard]] std::vector<Metric> end_to_end(
    const std::vector<RoundSample>& rounds, double setup_s) {
  std::vector<double> capture;
  std::vector<double> commit;
  std::vector<double> stored;
  std::vector<double> restart;
  std::vector<double> dashboard;
  std::vector<double> replay;
  for (const RoundSample& s : rounds) {
    capture.push_back(s.capture_events / s.capture_s);
    commit.push_back(s.commit_events / s.commit_s);
    stored.push_back(s.stored_bytes / s.stored_events);
    restart.push_back(s.restart_ms);
    dashboard.insert(dashboard.end(), s.dashboard_ms.begin(),
                     s.dashboard_ms.end());
    replay.push_back(s.replay_events / s.replay_s);
  }
  return {
      {"setup_s", "s", setup_s},
      {"capture_events_per_s", "events/s", median(capture)},
      {"commit_events_per_s", "events/s", median(commit)},
      {"stored_bytes_per_event", "B/event", median(stored)},
      {"restart_to_answer_ms", "ms", median(restart)},
      {"dashboard_ms", "ms", median(dashboard)},
      {"replay_events_per_s", "events/s", median(replay)},
      {"peak_rss_mb", "MiB", peak_rss_mb()},
  };
}

/// The per-layer metrics, in output order (README.md tabulates which
/// end-to-end metric each should move, on which workload).
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"mpi.untraced_run_ms", "ms"},
    {"frameworks.trace_ms", "ms"},
    {"interpose.runtime_run_ms", "ms"},
    {"interpose.events_captured", "count"},
    {"trace.async_sink.drain_ms", "ms"},
    {"trace.async_sink.backpressure_stalls", "count"},
    {"store.ingest_ms", "ms"},
    {"store.ingest.flushes", "count"},
    {"store.ingest.era_seals", "count"},
    {"store.pools_after_capture", "count"},
    {"store.compact_ms", "ms"},
    {"trace.binary_format.encode_ms", "ms"},
    {"durable.write.files", "count"},
    {"durable.write.bytes", "B"},
    {"durable.write.fsync_ms", "ms"},
    {"durable.write.rename_ms", "ms"},
    {"store.compact.manifest_commits", "count"},
    {"store.compact.unattributed_ms", "ms"},
    {"store.stored_bytes", "B"},
    {"store.attach_ms", "ms"},
    {"store.attach.files", "count"},
    {"store.attach.bytes", "B"},
    {"store.attach.recovered_eras", "count"},
    {"store.first_pass_ms", "ms"},
    {"block.decode.stored_bytes", "B"},
    {"block.decode.full_blocks", "count"},
    {"block.decode.hot_blocks", "count"},
    {"block.decode.crc_ms", "ms"},
    {"block.decode.decompress_ms", "ms"},
    {"block.decode.decrypt_ms", "ms"},
    {"query.call_stats_ms", "ms"},
    {"query.rank_timeline_ms", "ms"},
    {"query.bytes_in_window_ms", "ms"},
    {"query.io_rate_series_ms", "ms"},
    {"query.hottest_files_ms", "ms"},
    {"dfg.build_ms", "ms"},
    {"dfg.live_snapshot_ms", "ms"},
    {"store.query.segments_scanned", "count"},
    {"store.query.segments_skipped", "count"},
    {"store.query.pools_skipped", "count"},
    {"store.query.skip_ratio", "ratio"},
    {"dashboard.p90_ms", "ms"},
    {"dashboard.pass_samples", "count"},
    {"replay.generate_ms", "ms"},
    {"replay.run_ms", "ms"},
    {"replay.ops", "count"},
    {"store.pool_bytes", "B"},
    {"trace.stage_coverage_min", "ratio"},
    {"trace.overhead_pct", "%"},
};

/// Per-layer metrics of a traced run. Per-round values are medians over the
/// traced rounds; query and DFG times are medians over their single spans.
[[nodiscard]] std::vector<Metric> per_layer(
    const SpanLog& log, const std::vector<RoundSample>& rounds,
    const std::vector<double>& coverage) {
  std::map<std::string, double> whole_run;
  const std::vector<Span>& spans = log.spans();
  std::map<std::string, std::vector<double>> each;
  for (const Span& s : spans) {
    const bool warm =
        s.parent >= 0 &&
        spans[static_cast<std::size_t>(s.parent)].name == "dashboard.pass";
    if ((s.name.rfind("query.", 0) == 0 && warm) || s.name == "dfg.build" ||
        s.name == "dfg.live_snapshot") {
      each[s.name + "_ms"].push_back(s.ms());
    }
  }
  for (const auto& [name, v] : each) {
    whole_run[name] = median(v);
  }
  std::vector<double> pipeline_traced;
  std::vector<double> pipeline_untraced;
  // Warm-pass tail over every round of the run (tracing costs the passes
  // nothing measurable): p90 when at least 100 passes ran, else the highest
  // percentile that still has ten passes beyond it.
  std::vector<double> passes;
  for (const RoundSample& s : rounds) {
    (s.traced ? pipeline_traced : pipeline_untraced).push_back(s.pipeline_ms);
    passes.insert(passes.end(), s.dashboard_ms.begin(), s.dashboard_ms.end());
  }
  const double tail_p =
      std::min(0.9, 1.0 - 10.0 / static_cast<double>(std::max<std::size_t>(
                                    passes.size(), 10)));
  whole_run["dashboard.p90_ms"] = percentile(passes, tail_p);
  whole_run["dashboard.pass_samples"] = static_cast<double>(passes.size());
  whole_run["trace.stage_coverage_min"] =
      coverage.empty() ? 0.0
                       : *std::min_element(coverage.begin(), coverage.end());
  whole_run["trace.overhead_pct"] =
      pipeline_untraced.empty()
          ? 0.0
          : (median(pipeline_traced) / median(pipeline_untraced) - 1.0) * 100.0;

  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = whole_run.find(name);
    if (it != whole_run.end()) {
      out.push_back({name, unit, it->second});
      continue;
    }
    std::vector<double> v;
    for (const RoundSample& s : rounds) {
      if (s.traced) {
        const auto value = s.layer.find(name);
        v.push_back(value == s.layer.end() ? 0.0 : value->second);
      }
    }
    out.push_back({name, unit, median(v)});
  }
  return out;
}

/// Fold a finished traced round's spans and self-metric deltas into its
/// per-layer values; returns the share of the round's wall time its stage
/// spans cover.
double fold_traced_round(Round& r, const std::vector<double>& self,
                         int round_id) {
  std::map<std::string, double>& out = r.sample.layer;
  const std::vector<Span>& spans = r.log().spans();
  std::vector<std::pair<std::int64_t, std::int64_t>> stages;
  const Span& root = spans[static_cast<std::size_t>(r.root())];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.round != round_id || s.name == "round") {
      continue;
    }
    if (s.parent == r.root()) {
      stages.emplace_back(s.start, s.end);
    } else if (s.name == "store.first_pass") {
      // The first pass's children are the queries: report its total.
      out[s.name + "_ms"] += s.ms();
    } else if (s.name.rfind("query.", 0) != 0 && s.name.rfind("dfg.", 0) != 0 &&
               s.name != "dashboard.pass") {
      out[s.name + "_ms"] += self[i];
    }
  }
  out["trace.async_sink.backpressure_stalls"] =
      counter(r, "capture", "sink.async.backpressure_stalls");
  out["store.ingest.flushes"] = counter(r, "capture", "ingest.flushes");
  out["store.ingest.era_seals"] = counter(r, "capture", "ingest.era_seals") +
                                  counter(r, "commit", "ingest.era_seals");
  out["durable.write.files"] = counter(r, "commit", "durable.write.files");
  out["durable.write.bytes"] = counter(r, "commit", "durable.write.bytes");
  out["durable.write.fsync_ms"] = hist_ms(r, "commit", "durable.write.fsync_ns");
  out["durable.write.rename_ms"] =
      hist_ms(r, "commit", "durable.write.rename_ns");
  out["store.compact.manifest_commits"] =
      counter(r, "commit", "store.compact.manifest_commits");
  out["store.compact.unattributed_ms"] =
      out["store.compact_ms"] - out["trace.binary_format.encode_ms"] -
      out["durable.write.fsync_ms"] - out["durable.write.rename_ms"];
  out["store.attach.recovered_eras"] =
      counter(r, "restart", "store.attach.recovered_eras");
  for (const char* name : {"stored_bytes", "full_blocks", "hot_blocks"}) {
    out[std::string("block.decode.") + name] =
        counter(r, "restart", std::string("block.decode.") + name);
  }
  for (const char* name : {"crc", "decompress", "decrypt"}) {
    out[std::string("block.decode.") + name + "_ms"] =
        hist_ms(r, "restart", std::string("block.decode.") + name + "_ns");
  }
  const double passes =
      std::max<double>(1.0, static_cast<double>(r.sample.dashboard_ms.size()));
  const double scanned =
      counter(r, "dashboard", "store.query.segments_scanned") / passes;
  const double skipped =
      counter(r, "dashboard", "store.query.segments_skipped") / passes;
  const double pools =
      counter(r, "dashboard", "store.query.pools_skipped") / passes;
  out["store.query.segments_scanned"] = scanned;
  out["store.query.segments_skipped"] = skipped;
  out["store.query.pools_skipped"] = pools;
  // Whole pools skipped by the pool index count as skipped scan units too:
  // single-block eras skip there, never at the segment level.
  out["store.query.skip_ratio"] =
      scanned + skipped + pools > 0
          ? (skipped + pools) / (scanned + skipped + pools)
          : 0.0;
  const double wall = static_cast<double>(root.end - root.start);
  return wall > 0 ? static_cast<double>(
                        SpanLog::covered(stages, root.start, root.end)) /
                        wall
                  : 0.0;
}

[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "bulk_cold") {
    return std::make_unique<BulkCold>(opt.seed);
  }
  if (opt.workload == "metadata_many_eras") {
    return std::make_unique<MetadataManyEras>(opt.seed);
  }
  if (opt.workload == "live_interleaved") {
    return std::make_unique<LiveInterleaved>(opt.seed);
  }
  return nullptr;
}

int run(const Options& opt) {
  std::unique_ptr<Workload> wl = make_workload(opt);
  if (!wl) {
    std::fprintf(stderr, "pipeline_bench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  const std::string load = load_average();
  const stdfs::path work(opt.workdir);
  stdfs::create_directories(work);

  // Set-up is repeated and its median reported; the last repetition's
  // history directory is the one the rounds commit onto.
  std::vector<double> setups;
  stdfs::path history;
  for (int k = 0; k < kSetupRepeats; ++k) {
    history = work / ("history-" + std::to_string(k));
    stdfs::remove_all(history);
    stdfs::create_directories(history);
    const Stopwatch sw;
    wl->setup(history);
    setups.push_back(sw.s());
    if (k + 1 < kSetupRepeats) {
      stdfs::remove_all(history);
    }
  }

  SpanLog log;
  std::vector<RoundSample> rounds;
  std::vector<double> coverage;
  long long attempted = 0;
  long long failed = 0;
  bool correct = true;
  const Stopwatch clock;
  // Round 0 warms caches and the allocator: it is run and checked like any
  // other round, but its samples are not kept.
  for (int index = 0; index <= 1 || clock.s() < opt.seconds; ++index) {
    const bool traced = opt.trace && index % 2 == 1;
    Round r(log, index, traced);
    r.sample.traced = traced;
    int done = 0;
    try {
      wl->round(r, index, done);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pipeline_bench: round %d failed after %d ops: %s\n",
                   index, done, e.what());
      wl->recover();
    }
    r.finish();
    attempted += wl->ops_per_round();
    if (done != wl->ops_per_round()) {
      failed += wl->ops_per_round() - done;
      continue;
    }
    for (const auto& [stage, ms] : r.stage_ms) {
      if (stage != "check" && stage != "probe") {
        r.sample.pipeline_ms += ms;
      }
    }
    if (traced) {
      const double cov = fold_traced_round(r, log.self_ms(), index);
      coverage.push_back(cov);
      if (cov < 0.95) {
        std::fprintf(stderr,
                     "pipeline_bench: round %d stage spans cover %.3f of its "
                     "wall time\n",
                     index, cov);
        correct = false;
      }
    }
    if (index > 0) {
      rounds.push_back(std::move(r.sample));
    }
  }
  stdfs::remove_all(work);
  if (failed > 0 || rounds.empty()) {
    correct = false;
  }

  std::printf(
      "{\"run_record\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": "
      "%g, \"trace\": %d, \"rounds\": %zu, \"nproc\": %u, \"cpu\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"loadavg_start\": "
      "\"%s\", \"setup_s\": [%g, %g, %g]}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, rounds.size(),
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      PERFBENCH_BUILD_TYPE, json_escape(__VERSION__).c_str(), load.c_str(),
      setups[0], setups[1], setups[2]);
  print_round_samples(rounds);
  if (opt.trace) {
    print_result(correct, attempted, failed, per_layer(log, rounds, coverage));
  } else {
    print_result(correct, attempted, failed,
                 end_to_end(rounds, median(setups)));
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Keep freed heap memory in the process, as a long-running daemon's
  // allocator ends up doing: blocks up to 32 MiB come from the heap and the
  // heap is never trimmed. Otherwise every round faults its working set in
  // afresh (~3.5x the page faults), and page faults on a shared VM host
  // cost what the neighbours leave.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--workdir") {
      opt.workdir = value;
    } else {
      std::fprintf(stderr, "pipeline_bench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  if (opt.workload.empty() || opt.workdir.empty()) {
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload W --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n");
    return 2;
  }
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
    return 1;
  }
}
