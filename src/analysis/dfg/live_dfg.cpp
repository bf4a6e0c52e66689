#include "analysis/dfg/live_dfg.h"

#include <algorithm>
#include <functional>
#include <string_view>

#include "util/metrics.h"

namespace iotaxo::analysis::dfg {

LiveDfg::LiveDfg(UnifiedTraceStore& store, const LiveDfgOptions& options)
    : store_(&store), options_(options) {
  // Catch up on everything already filed, pool by pool in store order —
  // the same order the cold builder's serial merge walks.
  const std::size_t npools = store.pool_count();
  for (std::size_t p = 0; p < npools; ++p) {
    std::size_t n = 0;
    store.with_pool_access(p, [&](const auto& acc) { n = acc.size(); });
    on_records(p, 0, n);
  }
  store.set_ingest_listener([this](std::size_t pool, std::size_t begin,
                                   std::size_t end) {
    on_records(pool, begin, end);
  });
}

LiveDfg::~LiveDfg() { store_->set_ingest_listener({}); }

/// The live fold as a plan over the store's scan driver, so a filed range
/// is read exactly as DfgBuilder's pool pass reads it: the same segment
/// filter, hot columns where the pool has them, and the driver's damage
/// rule (a damaged segment throws, or is skipped whole and counted once).
/// Kernels clip to the filed range and fold each kept event straight into
/// the maintainer; the pool hook hands them the pool's name lookup.
struct LiveDfg::RangePlan {
  struct Partial {
    /// Pool-local -> live id cache, valid for this range only (an open era
    /// re-interns ids as it absorbs flushes). 0 doubles as "not cached":
    /// local 0 is always "" which interns to live 0 anyway.
    std::vector<trace::StrId> remap;
    std::function<std::string_view(trace::StrId)> name_of;
  };
  ScanFilter filter{.io_call = true};
  LiveDfg* live = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;

  template <class Acc, class Body>
  void pool(Partial& part, const Acc& acc, Body&& body) const {
    part.remap.assign(acc.string_count(), 0);
    part.name_of = [&acc](trace::StrId id) { return acc.string(id); };
    body();
  }
  void keep(Partial& part, bool io_call, int r, trace::StrId name,
            SimTime start, SimTime duration, Bytes bytes) const {
    if (!io_call || r < 0 ||
        (live->options_.rank.has_value() && r != *live->options_.rank)) {
      return;  // probes, annotations, rank-less bookkeeping
    }
    trace::StrId& g = part.remap[name];
    if (g == 0 && name != 0) {
      g = live->names_.intern(part.name_of(name));
    }
    live->fold(r, g, start, duration, bytes);
  }
  void hot(Partial& part, const std::uint8_t* hot,
           const ScanSegment& seg) const {
    for (std::size_t i = std::max(seg.begin, begin);
         i < std::min(seg.end, end); ++i) {
      const trace::HotRecordView rec(
          hot + (i - seg.begin) * trace::hotlayout::kStride);
      keep(part, rec.is_io_call(), rec.rank(), rec.name(), rec.local_start(),
           rec.duration(), rec.bytes());
    }
  }
  template <class Acc>
  void records(Partial& part, const Acc& acc, const ScanSegment& seg) const {
    for (std::size_t i = std::max(seg.begin, begin);
         i < std::min(seg.end, end); ++i) {
      const auto& rec = acc.record(i);
      keep(part, rec.is_io_call(), rec.rank, rec.name, rec.local_start,
           rec.duration, rec.bytes);
    }
  }
  void merge(Partial&, Partial&) const {}
};

void LiveDfg::fold(int rank, trace::StrId name, SimTime start,
                   SimTime duration, Bytes bytes) {
  SeqEvent ev;
  ev.name = name;
  ev.start = start;
  ev.end = start + duration;
  ev.bytes = bytes > 0 ? bytes : 0;
  RankDfg& graph = ranks_[rank];
  graph.rank = rank;
  NodeStats& node = graph.nodes[name];
  ++node.count;
  node.total_duration += duration;
  node.bytes += ev.bytes;
  const auto carried = last_by_rank_.find(rank);
  if (carried != last_by_rank_.end()) {
    add_transition(graph.edges[{carried->second.name, name}],
                   ev.start - carried->second.end, ev.bytes);
    carried->second = ev;
  } else {
    last_by_rank_.emplace(rank, ev);
  }
  if (options_.keep_sequences) {
    graph.sequence.push_back(ev);
  }
  ++folded_;
}

void LiveDfg::on_records(std::size_t pool, std::size_t begin,
                         std::size_t end) {
  if (begin == end) {
    return;
  }
  static obs::Counter& merges = obs::counter("dfg.incremental_merges");
  const std::lock_guard<std::mutex> lock(mu_);
  if (error_) {
    return;  // the graph already misses a range; snapshot() raises
  }
  try {
    (void)store_->scan_pool(
        RangePlan{.live = this, .begin = begin, .end = end}, pool);
  } catch (...) {
    // The listener runs inside the store's ingest: it must not throw out
    // of it. The first failure is kept for snapshot() to raise.
    error_ = std::current_exception();
    return;
  }
  merges.add(1);
}

Dfg LiveDfg::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (error_) {
    std::rethrow_exception(error_);
  }
  Dfg out;
  out.names = names_.names();
  out.ranks.reserve(ranks_.size());
  for (const auto& [rank, graph] : ranks_) {
    out.ranks.push_back(graph);
  }
  canonicalize(out);
  return out;
}

long long LiveDfg::events_folded() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return folded_;
}

std::unique_ptr<LiveDfg> set_live_dfg(UnifiedTraceStore& store,
                                      const LiveDfgOptions& options) {
  return std::make_unique<LiveDfg>(store, options);
}

}  // namespace iotaxo::analysis::dfg
