#include "analysis/dfg/live_dfg.h"

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

void LiveDfg::on_records(std::size_t pool, std::size_t begin,
                         std::size_t end) {
  if (begin == end) {
    return;
  }
  static obs::Counter& merges = obs::counter("dfg.incremental_merges");
  const std::lock_guard<std::mutex> lock(mu_);
  store_->with_pool_access(pool, [&](const auto& acc) {
    // Pool-local -> live-global id cache, valid for this range only (an
    // open era re-interns ids as it absorbs flushes). 0 doubles as "not
    // cached": local 0 is always "" which interns to global 0 anyway.
    std::vector<trace::StrId> remap(acc.string_count(), 0);
    for (std::size_t i = begin; i < end; ++i) {
      const auto& rec = acc.record(i);
      if (!rec.is_io_call() || rec.rank < 0) {
        continue;  // probes, annotations, rank-less bookkeeping
      }
      if (options_.rank.has_value() && rec.rank != *options_.rank) {
        continue;
      }
      trace::StrId g = remap[rec.name];
      if (g == 0 && rec.name != 0) {
        g = names_.intern(acc.string(rec.name));
        remap[rec.name] = g;
      }
      SeqEvent ev;
      ev.name = g;
      ev.start = rec.local_start;
      ev.end = rec.local_start + rec.duration;
      ev.bytes = rec.bytes > 0 ? rec.bytes : 0;
      RankDfg& graph = ranks_[rec.rank];
      graph.rank = rec.rank;
      NodeStats& node = graph.nodes[g];
      ++node.count;
      node.total_duration += rec.duration;
      node.bytes += ev.bytes;
      const auto carried = last_by_rank_.find(rec.rank);
      if (carried != last_by_rank_.end()) {
        add_transition(graph.edges[{carried->second.name, g}],
                       ev.start - carried->second.end, ev.bytes);
        carried->second = ev;
      } else {
        last_by_rank_.emplace(rec.rank, ev);
      }
      if (options_.keep_sequences) {
        graph.sequence.push_back(ev);
      }
      ++folded_;
    }
  });
  merges.add(1);
}

Dfg LiveDfg::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
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
