#include "analysis/dfg/dfg.h"

#include <algorithm>

namespace iotaxo::analysis::dfg {

namespace {

/// One pool's contribution, keyed by *pool-local* string ids: built in
/// isolation (so pools can run in parallel), remapped to Dfg-global ids by
/// the serial merge. first/last are kept regardless of keep_sequences —
/// the merge stitches them across pool boundaries.
struct RankPartial {
  bool any = false;
  SeqEvent first;
  SeqEvent last;
  std::map<trace::StrId, NodeStats> nodes;
  std::map<EdgeKey, EdgeStats> edges;
  std::vector<SeqEvent> sequence;
};

/// One pool's partials, by rank.
using PoolPartial = std::map<int, RankPartial>;

void merge_edge(EdgeStats& into, const EdgeStats& from) {
  if (from.count == 0) {
    return;
  }
  if (into.count == 0) {
    into.gap_min = from.gap_min;
    into.gap_max = from.gap_max;
  } else {
    into.gap_min = std::min(into.gap_min, from.gap_min);
    into.gap_max = std::max(into.gap_max, from.gap_max);
  }
  into.count += from.count;
  into.bytes += from.bytes;
  into.gap_sum += from.gap_sum;
}

/// The pool pass as a plan over the store's scan driver: every event the
/// miner keeps is an I/O call (so segments without one are skipped), and it
/// reads cls/name/rank/start/duration/bytes — exactly the hot column group.
/// Partials are per pool (keyed by pool index) for the boundary stitch.
struct PoolPassPlan {
  struct Partial {};
  ScanFilter filter{.io_call = true};
  const DfgOptions* options = nullptr;
  std::vector<PoolPartial>* pools = nullptr;

  /// Fold one record into its pool's rank partial if the miner keeps it.
  /// Shared by the hot-column and record loops so the two cannot drift.
  void fold(PoolPartial& partial, bool io_call, int rank, trace::StrId name,
            SimTime start, SimTime duration, Bytes bytes) const {
    if (!io_call || rank < 0) {
      return;  // probes, annotations, rank-less bookkeeping
    }
    if (options->rank.has_value() && rank != *options->rank) {
      return;
    }
    // name is a pool-local id; the merge remaps it.
    const SeqEvent ev{name, start, start + duration, bytes > 0 ? bytes : 0};
    RankPartial& rp = partial[rank];
    NodeStats& node = rp.nodes[ev.name];
    ++node.count;
    node.total_duration += duration;
    node.bytes += ev.bytes;
    if (rp.any) {
      add_transition(rp.edges[{rp.last.name, ev.name}], ev.start - rp.last.end,
                     ev.bytes);
    } else {
      rp.first = ev;
      rp.any = true;
    }
    rp.last = ev;
    if (options->keep_sequences) {
      rp.sequence.push_back(ev);
    }
  }
  void hot(Partial&, const std::uint8_t* hot, const ScanSegment& seg) const {
    PoolPartial& partial = (*pools)[seg.pool];
    for (std::size_t i = 0; i < seg.size(); ++i) {
      const trace::HotRecordView rec(hot + i * trace::hotlayout::kStride);
      fold(partial, rec.is_io_call(), rec.rank(), rec.name(),
           rec.local_start(), rec.duration(), rec.bytes());
    }
  }
  template <class Acc>
  void records(Partial&, const Acc& acc, const ScanSegment& seg) const {
    PoolPartial& partial = (*pools)[seg.pool];
    for (std::size_t i = seg.begin; i < seg.end; ++i) {
      const auto& rec = acc.record(i);
      fold(partial, rec.is_io_call(), rec.rank, rec.name, rec.local_start,
           rec.duration, rec.bytes);
    }
  }
  void merge(Partial&, Partial&) const {}
};

}  // namespace

/// Re-key the graph onto ids assigned in sorted-name order. Merge-time ids
/// are handed out first-seen, which depends on how records are split into
/// pools (or, for the live maintainer, record order); sorting detaches the
/// table from intern order so graphs mined from the same events are
/// identical (==) across ingest splits, view vs owned sources, compact(),
/// and live vs cold builds.
void canonicalize(Dfg& dfg) {
  std::vector<trace::StrId> order(dfg.names.size());
  for (trace::StrId id = 0; id < order.size(); ++id) {
    order[id] = id;
  }
  // Id 0 stays the empty string; everything else sorts by name.
  std::sort(order.begin() + 1, order.end(),
            [&](trace::StrId a, trace::StrId b) {
              return dfg.names[a] < dfg.names[b];
            });
  std::vector<trace::StrId> remap(dfg.names.size(), 0);
  std::vector<std::string> sorted_names(dfg.names.size());
  for (trace::StrId pos = 0; pos < order.size(); ++pos) {
    remap[order[pos]] = pos;
    sorted_names[pos] = std::move(dfg.names[order[pos]]);
  }
  dfg.names = std::move(sorted_names);
  for (RankDfg& graph : dfg.ranks) {
    std::map<trace::StrId, NodeStats> nodes;
    for (const auto& [id, stats] : graph.nodes) {
      nodes.emplace(remap[id], stats);
    }
    graph.nodes = std::move(nodes);
    std::map<EdgeKey, EdgeStats> edges;
    for (const auto& [key, stats] : graph.edges) {
      edges.emplace(EdgeKey{remap[key.first], remap[key.second]}, stats);
    }
    graph.edges = std::move(edges);
    for (SeqEvent& ev : graph.sequence) {
      ev.name = remap[ev.name];
    }
  }
}

Dfg DfgBuilder::build(const DfgOptions& options) const {
  const UnifiedTraceStore& store = *store_;
  const std::size_t npools = store.pool_count();

  // --- phase 1: per-pool partials through the store's scan driver -------
  std::vector<PoolPartial> partials(npools);
  store.scan(PoolPassPlan{.options = &options, .pools = &partials},
             options.threads);

  // --- phase 2: serial merge in pool (== source) order -------------------
  // Global ids are interned first-seen over pools in order, so the table —
  // like the graphs — is identical no matter how phase 1 was chunked, and
  // invariant to pool boundaries (ingest splits, compact() merges).
  NameTable names;
  std::map<int, RankDfg> merged;          // rank -> accumulating graph
  std::map<int, SeqEvent> last_by_rank;   // global-id boundary state
  for (std::size_t p = 0; p < npools; ++p) {
    PoolPartial& partial = partials[p];
    // Lazy pool-local -> global remap table, shared by this pool's ranks.
    std::vector<trace::StrId> remap;
    store.with_pool_access(p, [&](const auto& acc) {
      remap.assign(acc.string_count(), 0);
      for (auto& [rank, rp] : partial) {
        for (const auto& [local, stats] : rp.nodes) {
          if (remap[local] == 0) {
            remap[local] = names.intern(acc.string(local));
          }
        }
      }
    });
    for (auto& [rank, rp] : partial) {
      if (!rp.any) {
        continue;
      }
      RankDfg& graph = merged[rank];
      graph.rank = rank;
      for (const auto& [local, stats] : rp.nodes) {
        NodeStats& node = graph.nodes[remap[local]];
        node.count += stats.count;
        node.total_duration += stats.total_duration;
        node.bytes += stats.bytes;
      }
      for (const auto& [key, stats] : rp.edges) {
        merge_edge(graph.edges[{remap[key.first], remap[key.second]}], stats);
      }
      // Stitch the pool boundary: the rank's previous pool tail directly
      // precedes this pool's head, exactly as a single concatenated pool
      // would have counted it.
      const auto carried = last_by_rank.find(rank);
      if (carried != last_by_rank.end()) {
        add_transition(
            graph.edges[{carried->second.name, remap[rp.first.name]}],
            rp.first.start - carried->second.end, rp.first.bytes);
      }
      SeqEvent tail = rp.last;
      tail.name = remap[tail.name];
      last_by_rank[rank] = tail;
      if (options.keep_sequences) {
        graph.sequence.reserve(graph.sequence.size() + rp.sequence.size());
        for (SeqEvent ev : rp.sequence) {
          ev.name = remap[ev.name];
          graph.sequence.push_back(ev);
        }
      }
    }
  }

  Dfg out;
  out.names = names.take();
  out.ranks.reserve(merged.size());
  for (auto& [rank, graph] : merged) {
    out.ranks.push_back(std::move(graph));
  }
  canonicalize(out);
  return out;
}

}  // namespace iotaxo::analysis::dfg
