// A naive reference for the store's five queries and its directly-follows
// graphs, folded straight from captured events in store order (source
// order, record order within a source). It shares no code with
// src/analysis: every answer is recomputed here from the trace::TraceEvent
// vocabulary alone, the way the store documents its semantics:
//
//   call_stats       every record, by name; bytes summed over I/O classes
//   rank_timeline    one rank's records sorted by (corrected) start
//   bytes_in_window  syscall-class SYS_write / SYS_read bytes with start in
//                    [begin, end)
//   io_rate_series   the same transfers bucketed from the earliest record
//                    start; buckets run to the latest record start
//   hottest_files    I/O records moving bytes > 0, keyed by their path or,
//                    path-less, by the last fd -> path seen in store order;
//                    bytes = max(library view, syscall + VFS view)
//   DFG              per rank, I/O-class records in store order; an edge
//                    counts "b directly follows a", its gap is
//                    b.start - (a.start + a.duration)
//
// Clock correction is the LANL-Trace method (skew from the pre-barrier
// probe, drift from the pre/post interval), re-derived here so corrected
// stamps do not come from the store's own model.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "trace/event.h"

namespace perfbench {

using iotaxo::Bytes;
using iotaxo::SimTime;
using iotaxo::trace::EventClass;
using iotaxo::trace::TraceEvent;

/// Per-rank clock correction fitted from "pre_sync" / "post_sync" probes.
class RefClock {
 public:
  /// nullopt when the probes do not cover every probed rank with both
  /// readings (the store then keeps raw stamps too).
  static std::optional<RefClock> fit(const std::vector<TraceEvent>& probes) {
    std::map<int, SimTime> pre;
    std::map<int, SimTime> post;
    for (const TraceEvent& ev : probes) {
      if (ev.cls != EventClass::kClockProbe || ev.args.empty()) {
        continue;
      }
      if (ev.args[0] == "pre_sync") {
        pre[ev.rank] = ev.local_start;
      } else if (ev.args[0] == "post_sync") {
        post[ev.rank] = ev.local_start;
      }
    }
    if (pre.empty()) {
      return std::nullopt;
    }
    long double sum_pre = 0.0L;
    long double sum_span = 0.0L;
    for (const auto& [rank, t] : pre) {
      const auto it = post.find(rank);
      if (it == post.end()) {
        return std::nullopt;
      }
      sum_pre += static_cast<long double>(t);
      sum_span += static_cast<long double>(it->second - t);
    }
    const auto n = static_cast<long double>(pre.size());
    RefClock clock;
    clock.mean_pre_ = static_cast<SimTime>(sum_pre / n);
    const long double mean_span = sum_span / n;
    for (const auto& [rank, t] : pre) {
      const long double span = static_cast<long double>(post.at(rank) - t);
      // Drift travels as a double in ppm, as the published method reports it.
      const double ppm =
          mean_span > 0 ? static_cast<double>((span / mean_span - 1.0L) * 1e6)
                        : 0.0;
      clock.ranks_[rank] = {t, 1.0L + static_cast<long double>(ppm) * 1e-6L};
    }
    return clock;
  }

  /// Corrected stamp; ranks without probes keep their raw stamp.
  [[nodiscard]] SimTime correct(int rank, SimTime local) const {
    const auto it = ranks_.find(rank);
    if (rank < 0 || it == ranks_.end()) {
      return local;
    }
    const long double elapsed =
        static_cast<long double>(local - it->second.anchor) / it->second.rate;
    return mean_pre_ + static_cast<SimTime>(elapsed);
  }

 private:
  struct RankClock {
    SimTime anchor = 0;
    long double rate = 1.0L;
  };
  SimTime mean_pre_ = 0;
  std::map<int, RankClock> ranks_;
};

struct RefCall {
  long long count = 0;
  SimTime time = 0;
  Bytes bytes = 0;
};

struct RefHeat {
  std::string path;
  long long ops = 0;
  Bytes bytes = 0;
};

struct RefNode {
  long long count = 0;
  SimTime duration = 0;
  Bytes bytes = 0;
};

struct RefEdge {
  long long count = 0;
  Bytes bytes = 0;
  SimTime gap_min = 0;
  SimTime gap_max = 0;
  SimTime gap_sum = 0;
};

struct RefRankGraph {
  std::map<std::string, RefNode> nodes;
  std::map<std::pair<std::string, std::string>, RefEdge> edges;
};

/// The reference store: fold events in store order, then ask. Copyable, so
/// a history prefix is folded once and extended per round.
class RefStore {
 public:
  RefStore() = default;
  /// Only this rank's records are kept for rank_timeline.
  explicit RefStore(int timeline_rank) : timeline_rank_(timeline_rank) {}

  void add(const TraceEvent& ev) {
    ++events_;
    RefCall& call = calls_[ev.name];
    ++call.count;
    call.time += ev.duration;
    if (ev.is_io_call()) {
      call.bytes += ev.bytes;
    }
    if (ev.rank == timeline_rank_) {
      timeline_.push_back(ev);
    }
    if (!any_) {
      lo_ = hi_ = ev.local_start;
      any_ = true;
    } else {
      lo_ = std::min(lo_, ev.local_start);
      hi_ = std::max(hi_, ev.local_start);
    }
    if (ev.cls == EventClass::kSyscall &&
        (ev.name == "SYS_write" || ev.name == "SYS_read")) {
      transfers_.emplace_back(ev.local_start, ev.bytes);
    }
    fold_heat(ev);
    fold_graph(ev);
  }

  [[nodiscard]] long long events() const noexcept { return events_; }
  [[nodiscard]] SimTime min_time() const noexcept { return lo_; }
  [[nodiscard]] SimTime max_time() const noexcept { return hi_; }

  [[nodiscard]] const std::map<std::string, RefCall>& call_stats() const {
    return calls_;
  }

  /// Sorted by start; ties in any fixed order (the store's order among
  /// equal stamps is unspecified, so comparisons sort both sides fully).
  [[nodiscard]] std::vector<TraceEvent> rank_timeline() const {
    std::vector<TraceEvent> out = timeline_;
    sort_events(out);
    return out;
  }

  /// Start of the transfer at quantile q (0..1) of all transfers by start;
  /// windows cut at such stamps put a transfer exactly on each edge.
  [[nodiscard]] SimTime transfer_stamp(double q) const {
    std::vector<SimTime> t;
    t.reserve(transfers_.size());
    for (const auto& tr : transfers_) {
      t.push_back(tr.first);
    }
    if (t.empty()) {
      return lo_;
    }
    std::sort(t.begin(), t.end());
    const auto i = static_cast<std::size_t>(q * static_cast<double>(t.size() - 1));
    return t[i];
  }

  [[nodiscard]] Bytes bytes_in_window(SimTime begin, SimTime end) const {
    Bytes total = 0;
    for (const auto& [t, b] : transfers_) {
      if (t >= begin && t < end) {
        total += b;
      }
    }
    return total;
  }

  [[nodiscard]] std::vector<std::pair<SimTime, Bytes>> io_rate_series(
      SimTime width) const {
    std::vector<std::pair<SimTime, Bytes>> out;
    if (!any_ || width <= 0) {
      return out;
    }
    const auto n = static_cast<std::size_t>((hi_ - lo_) / width) + 1;
    std::vector<Bytes> sums(n, 0);
    for (const auto& [t, b] : transfers_) {
      sums[static_cast<std::size_t>((t - lo_) / width)] += b;
    }
    for (std::size_t i = 0; i < n; ++i) {
      out.emplace_back(lo_ + static_cast<SimTime>(i) * width, sums[i]);
    }
    return out;
  }

  /// Every file, hottest first; equal byte counts ordered by path.
  [[nodiscard]] std::vector<RefHeat> hottest_files() const {
    std::vector<RefHeat> out;
    for (const auto& [path, t] : heat_) {
      out.push_back({path, t.ops, std::max(t.lib, t.lower)});
    }
    std::sort(out.begin(), out.end(), [](const RefHeat& a, const RefHeat& b) {
      return a.bytes != b.bytes ? a.bytes > b.bytes : a.path < b.path;
    });
    return out;
  }

  [[nodiscard]] const std::map<int, RefRankGraph>& graphs() const {
    return graphs_;
  }

  /// Full-record order used to compare timelines whose equal-stamp runs
  /// may come back in any order.
  static void sort_events(std::vector<TraceEvent>& v) {
    std::sort(v.begin(), v.end(), [](const TraceEvent& a, const TraceEvent& b) {
      return std::tie(a.local_start, a.name, a.args, a.duration, a.ret, a.node,
                      a.pid, a.host, a.path, a.fd, a.bytes, a.offset) <
             std::tie(b.local_start, b.name, b.args, b.duration, b.ret, b.node,
                      b.pid, b.host, b.path, b.fd, b.bytes, b.offset);
    });
  }

 private:
  struct Tally {
    long long ops = 0;
    Bytes lib = 0;
    Bytes lower = 0;
  };
  struct Last {
    std::string name;
    SimTime end = 0;
  };

  void fold_heat(const TraceEvent& ev) {
    if (!ev.path.empty() && ev.fd >= 0) {
      fd_path_[ev.fd] = ev.path;
    }
    if (!ev.is_io_call() || ev.bytes <= 0) {
      return;
    }
    std::string path = ev.path;
    if (path.empty() && ev.fd >= 0) {
      const auto it = fd_path_.find(ev.fd);
      if (it != fd_path_.end()) {
        path = it->second;
      }
    }
    if (path.empty()) {
      path = "(unknown)";
    }
    Tally& t = heat_[path];
    ++t.ops;
    (ev.cls == EventClass::kLibraryCall ? t.lib : t.lower) += ev.bytes;
  }

  void fold_graph(const TraceEvent& ev) {
    if (!ev.is_io_call() || ev.rank < 0) {
      return;
    }
    const Bytes bytes = ev.bytes > 0 ? ev.bytes : 0;
    RefRankGraph& g = graphs_[ev.rank];
    RefNode& node = g.nodes[ev.name];
    ++node.count;
    node.duration += ev.duration;
    node.bytes += bytes;
    const auto last = last_.find(ev.rank);
    if (last != last_.end()) {
      RefEdge& e = g.edges[{last->second.name, ev.name}];
      const SimTime gap = ev.local_start - last->second.end;
      if (e.count == 0) {
        e.gap_min = e.gap_max = gap;
      } else {
        e.gap_min = std::min(e.gap_min, gap);
        e.gap_max = std::max(e.gap_max, gap);
      }
      e.gap_sum += gap;
      ++e.count;
      e.bytes += bytes;
    }
    last_[ev.rank] = {ev.name, ev.local_start + ev.duration};
  }

  int timeline_rank_ = 0;
  long long events_ = 0;
  std::map<std::string, RefCall> calls_;
  std::vector<TraceEvent> timeline_;
  bool any_ = false;
  SimTime lo_ = 0;
  SimTime hi_ = 0;
  std::vector<std::pair<SimTime, Bytes>> transfers_;
  std::map<int, std::string> fd_path_;
  std::map<std::string, Tally> heat_;
  std::map<int, RefRankGraph> graphs_;
  std::map<int, Last> last_;
};

}  // namespace perfbench
