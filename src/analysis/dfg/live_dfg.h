// Incremental DFG maintenance over a streaming UnifiedTraceStore.
//
// The cold path (DfgBuilder) rescans every pool on each build() — fine for
// post-hoc analysis, wasteful when a monitoring loop wants the graph after
// every flush of a long capture session. LiveDfg hangs off the store's
// ingest-listener seam and folds each filed record range into per-rank
// partial graphs as it arrives, so snapshot() is a copy + canonicalize of
// already-folded state instead of a full rescan.
//
// Bit-identity with the cold builder is a hard invariant, not an
// approximation: both paths keep records in store order per rank, share
// the single add_transition() fold in dfg.h, and both canonicalize onto
// sorted-name ids before returning — so
//   live.snapshot() == DfgBuilder(store).build(equivalent options)
// holds exactly (operator==), at any thread count, for any interleaving
// of flushes, era seals, and compact() calls. compact() rewrites pool
// boundaries but not the record stream, and LiveDfg's state is keyed by
// rank, not pool, so no re-fold is needed.
//
// Damaged data follows the store's scan driver, which every filed range is
// folded through (UnifiedTraceStore::scan_pool): under
// ScanPolicy::skip_damaged a damaged segment is skipped whole and counted
// once in the store's damage counters, so the live graph equals a cold
// rebuild over the healthy segments; under fail-fast the maintainer stops
// folding for good, the listener swallows the FormatError (an ingest never
// fails because of the maintainer) and snapshot() raises it — the same
// error a cold build() raises.
//
// Opt-in: construct via set_live_dfg(store). The returned handle owns the
// listener registration and detaches on destruction; destroy it before
// the store. Folding happens synchronously inside the ingest call, under
// the maintainer's own mutex — snapshot() is safe from other threads.
#pragma once

#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dfg/dfg.h"

namespace iotaxo::analysis::dfg {

struct LiveDfgOptions {
  /// Restrict maintenance to one rank (mirrors DfgOptions::rank).
  std::optional<int> rank;
  /// Retain per-rank event sequences (mirrors DfgOptions::keep_sequences).
  bool keep_sequences = false;
};

class LiveDfg {
 public:
  /// Registers as the store's ingest listener and folds all records the
  /// store already holds, so a maintainer attached mid-session still
  /// matches a cold rebuild. Replaces any previously set listener.
  LiveDfg(UnifiedTraceStore& store, const LiveDfgOptions& options);
  ~LiveDfg();

  LiveDfg(const LiveDfg&) = delete;
  LiveDfg& operator=(const LiveDfg&) = delete;

  /// The graph over everything folded so far, canonicalized — comparable
  /// with == against DfgBuilder::build over the same store. Rethrows the
  /// first error a fold hit (see the damage rule above).
  [[nodiscard]] Dfg snapshot() const;

  /// Records folded so far (after class/rank filtering).
  [[nodiscard]] long long events_folded() const;

 private:
  struct RangePlan;  // the fold as a scan-driver plan (live_dfg.cpp)

  void on_records(std::size_t pool, std::size_t begin, std::size_t end);
  /// Fold one kept event (live name id) into its rank's graph.
  void fold(int rank, trace::StrId name, SimTime start, SimTime duration,
            Bytes bytes);

  UnifiedTraceStore* store_;
  LiveDfgOptions options_;
  mutable std::mutex mu_;
  /// Live intern table: first-seen record order. snapshot() re-keys onto
  /// sorted-name order, so this order never leaks into results.
  NameTable names_;
  std::map<int, RankDfg> ranks_;
  std::map<int, SeqEvent> last_by_rank_;
  long long folded_ = 0;
  /// First fold failure (fail-fast scan policy), raised by snapshot().
  std::exception_ptr error_;
};

/// Attach incremental DFG maintenance to a store (the opt-in entry point).
[[nodiscard]] std::unique_ptr<LiveDfg> set_live_dfg(
    UnifiedTraceStore& store, const LiveDfgOptions& options = {});

}  // namespace iotaxo::analysis::dfg
