// UnifiedTraceStore — the paper's §6 future-work goal, implemented:
// "We intend to build a common framework for diverse trace aggregation.
// With such a framework, we would be able to present a single trace-data
// API to developers for use while building trace analysis tools."
//
// The store ingests bundles captured by *any* framework (ptrace text
// traces, Tracefs binary VFS streams, //TRACE interposition traces) — or
// raw EventBatches straight off the batched capture pipeline, or IOTB3
// containers opened zero-copy through trace::BlockView — normalizes
// timestamps onto a common timeline when skew/drift probes are available,
// and answers the queries analysis tools need: per-call statistics,
// per-rank activity, time-windowed I/O rates, and file heat.
//
// Internally every source lives in a *pool* of one of two kinds: an owned
// pool (one trace::EventBatch — fixed-size records plus an interned string
// pool) or a block-backed pool (a MappedTraceFile plus a BlockView over an
// IOTB3 container — blocks are served in place when stored plain and
// decoded lazily, only when a query touches them, when compressed or
// encrypted). Older IOTB1/IOTB2 files are imported into owned pools.
// Queries iterate flat records and compare interned ids instead of
// strings, so aggregate scans stay cheap at millions of events (the
// columnar bulk-iteration the DFG syscall-inspection line of work depends
// on).
//
// Each pool carries an index built once at ingest — min/max corrected
// timestamp and a name-id presence filter — that lets the windowed and
// transfer-oriented queries skip whole pools before scanning a record;
// block-backed pools get theirs straight from the container footer, no
// record is decoded at ingest. Below the pool index sits the *segment*
// seam: every accessor partitions its records into index-carrying
// segments (one per owned pool, one per block for block-backed pools), and
// queries skip or stream segments the same way they skip pools — a narrow
// window on a compressed era decompresses only the blocks it overlaps.
// Block segments also expose their records serialized in the fixed
// 81-byte stride (or the hot column group of projected containers), which
// the queries feed to the SIMD scan kernels (trace/scan_kernels.h) instead
// of per-record accessor loops. set_use_indexes(false) disables both skip
// levels for benchmarking; results are identical either way.
// compact(era_bytes) merges runs of small owned pools into era-sized
// batches (re-interned once, source infos preserved) so pool count stays
// bounded in long-lived aggregation services; the cold-tier overload
// additionally writes each era out as an IOTB3 file and re-files it as a
// block-backed pool, so old eras shrink to compressed storage yet stay
// queryable.
//
// Every query, and the DFG miner's pool pass, is a short plan over one
// scan driver (UnifiedTraceStore::scan): the driver owns the index skips,
// accessor dispatch, prefetch, damage policy and parallelism; a plan gives
// only its filter, its per-segment kernels and its partial. Pools are
// scanned in contiguous chunks in parallel when set_query_threads allows,
// and the per-chunk partials are merged in pool (== source) order, so
// results are bit-identical to the serial scan.
// Queries remain const and safe to issue concurrently; ingest, compact and
// the setters are configuration and must not race with them.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/skew_drift.h"
#include "analysis/store_manifest.h"
#include "trace/binary_format.h"
#include "trace/block_view.h"
#include "trace/bundle.h"
#include "trace/event_batch.h"
#include "trace/record_view.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace iotaxo::analysis {

// Every scan sees a pool's records through one of two accessors with the
// same shape: BatchAccess over an owned EventBatch, BlockAccess over a
// lazily-decoded IOTB3 BlockView. Both are cheap value types. The store's
// scan driver (UnifiedTraceStore::scan) dispatches once per pool and hands
// the accessor to the plan's kernels, so per-record loops stay
// monomorphized; with_pool_access exposes the same dispatch to callers
// that walk one pool's records themselves (tools, the CLI).
//
// Besides per-record access, every accessor exposes the *segment* seam the
// driver walks: segment_count() index-carrying record ranges (a single
// whole-pool segment for owned pools, one per block for block-backed
// pools). The segment_has_* / segment_overlaps predicates are conservative
// — "true" means "may contain" — so skipping a false segment is always
// exact. segment_record_bytes() returns the segment's records serialized
// in the fixed stride for the SIMD scan kernels, or nullptr when the
// pool's records are not serialized (owned batches); segment_hot_bytes()
// returns just the hot column group (hotlayout stride) of projected IOTB3
// pools, or nullptr. segment_prefetch() decodes a set of segments across a
// thread pool before the driver's serial walk (block-backed pools only — a
// no-op for owned ones).

/// An owned batch: one whole-pool segment that may contain anything, no
/// serialized bytes and nothing to prefetch.
struct BatchAccess {
  explicit BatchAccess(const trace::EventBatch* batch) : b(batch) {}
  const trace::EventBatch* b;

  [[nodiscard]] std::size_t size() const noexcept { return b->size(); }
  [[nodiscard]] const trace::EventRecord& record(std::size_t i) const {
    return b->record(i);
  }
  [[nodiscard]] std::size_t string_count() const noexcept {
    return b->pool().size();
  }
  [[nodiscard]] std::string_view string(trace::StrId id) const {
    return b->pool().view(id);
  }
  [[nodiscard]] std::optional<trace::StrId> find(std::string_view s) const {
    return b->pool().find(s);
  }
  /// args_begin is carried by the owned record itself; the parameter keeps
  /// the signature uniform with BlockAccess.
  [[nodiscard]] trace::TraceEvent materialize(std::size_t i,
                                              std::uint32_t /*args_begin*/)
      const {
    return b->materialize(i);
  }

  [[nodiscard]] std::size_t segment_count() const noexcept { return 1; }
  [[nodiscard]] std::size_t segment_begin(std::size_t) const noexcept {
    return 0;
  }
  [[nodiscard]] std::size_t segment_end(std::size_t) const noexcept {
    return size();
  }
  [[nodiscard]] std::uint32_t segment_args_begin(std::size_t) const noexcept {
    return 0;
  }
  [[nodiscard]] bool segment_overlaps(std::size_t, SimTime,
                                      SimTime) const noexcept {
    return true;
  }
  [[nodiscard]] bool segment_has_name(std::size_t,
                                      trace::StrId id) const noexcept {
    return id != 0;
  }
  [[nodiscard]] bool segment_has_fd_path(std::size_t) const noexcept {
    return true;
  }
  [[nodiscard]] bool segment_has_io_bytes(std::size_t) const noexcept {
    return true;
  }
  [[nodiscard]] bool segment_has_io_call(std::size_t) const noexcept {
    return true;
  }
  [[nodiscard]] const std::uint8_t* segment_record_bytes(std::size_t) const {
    return nullptr;
  }
  [[nodiscard]] const std::uint8_t* segment_hot_bytes(std::size_t) const {
    return nullptr;
  }
  void segment_prefetch(const std::vector<std::size_t>&, std::size_t,
                        bool) const noexcept {}
};

struct BlockAccess {
  const trace::BlockView* v;

  [[nodiscard]] std::size_t size() const noexcept { return v->size(); }
  [[nodiscard]] trace::EventRecord record(std::size_t i) const {
    return v->record(i).to_record();
  }
  [[nodiscard]] std::size_t string_count() const noexcept {
    return v->string_count();
  }
  [[nodiscard]] std::string_view string(trace::StrId id) const {
    return v->string(id);
  }
  [[nodiscard]] std::optional<trace::StrId> find(std::string_view s) const {
    return v->find_string(s);
  }
  [[nodiscard]] trace::TraceEvent materialize(std::size_t i,
                                              std::uint32_t args_begin) const {
    return v->materialize(i, args_begin);
  }

  // Segment seam: one segment per block, backed by the footer mini-index;
  // touching a segment's records (or bytes) decodes and verifies exactly
  // that block.
  [[nodiscard]] std::size_t segment_count() const noexcept {
    return v->block_count();
  }
  [[nodiscard]] std::size_t segment_begin(std::size_t k) const noexcept {
    return v->block_first(k);
  }
  [[nodiscard]] std::size_t segment_end(std::size_t k) const noexcept {
    return v->block_first(k) + v->block_size(k);
  }
  [[nodiscard]] std::uint32_t segment_args_begin(std::size_t k) const noexcept {
    // Cannot wrap: BlockView::open rejects containers declaring more than
    // 2^32 argument ids, and every block's args_begin <= nargids.
    return static_cast<std::uint32_t>(v->block_args_begin(k));
  }
  /// True when some record's stamp may lie in the half-open [begin, end).
  [[nodiscard]] bool segment_overlaps(std::size_t k, SimTime begin,
                                      SimTime end) const noexcept {
    return v->block_max_time(k) >= begin && v->block_min_time(k) < end;
  }
  [[nodiscard]] bool segment_has_name(std::size_t k,
                                      trace::StrId id) const noexcept {
    return v->block_has_name(k, id);
  }
  [[nodiscard]] bool segment_has_fd_path(std::size_t k) const noexcept {
    return v->block_has_fd_path(k);
  }
  [[nodiscard]] bool segment_has_io_bytes(std::size_t k) const noexcept {
    return v->block_has_io_bytes(k);
  }
  [[nodiscard]] bool segment_has_io_call(std::size_t k) const noexcept {
    return v->block_has_io_call(k);
  }
  [[nodiscard]] const std::uint8_t* segment_record_bytes(std::size_t k) const {
    return v->block_bytes(k).data();
  }
  /// Decodes just the hot column group; nullptr when not projected.
  [[nodiscard]] const std::uint8_t* segment_hot_bytes(std::size_t k) const {
    return v->projected() ? v->hot_bytes(k).data() : nullptr;
  }
  /// Failures stay sticky in the block cache and rethrow when the
  /// driver's serial walk touches the failed segment.
  void segment_prefetch(const std::vector<std::size_t>& segs,
                        std::size_t threads, bool hot_only) const {
    v->decode_blocks(segs, threads, hot_only);
  }
};

struct StoreSourceInfo {
  std::string framework;
  std::string application;
  long long events = 0;
  bool time_corrected = false;
  /// True when the source is served from a mapped IOTB3 container (a
  /// block-backed pool) rather than an owned batch.
  bool block_backed = false;
};

struct CallStats {
  long long count = 0;
  SimTime total_time = 0;
  Bytes total_bytes = 0;
  bool operator==(const CallStats&) const = default;
};

struct FileHeat {
  std::string path;
  long long ops = 0;
  Bytes bytes = 0;
  bool operator==(const FileHeat&) const = default;
};

/// Shape of one storage pool, reported by pool_infos() so tools and
/// benches can describe a store (pool count, sizes, eras, owned vs
/// block-backed) without friend access to the pool internals.
struct StorePoolInfo {
  /// Sources [first_source, first_source + source_count) live in this pool
  /// (source_count > 1 only after compact()).
  std::size_t first_source = 0;
  std::size_t source_count = 1;
  long long records = 0;
  /// Approximate resident footprint: in-memory batch bytes for owned
  /// pools, container file bytes for block-backed pools.
  std::size_t approx_bytes = 0;
  /// True for pools served from an IOTB3 BlockView (cold-tier compaction
  /// output or a v3 ingest_view); `blocks` is then the container's block
  /// count, else 0.
  bool block_backed = false;
  std::size_t blocks = 0;
  /// Block-backed container flags and the decode footprint so far:
  /// stored_bytes is the container's total stored block bytes,
  /// decoded_stored_bytes how many of them queries have decoded (hot and
  /// cold groups counted separately). Zero for non-block pools.
  bool encrypted = false;
  bool projected = false;
  std::size_t stored_bytes = 0;
  std::size_t decoded_stored_bytes = 0;
  /// Blocks whose decode has failed sticky so far (block-backed pools;
  /// grows as queries touch damaged blocks — see ScanPolicy::skip_damaged).
  std::size_t damaged_blocks = 0;
  /// Pool-index time span (valid iff `any`): min/max corrected stamp.
  bool any = false;
  SimTime min_time = 0;
  SimTime max_time = 0;
  /// Streaming-ingest state: open_era is true while this pool is the
  /// store's growing open batch (seal_open_era / a large ingest closes it);
  /// flushes_absorbed counts the ingest calls folded into it (0 for pools
  /// that never streamed).
  bool open_era = false;
  std::size_t flushes_absorbed = 0;
  bool operator==(const StorePoolInfo&) const = default;
};

/// What attach_dir found and did: the recovery report. The store serves
/// exactly `recovered_eras` containers; everything in `quarantined` stays
/// on disk, reported but unserved (nothing but `.tmp` files is deleted).
struct StoreHealth {
  std::size_t recovered_eras = 0;
  std::size_t torn_tmps_removed = 0;
  std::vector<QuarantinedFile> quarantined;
  [[nodiscard]] bool healthy() const noexcept { return quarantined.empty(); }
};

/// Knobs for attach_dir.
struct AttachOptions {
  /// Key for encrypted containers in the directory.
  std::optional<CipherKey> key;
  /// Source metadata applied to every attached container ("framework",
  /// "application").
  std::map<std::string, std::string> metadata;
};

/// Knobs for streaming (era-aware) ingest: set_stream_ingest routes small
/// flushes into one growing *open era* pool instead of filing a pool per
/// flush, so a long capture session produces tens of pools, not tens of
/// thousands. The open era's index is maintained incrementally per append
/// (stamp bounds extended, presence flags OR'd — never a rescan).
struct StreamIngestOptions {
  /// Flushes of at most this many events are absorbed into the open era;
  /// larger ingests seal it and file their own pool as before.
  std::size_t flush_events = 4096;
  /// Seal the open era once its approximate in-memory footprint exceeds
  /// this (the same quantity compact() sizes eras by).
  std::size_t era_bytes = 8u << 20;
  /// Also seal after this many absorbed flushes — an age bound for
  /// low-rate streams. 0 = no flush-count bound.
  std::size_t era_flushes = 0;
};

/// How queries react to damaged data (sticky per-block decode failures).
struct ScanPolicy {
  /// Default off: the first touched bad block fails the query (FormatError)
  /// exactly as before. Opt in to skip damaged segments instead: the query
  /// completes over everything healthy and the store accumulates
  /// skipped_blocks / skipped_records (damage_counters(), pool_infos()).
  bool skip_damaged = false;
};

/// Cumulative damage skipped by queries since the last reset (only grows
/// under ScanPolicy::skip_damaged). A segment is counted once per query
/// that skips it, so an uncorrupted twin store always reports {0, 0}.
struct DamageCounters {
  std::uint64_t skipped_blocks = 0;
  std::uint64_t skipped_records = 0;
  bool operator==(const DamageCounters&) const = default;
};

/// What a scan plan reads, in index terms. While use_indexes() is on the
/// driver skips every pool and segment whose index proves it holds none of
/// it; results are identical either way. Unset fields skip nothing.
struct ScanFilter {
  /// Only records stamped inside the half-open [first, second).
  std::optional<std::pair<SimTime, SimTime>> window{};
  /// Only the transfer syscalls (SYS_write / SYS_read).
  bool transfer_calls = false;
  /// Only records carrying an fd with a path, or I/O calls moving bytes.
  bool fd_path_or_io_bytes = false;
  /// Only I/O-call records (segment level: pool indexes carry no such flag).
  bool io_call = false;
};

/// One segment handed to a plan's kernel: records [begin, end) of `pool`.
struct ScanSegment {
  std::size_t pool = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  /// Argument-id cursor at `begin`, for materialize().
  std::uint32_t args_begin = 0;
  /// The pool's transfer-call ids (0 = not interned in this pool).
  trace::StrId sys_write = 0;
  trace::StrId sys_read = 0;
  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
};

class UnifiedTraceStore {
 public:
  /// Ingest a bundle. If it carries clock probes, a skew/drift model is
  /// fitted and all of its event timestamps are corrected onto the common
  /// timeline; otherwise node-local stamps are used as-is (flagged in the
  /// source info). Returns the source index.
  std::size_t ingest(const trace::TraceBundle& bundle);

  /// Ingest a capture batch directly — no per-event heap objects are
  /// rebuilt; records are re-interned into the store's source batch.
  /// `metadata` mirrors the bundle keys ("framework", "application");
  /// `clock_probes` enables timeline correction exactly as for bundles.
  std::size_t ingest(
      const trace::EventBatch& batch,
      const std::map<std::string, std::string>& metadata = {},
      const std::vector<trace::TraceEvent>& clock_probes = {},
      const std::vector<trace::DependencyEdge>& dependencies = {});

  /// File a container: the store takes ownership of the mapped file. An
  /// IOTB3 container is served zero-copy from a block-backed pool whose
  /// index is built from the footer mini-index alone, so no block is
  /// decoded at ingest; `key` opens encrypted ones (a wrong or missing key
  /// throws FormatError at ingest; blocks decrypt lazily as queries touch
  /// them). An IOTB1/IOTB2 file is imported instead: decoded with
  /// decode_binary_batch (`key` for encrypted ones) and filed through the
  /// owned ingest(batch, metadata) path, streaming absorption included.
  /// Either way the source uses raw node-local stamps (no timeline
  /// correction; decode to a batch and use the batch overload when probes
  /// must be applied). Small IOTB3 containers are absorbed into the open
  /// era too while streaming ingest is on. Throws FormatError on a
  /// corrupt container.
  std::size_t ingest_view(trace::MappedTraceFile file,
                          const std::map<std::string, std::string>& metadata = {},
                          const std::optional<CipherKey>& key = std::nullopt);
  /// Convenience: map `path` and ingest it.
  std::size_t ingest_view(const std::string& path,
                          const std::map<std::string, std::string>& metadata = {},
                          const std::optional<CipherKey>& key = std::nullopt);

  /// Attach a crash-safe store directory (one the cold tier spills into)
  /// through recover_store_dir (analysis/store_manifest.h): torn `.tmp`
  /// files are deleted, and every container the walk admits — committed in
  /// the manifest and matching its size + CRC, or any container when there
  /// is no trustworthy manifest — is ingested zero-copy if it opens
  /// cleanly. Everything else is *quarantined*: reported in the returned
  /// StoreHealth, left on disk, not served, never aborting the attach.
  /// Also advances the cold-era counter past everything seen, so later
  /// cold compactions into the directory cannot collide. Throws IoError
  /// only when the directory itself cannot be read.
  StoreHealth attach_dir(const std::string& directory,
                         const AttachOptions& options = {});

  /// Merge runs of adjacent small *owned* pools into era-sized batches of
  /// at most ~era_bytes each (approximate in-memory footprint). Source
  /// infos, source indexing and every query result are preserved exactly;
  /// block-backed pools are never touched. Bounds pool count for long-lived
  /// aggregation services. Returns the pool count after compaction.
  std::size_t compact(std::size_t era_bytes);

  /// How compact(era_bytes, cold) writes its cold tier.
  struct ColdTierOptions {
    /// Directory the era containers are written into (must exist).
    std::string directory;
    /// Container options for the eras: compress/checksum/encrypt/project
    /// all flow to the v3 encoder (encrypt requires `binary.key`, which is
    /// also used to open the written era for swap-in). Version is forced
    /// to 3.
    trace::BinaryOptions binary;
    std::uint32_t block_records = trace::v3layout::kDefaultBlockRecords;
    /// Era files are named <directory>/<file_prefix>-<n>.iotb3, where n is
    /// a store-lifetime monotonic counter: repeated cold compactions never
    /// reuse a number, so an era a live pool still mmaps is never
    /// truncated. A name that nevertheless already exists on disk (another
    /// store writing the same prefix) raises IoError instead of
    /// overwriting.
    std::string file_prefix = "era";
  };

  /// Era compaction with a cold tier: merge owned pools exactly as
  /// compact(era_bytes), then spill each merged era to an IOTB3 container
  /// under `cold.directory` and swap the pool to a block-backed view of
  /// the mapped file — the in-memory batch is released, and later queries
  /// decode only the blocks they touch. Query results are preserved
  /// exactly; covered sources become block-backed (source_batch() then
  /// throws for them). Returns the pool count.
  std::size_t compact(std::size_t era_bytes, const ColdTierOptions& cold);

  /// Number of internal storage pools (== sources until compact() merges
  /// some).
  [[nodiscard]] std::size_t pool_count() const noexcept {
    return pools_.size();
  }

  /// Per-pool shape (record count, footprint, index time span, owned vs
  /// block-backed), in pool (== source) order.
  [[nodiscard]] std::vector<StorePoolInfo> pool_infos() const;

  /// Run fn with pool `p`'s accessor (BatchAccess or BlockAccess): the
  /// same seam every built-in query scans through, for callers that stream
  /// pool records themselves. Throws ConfigError on an out-of-range pool.
  template <class Fn>
  decltype(auto) with_pool_access(std::size_t p, Fn&& fn) const {
    check_pool_index(p);
    const StorePool& pool = pools_[p];
    if (pool.blocks.has_value()) {
      return fn(BlockAccess{&*pool.blocks});
    }
    return fn(BatchAccess{&pool.batch});
  }

  /// The scan driver every query and the DFG pool pass run through. A
  /// plan supplies:
  ///   - `filter`, a ScanFilter: what it reads;
  ///   - `Partial`, default-constructed once per chunk, and
  ///     `merge(Partial& into, Partial& from)`, applied in chunk order;
  ///   - `records(Partial&, const Acc&, const ScanSegment&)`, the record
  ///     loop over any accessor;
  ///   - optionally `hot(Partial&, const std::uint8_t*, const ScanSegment&)`
  ///     over a projected segment's hot column group and/or `raw(...)`
  ///     over v2-stride record bytes, preferred in that order when the
  ///     segment offers them. A plan with a hot kernel reads hot columns
  ///     only, so its segments are prefetched hot-only;
  ///   - optionally `pool(Partial&, const Acc&, Body&& body)`, wrapped
  ///     around each scanned pool (it must call body() once) for per-pool
  ///     setup and folding.
  /// The driver owns the rest, once: the pool and segment index skips and
  /// their metrics, accessor dispatch (once per pool), block-parallel
  /// prefetch on the thread budget chunking leaves over, the
  /// ScanPolicy::skip_damaged catch, and contiguous pool chunks on
  /// `threads` workers (0 = hardware concurrency, 1 = serial). Each pool is
  /// scanned by exactly one chunk, so a plan may also keep per-pool state
  /// indexed by ScanSegment::pool.
  template <class Plan>
  typename Plan::Partial scan(const Plan& plan, std::size_t threads) const;

  /// scan() over pool `p` alone, on the calling thread, with the same index
  /// skips, kernel choice and damage policy (a damaged segment throws
  /// FormatError, or under skip_damaged is skipped and counted once). The
  /// live DFG maintainer folds each newly filed record range through this,
  /// so the store.query skip, scan and damage counters include that fold.
  /// Throws ConfigError on an out-of-range pool.
  template <class Plan>
  typename Plan::Partial scan_pool(const Plan& plan, std::size_t p) const {
    check_pool_index(p);
    typename Plan::Partial part{};
    scan_pool_into(plan, part, p, 1);
    return part;
  }

  /// Worker threads aggregate scans may use: 0 = auto (hardware
  /// concurrency), 1 = serial. Scans go parallel only when several sources
  /// are ingested; partial merges keep results identical either way.
  void set_query_threads(std::size_t threads) noexcept {
    query_threads_ = threads;
  }

  /// Pool-index skips on/off (default on). Results are identical either
  /// way; the off position exists so bench_zero_copy can measure the win.
  /// It gates skips only: every ingest path still builds the indexes, and
  /// io_rate_series reads its span from them in both positions.
  void set_use_indexes(bool use) noexcept { use_indexes_ = use; }
  [[nodiscard]] bool use_indexes() const noexcept { return use_indexes_; }

  /// Enable streaming ingest (see StreamIngestOptions). Query results are
  /// identical to one-pool-per-flush ingest — the open era batch is exactly
  /// what compact() would have produced from the individual pools.
  void set_stream_ingest(const StreamIngestOptions& options) {
    stream_ = options;
  }
  /// Close the open era batch (it becomes an ordinary sealed pool that
  /// compact() / the cold tier may merge or spill). Returns whether an open
  /// era existed. The next absorbed flush starts a fresh era.
  bool seal_open_era();

  /// Called after records [begin_record, end_record) of pool `pool` are
  /// filed (any ingest path: new pool, open-era append, attached
  /// container). At most one listener; set an empty function to detach.
  /// The live-DFG maintainer (analysis/dfg/live_dfg.h) hangs off this seam.
  using IngestListener =
      std::function<void(std::size_t pool, std::size_t begin_record,
                         std::size_t end_record)>;
  void set_ingest_listener(IngestListener listener) {
    ingest_listener_ = std::move(listener);
  }

  /// Damage tolerance for queries (ScanPolicy::skip_damaged); default is
  /// fail-fast.
  void set_scan_policy(ScanPolicy policy) noexcept { scan_policy_ = policy; }

  /// Damage skipped by queries so far (grows only under skip_damaged).
  [[nodiscard]] DamageCounters damage_counters() const noexcept {
    return {damage_->blocks.load(std::memory_order_relaxed),
            damage_->records.load(std::memory_order_relaxed)};
  }
  void reset_damage_counters() noexcept {
    damage_->blocks.store(0, std::memory_order_relaxed);
    damage_->records.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] const std::vector<StoreSourceInfo>& sources() const noexcept {
    return sources_;
  }
  [[nodiscard]] long long total_events() const noexcept {
    return total_events_;
  }

  /// A source's events in normalized columnar form (local_start already on
  /// the common timeline). Only available while the source still has its
  /// own owned pool: throws ConfigError for block-backed sources (their
  /// records live in the mapped file, not an EventBatch) and for sources
  /// merged away by compact().
  [[nodiscard]] const trace::EventBatch& source_batch(
      std::size_t source) const;

  /// Per-call-name statistics across every ingested source.
  [[nodiscard]] std::map<std::string, CallStats> call_stats() const;

  /// Events of one rank in timeline order (all sources merged),
  /// materialized for the caller.
  [[nodiscard]] std::vector<trace::TraceEvent> rank_timeline(int rank) const;

  /// Bytes moved by I/O calls inside [begin, end) on the common timeline.
  [[nodiscard]] Bytes bytes_in_window(SimTime begin, SimTime end) const;

  /// I/O rate series: total bytes per fixed-width bucket across the span
  /// of ingested events. Returns (bucket start, bytes) pairs.
  [[nodiscard]] std::vector<std::pair<SimTime, Bytes>> io_rate_series(
      SimTime bucket_width) const;

  /// Hottest files by byte volume (descending), up to `limit`.
  [[nodiscard]] std::vector<FileHeat> hottest_files(std::size_t limit) const;

  /// All dependency edges across sources.
  [[nodiscard]] const std::vector<trace::DependencyEdge>& dependencies()
      const noexcept {
    return dependencies_;
  }

 private:
  /// Built once per pool at ingest (and rebuilt on compaction merge): the
  /// facts that let queries skip a pool without touching its records.
  struct PoolIndex {
    bool any = false;          // pool has at least one record
    SimTime min_time = 0;      // min/max corrected local_start (valid iff any)
    SimTime max_time = 0;
    bool has_fd_path = false;  // some record carries fd >= 0 with a path
    bool has_io_bytes = false; // some I/O-class record moved bytes > 0
    /// Interned ids of the transfer syscalls in this pool's string table
    /// (0 = not interned), resolved once at ingest so windowed queries
    /// never re-search the table (linear for block-backed pools).
    trace::StrId sys_write_id = 0;
    trace::StrId sys_read_id = 0;
    /// name_present[id]: some record's *name* is string id `id` (ids that
    /// only appear as args/paths/hosts stay false).
    std::vector<bool> name_present;

    /// True when string id `id` appears as some record's name (id 0 means
    /// "string not interned in this pool": always false).
    [[nodiscard]] bool has_name(trace::StrId id) const noexcept {
      return id != 0 && id < name_present.size() && name_present[id];
    }
  };

  /// One storage unit: an owned batch (`blocks` disengaged) or a
  /// block-backed mapped IOTB3 file. Covers sources
  /// [first_source, first_source + source_count) — more than one only after
  /// compact().
  struct StorePool {
    trace::EventBatch batch;
    trace::MappedTraceFile file;
    std::optional<trace::BlockView> blocks;
    PoolIndex index;
    std::size_t first_source = 0;
    std::size_t source_count = 1;
    /// Streaming ingest: true while this is the store's open era batch
    /// (always the LAST pool — any non-absorbing ingest seals it first, so
    /// pools stay sorted by first_source); flushes counts the ingest calls
    /// absorbed (0 for pools that never streamed).
    bool open = false;
    std::size_t flushes = 0;
  };

  [[nodiscard]] std::optional<SkewDriftModel> fit_model(
      const std::vector<trace::TraceEvent>& clock_probes,
      StoreSourceInfo& info) const;

  /// Shared tail of the owned-batch ingest overloads: timeline-correct the
  /// batch, account it, index it, and file it as a new source.
  std::size_t ingest_source(
      StoreSourceInfo info, trace::EventBatch batch,
      const std::optional<SkewDriftModel>& model,
      const std::vector<trace::DependencyEdge>& dependencies);

  [[nodiscard]] const StorePool& pool_for(std::size_t source) const;

  /// Bounds check shared by the inline pool accessors.
  void check_pool_index(std::size_t p) const;

  /// (Re)build a pool's skip index: from the footer mini-index of a
  /// block-backed pool, else by folding a full record scan through the
  /// same seam open-era appends extend through (fold_index_records).
  void index_pool(StorePool& pool);

  /// The one index-maintenance seam for owned pools: fold records
  /// [begin, end) of `batch` into `idx` (stamp bounds, presence flags, name
  /// filter). Callers size idx.name_present and resolve the transfer-call
  /// ids; both full ingest scans and incremental open-era appends run
  /// through this.
  static void fold_index_records(PoolIndex& idx,
                                 const trace::EventBatch& batch,
                                 std::size_t begin, std::size_t end);

  /// Absorb a small flush into the open era batch (creating it if needed),
  /// extending the pool index over just the appended suffix, then seal by
  /// size/flush-count. Returns the new source index.
  std::size_t stream_append(
      StoreSourceInfo info, trace::EventBatch batch,
      const std::vector<trace::DependencyEdge>& dependencies);

  /// Re-resolve the open era's transfer-call ids and grow its name filter
  /// after an append re-interned strings, then fold the appended suffix.
  void extend_open_index(StorePool& pool, std::size_t begin, std::size_t end);

  void notify_ingest(std::size_t pool, std::size_t begin, std::size_t end);

  /// scan()'s per-pool step: index skips, dispatch, prefetch, the segment
  /// walk with its damage policy.
  template <class Plan>
  void scan_pool_into(const Plan& plan, typename Plan::Partial& part,
                      std::size_t p, std::size_t prefetch_threads) const;

  /// Damage skipped by queries under ScanPolicy::skip_damaged. Atomics
  /// because parallel query chunks bump them concurrently; boxed so the
  /// store itself stays movable (callers return stores by value).
  struct DamageTally {
    std::atomic<std::uint64_t> blocks{0};
    std::atomic<std::uint64_t> records{0};
  };

  /// Record a skipped segment (const: queries are const, the tally is
  /// deliberately mutable state like the lazy block caches). Also feeds
  /// the store.query.damage_skipped_* metrics; defined out of line so the
  /// header does not pull in util/metrics.h.
  void note_damage(std::uint64_t records) const noexcept;
  /// The store.query skip/scan metrics, fed by scan_pool (out of line for
  /// the same reason).
  void note_pool_skipped() const noexcept;
  void note_segments(std::size_t scanned, std::size_t skipped) const noexcept;

  std::vector<StoreSourceInfo> sources_;
  /// Storage pools in source order (each covering >= 1 source).
  std::vector<StorePool> pools_;
  std::vector<trace::DependencyEdge> dependencies_;
  long long total_events_ = 0;
  std::size_t query_threads_ = 0;  // 0 = auto
  ScanPolicy scan_policy_{};
  std::unique_ptr<DamageTally> damage_ = std::make_unique<DamageTally>();
  /// Next cold-era file number; never reset, so successive cold
  /// compactions cannot collide with era files earlier calls spilled (and
  /// still serve block-backed pools from).
  std::size_t cold_era_seq_ = 0;
  bool use_indexes_ = true;
  std::optional<StreamIngestOptions> stream_;
  IngestListener ingest_listener_;
};

template <class Plan>
typename Plan::Partial UnifiedTraceStore::scan(const Plan& plan,
                                               std::size_t threads) const {
  const std::size_t n = pools_.size();
  const std::size_t budget =
      threads != 0 ? threads
                   : std::max<std::size_t>(
                         1, std::thread::hardware_concurrency());
  const std::size_t chunks = std::max<std::size_t>(std::min(budget, n), 1);
  std::vector<typename Plan::Partial> partials(chunks);
  // Threads chunking leaves idle go to block-parallel decode inside each
  // pool: a single big cold pool gets the whole budget.
  const std::size_t prefetch = std::max<std::size_t>(budget / chunks, 1);
  const auto run_chunk = [&](std::size_t c) {
    for (std::size_t p = n * c / chunks; p < n * (c + 1) / chunks; ++p) {
      scan_pool_into(plan, partials[c], p, prefetch);
    }
  };
  if (chunks == 1) {
    run_chunk(0);
  } else {
    parallel_for(chunks, run_chunk, chunks);
  }
  for (std::size_t c = 1; c < chunks; ++c) {
    plan.merge(partials[0], partials[c]);
  }
  return std::move(partials[0]);
}

template <class Plan>
void UnifiedTraceStore::scan_pool_into(const Plan& plan,
                                       typename Plan::Partial& part,
                                       std::size_t p,
                                       std::size_t prefetch_threads) const {
  using Partial = typename Plan::Partial;
  constexpr bool kHot = requires(Partial& pt, const std::uint8_t* b,
                                 const ScanSegment& s) { plan.hot(pt, b, s); };
  constexpr bool kRaw = requires(Partial& pt, const std::uint8_t* b,
                                 const ScanSegment& s) { plan.raw(pt, b, s); };
  const ScanFilter& f = plan.filter;
  const PoolIndex& idx = pools_[p].index;
  if (use_indexes_ &&
      (!idx.any ||
       (f.window && (idx.max_time < f.window->first ||
                     idx.min_time >= f.window->second)) ||
       (f.transfer_calls && !idx.has_name(idx.sys_write_id) &&
        !idx.has_name(idx.sys_read_id)) ||
       (f.fd_path_or_io_bytes && !idx.has_fd_path && !idx.has_io_bytes))) {
    note_pool_skipped();
    return;
  }
  with_pool_access(p, [&](const auto& acc) {
    const std::size_t segments = acc.segment_count();
    std::vector<std::size_t> touched;
    touched.reserve(segments);
    std::size_t skipped = 0;
    for (std::size_t k = 0; k < segments; ++k) {
      if (use_indexes_ &&
          ((f.window &&
            !acc.segment_overlaps(k, f.window->first, f.window->second)) ||
           (f.transfer_calls && !acc.segment_has_name(k, idx.sys_write_id) &&
            !acc.segment_has_name(k, idx.sys_read_id)) ||
           (f.fd_path_or_io_bytes && !acc.segment_has_fd_path(k) &&
            !acc.segment_has_io_bytes(k)) ||
           (f.io_call && !acc.segment_has_io_call(k)))) {
        ++skipped;  // a skipped block stays compressed on disk
        continue;
      }
      if (acc.segment_begin(k) != acc.segment_end(k)) {
        touched.push_back(k);
      }
    }
    note_segments(touched.size(), skipped);
    acc.segment_prefetch(touched, prefetch_threads, kHot);
    const auto walk = [&] {
      for (const std::size_t k : touched) {
        const ScanSegment seg{p,
                              acc.segment_begin(k),
                              acc.segment_end(k),
                              acc.segment_args_begin(k),
                              idx.sys_write_id,
                              idx.sys_read_id};
        // Segment decode is all-or-nothing: a damaged block throws before
        // a kernel sees any of its records, so skipping it under
        // skip_damaged drops exactly that segment.
        try {
          if constexpr (kHot) {
            if (const std::uint8_t* hot = acc.segment_hot_bytes(k)) {
              plan.hot(part, hot, seg);
              continue;
            }
          }
          if constexpr (kRaw) {
            if (const std::uint8_t* raw = acc.segment_record_bytes(k)) {
              plan.raw(part, raw, seg);
              continue;
            }
          }
          plan.records(part, acc, seg);
        } catch (const FormatError&) {
          if (!scan_policy_.skip_damaged) {
            throw;
          }
          note_damage(seg.size());
        }
      }
    };
    if constexpr (requires { plan.pool(part, acc, walk); }) {
      plan.pool(part, acc, walk);
    } else {
      walk();
    }
  });
}

}  // namespace iotaxo::analysis
