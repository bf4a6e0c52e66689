#include "analysis/unified_store.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <unordered_map>

#include "analysis/store_manifest.h"
#include "trace/scan_kernels.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace iotaxo::analysis {

namespace {

/// Handles bound once; every record call is one relaxed load when metrics
/// are disarmed (util/metrics.h). Segment/pool counts are added once per
/// pool per query, never per record, so the armed cost stays off the
/// scan loops.
struct StoreMetrics {
  obs::Counter& queries = obs::counter("store.query.count");
  obs::Counter& pools_skipped = obs::counter("store.query.pools_skipped");
  obs::Counter& segments_scanned = obs::counter("store.query.segments_scanned");
  obs::Counter& segments_skipped = obs::counter("store.query.segments_skipped");
  obs::Counter& damage_blocks = obs::counter("store.query.damage_skipped_blocks");
  obs::Counter& damage_records = obs::counter("store.query.damage_skipped_records");
  obs::Histogram& call_stats_ns = obs::histogram("store.query.call_stats_ns");
  obs::Histogram& rank_timeline_ns = obs::histogram("store.query.rank_timeline_ns");
  obs::Histogram& bytes_in_window_ns = obs::histogram("store.query.bytes_in_window_ns");
  obs::Histogram& io_rate_series_ns = obs::histogram("store.query.io_rate_series_ns");
  obs::Histogram& hottest_files_ns = obs::histogram("store.query.hottest_files_ns");
  obs::Counter& compact_calls = obs::counter("store.compact.calls");
  obs::Counter& eras_spilled = obs::counter("store.compact.eras_spilled");
  obs::Counter& compact_bytes = obs::counter("store.compact.bytes_written");
  obs::Counter& manifest_commits = obs::counter("store.compact.manifest_commits");
  obs::Histogram& spill_ns = obs::histogram("store.compact.spill_ns");
  obs::Histogram& attach_ns = obs::histogram("store.attach.duration_ns");
  obs::Counter& attach_recovered = obs::counter("store.attach.recovered_eras");
  obs::Counter& attach_quarantined = obs::counter("store.attach.quarantined");
  obs::Counter& attach_torn_tmps = obs::counter("store.attach.torn_tmps_removed");
  obs::Counter& ingest_flushes = obs::counter("ingest.flushes");
  obs::Counter& ingest_events = obs::counter("ingest.events");
  obs::Counter& era_seals = obs::counter("ingest.era_seals");
};

StoreMetrics& metrics() {
  static StoreMetrics m;
  return m;
}

/// Transfer-syscall test against the segment's pool ids (PoolIndex); id 0
/// (the empty string) marks "not interned in this pool" because no event
/// has an empty name.
[[nodiscard]] bool is_transfer(trace::EventClass cls, trace::StrId name,
                               const ScanSegment& seg) noexcept {
  return cls == trace::EventClass::kSyscall &&
         ((seg.sys_write != 0 && name == seg.sys_write) ||
          (seg.sys_read != 0 && name == seg.sys_read));
}

[[nodiscard]] StoreSourceInfo parse_source_info(
    const std::map<std::string, std::string>& metadata) {
  StoreSourceInfo info;
  const auto framework_it = metadata.find("framework");
  info.framework =
      framework_it == metadata.end() ? "(unknown)" : framework_it->second;
  const auto app_it = metadata.find("application");
  info.application = app_it == metadata.end() ? "(unknown)" : app_it->second;
  return info;
}

/// Rewrite one record's local_start onto the common timeline; ranks the
/// probe set does not cover keep their raw stamps.
void correct_record(trace::EventBatch& batch, std::size_t i,
                    const SkewDriftModel& model) {
  const trace::EventRecord& rec = batch.record(i);
  if (rec.rank < 0) {
    return;
  }
  try {
    batch.set_local_start(i, model.correct(rec.rank, rec.local_start));
  } catch (const Error&) {
    // rank missing from the probe set; keep the raw stamp
  }
}

/// Approximate resident footprint of an owned pool — the quantity
/// compact() sizes eras by.
[[nodiscard]] std::size_t approx_batch_bytes(const trace::EventBatch& batch) {
  // O(1): the seal check runs once per streamed flush, so this must not
  // walk records or the string pool.
  return batch.size() * sizeof(trace::EventRecord) +
         batch.arg_ids().size() * sizeof(trace::StrId) +
         batch.pool().byte_size();
}

}  // namespace

void UnifiedTraceStore::index_pool(StorePool& pool) {
  PoolIndex idx;
  if (pool.blocks.has_value()) {
    // Block-backed pools are indexed from the footer mini-index alone: the
    // per-block min/max stamps, flag bits and name bitmaps OR together into
    // the pool-level facts, so ingesting (or cold-compacting to) an IOTB3
    // container never decompresses a record block.
    const trace::BlockView& v = *pool.blocks;
    idx.sys_write_id = v.find_string("SYS_write").value_or(0);
    idx.sys_read_id = v.find_string("SYS_read").value_or(0);
    idx.name_present.assign(v.string_count(), false);
    const std::size_t nblocks = v.block_count();
    for (std::size_t b = 0; b < nblocks; ++b) {
      if (!idx.any) {
        idx.min_time = v.block_min_time(b);
        idx.max_time = v.block_max_time(b);
        idx.any = true;
      } else {
        idx.min_time = std::min(idx.min_time, v.block_min_time(b));
        idx.max_time = std::max(idx.max_time, v.block_max_time(b));
      }
      idx.has_fd_path = idx.has_fd_path || v.block_has_fd_path(b);
      idx.has_io_bytes = idx.has_io_bytes || v.block_has_io_bytes(b);
      for (trace::StrId id = 1; id < idx.name_present.size(); ++id) {
        if (!idx.name_present[id] && v.block_has_name(b, id)) {
          idx.name_present[id] = true;
        }
      }
    }
    pool.index = std::move(idx);
    return;
  }
  const trace::StringPool& strings = pool.batch.pool();
  idx.sys_write_id = strings.find("SYS_write").value_or(0);
  idx.sys_read_id = strings.find("SYS_read").value_or(0);
  idx.name_present.assign(strings.size(), false);
  fold_index_records(idx, pool.batch, 0, pool.batch.size());
  pool.index = std::move(idx);
}

void UnifiedTraceStore::fold_index_records(PoolIndex& idx,
                                           const trace::EventBatch& batch,
                                           std::size_t begin,
                                           std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const trace::EventRecord& rec = batch.record(i);
    idx.name_present[rec.name] = true;
    if (!idx.any) {
      idx.min_time = idx.max_time = rec.local_start;
      idx.any = true;
    } else {
      idx.min_time = std::min(idx.min_time, rec.local_start);
      idx.max_time = std::max(idx.max_time, rec.local_start);
    }
    if (rec.path != 0 && rec.fd >= 0) {
      idx.has_fd_path = true;
    }
    if (rec.is_io_call() && rec.bytes > 0) {
      idx.has_io_bytes = true;
    }
  }
}

std::optional<SkewDriftModel> UnifiedTraceStore::fit_model(
    const std::vector<trace::TraceEvent>& clock_probes,
    StoreSourceInfo& info) const {
  if (clock_probes.empty()) {
    return std::nullopt;
  }
  try {
    SkewDriftModel model = SkewDriftModel::fit(clock_probes);
    info.time_corrected = true;
    return model;
  } catch (const Error&) {
    return std::nullopt;  // incomplete probe sets: fall back to raw stamps
  }
}

std::size_t UnifiedTraceStore::ingest_source(
    StoreSourceInfo info, trace::EventBatch batch,
    const std::optional<SkewDriftModel>& model,
    const std::vector<trace::DependencyEdge>& dependencies) {
  if (model.has_value()) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      correct_record(batch, i, *model);
    }
  }
  metrics().ingest_flushes.add(1);
  metrics().ingest_events.add(batch.size());
  if (stream_.has_value() && batch.size() <= stream_->flush_events) {
    return stream_append(std::move(info), std::move(batch), dependencies);
  }
  // Any non-absorbing ingest closes the open era first, so it stays the
  // last pool and pool order stays source order.
  seal_open_era();
  info.events = static_cast<long long>(batch.size());
  total_events_ += info.events;
  dependencies_.insert(dependencies_.end(), dependencies.begin(),
                       dependencies.end());
  const std::size_t source_index = sources_.size();
  sources_.push_back(std::move(info));
  StorePool pool;
  pool.batch = std::move(batch);
  pool.first_source = source_index;
  index_pool(pool);
  pools_.push_back(std::move(pool));
  notify_ingest(pools_.size() - 1, 0, pools_.back().batch.size());
  return source_index;
}

std::size_t UnifiedTraceStore::stream_append(
    StoreSourceInfo info, trace::EventBatch batch,
    const std::vector<trace::DependencyEdge>& dependencies) {
  info.events = static_cast<long long>(batch.size());
  total_events_ += info.events;
  dependencies_.insert(dependencies_.end(), dependencies.begin(),
                       dependencies.end());
  const std::size_t source_index = sources_.size();
  sources_.push_back(std::move(info));
  if (pools_.empty() || !pools_.back().open) {
    StorePool pool;
    pool.batch = std::move(batch);
    pool.first_source = source_index;
    pool.open = true;
    pool.flushes = 1;
    index_pool(pool);
    pools_.push_back(std::move(pool));
    notify_ingest(pools_.size() - 1, 0, pools_.back().batch.size());
  } else {
    // Appending re-interns string ids, exactly as compact() merging these
    // pools later would have — which is why era-ingested stores answer
    // every query bit-identically to one-pool-per-flush stores.
    StorePool& pool = pools_.back();
    const std::size_t old_size = pool.batch.size();
    pool.batch.append(batch);
    pool.source_count += 1;
    pool.flushes += 1;
    extend_open_index(pool, old_size, pool.batch.size());
    notify_ingest(pools_.size() - 1, old_size, pool.batch.size());
  }
  const StorePool& era = pools_.back();
  if (approx_batch_bytes(era.batch) >= stream_->era_bytes ||
      (stream_->era_flushes != 0 && era.flushes >= stream_->era_flushes)) {
    seal_open_era();
  }
  return source_index;
}

void UnifiedTraceStore::extend_open_index(StorePool& pool, std::size_t begin,
                                          std::size_t end) {
  PoolIndex& idx = pool.index;
  // The append re-interned: the transfer calls may have just (re)appeared
  // and the string table may have grown. StringPool::find is a hash
  // lookup, so this stays O(appended records), never a rescan.
  idx.sys_write_id = pool.batch.pool().find("SYS_write").value_or(0);
  idx.sys_read_id = pool.batch.pool().find("SYS_read").value_or(0);
  if (idx.name_present.size() < pool.batch.pool().size()) {
    idx.name_present.resize(pool.batch.pool().size(), false);
  }
  fold_index_records(idx, pool.batch, begin, end);
}

bool UnifiedTraceStore::seal_open_era() {
  if (pools_.empty() || !pools_.back().open) {
    return false;
  }
  pools_.back().open = false;
  metrics().era_seals.add(1);
  return true;
}

void UnifiedTraceStore::notify_ingest(std::size_t pool, std::size_t begin,
                                      std::size_t end) {
  if (ingest_listener_ && begin != end) {
    ingest_listener_(pool, begin, end);
  }
}

std::size_t UnifiedTraceStore::ingest(const trace::TraceBundle& bundle) {
  StoreSourceInfo info = parse_source_info(bundle.metadata);
  const std::optional<SkewDriftModel> model =
      fit_model(bundle.clock_probes, info);

  trace::EventBatch batch;
  for (const trace::RankStream& rs : bundle.ranks) {
    for (const trace::TraceEvent& ev : rs.events) {
      batch.append(ev);
    }
  }
  return ingest_source(std::move(info), std::move(batch), model,
                       bundle.dependencies);
}

std::size_t UnifiedTraceStore::ingest(
    const trace::EventBatch& batch,
    const std::map<std::string, std::string>& metadata,
    const std::vector<trace::TraceEvent>& clock_probes,
    const std::vector<trace::DependencyEdge>& dependencies) {
  StoreSourceInfo info = parse_source_info(metadata);
  const std::optional<SkewDriftModel> model = fit_model(clock_probes, info);

  trace::EventBatch stored;
  stored.append(batch);  // re-intern into the store's own pool
  return ingest_source(std::move(info), std::move(stored), model,
                       dependencies);
}

std::size_t UnifiedTraceStore::ingest_view(
    trace::MappedTraceFile file,
    const std::map<std::string, std::string>& metadata,
    const std::optional<CipherKey>& key) {
  if (trace::peek_binary_header(file.bytes()).version != 3) {
    // IOTB1/IOTB2: imported, not served in place — the decode verifies the
    // whole-payload CRC, and the batch files like any owned ingest.
    return ingest(trace::decode_binary_batch(file.bytes(), key), metadata);
  }
  // The view borrows the mapped bytes; MappedTraceFile guarantees they do
  // not relocate when the file object itself is moved into the pool.
  trace::BlockView view(file.bytes(), key);
  metrics().ingest_flushes.add(1);
  metrics().ingest_events.add(view.size());
  if (stream_.has_value() && view.size() <= stream_->flush_events) {
    trace::EventBatch batch = view.to_batch();
    return stream_append(parse_source_info(metadata), std::move(batch), {});
  }
  seal_open_era();
  StorePool pool;
  pool.blocks.emplace(std::move(view));
  pool.file = std::move(file);

  StoreSourceInfo info = parse_source_info(metadata);
  info.events = static_cast<long long>(pool.blocks->size());
  info.block_backed = true;
  total_events_ += info.events;

  const std::size_t source_index = sources_.size();
  pool.first_source = source_index;
  index_pool(pool);
  sources_.push_back(std::move(info));
  pools_.push_back(std::move(pool));
  notify_ingest(pools_.size() - 1, 0,
                static_cast<std::size_t>(sources_.back().events));
  return source_index;
}

std::size_t UnifiedTraceStore::ingest_view(
    const std::string& path,
    const std::map<std::string, std::string>& metadata,
    const std::optional<CipherKey>& key) {
  // A block-backed open touches only the head and footer pages — don't
  // prefault the block pages; they fault in when a query needs them.
  return ingest_view(trace::MappedTraceFile(path, /*prefault=*/false),
                     metadata, key);
}

std::size_t UnifiedTraceStore::compact(std::size_t era_bytes) {
  metrics().compact_calls.add(1);
  // Compaction is an era boundary: the open era is sealed and becomes an
  // ordinary merge candidate (the cold overload inherits this via the
  // delegation below).
  seal_open_era();
  std::vector<StorePool> merged;
  merged.reserve(pools_.size());
  std::size_t i = 0;
  while (i < pools_.size()) {
    StorePool era = std::move(pools_[i]);
    ++i;
    if (era.blocks.has_value()) {
      merged.push_back(std::move(era));  // never re-materialized
      continue;
    }
    std::size_t era_size = approx_batch_bytes(era.batch);
    bool grew = false;
    while (i < pools_.size() && !pools_[i].blocks.has_value()) {
      const std::size_t next = approx_batch_bytes(pools_[i].batch);
      if (era_size + next > era_bytes) {
        break;
      }
      // Record order within the era stays source order, so every query
      // (including hottest_files' cross-source fd carryover fold) sees
      // exactly the records the uncompacted pools would have produced.
      era.batch.append(pools_[i].batch);
      era.source_count += pools_[i].source_count;
      era_size += next;
      grew = true;
      ++i;
    }
    if (grew) {
      index_pool(era);  // ids were re-interned; rebuild the presence filter
    }
    merged.push_back(std::move(era));
  }
  pools_ = std::move(merged);
  return pools_.size();
}

std::size_t UnifiedTraceStore::compact(std::size_t era_bytes,
                                       const ColdTierOptions& cold) {
  compact(era_bytes);
  // The directory's commit record: load it up front so era numbering
  // continues past everything already committed there (by this store, an
  // earlier incarnation, or another writer using the same directory).
  StoreManifest manifest =
      StoreManifest::load(cold.directory).value_or(StoreManifest{});
  cold_era_seq_ = std::max(cold_era_seq_,
                           static_cast<std::size_t>(manifest.next_seq));
  for (StorePool& pool : pools_) {
    if (pool.blocks.has_value()) {
      continue;  // already cold (or zero-copy ingested)
    }
    fail::point("store.cold.spill");
    // Covers the whole spill: encode, durable write, manifest commit and
    // the swap onto the mapped container.
    const obs::ScopedTimer spill_timer(metrics().spill_ns);
    const std::vector<std::uint8_t> container =
        trace::encode_binary_v3(pool.batch, cold.binary, cold.block_records);
    // Era numbers come from a store-lifetime counter, never per-call: an
    // earlier compaction's era file may still back a live block pool's
    // mmap, and truncating it would SIGBUS every query on that pool.
    const std::uint64_t seq = cold_era_seq_;
    const std::string name =
        cold.file_prefix + "-" + std::to_string(seq) + ".iotb3";
    const std::string path = cold.directory + "/" + name;
    if (std::filesystem::exists(path)) {
      throw IoError("unified store: cold era '" + path +
                    "' already exists; refusing to overwrite");
    }
    // Durable era first (tmp + fsync + atomic rename + dirsync), then the
    // manifest through the same protocol. The manifest rename is the
    // commit point: a crash anywhere earlier leaves at worst a torn .tmp
    // (deleted by recovery) or an uncommitted era file (quarantined, never
    // served) — the previously committed state is untouched either way.
    trace::write_binary_file(path, container, "store.cold");
    ++cold_era_seq_;
    manifest.entries.push_back({name, container.size(),
                                crc32(std::span<const std::uint8_t>(
                                    container.data(), container.size())),
                                seq});
    manifest.next_seq = cold_era_seq_;
    fail::point("store.manifest.update");
    manifest.store(cold.directory);
    metrics().eras_spilled.add(1);
    metrics().compact_bytes.add(container.size());
    metrics().manifest_commits.add(1);
    trace::MappedTraceFile file(path);
    fail::point("store.cold.swap");
    // Swap-in must open what was just written: an encrypted era needs the
    // same key the encoder was handed.
    trace::BlockView view(file.bytes(), cold.binary.encrypt
                                           ? cold.binary.key
                                           : std::optional<CipherKey>{});
    // Swap the pool onto the container before releasing the batch, so a
    // failed map/open above leaves the store untouched.
    pool.blocks.emplace(std::move(view));
    pool.file = std::move(file);
    pool.batch = trace::EventBatch();
    for (std::size_t s = pool.first_source;
         s < pool.first_source + pool.source_count; ++s) {
      sources_[s].block_backed = true;
    }
    index_pool(pool);  // rebuilt from the footer (ids are unchanged)
  }
  return pools_.size();
}

namespace {

/// The era sequence number from "<prefix>-<n>.iotb3"-style names; nullopt
/// when the stem has no trailing "-<digits>".
[[nodiscard]] std::optional<std::uint64_t> parse_era_seq(
    const std::string& name) {
  const std::string stem = std::filesystem::path(name).stem().string();
  const std::size_t dash = stem.rfind('-');
  if (dash == std::string::npos || dash + 1 == stem.size()) {
    return std::nullopt;
  }
  std::uint64_t v = 0;
  for (std::size_t i = dash + 1; i < stem.size(); ++i) {
    if (stem[i] < '0' || stem[i] > '9') {
      return std::nullopt;
    }
    v = v * 10 + static_cast<std::uint64_t>(stem[i] - '0');
  }
  return v;
}

/// Recovery candidates are the container files (.iotb/.iotb2/.iotb3);
/// anything else in the directory (logs, READMEs) is simply ignored.
[[nodiscard]] bool is_container_name(const std::string& name) {
  const std::string ext = std::filesystem::path(name).extension().string();
  return ext.rfind(".iotb", 0) == 0;
}

}  // namespace

StoreHealth UnifiedTraceStore::attach_dir(const std::string& directory,
                                          const AttachOptions& options) {
  namespace fs = std::filesystem;
  const obs::ScopedTimer attach_timer(metrics().attach_ns);
  StoreHealth health;
  std::error_code ec;
  fs::directory_iterator dir_it(directory, ec);
  if (ec) {
    throw IoError("unified store: cannot read directory '" + directory +
                  "'");
  }

  // Pass 1: sweep torn write leftovers and collect container candidates.
  // A .tmp file is by construction uncommitted (the protocol renames it
  // away before the manifest commit), so deleting it can never lose data.
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : dir_it) {
    if (!entry.is_regular_file(ec)) {
      continue;
    }
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      fs::remove(entry.path(), ec);
      if (!ec) {
        ++health.torn_tmps_removed;
        IOTAXO_LOG(LogLevel::kInfo)
            << "attach_dir: removed torn write leftover '" << name << "'";
      }
      continue;
    }
    if (name == kManifestFileName) {
      continue;
    }
    if (is_container_name(name)) {
      names.push_back(name);
    }
  }
  // Attach order must not depend on directory iteration order: sort by
  // era sequence (then name), the order the eras were committed in.
  std::sort(names.begin(), names.end(),
            [](const std::string& a, const std::string& b) {
              const auto sa = parse_era_seq(a);
              const auto sb = parse_era_seq(b);
              if (sa.has_value() != sb.has_value()) {
                return sb.has_value();  // unnumbered names last
              }
              if (sa.has_value() && *sa != *sb) {
                return *sa < *sb;
              }
              return a < b;
            });

  // Whatever happens below, later cold compactions into this directory
  // must not collide with any file already present — committed or not.
  for (const std::string& name : names) {
    if (const auto seq = parse_era_seq(name)) {
      cold_era_seq_ =
          std::max(cold_era_seq_, static_cast<std::size_t>(*seq) + 1);
    }
  }

  const auto quarantine = [&health](const std::string& file,
                                    std::string reason) {
    IOTAXO_LOG(LogLevel::kWarn)
        << "attach_dir: quarantined '" << file << "': " << reason;
    health.quarantined.push_back({file, std::move(reason)});
  };

  // Pass 2: the manifest decides what is committed. A corrupt manifest is
  // itself quarantined and recovery degrades to open-validation of every
  // container (the pre-manifest behavior) rather than refusing the
  // directory.
  std::optional<StoreManifest> manifest;
  try {
    manifest = StoreManifest::load(directory);
  } catch (const Error& e) {
    quarantine(std::string(kManifestFileName), e.what());
  }

  if (manifest.has_value()) {
    cold_era_seq_ = std::max(
        cold_era_seq_, static_cast<std::size_t>(manifest->next_seq));
    std::set<std::string> listed;
    for (const ManifestEntry& e : manifest->entries) {
      listed.insert(e.name);
      const std::string path = directory + "/" + e.name;
      std::error_code sec;
      const std::uintmax_t size = fs::file_size(path, sec);
      if (sec) {
        quarantine(e.name, "listed in manifest but missing on disk");
        continue;
      }
      if (size != e.size) {
        quarantine(e.name, "size " + std::to_string(size) +
                               " != manifest's " + std::to_string(e.size));
        continue;
      }
      try {
        trace::MappedTraceFile file(path);
        if (crc32(file.bytes()) != e.crc) {
          quarantine(e.name, "file CRC does not match the manifest");
          continue;
        }
        ingest_view(std::move(file), options.metadata, options.key);
        ++health.recovered_eras;
      } catch (const Error& err) {
        quarantine(e.name, err.what());
      }
    }
    for (const std::string& name : names) {
      if (listed.find(name) == listed.end()) {
        quarantine(name,
                   "not committed in the manifest (crash between era "
                   "rename and manifest update?)");
      }
    }
  } else {
    // No trustworthy manifest: serve every container that opens and
    // validates cleanly, quarantine the rest.
    for (const std::string& name : names) {
      try {
        ingest_view(directory + "/" + name, options.metadata, options.key);
        ++health.recovered_eras;
      } catch (const Error& err) {
        quarantine(name, err.what());
      }
    }
  }
  metrics().attach_recovered.add(health.recovered_eras);
  metrics().attach_quarantined.add(health.quarantined.size());
  metrics().attach_torn_tmps.add(health.torn_tmps_removed);
  IOTAXO_LOG(LogLevel::kInfo)
      << "attach_dir: '" << directory << "' recovered "
      << health.recovered_eras << " era(s), quarantined "
      << health.quarantined.size() << ", removed "
      << health.torn_tmps_removed << " torn tmp(s)";
  return health;
}

std::vector<StorePoolInfo> UnifiedTraceStore::pool_infos() const {
  std::vector<StorePoolInfo> infos;
  infos.reserve(pools_.size());
  for (const StorePool& pool : pools_) {
    StorePoolInfo info;
    info.first_source = pool.first_source;
    info.source_count = pool.source_count;
    if (pool.blocks.has_value()) {
      info.block_backed = true;
      info.blocks = pool.blocks->block_count();
      info.records = static_cast<long long>(pool.blocks->size());
      info.approx_bytes = pool.file.size();
      info.encrypted = pool.blocks->encrypted();
      info.projected = pool.blocks->projected();
      info.stored_bytes = pool.blocks->stored_bytes_total();
      info.decoded_stored_bytes = pool.blocks->decoded_stored_bytes();
      info.damaged_blocks = pool.blocks->failed_blocks();
    } else {
      info.records = static_cast<long long>(pool.batch.size());
      info.approx_bytes = approx_batch_bytes(pool.batch);
    }
    info.any = pool.index.any;
    if (info.any) {
      info.min_time = pool.index.min_time;
      info.max_time = pool.index.max_time;
    }
    info.open_era = pool.open;
    info.flushes_absorbed = pool.flushes;
    infos.push_back(info);
  }
  return infos;
}

void UnifiedTraceStore::check_pool_index(std::size_t p) const {
  if (p >= pools_.size()) {
    throw ConfigError("unified store: pool index out of range");
  }
}

const UnifiedTraceStore::StorePool& UnifiedTraceStore::pool_for(
    std::size_t source) const {
  // Pools are sorted by first_source; find the last pool starting at or
  // before `source`.
  const auto it = std::upper_bound(
      pools_.begin(), pools_.end(), source,
      [](std::size_t s, const StorePool& p) { return s < p.first_source; });
  return *(it - 1);
}

const trace::EventBatch& UnifiedTraceStore::source_batch(
    std::size_t source) const {
  if (source >= sources_.size()) {
    throw ConfigError("unified store: source index out of range");
  }
  const StorePool& pool = pool_for(source);
  if (pool.blocks.has_value()) {
    throw ConfigError(
        "unified store: source is block-backed; its records live in the "
        "mapped container, not an owned batch");
  }
  if (pool.source_count != 1) {
    throw ConfigError(
        "unified store: source was merged into an era by compact(); "
        "per-source batches no longer exist");
  }
  return pool.batch;
}

void UnifiedTraceStore::note_damage(std::uint64_t records) const noexcept {
  damage_->blocks.fetch_add(1, std::memory_order_relaxed);
  damage_->records.fetch_add(records, std::memory_order_relaxed);
  metrics().damage_blocks.add(1);
  metrics().damage_records.add(records);
}

void UnifiedTraceStore::note_pool_skipped() const noexcept {
  metrics().pools_skipped.add(1);
}

void UnifiedTraceStore::note_segments(std::size_t scanned,
                                      std::size_t skipped) const noexcept {
  metrics().segments_scanned.add(scanned);
  metrics().segments_skipped.add(skipped);
}

// The five queries as plans over scan() (see its contract in
// unified_store.h). Plans are namespace-scope structs because their
// kernels are templates over the accessor type.
namespace {

/// call_stats: accumulate per string id into a flat row table (the SIMD
/// kernels' scatter target), then fold a pool's touched rows into the
/// chunk's name map — one map lookup per distinct name per pool.
struct CallStatsPlan {
  struct Partial {
    std::map<std::string, CallStats> stats;
    std::vector<trace::scan::CallAccum> rows;
  };
  ScanFilter filter{};

  static void add(CallStats& into, long long count, SimTime time,
                  Bytes bytes) {
    into.count += count;
    into.total_time += time;
    into.total_bytes += bytes;
  }
  template <class Acc, class Body>
  void pool(Partial& part, const Acc& acc, Body&& walk) const {
    part.rows.assign(acc.string_count(), trace::scan::CallAccum{});
    walk();
    for (std::size_t id = 0; id < part.rows.size(); ++id) {
      const trace::scan::CallAccum& row = part.rows[id];
      if (row.count != 0) {
        add(part.stats[std::string(acc.string(static_cast<trace::StrId>(id)))],
            row.count, row.time, row.bytes);
      }
    }
  }
  void hot(Partial& part, const std::uint8_t* hot,
           const ScanSegment& seg) const {
    trace::scan::accumulate_call_stats_hot(hot, seg.size(), part.rows.data());
  }
  void raw(Partial& part, const std::uint8_t* raw,
           const ScanSegment& seg) const {
    trace::scan::accumulate_call_stats(raw, seg.size(), part.rows.data());
  }
  template <class Acc>
  void records(Partial& part, const Acc& acc, const ScanSegment& seg) const {
    for (std::size_t i = seg.begin; i < seg.end; ++i) {
      const auto& rec = acc.record(i);
      trace::scan::CallAccum& row = part.rows[rec.name];
      ++row.count;
      row.time += rec.duration;
      if (rec.is_io_call()) {
        row.bytes += rec.bytes;
      }
    }
  }
  void merge(Partial& into, Partial& from) const {
    for (const auto& [name, s] : from.stats) {
      add(into.stats[name], s.count, s.total_time, s.total_bytes);
    }
  }
};

/// rank_timeline: materialize the rank's records; chunks concatenate in
/// pool order, so the caller's sort sees exactly the serial sequence.
struct RankTimelinePlan {
  using Partial = std::vector<trace::TraceEvent>;
  ScanFilter filter{};
  int rank = 0;

  template <class Acc>
  void records(Partial& out, const Acc& acc, const ScanSegment& seg) const {
    std::uint32_t args_begin = seg.args_begin;
    for (std::size_t i = seg.begin; i < seg.end; ++i) {
      const auto& rec = acc.record(i);
      if (rec.rank == rank) {
        out.push_back(acc.materialize(i, args_begin));
      }
      args_begin += rec.args_count;
    }
  }
  void merge(Partial& into, Partial& from) const {
    into.insert(into.end(), std::make_move_iterator(from.begin()),
                std::make_move_iterator(from.end()));
  }
};

/// bytes_in_window: transfer bytes stamped inside [begin, end).
struct WindowBytesPlan {
  using Partial = Bytes;
  ScanFilter filter;
  SimTime begin = 0;
  SimTime end = 0;

  void hot(Bytes& total, const std::uint8_t* hot,
           const ScanSegment& seg) const {
    total += trace::scan::sum_transfer_bytes_in_window_hot(
        hot, seg.size(), seg.sys_write, seg.sys_read, begin, end);
  }
  void raw(Bytes& total, const std::uint8_t* raw,
           const ScanSegment& seg) const {
    total += trace::scan::sum_transfer_bytes_in_window(
        raw, seg.size(), seg.sys_write, seg.sys_read, begin, end);
  }
  template <class Acc>
  void records(Bytes& total, const Acc& acc, const ScanSegment& seg) const {
    for (std::size_t i = seg.begin; i < seg.end; ++i) {
      const auto& rec = acc.record(i);
      if (is_transfer(rec.cls, rec.name, seg) && rec.local_start >= begin &&
          rec.local_start < end) {
        total += rec.bytes;
      }
    }
  }
  void merge(Bytes& into, Bytes& from) const { into += from; }
};

/// io_rate_series: transfer bytes scattered into fixed-width buckets. One
/// bucket vector per chunk (not per pool), sized by the chunk's first
/// scanned pool, so peak memory stays bounded by thread count even for
/// fine buckets over many pools; bucket additions commute, so the merge is
/// exact.
struct RateSeriesPlan {
  using Partial = std::vector<Bytes>;
  ScanFilter filter;
  SimTime lo = 0;
  SimTime width = 1;
  std::size_t buckets = 0;

  template <class Acc, class Body>
  void pool(Partial& sums, const Acc&, Body&& walk) const {
    sums.resize(buckets, 0);
    walk();
  }
  void hot(Partial& sums, const std::uint8_t* hot,
           const ScanSegment& seg) const {
    for (std::size_t i = 0; i < seg.size(); ++i) {
      const trace::HotRecordView rec(hot + i * trace::hotlayout::kStride);
      if (is_transfer(rec.cls(), rec.name(), seg)) {
        sums[static_cast<std::size_t>((rec.local_start() - lo) / width)] +=
            rec.bytes();
      }
    }
  }
  template <class Acc>
  void records(Partial& sums, const Acc& acc, const ScanSegment& seg) const {
    for (std::size_t i = seg.begin; i < seg.end; ++i) {
      const auto& rec = acc.record(i);
      if (is_transfer(rec.cls, rec.name, seg)) {
        sums[static_cast<std::size_t>((rec.local_start - lo) / width)] +=
            rec.bytes;
      }
    }
  }
  void merge(Partial& into, Partial& from) const {
    into.resize(buckets, 0);  // a chunk whose pools were all skipped
    for (std::size_t i = 0; i < from.size(); ++i) {
      into[i] += from[i];
    }
  }
};

struct HeatTally {
  long long ops = 0;
  Bytes lib_bytes = 0;
  Bytes lower_bytes = 0;  // syscall + VFS views of the same transfers

  // Library wrappers and the syscalls beneath them report the same
  // transfer; the final heat takes whichever view saw more (captures
  // lib-only traces like //TRACE's without double counting ltrace's dual
  // view).
  void add(bool lib, Bytes bytes) {
    ++ops;
    (lib ? lib_bytes : lower_bytes) += bytes;
  }
  void add(const HeatTally& t) {
    ops += t.ops;
    lib_bytes += t.lib_bytes;
    lower_bytes += t.lower_bytes;
  }
};

/// One pool's hottest_files contribution in pool-local string ids: what
/// it resolved locally, the fd -> path writes it leaves behind, and the
/// path-less transfers whose fd it could not resolve.
struct PoolHeat {
  std::unordered_map<trace::StrId, HeatTally> by_path;  // 0 = "(unknown)"
  std::unordered_map<int, trace::StrId> fd_delta;  // last write per fd
  struct Unresolved {
    int fd = -1;
    bool lib = false;
    Bytes bytes = 0;
  };
  std::vector<Unresolved> unresolved;
};

/// hottest_files: the fd -> path map threads serially through the pools,
/// so the scan keeps per-pool state (keyed by pool index) for the serial
/// pool-order fold in hottest_files. Within a pool the local map always
/// wins (it holds the most recent write), exactly the state the serial
/// single-map scan would have seen.
struct HeatPlan {
  struct Partial {};
  ScanFilter filter;
  std::vector<PoolHeat>* pools = nullptr;

  template <class Acc>
  void records(Partial&, const Acc& acc, const ScanSegment& seg) const {
    PoolHeat& heat = (*pools)[seg.pool];
    for (std::size_t i = seg.begin; i < seg.end; ++i) {
      const auto& rec = acc.record(i);
      if (rec.path != 0 && rec.fd >= 0) {
        heat.fd_delta[rec.fd] = rec.path;
      }
      if (!rec.is_io_call() || rec.bytes <= 0) {
        continue;
      }
      const bool lib = rec.cls == trace::EventClass::kLibraryCall;
      trace::StrId path = rec.path;
      if (path == 0 && rec.fd >= 0) {
        const auto it = heat.fd_delta.find(rec.fd);
        if (it == heat.fd_delta.end()) {
          heat.unresolved.push_back({rec.fd, lib, rec.bytes});
          continue;
        }
        path = it->second;
      }
      heat.by_path[path].add(lib, rec.bytes);
    }
  }
  void merge(Partial&, Partial&) const {}
};

}  // namespace

std::map<std::string, CallStats> UnifiedTraceStore::call_stats() const {
  metrics().queries.add(1);
  const obs::ScopedTimer query_timer(metrics().call_stats_ns);
  return scan(CallStatsPlan{}, query_threads_).stats;
}

std::vector<trace::TraceEvent> UnifiedTraceStore::rank_timeline(
    int rank) const {
  metrics().queries.add(1);
  const obs::ScopedTimer query_timer(metrics().rank_timeline_ns);
  std::vector<trace::TraceEvent> out =
      scan(RankTimelinePlan{.rank = rank}, query_threads_);
  std::sort(out.begin(), out.end(),
            [](const trace::TraceEvent& a, const trace::TraceEvent& b) {
              return a.local_start < b.local_start;
            });
  return out;
}

Bytes UnifiedTraceStore::bytes_in_window(SimTime begin, SimTime end) const {
  metrics().queries.add(1);
  const obs::ScopedTimer query_timer(metrics().bytes_in_window_ns);
  return scan(WindowBytesPlan{.filter = {.window = std::pair(begin, end),
                                         .transfer_calls = true},
                              .begin = begin,
                              .end = end},
              query_threads_);
}

std::vector<std::pair<SimTime, Bytes>> UnifiedTraceStore::io_rate_series(
    SimTime bucket_width) const {
  metrics().queries.add(1);
  const obs::ScopedTimer query_timer(metrics().io_rate_series_ns);
  std::vector<std::pair<SimTime, Bytes>> series;
  if (total_events_ == 0 || bucket_width <= 0) {
    return series;
  }
  // The span comes from the pool indexes, which every ingest path builds
  // (use_indexes gates skips only): a pool-count loop, no record touched.
  bool any = false;
  SimTime lo = 0;
  SimTime hi = 0;
  for (const StorePool& pool : pools_) {
    if (pool.index.any) {
      lo = any ? std::min(lo, pool.index.min_time) : pool.index.min_time;
      hi = any ? std::max(hi, pool.index.max_time) : pool.index.max_time;
      any = true;
    }
  }
  if (!any) {
    return series;
  }
  const auto buckets = static_cast<std::size_t>((hi - lo) / bucket_width) + 1;
  std::vector<Bytes> sums =
      scan(RateSeriesPlan{.filter = {.transfer_calls = true},
                          .lo = lo,
                          .width = bucket_width,
                          .buckets = buckets},
           query_threads_);
  sums.resize(buckets, 0);
  series.reserve(buckets);
  for (std::size_t i = 0; i < buckets; ++i) {
    series.emplace_back(lo + static_cast<SimTime>(i) * bucket_width, sums[i]);
  }
  return series;
}

std::vector<FileHeat> UnifiedTraceStore::hottest_files(
    std::size_t limit) const {
  metrics().queries.add(1);
  const obs::ScopedTimer query_timer(metrics().hottest_files_ns);
  // A pool with neither fd/path records nor byte-moving I/O calls writes
  // no fd delta and contributes no transfers, so skipping it leaves the
  // fold's carried state untouched.
  std::vector<PoolHeat> heats(pools_.size());
  scan(HeatPlan{.filter = {.fd_path_or_io_bytes = true}, .pools = &heats},
       query_threads_);

  // Serial fold in pool order: resolve each pool's leftovers against the
  // fd -> path state carried from earlier pools, then let its own writes
  // update that state. Ids turn into strings here, once per touched id.
  std::map<std::string, HeatTally> by_path;
  std::map<int, std::string> carried;
  for (std::size_t p = 0; p < heats.size(); ++p) {
    const PoolHeat& heat = heats[p];
    for (const PoolHeat::Unresolved& u : heat.unresolved) {
      const auto it = carried.find(u.fd);
      by_path[it == carried.end() ? std::string("(unknown)") : it->second]
          .add(u.lib, u.bytes);
    }
    if (heat.by_path.empty() && heat.fd_delta.empty()) {
      continue;
    }
    with_pool_access(p, [&](const auto& acc) {
      for (const auto& [id, tally] : heat.by_path) {
        by_path[id == 0 ? std::string("(unknown)")
                        : std::string(acc.string(id))]
            .add(tally);
      }
      for (const auto& [fd, id] : heat.fd_delta) {
        carried[fd] = acc.string(id);
      }
    });
  }

  std::vector<FileHeat> out;
  out.reserve(by_path.size());
  for (const auto& [path, tally] : by_path) {
    out.push_back(
        {path, tally.ops, std::max(tally.lib_bytes, tally.lower_bytes)});
  }
  std::sort(out.begin(), out.end(), [](const FileHeat& a, const FileHeat& b) {
    return a.bytes > b.bytes;
  });
  if (out.size() > limit) {
    out.resize(limit);
  }
  return out;
}

}  // namespace iotaxo::analysis
