// iotaxo — command-line front end to the toolkit.
//
//   iotaxo trace    --framework lanl|tracefs|partrace --workload mpiio|meta
//                   [--pattern strided|nonstrided|nn] [--ranks N]
//                   [--block BYTES] [--total BYTES] [--out DIR]
//                   [--binary-out FILE.iotb|FILE.iotb3]
//                   [--project] [--key PASSPHRASE]
//   iotaxo classify [--ranks N]
//   iotaxo replay   --in DIR [--sync barriers|deps|none]
//   iotaxo analyze  --in DIR [DIR...]
//   iotaxo anonymize --in DIR --out DIR [--mode random|encrypt]
//   iotaxo stat     DIR|FILE.iotb [--blocks] [--key PASSPHRASE]
//   iotaxo dfg      FILE.iotb [--rank N] [--dot OUT] [--json OUT]
//                   [--phases] [--blocks] [--compare OTHER.iotb]
//                   [--threads N] [--key PASSPHRASE]
//   iotaxo fsck     DIR|FILE.iotb [--key PASSPHRASE] [--repair]
//   iotaxo stream   --dir DIR [--flushes N] [--events N]
//                   [--era-bytes BYTES] [--attach]
//
// `stream` commits its eras into DIR through the store's cold tier, with a
// MANIFEST.iotm, and `stream --attach` restarts from that manifest; `fsck
// DIR` checks such a directory with the same recovery walk.
//
// Bundles are the on-disk trace format (one text trace per rank plus TSV
// sidecars) produced by `trace --out` and consumed by replay/analyze/
// anonymize — the full LANL trace-distribution workflow from one binary.
// `trace --binary-out` additionally writes the run as one IOTB3 container
// (checksummed; compressed too when the file name ends in .iotb3), which
// `stat` inspects through the zero-copy reader (mmap + BlockView — no
// decode even for compressed containers, whose blocks decompress lazily;
// older IOTB1/IOTB2 files are imported by decoding them) and `dfg` mines
// into per-rank directly-follows graphs (phases, rank divergence,
// DOT/JSON export). `--blocks` prints the IOTB3 footer's per-block
// mini-index.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/aggregate_timing.h"
#include "analysis/call_summary.h"
#include "analysis/dfg/dfg.h"
#include "analysis/dfg/dfg_compare.h"
#include "analysis/dfg/dfg_export.h"
#include "analysis/dfg/phase_segmenter.h"
#include "analysis/report.h"
#include "analysis/store_manifest.h"
#include "analysis/unified_store.h"
#include "anon/anonymizer.h"
#include "frameworks/lanl_trace.h"
#include "frameworks/partrace.h"
#include "frameworks/tracefs.h"
#include "fs/memfs.h"
#include "pfs/pfs.h"
#include "replay/replayer.h"
#include "sim/cluster.h"
#include "taxonomy/classifier.h"
#include "trace/binary_format.h"
#include "trace/event_batch.h"
#include "trace/record_view.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/table.h"
#include "workload/io_intensive.h"
#include "workload/mpi_io_test.h"

using namespace iotaxo;

namespace {

struct Args {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  [[nodiscard]] long long get_int(const std::string& key,
                                  long long fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback
                               : std::strtoll(it->second.c_str(), nullptr, 10);
  }
};

/// Options that are bare flags (no value token follows them).
[[nodiscard]] bool is_flag_option(const char* name) {
  return std::strcmp(name, "phases") == 0 ||
         std::strcmp(name, "blocks") == 0 ||
         std::strcmp(name, "project") == 0 ||
         std::strcmp(name, "repair") == 0 ||
         std::strcmp(name, "attach") == 0 ||
         std::strcmp(name, "metrics") == 0;
}

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) {
    args.command = argv[1];
  }
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      if (is_flag_option(argv[i] + 2)) {
        args.options[argv[i] + 2] = "1";
        continue;
      }
      if (i + 1 >= argc) {
        throw ConfigError(strprintf("missing value for '%s'", argv[i]));
      }
      args.options[argv[i] + 2] = argv[i + 1];
      ++i;
    } else {
      args.positional.emplace_back(argv[i]);
    }
  }
  return args;
}

int usage() {
  std::fputs(
      "usage:\n"
      "  iotaxo trace     --framework lanl|tracefs|partrace --workload "
      "mpiio|meta\n"
      "                   [--pattern strided|nonstrided|nn] [--ranks N]\n"
      "                   [--block BYTES] [--total BYTES] [--out DIR]\n"
      "                   [--binary-out FILE.iotb|FILE.iotb3]\n"
      "                   [--project] [--key PASSPHRASE] [--block-records N]\n"
      "  iotaxo classify  [--ranks N]\n"
      "  iotaxo replay    --in DIR [--sync barriers|deps|none]\n"
      "  iotaxo analyze   --in DIR [--in2 DIR] [--in3 DIR]\n"
      "  iotaxo anonymize --in DIR --out DIR [--mode random|encrypt]\n"
      "  iotaxo stat      DIR|FILE.iotb [--blocks] [--key PASSPHRASE]\n"
      "  iotaxo dfg       FILE.iotb [--rank N] [--dot OUT] [--json OUT]\n"
      "                   [--phases] [--blocks] [--compare OTHER.iotb]\n"
      "                   [--threads N] [--key PASSPHRASE]\n"
      "  iotaxo fsck      DIR|FILE.iotb [--key PASSPHRASE] [--repair]\n"
      "  iotaxo stream    --dir DIR [--flushes N] [--events N]\n"
      "                   [--era-bytes BYTES] [--attach]\n"
      "  iotaxo metrics   [--out FILE.json]\n"
      "\n"
      "Every subcommand also accepts --metrics (print a self-metrics table\n"
      "after the run) and --metrics-out FILE.json (write the run's metric\n"
      "deltas as JSON); IOTAXO_METRICS=stderr|FILE.json arms an at-exit\n"
      "dump instead.\n",
      stderr);
  return 2;
}

[[nodiscard]] frameworks::FrameworkPtr make_framework(const std::string& name) {
  if (name == "lanl") {
    return std::make_shared<frameworks::LanlTrace>();
  }
  if (name == "tracefs") {
    return std::make_shared<frameworks::Tracefs>();
  }
  if (name == "partrace") {
    return std::make_shared<frameworks::Partrace>();
  }
  throw ConfigError("unknown framework: " + name + " (lanl|tracefs|partrace)");
}

[[nodiscard]] mpi::Job make_workload(const Args& args, int ranks) {
  const std::string kind = args.get("workload", "mpiio");
  if (kind == "mpiio") {
    workload::MpiIoTestParams params;
    params.nranks = ranks;
    const std::string pattern = args.get("pattern", "strided");
    params.pattern = pattern == "nn"           ? workload::Pattern::kNtoN
                     : pattern == "nonstrided" ? workload::Pattern::kNto1NonStrided
                                               : workload::Pattern::kNto1Strided;
    params.block = args.get_int("block", 256 * kKiB);
    params.total_bytes = args.get_int("total", 256 * kMiB);
    return workload::make_mpi_io_test(params);
  }
  if (kind == "meta") {
    workload::IoIntensiveParams params;
    params.nranks = std::min(ranks, 4);
    params.files_per_rank = static_cast<int>(args.get_int("files", 200));
    return workload::make_io_intensive(params);
  }
  throw ConfigError("unknown workload: " + kind + " (mpiio|meta)");
}

int cmd_trace(const Args& args) {
  const int ranks = static_cast<int>(args.get_int("ranks", 8));
  sim::ClusterParams cparams;
  cparams.node_count = ranks;
  const sim::Cluster cluster(cparams);

  const auto framework = make_framework(args.get("framework", "lanl"));
  const mpi::Job job = make_workload(args, ranks);

  // Tracefs cannot mount the parallel FS out of the box; route metadata
  // workloads (and tracefs) to the local FS, everything else to the PFS.
  fs::VfsPtr vfs;
  if (framework->supports_fs(fs::FsKind::kParallel) &&
      args.get("workload", "mpiio") == "mpiio") {
    vfs = std::make_shared<pfs::Pfs>();
  } else {
    vfs = std::make_shared<fs::MemFs>();
  }

  frameworks::TraceJobOptions options;
  options.store_raw_streams = true;
  const frameworks::TraceRunResult result =
      framework->trace(cluster, job, vfs, options);

  std::printf("framework        : %s\n", framework->name().c_str());
  std::printf("application      : %s\n", job.cmdline.c_str());
  std::printf("events captured  : %lld\n", result.bundle.total_events());
  std::printf("app elapsed      : %s\n",
              format_duration(result.run.elapsed).c_str());
  std::printf("apparent elapsed : %s\n",
              format_duration(result.apparent_elapsed).c_str());
  std::printf("bytes written    : %s\n",
              format_bytes(result.run.bytes_written).c_str());
  if (!result.bundle.dependencies.empty()) {
    std::printf("dependency edges : %zu\n", result.bundle.dependencies.size());
  }

  const std::string out = args.get("out");
  if (!out.empty()) {
    result.bundle.save(out);
    std::printf("bundle saved to  : %s\n", out.c_str());
  }
  const std::string binary_out = args.get("binary-out");
  if (!binary_out.empty()) {
    trace::EventBatch batch;
    for (const trace::RankStream& rs : result.bundle.ranks) {
      for (const trace::TraceEvent& ev : rs.events) {
        batch.append(ev);
      }
    }
    // Always IOTB3 with per-block CRCs. The .iotb3 extension selects the
    // cold-storage defaults (per-block LZ too); --key additionally encrypts
    // each block and --project splits records into hot + cold column
    // groups. Any other name keeps the blocks uncompressed, so they are
    // served straight from the mapping.
    const bool cold =
        binary_out.size() >= 6 &&
        binary_out.compare(binary_out.size() - 6, 6, ".iotb3") == 0;
    trace::BinaryOptions options;
    options.compress = cold;
    options.checksum = true;
    options.project = !args.get("project").empty();
    const std::string passphrase = args.get("key");
    if (!passphrase.empty()) {
      options.encrypt = true;
      options.key = derive_key(passphrase);
    }
    // --block-records caps records per block (default 4096): smaller
    // blocks mean finer mini-indexes (more skippable) at more per-block
    // overhead.
    const std::vector<std::uint8_t> bytes = trace::encode_binary_v3(
        batch, options,
        static_cast<std::size_t>(args.get_int("block-records", 4096)));
    // Durable write (tmp + fsync + rename): a crash mid-write never
    // leaves a half-container at the target path.
    trace::write_binary_file(binary_out, bytes);
    std::printf("binary trace     : %s (%s, IOTB3 block-structured, %s)\n",
                binary_out.c_str(),
                format_bytes(static_cast<Bytes>(bytes.size())).c_str(),
                cold ? "lazy zero-decode view" : "viewable zero-copy");
  }
  return 0;
}

// The per-call table from the store's call_stats(): the same scan (and
// damage policy) every analysis query runs. Rows sort by event count,
// descending, ties by name.
void print_call_stats(const analysis::UnifiedTraceStore& store) {
  const std::map<std::string, analysis::CallStats> stats = store.call_stats();
  std::vector<std::pair<std::string, analysis::CallStats>> rows(stats.begin(),
                                                                stats.end());
  std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.count > b.second.count;
  });
  TextTable table({"Call", "Events", "Bytes", "Total time"});
  for (std::size_t c = 1; c < 4; ++c) {
    table.set_align(c, Align::kRight);
  }
  for (const auto& [name, row] : rows) {
    table.add_row({name, strprintf("%lld", row.count),
                   format_bytes(row.total_bytes),
                   format_duration(row.total_time)});
  }
  std::fputs(table.render().c_str(), stdout);
}

// The IOTB3 footer's per-block mini-index, straight from the view — no
// record block is decoded to print this. For projected containers the Hot
// column shows each block's hot-group extent (what a narrow query pays);
// the trailing line reports the container's stored-vs-decoded footprint.
void print_block_summary(const trace::BlockView& view) {
  TextTable table({"Block", "Records", "Stored", "Hot", "Window (t+)",
                   "Index flags", "Names"});
  for (std::size_t c = 1; c < 4; ++c) {
    table.set_align(c, Align::kRight);
  }
  table.set_align(6, Align::kRight);
  const std::size_t nblocks = view.block_count();
  const SimTime base = nblocks == 0 ? 0 : view.block_min_time(0);
  for (std::size_t b = 0; b < nblocks; ++b) {
    std::string flags;
    if (view.block_has_io_call(b)) {
      flags += "io";
    }
    if (view.block_has_io_bytes(b)) {
      flags += flags.empty() ? "bytes" : ",bytes";
    }
    if (view.block_has_fd_path(b)) {
      flags += flags.empty() ? "fd+path" : ",fd+path";
    }
    std::size_t names = 0;
    for (trace::StrId id = 1; id < view.string_count(); ++id) {
      names += view.block_has_name(b, id) ? 1 : 0;
    }
    table.add_row(
        {strprintf("%zu", b), strprintf("%u", view.block_size(b)),
         format_bytes(static_cast<Bytes>(view.block_stored_len(b))),
         view.projected()
             ? format_bytes(static_cast<Bytes>(view.block_hot_stored_len(b)))
             : "-",
         strprintf("%s .. %s",
                   format_duration(view.block_min_time(b) - base).c_str(),
                   format_duration(view.block_max_time(b) - base).c_str()),
         flags.empty() ? "-" : flags, strprintf("%zu", names)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("block bytes      : %s stored, %s decoded so far%s%s\n",
              format_bytes(
                  static_cast<Bytes>(view.stored_bytes_total())).c_str(),
              format_bytes(
                  static_cast<Bytes>(view.decoded_stored_bytes())).c_str(),
              view.encrypted() ? ", encrypted" : "",
              view.projected() ? ", projected" : "");
}

// The store's per-pool shape, including streaming-ingest state: whether a
// pool is the growing open era or sealed, and how many flushes it absorbed.
void print_pool_table(const analysis::UnifiedTraceStore& store) {
  TextTable table({"Pool", "Sources", "Records", "Kind", "State", "Flushes"});
  for (std::size_t c = 1; c < 3; ++c) {
    table.set_align(c, Align::kRight);
  }
  table.set_align(5, Align::kRight);
  const std::vector<analysis::StorePoolInfo> infos = store.pool_infos();
  for (std::size_t p = 0; p < infos.size(); ++p) {
    const analysis::StorePoolInfo& info = infos[p];
    table.add_row({strprintf("%zu", p), strprintf("%zu", info.source_count),
                   strprintf("%lld", info.records),
                   info.block_backed ? "block" : "owned",
                   info.open_era ? "open era" : "sealed",
                   strprintf("%zu", info.flushes_absorbed)});
  }
  std::fputs(table.render().c_str(), stdout);
}

[[nodiscard]] std::optional<CipherKey> key_from_args(const Args& args) {
  const std::string passphrase = args.get("key");
  if (passphrase.empty()) {
    return std::nullopt;
  }
  return derive_key(passphrase);
}

// Armed `stat` runs add a narrow bytes_in_window query over the middle
// third of the container's time span: one probe that lights up the
// index-skip and (for projected containers) hot-only-decode metrics, so a
// single `stat --metrics-out` report shows what the block mini-indexes
// and column projection actually save. Whole-file stats are unchanged —
// the probe only reads.
void stat_window_probe(const analysis::UnifiedTraceStore& store) {
  const std::vector<analysis::StorePoolInfo> infos = store.pool_infos();
  if (infos.empty() || !infos.front().any) {
    return;
  }
  SimTime begin = infos.front().min_time;
  SimTime end = infos.front().max_time + 1;
  const SimTime third = (end - begin) / 3;
  if (third > 0) {
    begin += third;
    end -= third;
  }
  const obs::MetricsSnapshot before = obs::snapshot();
  const Bytes bytes = store.bytes_in_window(begin, end);
  const obs::MetricsSnapshot probe = obs::delta(before, obs::snapshot());
  const auto metric = [&probe](const char* name) {
    const auto it = probe.values.find(name);
    return it == probe.values.end() ? std::uint64_t{0} : it->second.value;
  };
  std::printf("window probe     : %s transferred in the middle third "
              "(%llu block(s) scanned, %llu skipped by index)\n",
              format_bytes(bytes).c_str(),
              static_cast<unsigned long long>(
                  metric("store.query.segments_scanned")),
              static_cast<unsigned long long>(
                  metric("store.query.segments_skipped")));
}

// The shape of a filed container, from its pool's accessor: an IOTB3
// container's head and footer (no record block is decoded to print this),
// or an imported IOTB1/IOTB2 file's decoded batch with the header it was
// read from.
void print_container(const analysis::BlockAccess& acc, bool blocks) {
  const trace::BlockView& view = *acc.v;
  const trace::BinaryHeader& h = view.header();
  std::printf("container        : IOTB3%s%s%s%s, block-structured\n",
              h.compressed ? ", compressed" : "",
              view.encrypted() ? ", encrypted (per block)" : "",
              view.projected() ? ", projected (hot+cold columns)" : "",
              !h.checksummed ? ""
              : h.head_crc   ? ", checksummed (head at open, blocks on touch)"
                             : ", checksummed (blocks on touch, head "
                               "unprotected)");
  std::printf("records          : %zu in %zu block(s) of up to %u\n",
              view.size(), view.block_count(), view.block_records_nominal());
  std::printf("string table     : %zu distinct strings, %s\n",
              view.string_count(),
              format_bytes(static_cast<Bytes>(view.string_table_bytes()))
                  .c_str());
  std::printf("argument ids     : %zu\n", view.arg_id_count());
  if (blocks) {
    print_block_summary(view);
  }
}

void print_container(const analysis::BatchAccess& acc,
                     const trace::BinaryHeader& h) {
  std::printf("container        : IOTB%d%s%s%s, imported (decoded into an "
              "owned pool)\n",
              h.version, h.compressed ? ", compressed" : "",
              h.encrypted ? ", encrypted" : "",
              h.checksummed ? ", checksummed (CRC ok)" : "");
  std::printf("records          : %zu\n", acc.size());
  std::printf("string table     : %zu distinct strings\n", acc.string_count());
  std::printf("argument ids     : %zu\n", acc.b->arg_ids().size());
}

// `stat` prints a container's shape and per-call table. The file is
// mmapped and filed with a unified store in one ingest_view call: IOTB3
// (including compressed and encrypted, with `--key`) is served in place
// through the lazy BlockView and call_stats() tallies straight off the
// stored records, no EventBatch is ever built; IOTB1/IOTB2 files are
// imported by decoding them. A directory is attached as a store instead.
int cmd_stat(const Args& args) {
  if (args.positional.empty()) {
    return usage();
  }
  const std::string& path = args.positional.front();
  if (std::filesystem::is_directory(path)) {
    // A store directory: attach (with crash recovery) and print the pool
    // table — the streaming-ingest view of the store.
    analysis::UnifiedTraceStore store;
    analysis::AttachOptions options;
    options.key = key_from_args(args);
    const analysis::StoreHealth health = store.attach_dir(path, options);
    std::printf("directory        : %s\n", path.c_str());
    std::printf("attached         : %zu container(s), %zu quarantined\n",
                health.recovered_eras, health.quarantined.size());
    print_pool_table(store);
    return health.healthy() ? 0 : 1;
  }
  trace::MappedTraceFile file(path);
  const trace::BinaryHeader header = trace::peek_binary_header(file.bytes());
  std::printf("file             : %s (%s, %s)\n", path.c_str(),
              format_bytes(static_cast<Bytes>(file.size())).c_str(),
              file.is_mapped() ? "mmapped" : "read");
  analysis::UnifiedTraceStore store;
  store.ingest_view(std::move(file),
                    {{"framework", "iotb"}, {"application", path}},
                    key_from_args(args));
  store.with_pool_access(0, [&](const auto& acc) {
    if constexpr (requires { acc.v; }) {
      print_container(acc, !args.get("blocks").empty());
    } else {
      print_container(acc, header);  // imported: the pool has no header
    }
  });
  print_call_stats(store);
  if (obs::enabled()) {
    stat_window_probe(store);
  }
  return 0;
}

/// File a container with the store (one ingest_view call: IOTB3 served in
/// place, IOTB1/IOTB2 imported), then print an IOTB3 container's block
/// summary when --blocks asks for it.
void ingest_container(analysis::UnifiedTraceStore& store,
                      const std::string& path, const Args& args) {
  store.ingest_view(path, {{"framework", "iotb"}, {"application", path}},
                    key_from_args(args));
  if (args.get("blocks").empty()) {
    return;
  }
  store.with_pool_access(store.pool_count() - 1, [&](const auto& acc) {
    if constexpr (requires { acc.v; }) {
      std::printf("blocks, %s:\n", path.c_str());
      print_block_summary(*acc.v);
    }
  });
}

void write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr ||
      std::fwrite(text.data(), 1, text.size(), f) != text.size()) {
    if (f != nullptr) {
      std::fclose(f);
    }
    throw IoError("cannot write: " + path);
  }
  std::fclose(f);
}

// `dfg` mines a container into per-rank directly-follows graphs: summary
// and outlier report on stdout, optional DOT/JSON exports, optional phase
// segmentation (--phases) and run-vs-run comparison (--compare).
int cmd_dfg(const Args& args) {
  namespace dfg = analysis::dfg;
  if (args.positional.empty()) {
    return usage();
  }
  const std::string& path = args.positional.front();

  analysis::UnifiedTraceStore store;
  ingest_container(store, path, args);

  dfg::DfgOptions options;
  options.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  const bool phases = !args.get("phases").empty();
  options.keep_sequences = phases;
  if (args.options.contains("rank")) {
    options.rank = static_cast<int>(args.get_int("rank", 0));
  }
  const dfg::Dfg graph = dfg::DfgBuilder(store).build(options);

  // Store shape through the introspection accessor: what fed the miner.
  Bytes pool_bytes = 0;
  long long block_pools = 0;
  for (const analysis::StorePoolInfo& info : store.pool_infos()) {
    pool_bytes += static_cast<Bytes>(info.approx_bytes);
    block_pools += info.block_backed ? 1 : 0;
  }
  std::printf("store            : %zu pool(s) (%lld zero-copy), %s, %lld "
              "events\n",
              store.pool_count(), block_pools,
              format_bytes(pool_bytes).c_str(), store.total_events());
  std::printf("mined            : %zu rank graph(s), %lld kept events, %zu "
              "distinct calls\n",
              graph.ranks.size(), graph.total_events(),
              graph.names.empty() ? 0 : graph.names.size() - 1);

  TextTable table({"Rank", "Events", "Nodes", "Edges", "Transitions",
                   "Hottest edge"});
  for (std::size_t c = 0; c < 5; ++c) {
    table.set_align(c, Align::kRight);
  }
  for (const dfg::RankDfg& r : graph.ranks) {
    long long events = 0;
    for (const auto& [id, stats] : r.nodes) {
      events += stats.count;
    }
    const dfg::EdgeKey* hot = nullptr;
    long long hot_count = 0;
    for (const auto& [key, stats] : r.edges) {
      if (stats.count > hot_count) {
        hot_count = stats.count;
        hot = &key;
      }
    }
    table.add_row(
        {strprintf("%d", r.rank), strprintf("%lld", events),
         strprintf("%zu", r.nodes.size()), strprintf("%zu", r.edges.size()),
         strprintf("%lld", r.transitions()),
         hot == nullptr
             ? "-"
             : strprintf("%s -> %s (%lldx)",
                         std::string(graph.name(hot->first)).c_str(),
                         std::string(graph.name(hot->second)).c_str(),
                         hot_count)});
  }
  std::fputs(table.render().c_str(), stdout);

  const std::vector<int> outliers = dfg::outlier_ranks(graph);
  if (!outliers.empty()) {
    std::string list;
    for (const int r : outliers) {
      list += strprintf("%s%d", list.empty() ? "" : ", ", r);
    }
    std::printf("outlier rank(s)  : %s (edge distribution > 2 sigma from "
                "the mean)\n",
                list.c_str());
  }

  if (phases) {
    const dfg::PhaseSegmenter segmenter(graph);
    for (const dfg::RankDfg& r : graph.ranks) {
      std::printf("phases, rank %d:\n", r.rank);
      TextTable ptable({"#", "Window (t+)", "Events", "Label", "Loop", "Read",
                        "Written"});
      ptable.set_align(2, Align::kRight);
      ptable.set_align(5, Align::kRight);
      ptable.set_align(6, Align::kRight);
      std::size_t n = 0;
      const std::vector<dfg::Phase> rank_phases = segmenter.segment(r.rank);
      // Windows relative to the rank's first event: local_start stamps are
      // wall-clock-derived, and epoch-scale absolutes are unreadable.
      const SimTime base = rank_phases.empty() ? 0 : rank_phases.front().start;
      for (const dfg::Phase& phase : rank_phases) {
        ptable.add_row(
            {strprintf("%zu", n++),
             strprintf("%s .. %s",
                       format_duration(phase.start - base).c_str(),
                       format_duration(phase.end - base).c_str()),
             strprintf("%zu", phase.count), to_string(phase.label),
             phase.loop_period == 0
                 ? "-"
                 : strprintf("%zu calls x %lld", phase.loop_period,
                             phase.loop_iterations),
             format_bytes(phase.read_bytes),
             format_bytes(phase.write_bytes)});
      }
      std::fputs(ptable.render().c_str(), stdout);
    }
  }

  dfg::ExportOptions export_options;
  export_options.rank = options.rank;
  const std::string dot_out = args.get("dot");
  if (!dot_out.empty()) {
    write_text_file(dot_out, dfg::to_dot(graph, export_options));
    std::printf("DOT written      : %s\n", dot_out.c_str());
  }
  const std::string json_out = args.get("json");
  if (!json_out.empty()) {
    write_text_file(json_out, dfg::to_json(graph, export_options));
    std::printf("JSON written     : %s\n", json_out.c_str());
  }

  const std::string other_path = args.get("compare");
  if (!other_path.empty()) {
    analysis::UnifiedTraceStore other_store;
    ingest_container(other_store, other_path, args);
    dfg::DfgOptions other_options = options;
    other_options.keep_sequences = false;
    const dfg::Dfg other = dfg::DfgBuilder(other_store).build(other_options);
    const dfg::DfgComparison cmp = dfg::compare_dfgs(graph, other);
    std::printf("compare          : %s vs %s, mean divergence %.3f over %zu "
                "paired rank(s)\n",
                path.c_str(), other_path.c_str(), cmp.divergence,
                cmp.ranks.size());
    TextTable ctable({"Rank", "Divergence", "Most diverging edge"});
    ctable.set_align(1, Align::kRight);
    for (const dfg::RankDelta& delta : cmp.ranks) {
      // "-" when nothing actually diverges: the top edge of a 0-divergence
      // rank is just the alphabetically-first tie and must not read as a
      // difference.
      const bool diverges =
          !delta.edges.empty() && delta.edges.front().divergence > 0;
      ctable.add_row(
          {strprintf("%d", delta.rank_a), strprintf("%.3f", delta.divergence),
           !diverges ? "-"
                     : strprintf("%s -> %s (%lldx vs %lldx)",
                                 delta.edges.front().from.c_str(),
                                 delta.edges.front().to.c_str(),
                                 delta.edges.front().count_a,
                                 delta.edges.front().count_b)});
    }
    std::fputs(ctable.render().c_str(), stdout);
    if (!cmp.only_in_a.empty() || !cmp.only_in_b.empty()) {
      std::printf("unpaired ranks   : %zu only in %s, %zu only in %s\n",
                  cmp.only_in_a.size(), path.c_str(), cmp.only_in_b.size(),
                  other_path.c_str());
    }
  }
  return 0;
}

int cmd_classify(const Args& args) {
  sim::ClusterParams cparams;
  cparams.node_count = static_cast<int>(args.get_int("ranks", 8));
  const sim::Cluster cluster(cparams);
  taxonomy::Classifier classifier(cluster, {});

  frameworks::LanlTrace lanl;
  frameworks::Tracefs tracefs;
  frameworks::Partrace partrace;
  const std::string table = taxonomy::render_comparison_table({
      classifier.classify(lanl),
      classifier.classify(tracefs),
      classifier.classify(partrace),
  });
  std::fputs(table.c_str(), stdout);
  return 0;
}

int cmd_replay(const Args& args) {
  const std::string in = args.get("in");
  if (in.empty()) {
    return usage();
  }
  const trace::TraceBundle bundle = trace::TraceBundle::load(in);
  int max_rank = 0;
  for (const trace::RankStream& rs : bundle.ranks) {
    max_rank = std::max(max_rank, rs.rank);
  }
  sim::ClusterParams cparams;
  cparams.node_count = max_rank + 1;
  const sim::Cluster cluster(cparams);

  replay::ReplayOptions options;
  const std::string sync = args.get("sync", "barriers");
  options.pseudo.sync = sync == "deps"  ? replay::SyncStrategy::kDependencies
                        : sync == "none" ? replay::SyncStrategy::kNone
                                         : replay::SyncStrategy::kBarriers;
  replay::Replayer replayer(cluster, std::make_shared<pfs::Pfs>());
  const replay::ReplayResult result = replayer.replay(bundle, options);
  std::printf("replayed %zu ranks, %s written, elapsed %s (sync: %s)\n",
              bundle.ranks.size(),
              format_bytes(result.run.bytes_written).c_str(),
              format_duration(result.run.elapsed).c_str(), sync.c_str());
  return 0;
}

int cmd_analyze(const Args& args) {
  analysis::UnifiedTraceStore store;
  for (const char* key : {"in", "in2", "in3"}) {
    const std::string dir = args.get(key);
    if (!dir.empty()) {
      store.ingest(trace::TraceBundle::load(dir));
    }
  }
  if (store.sources().empty()) {
    return usage();
  }
  std::fputs(analysis::render_report(store).c_str(), stdout);
  return 0;
}

int cmd_anonymize(const Args& args) {
  const std::string in = args.get("in");
  const std::string out = args.get("out");
  if (in.empty() || out.empty()) {
    return usage();
  }
  const trace::TraceBundle bundle = trace::TraceBundle::load(in);
  trace::TraceBundle scrubbed;
  if (args.get("mode", "random") == "encrypt") {
    anon::EncryptingAnonymizer anonymizer(
        anon::FieldPolicy{}, args.get("key", "iotaxo-default-key"));
    scrubbed = anonymizer.apply(bundle);
  } else {
    anon::RandomizingAnonymizer anonymizer(
        anon::FieldPolicy{},
        static_cast<std::uint64_t>(args.get_int("seed", 0x5EED)));
    scrubbed = anonymizer.apply(bundle);
  }
  scrubbed.save(out);
  std::printf("anonymized bundle written to %s (%lld events)\n", out.c_str(),
              scrubbed.total_events());
  return 0;
}

// `fsck` is the offline half of the store's crash-recovery story. It runs
// the recovery walk UnifiedTraceStore::attach_dir runs
// (analysis::recover_store_dir), so both name the same files; where attach
// only opens each container, fsck's check decodes *every block of every
// container* against its CRC. Plain runs are read-only and exit non-zero
// when anything is damaged, uncommitted or left torn; `--repair` removes
// orphaned .tmp files and rewrites MANIFEST.iotm to commit exactly the
// containers that validated (adopting valid files a crash left
// uncommitted, dropping damaged ones into quarantine).
int cmd_fsck(const Args& args) {
  if (args.positional.empty()) {
    return usage();
  }
  const std::string& target = args.positional.front();
  const std::optional<CipherKey> key = key_from_args(args);
  const bool repair = !args.get("repair").empty();

  if (!std::filesystem::is_directory(target)) {
    const trace::MappedTraceFile file(target);
    const std::vector<std::string> problems =
        analysis::validate_container(file, key);
    if (problems.empty()) {
      std::printf("%s: ok (%s, every block CRC verified)\n", target.c_str(),
                  format_bytes(static_cast<Bytes>(file.size())).c_str());
      return 0;
    }
    for (const std::string& p : problems) {
      std::printf("%s: DAMAGED: %s\n", target.c_str(), p.c_str());
    }
    return 1;
  }

  // Every container that validates joins what a repaired manifest commits:
  // committed ones under their manifest entry, others adopted.
  std::vector<analysis::ManifestEntry> committable;
  const auto validate = [&](const std::string& name,
                            trace::MappedTraceFile file,
                            const analysis::ManifestEntry* committed) {
    const std::vector<std::string> problems =
        analysis::validate_container(file, key);
    if (!problems.empty()) {
      throw FormatError(join(problems, "; "));
    }
    committable.push_back(committed != nullptr
                              ? *committed
                              : analysis::ManifestEntry{
                                    name, file.size(), crc32(file.bytes()), 0});
  };
  analysis::StoreDirReport report =
      analysis::recover_store_dir(target, repair, validate);
  std::vector<std::string> adoptable;
  for (const std::string& name : report.uncommitted) {
    try {
      validate(name, trace::MappedTraceFile(target + "/" + name), nullptr);
      adoptable.push_back(name);
    } catch (const Error& err) {
      for (analysis::QuarantinedFile& q : report.quarantined) {
        if (q.file == name) {
          q.reason += std::string("; ") + err.what();
        }
      }
    }
  }
  std::uint64_t next_seq = report.next_seq;
  for (analysis::ManifestEntry& e : committable) {
    if (!report.manifest.has_value() ||
        report.manifest->find(e.name) == nullptr) {
      e.seq = analysis::parse_era_seq(e.name).value_or(next_seq);
      next_seq = std::max(next_seq, e.seq + 1);
    }
  }

  const bool manifest_corrupt =
      !report.quarantined.empty() &&
      report.quarantined.front().file == analysis::kManifestFileName;
  std::printf("directory        : %s\n", target.c_str());
  std::printf("manifest         : %s\n",
              report.manifest.has_value()
                  ? strprintf("%zu committed entr%s, next era seq %llu",
                              report.manifest->entries.size(),
                              report.manifest->entries.size() == 1 ? "y"
                                                                   : "ies",
                              static_cast<unsigned long long>(
                                  report.manifest->next_seq)).c_str()
                  : (manifest_corrupt ? "CORRUPT" : "absent"));
  std::printf("healthy          : %zu container(s), every block CRC "
              "verified\n",
              committable.size());
  for (const std::string& tmp : report.tmps) {
    std::printf("torn tmp         : %s%s\n", tmp.c_str(),
                repair ? " (removed)" : "");
  }
  for (const analysis::QuarantinedFile& q : report.quarantined) {
    std::printf("quarantined      : %s — %s\n", q.file.c_str(),
                q.reason.c_str());
  }
  for (const std::string& name : adoptable) {
    std::printf("adoptable        : %s validates%s\n", name.c_str(),
                repair ? " (adopted)" : "; --repair adopts it");
  }

  if (repair) {
    analysis::StoreManifest repaired;
    repaired.next_seq = next_seq;
    repaired.entries = std::move(committable);
    repaired.store(target);
    std::printf("repaired         : manifest rewritten with %zu entr%s "
                "(next era seq %llu)\n",
                repaired.entries.size(),
                repaired.entries.size() == 1 ? "y" : "ies",
                static_cast<unsigned long long>(repaired.next_seq));
  }
  return report.quarantined.empty() && report.tmps.empty() ? 0 : 1;
}

// `stream` exercises the streaming-ingest path end to end, and is the
// driver behind check_build.sh --stream. The capture half synthesizes
// --flushes small flushes (--events each) and feeds them through a
// streaming store — the pool table printed shows the open era and how few
// pools the flush storm produced — then commits the store's eras to --dir
// through the cold tier: checksummed IOTB3 era containers plus the
// MANIFEST.iotm that commits them. The --attach half is the restart: a
// fresh store attaches the directory through that manifest, building every
// pool index from the container footers, and the "blocks decoded" line
// shows that no record block was touched to do it.
int cmd_stream(const Args& args) {
  const std::string dir = args.get("dir");
  if (dir.empty()) {
    return usage();
  }
  if (!args.get("attach").empty()) {
    obs::set_enabled(true);
    const obs::MetricsSnapshot before = obs::snapshot();
    analysis::UnifiedTraceStore store;
    analysis::AttachOptions options;
    options.key = key_from_args(args);
    const analysis::StoreHealth health = store.attach_dir(dir, options);
    const obs::MetricsSnapshot deltas = obs::delta(before, obs::snapshot());
    const auto metric = [&deltas](const char* name) {
      const auto it = deltas.values.find(name);
      return it == deltas.values.end() ? std::uint64_t{0} : it->second.value;
    };
    std::printf("attached         : %zu container(s), %zu quarantined\n",
                health.recovered_eras, health.quarantined.size());
    for (const analysis::QuarantinedFile& q : health.quarantined) {
      std::printf("quarantined      : %s — %s\n", q.file.c_str(),
                  q.reason.c_str());
    }
    std::printf("pools            : %zu\n", store.pool_count());
    std::printf("blocks decoded   : %llu\n",
                static_cast<unsigned long long>(
                    metric("block.decode.full_blocks") +
                    metric("block.decode.hot_blocks")));
    print_pool_table(store);
    return health.healthy() ? 0 : 1;
  }

  const auto flushes = static_cast<std::size_t>(args.get_int("flushes", 1000));
  const auto events = static_cast<std::size_t>(args.get_int("events", 64));
  const auto era_bytes =
      static_cast<std::size_t>(args.get_int("era-bytes", 4 * kMiB));
  std::filesystem::create_directories(dir);

  analysis::UnifiedTraceStore store;
  analysis::StreamIngestOptions sopts;
  sopts.era_bytes = era_bytes;
  store.set_stream_ingest(sopts);

  SimTime now = 0;
  for (std::size_t f = 0; f < flushes; ++f) {
    trace::EventBatch flush;
    for (std::size_t e = 0; e < events; ++e) {
      trace::TraceEvent ev;
      ev.name = e % 2 == 0 ? "SYS_write" : "SYS_read";
      ev.rank = static_cast<int>(e % 4);
      ev.node = ev.rank;
      ev.local_start = now;
      ev.duration = 500;
      ev.path = "/scratch/stream.dat";
      ev.fd = 3;
      ev.bytes = 4 * kKiB;
      ev.ret = static_cast<long long>(ev.bytes);
      now += 1000;
      flush.append(ev);
    }
    store.ingest(flush, {{"framework", "stream"}, {"application", "smoke"}});
  }

  std::printf("flushes          : %zu of %zu event(s)\n", flushes, events);
  std::printf("pools            : %zu (open era included)\n",
              store.pool_count());
  print_pool_table(store);

  analysis::UnifiedTraceStore::ColdTierOptions cold;
  cold.directory = dir;
  cold.binary.checksum = true;
  const std::size_t eras = store.compact(era_bytes, cold);
  std::printf("eras committed   : %zu to %s (IOTB3, checksummed; %s)\n", eras,
              dir.c_str(), std::string(analysis::kManifestFileName).c_str());
  return 0;
}

// `metrics` prints the full self-metrics catalog — every name the toolkit
// registers at startup, so scripts can discover the key set (and the
// naming convention, layer.component.metric) without running a workload.
// Values are whatever this fresh process has accumulated: mostly zero.
int cmd_metrics(const Args& args) {
  obs::set_enabled(true);
  const obs::MetricsSnapshot snap = obs::snapshot();
  const std::string out = args.get("out");
  if (!out.empty()) {
    write_text_file(out, obs::to_json(snap) + "\n");
    std::printf("metrics JSON     : %s\n", out.c_str());
    return 0;
  }
  std::fputs(obs::render_text(snap).c_str(), stdout);
  std::printf(
      "\narm a run with   : --metrics (table) or --metrics-out FILE.json on "
      "any subcommand,\n"
      "                   or IOTAXO_METRICS=stderr|FILE.json for an at-exit "
      "dump\n");
  return 0;
}

int run_command(const Args& args) {
  if (args.command == "trace") {
    return cmd_trace(args);
  }
  if (args.command == "classify") {
    return cmd_classify(args);
  }
  if (args.command == "replay") {
    return cmd_replay(args);
  }
  if (args.command == "analyze") {
    return cmd_analyze(args);
  }
  if (args.command == "anonymize") {
    return cmd_anonymize(args);
  }
  if (args.command == "stat") {
    return cmd_stat(args);
  }
  if (args.command == "dfg") {
    return cmd_dfg(args);
  }
  if (args.command == "fsck") {
    return cmd_fsck(args);
  }
  if (args.command == "stream") {
    return cmd_stream(args);
  }
  if (args.command == "metrics") {
    return cmd_metrics(args);
  }
  return usage();
}

/// The per-run metrics surface: what changed between arming (before the
/// command ran) and now, as a table (--metrics) and/or JSON file
/// (--metrics-out). Called on the error path too — a failed run's partial
/// metrics are exactly what one wants when diagnosing it.
void dump_run_metrics(const Args& args, const obs::MetricsSnapshot& before) {
  const obs::MetricsSnapshot deltas = obs::delta(before, obs::snapshot());
  const std::string out = args.get("metrics-out");
  if (!out.empty()) {
    write_text_file(out, obs::to_json(deltas) + "\n");
    std::printf("metrics JSON     : %s\n", out.c_str());
  }
  if (!args.get("metrics").empty()) {
    std::fputs(obs::render_text(deltas).c_str(), stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    // Only the container commands (`stat`, `dfg`, `fsck`) take a
    // positional argument — exactly one; any other stray token means the
    // user dropped an --option (e.g. `dfg a.iotb b.iotb` instead of
    // `--compare`) and must not be silently ignored.
    const bool takes_file = args.command == "stat" ||
                            args.command == "dfg" || args.command == "fsck";
    if (args.positional.size() > (takes_file ? 1u : 0u)) {
      throw ConfigError(
          strprintf("expected %s, got '%s'",
                    takes_file ? "one FILE.iotb" : "--option",
                    args.positional[takes_file ? 1 : 0].c_str()));
    }
    const bool want_metrics = !args.get("metrics").empty() ||
                              !args.get("metrics-out").empty();
    if (!want_metrics) {
      return run_command(args);
    }
    // Arm before the run so the whole command is covered, snapshot so the
    // report is this run's deltas (an IOTAXO_METRICS at-exit dump, if also
    // set, still reports process totals).
    obs::set_enabled(true);
    const obs::MetricsSnapshot before = obs::snapshot();
    try {
      const int rc = run_command(args);
      dump_run_metrics(args, before);
      return rc;
    } catch (...) {
      try {
        dump_run_metrics(args, before);
      } catch (...) {
        // Reporting must not mask the run's own error.
      }
      throw;
    }
  } catch (const Error& err) {
    std::fprintf(stderr, "iotaxo: %s\n", err.what());
    return 1;
  }
}
