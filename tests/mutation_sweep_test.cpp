// Exhaustive single-byte mutation of small checksummed IOTB3 containers.
//
// For each of four container shapes (plain, compressed, encrypted,
// projected) every byte is mutated three ways — one bit flipped, set to
// 0x00, set to 0xFF — and each mutant is filed with ingest_view and asked
// the five store queries, first fail-fast, then under
// ScanPolicy::skip_damaged. Every mutant must end in one of three ways:
//   - a FormatError (at ingest, or fail-fast from a query that touches a
//     damaged block);
//   - identical answers (the mutation changed nothing a reader sees);
//   - a counted skip: under skip_damaged the answers equal those of a
//     store built from the healthy blocks' events alone, and the damage
//     counters equal exactly the damaged blocks every query touched.
// Never a crash, a hang, another exception type, or a silent wrong answer.
//
// The same sweep runs over a store directory's MANIFEST.iotm: every mutant
// must attach without throwing, quarantine exactly the manifest, and serve
// the committed eras by open-validation, answering as the independent
// reference (perfbench/src/reference.h) folded from their events does.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/store_manifest.h"
#include "analysis/unified_store.h"
#include "perfbench/src/reference.h"
#include "trace/binary_format.h"
#include "trace/block_view.h"
#include "trace/event_batch.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/strings.h"

namespace iotaxo::analysis {
namespace {

using trace::EventBatch;
using trace::TraceEvent;

constexpr std::size_t kEvents = 24;
constexpr std::uint32_t kBlockRecords = 6;
constexpr SimTime kWindowBegin = 5 * kMillisecond;
constexpr SimTime kWindowEnd = 17 * kMillisecond;
constexpr SimTime kBucket = 4 * kMillisecond;
constexpr int kRank = 1;

/// Three ranks opening two files and moving bytes through them, one event
/// per millisecond, so every block holds transfers, fd/path records and
/// all three ranks, and the probe window spans blocks 1 and 2 only.
[[nodiscard]] std::vector<TraceEvent> sweep_events() {
  std::vector<TraceEvent> events;
  for (std::size_t i = 0; i < kEvents; ++i) {
    const int rank = static_cast<int>(i % 3);
    TraceEvent ev;
    if (i % 4 == 0) {
      ev = trace::make_syscall("SYS_open", {"f"}, 3 + rank);
      ev.path = rank == 0 ? "/pfs/a" : "/pfs/b";
    } else {
      ev = trace::make_syscall(i % 4 == 3 ? "SYS_read" : "SYS_write", {"4"},
                               512);
      ev.bytes = 512 * static_cast<Bytes>(1 + i % 3);
    }
    ev.fd = 3 + rank;
    ev.rank = rank;
    ev.local_start = static_cast<SimTime>(i) * kMillisecond;
    ev.duration = 20 * kMicrosecond;
    events.push_back(std::move(ev));
  }
  return events;
}

/// The five query answers. Queries with a hot-column kernel (call_stats,
/// bytes_in_window, io_rate_series) read only the hot group of projected
/// blocks; rank_timeline and hottest_files read whole records.
struct Answers {
  std::map<std::string, CallStats> calls;
  Bytes window = 0;
  std::vector<std::pair<SimTime, Bytes>> rate;
  std::vector<TraceEvent> timeline;
  std::vector<FileHeat> heat;
};

[[nodiscard]] Answers ask(const UnifiedTraceStore& store) {
  return {store.call_stats(), store.bytes_in_window(kWindowBegin, kWindowEnd),
          store.io_rate_series(kBucket), store.rank_timeline(kRank),
          store.hottest_files(8)};
}

struct Variant {
  const char* name;
  bool compress;
  bool encrypt;
  bool project;
};

void PrintTo(const Variant& v, std::ostream* os) { *os << v.name; }

class MutationSweep : public ::testing::TestWithParam<Variant> {};

TEST_P(MutationSweep, EveryByteIsRejectedIdenticalOrACountedSkip) {
  const Variant& v = GetParam();
  trace::BinaryOptions options;
  options.checksum = true;
  options.compress = v.compress;
  options.encrypt = v.encrypt;
  options.project = v.project;
  if (v.encrypt) {
    options.key = derive_key("mutation-sweep");
  }
  const std::vector<TraceEvent> events = sweep_events();
  const std::vector<std::uint8_t> healthy =
      trace::encode_binary_v3(events, options, kBlockRecords);
  ASSERT_LE(healthy.size(), 4096u);
  const std::size_t nblocks =
      trace::BlockView(healthy, options.key).block_count();
  ASSERT_EQ(nblocks, kEvents / kBlockRecords);

  // Expected answers for a set of readable blocks: those of an owned store
  // holding only their events. The rate series keeps the full span, which
  // the footer index still reports with a block damaged, so it is summed
  // here directly.
  const auto expected = [&](const std::vector<bool>& hot_ok,
                            const std::vector<bool>& full_ok) {
    const auto store_of = [&](const std::vector<bool>& ok) {
      UnifiedTraceStore store;
      std::vector<TraceEvent> kept;
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (ok[i / kBlockRecords]) {
          kept.push_back(events[i]);
        }
      }
      store.ingest(EventBatch::from_events(kept), {{"framework", "test"}});
      return store;
    };
    const UnifiedTraceStore hot = store_of(hot_ok);
    const UnifiedTraceStore full = store_of(full_ok);
    Answers a{hot.call_stats(), hot.bytes_in_window(kWindowBegin, kWindowEnd),
              {}, full.rank_timeline(kRank), full.hottest_files(8)};
    const SimTime lo = events.front().local_start;
    const SimTime hi = events.back().local_start;
    for (SimTime t = lo; t <= hi; t += kBucket) {
      a.rate.emplace_back(t, 0);
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
      const TraceEvent& ev = events[i];
      if (hot_ok[i / kBlockRecords] &&
          (ev.name == "SYS_write" || ev.name == "SYS_read")) {
        a.rate[static_cast<std::size_t>((ev.local_start - lo) / kBucket)]
            .second += ev.bytes;
      }
    }
    return a;
  };
  std::map<std::pair<std::vector<bool>, std::vector<bool>>, Answers> cache;
  const auto expected_for = [&](const std::vector<bool>& hot_ok,
                                const std::vector<bool>& full_ok)
      -> const Answers& {
    const auto key = std::pair(hot_ok, full_ok);
    auto it = cache.find(key);
    if (it == cache.end()) {
      it = cache.emplace(key, expected(hot_ok, full_ok)).first;
    }
    return it->second;
  };
  const std::vector<bool> all_ok(nblocks, true);
  const Answers& intact = expected_for(all_ok, all_ok);

  const std::string path =
      strprintf("/tmp/iotaxo_mutation_sweep_%s_%d.iotb3", v.name,
                ::testing::UnitTest::GetInstance()->random_seed());
  int failures = 0;
  const auto fail = [&](std::size_t pos, int how, const std::string& what) {
    if (++failures <= 10) {
      ADD_FAILURE() << v.name << " byte " << pos << " mutation " << how
                    << ": " << what;
    }
  };
  std::size_t mutants = 0;
  std::size_t rejected = 0;
  std::size_t identical = 0;
  std::size_t skipped = 0;
  for (std::size_t pos = 0; pos < healthy.size(); ++pos) {
    for (int how = 0; how < 3; ++how) {
      const std::uint8_t byte =
          how == 0 ? static_cast<std::uint8_t>(healthy[pos] ^ (1u << (pos % 8)))
          : how == 1 ? std::uint8_t{0x00}
                     : std::uint8_t{0xFF};
      if (byte == healthy[pos]) {
        continue;
      }
      ++mutants;
      std::vector<std::uint8_t> bytes = healthy;
      bytes[pos] = byte;
      {
        std::FILE* f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
        std::fclose(f);
      }
      UnifiedTraceStore store;
      store.set_query_threads(1);
      try {
        store.ingest_view(path, {{"framework", "test"}}, options.key);
      } catch (const FormatError&) {
        ++rejected;
        continue;
      }

      // Which blocks still decode, from an independent view of the bytes.
      const trace::BlockView probe(bytes, options.key);
      if (probe.block_count() != nblocks) {
        fail(pos, how, "block count changed yet the container opened");
        continue;
      }
      std::vector<bool> full_ok(nblocks, false);
      std::vector<bool> hot_ok(nblocks, false);
      std::size_t hot_bad = 0;
      std::size_t full_bad = 0;
      for (std::size_t b = 0; b < nblocks; ++b) {
        try {
          (void)probe.block_bytes(b);
          full_ok[b] = true;
        } catch (const FormatError&) {
          ++full_bad;
        }
        try {
          (void)(v.project ? probe.hot_bytes(b) : probe.block_bytes(b));
          hot_ok[b] = true;
        } catch (const FormatError&) {
          ++hot_bad;
        }
      }
      const bool damaged = full_bad != 0;

      // Fail-fast: a query either throws FormatError (only possible when a
      // block is damaged) or answers exactly as the intact container does.
      const auto fail_fast = [&](const char* q, auto&& run, const auto& want) {
        try {
          if (!(run() == want)) {
            fail(pos, how, std::string(q) + " answered wrong (fail-fast)");
          }
        } catch (const FormatError&) {
          if (!damaged) {
            fail(pos, how, std::string(q) + " threw on an intact container");
          }
        }
      };
      fail_fast("call_stats", [&] { return store.call_stats(); }, intact.calls);
      fail_fast("bytes_in_window",
                [&] { return store.bytes_in_window(kWindowBegin, kWindowEnd); },
                intact.window);
      fail_fast("io_rate_series", [&] { return store.io_rate_series(kBucket); },
                intact.rate);
      fail_fast("rank_timeline", [&] { return store.rank_timeline(kRank); },
                intact.timeline);
      fail_fast("hottest_files", [&] { return store.hottest_files(8); },
                intact.heat);

      // skip_damaged: the healthy blocks' answers. With the index skips off
      // every query touches every block, so the counters are exact: three
      // hot-column queries and two whole-record ones.
      const Answers& want = expected_for(hot_ok, full_ok);
      store.set_scan_policy({.skip_damaged = true});
      for (const bool indexes : {false, true}) {
        store.set_use_indexes(indexes);
        store.reset_damage_counters();
        Answers got;
        try {
          got = ask(store);
        } catch (const std::exception& err) {
          fail(pos, how,
               std::string("skip_damaged query threw: ") + err.what());
          continue;
        }
        if (!(got.calls == want.calls) || got.window != want.window ||
            got.rate != want.rate || got.timeline != want.timeline ||
            got.heat != want.heat) {
          fail(pos, how, strprintf("skip_damaged answers differ from the "
                                   "healthy blocks' (indexes %d)",
                                   indexes ? 1 : 0));
        }
        const std::uint64_t bad = 3 * hot_bad + 2 * full_bad;
        const DamageCounters exact{bad, bad * kBlockRecords};
        const DamageCounters counted = store.damage_counters();
        if (indexes ? counted.skipped_blocks > exact.skipped_blocks ||
                          counted.skipped_records !=
                              counted.skipped_blocks * kBlockRecords
                    : !(counted == exact)) {
          fail(pos, how,
               strprintf("damage counters {%llu, %llu}, exact {%llu, %llu} "
                         "(indexes %d)",
                         static_cast<unsigned long long>(
                             counted.skipped_blocks),
                         static_cast<unsigned long long>(
                             counted.skipped_records),
                         static_cast<unsigned long long>(exact.skipped_blocks),
                         static_cast<unsigned long long>(exact.skipped_records),
                         indexes ? 1 : 0));
        }
      }
      ++(damaged ? skipped : identical);
    }
  }
  std::remove(path.c_str());
  EXPECT_EQ(failures, 0);
  // Every shape exercises both ends: damage caught at open and block damage
  // skipped at query time.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(skipped, 0u);
  EXPECT_EQ(rejected + skipped + identical, mutants);
}

/// Which of the five store answers differ from the reference's, or empty.
/// Equal byte counts in hottest_files may come back in any order, so rank
/// i must carry the reference's i-th count and name a file with exactly it.
[[nodiscard]] std::string differs_from_reference(
    const UnifiedTraceStore& store, const perfbench::RefStore& ref,
    SimTime begin, SimTime end, SimTime bucket) {
  std::string differs;
  std::map<std::string, CallStats> calls;
  for (const auto& [name, c] : ref.call_stats()) {
    calls[name] = {c.count, c.time, c.bytes};
  }
  if (store.call_stats() != calls) {
    differs += " call_stats";
  }
  std::vector<TraceEvent> timeline = store.rank_timeline(kRank);
  perfbench::RefStore::sort_events(timeline);
  if (timeline != ref.rank_timeline()) {
    differs += " rank_timeline";
  }
  if (store.bytes_in_window(begin, end) != ref.bytes_in_window(begin, end)) {
    differs += " bytes_in_window";
  }
  if (store.io_rate_series(bucket) != ref.io_rate_series(bucket)) {
    differs += " io_rate_series";
  }
  const std::vector<perfbench::RefHeat> heat = ref.hottest_files();
  const std::vector<FileHeat> got = store.hottest_files(heat.size());
  bool heat_ok = got.size() == heat.size();
  for (std::size_t i = 0; heat_ok && i < got.size(); ++i) {
    heat_ok = got[i].bytes == heat[i].bytes &&
              std::any_of(heat.begin(), heat.end(), [&](const auto& h) {
                return h.path == got[i].path && h.ops == got[i].ops &&
                       h.bytes == got[i].bytes;
              });
  }
  if (!heat_ok) {
    differs += " hottest_files";
  }
  return differs;
}

TEST(ManifestMutationSweep, EveryByteQuarantinesExactlyTheManifest) {
  namespace fs = std::filesystem;
  constexpr int kEras = 3;
  const std::string dir =
      strprintf("/tmp/iotaxo_manifest_sweep_%d",
                ::testing::UnitTest::GetInstance()->random_seed());
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Three committed eras, one manifest commit each; the reference folds
  // the same events in store order.
  perfbench::RefStore ref(kRank);
  {
    UnifiedTraceStore store;
    for (int era = 0; era < kEras; ++era) {
      std::vector<TraceEvent> events = sweep_events();
      for (TraceEvent& ev : events) {
        ev.local_start += era * static_cast<SimTime>(kEvents) * kMillisecond;
        ref.add(ev);
      }
      store.ingest(EventBatch::from_events(events), {{"framework", "test"}});
    }
    UnifiedTraceStore::ColdTierOptions cold;
    cold.directory = dir;
    cold.binary.checksum = true;
    cold.block_records = kBlockRecords;
    ASSERT_EQ(store.compact(1, cold), static_cast<std::size_t>(kEras));
  }
  const SimTime begin = kWindowBegin;
  const SimTime end = kWindowEnd + 2 * static_cast<SimTime>(kEvents) *
                                        kMillisecond;
  const std::string manifest_path = dir + "/" + std::string(kManifestFileName);
  const std::optional<StoreManifest> committed = StoreManifest::load(dir);
  ASSERT_TRUE(committed.has_value());
  ASSERT_EQ(committed->entries.size(), static_cast<std::size_t>(kEras));
  const std::vector<std::uint8_t> healthy = committed->encode();
  {
    UnifiedTraceStore store;
    const StoreHealth health = store.attach_dir(dir);
    ASSERT_TRUE(health.healthy());
    ASSERT_EQ(health.recovered_eras, static_cast<std::size_t>(kEras));
    ASSERT_EQ(differs_from_reference(store, ref, begin, end, kBucket), "");
  }

  // Every mutant quarantines the manifest; keep its warning off the log.
  const LogLevel log_level_before = log_level();
  set_log_level(LogLevel::kError);
  int failures = 0;
  const auto fail = [&](std::size_t pos, int how, const std::string& what) {
    if (++failures <= 10) {
      ADD_FAILURE() << "manifest byte " << pos << " mutation " << how << ": "
                    << what;
    }
  };
  std::size_t mutants = 0;
  for (std::size_t pos = 0; pos < healthy.size(); ++pos) {
    for (int how = 0; how < 3; ++how) {
      const std::uint8_t byte =
          how == 0 ? static_cast<std::uint8_t>(healthy[pos] ^ (1u << (pos % 8)))
          : how == 1 ? std::uint8_t{0x00}
                     : std::uint8_t{0xFF};
      if (byte == healthy[pos]) {
        continue;
      }
      ++mutants;
      std::vector<std::uint8_t> bytes = healthy;
      bytes[pos] = byte;
      {
        std::FILE* f = std::fopen(manifest_path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
        std::fclose(f);
      }
      UnifiedTraceStore store;
      store.set_query_threads(1);
      StoreHealth health;
      try {
        health = store.attach_dir(dir);
      } catch (const std::exception& err) {
        fail(pos, how, std::string("attach_dir threw: ") + err.what());
        continue;
      }
      if (health.quarantined.size() != 1 ||
          health.quarantined[0].file != kManifestFileName) {
        fail(pos, how,
             strprintf("%zu quarantined, not exactly the manifest",
                       health.quarantined.size()));
      }
      if (health.recovered_eras != static_cast<std::size_t>(kEras)) {
        fail(pos, how, strprintf("%zu eras recovered", health.recovered_eras));
      }
      try {
        const std::string differs =
            differs_from_reference(store, ref, begin, end, kBucket);
        if (!differs.empty()) {
          fail(pos, how, "answers differ from the reference:" + differs);
        }
      } catch (const std::exception& err) {
        fail(pos, how, std::string("query threw: ") + err.what());
      }
    }
  }
  set_log_level(log_level_before);
  fs::remove_all(dir);
  EXPECT_EQ(failures, 0);
  EXPECT_GT(mutants, 2 * healthy.size());
}

INSTANTIATE_TEST_SUITE_P(
    Iotb3, MutationSweep,
    ::testing::Values(Variant{"plain", false, false, false},
                      Variant{"compressed", true, false, false},
                      Variant{"encrypted", false, true, false},
                      Variant{"projected", false, false, true}),
    [](const ::testing::TestParamInfo<Variant>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace iotaxo::analysis
