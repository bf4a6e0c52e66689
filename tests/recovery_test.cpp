// Crash-safety tests: the failpoint registry, the durable write protocol
// (tmp + fsync + rename + dir fsync), MANIFEST.iotm round trips, and
// UnifiedTraceStore::attach_dir recovery — including the crash matrix,
// which discovers every failpoint the cold-commit path evaluates (via
// fail::set_tracing) and simulates a process death at each one in turn,
// asserting that recovery serves exactly the last committed state, and that
// fsck's walk (the same recover_store_dir with a decode-every-block check)
// names the same files as attach_dir in every such state. Plus
// ScanPolicy::skip_damaged: queries and DFG builds over a store with a
// corrupt block complete over everything healthy with exact damage
// counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/dfg/dfg.h"
#include "analysis/dfg/live_dfg.h"
#include "analysis/store_manifest.h"
#include "analysis/unified_store.h"
#include "trace/binary_format.h"
#include "trace/event_batch.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace iotaxo::analysis {
namespace {

using trace::EventBatch;
using trace::TraceEvent;

/// Disarm every failpoint on scope exit, so a failing assertion mid-test
/// cannot leak an armed point into later tests.
struct FailpointGuard {
  FailpointGuard() { fail::clear(); }
  ~FailpointGuard() { fail::clear(); }
};

[[nodiscard]] std::vector<TraceEvent> era_events(int era, int count) {
  std::vector<TraceEvent> events;
  for (int i = 0; i < count; ++i) {
    TraceEvent ev = trace::make_syscall(
        i % 3 == 0 ? "SYS_read" : "SYS_write",
        {"5", "4096", strprintf("%d", i)}, 4096);
    ev.rank = i % 4;
    ev.host = "host00";
    ev.path = i % 2 == 0 ? strprintf("/pfs/era%d.dat", era) : "";
    ev.fd = 5;
    ev.bytes = 4096;
    ev.local_start = static_cast<SimTime>(era) * kSecond +
                     static_cast<SimTime>(i) * kMillisecond;
    ev.duration = 10 * kMicrosecond;
    events.push_back(std::move(ev));
  }
  return events;
}

[[nodiscard]] auto all_queries(const UnifiedTraceStore& store) {
  return std::tuple{store.call_stats(),
                    store.bytes_in_window(0, 10 * kSecond),
                    store.io_rate_series(from_millis(25.0)),
                    store.hottest_files(8)};
}

std::string make_scratch_dir(const char* tag) {
  const std::string dir =
      strprintf("/tmp/iotaxo_recovery_%s_%d", tag,
                ::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

[[nodiscard]] UnifiedTraceStore::ColdTierOptions cold_options(
    const std::string& dir) {
  UnifiedTraceStore::ColdTierOptions cold;
  cold.directory = dir;
  cold.binary.compress = true;
  cold.binary.checksum = true;
  cold.block_records = 16;
  return cold;
}

/// One committed era of `count` events in `dir` (commit through the full
/// spill + manifest protocol).
void commit_era(const std::string& dir, int era, int count) {
  UnifiedTraceStore store;
  const StoreHealth health = store.attach_dir(dir);
  ASSERT_TRUE(health.healthy());
  store.ingest(EventBatch::from_events(era_events(era, count)),
               {{"framework", "test"}, {"application", strprintf("e%d", era)}});
  ASSERT_GE(store.compact(static_cast<std::size_t>(-1), cold_options(dir)),
            1u);
}

[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Replace `dir`'s committed entries, under a valid manifest CRC.
void rewrite_manifest(const std::string& dir,
                      std::vector<ManifestEntry> entries) {
  const std::optional<StoreManifest> loaded = StoreManifest::load(dir);
  ASSERT_TRUE(loaded.has_value()) << dir;
  StoreManifest manifest = *loaded;
  manifest.entries = std::move(entries);
  write_file(dir + "/" + std::string(kManifestFileName), manifest.encode());
}

// ---------------------------------------------------------------- registry

TEST(Failpoint, InactiveByDefaultAndAfterClear) {
  FailpointGuard guard;
  EXPECT_FALSE(fail::active());
  fail::point("nonexistent");  // must be a no-op
  EXPECT_EQ(fail::torn_limit("nonexistent"), std::nullopt);

  fail::configure("x", "error");
  EXPECT_TRUE(fail::active());
  fail::clear();
  EXPECT_FALSE(fail::active());
  fail::point("x");  // disarmed again
}

TEST(Failpoint, ErrorCrashAndTornActions) {
  FailpointGuard guard;
  fail::configure("a", "error");
  EXPECT_THROW(fail::point("a"), IoError);
  fail::configure("b", "crash");
  EXPECT_THROW(fail::point("b"), fail::CrashError);
  // CrashError is deliberately not an iotaxo::Error: a recovery-oblivious
  // catch (const Error&) must not swallow a simulated death.
  try {
    fail::point("b");
    FAIL() << "crash failpoint did not throw";
  } catch (const Error&) {
    FAIL() << "CrashError must not be catchable as iotaxo::Error";
  } catch (const fail::CrashError&) {
  }
  fail::configure("c", "torn:8");
  fail::point("c");  // torn specs act at the write site, not at point()
  EXPECT_EQ(fail::torn_limit("c"), std::uint64_t{8});
  EXPECT_EQ(fail::torn_limit("a"), std::nullopt);
  EXPECT_THROW(fail::configure("d", "bogus"), ConfigError);
  EXPECT_THROW(fail::configure("d", "torn:"), ConfigError);
  EXPECT_THROW(fail::configure("d", "torn:9x"), ConfigError);
}

TEST(Failpoint, ConfigureFromSpecParsesLists) {
  FailpointGuard guard;
  fail::configure_from_spec("p=error,,q=torn:3,");
  EXPECT_THROW(fail::point("p"), IoError);
  EXPECT_EQ(fail::torn_limit("q"), std::uint64_t{3});
  EXPECT_THROW(fail::configure_from_spec("nospec"), ConfigError);
}

TEST(Failpoint, TracingRecordsFirstHitOrder) {
  FailpointGuard guard;
  fail::set_tracing(true);
  fail::point("one");
  fail::point("two");
  fail::point("one");  // duplicates collapse to the first hit
  const std::vector<std::string> traced = fail::traced_points();
  fail::set_tracing(false);
  ASSERT_EQ(traced.size(), 2u);
  EXPECT_EQ(traced[0], "one");
  EXPECT_EQ(traced[1], "two");
}

// ----------------------------------------------------------- durable write

TEST(DurableWrite, RoundTripLeavesNoTmp) {
  const std::string dir = make_scratch_dir("durable");
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5};
  trace::write_binary_file(dir + "/out.bin", bytes);
  EXPECT_EQ(read_file(dir + "/out.bin"), bytes);
  EXPECT_FALSE(std::filesystem::exists(dir + "/out.bin.tmp"));
  std::filesystem::remove_all(dir);
}

TEST(DurableWrite, TornWriteLeavesOnlyTruncatedTmp) {
  FailpointGuard guard;
  const std::string dir = make_scratch_dir("torn");
  const std::vector<std::uint8_t> bytes(64, 0xAB);
  fail::configure("binary.file.write", "torn:7");
  EXPECT_THROW(trace::write_binary_file(dir + "/out.bin", bytes),
               fail::CrashError);
  EXPECT_FALSE(std::filesystem::exists(dir + "/out.bin"));
  ASSERT_TRUE(std::filesystem::exists(dir + "/out.bin.tmp"));
  EXPECT_EQ(std::filesystem::file_size(dir + "/out.bin.tmp"), 7u);
  std::filesystem::remove_all(dir);
}

TEST(DurableWrite, CrashBeforeRenameLeavesFullTmp) {
  FailpointGuard guard;
  const std::string dir = make_scratch_dir("prerename");
  const std::vector<std::uint8_t> bytes(64, 0xCD);
  fail::configure("binary.file.rename", "crash");
  EXPECT_THROW(trace::write_binary_file(dir + "/out.bin", bytes),
               fail::CrashError);
  EXPECT_FALSE(std::filesystem::exists(dir + "/out.bin"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/out.bin.tmp"));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------- manifest

TEST(StoreManifest, EncodeDecodeRoundTrip) {
  StoreManifest m;
  m.next_seq = 7;
  m.entries.push_back({"era-5.iotb3", 1234, 0xDEADBEEF, 5});
  m.entries.push_back({"era-6.iotb3", 99, 0x1, 6});
  const std::vector<std::uint8_t> bytes = m.encode();
  EXPECT_EQ(StoreManifest::decode(bytes), m);
  EXPECT_EQ(*m.find("era-6.iotb3"), m.entries[1]);
  EXPECT_EQ(m.find("era-0.iotb3"), nullptr);
}

TEST(StoreManifest, DecodeRejectsCorruption) {
  StoreManifest m;
  m.next_seq = 1;
  m.entries.push_back({"era-0.iotb3", 10, 2, 0});
  std::vector<std::uint8_t> bytes = m.encode();
  // Any flipped bit — magic, counts, names, or the seal itself — fails the
  // sealing CRC before any count is trusted.
  for (const std::size_t at : {std::size_t{0}, std::size_t{8},
                               bytes.size() / 2, bytes.size() - 1}) {
    std::vector<std::uint8_t> bad = bytes;
    bad[at] ^= 0x10;
    EXPECT_THROW(StoreManifest::decode(bad), FormatError) << "offset " << at;
  }
  EXPECT_THROW(StoreManifest::decode(std::vector<std::uint8_t>(4, 0)),
               FormatError);
}

/// A CRC-valid manifest listing `names` in order.
[[nodiscard]] std::vector<std::uint8_t> manifest_naming(
    const std::vector<std::string>& names) {
  StoreManifest m;
  for (const std::string& name : names) {
    m.entries.push_back({name, 10, 2, m.next_seq++});
  }
  return m.encode();
}

TEST(StoreManifest, DecodeRejectsRepeatedName) {
  EXPECT_NO_THROW((void)StoreManifest::decode(
      manifest_naming({"era-0.iotb3", "era-1.iotb3"})));
  EXPECT_THROW((void)StoreManifest::decode(manifest_naming(
                   {"era-0.iotb3", "era-1.iotb3", "era-0.iotb3"})),
               FormatError);
}

TEST(StoreManifest, DecodeRejectsEmptyName) {
  EXPECT_THROW((void)StoreManifest::decode(manifest_naming({"era-0.iotb3", ""})),
               FormatError);
}

TEST(StoreManifest, DecodeRejectsDotNames) {
  for (const char* name : {".", ".."}) {
    EXPECT_THROW((void)StoreManifest::decode(manifest_naming({name})),
                 FormatError)
        << name;
  }
}

TEST(StoreManifest, DecodeRejectsNamesWithASlash) {
  for (const char* name :
       {"sub/era-0.iotb3", "/tmp/era-0.iotb3", "../era-0.iotb3", "era-0/"}) {
    EXPECT_THROW((void)StoreManifest::decode(manifest_naming({name})),
                 FormatError)
        << name;
  }
}

TEST(StoreManifest, LoadAbsentReturnsNullopt) {
  const std::string dir = make_scratch_dir("manifest_absent");
  EXPECT_EQ(StoreManifest::load(dir), std::nullopt);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------- attach_dir

TEST(AttachDir, EmptyDirectoryIsHealthy) {
  const std::string dir = make_scratch_dir("attach_empty");
  UnifiedTraceStore store;
  const StoreHealth health = store.attach_dir(dir);
  EXPECT_TRUE(health.healthy());
  EXPECT_EQ(health.recovered_eras, 0u);
  EXPECT_EQ(health.torn_tmps_removed, 0u);
  EXPECT_EQ(store.total_events(), 0);
  EXPECT_THROW((void)UnifiedTraceStore().attach_dir(dir + "/nope"), IoError);
  std::filesystem::remove_all(dir);
}

TEST(AttachDir, RecoversCommittedErasAndMatchesOwned) {
  const std::string dir = make_scratch_dir("attach_ok");
  commit_era(dir, 0, 40);
  commit_era(dir, 1, 40);

  UnifiedTraceStore owned;
  for (int era = 0; era < 2; ++era) {
    owned.ingest(EventBatch::from_events(era_events(era, 40)),
                 {{"framework", "test"}});
  }
  UnifiedTraceStore store;
  const StoreHealth health = store.attach_dir(dir);
  EXPECT_TRUE(health.healthy());
  EXPECT_EQ(health.recovered_eras, 2u);
  EXPECT_EQ(store.pool_count(), 2u);
  EXPECT_EQ(all_queries(store), all_queries(owned));
  EXPECT_EQ(store.rank_timeline(1), owned.rank_timeline(1));

  // Compacting *into* the attached directory continues the era numbering
  // (no collision with the recovered files), and a fresh attach serves all
  // three eras.
  store.ingest(EventBatch::from_events(era_events(2, 40)),
               {{"framework", "test"}});
  ASSERT_EQ(store.compact(static_cast<std::size_t>(-1), cold_options(dir)),
            3u);
  owned.ingest(EventBatch::from_events(era_events(2, 40)),
               {{"framework", "test"}});
  UnifiedTraceStore reattached;
  const StoreHealth health2 = reattached.attach_dir(dir);
  EXPECT_TRUE(health2.healthy());
  EXPECT_EQ(health2.recovered_eras, 3u);
  EXPECT_EQ(all_queries(reattached), all_queries(owned));
  std::filesystem::remove_all(dir);
}

TEST(AttachDir, QuarantinesCorruptEraAndServesTheRest) {
  const std::string dir = make_scratch_dir("attach_corrupt");
  commit_era(dir, 0, 40);
  commit_era(dir, 1, 40);

  // Flip one payload byte of era 1: its whole-file CRC no longer matches
  // the manifest, so attach must quarantine it — not throw — and serve
  // era 0.
  const std::string victim = dir + "/era-1.iotb3";
  std::vector<std::uint8_t> bytes = read_file(victim);
  bytes[bytes.size() / 2] ^= 0x01;
  write_file(victim, bytes);

  UnifiedTraceStore store;
  const StoreHealth health = store.attach_dir(dir);
  EXPECT_FALSE(health.healthy());
  EXPECT_EQ(health.recovered_eras, 1u);
  ASSERT_EQ(health.quarantined.size(), 1u);
  EXPECT_EQ(health.quarantined[0].file, "era-1.iotb3");
  EXPECT_NE(health.quarantined[0].reason.find("CRC"), std::string::npos)
      << health.quarantined[0].reason;
  EXPECT_TRUE(std::filesystem::exists(victim));  // reported, never deleted

  UnifiedTraceStore owned;
  owned.ingest(EventBatch::from_events(era_events(0, 40)),
               {{"framework", "test"}});
  EXPECT_EQ(all_queries(store), all_queries(owned));
  std::filesystem::remove_all(dir);
}

TEST(AttachDir, UnlistedContainerIsQuarantinedAsUncommitted) {
  const std::string dir = make_scratch_dir("attach_unlisted");
  commit_era(dir, 0, 40);
  // A crash between the era rename and the manifest update leaves a valid
  // but uncommitted container: present, not listed. It must be reported
  // and not served (the committed state never included it).
  const std::vector<std::uint8_t> era = trace::encode_binary_v3(
      EventBatch::from_events(era_events(9, 16)), {}, 16);
  write_file(dir + "/era-9.iotb3", era);

  UnifiedTraceStore store;
  const StoreHealth health = store.attach_dir(dir);
  EXPECT_EQ(health.recovered_eras, 1u);
  ASSERT_EQ(health.quarantined.size(), 1u);
  EXPECT_EQ(health.quarantined[0].file, "era-9.iotb3");
  EXPECT_NE(health.quarantined[0].reason.find("manifest"), std::string::npos);

  UnifiedTraceStore owned;
  owned.ingest(EventBatch::from_events(era_events(0, 40)),
               {{"framework", "test"}});
  EXPECT_EQ(all_queries(store), all_queries(owned));

  // Later compactions must not collide with the orphan's number either.
  store.ingest(EventBatch::from_events(era_events(2, 16)),
               {{"framework", "test"}});
  (void)store.compact(static_cast<std::size_t>(-1), cold_options(dir));
  EXPECT_TRUE(std::filesystem::exists(dir + "/era-10.iotb3"));
  std::filesystem::remove_all(dir);
}

TEST(AttachDir, CorruptManifestFallsBackToOpenValidation) {
  const std::string dir = make_scratch_dir("attach_badmanifest");
  commit_era(dir, 0, 40);
  commit_era(dir, 1, 40);
  const std::string manifest_path =
      dir + "/" + std::string(kManifestFileName);
  std::vector<std::uint8_t> bytes = read_file(manifest_path);
  bytes[bytes.size() - 2] ^= 0xFF;
  write_file(manifest_path, bytes);

  UnifiedTraceStore store;
  const StoreHealth health = store.attach_dir(dir);
  // The manifest itself is quarantined; both eras still open cleanly and
  // are served.
  EXPECT_FALSE(health.healthy());
  ASSERT_EQ(health.quarantined.size(), 1u);
  EXPECT_EQ(health.quarantined[0].file, kManifestFileName);
  EXPECT_EQ(health.recovered_eras, 2u);

  UnifiedTraceStore owned;
  for (int era = 0; era < 2; ++era) {
    owned.ingest(EventBatch::from_events(era_events(era, 40)),
                 {{"framework", "test"}});
  }
  EXPECT_EQ(all_queries(store), all_queries(owned));
  std::filesystem::remove_all(dir);
}

TEST(AttachDir, RemovesTornTmps) {
  FailpointGuard guard;
  const std::string dir = make_scratch_dir("attach_torn");
  commit_era(dir, 0, 40);

  // Crash mid-write of the next era: a truncated era-1.iotb3.tmp is left
  // behind.
  {
    UnifiedTraceStore store;
    (void)store.attach_dir(dir);
    store.ingest(EventBatch::from_events(era_events(1, 40)),
                 {{"framework", "test"}});
    fail::configure("store.cold.write", "torn:40");
    EXPECT_THROW(
        (void)store.compact(static_cast<std::size_t>(-1), cold_options(dir)),
        fail::CrashError);
  }
  fail::clear();
  ASSERT_TRUE(std::filesystem::exists(dir + "/era-1.iotb3.tmp"));

  UnifiedTraceStore store;
  const StoreHealth health = store.attach_dir(dir);
  EXPECT_TRUE(health.healthy());  // a torn tmp is routine crash litter
  EXPECT_EQ(health.torn_tmps_removed, 1u);
  EXPECT_EQ(health.recovered_eras, 1u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/era-1.iotb3.tmp"));

  UnifiedTraceStore owned;
  owned.ingest(EventBatch::from_events(era_events(0, 40)),
               {{"framework", "test"}});
  EXPECT_EQ(all_queries(store), all_queries(owned));
  std::filesystem::remove_all(dir);
}

// A manifest listing one era twice is corrupt: served through it, the era
// would count twice in every query.
TEST(AttachDir, RepeatedManifestEntryQuarantinesTheManifest) {
  const std::string dir = make_scratch_dir("attach_repeated");
  commit_era(dir, 0, 40);
  commit_era(dir, 1, 40);
  std::vector<ManifestEntry> entries = StoreManifest::load(dir)->entries;
  entries.push_back(entries.front());
  rewrite_manifest(dir, entries);

  UnifiedTraceStore store;
  const StoreHealth health = store.attach_dir(dir);
  ASSERT_EQ(health.quarantined.size(), 1u);
  EXPECT_EQ(health.quarantined[0].file, kManifestFileName);
  EXPECT_EQ(health.recovered_eras, 2u);  // each era once, by open-validation

  UnifiedTraceStore owned;
  for (int era = 0; era < 2; ++era) {
    owned.ingest(EventBatch::from_events(era_events(era, 40)),
                 {{"framework", "test"}});
  }
  EXPECT_EQ(all_queries(store), all_queries(owned));
  std::filesystem::remove_all(dir);
}

// A manifest entry naming a path, not a file in the directory, is never
// followed: the manifest is quarantined and nothing outside is served.
TEST(AttachDir, ManifestEntryOutsideTheDirectoryIsNotServed) {
  const std::string dir = make_scratch_dir("attach_path_entry");
  commit_era(dir, 0, 40);
  std::filesystem::create_directories(dir + "/sub");
  std::filesystem::rename(dir + "/era-0.iotb3", dir + "/sub/era-0.iotb3");
  std::vector<ManifestEntry> entries = StoreManifest::load(dir)->entries;
  entries.front().name = "sub/era-0.iotb3";
  rewrite_manifest(dir, entries);

  UnifiedTraceStore store;
  const StoreHealth health = store.attach_dir(dir);
  ASSERT_EQ(health.quarantined.size(), 1u);
  EXPECT_EQ(health.quarantined[0].file, kManifestFileName);
  EXPECT_EQ(health.recovered_eras, 0u);
  EXPECT_EQ(store.total_events(), 0);
  std::filesystem::remove_all(dir);
}

// Without a manifest containers attach in era order: numbered eras by
// sequence number, then unnumbered names, whatever their spelling.
TEST(AttachDir, UnnumberedContainersAttachAfterNumberedEras) {
  const std::string dir = make_scratch_dir("attach_unnumbered");
  const auto write_container = [&](const std::string& name, int era,
                                   int count) {
    write_file(dir + "/" + name,
               trace::encode_binary_v3(
                   EventBatch::from_events(era_events(era, count)), {}, 16));
  };
  write_container("archive.iotb3", 2, 30);
  write_container("era-1.iotb3", 1, 20);
  write_container("era-0.iotb3", 0, 10);

  UnifiedTraceStore store;
  const StoreHealth health = store.attach_dir(dir);
  EXPECT_TRUE(health.healthy());
  ASSERT_EQ(health.recovered_eras, 3u);
  std::vector<long long> records;
  for (const StorePoolInfo& info : store.pool_infos()) {
    records.push_back(info.records);
  }
  EXPECT_EQ(records, (std::vector<long long>{10, 20, 30}));
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------ crash matrix

// Simulate one cold-commit attempt that dies at failpoint `point`, then
// recover. Returns the recovered store's query results.
[[nodiscard]] auto crash_and_recover(const std::string& dir,
                                     const std::string& point) {
  {
    UnifiedTraceStore store;
    (void)store.attach_dir(dir);
    store.ingest(EventBatch::from_events(era_events(1, 40)),
                 {{"framework", "test"}});
    fail::configure(point, "crash");
    EXPECT_THROW(
        (void)store.compact(static_cast<std::size_t>(-1), cold_options(dir)),
        fail::CrashError)
        << "at " << point;
    fail::clear();
  }  // the crashed process's store dies with it
  UnifiedTraceStore recovered;
  const StoreHealth health = recovered.attach_dir(dir);
  // Whatever the crash left behind, recovery must serve *something*
  // consistent without throwing; quarantined files and removed tmps are
  // legitimate, lost committed eras are not (asserted by the caller via
  // query results).
  return std::tuple{all_queries(recovered), recovered.rank_timeline(1),
                    health};
}

TEST(CrashMatrix, EveryFailpointRecoversToLastCommittedState) {
  FailpointGuard guard;

  // Discover the full commit protocol by tracing one healthy commit.
  const std::string trace_dir = make_scratch_dir("matrix_trace");
  commit_era(trace_dir, 0, 40);
  fail::set_tracing(true);
  commit_era(trace_dir, 1, 40);
  const std::vector<std::string> points = fail::traced_points();
  fail::set_tracing(false);
  std::filesystem::remove_all(trace_dir);

  // The protocol must contain every documented step, in order; the matrix
  // then widens automatically when new failpoints join the path.
  const std::vector<std::string> expected = {
      "store.cold.spill",      "store.cold.write",
      "store.cold.fsync",      "store.cold.rename",
      "store.cold.dirsync",    "store.manifest.update",
      "store.manifest.write",  "store.manifest.fsync",
      "store.manifest.rename", "store.manifest.dirsync",
      "store.cold.swap"};
  ASSERT_EQ(points, expected);

  // The commit point: once the manifest rename has happened, the new era
  // is committed. fail::point fires *before* its step executes, so crashes
  // at or before "store.manifest.rename" roll back, later ones commit.
  std::size_t commit_at = 0;
  while (points[commit_at] != "store.manifest.rename") {
    ++commit_at;
  }

  UnifiedTraceStore owned_before;
  owned_before.ingest(EventBatch::from_events(era_events(0, 40)),
                      {{"framework", "test"}});
  UnifiedTraceStore owned_after;
  for (int era = 0; era < 2; ++era) {
    owned_after.ingest(EventBatch::from_events(era_events(era, 40)),
                       {{"framework", "test"}});
  }
  const auto before = all_queries(owned_before);
  const auto before_timeline = owned_before.rank_timeline(1);
  const auto after = all_queries(owned_after);
  const auto after_timeline = owned_after.rank_timeline(1);

  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE("crash at " + points[i]);
    const std::string dir = make_scratch_dir("matrix");
    commit_era(dir, 0, 40);  // the last committed state
    const auto [queries, timeline, health] =
        crash_and_recover(dir, points[i]);
    if (i <= commit_at) {
      EXPECT_EQ(queries, before);
      EXPECT_EQ(timeline, before_timeline);
    } else {
      EXPECT_EQ(queries, after);
      EXPECT_EQ(timeline, after_timeline);
      EXPECT_EQ(health.recovered_eras, 2u);
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(CrashMatrix, TornWritesAtEveryWidthRecover) {
  FailpointGuard guard;
  UnifiedTraceStore owned_before;
  owned_before.ingest(EventBatch::from_events(era_events(0, 40)),
                      {{"framework", "test"}});
  const auto before = all_queries(owned_before);

  // Tear the era write at several widths (including 0: the tmp exists but
  // is empty). Every one of them rolls back to the committed state.
  for (const char* spec : {"torn:0", "torn:1", "torn:100"}) {
    SCOPED_TRACE(spec);
    const std::string dir = make_scratch_dir("torn_matrix");
    commit_era(dir, 0, 40);
    {
      UnifiedTraceStore store;
      (void)store.attach_dir(dir);
      store.ingest(EventBatch::from_events(era_events(1, 40)),
                   {{"framework", "test"}});
      fail::configure("store.cold.write", spec);
      EXPECT_THROW((void)store.compact(static_cast<std::size_t>(-1),
                                       cold_options(dir)),
                   fail::CrashError);
      fail::clear();
    }
    UnifiedTraceStore recovered;
    const StoreHealth health = recovered.attach_dir(dir);
    EXPECT_EQ(health.torn_tmps_removed, 1u);
    EXPECT_EQ(all_queries(recovered), before);
    std::filesystem::remove_all(dir);
  }
}

// Streaming ingest adds a window the original matrix never exercised: the
// open era is sealed (an in-memory state change) before the cold commit
// persists it. A crash anywhere between the seal and the manifest rename
// must roll back to the last committed state — the seal itself commits
// nothing — and a clean re-run afterwards must commit everything the
// streamed flushes carried.
TEST(CrashMatrix, CrashBetweenEraSealAndManifestCommitRollsBack) {
  FailpointGuard guard;
  UnifiedTraceStore owned_before;
  owned_before.ingest(EventBatch::from_events(era_events(0, 40)),
                      {{"framework", "test"}});
  const auto before = all_queries(owned_before);
  UnifiedTraceStore owned_after;
  for (int era = 0; era < 2; ++era) {
    owned_after.ingest(EventBatch::from_events(era_events(era, 40)),
                       {{"framework", "test"}});
  }
  const auto after = all_queries(owned_after);

  const auto stream_era1 = [](UnifiedTraceStore& store) {
    store.set_stream_ingest(StreamIngestOptions{});
    const std::vector<TraceEvent> events = era_events(1, 40);
    for (std::size_t i = 0; i < events.size(); i += 8) {
      store.ingest(
          EventBatch::from_events({events.begin() + static_cast<long>(i),
                                   events.begin() + static_cast<long>(i + 8)}),
          {{"framework", "test"}});
    }
    EXPECT_EQ(store.pool_infos().back().flushes_absorbed, 5u);
    EXPECT_TRUE(store.seal_open_era());
  };

  for (const char* point :
       {"store.cold.spill", "store.cold.rename", "store.manifest.rename"}) {
    SCOPED_TRACE(point);
    const std::string dir = make_scratch_dir("stream_seal");
    commit_era(dir, 0, 40);
    {
      UnifiedTraceStore store;
      (void)store.attach_dir(dir);
      stream_era1(store);
      fail::configure(point, "crash");
      EXPECT_THROW(
          (void)store.compact(static_cast<std::size_t>(-1), cold_options(dir)),
          fail::CrashError);
      fail::clear();
    }  // the crashed process's store (and its sealed era) dies with it
    UnifiedTraceStore recovered;
    const StoreHealth health = recovered.attach_dir(dir);
    EXPECT_EQ(all_queries(recovered), before);
    EXPECT_EQ(health.recovered_eras, 1u);

    // The retry: stream the same flushes again and commit cleanly. A crash
    // after the era rename leaves a stale uncommitted container behind
    // (quarantined here, adopted or removed by `fsck --repair`); the
    // re-commit spills under a fresh seq, so queries still see exactly the
    // committed data.
    stream_era1(recovered);
    ASSERT_GE(
        recovered.compact(static_cast<std::size_t>(-1), cold_options(dir)),
        1u);
    UnifiedTraceStore committed;
    const StoreHealth committed_health = committed.attach_dir(dir);
    EXPECT_LE(committed_health.quarantined.size(), 1u);
    EXPECT_EQ(all_queries(committed), after);
    std::filesystem::remove_all(dir);
  }
}

// An `error`-spec failure (transient syscall error, not a crash) surfaces
// as IoError through compact, and the store directory stays attachable.
TEST(CrashMatrix, ErrorSpecSurfacesIoErrorAndKeepsDirConsistent) {
  FailpointGuard guard;
  const std::string dir = make_scratch_dir("error_spec");
  commit_era(dir, 0, 40);
  {
    UnifiedTraceStore store;
    (void)store.attach_dir(dir);
    store.ingest(EventBatch::from_events(era_events(1, 40)),
                 {{"framework", "test"}});
    fail::configure("store.cold.fsync", "error");
    EXPECT_THROW(
        (void)store.compact(static_cast<std::size_t>(-1), cold_options(dir)),
        IoError);
    fail::clear();
  }
  UnifiedTraceStore recovered;
  const StoreHealth health = recovered.attach_dir(dir);
  EXPECT_EQ(health.recovered_eras, 1u);
  UnifiedTraceStore owned;
  owned.ingest(EventBatch::from_events(era_events(0, 40)),
               {{"framework", "test"}});
  EXPECT_EQ(all_queries(recovered), all_queries(owned));
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------- fsck's recovery walk

[[nodiscard]] std::vector<std::string> file_names(
    const std::vector<QuarantinedFile>& quarantined) {
  std::vector<std::string> names;
  for (const QuarantinedFile& q : quarantined) {
    names.push_back(q.file);
  }
  return names;
}

/// Run fsck's walk over `dir` (read-only, every block decoded), then
/// attach_dir: both must serve and quarantine the same files. fsck may in
/// addition find uncommitted containers adoptable; those are among the
/// files both quarantine.
void expect_fsck_agrees_with_attach(const std::string& dir) {
  const StoreDirReport fsck = recover_store_dir(
      dir, /*remove_tmps=*/false,
      [](const std::string&, trace::MappedTraceFile file,
         const ManifestEntry*) {
        const std::vector<std::string> problems =
            validate_container(file, std::nullopt);
        if (!problems.empty()) {
          throw FormatError(problems.front());
        }
      });
  UnifiedTraceStore store;
  const StoreHealth health = store.attach_dir(dir);
  EXPECT_EQ(file_names(fsck.quarantined), file_names(health.quarantined));
  EXPECT_EQ(fsck.served, health.recovered_eras);
  EXPECT_EQ(fsck.tmps.size(), health.torn_tmps_removed);
  const std::vector<std::string> quarantined = file_names(health.quarantined);
  for (const std::string& name : fsck.uncommitted) {
    EXPECT_NE(std::find(quarantined.begin(), quarantined.end(), name),
              quarantined.end())
        << name;
  }
}

/// One cold commit of era 1 into `dir` that fails at `point` with `spec`;
/// the failed process's store dies with it.
void failed_commit(const std::string& dir, const std::string& point,
                   const char* spec) {
  UnifiedTraceStore store;
  (void)store.attach_dir(dir);
  store.ingest(EventBatch::from_events(era_events(1, 40)),
               {{"framework", "test"}});
  fail::configure(point, spec);
  try {
    (void)store.compact(static_cast<std::size_t>(-1), cold_options(dir));
    ADD_FAILURE() << point << "=" << spec << " did not fail the commit";
  } catch (const fail::CrashError&) {
  } catch (const IoError&) {
  }
  fail::clear();
}

TEST(FsckWalk, NamesTheSameFilesAsAttachDir) {
  FailpointGuard guard;
  // Each AttachDir fixture: one directory state built by `make`.
  const std::vector<std::pair<const char*, std::function<void(const std::string&)>>>
      fixtures = {
          {"empty", [](const std::string&) {}},
          {"committed",
           [](const std::string& dir) {
             commit_era(dir, 0, 40);
             commit_era(dir, 1, 40);
           }},
          {"corrupt_era",
           [](const std::string& dir) {
             commit_era(dir, 0, 40);
             commit_era(dir, 1, 40);
             std::vector<std::uint8_t> bytes = read_file(dir + "/era-1.iotb3");
             bytes[bytes.size() / 2] ^= 0x01;
             write_file(dir + "/era-1.iotb3", bytes);
           }},
          {"unlisted",
           [](const std::string& dir) {
             commit_era(dir, 0, 40);
             write_file(dir + "/era-9.iotb3",
                        trace::encode_binary_v3(
                            EventBatch::from_events(era_events(9, 16)), {}, 16));
           }},
          {"corrupt_manifest",
           [](const std::string& dir) {
             commit_era(dir, 0, 40);
             commit_era(dir, 1, 40);
             const std::string path =
                 dir + "/" + std::string(kManifestFileName);
             std::vector<std::uint8_t> bytes = read_file(path);
             bytes[bytes.size() - 2] ^= 0xFF;
             write_file(path, bytes);
           }},
          {"torn_tmp",
           [](const std::string& dir) {
             commit_era(dir, 0, 40);
             failed_commit(dir, "store.cold.write", "torn:40");
           }},
          {"missing_era",
           [](const std::string& dir) {
             commit_era(dir, 0, 40);
             commit_era(dir, 1, 40);
             std::filesystem::remove(dir + "/era-0.iotb3");
           }},
      };
  for (const auto& [name, make] : fixtures) {
    SCOPED_TRACE(name);
    const std::string dir = make_scratch_dir("fsck_walk");
    make(dir);
    expect_fsck_agrees_with_attach(dir);
    std::filesystem::remove_all(dir);
  }

  // Each CrashMatrix end state: a crash at every failpoint of the commit
  // protocol, torn era writes at several widths, and an error spec.
  const std::string trace_dir = make_scratch_dir("fsck_walk_trace");
  commit_era(trace_dir, 0, 40);
  fail::set_tracing(true);
  commit_era(trace_dir, 1, 40);
  const std::vector<std::string> points = fail::traced_points();
  fail::set_tracing(false);
  std::filesystem::remove_all(trace_dir);
  ASSERT_FALSE(points.empty());
  std::vector<std::pair<std::string, const char*>> failures;
  for (const std::string& point : points) {
    failures.emplace_back(point, "crash");
  }
  for (const char* spec : {"torn:0", "torn:1", "torn:100"}) {
    failures.emplace_back("store.cold.write", spec);
  }
  failures.emplace_back("store.cold.fsync", "error");
  for (const auto& [point, spec] : failures) {
    SCOPED_TRACE(point + "=" + spec);
    const std::string dir = make_scratch_dir("fsck_walk_crash");
    commit_era(dir, 0, 40);
    failed_commit(dir, point, spec);
    expect_fsck_agrees_with_attach(dir);
    std::filesystem::remove_all(dir);
  }
}

// ------------------------------------------------------------ skip_damaged

// A v3 container with exactly one corrupt block (block 1 of 5), plus the
// events that survive when that block is skipped.
struct DamagedFixture {
  std::string path;
  std::vector<TraceEvent> all_events;
  std::vector<TraceEvent> healthy_events;  // all minus block 1's records
};

[[nodiscard]] DamagedFixture make_damaged_container(const std::string& dir) {
  DamagedFixture fx;
  fx.all_events = era_events(0, 80);  // 5 blocks of 16
  for (std::size_t i = 0; i < fx.all_events.size(); ++i) {
    if (i < 16 || i >= 32) {
      fx.healthy_events.push_back(fx.all_events[i]);
    }
  }
  trace::BinaryOptions options;
  options.checksum = true;  // uncompressed: records sit at fixed strides
  std::vector<std::uint8_t> bytes = trace::encode_binary_v3(
      EventBatch::from_events(fx.all_events), options, 16);
  // Flip a byte inside block 1's records. The head ends where the first
  // block begins; with no compression each block is block_records * the
  // v2 record stride, so block 1 starts at head_end + 16 strides. The
  // flip lands mid-record 18 and breaks only block 1's CRC.
  const std::size_t record_region = 80 * trace::v2layout::kStride;
  const std::size_t head_end = [&] {
    // Find the block region by length arithmetic: everything between the
    // head and the footer is exactly the 80 records (uncompressed).
    const std::size_t footer_len = [&] {
      std::uint64_t v = 0;
      for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(
                 bytes[bytes.size() - trace::v3layout::kTrailerSize + i])
             << (8 * i);
      }
      return static_cast<std::size_t>(v);
    }();
    return bytes.size() - trace::v3layout::kTrailerSize - footer_len -
           record_region;
  }();
  bytes[head_end + 18 * trace::v2layout::kStride + 5] ^= 0x20;
  fx.path = dir + "/damaged.iotb3";
  write_file(fx.path, bytes);
  return fx;
}

TEST(SkipDamaged, DefaultPolicyFailsFast) {
  const std::string dir = make_scratch_dir("skip_default");
  const DamagedFixture fx = make_damaged_container(dir);
  UnifiedTraceStore store;
  store.ingest_view(fx.path, {{"framework", "test"}});
  EXPECT_THROW((void)store.call_stats(), FormatError);
  // The sticky rethrow carries the error-class prefix exactly once.
  try {
    (void)store.call_stats();
    ADD_FAILURE() << "a damaged block must fail the query";
  } catch (const FormatError& err) {
    const std::string what = err.what();
    EXPECT_EQ(what.rfind("format error: ", 0), 0u) << what;
    EXPECT_EQ(what.find("format error: ", 1), std::string::npos) << what;
  }
  EXPECT_EQ(store.damage_counters(), (DamageCounters{0, 0}));
  std::filesystem::remove_all(dir);
}

TEST(SkipDamaged, QueriesMatchStoreWithoutTheDamagedBlock) {
  const std::string dir = make_scratch_dir("skip_match");
  const DamagedFixture fx = make_damaged_container(dir);

  UnifiedTraceStore store;
  store.ingest_view(fx.path, {{"framework", "test"}});
  store.set_scan_policy({.skip_damaged = true});

  // What the queries should see: exactly the healthy blocks' records.
  UnifiedTraceStore healthy;
  healthy.ingest(EventBatch::from_events(fx.healthy_events),
                 {{"framework", "test"}});

  EXPECT_EQ(store.call_stats(), healthy.call_stats());
  EXPECT_EQ(store.bytes_in_window(0, 10 * kSecond),
            healthy.bytes_in_window(0, 10 * kSecond));
  EXPECT_EQ(store.hottest_files(8), healthy.hottest_files(8));
  // Bucket boundaries derive from the healthy blocks' span, which equals
  // the full span here (damage is interior).
  EXPECT_EQ(store.io_rate_series(from_millis(25.0)),
            healthy.io_rate_series(from_millis(25.0)));
  EXPECT_EQ(store.rank_timeline(1), healthy.rank_timeline(1));

  // The sticky failed block is visible through pool introspection too.
  ASSERT_EQ(store.pool_infos().size(), 1u);
  EXPECT_EQ(store.pool_infos()[0].damaged_blocks, 1u);
  std::filesystem::remove_all(dir);
}

TEST(SkipDamaged, CountersAreExactPerQuery) {
  const std::string dir = make_scratch_dir("skip_counters");
  const DamagedFixture fx = make_damaged_container(dir);

  UnifiedTraceStore store;
  store.ingest_view(fx.path, {{"framework", "test"}});
  store.set_scan_policy({.skip_damaged = true});
  EXPECT_EQ(store.damage_counters(), (DamageCounters{0, 0}));

  // Each query that touches the damaged block counts it exactly once (16
  // records per skip — the block's size).
  (void)store.call_stats();
  EXPECT_EQ(store.damage_counters(), (DamageCounters{1, 16}));
  (void)store.call_stats();  // sticky failure, counted again per query
  EXPECT_EQ(store.damage_counters(), (DamageCounters{2, 32}));
  (void)store.bytes_in_window(0, 10 * kSecond);
  EXPECT_EQ(store.damage_counters(), (DamageCounters{3, 48}));
  (void)store.io_rate_series(from_millis(25.0));  // span + bucket: one skip
  EXPECT_EQ(store.damage_counters(), (DamageCounters{4, 64}));
  (void)store.hottest_files(8);
  EXPECT_EQ(store.damage_counters(), (DamageCounters{5, 80}));
  // A window that only touches healthy blocks skips nothing: block 1 holds
  // records 16..31 (stamps 16..31 ms), so probe past it.
  (void)store.bytes_in_window(40 * kMillisecond, 79 * kMillisecond);
  EXPECT_EQ(store.damage_counters(), (DamageCounters{5, 80}));

  store.reset_damage_counters();
  EXPECT_EQ(store.damage_counters(), (DamageCounters{0, 0}));

  // An uncorrupted twin with the same policy never counts anything.
  UnifiedTraceStore twin;
  trace::BinaryOptions options;
  options.checksum = true;
  const std::vector<std::uint8_t> clean_bytes = trace::encode_binary_v3(
      EventBatch::from_events(fx.all_events), options, 16);
  const std::string clean_path = dir + "/clean.iotb3";
  write_file(clean_path, clean_bytes);
  twin.ingest_view(clean_path, {{"framework", "test"}});
  twin.set_scan_policy({.skip_damaged = true});
  (void)all_queries(twin);
  (void)twin.rank_timeline(1);
  EXPECT_EQ(twin.damage_counters(), (DamageCounters{0, 0}));
  EXPECT_EQ(twin.pool_infos()[0].damaged_blocks, 0u);
  std::filesystem::remove_all(dir);
}

// The DFG miner's pool pass runs through the same scan driver as the
// queries, so it honours skip_damaged too: the graph is the one mined from
// the healthy blocks alone, and the skip is counted like a query's.
TEST(SkipDamaged, DfgMatchesStoreWithoutTheDamagedBlock) {
  const std::string dir = make_scratch_dir("skip_dfg");
  const DamagedFixture fx = make_damaged_container(dir);

  UnifiedTraceStore store;
  store.ingest_view(fx.path, {{"framework", "test"}});
  store.set_scan_policy({.skip_damaged = true});
  UnifiedTraceStore healthy;
  healthy.ingest(EventBatch::from_events(fx.healthy_events),
                 {{"framework", "test"}});

  const DamageCounters before = store.damage_counters();
  const dfg::Dfg graph = dfg::DfgBuilder(store).build();
  EXPECT_EQ(graph, dfg::DfgBuilder(healthy).build());
  const DamageCounters after = store.damage_counters();
  EXPECT_EQ(after.skipped_blocks - before.skipped_blocks, 1u);
  EXPECT_EQ(after.skipped_records - before.skipped_records, 16u);
  std::filesystem::remove_all(dir);
}

// The live DFG maintainer folds each filed range through the same scan
// driver: attaching with one set changes neither the recovery report nor
// the served store, and its snapshot follows the scan policy exactly as a
// cold build does — the healthy blocks' graph with the skip counted once
// under skip_damaged, the cold build's own FormatError under fail-fast.
TEST(SkipDamaged, LiveDfgFollowsTheScanPolicy) {
  const std::string dir = make_scratch_dir("skip_live_dfg");
  const DamagedFixture fx = make_damaged_container(dir);
  UnifiedTraceStore healthy;
  healthy.ingest(EventBatch::from_events(fx.healthy_events),
                 {{"framework", "test"}});

  for (const bool skip : {true, false}) {
    SCOPED_TRACE(skip ? "skip_damaged" : "fail-fast");
    UnifiedTraceStore bare;
    bare.set_scan_policy({.skip_damaged = skip});
    const StoreHealth bare_health = bare.attach_dir(dir);

    UnifiedTraceStore store;
    store.set_scan_policy({.skip_damaged = skip});
    const std::unique_ptr<dfg::LiveDfg> live = dfg::set_live_dfg(store);
    const StoreHealth health = store.attach_dir(dir);
    EXPECT_EQ(health.recovered_eras, bare_health.recovered_eras);
    EXPECT_EQ(health.quarantined, bare_health.quarantined);
    EXPECT_TRUE(health.healthy());
    EXPECT_EQ(store.pool_count(), bare.pool_count());

    if (skip) {
      EXPECT_EQ(store.damage_counters(), (DamageCounters{1, 16}));
      const dfg::Dfg snap = live->snapshot();
      EXPECT_EQ(snap, dfg::DfgBuilder(healthy).build());
      EXPECT_EQ(snap, dfg::DfgBuilder(store).build());
      EXPECT_EQ(store.damage_counters(), (DamageCounters{2, 32}));
      continue;
    }
    std::string cold_error;
    try {
      (void)dfg::DfgBuilder(store).build();
    } catch (const FormatError& err) {
      cold_error = err.what();
    }
    ASSERT_FALSE(cold_error.empty()) << "a damaged block must fail the build";
    try {
      (void)live->snapshot();
      ADD_FAILURE() << "the live snapshot must raise the fold's error";
    } catch (const FormatError& err) {
      EXPECT_EQ(std::string(err.what()), cold_error);
    }
    EXPECT_EQ(store.damage_counters(), (DamageCounters{0, 0}));
  }
  std::filesystem::remove_all(dir);
}

// skip_damaged also applies to eras recovered by attach_dir: damage that
// whole-file CRC checking cannot catch (no manifest) is skipped at query
// time instead of failing the query.
TEST(SkipDamaged, WorksOnAttachedDirWithoutManifest) {
  const std::string dir = make_scratch_dir("skip_attach");
  const DamagedFixture fx = make_damaged_container(dir);

  UnifiedTraceStore store;
  const StoreHealth health = store.attach_dir(dir);
  // No manifest: the container opens cleanly (envelope + footer are
  // intact; block damage is only discovered on decode) and is served.
  EXPECT_TRUE(health.healthy());
  EXPECT_EQ(health.recovered_eras, 1u);
  store.set_scan_policy({.skip_damaged = true});

  UnifiedTraceStore healthy;
  healthy.ingest(EventBatch::from_events(fx.healthy_events),
                 {{"framework", "test"}});
  EXPECT_EQ(store.call_stats(), healthy.call_stats());
  EXPECT_EQ(store.damage_counters(), (DamageCounters{1, 16}));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace iotaxo::analysis
