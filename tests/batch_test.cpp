// Tests for the batched event pipeline: StringPool interning, EventBatch
// round-trips, batched sink delivery equivalence, per-rank batch buffering
// in the capture layers, decoding the committed IOTB1/IOTB2 fixtures,
// batch ingestion into the unified store, and batch-driven replay.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string_view>

#include "analysis/unified_store.h"
#include "legacy_fixtures.h"
#include "frameworks/partrace.h"
#include "fs/memfs.h"
#include "interpose/tracers.h"
#include "interpose/vfs_shim.h"
#include "pfs/pfs.h"
#include "replay/replayer.h"
#include "sim/cluster.h"
#include "trace/binary_format.h"
#include "trace/event_batch.h"
#include "trace/sink.h"
#include "trace/string_pool.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/mpi_io_test.h"

namespace iotaxo::trace {
namespace {

[[nodiscard]] std::vector<TraceEvent> sample_stream() {
  std::vector<TraceEvent> events;

  TraceEvent open_ev = make_syscall("SYS_open", {"/etc/hosts", "0", "0666"}, 3);
  open_ev.local_start = 1159808387LL * kSecond;
  open_ev.duration = 34 * kMicrosecond;
  open_ev.rank = 7;
  open_ev.node = 3;
  open_ev.pid = 10378;
  open_ev.host = "host13.lanl.gov";
  open_ev.path = "/etc/hosts";
  open_ev.fd = 3;
  events.push_back(open_ev);

  for (int i = 0; i < 8; ++i) {
    TraceEvent w = make_syscall(
        "SYS_write", {"5", "65536", strprintf("%d", i * 65536)}, 65536);
    w.local_start = 1159808388LL * kSecond + i * kMillisecond;
    w.duration = from_millis(3.0);
    w.rank = i % 2;
    w.pid = 10378;
    w.host = i % 2 == 0 ? "host13.lanl.gov" : "host14.lanl.gov";
    w.fd = 5;
    w.bytes = 65536;
    w.offset = static_cast<Bytes>(i) * 65536;
    events.push_back(w);
  }

  TraceEvent note;
  note.cls = EventClass::kAnnotation;
  note.name = "Barrier before /app.exe";
  note.rank = 0;
  events.push_back(note);

  TraceEvent unknown = make_syscall("SYS_read", {"9", "4096"}, 4096);
  unknown.bytes = 4096;
  unknown.offset = -1;  // the "unknown offset" sentinel must round-trip
  events.push_back(unknown);
  return events;
}

TEST(StringPool, EmptyStringIsIdZero) {
  StringPool pool;
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.intern(""), 0u);
  EXPECT_EQ(pool.view(0), "");
}

TEST(StringPool, InternIsIdempotentAndDense) {
  StringPool pool;
  const StrId a = pool.intern("SYS_write");
  const StrId b = pool.intern("/pfs/out.dat");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(pool.intern("SYS_write"), a);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.view(a), "SYS_write");
  EXPECT_EQ(pool.str(b), "/pfs/out.dat");
}

TEST(StringPool, FindDoesNotIntern) {
  StringPool pool;
  EXPECT_FALSE(pool.find("missing").has_value());
  const StrId id = pool.intern("present");
  ASSERT_TRUE(pool.find("present").has_value());
  EXPECT_EQ(*pool.find("present"), id);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(StringPool, OutOfRangeIdThrows) {
  StringPool pool;
  EXPECT_THROW((void)pool.view(99), FormatError);
}

TEST(StringPool, CopiesOwnTheirStorage) {
  auto original = std::make_unique<StringPool>();
  const StrId id = original->intern("SYS_write");
  StringPool copy = *original;
  original.reset();  // a shallow copy would leave dangling node pointers
  EXPECT_EQ(copy.view(id), "SYS_write");
  EXPECT_EQ(copy.intern("SYS_write"), id);
  EXPECT_EQ(copy.intern("new-string"), id + 1);
}

TEST(EventBatch, RoundTripsEvents) {
  const auto original = sample_stream();
  const EventBatch batch = EventBatch::from_events(original);
  ASSERT_EQ(batch.size(), original.size());
  const auto rebuilt = batch.to_events();
  ASSERT_EQ(rebuilt.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(rebuilt[i], original[i]) << "event " << i;
  }
}

TEST(EventBatch, InternsRepeatedStringsOnce) {
  const EventBatch batch = EventBatch::from_events(sample_stream());
  // 8 writes share one name/host pair each; the pool holds each distinct
  // string exactly once.
  std::size_t sys_write_count = 0;
  batch.pool().for_each([&](StrId, std::string_view s) {
    if (s == "SYS_write") {
      ++sys_write_count;
    }
  });
  EXPECT_EQ(sys_write_count, 1u);
}

TEST(EventBatch, AppendBatchRemapsAcrossPools) {
  EventBatch a = EventBatch::from_events(sample_stream());
  EventBatch b;
  TraceEvent ev = make_syscall("SYS_write", {"1"}, 7);
  ev.host = "other.host";
  b.append(ev);
  b.append(a);
  ASSERT_EQ(b.size(), a.size() + 1);
  const auto rebuilt = b.to_events();
  const auto original = sample_stream();
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(rebuilt[i + 1], original[i]) << "event " << i;
  }
}

TEST(EventBatch, SelfAppendDuplicates) {
  EventBatch batch = EventBatch::from_events(sample_stream());
  const std::size_t n = batch.size();
  batch.append(batch);
  ASSERT_EQ(batch.size(), 2 * n);
  const auto events = batch.to_events();
  const auto original = sample_stream();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(events[i], original[i]) << i;
    EXPECT_EQ(events[n + i], original[i]) << i;
  }
}

TEST(EventBatch, AppendRawValidatesIds) {
  EventBatch batch;
  EventRecord rec;
  rec.name = 42;  // not in the pool
  EXPECT_THROW(batch.append_raw(rec, {}), FormatError);
}

TEST(EventBatch, ClearKeepsPoolResetDropsIt) {
  EventBatch batch = EventBatch::from_events(sample_stream());
  const std::size_t pool_size = batch.pool().size();
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.pool().size(), pool_size);
  batch.reset();
  EXPECT_EQ(batch.pool().size(), 1u);
}

TEST(BatchedSinks, SummaryIdenticalToPerEvent) {
  const auto events = sample_stream();
  SummarySink per_event;
  for (const TraceEvent& ev : events) {
    per_event.on_event(ev);
  }
  SummarySink batched;
  batched.on_batch(EventBatch::from_events(events));

  EXPECT_EQ(batched.total_events(), per_event.total_events());
  ASSERT_EQ(batched.entries().size(), per_event.entries().size());
  for (const auto& [name, entry] : per_event.entries()) {
    const auto it = batched.entries().find(name);
    ASSERT_NE(it, batched.entries().end()) << name;
    EXPECT_EQ(it->second.count, entry.count) << name;
    EXPECT_EQ(it->second.total_duration, entry.total_duration) << name;
  }
}

TEST(BatchedSinks, CountingIdenticalToPerEvent) {
  const auto events = sample_stream();
  CountingSink per_event;
  for (const TraceEvent& ev : events) {
    per_event.on_event(ev);
  }
  CountingSink batched;
  batched.on_batch(EventBatch::from_events(events));
  EXPECT_EQ(batched.count(), per_event.count());
  EXPECT_EQ(batched.total_bytes(), per_event.total_bytes());
}

TEST(BatchedSinks, VectorSinkMaterializesBatches) {
  const auto events = sample_stream();
  VectorSink sink;
  sink.on_batch(EventBatch::from_events(events));
  ASSERT_EQ(sink.events().size(), events.size());
  EXPECT_EQ(sink.events(), events);
}

TEST(BatchedSinks, MultiSinkFansBatchesOut) {
  auto counting = std::make_shared<CountingSink>();
  auto summary = std::make_shared<SummarySink>();
  MultiSink multi({counting, summary});
  multi.on_batch(EventBatch::from_events(sample_stream()));
  EXPECT_EQ(counting->count(),
            static_cast<long long>(sample_stream().size()));
  EXPECT_EQ(summary->total_events(),
            static_cast<long long>(sample_stream().size()));
}

TEST(BatchedSinks, BatchSinkAccumulatesInterned) {
  BatchSink sink;
  sink.on_batch(EventBatch::from_events(sample_stream()));
  sink.on_event(make_syscall("SYS_close", {"3"}, 0));
  EXPECT_EQ(sink.batch().size(), sample_stream().size() + 1);
}

TEST(BatchedSinks, BatchSinkIsReusableAfterTake) {
  BatchSink sink;
  sink.on_event(make_syscall("SYS_close", {"3"}, 0));
  const EventBatch first = sink.take();
  EXPECT_EQ(first.size(), 1u);
  // The fresh batch must keep the id-0-is-empty pool invariant, so events
  // with empty host/path still round-trip (and encode) correctly.
  TraceEvent ev = make_syscall("SYS_open", {"/f"}, 4);
  sink.on_event(ev);
  EXPECT_EQ(sink.batch().to_events(), std::vector<TraceEvent>{ev});
  const auto blob = encode_binary_v3(sink.batch(), {});
  EXPECT_EQ(decode_binary(blob), std::vector<TraceEvent>{ev});
}

TEST(RankBatcher, BuffersUntilCapacityAndFlush) {
  auto sink = std::make_shared<VectorSink>();
  RankBatcher batcher(sink, 4);
  const auto events = sample_stream();  // ranks 7, 0, 1, -1 interleaved
  for (const TraceEvent& ev : events) {
    batcher.add(ev);
  }
  // 8 write events alternate rank 0/1: each rank hits capacity 4 once.
  EXPECT_EQ(sink->events().size(), 8u);
  batcher.flush();
  EXPECT_EQ(sink->events().size(), events.size());
}

TEST(RankBatcher, CapacityOneDeliversImmediately) {
  auto sink = std::make_shared<VectorSink>();
  RankBatcher batcher(sink, 1);
  const auto events = sample_stream();
  for (const TraceEvent& ev : events) {
    batcher.add(ev);
  }
  // Immediate delivery preserves the interleaved observation order.
  EXPECT_EQ(sink->events(), events);
}

TEST(BatchedCapture, PtraceTracerEqualsPerEventDelivery) {
  const auto events = sample_stream();
  auto unbatched_sink = std::make_shared<SummarySink>();
  auto batched_sink = std::make_shared<SummarySink>();
  interpose::PtraceTracer unbatched(interpose::PtraceTracer::Mode::kStrace,
                                    unbatched_sink);
  interpose::PtraceTracer batched(interpose::PtraceTracer::Mode::kStrace,
                                  batched_sink, {}, 64);
  for (const TraceEvent& ev : events) {
    EXPECT_EQ(unbatched.on_event(ev), batched.on_event(ev));
  }
  batched.flush();
  EXPECT_EQ(batched.events_captured(), unbatched.events_captured());
  EXPECT_EQ(batched_sink->total_events(), unbatched_sink->total_events());
  ASSERT_EQ(batched_sink->entries().size(), unbatched_sink->entries().size());
  for (const auto& [name, entry] : unbatched_sink->entries()) {
    EXPECT_EQ(batched_sink->entries().at(name).count, entry.count);
  }
}

TEST(BatchedCapture, VfsShimFlushDrainsBatches) {
  auto inner = std::make_shared<fs::MemFs>();
  auto sink = std::make_shared<VectorSink>();
  interpose::VfsShimOptions options;
  options.batch_capacity = 128;
  interpose::VfsShim shim(inner, sink, options, nullptr);
  fs::OpCtx ctx;
  const int fd = static_cast<int>(
      shim.open("/f", fs::OpenMode::write_create(), ctx).value);
  for (int i = 0; i < 10; ++i) {
    (void)shim.write(fd, i * 64, 64, ctx, nullptr);
  }
  (void)shim.close(fd, ctx);
  EXPECT_TRUE(sink->events().empty());  // still buffered
  shim.flush();
  EXPECT_EQ(sink->events().size(), 12u);
  EXPECT_EQ(shim.events_captured(), 12);
}

// The committed IOTB1/IOTB2 fixtures (tests/legacy_fixtures.h) are the
// only v1/v2 bytes left: nothing writes those versions any more, so every
// decode test below reads or mutates them.

[[nodiscard]] std::optional<CipherKey> fixture_key(
    const testing::LegacyFixture& f) {
  return f.encrypted ? std::optional<CipherKey>(testing::legacy_key())
                     : std::nullopt;
}

[[nodiscard]] const testing::LegacyFixture& fixture(const char* file) {
  for (const testing::LegacyFixture& f : testing::legacy_fixtures()) {
    if (std::string_view(f.file) == file) {
      return f;
    }
  }
  throw ConfigError(std::string("no such fixture: ") + file);
}

TEST(LegacyDecode, EveryFixtureDecodesToItsEvents) {
  const std::vector<TraceEvent> original = testing::legacy_events();
  for (const testing::LegacyFixture& f : testing::legacy_fixtures()) {
    SCOPED_TRACE(f.file);
    const std::vector<std::uint8_t> bytes = testing::read_legacy(f);
    ASSERT_FALSE(bytes.empty());
    const BinaryHeader h = peek_binary_header(bytes);
    EXPECT_EQ(h.version, f.version);
    EXPECT_EQ(h.compressed, f.compressed);
    EXPECT_EQ(h.encrypted, f.encrypted);
    EXPECT_EQ(h.checksummed, f.checksummed);
    EXPECT_EQ(h.indexed, f.indexed);
    EXPECT_FALSE(h.head_crc);
    EXPECT_EQ(h.count, original.size());
    EXPECT_TRUE(looks_binary(bytes));
    EXPECT_EQ(decode_binary(bytes, fixture_key(f)), original);
    const EventBatch batch = decode_binary_batch(bytes, fixture_key(f));
    EXPECT_EQ(batch.to_events(), original);
    if (f.version >= 2) {
      // The decoded pool is the encoded pool: dense and duplicate-free.
      EXPECT_EQ(batch.pool().size(),
                EventBatch::from_events(original).pool().size());
    }
  }
}

TEST(LegacyDecode, HugeCountsAnywhereAreFormatErrorNotBadAlloc) {
  // The unchecksummed fixtures are decoded whatever their bytes say: any 8
  // bytes overwritten with a huge count (the arg-id table size among them)
  // must surface as FormatError, never bad_alloc/length_error.
  for (const char* file : {"v1.iotb1", "v2_plain.iotb2"}) {
    SCOPED_TRACE(file);
    std::vector<std::uint8_t> bytes = testing::read_legacy(fixture(file));
    if (file == std::string_view("v1.iotb1")) {
      bytes[6] &= static_cast<std::uint8_t>(~0x04u);  // drop the CRC flag
      bytes.resize(bytes.size() - 4);
    }
    const std::size_t header = 6 + 1 + 8 + 8;
    for (std::size_t pos = header; pos + 8 <= bytes.size(); pos += 7) {
      std::vector<std::uint8_t> corrupted = bytes;
      for (int i = 0; i < 8; ++i) {
        corrupted[pos + static_cast<std::size_t>(i)] = 0xFF;
      }
      try {
        (void)decode_binary_batch(corrupted);  // some positions still decode
      } catch (const FormatError&) {
        // expected failure mode
      }
    }
  }
}

TEST(LegacyDecode, EncryptedNeedsKey) {
  const std::vector<std::uint8_t> bytes =
      testing::read_legacy(fixture("v2_encrypted.iotb2"));
  EXPECT_THROW((void)decode_binary(bytes), FormatError);
  EXPECT_THROW((void)decode_binary(bytes, derive_key("wrong")), FormatError);
  EXPECT_EQ(decode_binary(bytes, testing::legacy_key()),
            testing::legacy_events());
}

// --- hostile v1/v2 bytes: what the import path must reject -------------
//
// The decoder behind ingest_view's IOTB1/IOTB2 import owns every check the
// retired zero-copy v2 reader also made. Each test below patches an
// unchecksummed fixture (so the structural check, not the CRC, is what
// fires) and expects FormatError both from decode_binary_batch and from
// ingest_view, which must then file nothing.

// Envelope field offsets (binary_format.h): magic 0..6, flags 6, count
// 7..15, payload length 15..23; the v2 body starts right after.
constexpr std::size_t kFlagsOff = 6;
constexpr std::size_t kCountOff = 7;
constexpr std::size_t kPaylenOff = 15;

void put_u32(std::vector<std::uint8_t>& b, std::size_t off, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    b[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void put_u64(std::vector<std::uint8_t>& b, std::size_t off, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    b[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

[[nodiscard]] std::uint64_t get_u64(const std::vector<std::uint8_t>& b,
                                    std::size_t off) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(b[off + i]) << (8 * i);
  }
  return v;
}

[[nodiscard]] std::uint32_t get_u32(const std::vector<std::uint8_t>& b,
                                    std::size_t off) {
  return static_cast<std::uint32_t>(get_u64(b, off) & 0xFFFFFFFFu);
}

/// The v2_plain fixture and the body offsets of its sections.
struct PlainV2 {
  std::vector<std::uint8_t> bytes =
      testing::read_legacy(fixture("v2_plain.iotb2"));
  std::size_t strings = kContainerHeaderSize;  // nstrings, then entries
  std::size_t arg_ids = 0;                     // nargids, then the ids
  std::size_t records = 0;                     // count * v2 stride

  PlainV2() {
    std::size_t pos = strings + 4;
    for (std::uint32_t i = 0; i < get_u32(bytes, strings); ++i) {
      pos += 4 + get_u32(bytes, pos);
    }
    arg_ids = pos;
    records = arg_ids + 8 + 4 * get_u64(bytes, arg_ids);
  }
  /// Byte `field` of the last record.
  [[nodiscard]] std::size_t last_record(std::size_t field) const {
    return bytes.size() - v2layout::kStride + field;
  }
};

/// v1.iotb1 without its payload CRC, so patched bytes reach the decoder.
[[nodiscard]] std::vector<std::uint8_t> unchecksummed_v1() {
  std::vector<std::uint8_t> bytes = testing::read_legacy(fixture("v1.iotb1"));
  bytes[kFlagsOff] &= static_cast<std::uint8_t>(~0x04u);
  bytes.resize(bytes.size() - 4);
  return bytes;
}

/// Both import entry points reject `bytes` with a FormatError whose message
/// names `check` (the check that must fire), and the store files nothing.
void expect_rejected(const std::vector<std::uint8_t>& bytes,
                     std::string_view check) {
  const auto expect_check = [check](const auto& fn) {
    try {
      fn();
      ADD_FAILURE() << "accepted; expected: " << check;
    } catch (const FormatError& e) {
      EXPECT_NE(std::string_view(e.what()).find(check), std::string_view::npos)
          << e.what() << "; expected: " << check;
    }
  };
  expect_check([&] { (void)decode_binary_batch(bytes); });
  const std::string path = "batch_test_hostile.iotb";
  write_binary_file(path, bytes);
  analysis::UnifiedTraceStore store;
  expect_check([&] { store.ingest_view(path, {{"framework", "test"}}); });
  EXPECT_EQ(store.pool_count(), 0u);
  std::remove(path.c_str());
}

TEST(LegacyHostile, UnchecksummedFixturesDecodeBeforeAnyPatch) {
  // The baseline every patch below departs from.
  EXPECT_EQ(decode_binary(PlainV2().bytes), testing::legacy_events());
  EXPECT_EQ(decode_binary(unchecksummed_v1()), testing::legacy_events());
}

TEST(LegacyHostile, ChecksummedFixturesRejectAFlippedByte) {
  // The payload CRC is checked before decryption, decompression and any
  // structural check, so every checksummed v1/v2 shape fails the same way.
  for (const testing::LegacyFixture& f : testing::legacy_fixtures()) {
    if (f.version == 3 || !f.checksummed) {
      continue;
    }
    SCOPED_TRACE(f.file);
    std::vector<std::uint8_t> bytes = testing::read_legacy(f);
    bytes[bytes.size() / 2] ^= 0x01;
    expect_rejected(bytes, "checksum mismatch");
  }
}

TEST(LegacyHostile, RejectsTruncatedRecordSection) {
  // Half a record cut off the end, the payload length patched to match:
  // the envelope is self-consistent, the record section is not.
  PlainV2 v2;
  std::vector<std::uint8_t> v1 = unchecksummed_v1();
  for (std::vector<std::uint8_t>* bytes : {&v2.bytes, &v1}) {
    const std::size_t cut = v2layout::kStride / 2;
    bytes->resize(bytes->size() - cut);
    put_u64(*bytes, kPaylenOff, get_u64(*bytes, kPaylenOff) - cut);
    expect_rejected(*bytes, "truncated record");
  }
}

TEST(LegacyHostile, RejectsOversizedRecordSection) {
  // Trailing garbage after the records, the payload length covering it.
  PlainV2 v2;
  std::vector<std::uint8_t> v1 = unchecksummed_v1();
  for (std::vector<std::uint8_t>* bytes : {&v2.bytes, &v1}) {
    bytes->insert(bytes->end(), {0xde, 0xad, 0xbe, 0xef});
    put_u64(*bytes, kPaylenOff, get_u64(*bytes, kPaylenOff) + 4);
    expect_rejected(*bytes, "trailing bytes");
  }
}

TEST(LegacyHostile, RejectsOverstatedRecordCount) {
  PlainV2 v2;
  std::vector<std::uint8_t> v1 = unchecksummed_v1();
  for (std::vector<std::uint8_t>* bytes : {&v2.bytes, &v1}) {
    put_u64(*bytes, kCountOff, get_u64(*bytes, kCountOff) + 3);
    expect_rejected(*bytes, "truncated record");
    // A wildly corrupt count must be rejected up front, not reserved.
    put_u64(*bytes, kCountOff, ~std::uint64_t{0});
    expect_rejected(*bytes, "record count exceeds payload");
  }
}

TEST(LegacyHostile, RejectsOverflowingPayloadLength) {
  // A payload length chosen so header + length wraps around 2^64 to the
  // true buffer size must not pass the envelope check.
  PlainV2 v2;
  std::vector<std::uint8_t> v1 = unchecksummed_v1();
  for (std::vector<std::uint8_t>* bytes : {&v2.bytes, &v1}) {
    put_u64(*bytes, kPaylenOff,
            ~std::uint64_t{0} - kContainerHeaderSize + 1 +
                (bytes->size() - kContainerHeaderSize));
    expect_rejected(*bytes, "length mismatch");
  }
}

TEST(LegacyHostile, RejectsDuplicateStringTableEntries) {
  // Re-serialize the table with its last entry replaced by a copy of the
  // first non-empty one: every id stays in range, but the table is no
  // longer interned, and records could reference either copy.
  PlainV2 v2;
  std::vector<std::string> table;
  for (std::size_t i = 0, pos = v2.strings + 4;
       i < get_u32(v2.bytes, v2.strings); ++i) {
    const std::uint32_t len = get_u32(v2.bytes, pos);
    table.emplace_back(reinterpret_cast<const char*>(&v2.bytes[pos + 4]), len);
    pos += 4 + len;
  }
  ASSERT_GE(table.size(), 3u);
  table.back() = table[1];
  std::vector<std::uint8_t> bytes(v2.bytes.begin(),
                                  v2.bytes.begin() + kContainerHeaderSize + 4);
  for (const std::string& entry : table) {
    const std::size_t at = bytes.size();
    bytes.resize(at + 4);
    put_u32(bytes, at, static_cast<std::uint32_t>(entry.size()));
    bytes.insert(bytes.end(), entry.begin(), entry.end());
  }
  bytes.insert(bytes.end(),
               v2.bytes.begin() + static_cast<long>(v2.arg_ids),
               v2.bytes.end());
  put_u64(bytes, kPaylenOff, bytes.size() - kContainerHeaderSize);
  expect_rejected(bytes, "not interned");
}

TEST(LegacyHostile, HugeStringTableCountIsFormatErrorNotBadAlloc) {
  PlainV2 v2;
  put_u32(v2.bytes, v2.strings, 0xFFFFFFFFu);
  expect_rejected(v2.bytes, "string table exceeds payload");
  put_u32(v2.bytes, v2.strings, 0);  // id 0 ("") must exist
  expect_rejected(v2.bytes, "empty string table");
}

TEST(LegacyHostile, RejectsOutOfRangeStringId) {
  for (const std::size_t field :
       {v2layout::kName, v2layout::kHost, v2layout::kPath}) {
    PlainV2 v2;
    put_u32(v2.bytes, v2.last_record(field), 0xFFFFu);
    expect_rejected(v2.bytes, "string id 65535 out of range");
  }
}

TEST(LegacyHostile, RejectsOutOfRangeArgIdValue) {
  PlainV2 v2;
  ASSERT_GT(get_u64(v2.bytes, v2.arg_ids), 0u);  // the fixture has args
  put_u32(v2.bytes, v2.arg_ids + 8, 0xFFFFFFFFu);
  expect_rejected(v2.bytes, "string id 4294967295 out of range");
}

TEST(LegacyHostile, RejectsArgSliceOverrun) {
  PlainV2 v2;
  put_u32(v2.bytes, v2.last_record(v2layout::kArgsCount), 0xFFFFu);
  expect_rejected(v2.bytes, "record args out of range");
}

TEST(LegacyHostile, RejectsBadEventClass) {
  PlainV2 v2;
  v2.bytes[v2.last_record(v2layout::kCls)] = 0xFF;
  expect_rejected(v2.bytes, "bad event class");
}

}  // namespace
}  // namespace iotaxo::trace

namespace iotaxo {
namespace {

using trace::EventBatch;
using trace::TraceEvent;

[[nodiscard]] sim::Cluster small_cluster() {
  sim::ClusterParams p;
  p.node_count = 4;
  return sim::Cluster(p);
}

[[nodiscard]] frameworks::TraceRunResult partrace_capture(
    const sim::Cluster& cluster) {
  frameworks::Partrace partrace;
  workload::MpiIoTestParams params;
  params.nranks = 4;
  params.total_bytes = 16 * kMiB;
  frameworks::TraceJobOptions options;
  options.store_raw_streams = true;
  return partrace.trace(cluster, workload::make_mpi_io_test(params),
                        std::make_shared<pfs::Pfs>(), options);
}

TEST(StoreBatchIngest, MatchesBundleIngest) {
  const sim::Cluster cluster = small_cluster();
  const auto capture = partrace_capture(cluster);

  analysis::UnifiedTraceStore from_bundle;
  from_bundle.ingest(capture.bundle);

  EventBatch batch;
  for (const trace::RankStream& rs : capture.bundle.ranks) {
    for (const TraceEvent& ev : rs.events) {
      batch.append(ev);
    }
  }
  analysis::UnifiedTraceStore from_batch;
  from_batch.ingest(batch, capture.bundle.metadata, {},
                    capture.bundle.dependencies);

  EXPECT_EQ(from_batch.total_events(), from_bundle.total_events());
  EXPECT_EQ(from_batch.sources()[0].framework, "//TRACE");
  EXPECT_EQ(from_batch.dependencies().size(),
            from_bundle.dependencies().size());
  EXPECT_EQ(from_batch.call_stats(), from_bundle.call_stats());
  EXPECT_EQ(from_batch.rank_timeline(1).size(),
            from_bundle.rank_timeline(1).size());
  EXPECT_EQ(from_batch.source_batch(0).size(),
            from_bundle.source_batch(0).size());
}

TEST(ReplayFromBatch, DropsRanklessRecordsInsteadOfPhantomRank) {
  const sim::Cluster cluster = small_cluster();
  const auto capture = partrace_capture(cluster);

  EventBatch batch;
  TraceEvent rankless;  // rank = -1: an annotation that reached the sink
  rankless.cls = trace::EventClass::kAnnotation;
  rankless.name = "note";
  batch.append(rankless);
  for (const trace::RankStream& rs : capture.bundle.ranks) {
    for (const TraceEvent& ev : rs.events) {
      batch.append(ev);
    }
  }
  // 4 ranked sources -> exactly 4 programs; the rankless record must not
  // shift program-to-rank assignment.
  const auto programs = replay::generate_pseudo_app(batch, {}, {});
  EXPECT_EQ(programs.size(), capture.bundle.ranks.size());

  EventBatch only_rankless;
  only_rankless.append(rankless);
  EXPECT_THROW((void)replay::generate_pseudo_app(only_rankless, {}, {}),
               FormatError);
}

TEST(ReplayFromBatch, MatchesReplayFromBundle) {
  const sim::Cluster cluster = small_cluster();
  const auto capture = partrace_capture(cluster);

  replay::ReplayOptions options;
  options.pseudo.sync = replay::SyncStrategy::kDependencies;

  replay::Replayer from_bundle(cluster, std::make_shared<pfs::Pfs>());
  const auto bundle_result = from_bundle.replay(capture.bundle, options);

  EventBatch batch;
  for (const trace::RankStream& rs : capture.bundle.ranks) {
    for (const TraceEvent& ev : rs.events) {
      batch.append(ev);
    }
  }
  replay::Replayer from_batch(cluster, std::make_shared<pfs::Pfs>());
  const auto batch_result =
      from_batch.replay(batch, capture.bundle.dependencies, options);

  // Identical pseudo-apps on identical fresh file systems: identical runs.
  EXPECT_EQ(batch_result.run.elapsed, bundle_result.run.elapsed);
  EXPECT_EQ(batch_result.run.bytes_written, bundle_result.run.bytes_written);
  EXPECT_EQ(batch_result.bundle.total_events(),
            bundle_result.bundle.total_events());
}

}  // namespace
}  // namespace iotaxo
