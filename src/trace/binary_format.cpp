#include "trace/binary_format.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string_view>

#include "trace/block_view.h"
#include "trace/record_view.h"
#include "util/compress.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/metrics.h"

#if defined(__unix__) || defined(__APPLE__)
#define IOTAXO_HAVE_POSIX_WRITE 1
#include <cerrno>
#include <fcntl.h>
#include <unistd.h>
#else
#include <cstdio>
#endif

namespace iotaxo::trace {

namespace {

constexpr char kMagicV1[6] = {'I', 'O', 'T', 'B', '1', '\n'};
constexpr char kMagicV2[6] = {'I', 'O', 'T', 'B', '2', '\n'};
constexpr char kMagicV3[6] = {'I', 'O', 'T', 'B', '3', '\n'};
constexpr std::uint8_t kFlagCompressed = 0x01;
constexpr std::uint8_t kFlagEncrypted = 0x02;
constexpr std::uint8_t kFlagChecksummed = 0x04;
constexpr std::uint8_t kFlagProjected = 0x08;  // v3 columnar projection
constexpr std::uint8_t kFlagIndexed = 0x10;    // v2 pool-index footer
constexpr std::uint8_t kFlagHeadCrc = 0x20;    // v3 head CRC
constexpr std::uint8_t kKnownFlags = kFlagCompressed | kFlagEncrypted |
                                     kFlagChecksummed | kFlagProjected |
                                     kFlagIndexed | kFlagHeadCrc;
constexpr std::size_t kHeaderSize = kContainerHeaderSize;
// Fixed fields plus the four (possibly zero-length) string length prefixes
// of a v1 record — the minimum body bytes one record can occupy. Corrupt
// counts are bounded by this before any reserve() sees them.
constexpr std::size_t kV1MinRecordSize = 81;

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void bytes(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  /// A length-prefixed string, borrowing the body bytes — the decoder
  /// interns straight from the view without a temporary std::string.
  std::string_view str_view() {
    const std::uint32_t n = u32();
    need(n);
    const auto* p = reinterpret_cast<const char*>(&data_[pos_]);
    pos_ += n;
    return {p, n};
  }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) {
    if (pos_ + n > data_.size()) {
      throw FormatError("binary trace: truncated record");
    }
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

[[nodiscard]] EventClass decode_class(std::uint8_t cls) {
  if (cls > static_cast<std::uint8_t>(EventClass::kAnnotation)) {
    throw FormatError("binary trace: bad event class");
  }
  return static_cast<EventClass>(cls);
}

void encode_record(Writer& w, const EventRecord& rec) {
  w.u8(static_cast<std::uint8_t>(rec.cls));
  w.u32(rec.name);
  // args_begin is not written: batch arg slices are contiguous in record
  // order, so the decoder reconstructs it as a running sum.
  w.u32(rec.args_count);
  w.i64(rec.ret);
  w.i64(rec.local_start);
  w.i64(rec.duration);
  w.i32(rec.rank);
  w.i32(rec.node);
  w.u32(rec.pid);
  w.u32(rec.host);
  w.u32(rec.path);
  w.i32(rec.fd);
  w.i64(rec.bytes);
  w.i64(rec.offset);
  w.u32(rec.uid);
  w.u32(rec.gid);
}

/// The two column groups of one projected record (hotlayout / coldlayout
/// in record_view.h). Their field unions exactly cover encode_record's v2
/// fields; args_begin stays implicit (running sum) in both layouts.
void encode_hot_record(Writer& w, const EventRecord& rec) {
  w.u8(static_cast<std::uint8_t>(rec.cls));
  w.u32(rec.name);
  w.i32(rec.rank);
  w.i64(rec.local_start);
  w.i64(rec.duration);
  w.i64(rec.bytes);
}

void encode_cold_record(Writer& w, const EventRecord& rec) {
  w.u32(rec.args_count);
  w.i64(rec.ret);
  w.i32(rec.node);
  w.u32(rec.pid);
  w.u32(rec.host);
  w.u32(rec.path);
  w.i32(rec.fd);
  w.i64(rec.offset);
  w.u32(rec.uid);
  w.u32(rec.gid);
}

/// Validate the envelope, verify the CRC, decrypt and decompress; returns
/// the raw body bytes.
[[nodiscard]] std::vector<std::uint8_t> open_container(
    std::span<const std::uint8_t> data, const BinaryHeader& h,
    const std::optional<CipherKey>& key) {
  // Subtract-and-compare instead of add-and-compare: a hostile
  // payload_length near 2^64 must not wrap the right-hand side into a
  // passing equality.
  const std::size_t crc_size = h.checksummed ? 4 : 0;
  const std::size_t avail = data.size() - kHeaderSize;  // header was peeked
  if (avail < crc_size || h.payload_length != avail - crc_size) {
    throw FormatError("binary trace: length mismatch");
  }
  std::span<const std::uint8_t> payload =
      data.subspan(kHeaderSize, h.payload_length);

  if (h.checksummed) {
    std::uint32_t stored = 0;
    for (int i = 0; i < 4; ++i) {
      stored |= static_cast<std::uint32_t>(data[kHeaderSize + h.payload_length +
                                                static_cast<std::size_t>(i)])
                << (8 * i);
    }
    if (crc32(payload) != stored) {
      throw FormatError("binary trace: checksum mismatch");
    }
  }

  std::vector<std::uint8_t> buf(payload.begin(), payload.end());
  if (h.encrypted) {
    if (!key.has_value()) {
      throw FormatError("binary trace: encrypted file requires a key");
    }
    buf = cbc_decrypt(buf, *key);
  }
  if (h.compressed) {
    buf = lz_decompress(buf);
  }
  return buf;
}

[[nodiscard]] EventBatch decode_batch_body(std::span<const std::uint8_t> body,
                                           std::uint64_t count,
                                           bool indexed = false) {
  Reader r(body);
  EventBatch batch;

  const std::uint32_t nstrings = r.u32();
  if (nstrings == 0) {
    throw FormatError("binary trace v2: empty string table");
  }
  // Each table entry occupies at least its 4-byte length prefix; a count
  // the body cannot hold is corruption, and must not reach reserve() as a
  // giant allocation.
  if (nstrings > body.size() / 4) {
    throw FormatError("binary trace v2: string table exceeds payload");
  }
  StringPool& pool = batch.pool();
  pool.reserve(nstrings);
  for (std::uint32_t i = 0; i < nstrings; ++i) {
    const std::string_view s = r.str_view();
    const StrId id = pool.intern(s);
    if (id != i) {
      // Duplicate or misordered table entries can only come from a writer
      // bug or corruption the CRC did not cover.
      throw FormatError("binary trace v2: string table is not interned");
    }
  }

  const std::uint64_t nargids = r.u64();
  // Each arg id occupies 4 payload bytes; a count the body cannot hold is
  // corruption, and must not reach reserve() as a giant allocation.
  if (nargids > body.size() / 4) {
    throw FormatError("binary trace v2: arg-id table exceeds payload");
  }
  std::vector<StrId> arg_ids;
  arg_ids.reserve(static_cast<std::size_t>(nargids));
  for (std::uint64_t i = 0; i < nargids; ++i) {
    arg_ids.push_back(r.u32());
  }

  // A v2 record occupies a fixed stride of body bytes; a count the body
  // cannot hold is corruption, and must not reach reserve() as a giant
  // allocation.
  if (count > body.size() / v2layout::kStride) {
    throw FormatError("binary trace: record count exceeds payload");
  }
  batch.reserve(static_cast<std::size_t>(count),
                static_cast<std::size_t>(nargids));
  std::uint64_t next_args_begin = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    EventRecord rec;
    rec.cls = decode_class(r.u8());
    rec.name = r.u32();
    const std::uint64_t args_begin = next_args_begin;
    const std::uint32_t args_count = r.u32();
    next_args_begin += args_count;
    rec.ret = r.i64();
    rec.local_start = r.i64();
    rec.duration = r.i64();
    rec.rank = r.i32();
    rec.node = r.i32();
    rec.pid = r.u32();
    rec.host = r.u32();
    rec.path = r.u32();
    rec.fd = r.i32();
    rec.bytes = r.i64();
    rec.offset = r.i64();
    rec.uid = r.u32();
    rec.gid = r.u32();
    if (args_begin + args_count > nargids) {
      throw FormatError("binary trace v2: record args out of range");
    }
    batch.append_raw(rec, std::span<const StrId>(arg_ids).subspan(
                              static_cast<std::size_t>(args_begin),
                              args_count));
  }
  // Indexed bodies carry the pool-index footer after the records; the
  // decoder materializes the batch, so the footer is simply skipped.
  if (!indexed && !r.at_end()) {
    throw FormatError("binary trace: trailing bytes after records");
  }
  return batch;
}

}  // namespace

std::vector<std::uint8_t> encode_binary_v3(const EventBatch& batch,
                                           const BinaryOptions& options,
                                           std::uint32_t block_records) {
  if (options.encrypt && !options.key.has_value()) {
    throw ConfigError("binary trace: encryption requested without a key");
  }
  if (block_records == 0) {
    throw ConfigError("binary trace v3: block_records must be positive");
  }
  const std::size_t count = batch.size();
  const std::size_t nblocks =
      count == 0 ? 0 : (count + block_records - 1) / block_records;
  const std::size_t nstrings = batch.pool().size();
  const std::size_t bitmap_bytes = (nstrings + 7) / 8;

  Writer payload;  // head, then stored blocks appended in place
  payload.u32(static_cast<std::uint32_t>(nstrings));
  batch.pool().for_each(
      [&payload](StrId /*id*/, std::string_view s) { payload.str(s); });
  payload.u64(batch.arg_ids().size());
  for (const StrId a : batch.arg_ids()) {
    payload.u32(a);
  }
  payload.u32(block_records);
  if (options.encrypt) {
    payload.u64(xtea_encrypt_block(v3layout::kKeyCheckPlain, *options.key));
  }
  // The head CRC's slot: filled in below, once the envelope it also covers
  // knows the payload length.
  const std::size_t head_len = payload.size();
  if (options.checksum) {
    payload.u32(0);
  }

  // One column group's plain -> stored transform: compress, THEN encrypt
  // (per-block IV derived from the ordinal + group; nothing stored).
  const auto store_group = [&](std::vector<std::uint8_t> plain, std::size_t b,
                               std::uint32_t group) {
    if (options.compress) {
      plain = lz_compress(plain);
    }
    if (options.encrypt) {
      plain = cbc_encrypt_with_iv(plain, *options.key,
                                  v3layout::block_iv(b, group));
    }
    return plain;
  };

  Writer footer;
  std::vector<std::uint8_t> bitmap(bitmap_bytes);
  std::uint64_t block_offset = 0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t first = b * block_records;
    const std::size_t n = std::min<std::size_t>(block_records, count - first);
    Writer plain_w;  // full 81-byte stride, or the hot group when projected
    Writer cold_w;
    SimTime min_time = batch.record(first).local_start;
    SimTime max_time = min_time;
    std::uint8_t flags = 0;
    std::fill(bitmap.begin(), bitmap.end(), 0);
    for (std::size_t i = first; i < first + n; ++i) {
      const EventRecord& rec = batch.record(i);
      if (options.project) {
        encode_hot_record(plain_w, rec);
        encode_cold_record(cold_w, rec);
      } else {
        encode_record(plain_w, rec);
      }
      min_time = std::min(min_time, rec.local_start);
      max_time = std::max(max_time, rec.local_start);
      bitmap[rec.name >> 3] |=
          static_cast<std::uint8_t>(1u << (rec.name & 7u));
      if (rec.path != 0 && rec.fd >= 0) {
        flags |= v3layout::kBlockHasFdPath;
      }
      if (rec.is_io_call()) {
        flags |= v3layout::kBlockHasIoCall;
        if (rec.bytes > 0) {
          flags |= v3layout::kBlockHasIoBytes;
        }
      }
    }
    const std::vector<std::uint8_t> stored = store_group(plain_w.take(), b, 0);
    std::vector<std::uint8_t> cold_stored;
    if (options.project) {
      cold_stored = store_group(cold_w.take(), b, 1);
    }
    footer.u64(block_offset);
    footer.u64(stored.size());
    // Owned-batch arg slices are contiguous in record order, so the block's
    // running args_begin is the first record's (the same invariant the v2
    // encoder relies on to omit args_begin entirely).
    footer.u64(batch.record(first).args_begin);
    footer.u32(static_cast<std::uint32_t>(n));
    footer.u32(options.checksum ? crc32(stored) : 0u);
    footer.i64(min_time);
    footer.i64(max_time);
    footer.u8(flags);
    if (options.project) {
      footer.u64(cold_stored.size());
      footer.u32(options.checksum ? crc32(cold_stored) : 0u);
    }
    for (const std::uint8_t byte : bitmap) {
      footer.u8(byte);
    }
    block_offset += stored.size() + cold_stored.size();
    payload.bytes(stored);
    if (options.project) {
      payload.bytes(cold_stored);
    }
  }

  const std::vector<std::uint8_t> footer_bytes = footer.take();
  payload.bytes(footer_bytes);
  payload.u64(footer_bytes.size());
  payload.u64(nblocks);
  payload.u32(crc32(footer_bytes));
  payload.u32(v3layout::kFooterMagic);

  std::uint8_t container_flags = 0;
  if (options.compress) {
    container_flags |= kFlagCompressed;
  }
  if (options.encrypt) {
    container_flags |= kFlagEncrypted;
  }
  if (options.checksum) {
    container_flags |= kFlagChecksummed | kFlagHeadCrc;
  }
  if (options.project) {
    container_flags |= kFlagProjected;
  }
  Writer out;
  for (const char c : kMagicV3) {
    out.u8(static_cast<std::uint8_t>(c));
  }
  out.u8(container_flags);
  out.u64(count);
  const std::vector<std::uint8_t> body = payload.take();
  out.u64(body.size());
  std::vector<std::uint8_t> container = out.take();
  container.insert(container.end(), body.begin(), body.end());
  if (options.checksum) {
    const std::size_t at = kHeaderSize + head_len;
    const std::uint32_t crc =
        crc32(std::span<const std::uint8_t>(container.data(), at));
    for (int i = 0; i < 4; ++i) {
      container[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(crc >> (8 * i));
    }
  }
  return container;
}

std::vector<std::uint8_t> encode_binary_v3(
    const std::vector<TraceEvent>& events, const BinaryOptions& options,
    std::uint32_t block_records) {
  return encode_binary_v3(EventBatch::from_events(events), options,
                          block_records);
}

BinaryHeader peek_binary_header(std::span<const std::uint8_t> data) {
  if (data.size() < kHeaderSize) {
    throw FormatError("binary trace: bad magic");
  }
  BinaryHeader h;
  if (std::memcmp(data.data(), kMagicV1, 6) == 0) {
    h.version = 1;
  } else if (std::memcmp(data.data(), kMagicV2, 6) == 0) {
    h.version = 2;
  } else if (std::memcmp(data.data(), kMagicV3, 6) == 0) {
    h.version = 3;
  } else {
    throw FormatError("binary trace: bad magic");
  }
  Reader r(data.subspan(6));
  const std::uint8_t flags = r.u8();
  h.compressed = (flags & kFlagCompressed) != 0;
  h.encrypted = (flags & kFlagEncrypted) != 0;
  h.checksummed = (flags & kFlagChecksummed) != 0;
  h.projected = (flags & kFlagProjected) != 0;
  h.indexed = (flags & kFlagIndexed) != 0;
  h.head_crc = (flags & kFlagHeadCrc) != 0;
  if ((flags & ~kKnownFlags) != 0) {
    throw FormatError("binary trace: unknown flag bits");
  }
  if ((h.projected || h.head_crc) && h.version != 3) {
    throw FormatError("binary trace: projected/head-CRC flags are v3-only");
  }
  if (h.indexed && h.version != 2) {
    throw FormatError("binary trace: indexed flag is v2-only");
  }
  h.count = r.u64();
  h.payload_length = r.u64();
  return h;
}

std::vector<TraceEvent> decode_binary(std::span<const std::uint8_t> data,
                                      const std::optional<CipherKey>& key) {
  return decode_binary_batch(data, key).to_events();
}

EventBatch decode_binary_batch(std::span<const std::uint8_t> data,
                               const std::optional<CipherKey>& key) {
  const BinaryHeader h = peek_binary_header(data);
  if (h.version == 3) {
    // The block view *is* the v3 decoder: it validates the footer and every
    // block it converts, so corrupt containers throw exactly as v1/v2 do.
    return BlockView(data, key).to_batch();
  }
  const std::vector<std::uint8_t> body = open_container(data, h, key);
  if (h.version == 2) {
    return decode_batch_body(body, h.count, h.indexed);
  }
  // v1: intern each record's strings straight from the body into the
  // output batch — no per-event TraceEvent round-trip, no temporary
  // std::strings.
  if (h.count > body.size() / kV1MinRecordSize) {
    throw FormatError("binary trace: record count exceeds payload");
  }
  Reader r(body);
  EventBatch batch;
  batch.reserve(static_cast<std::size_t>(h.count), 0);
  std::vector<std::string_view> args;
  for (std::uint64_t i = 0; i < h.count; ++i) {
    EventRecord rec;
    rec.cls = decode_class(r.u8());
    const std::string_view name = r.str_view();
    const std::uint32_t argc = r.u32();
    args.clear();
    // Cap the hint: a corrupt argc must not become a giant allocation (the
    // reader throws on the first truncated arg regardless).
    args.reserve(std::min<std::uint32_t>(argc, 64));
    for (std::uint32_t j = 0; j < argc; ++j) {
      args.push_back(r.str_view());
    }
    rec.ret = r.i64();
    rec.local_start = r.i64();
    rec.duration = r.i64();
    rec.rank = r.i32();
    rec.node = r.i32();
    rec.pid = r.u32();
    const std::string_view host = r.str_view();
    const std::string_view path = r.str_view();
    rec.fd = r.i32();
    rec.bytes = r.i64();
    rec.offset = r.i64();
    rec.uid = r.u32();
    rec.gid = r.u32();
    batch.append_interning(rec, name, host, path, args);
  }
  if (!r.at_end()) {
    throw FormatError("binary trace: trailing bytes after records");
  }
  return batch;
}

bool looks_binary(std::span<const std::uint8_t> data) noexcept {
  return data.size() >= 6 && (std::memcmp(data.data(), kMagicV1, 6) == 0 ||
                              std::memcmp(data.data(), kMagicV2, 6) == 0 ||
                              std::memcmp(data.data(), kMagicV3, 6) == 0);
}

// ------------------------------------------------------- durable file write

#if IOTAXO_HAVE_POSIX_WRITE
namespace {

void write_all(int fd, const std::uint8_t* data, std::size_t len,
               const std::string& path) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw IoError("cannot write '" + path + "'");
    }
    done += static_cast<std::size_t>(n);
  }
}

void fsync_or_throw(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    throw IoError("cannot fsync '" + path + "'");
  }
}

}  // namespace
#endif

namespace {

/// Handles bound once; every record call is one relaxed load when metrics
/// are disarmed (util/metrics.h).
struct DurableMetrics {
  obs::Counter& files = obs::counter("durable.write.files");
  obs::Counter& bytes = obs::counter("durable.write.bytes");
  obs::Histogram& fsync_ns = obs::histogram("durable.write.fsync_ns");
  obs::Histogram& rename_ns = obs::histogram("durable.write.rename_ns");
};

DurableMetrics& durable_metrics() {
  static DurableMetrics m;
  return m;
}

}  // namespace

void write_binary_file(const std::string& path,
                       std::span<const std::uint8_t> bytes,
                       std::string_view point_prefix) {
  const std::string prefix(point_prefix);
  const std::string tmp = path + ".tmp";
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? std::string(".") : parent.string();
#if IOTAXO_HAVE_POSIX_WRITE
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw IoError("cannot create '" + tmp + "'");
  }
  try {
    fail::point(prefix + ".write");
    // A torn:N spec at the write point models a crash mid-write: the tmp
    // file keeps its first N bytes and the "process" dies — recovery must
    // delete it, never promote it.
    std::size_t len = bytes.size();
    bool torn = false;
    if (const auto limit = fail::torn_limit(prefix + ".write")) {
      len = std::min<std::size_t>(len, *limit);
      torn = true;
    }
    write_all(fd, bytes.data(), len, tmp);
    if (torn) {
      throw fail::CrashError("torn write of '" + tmp + "'");
    }
    fail::point(prefix + ".fsync");
    {
      const obs::ScopedTimer fsync_timer(durable_metrics().fsync_ns);
      fsync_or_throw(fd, tmp);
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  fail::point(prefix + ".rename");
  {
    const obs::ScopedTimer rename_timer(durable_metrics().rename_ns);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      throw IoError("cannot rename '" + tmp + "' to '" + path + "'");
    }
  }
  fail::point(prefix + ".dirsync");
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd < 0) {
    throw IoError("cannot open directory '" + dir + "' to fsync it");
  }
  try {
    fsync_or_throw(dfd, dir);
  } catch (...) {
    ::close(dfd);
    throw;
  }
  ::close(dfd);
#else
  // No POSIX fd durability on this platform: keep the tmp + atomic-rename
  // shape (and the failpoints) so behavior stays testable, with flush as
  // the best available stand-in for fsync.
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw IoError("cannot create '" + tmp + "'");
  }
  try {
    fail::point(prefix + ".write");
    std::size_t len = bytes.size();
    bool torn = false;
    if (const auto limit = fail::torn_limit(prefix + ".write")) {
      len = std::min<std::size_t>(len, *limit);
      torn = true;
    }
    if (len > 0 && std::fwrite(bytes.data(), 1, len, f) != len) {
      throw IoError("cannot write '" + tmp + "'");
    }
    if (torn) {
      throw fail::CrashError("torn write of '" + tmp + "'");
    }
    fail::point(prefix + ".fsync");
    {
      const obs::ScopedTimer fsync_timer(durable_metrics().fsync_ns);
      if (std::fflush(f) != 0) {
        throw IoError("cannot flush '" + tmp + "'");
      }
    }
  } catch (...) {
    std::fclose(f);
    throw;
  }
  std::fclose(f);
  fail::point(prefix + ".rename");
  {
    const obs::ScopedTimer rename_timer(durable_metrics().rename_ns);
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      throw IoError("cannot rename '" + tmp + "' to '" + path + "'");
    }
  }
  fail::point(prefix + ".dirsync");
#endif
  // Counted only once the file is fully durable (rename + dirsync done):
  // the counters answer "how many era/manifest files landed", not "how
  // many attempts started".
  durable_metrics().files.add(1);
  durable_metrics().bytes.add(bytes.size());
}

}  // namespace iotaxo::trace
