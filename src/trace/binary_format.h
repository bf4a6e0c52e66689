// Binary trace formats (the Tracefs output path): length-prefixed records
// with optional buffering, CRC-32 integrity, LZ compression and XTEA-CBC
// encryption — the feature set §4.2 of the paper attributes to Tracefs
// ("Binary, with optional checksumming, compression, encryption, or
// buffering").
//
// iotaxo writes one container, IOTB3 (encode_binary_v3). The two older
// versions, IOTB1 and IOTB2, are still read: decode_binary and
// decode_binary_batch accept all three, and the unified store imports
// v1/v2 files by decoding them into an owned batch.
//
// All three versions share one outer envelope:
//   magic   "IOTB1\n", "IOTB2\n" or "IOTB3\n"   6 bytes
//   flags   u8   bit0 compressed, bit1 encrypted, bit2 checksummed,
//                bit3 projected (v3 only), bit4 indexed (v2 only),
//                bit5 head CRC (v3 only); any other bit is rejected
//   count   u64 LE   number of event records
//   paylen  u64 LE   payload length (everything after this header)
//   payload
//   crc     u32 LE   CRC-32 of payload (v1/v2 only, present iff bit2 —
//                    v3 checksums its head and each block instead)
//
// v1 body (IOTB1, read only): `count` self-delimiting records, each
// repeating every string it carries (name, args, host, path) inline. The
// v1/v2 payload is the body after compression then encryption (whole-body
// XTEA-CBC with the IV prepended), in that order.
//
// v2 body (IOTB2, read only): the interned table and fixed records that v3
// splits into blocks:
//   nstrings  u32 LE                     string-table size (id 0 = "")
//   strings   nstrings x (u32 len + bytes), in id order
//   nargids   u64 LE                     length of the argument-id table
//   argids    nargids x u32 LE           interned ids, all records' args
//   records   count x fixed record (81 bytes, offsets in record_view.h):
//             u8  cls
//             u32 name-id
//             u32 args-count   (args slices are contiguous in record
//                              order; begin = running sum of counts)
//             i64 ret          i64 local_start  i64 duration
//             i32 rank         i32 node         u32 pid
//             u32 host-id      u32 path-id      i32 fd
//             i64 bytes        i64 offset
//             u32 uid          u32 gid
// Indexed v2 bodies (bit4) carry a pool-index footer after the records,
// which the decoder skips.
//
// v3 body (IOTB3): the *block-structured* container — the v2 record section
// split into fixed-record-count blocks that are independently compressed,
// checksummed and (flags bit1) encrypted, plus a per-block mini-index, so
// compressed cold storage stays queryable without decoding whole files
// (trace::BlockView touches only the blocks a query's window/name filter
// reaches). Layout:
//   head    (never compressed or encrypted)
//     nstrings       u32 LE   + strings, exactly as v2
//     nargids        u64 LE   + argids,  exactly as v2
//     block_records  u32 LE   records per block (> 0; every block except
//                             the last holds exactly this many, so record
//                             i lives in block i / block_records)
//     key_check      u64 LE   ONLY when flags bit1 (encrypted):
//                             xtea_encrypt_block(kKeyCheckPlain, key), so
//                             a wrong key is rejected at open rather than
//                             surfacing as per-block padding corruption
//     head_crc       u32 LE   ONLY when flags bit5: CRC-32 of the envelope
//                             header and every head byte before this
//                             field. The encoder sets bit5 exactly when
//                             bit2 (checksummed) is set; containers
//                             without it (older checksummed writers) open
//                             with an unprotected head.
//   blocks  concatenated stored blocks. Plain form: the block's records —
//           either one group at the 81-byte v2 stride, or (flags bit3,
//           "projected") two column groups stored back to back: a hot
//           group at the 33-byte hotlayout stride (cls, name, rank,
//           local_start, duration, bytes — everything the windowed /
//           rate / call-stats / DFG scans read) followed by a cold group
//           at the 48-byte coldlayout stride (the remaining v2 fields).
//           Each group's stored form is lz_compress(plain) when bit0 is
//           set, then cbc_encrypt_with_iv(..., block_iv(b, group)) when
//           bit1 is set (IV derived from the block ordinal + group; not
//           stored). Narrow queries decode only the hot group.
//   footer  nblocks fixed entries (offsets in v3layout below):
//             u64 offset       byte offset of the stored block in `blocks`
//             u64 stored_len   stored byte length (projected: of the HOT
//                              group; the cold group follows contiguously)
//             u64 args_begin   running sum of args_count at block start
//             u32 records      record count (== block_records except last)
//             u32 crc          CRC-32 of the STORED bytes (0 when bit2 off;
//                              projected: of the hot group's stored bytes)
//             i64 min_time     min/max local_start over the block
//             i64 max_time
//             u8  flags        bit0 has_fd_path, bit1 has_io_bytes,
//                              bit2 has_io_call (mirrors the store's
//                              PoolIndex, per block)
//             cold_len  u64    ONLY when flags bit3 (projected): the cold
//             cold_crc  u32    group's stored length + CRC
//             name bitmap      (nstrings + 7) / 8 bytes; bit id is set iff
//                              some record's *name* is string id `id`
//   trailer (24 bytes, last in the payload)
//     footer_len  u64 LE   byte length of the footer region
//     nblocks     u64 LE
//     footer_crc  u32 LE   CRC-32 of the footer region (always present —
//                          the index must be trustworthy before any block
//                          is trusted)
//     magic       u32 LE   v3layout::kFooterMagic
// flags bit2 (checksummed) governs the head CRC and the per-block CRCs;
// bit1 (encrypted) encrypts each stored group AFTER compression, leaving
// head, footer and trailer plaintext so index skips still work without the
// key; bit3 (projected) selects the two-column-group record layout.
//
// Version / read-path compatibility matrix:
//   container                 written  decode_binary_batch  BlockView
//   v1 (any flags)            no       yes                  no
//   v2 (any flags, indexed    no       yes (index footer    no
//      included)                       skipped)
//   v3 without head CRC       no       yes                  yes (head
//      (older writers)                                      unprotected)
//   v3 plain / checksummed /  yes      yes                  yes (head CRC
//      compressed                                           at open; blocks
//                                                           decoded +
//                                                           verified lazily)
//   v3 encrypted              yes      yes (with key)       yes (key at
//                                                           open; groups
//                                                           decrypted
//                                                           lazily)
//   v3 projected              yes      yes                  yes (hot group
//                                                           alone serves
//                                                           narrow queries)
// UnifiedTraceStore::ingest_view serves v3 through a BlockView and imports
// v1/v2 through decode_binary_batch into an owned pool.
//
// Durability / recovery protocol
// ------------------------------
// Containers that must survive a crash (cold-tier eras, the store
// manifest, `--binary-out` files) go through write_binary_file:
//
//   1. the full container is written to `<name>.tmp`
//   2. the tmp file is fsync'd and closed
//   3. `<name>.tmp` is atomically renamed onto `<name>`
//   4. the parent directory is fsync'd so the rename itself is durable
//
// A crash at any step leaves either the old state or the new file —
// never a half-written `<name>` (a torn write can only strand a `.tmp`,
// which recovery deletes). Each step carries a fail::point
// ("<prefix>.write/.fsync/.rename/.dirsync") so the crash-matrix tests
// can kill the protocol at every stage.
//
// Store directories additionally carry a `MANIFEST.iotm`
// (analysis::StoreManifest, written with the same protocol): magic
// "IOTM1\n", the next unused era sequence number, and one entry per
// committed container (file name, byte size, CRC-32 of the full file
// bytes, era seq), sealed by a trailing CRC-32 of everything before it.
// The manifest rename is the commit point for a cold-compaction era:
// recovery (UnifiedTraceStore::attach_dir, `iotaxo fsck`) deletes
// orphaned `.tmp` files, serves exactly the manifest's entries that
// still match their recorded size + CRC and open cleanly, and
// quarantines (reports without serving) everything else — a container
// present on disk but absent from the manifest is an uncommitted
// leftover from a crash between the era rename and the manifest rename.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/event_batch.h"
#include "util/cipher.h"

namespace iotaxo::trace {

/// Size of the shared container envelope header: magic + flags + count +
/// paylen. The payload starts at this offset (the CRC, when present, sits
/// after the payload). Shared by the codec and the zero-copy view layer.
inline constexpr std::size_t kContainerHeaderSize = 6 + 1 + 8 + 8;

/// Byte layout of the IOTB3 footer (see the container comment above).
/// Shared by the encoder, trace::BlockView and the corruption tests.
namespace v3layout {
/// Per-block footer entry: fixed fields, then the name-presence bitmap of
/// (nstrings + 7) / 8 bytes. Offsets are within the entry.
inline constexpr std::size_t kEntryOffset = 0;      // u64
inline constexpr std::size_t kEntryStoredLen = 8;   // u64
inline constexpr std::size_t kEntryArgsBegin = 16;  // u64
inline constexpr std::size_t kEntryRecords = 24;    // u32
inline constexpr std::size_t kEntryCrc = 28;        // u32
inline constexpr std::size_t kEntryMinTime = 32;    // i64
inline constexpr std::size_t kEntryMaxTime = 40;    // i64
inline constexpr std::size_t kEntryFlags = 48;      // u8
inline constexpr std::size_t kEntryFixedSize = 49;  // bitmap follows
/// Projected containers append two cold-group fields after kEntryFlags;
/// the bitmap then follows at kEntryFixedSize + kEntryProjectedExtra.
inline constexpr std::size_t kEntryColdLen = 49;        // u64
inline constexpr std::size_t kEntryColdCrc = 57;        // u32
inline constexpr std::size_t kEntryProjectedExtra = 12;

inline constexpr std::uint8_t kBlockHasFdPath = 0x01;
inline constexpr std::uint8_t kBlockHasIoBytes = 0x02;
inline constexpr std::uint8_t kBlockHasIoCall = 0x04;

/// Trailer: footer_len u64 + nblocks u64 + footer_crc u32 + magic u32.
inline constexpr std::size_t kTrailerSize = 24;
inline constexpr std::uint32_t kFooterMagic = 0x33425846u;  // "FXB3" LE

inline constexpr std::uint32_t kDefaultBlockRecords = 4096;

/// Known plaintext whose XTEA encryption under the container key is stored
/// in the encrypted head (key_check): lets BlockView reject a wrong key at
/// open instead of at first block touch.
inline constexpr std::uint64_t kKeyCheckPlain = 0x33425846'1077B3AAULL;

/// Per-(block, column-group) CBC IV, a pure function of the ordinals
/// (splitmix64 finalizer) — the decoder re-derives it, nothing is stored
/// with the ciphertext. Group 0 is the hot (or only) group, group 1 cold.
[[nodiscard]] constexpr std::uint64_t block_iv(std::uint64_t block,
                                               std::uint32_t group) noexcept {
  std::uint64_t x = 0x1077B3C0DEC0FFEEULL ^ (block << 1) ^ group;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace v3layout

struct BinaryOptions {
  bool compress = false;
  bool encrypt = false;
  bool checksum = true;
  /// Columnar projection: store each block as a hot + cold column group
  /// so narrow queries decode a fraction of the bytes.
  bool project = false;
  /// Required when encrypt is true.
  std::optional<CipherKey> key;
};

/// Serialize a batch to the v3 (IOTB3) block container: per-block
/// compression, CRC and encryption plus the footer mini-index, with
/// optional columnar projection (options.project). Throws ConfigError when
/// options.encrypt is set without a key or block_records is 0.
[[nodiscard]] std::vector<std::uint8_t> encode_binary_v3(
    const EventBatch& batch, const BinaryOptions& options,
    std::uint32_t block_records = v3layout::kDefaultBlockRecords);

/// Convenience: intern `events` into a batch, then encode as v3.
[[nodiscard]] std::vector<std::uint8_t> encode_binary_v3(
    const std::vector<TraceEvent>& events, const BinaryOptions& options,
    std::uint32_t block_records = v3layout::kDefaultBlockRecords);

/// Parse a v1, v2 or v3 container; verifies CRCs, decrypts, decompresses.
/// `key` must be supplied for encrypted files. Throws FormatError on any
/// corruption or a wrong key.
[[nodiscard]] std::vector<TraceEvent> decode_binary(
    std::span<const std::uint8_t> data,
    const std::optional<CipherKey>& key = std::nullopt);

/// Parse a container straight into batch form. v2/v3 payloads decode
/// without rebuilding per-event heap objects; v1 payloads are decoded
/// per-event and re-interned.
[[nodiscard]] EventBatch decode_binary_batch(
    std::span<const std::uint8_t> data,
    const std::optional<CipherKey>& key = std::nullopt);

/// Durably write `bytes` to `path` via the tmp + fsync + atomic-rename +
/// directory-fsync protocol documented above. `point_prefix` names the
/// fail::point sites ("<prefix>.write", ".fsync", ".rename", ".dirsync")
/// so distinct write phases (era spill vs manifest) get distinct
/// failpoints. Throws IoError on any failure; a torn `<path>.tmp` may be
/// left behind for recovery to delete, but `path` itself is never
/// half-written.
void write_binary_file(const std::string& path,
                       std::span<const std::uint8_t> bytes,
                       std::string_view point_prefix = "binary.file");

/// Inspect a container's flags without decoding the payload.
struct BinaryHeader {
  int version = 1;  // 1 = IOTB1, 2 = IOTB2, 3 = IOTB3
  bool compressed = false;
  bool encrypted = false;
  bool checksummed = false;
  bool projected = false;  // v3 columnar projection (flags bit3)
  bool indexed = false;    // v2 pool-index footer (flags bit4)
  bool head_crc = false;   // v3 head CRC (flags bit5)
  std::uint64_t count = 0;
  std::uint64_t payload_length = 0;
};
[[nodiscard]] BinaryHeader peek_binary_header(
    std::span<const std::uint8_t> data);

/// Heuristic used by the taxonomy classifier to label a framework's output
/// format: true if the buffer starts with any of the binary magics.
[[nodiscard]] bool looks_binary(std::span<const std::uint8_t> data) noexcept;

}  // namespace iotaxo::trace
