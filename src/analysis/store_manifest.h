// Crash-safe store directories: the per-directory commit record and the
// one recovery walk that reads it.
//
// Every directory the cold tier spills eras into carries a
// `MANIFEST.iotm` listing exactly the containers that are *committed*:
// written in full, fsync'd, and renamed into place. The manifest itself
// is written with the same tmp + fsync + atomic-rename protocol
// (trace::write_binary_file), and its rename is the commit point — a
// crash anywhere earlier leaves the previous manifest (and therefore the
// previous committed set) intact.
//
// Binary layout (all integers LE):
//   magic     "IOTM1\n"                        6 bytes
//   next_seq  u64    next unused era sequence number
//   nfiles    u32
//   entries   nfiles x:
//     name    u32 len + bytes   plain file name within the directory
//     size    u64               committed byte size
//     crc     u32               CRC-32 of the full file bytes
//     seq     u64               era sequence number
//   crc       u32    CRC-32 of everything above
//
// Names are plain file names: decode rejects "", ".", "..", any name with
// a '/', and a name listed twice.
//
// Recovery lives here too: recover_store_dir decides which file in a store
// directory is committed, damaged or a leftover, for both
// UnifiedTraceStore::attach_dir and `iotaxo fsck`, each passing its own
// per-container check.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/record_view.h"
#include "util/cipher.h"

namespace iotaxo::analysis {

inline constexpr std::string_view kManifestFileName = "MANIFEST.iotm";

struct ManifestEntry {
  std::string name;  // plain file name within the directory
  std::uint64_t size = 0;
  std::uint32_t crc = 0;  // CRC-32 of the full committed file bytes
  std::uint64_t seq = 0;  // era sequence number
  bool operator==(const ManifestEntry&) const = default;
};

struct StoreManifest {
  /// The next era sequence number a writer may use: max committed seq + 1.
  std::uint64_t next_seq = 0;
  std::vector<ManifestEntry> entries;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// Throws FormatError on bad magic, truncation, a CRC mismatch, or an
  /// entry name that is not a plain file name or is listed twice.
  [[nodiscard]] static StoreManifest decode(
      std::span<const std::uint8_t> data);

  /// Read `<directory>/MANIFEST.iotm`. nullopt when the file does not
  /// exist; FormatError when it exists but is corrupt.
  [[nodiscard]] static std::optional<StoreManifest> load(
      const std::string& directory);
  /// Durably write `<directory>/MANIFEST.iotm` via write_binary_file
  /// (failpoint prefix "store.manifest").
  void store(const std::string& directory) const;

  [[nodiscard]] const ManifestEntry* find(std::string_view name) const;

  bool operator==(const StoreManifest&) const = default;
};

/// One file a store directory does not serve, and why. `file` is the name
/// within the directory (no path components).
struct QuarantinedFile {
  std::string file;
  std::string reason;
  bool operator==(const QuarantinedFile&) const = default;
};

/// The era sequence number of a "<prefix>-<n>.<ext>" name; nullopt when the
/// stem has no trailing "-<digits>".
[[nodiscard]] std::optional<std::uint64_t> parse_era_seq(
    std::string_view name);

/// A caller's per-container check, handed the mapped file and its manifest
/// entry (nullptr without a trusted manifest); an Error quarantines it.
using ContainerCheck = std::function<void(
    const std::string& name, trace::MappedTraceFile file,
    const ManifestEntry* committed)>;

/// What recover_store_dir found and decided.
struct StoreDirReport {
  /// The trusted manifest; nullopt when absent or itself quarantined.
  std::optional<StoreManifest> manifest;
  /// Torn write leftovers (`*.tmp`): those removed, or all when kept.
  std::vector<std::string> tmps;
  /// Containers that passed every check.
  std::size_t served = 0;
  /// Containers the trusted manifest does not list; also quarantined.
  std::vector<std::string> uncommitted;
  std::vector<QuarantinedFile> quarantined;
  /// First era number neither the manifest nor any container on disk uses.
  std::uint64_t next_seq = 0;
};

/// The recovery walk over one store directory:
///   1. `*.tmp` files are listed, and removed when `remove_tmps` is set;
///   2. containers (`.iotb`, `.iotb2`, `.iotb3`) are put in era order: by
///      sequence number, then name, unnumbered names last;
///   3. MANIFEST.iotm is loaded; a corrupt one is quarantined;
///   4. with a manifest, each entry in manifest order is stat'ed, mapped
///      and CRC'd against its record, then handed to `check`, and
///      containers it does not list are quarantined as uncommitted; without
///      one, every container is mapped and checked in era order.
/// A missing file, a mismatch or an Error from `check` quarantines that
/// file. Throws IoError only when the directory cannot be read.
[[nodiscard]] StoreDirReport recover_store_dir(const std::string& directory,
                                               bool remove_tmps,
                                               const ContainerCheck& check);

/// Deep-validate one container: envelope, footer, and every block's CRC
/// (decoding each block exactly once — for projected v3 both column
/// groups). Returns the list of problems; empty means healthy.
[[nodiscard]] std::vector<std::string> validate_container(
    const trace::MappedTraceFile& file, const std::optional<CipherKey>& key);

}  // namespace iotaxo::analysis
