#include "analysis/store_manifest.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>

#include "trace/binary_format.h"
#include "trace/block_view.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/strings.h"

namespace iotaxo::analysis {

namespace {

constexpr char kMagic[6] = {'I', 'O', 'T', 'M', '1', '\n'};

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::string str() {
    const std::uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return s;
  }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw FormatError("store manifest: truncated");
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Recovery candidates are the container files (.iotb/.iotb2/.iotb3).
[[nodiscard]] bool is_container_name(const std::string& name) {
  return std::filesystem::path(name).extension().string().rfind(".iotb", 0) ==
         0;
}

/// Era order, the order eras were committed in: by sequence number, then
/// name; unnumbered names last.
[[nodiscard]] bool era_order(const std::string& a, const std::string& b) {
  const auto sa = parse_era_seq(a);
  const auto sb = parse_era_seq(b);
  if (sa.has_value() != sb.has_value()) {
    return sa.has_value();
  }
  if (sa.has_value() && *sa != *sb) {
    return *sa < *sb;
  }
  return a < b;
}

}  // namespace

std::vector<std::uint8_t> StoreManifest::encode() const {
  std::vector<std::uint8_t> out;
  out.insert(out.end(), kMagic, kMagic + 6);
  put_u64(out, next_seq);
  put_u32(out, static_cast<std::uint32_t>(entries.size()));
  for (const ManifestEntry& e : entries) {
    put_u32(out, static_cast<std::uint32_t>(e.name.size()));
    out.insert(out.end(), e.name.begin(), e.name.end());
    put_u64(out, e.size);
    put_u32(out, e.crc);
    put_u64(out, e.seq);
  }
  put_u32(out, crc32(std::span<const std::uint8_t>(out)));
  return out;
}

StoreManifest StoreManifest::decode(std::span<const std::uint8_t> data) {
  if (data.size() < 6 + 8 + 4 + 4 ||
      std::memcmp(data.data(), kMagic, 6) != 0) {
    throw FormatError("store manifest: bad magic");
  }
  // The sealing CRC covers everything before it — verify before trusting
  // any count or length field.
  std::uint32_t sealed = 0;
  for (int i = 0; i < 4; ++i) {
    sealed |= static_cast<std::uint32_t>(data[data.size() - 4 + i]) << (8 * i);
  }
  if (crc32(data.subspan(0, data.size() - 4)) != sealed) {
    throw FormatError("store manifest: CRC mismatch");
  }
  Reader r(data.subspan(6, data.size() - 6 - 4));
  StoreManifest m;
  m.next_seq = r.u64();
  const std::uint32_t nfiles = r.u32();
  m.entries.reserve(std::min<std::uint32_t>(nfiles, 4096));
  for (std::uint32_t i = 0; i < nfiles; ++i) {
    ManifestEntry e;
    e.name = r.str();
    if (e.name.empty() || e.name == "." || e.name == ".." ||
        e.name.find('/') != std::string::npos) {
      throw FormatError("store manifest: entry name '" + e.name +
                        "' is not a plain file name");
    }
    e.size = r.u64();
    e.crc = r.u32();
    e.seq = r.u64();
    m.entries.push_back(std::move(e));
  }
  if (!r.at_end()) {
    throw FormatError("store manifest: trailing bytes");
  }
  std::set<std::string_view> names;
  for (const ManifestEntry& e : m.entries) {
    if (!names.insert(e.name).second) {
      throw FormatError("store manifest: '" + e.name + "' is listed twice");
    }
  }
  return m;
}

std::optional<StoreManifest> StoreManifest::load(
    const std::string& directory) {
  const std::string path = directory + "/" + std::string(kManifestFileName);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  if (in.bad()) {
    throw IoError("cannot read store manifest '" + path + "'");
  }
  return decode(bytes);
}

void StoreManifest::store(const std::string& directory) const {
  const std::string path = directory + "/" + std::string(kManifestFileName);
  trace::write_binary_file(path, encode(), "store.manifest");
}

const ManifestEntry* StoreManifest::find(std::string_view name) const {
  for (const ManifestEntry& e : entries) {
    if (e.name == name) {
      return &e;
    }
  }
  return nullptr;
}

std::optional<std::uint64_t> parse_era_seq(std::string_view name) {
  const std::string stem = std::filesystem::path(name).stem().string();
  const std::size_t dash = stem.rfind('-');
  if (dash == std::string::npos || dash + 1 == stem.size()) {
    return std::nullopt;
  }
  std::uint64_t seq = 0;
  for (std::size_t i = dash + 1; i < stem.size(); ++i) {
    if (stem[i] < '0' || stem[i] > '9') {
      return std::nullopt;
    }
    seq = seq * 10 + static_cast<std::uint64_t>(stem[i] - '0');
  }
  return seq;
}

StoreDirReport recover_store_dir(const std::string& directory,
                                 bool remove_tmps,
                                 const ContainerCheck& check) {
  namespace fs = std::filesystem;
  StoreDirReport report;
  std::error_code ec;
  fs::directory_iterator dir_it(directory, ec);
  if (ec) {
    throw IoError("store directory: cannot read '" + directory + "'");
  }
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : dir_it) {
    if (!entry.is_regular_file(ec)) {
      continue;
    }
    std::string name = entry.path().filename().string();
    if (name.size() > 4 && ends_with(name, ".tmp")) {
      // A tmp is by construction uncommitted (the protocol renames it away
      // before the manifest commit), so removing it never loses data.
      if (remove_tmps && !fs::remove(entry.path(), ec)) {
        continue;
      }
      report.tmps.push_back(std::move(name));
    } else if (is_container_name(name)) {
      names.push_back(std::move(name));
    }
  }
  // The outcome must not depend on directory iteration order.
  std::sort(report.tmps.begin(), report.tmps.end());
  std::sort(names.begin(), names.end(), era_order);
  for (const std::string& name : names) {
    if (const auto seq = parse_era_seq(name)) {
      report.next_seq = std::max(report.next_seq, *seq + 1);
    }
  }

  const auto quarantine = [&report](const std::string& file,
                                    std::string reason) {
    report.quarantined.push_back({file, std::move(reason)});
  };
  try {
    report.manifest = StoreManifest::load(directory);
  } catch (const Error& err) {
    quarantine(std::string(kManifestFileName), err.what());
  }
  if (!report.manifest.has_value()) {
    // Without a CRC to verify, map lazily: the check touches what it needs.
    for (const std::string& name : names) {
      try {
        check(name,
              trace::MappedTraceFile(directory + "/" + name,
                                     /*prefault=*/false),
              nullptr);
        ++report.served;
      } catch (const Error& err) {
        quarantine(name, err.what());
      }
    }
    return report;
  }

  const StoreManifest& manifest = *report.manifest;
  report.next_seq = std::max(report.next_seq, manifest.next_seq);
  std::set<std::string_view> listed;
  for (const ManifestEntry& e : manifest.entries) {
    listed.insert(e.name);
    const std::string path = directory + "/" + e.name;
    std::error_code sec;
    const std::uintmax_t size = fs::file_size(path, sec);
    if (sec) {
      quarantine(e.name, "listed in manifest but missing on disk");
      continue;
    }
    if (size != e.size) {
      quarantine(e.name, "size " + std::to_string(size) + " != manifest's " +
                             std::to_string(e.size));
      continue;
    }
    try {
      trace::MappedTraceFile file(path);
      if (crc32(file.bytes()) != e.crc) {
        quarantine(e.name, "file CRC does not match the manifest");
        continue;
      }
      check(e.name, std::move(file), &e);
      ++report.served;
    } catch (const Error& err) {
      quarantine(e.name, err.what());
    }
  }
  for (const std::string& name : names) {
    if (listed.count(name) == 0) {
      report.uncommitted.push_back(name);
      quarantine(name,
                 "not committed in the manifest (crash between era rename "
                 "and manifest update?)");
    }
  }
  return report;
}

std::vector<std::string> validate_container(
    const trace::MappedTraceFile& file, const std::optional<CipherKey>& key) {
  std::vector<std::string> problems;
  trace::BinaryHeader header;
  try {
    header = trace::peek_binary_header(file.bytes());
  } catch (const Error& err) {
    problems.emplace_back(err.what());
    return problems;
  }
  if (header.version == 3) {
    std::optional<trace::BlockView> view;
    try {
      view.emplace(file.bytes(), key);
    } catch (const Error& err) {
      // Envelope, head, footer, or key check — nothing block-level is
      // reachable past this.
      problems.emplace_back(err.what());
      return problems;
    }
    for (std::size_t b = 0; b < view->block_count(); ++b) {
      try {
        (void)view->block_bytes(b);
      } catch (const Error& err) {
        problems.push_back(strprintf("block %zu: %s", b, err.what()));
      }
    }
    return problems;
  }
  // v1/v2 have no zero-copy validator; a full decode exercises every
  // checksum and length field they carry.
  try {
    (void)trace::decode_binary_batch(file.bytes(), key);
  } catch (const Error& err) {
    problems.emplace_back(err.what());
  }
  return problems;
}

}  // namespace iotaxo::analysis
