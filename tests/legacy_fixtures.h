// Committed containers in the formats iotaxo no longer writes (IOTB1, IOTB2
// in every flag combination, IOTB3 without a head CRC), for the import-path
// tests. The files under tests/data/legacy were written by the v1/v2/v3
// encoders of the release that still had them, from exactly the events
// legacy_events() returns; the tests regenerate those events in code and
// compare what the importers read against an owned ingest of them.
#pragma once

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "trace/event.h"
#include "util/cipher.h"
#include "util/strings.h"

namespace iotaxo::testing {

/// Key of the encrypted fixtures.
inline CipherKey legacy_key() { return derive_key("legacy-fixture"); }

/// One committed legacy container.
struct LegacyFixture {
  const char* file;  // name within legacy_dir()
  int version;
  bool compressed;
  bool encrypted;
  bool checksummed;
  bool indexed;  // IOTB2 pool-index footer (flags bit4)
};

inline const std::vector<LegacyFixture>& legacy_fixtures() {
  static const std::vector<LegacyFixture> kFixtures = {
      {"v1.iotb1", 1, false, false, true, false},
      {"v2_plain.iotb2", 2, false, false, false, false},
      {"v2_checksummed.iotb2", 2, false, false, true, false},
      {"v2_compressed.iotb2", 2, true, false, true, false},
      {"v2_encrypted.iotb2", 2, false, true, true, false},
      {"v2_compressed_encrypted.iotb2", 2, true, true, true, false},
      {"v2_compressed_unchecksummed.iotb2", 2, true, false, false, false},
      {"v2_encrypted_unchecksummed.iotb2", 2, false, true, false, false},
      {"v2_compressed_encrypted_unchecksummed.iotb2", 2, true, true, false,
       false},
      {"v2_indexed.iotb2", 2, false, false, true, true},
      {"v3_no_head_crc.iotb3", 3, false, false, true, false},
  };
  return kFixtures;
}

inline std::string legacy_dir() {
  return std::string(IOTAXO_TEST_DATA_DIR) + "/legacy";
}

inline std::vector<std::uint8_t> read_legacy(const LegacyFixture& f) {
  std::ifstream in(legacy_dir() + "/" + f.file, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The events every fixture holds: four ranks opening, writing and reading
/// two files through syscalls and MPI-IO, with VFS operations, a clock
/// probe, an annotation and a rank-less record mixed in.
inline std::vector<trace::TraceEvent> legacy_events() {
  using trace::EventClass;
  std::vector<trace::TraceEvent> events;
  for (int i = 0; i < 48; ++i) {
    trace::TraceEvent ev;
    const int rank = i % 4;
    ev.rank = rank;
    ev.node = rank / 2;
    ev.pid = 4000 + static_cast<std::uint32_t>(rank);
    ev.host = strprintf("node%02d.cluster", rank / 2);
    ev.uid = 500;
    ev.gid = 100;
    ev.local_start = 1'000'000 + i * 2'500 + rank * 7;
    ev.duration = 300 + (i % 5) * 40;
    const std::string path =
        rank % 2 == 0 ? "/pfs/shared.dat" : "/pfs/rank.dat";
    switch (i % 8) {
      case 0:
        ev.name = "SYS_open";
        ev.args = {path, "577", "0644"};
        ev.path = path;
        ev.fd = 5 + rank;
        ev.ret = ev.fd;
        break;
      case 1:
      case 2:
        ev.name = "SYS_write";
        ev.args = {strprintf("%d", 5 + rank), "65536"};
        ev.fd = 5 + rank;
        ev.bytes = 65536;
        ev.offset = static_cast<Bytes>(i) * 65536;
        ev.ret = ev.bytes;
        break;
      case 3:
        ev.cls = EventClass::kLibraryCall;
        ev.name = "MPI_File_write_at";
        ev.args = {"fh", strprintf("%d", i * 4096), "4096"};
        ev.path = path;
        ev.fd = 5 + rank;
        ev.bytes = 4096;
        ev.offset = static_cast<Bytes>(i) * 4096;
        break;
      case 4:
        ev.name = "SYS_read";
        ev.args = {strprintf("%d", 5 + rank), "8192"};
        ev.fd = 5 + rank;
        ev.bytes = 8192;
        ev.ret = ev.bytes;
        break;
      case 5:
        ev.cls = EventClass::kFsOperation;
        ev.name = "vfs_write";
        ev.path = path;
        ev.bytes = 1024;
        break;
      case 6:
        ev.cls =
            i % 16 == 6 ? EventClass::kClockProbe : EventClass::kAnnotation;
        ev.name = i % 16 == 6 ? "clock_probe" : "barrier";
        if (i == 14) {
          ev.rank = -1;  // rank-less bookkeeping
        }
        break;
      default:
        ev.name = "SYS_close";
        ev.args = {strprintf("%d", 5 + rank)};
        ev.fd = 5 + rank;
        break;
    }
    events.push_back(std::move(ev));
  }
  return events;
}

}  // namespace iotaxo::testing
