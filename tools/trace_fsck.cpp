/// \file trace_fsck.cpp
/// Offline verifier / salvager for `.lsblk` containers (docs/STORAGE.md,
/// docs/ROBUSTNESS.md). Three modes:
///
///   verify  (default)  check header, commit footer, and every block
///                      checksum; exit 0 clean, 1 damaged, 2 unusable.
///   report             same scan, but always exit 0 — the JSON verdict
///                      is the product (CI artifact collection).
///   repair             recovering-open the container, salvage what the
///                      checksums prove, and write a fresh container
///                      to --out; exit 0 on salvage, 2 on clean refusal.
///
///   ./trace_fsck --in=run.lsblk
///   ./trace_fsck --in=run.lsblk --mode=report --out-report=fsck.json
///   ./trace_fsck --in=torn.lsblk --mode=repair --out=salvaged.lsblk
///
/// The JSON report (schema `logstruct-fsck-report/v1`) carries the
/// per-column damage census plus the full RecoveryReport, so a fleet of
/// containers can be audited with obs_to_table.py --check.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "trace/diagnostics.hpp"
#include "trace/storage/block_store.hpp"
#include "trace/storage/blocked_trace.hpp"
#include "util/flags.hpp"
#include "util/obs_flags.hpp"

namespace {

using logstruct::trace::RecoveryReport;
using logstruct::trace::storage::BlockStatus;
using logstruct::trace::storage::BlockStore;
using logstruct::trace::storage::ColumnId;
using logstruct::trace::storage::kFormatVersion;
using logstruct::trace::storage::kNumColumns;
using logstruct::trace::storage::OpenOptions;

struct ColumnCensus {
  std::int64_t blocks = 0;
  std::int64_t ok = 0;
  std::int64_t checksum_mismatch = 0;
  std::int64_t unreadable = 0;
};

struct FsckResult {
  bool opened = false;
  std::uint32_t version = 0;
  bool footer_valid = false;
  std::int64_t blocks_total = 0;
  std::int64_t blocks_bad = 0;
  ColumnCensus columns[kNumColumns];
  std::string verdict = "unusable";
};

FsckResult scan(BlockStore& store, const RecoveryReport& report) {
  FsckResult r;
  r.opened = true;
  r.version = kFormatVersion;
  r.footer_valid = store.footer_valid();
  for (std::uint32_t c = 0; c < kNumColumns; ++c) {
    const auto col = static_cast<ColumnId>(c);
    ColumnCensus& census = r.columns[c];
    census.blocks = store.num_blocks(col);
    for (std::uint32_t b = 0; b < store.num_blocks(col); ++b) {
      switch (store.verify_block(col, b)) {
        case BlockStatus::Ok: ++census.ok; break;
        case BlockStatus::ChecksumMismatch:
          ++census.checksum_mismatch;
          break;
        case BlockStatus::Unreadable: ++census.unreadable; break;
      }
    }
    r.blocks_total += census.blocks;
    r.blocks_bad += census.checksum_mismatch + census.unreadable;
  }
  if (r.blocks_bad == 0 && r.footer_valid && report.empty())
    r.verdict = "clean";
  else
    r.verdict = "degraded";
  return r;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
      continue;
    }
    out += c;
  }
  return out;
}

/// `checksums` and the per-column `checksum_absent` stay in the schema:
/// every container that opens carries block checksums, so they read
/// true (false when the open failed) and 0.
std::string to_json(const std::string& path, const FsckResult& r,
                    const RecoveryReport& report) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"logstruct-fsck-report/v1\",\n"
     << "  \"path\": \"" << json_escape(path) << "\",\n"
     << "  \"verdict\": \"" << r.verdict << "\",\n"
     << "  \"version\": " << r.version << ",\n"
     << "  \"checksums\": " << (r.opened ? "true" : "false") << ",\n"
     << "  \"footer_valid\": " << (r.footer_valid ? "true" : "false")
     << ",\n"
     << "  \"blocks_total\": " << r.blocks_total << ",\n"
     << "  \"blocks_bad\": " << r.blocks_bad << ",\n"
     << "  \"columns\": [";
  for (std::uint32_t c = 0; c < kNumColumns; ++c) {
    const ColumnCensus& census = r.columns[c];
    if (c) os << ",";
    os << "\n    {\"id\": " << c << ", \"blocks\": " << census.blocks
       << ", \"ok\": " << census.ok
       << ", \"checksum_absent\": 0"
       << ", \"checksum_mismatch\": " << census.checksum_mismatch
       << ", \"unreadable\": " << census.unreadable << "}";
  }
  os << "\n  ],\n  \"recovery\": " << report.to_json() << "\n}\n";
  return os.str();
}

bool write_report(const std::string& out, const std::string& json) {
  if (out.empty()) return true;
  std::ofstream f(out, std::ios::trunc);
  if (f) f << json;
  if (!f) {
    std::fprintf(stderr, "trace_fsck: failed to write %s\n", out.c_str());
    return false;
  }
  std::printf("trace_fsck: wrote %s\n", out.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace logstruct;

  util::Flags flags;
  flags.define_string("in", "", ".lsblk container to check (required)");
  flags.define_string("mode", "verify", "verify | report | repair");
  flags.define_string("out", "",
                      "repair mode: path for the salvaged container");
  flags.define_string("out-report", "",
                      "write the logstruct-fsck-report/v1 JSON here");
  flags.define_int("block-kb", 256,
                   "repair mode: block size in KiB for the output");
  util::define_obs_flags(flags);
  if (!flags.parse(argc, argv)) return 1;
  util::apply_obs_flags(flags);

  const std::string& in = flags.get_string("in");
  const std::string& mode = flags.get_string("mode");
  if (in.empty()) {
    std::fprintf(stderr, "trace_fsck: --in is required\n%s",
                 flags.usage(argv[0]).c_str());
    return 1;
  }
  if (mode != "verify" && mode != "report" && mode != "repair") {
    std::fprintf(stderr, "trace_fsck: unknown --mode '%s'\n", mode.c_str());
    return 1;
  }

  // The scan itself: recovering open + per-block verification. The open
  // never throws in recover mode; an unusable container shows up as
  // salvageable() == false with a Fatal diagnostic in the report.
  RecoveryReport report;
  BlockStore store(in, OpenOptions::recovering(&report));
  FsckResult result;
  if (store.salvageable()) result = scan(store, report);

  const std::string json = to_json(in, result, report);
  if (!write_report(flags.get_string("out-report"), json)) return 1;

  std::printf(
      "trace_fsck: %s v%u: %lld blocks, %lld bad, footer %s -> %s\n",
      in.c_str(), result.version,
      static_cast<long long>(result.blocks_total),
      static_cast<long long>(result.blocks_bad),
      result.footer_valid ? "valid" : "absent/invalid",
      result.verdict.c_str());
  if (report.total() > 0) std::printf("%s", report.to_string().c_str());

  if (mode == "repair") {
    const std::string& out = flags.get_string("out");
    if (out.empty()) {
      std::fprintf(stderr, "trace_fsck: --mode=repair needs --out\n");
      return 1;
    }
    RecoveryReport salvage_report;
    trace::Trace salvaged = trace::storage::open_blocked_trace(
        in, trace::storage::StorageOptions::recovering(), salvage_report);
    if (salvage_report.fatal()) {
      std::fprintf(stderr,
                   "trace_fsck: %s is beyond salvage; refusing cleanly\n%s",
                   in.c_str(), salvage_report.to_string().c_str());
      return 2;
    }
    const std::int64_t block_kb = flags.get_int("block-kb");
    trace::storage::write_blocked_file(
        salvaged, out,
        static_cast<std::uint32_t>(block_kb > 0 ? block_kb : 256) * 1024u);
    std::printf(
        "trace_fsck: salvaged %d events, %d blocks (%d degraded chares) "
        "-> %s (hash %016llx)\n",
        salvaged.num_events(), salvaged.num_blocks(),
        salvaged.num_degraded_chares(), out.c_str(),
        static_cast<unsigned long long>(
            trace::storage::trace_structure_hash(salvaged)));
    util::finish_obs(flags, argv[0]);
    return 0;
  }

  util::finish_obs(flags, argv[0]);
  if (mode == "report") return 0;
  if (!result.opened) return 2;
  return result.verdict == "clean" ? 0 : 1;
}
