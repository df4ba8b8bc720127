/// \file trace_convert.cpp
/// Convert traces into the out-of-core .lsblk blocked container (see
/// docs/FORMATS.md and docs/STORAGE.md) and verify the round trip: the
/// converted file is reopened through the blocked backend and its
/// structure hash compared against the source trace. A hash mismatch is
/// a hard failure — the converted file would not reproduce the same
/// logical structure.
///
///   ./trace_convert --in=run.lstrace --out=run.lsblk
///   ./trace_convert --projections=sim/jacobi --out=jacobi.lsblk
///   ./trace_convert --app=lulesh --out=lulesh.lsblk --block-kb=64
///
/// Exit status: 0 when the conversion round-trips bit-identically
/// (equal structure hashes), 1 on any I/O or verification failure or on
/// a malformed input (its first reader diagnostic goes to stderr).

#include <cstdio>
#include <string>

#include "apps/jacobi2d.hpp"
#include "apps/lassen.hpp"
#include "apps/lulesh.hpp"
#include "apps/pdes.hpp"
#include "trace/diagnostics.hpp"
#include "trace/io.hpp"
#include "trace/projections.hpp"
#include "trace/storage/blocked_trace.hpp"
#include "trace/validate.hpp"
#include "util/flags.hpp"
#include "util/obs_flags.hpp"

namespace {

logstruct::trace::Trace generate(const std::string& app,
                                 std::uint64_t seed) {
  using namespace logstruct::apps;
  if (app == "jacobi") {
    Jacobi2DConfig cfg;
    cfg.seed = seed;
    return run_jacobi2d(cfg);
  }
  if (app == "lulesh") {
    LuleshConfig cfg;
    cfg.seed = seed;
    return run_lulesh_charm(cfg);
  }
  if (app == "lassen") {
    LassenConfig cfg;
    cfg.seed = seed;
    return run_lassen_charm(cfg);
  }
  if (app == "pdes") {
    PdesConfig cfg;
    cfg.seed = seed;
    return run_pdes(cfg);
  }
  std::fprintf(stderr,
               "trace_convert: unknown --app '%s' "
               "(jacobi|lulesh|lassen|pdes)\n",
               app.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace logstruct;
  util::Flags flags;
  flags.define_string("in", "", ".lstrace input file to convert");
  flags.define_string("projections", "",
                      "Projections log-set prefix to convert "
                      "(reads <prefix>.sts and <prefix>.*.log)");
  flags.define_string("app", "",
                      "generate the input from a built-in proxy app "
                      "instead of a file: jacobi|lulesh|lassen|pdes");
  flags.define_int("seed", 1, "rng seed for --app generation");
  flags.define_string("out", "", ".lsblk output path (required)");
  flags.define_int("block-kb", 256, "block size in KiB for the output");
  util::define_obs_flags(flags);
  if (!flags.parse(argc, argv)) return 1;
  util::apply_obs_flags(flags);

  const std::string& out = flags.get_string("out");
  if (out.empty()) {
    std::fprintf(stderr, "trace_convert: --out is required\n%s",
                 flags.usage(argv[0]).c_str());
    return 1;
  }
  const int sources = (!flags.get_string("in").empty() ? 1 : 0) +
                      (!flags.get_string("projections").empty() ? 1 : 0) +
                      (!flags.get_string("app").empty() ? 1 : 0);
  if (sources != 1) {
    std::fprintf(stderr,
                 "trace_convert: exactly one of --in, --projections, "
                 "--app must be given\n");
    return 1;
  }

  trace::Trace input;
  if (flags.get_string("app").empty()) {
    // Strict reads: the first diagnostic rejects a malformed input.
    trace::RecoveryReport report;
    input = !flags.get_string("in").empty()
                ? trace::load_trace(flags.get_string("in"),
                                    trace::ReadOptions::strict(), report)
                : trace::read_projections(flags.get_string("projections"),
                                          trace::ReadOptions::strict(),
                                          report);
    if (!report.empty()) {
      std::fprintf(stderr, "trace_convert: %s\n",
                   report.diagnostics().front().to_string().c_str());
      return 1;
    }
  } else {
    input = generate(flags.get_string("app"),
                     static_cast<std::uint64_t>(flags.get_int("seed")));
  }
  if (!trace::validate_cli(flags, input, "input")) return 1;

  const std::int64_t block_kb = flags.get_int("block-kb");
  if (block_kb <= 0) {
    std::fprintf(stderr, "trace_convert: --block-kb must be positive\n");
    return 1;
  }
  const std::uint64_t src_hash = trace::storage::trace_structure_hash(input);
  trace::storage::write_blocked_file(
      input, out, static_cast<std::uint32_t>(block_kb) * 1024u);

  // Round-trip verification: reopen through the blocked backend and
  // compare structure hashes. The hash walks every column, grouping, and
  // metadata table, so equality means the file reproduces the trace.
  const trace::Trace back = trace::storage::open_blocked_trace(out);
  const std::uint64_t dst_hash = trace::storage::trace_structure_hash(back);
  if (dst_hash != src_hash) {
    std::fprintf(stderr,
                 "trace_convert: round-trip hash mismatch "
                 "(%016llx -> %016llx); %s is not a faithful copy\n",
                 static_cast<unsigned long long>(src_hash),
                 static_cast<unsigned long long>(dst_hash), out.c_str());
    return 1;
  }
  std::printf(
      "trace_convert: wrote %s (%d events, %d blocks, hash %016llx, "
      "round-trip ok)\n",
      out.c_str(), input.num_events(), input.num_blocks(),
      static_cast<unsigned long long>(src_hash));
  util::finish_obs(flags, argv[0]);
  return 0;
}
