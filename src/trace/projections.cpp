#include "trace/projections.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "trace/text_reader.hpp"

namespace logstruct::trace {

namespace {

/// A garbled PES count must not make the reader probe millions of
/// nonexistent log files.
constexpr std::int64_t kMaxPes = 1 << 16;

std::string log_path(const std::string& prefix, ProcId pe) {
  return prefix + "." + std::to_string(pe) + ".log";
}

}  // namespace

bool write_projections(const Trace& trace, const std::string& prefix) {
  if (!trace.collectives().empty()) return false;  // not representable

  {
    std::ofstream sts(prefix + ".sts");
    if (!sts) return false;
    sts << "PROJECTIONS-STS 1\n";
    sts << "PES " << trace.num_procs() << '\n';
    for (std::size_t i = 0; i < trace.arrays().size(); ++i) {
      const ArrayInfo& a = trace.arrays()[i];
      sts << "ARRAY " << i << ' ' << (a.runtime ? 1 : 0) << " | " << a.name
          << '\n';
    }
    for (std::size_t i = 0; i < trace.chares().size(); ++i) {
      const ChareInfo& c = trace.chares()[i];
      sts << "CHARE " << i << ' ' << c.array << ' ' << c.index << ' '
          << c.home << ' ' << (c.runtime ? 1 : 0) << " | " << c.name << '\n';
    }
    for (std::size_t i = 0; i < trace.entries().size(); ++i) {
      const EntryInfo& e = trace.entries()[i];
      sts << "ENTRY " << i << ' ' << (e.runtime ? 1 : 0) << ' '
          << e.sdag_serial << ' ' << e.when_entries.size();
      for (EntryId w : e.when_entries) sts << ' ' << w;
      sts << " | " << e.name << '\n';
    }
    sts << "END\n";
    if (!sts) return false;
  }

  for (ProcId pe = 0; pe < trace.num_procs(); ++pe) {
    std::ofstream log(log_path(prefix, pe));
    if (!log) return false;
    log << "PROJECTIONS " << pe << '\n';

    // Whole processing groups (BEGIN/CREATIONs/END) are emitted
    // atomically in block-begin order — blocks never overlap on a PE —
    // with idle spans (which live in the scheduler gaps) merged in by
    // begin time, idle first on ties (an idle ends exactly where the
    // next block begins).
    struct Record {
      TimeNs time;
      int order;  // 0 = idle, 1 = processing group
      std::string text;
    };
    std::vector<Record> records;
    for (BlockId b : trace.blocks_of_proc(pe)) {
      const SerialBlock& blk = trace.block(b);
      std::ostringstream group;
      group << "BEGIN_PROCESSING " << blk.entry << ' ' << blk.begin << ' '
            << blk.chare << ' ';
      if (blk.trigger == kNone) {
        group << "0 -1";
      } else {
        group << "1 " << trace.event(blk.trigger).partner;
      }
      group << '\n';
      for (EventId e : trace.events_of_block(b)) {
        const Event& ev = trace.event(e);
        if (ev.kind != EventKind::Send) continue;
        group << "CREATION " << e << ' ' << blk.entry << ' ' << ev.time
              << '\n';
      }
      group << "END_PROCESSING " << blk.end;
      records.push_back({blk.begin, 1, group.str()});
    }
    for (const IdleSpan& idle : trace.idles()) {
      if (idle.proc != pe) continue;
      records.push_back({idle.begin, 0,
                         "BEGIN_IDLE " + std::to_string(idle.begin) +
                             "\nEND_IDLE " + std::to_string(idle.end)});
    }
    std::stable_sort(records.begin(), records.end(),
                     [](const Record& a, const Record& b) {
                       if (a.time != b.time) return a.time < b.time;
                       return a.order < b.order;
                     });
    for (const Record& r : records) log << r.text << '\n';
    log << "END\n";
    if (!log) return false;
  }
  return true;
}

namespace {

/// The one Projections parser: the .sts tables and every per-PE log go
/// into a RawTrace with synthetic, gap-free block and event ids (sends in
/// log order, then receives in block order). Missing logs, truncated
/// tails, garbled lines and dangling creation references become
/// diagnostics. Returns the bytes consumed.
std::size_t parse_projections(const std::string& prefix, RawTrace& raw,
                              RecoveryReport& report) {
  std::size_t bytes = 0;
  std::string text;
  if (!detail::read_file(prefix + ".sts", &text)) {
    report.add(DiagCode::IoError, Severity::Fatal,
               "cannot open " + prefix + ".sts");
    return bytes;
  }
  bytes += text.size();
  std::int64_t num_pes = 0;
  {
    detail::LineCursor cur(text);
    if (!cur.next_line() || !cur.line().starts_with("PROJECTIONS-STS")) {
      report.add(DiagCode::BadHeader, Severity::Fatal,
                 "not a Projections sts file", -1, 1);
      return bytes;
    }
    bool saw_end = false;
    while (!saw_end && cur.next_line()) {
      if (cur.blank_line()) continue;
      const std::string_view tag = cur.word();
      bool garbled = false;
      if (tag == "PES") {
        std::int64_t n = 0;
        garbled = (cur >> n).fail() || n < 0;
        if (!garbled && n > kMaxPes)
          report.add(DiagCode::ParseError, Severity::Warning,
                     "implausible PE count clamped", -1, cur.lineno());
        if (!garbled) num_pes = std::min(n, kMaxPes);
      } else if (tag == "ARRAY") {
        garbled = !detail::read_array(cur, raw);
      } else if (tag == "CHARE") {
        garbled = !detail::read_chare(cur, raw);
      } else if (tag == "ENTRY") {
        garbled = !detail::read_entry(cur, raw);
      } else if (tag == "END") {
        saw_end = true;
      } else {
        report.add(DiagCode::UnknownRecord, Severity::Warning,
                   "unknown sts record '" + std::string(tag) + "' skipped",
                   -1, cur.lineno());
      }
      if (garbled)
        report.add(DiagCode::ParseError, Severity::Warning,
                   "garbled sts " + std::string(tag) + " record skipped", -1,
                   cur.lineno());
    }
    if (!saw_end)
      report.add(DiagCode::TruncatedFile, Severity::Warning,
                 "sts ended before END", -1, cur.lineno());
  }
  raw.num_procs = static_cast<std::int32_t>(num_pes);

  // Pass A: blocks and their CREATIONs. File creation ids resolve through
  // a map in pass B, once every log has been read.
  struct PendingRecv {
    std::size_t block;       // index into raw.blocks
    TimeNs begin;
    std::int64_t src_event;  // file id of the matching creation, or -1
  };
  std::vector<PendingRecv> pending;
  std::map<std::int64_t, std::int64_t> send_of_file_id;

  for (ProcId pe = 0; pe < static_cast<ProcId>(num_pes); ++pe) {
    if (!detail::read_file(log_path(prefix, pe), &text)) {
      report.add(DiagCode::MissingLog, Severity::Error,
                 "missing log for PE " + std::to_string(pe), pe);
      continue;
    }
    bytes += text.size();
    detail::LineCursor cur(text);
    if (!cur.next_line() || !cur.line().starts_with("PROJECTIONS")) {
      report.add(DiagCode::BadHeader, Severity::Error,
                 "log for PE " + std::to_string(pe) +
                     " has no PROJECTIONS header; file skipped",
                 pe, 1);
      continue;
    }

    std::ptrdiff_t open = -1;  // index into raw.blocks, -1 when closed
    TimeNs idle_begin = -1;
    bool saw_end = false;
    while (!saw_end && cur.next_line()) {
      if (cur.blank_line()) continue;
      const std::string_view tag = cur.word();
      auto garbled = [&] {
        report.add(DiagCode::ParseError, Severity::Warning,
                   "garbled " + std::string(tag) + " record skipped", pe,
                   cur.lineno());
      };
      if (tag == "BEGIN_PROCESSING") {
        std::int64_t entry = 0, chare = 0, src = 0;
        TimeNs time = 0;
        int has_recv = 0;
        if ((cur >> entry >> time >> chare >> has_recv >> src).fail()) {
          garbled();
          continue;
        }
        if (open >= 0) {
          // The previous block never saw its END_PROCESSING; leave it
          // end-less for repair() to close.
          report.add(DiagCode::UnmatchedScope, Severity::Warning,
                     "BEGIN_PROCESSING while a block is open", pe,
                     cur.lineno());
        }
        open = static_cast<std::ptrdiff_t>(raw.blocks.size());
        raw.blocks.push_back({open, chare, pe, entry, time, time,
                              /*has_end=*/false});
        if (has_recv != 0)
          pending.push_back({static_cast<std::size_t>(open), time, src});
      } else if (tag == "CREATION") {
        std::int64_t file_id = 0, entry = 0;
        TimeNs time = 0;
        // The destination entry is re-derived on the receive side.
        if ((cur >> file_id >> entry >> time).fail()) {
          garbled();
          continue;
        }
        if (open < 0) {
          report.add(DiagCode::UnmatchedScope, Severity::Warning,
                     "CREATION outside any block; dropped", pe,
                     cur.lineno());
          continue;
        }
        const auto ev = static_cast<std::int64_t>(raw.events.size());
        if (!send_of_file_id.emplace(file_id, ev).second) {
          report.add(DiagCode::DuplicateRecord, Severity::Warning,
                     "duplicate creation id " + std::to_string(file_id) +
                         "; later copy dropped",
                     pe, cur.lineno());
          continue;
        }
        raw.events.push_back({ev, EventKind::Send, time, open, kNone});
      } else if (tag == "END_PROCESSING") {
        if (open < 0) {
          report.add(DiagCode::UnmatchedScope, Severity::Warning,
                     "END_PROCESSING with no open block", pe, cur.lineno());
          continue;
        }
        TimeNs end = 0;
        if ((cur >> end).fail()) {
          garbled();
        } else {
          raw.blocks[static_cast<std::size_t>(open)].end = end;
          raw.blocks[static_cast<std::size_t>(open)].has_end = true;
        }
        open = -1;
      } else if (tag == "BEGIN_IDLE") {
        TimeNs t = 0;
        if ((cur >> t).fail()) {
          garbled();
          continue;
        }
        if (idle_begin >= 0)
          report.add(DiagCode::UnmatchedScope, Severity::Warning,
                     "BEGIN_IDLE while idle; earlier span dropped", pe,
                     cur.lineno());
        idle_begin = t;
      } else if (tag == "END_IDLE") {
        TimeNs t = 0;
        if ((cur >> t).fail()) {
          garbled();
          continue;
        }
        if (idle_begin < 0) {
          report.add(DiagCode::UnmatchedScope, Severity::Warning,
                     "END_IDLE with no open idle span", pe, cur.lineno());
          continue;
        }
        raw.idles.push_back(IdleSpan{pe, idle_begin, t});
        idle_begin = -1;
      } else if (tag == "END") {
        saw_end = true;
      } else {
        report.add(DiagCode::UnknownRecord, Severity::Warning,
                   "unknown log record '" + std::string(tag) + "' skipped",
                   pe, cur.lineno());
      }
    }
    if (!saw_end)
      report.add(DiagCode::TruncatedFile, Severity::Warning,
                 "log for PE " + std::to_string(pe) +
                     " ended before END (crashed run?)",
                 pe, cur.lineno());
    if (idle_begin >= 0)
      report.add(DiagCode::UnmatchedScope, Severity::Warning,
                 "BEGIN_IDLE never closed; span dropped", pe, cur.lineno());
    // An end-less open block is expected after truncation; repair()
    // synthesizes its end from its events.
  }

  // Pass B: receives, one per receiving block, in block order.
  for (const PendingRecv& pr : pending) {
    std::int64_t send = kNone;
    if (pr.src_event >= 0) {
      auto it = send_of_file_id.find(pr.src_event);
      if (it == send_of_file_id.end()) {
        report.add(DiagCode::DanglingReference, Severity::Warning,
                   "recv references creation " +
                       std::to_string(pr.src_event) +
                       " that never materialized; dependency dropped");
        raw.degraded_chares.push_back(raw.blocks[pr.block].chare);
      } else {
        send = it->second;
      }
    }
    raw.events.push_back({static_cast<std::int64_t>(raw.events.size()),
                          EventKind::Recv, pr.begin,
                          static_cast<std::int64_t>(pr.block), send});
  }
  return bytes;
}

}  // namespace

Trace read_projections(const std::string& prefix) {
  RecoveryReport report;
  Trace trace = read_projections(prefix, ReadOptions::strict(), report);
  detail::throw_if_rejected(report);
  return trace;
}

Trace read_projections(const std::string& prefix,
                       const ReadOptions& options, RecoveryReport& report) {
  return detail::read_text(options, report,
                           [&](RawTrace& raw, RecoveryReport& r) {
                             return parse_projections(prefix, raw, r);
                           });
}

}  // namespace logstruct::trace
