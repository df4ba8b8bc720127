#include "trace/io.hpp"

#include <fstream>

#include "obs/obs.hpp"
#include "trace/text_reader.hpp"

namespace logstruct::trace {

namespace {

constexpr const char* kMagic = "lstrace";
constexpr int kVersion = 1;

}  // namespace

void write_trace(const Trace& trace, std::ostream& out) {
  OBS_SPAN(span, "trace/write");
  span.attr("events", trace.num_events());
  out << kMagic << ' ' << kVersion << '\n';
  out << "procs " << trace.num_procs() << '\n';

  for (std::size_t i = 0; i < trace.arrays().size(); ++i) {
    const ArrayInfo& a = trace.arrays()[i];
    out << "array " << i << ' ' << (a.runtime ? 1 : 0) << " | " << a.name
        << '\n';
  }
  for (std::size_t i = 0; i < trace.chares().size(); ++i) {
    const ChareInfo& c = trace.chares()[i];
    out << "chare " << i << ' ' << c.array << ' ' << c.index << ' ' << c.home
        << ' ' << (c.runtime ? 1 : 0) << " | " << c.name << '\n';
  }
  for (std::size_t i = 0; i < trace.entries().size(); ++i) {
    const EntryInfo& e = trace.entries()[i];
    out << "entry " << i << ' ' << (e.runtime ? 1 : 0) << ' ' << e.sdag_serial
        << ' ' << e.when_entries.size();
    for (EntryId w : e.when_entries) out << ' ' << w;
    out << " | " << e.name << '\n';
  }
  for (BlockId b = 0; b < trace.num_blocks(); ++b) {
    const SerialBlock& blk = trace.block(b);
    out << "block " << b << ' ' << blk.chare << ' ' << blk.proc << ' '
        << blk.entry << ' ' << blk.begin << ' ' << blk.end << '\n';
  }
  for (EventId e = 0; e < trace.num_events(); ++e) {
    const Event& ev = trace.event(e);
    out << "event " << e << ' ' << (ev.kind == EventKind::Send ? 'S' : 'R')
        << ' ' << ev.time << ' ' << ev.block << ' ' << ev.partner << '\n';
  }
  for (const IdleSpan& s : trace.idles()) {
    out << "idle " << s.proc << ' ' << s.begin << ' ' << s.end << '\n';
  }
  for (const Collective& coll : trace.collectives()) {
    out << "coll " << coll.sends.size();
    for (EventId s : coll.sends) out << ' ' << s;
    out << ' ' << coll.recvs.size();
    for (EventId r : coll.recvs) out << ' ' << r;
    out << '\n';
  }
  // Recovery provenance survives a save/load round trip. Written only for
  // repaired traces, so clean traces serialize byte-identically to every
  // earlier version of the format.
  if (trace.num_degraded_chares() > 0) {
    out << "degraded " << trace.num_degraded_chares();
    for (ChareId c = 0; c < trace.num_chares(); ++c)
      if (trace.is_degraded_chare(c)) out << ' ' << c;
    out << '\n';
  }
  out << "end\n";
}

namespace {

/// The one .lstrace parser: every line that parses becomes a RawTrace
/// record under the id the file claimed; garbled lines, unknown tags and
/// a missing end marker become diagnostics. Returns the bytes consumed.
std::size_t parse_lstrace(std::string_view text, RawTrace& raw,
                          RecoveryReport& report) {
  detail::LineCursor cur(text);
  if (!cur.next_line()) {
    report.add(DiagCode::BadHeader, Severity::Fatal, "empty stream");
    return text.size();
  }
  const std::string_view magic = cur.word();
  int version = 0;
  cur >> version;
  if (magic != kMagic || cur.fail() || version != kVersion) {
    report.add(DiagCode::BadHeader, Severity::Fatal,
               "not an lstrace stream (or unsupported version)", -1, 1);
    return text.size();
  }

  bool saw_end = false;
  while (!saw_end && cur.next_line()) {
    if (cur.blank_line()) continue;
    const std::string_view tag = cur.word();
    bool garbled = false;
    if (tag == "event") {
      RawEvent e;
      char kind = 0;
      cur >> e.id >> kind >> e.time >> e.block >> e.partner;
      e.kind = kind == 'S' ? EventKind::Send : EventKind::Recv;
      garbled = cur.fail() || (kind != 'S' && kind != 'R');
      if (!garbled) raw.events.push_back(e);
    } else if (tag == "block") {
      RawBlock b;
      garbled =
          (cur >> b.id >> b.chare >> b.proc >> b.entry >> b.begin >> b.end)
              .fail();
      if (!garbled) raw.blocks.push_back(b);
    } else if (tag == "idle") {
      IdleSpan s;
      garbled = (cur >> s.proc >> s.begin >> s.end).fail();
      if (!garbled) raw.idles.push_back(s);
    } else if (tag == "procs") {
      std::int32_t n = 0;
      garbled = (cur >> n).fail() || n < 0;
      if (!garbled) raw.num_procs = n;
    } else if (tag == "array") {
      garbled = !detail::read_array(cur, raw);
    } else if (tag == "chare") {
      garbled = !detail::read_chare(cur, raw);
    } else if (tag == "entry") {
      garbled = !detail::read_entry(cur, raw);
    } else if (tag == "coll") {
      RawCollective coll;
      garbled = cur.list(coll.sends).list(coll.recvs).fail();
      if (!garbled) raw.collectives.push_back(std::move(coll));
    } else if (tag == "degraded") {
      std::vector<std::int64_t> ids;
      garbled = cur.list(ids).fail();
      if (!garbled)
        raw.degraded_chares.insert(raw.degraded_chares.end(), ids.begin(),
                                   ids.end());
    } else if (tag == "end") {
      saw_end = true;
    } else {
      report.add(DiagCode::UnknownRecord, Severity::Warning,
                 "unknown record '" + std::string(tag) + "' skipped", -1,
                 cur.lineno());
    }
    if (garbled)
      report.add(DiagCode::ParseError, Severity::Warning,
                 "garbled " + std::string(tag) + " record skipped", -1,
                 cur.lineno());
  }
  if (!saw_end)
    report.add(DiagCode::TruncatedFile, Severity::Warning,
               "stream ended before the end marker", -1, cur.lineno());
  return text.size();
}

Trace read_lstrace(std::istream& in, const ReadOptions& options,
                   RecoveryReport& report) {
  return detail::read_text(options, report,
                           [&](RawTrace& raw, RecoveryReport& r) {
                             return parse_lstrace(detail::read_all(in), raw,
                                                  r);
                           });
}

}  // namespace

Trace read_trace(std::istream& in) {
  RecoveryReport report;
  Trace trace = read_lstrace(in, ReadOptions::strict(), report);
  detail::throw_if_rejected(report);
  return trace;
}

Trace read_trace(std::istream& in, const ReadOptions& options,
                 RecoveryReport& report) {
  return read_lstrace(in, options, report);
}

bool save_trace(const Trace& trace, const std::string& path,
                RecoveryReport& report) {
  std::ofstream f(path);
  if (!f) {
    report.add(DiagCode::IoError, Severity::Fatal,
               "cannot open for writing: " + path);
    return false;
  }
  write_trace(trace, f);
  f.flush();
  if (!f) {
    report.add(DiagCode::IoError, Severity::Fatal,
               "write failed: " + path);
    return false;
  }
  return true;
}

Trace load_trace(const std::string& path, const ReadOptions& options,
                 RecoveryReport& report) {
  return detail::read_text(
      options, report, [&](RawTrace& raw, RecoveryReport& r) {
        std::string text;
        if (!detail::read_file(path, &text)) {
          r.add(DiagCode::IoError, Severity::Fatal,
                "cannot open trace file: " + path);
          return std::size_t{0};
        }
        return parse_lstrace(text, raw, r);
      });
}

bool save_trace(const Trace& trace, const std::string& path) {
  RecoveryReport report;
  return save_trace(trace, path, report);
}

Trace load_trace(const std::string& path) {
  RecoveryReport report;
  Trace trace = load_trace(path, ReadOptions::strict(), report);
  detail::throw_if_rejected(report);
  return trace;
}

}  // namespace logstruct::trace
