#include "trace/io.hpp"

#include <charconv>
#include <concepts>
#include <cstring>
#include <fstream>
#include <string_view>

#include "obs/obs.hpp"
#include "trace/text_reader.hpp"

namespace logstruct::trace {

namespace {

constexpr const char* kMagic = "lstrace";
constexpr int kVersion = 1;

/// The writer's output: fields formatted with std::to_chars into a flat
/// buffer that goes to the stream by ostream::write a chunk at a time.
/// Writes the same bytes `std::ostream <<` would for these field types.
class TextOut {
 public:
  explicit TextOut(std::ostream& out) : out_(out) {}
  TextOut(const TextOut&) = delete;
  TextOut& operator=(const TextOut&) = delete;
  ~TextOut() { flush(); }

  template <std::integral T>
    requires(!std::same_as<T, char> && !std::same_as<T, bool>)
  TextOut& operator<<(T v) {
    if (len_ + 24 > sizeof buf_) flush();  // 24: any 64-bit integer
    len_ = static_cast<std::size_t>(
        std::to_chars(buf_ + len_, buf_ + sizeof buf_, v).ptr - buf_);
    return *this;
  }
  TextOut& operator<<(char c) { return *this << std::string_view(&c, 1); }
  TextOut& operator<<(std::string_view s) {
    if (len_ + s.size() > sizeof buf_) flush();
    if (s.size() > sizeof buf_) {
      out_.write(s.data(), static_cast<std::streamsize>(s.size()));
    } else {
      std::memcpy(buf_ + len_, s.data(), s.size());
      len_ += s.size();
    }
    return *this;
  }

  void flush() {
    out_.write(buf_, static_cast<std::streamsize>(len_));
    len_ = 0;
  }

 private:
  std::ostream& out_;
  std::size_t len_ = 0;
  char buf_[1 << 16];
};

}  // namespace

void write_trace(const Trace& trace, std::ostream& stream) {
  OBS_SPAN(span, "trace/write");
  TextOut out(stream);
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

/// Block and event lines in `lines`, added to `blocks` / `events`: the
/// parser sizes its column form from them.
void count_rows(std::string_view lines, std::size_t& blocks,
                std::size_t& events) {
  for (std::size_t at = 0; at < lines.size();) {
    blocks += lines.compare(at, 6, "block ") == 0;
    events += lines.compare(at, 6, "event ") == 0;
    const auto* nl = static_cast<const char*>(
        std::memchr(lines.data() + at, '\n', lines.size() - at));
    at = nl ? static_cast<std::size_t>(nl - lines.data()) + 1 : lines.size();
  }
}

/// The one .lstrace parser, fed whole lines a chunk at a time: every line
/// that parses becomes a RawTrace record under the id the file claimed,
/// blocks and events in the column form (RawTrace::add_block /
/// add_event); garbled lines, unknown tags and a missing end marker
/// become diagnostics.
class LstraceParser {
 public:
  LstraceParser(RawTrace& raw, RecoveryReport& report, std::size_t blocks,
                std::size_t events)
      : raw_(raw), report_(report) {
    raw_.columnar = true;
    raw_.block_rows.reserve(blocks);
    raw_.event_rows.reserve(events);
  }

  void feed(std::string_view lines) {
    bytes_ += lines.size();
    cur_.reset(lines);
    while (!done_ && cur_.next_line()) {
      if (!header_) {
        header_ = true;
        const std::string_view magic = cur_.word();
        int version = 0;
        cur_ >> version;
        if (magic != kMagic || cur_.fail() || version != kVersion) {
          report_.add(DiagCode::BadHeader, Severity::Fatal,
                      "not an lstrace stream (or unsupported version)", -1,
                      1);
          done_ = true;
        }
        continue;
      }
      if (cur_.blank_line()) continue;
      line();
    }
  }

  /// Ends the stream; returns the bytes fed.
  std::size_t finish() {
    if (!header_)
      report_.add(DiagCode::BadHeader, Severity::Fatal, "empty stream");
    else if (!done_)
      report_.add(DiagCode::TruncatedFile, Severity::Warning,
                  "stream ended before the end marker", -1, cur_.lineno());
    return bytes_;
  }

 private:
  void line() {
    const std::string_view tag = cur_.word();
    bool garbled = false;
    if (tag == "event") {
      RawEvent e;
      char kind = 0;
      cur_ >> e.id >> kind >> e.time >> e.block >> e.partner;
      e.kind = kind == 'S' ? EventKind::Send : EventKind::Recv;
      garbled = cur_.fail() || (kind != 'S' && kind != 'R');
      if (!garbled) raw_.add_event(e);
    } else if (tag == "block") {
      RawBlock b;
      garbled =
          (cur_ >> b.id >> b.chare >> b.proc >> b.entry >> b.begin >> b.end)
              .fail();
      if (!garbled) raw_.add_block(b);
    } else if (tag == "idle") {
      IdleSpan s;
      garbled = (cur_ >> s.proc >> s.begin >> s.end).fail();
      if (!garbled) raw_.idles.push_back(s);
    } else if (tag == "procs") {
      std::int32_t n = 0;
      garbled = (cur_ >> n).fail() || n < 0;
      if (!garbled) raw_.num_procs = n;
    } else if (tag == "array") {
      garbled = !detail::read_array(cur_, raw_);
    } else if (tag == "chare") {
      garbled = !detail::read_chare(cur_, raw_);
    } else if (tag == "entry") {
      garbled = !detail::read_entry(cur_, raw_);
    } else if (tag == "coll") {
      RawCollective coll;
      garbled = cur_.list(coll.sends).list(coll.recvs).fail();
      if (!garbled) raw_.collectives.push_back(std::move(coll));
    } else if (tag == "degraded") {
      std::vector<std::int64_t> ids;
      garbled = cur_.list(ids).fail();
      if (!garbled)
        raw_.degraded_chares.insert(raw_.degraded_chares.end(),
                                    ids.begin(), ids.end());
    } else if (tag == "end") {
      done_ = true;
    } else {
      report_.add(DiagCode::UnknownRecord, Severity::Warning,
                  "unknown record '" + std::string(tag) + "' skipped", -1,
                  cur_.lineno());
    }
    if (garbled)
      report_.add(DiagCode::ParseError, Severity::Warning,
                  "garbled " + std::string(tag) + " record skipped", -1,
                  cur_.lineno());
  }

  RawTrace& raw_;
  RecoveryReport& report_;
  detail::LineCursor cur_{{}};
  bool header_ = false;
  bool done_ = false;  ///< end marker seen, or the header was bad
  std::size_t bytes_ = 0;
};

Trace read_lstrace(std::istream& in, const ReadOptions& options,
                   RecoveryReport& report) {
  return detail::read_text(
      options, report, [&](RawTrace& raw, RecoveryReport& r) {
        const std::string text = detail::read_all(in);
        std::size_t blocks = 0, events = 0;
        count_rows(text, blocks, events);
        LstraceParser parser(raw, r, blocks, events);
        parser.feed(text);
        return parser.finish();
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
        // Two streamed passes instead of one whole-file buffer: the first
        // counts the rows to size the column form, the second parses.
        std::size_t blocks = 0, events = 0;
        if (!detail::read_lines(path, [&](std::string_view lines) {
              count_rows(lines, blocks, events);
            })) {
          r.add(DiagCode::IoError, Severity::Fatal,
                "cannot open trace file: " + path);
          return std::size_t{0};
        }
        LstraceParser parser(raw, r, blocks, events);
        detail::read_lines(path,
                           [&](std::string_view lines) { parser.feed(lines); });
        return parser.finish();
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
