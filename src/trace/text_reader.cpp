#include "trace/text_reader.hpp"

#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "obs/obs.hpp"

namespace logstruct::trace::detail {

namespace {

/// Narrow an int64 field into an int32 id slot; out-of-range values become
/// kNone so they surface as dangling references instead of wrapping into
/// accidentally-valid ids.
std::int32_t narrow_id(std::int64_t v) {
  if (v < INT32_MIN || v > INT32_MAX) return kNone;
  return static_cast<std::int32_t>(v);
}

}  // namespace

bool read_array(LineCursor& cur, RawTrace& raw) {
  RawRecord<ArrayInfo> r;
  int runtime = 0;
  cur >> r.id >> runtime;
  if (!cur.name(&r.info.name)) return false;
  r.info.runtime = runtime != 0;
  raw.arrays.push_back(std::move(r));
  return true;
}

bool read_chare(LineCursor& cur, RawTrace& raw) {
  RawRecord<ChareInfo> r;
  std::int64_t array = 0, index = 0, home = 0;
  int runtime = 0;
  cur >> r.id >> array >> index >> home >> runtime;
  if (!cur.name(&r.info.name)) return false;
  r.info.array = narrow_id(array);
  r.info.index = narrow_id(index);
  r.info.home = narrow_id(home);
  r.info.runtime = runtime != 0;
  raw.chares.push_back(std::move(r));
  return true;
}

bool read_entry(LineCursor& cur, RawTrace& raw) {
  RawRecord<EntryInfo> r;
  std::int64_t sdag = 0;
  std::vector<std::int64_t> when;
  int runtime = 0;
  cur >> r.id >> runtime >> sdag;
  if (!cur.list(when).name(&r.info.name)) return false;
  r.info.runtime = runtime != 0;
  r.info.sdag_serial = narrow_id(sdag);
  for (std::int64_t w : when) r.info.when_entries.push_back(narrow_id(w));
  raw.entries.push_back(std::move(r));
  return true;
}

std::string read_all(std::istream& in) {
  const std::streampos start = in.tellg();
  if (start == std::streampos(-1) || !in.seekg(0, std::ios::end)) {
    in.clear();  // not seekable: read it as it comes
    return {std::istreambuf_iterator<char>(in), {}};
  }
  std::string buf(static_cast<std::size_t>(in.tellg() - start), '\0');
  in.seekg(start);
  in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
  buf.resize(static_cast<std::size_t>(in.gcount()));
  return buf;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  *out = read_all(f);
  return true;
}

bool read_lines(const std::string& path,
                const std::function<void(std::string_view)>& visit) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::string buf(std::size_t{1} << 20, '\0');
  std::size_t have = 0;  // the carried-over start of a line
  while (f) {
    if (have == buf.size()) buf.resize(2 * buf.size());  // a long line
    f.read(buf.data() + have, static_cast<std::streamsize>(buf.size() - have));
    const std::size_t end = have + static_cast<std::size_t>(f.gcount());
    // Past the last '\n'; 0 (npos + 1) while no line has ended yet.
    const std::size_t cut = std::string_view(buf.data(), end).rfind('\n') + 1;
    if (cut > 0) {
      visit({buf.data(), cut});
      std::memmove(buf.data(), buf.data() + cut, end - cut);
    }
    have = end - cut;
  }
  if (have > 0) visit({buf.data(), have});
  return true;
}

Trace read_text(
    const ReadOptions& options, RecoveryReport& report,
    const std::function<std::size_t(RawTrace&, RecoveryReport&)>& parse) {
  OBS_SPAN(span, "trace/read");
  const std::int64_t before = report.total();
  const std::size_t stored_before = report.diagnostics().size();
  RawTrace raw;
  std::size_t bytes = 0;
  {
    OBS_SPAN_ANON("trace/parse");
    bytes = parse(raw, report);
  }
  // Salvage whatever a parse diagnostic touched.
  if (report.total() != before) raw.lift();
  repair(raw, report);
  const bool rejected = !options.recover && report.total() != before;
  Trace trace = build_trace(rejected ? RawTrace{} : std::move(raw), 0);
  if (rejected && !report.fatal()) {
    Diagnostic first;
    if (report.diagnostics().size() > stored_before)
      first = report.diagnostics()[stored_before];
    first.severity = Severity::Fatal;
    first.detail = "strict read rejected the input: " + first.detail;
    report.add(std::move(first));
  }
  span.attr("bytes", static_cast<std::int64_t>(bytes));
  span.attr("events", trace.num_events());
  span.attr("diagnostics", report.total() - before);
  return trace;
}

void throw_if_rejected(const RecoveryReport& report) {
  if (!report.empty())
    throw std::runtime_error(report.diagnostics().front().to_string());
}

}  // namespace logstruct::trace::detail
