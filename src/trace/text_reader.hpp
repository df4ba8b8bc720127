#pragma once

/// \file text_reader.hpp
/// Internal plumbing shared by the two text readers (io.cpp for
/// .lstrace, projections.cpp for Projections logs).
///
/// Each format has exactly one parser. It fills a RawTrace from whole
/// lines through LineCursor (a whole-file buffer, or for .lstrace files
/// the runs of lines read_lines streams) and never throws on malformed
/// content; read_text() lifts the RawTrace out of its column form when
/// the parse reported anything, then runs repair() and build_trace().
/// The two read modes differ only in what a diagnostic means:
///  - recovering: diagnostics describe what was salvaged and fixed;
///  - strict: any diagnostic rejects the input (empty Trace, Fatal
///    report), and the report-less overloads raise the first one as a
///    std::runtime_error (throw_if_rejected).

#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "trace/diagnostics.hpp"
#include "trace/repair.hpp"
#include "trace/trace.hpp"

namespace logstruct::trace::detail {

/// A list-length field larger than this is garbage, not data; parsing it
/// verbatim would let one garbled digit drive a multi-gigabyte resize.
inline constexpr std::int64_t kMaxListLen = 1 << 20;

/// A cursor over a text buffer: lines split on '\n', fields are
/// whitespace-separated and read with std::from_chars. Field reads follow
/// `std::istream >>` rules — a number ends at its first non-digit, a
/// failed read makes every later read on the line fail too — so a record
/// reads as one chain of `>>` followed by a single failure check.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : text_(text) {}

  /// Continue on the next buffer; line numbers keep counting.
  void reset(std::string_view text) {
    text_ = text;
    next_ = 0;
  }

  /// Advance to the next line (the last may lack its '\n'); false once
  /// the buffer is exhausted. Clears the failure state.
  bool next_line() {
    if (next_ >= text_.size()) return false;
    const char* begin = text_.data() + next_;
    const std::size_t left = text_.size() - next_;
    const auto* nl = static_cast<const char*>(std::memchr(begin, '\n', left));
    const std::size_t len =
        nl ? static_cast<std::size_t>(nl - begin) : left;
    line_ = {begin, len};
    p_ = begin;
    end_ = begin + len;
    next_ += len + 1;
    ++lineno_;
    fail_ = false;
    return true;
  }

  /// 1-based number of the current line.
  [[nodiscard]] std::int64_t lineno() const { return lineno_; }
  [[nodiscard]] std::string_view line() const { return line_; }
  [[nodiscard]] bool blank_line() const { return line_.empty(); }
  [[nodiscard]] bool fail() const { return fail_; }

  /// Next whitespace-delimited word of the line; empty at its end.
  std::string_view word() {
    skip_space();
    const char* b = p_;
    while (p_ != end_ && !is_space(*p_)) ++p_;
    return {b, static_cast<std::size_t>(p_ - b)};
  }

  /// Signed integer field (an optional '+' is accepted, as by istream).
  template <typename T>
    requires(std::signed_integral<T> && !std::same_as<T, char>)
  LineCursor& operator>>(T& v) {
    if (fail_) return *this;
    skip_space();
    const char* b = p_;
    if (end_ - b >= 2 && *b == '+' && b[1] >= '0' && b[1] <= '9') ++b;
    const auto [ptr, ec] = std::from_chars(b, end_, v);
    if (ec != std::errc()) {
      fail_ = true;
    } else {
      p_ = ptr;
    }
    return *this;
  }

  /// Single non-space character field.
  LineCursor& operator>>(char& c) {
    if (fail_) return *this;
    skip_space();
    if (p_ == end_) {
      fail_ = true;
    } else {
      c = *p_++;
    }
    return *this;
  }

  /// A count-prefixed list of integers; a count outside
  /// [0, kMaxListLen] fails the read.
  template <typename T>
  LineCursor& list(std::vector<T>& out) {
    std::int64_t n = 0;
    *this >> n;
    if (fail_ || n < 0 || n > kMaxListLen) {
      fail_ = true;
      return *this;
    }
    out.resize(static_cast<std::size_t>(n));
    for (T& v : out) *this >> v;
    return *this;
  }

  /// The trailing `| name` field: a lone '|' word, then the rest of the
  /// line (names may hold spaces) minus the one space written after it.
  bool name(std::string* out) {
    if (fail_ || word() != "|") return false;
    if (p_ != end_ && *p_ == ' ') ++p_;
    out->assign(p_, end_);
    p_ = end_;
    return true;
  }

 private:
  static bool is_space(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }
  void skip_space() {
    while (p_ != end_ && is_space(*p_)) ++p_;
  }

  std::string_view text_;
  std::size_t next_ = 0;  ///< offset of the line after the current one
  std::string_view line_;
  const char* p_ = nullptr;
  const char* end_ = nullptr;
  std::int64_t lineno_ = 0;
  bool fail_ = false;
};

/// The metadata records both formats share — .lstrace `array`, `chare`
/// and `entry`, .sts `ARRAY`, `CHARE` and `ENTRY` — read after their tag
/// into `raw`; false (nothing added) when the record is garbled.
bool read_array(LineCursor& cur, RawTrace& raw);
bool read_chare(LineCursor& cur, RawTrace& raw);
bool read_entry(LineCursor& cur, RawTrace& raw);

/// The rest of `in` as one buffer (sized up front when the stream can
/// seek).
std::string read_all(std::istream& in);

/// The whole file at `path` into `out`; false when it cannot be opened.
bool read_file(const std::string& path, std::string* out);

/// The file at `path` through one reused buffer: `visit` gets it as
/// runs of whole lines (only the file's last line may lack its '\n').
/// False when it cannot be opened.
bool read_lines(const std::string& path,
                const std::function<void(std::string_view)>& visit);

/// One read of either format under a `trace/read` span: `parse` fills a
/// RawTrace (reporting reader diagnostics) and returns the bytes it
/// consumed, under a `trace/parse` child span; then repair() and
/// build_trace(). In strict mode any new
/// diagnostic rejects the input: the result is an empty Trace and the
/// report gains a Fatal copy of the first diagnostic.
Trace read_text(
    const ReadOptions& options, RecoveryReport& report,
    const std::function<std::size_t(RawTrace&, RecoveryReport&)>& parse);

/// Strict report-less overloads: raise the first diagnostic of a fresh
/// (default-capped, so it is stored) report, if any, as a
/// std::runtime_error.
void throw_if_rejected(const RecoveryReport& report);

}  // namespace logstruct::trace::detail
