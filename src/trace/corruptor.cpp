#include "trace/corruptor.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstring>
#include <sstream>

#include "trace/storage/format.hpp"
#include "util/rng.hpp"

namespace logstruct::trace {

namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string::size_type pos = 0;
  while (pos < text.size()) {
    std::string::size_type nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(pos));
      break;
    }
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

/// Interior lines are fair game for line faults; the first line (header)
/// stays so parsers get past the magic, and the last non-empty line (the
/// end marker) stays so line faults don't degenerate into truncation —
/// TruncateTail owns that failure mode.
struct Body {
  std::size_t first;  ///< first corruptible index
  std::size_t count;  ///< number of corruptible lines
};

Body body_of(const std::vector<std::string>& lines) {
  if (lines.size() <= 2) return {0, 0};
  return {1, lines.size() - 2};
}

/// What the Lsblk* faults need to know about a container image: where the
/// data blocks end and the tail (tables + directory + metadata) begins.
struct LsblkShape {
  bool valid = false;
  std::uint64_t directory_offset = 0;
  std::uint64_t data_end = 0;  ///< first byte past the last data block
};

LsblkShape lsblk_shape(const std::string& bytes) {
  using storage::ColumnDesc;
  using storage::FileHeader;
  LsblkShape shape;
  if (bytes.size() < sizeof(FileHeader)) return shape;
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (header.magic != storage::kMagic || header.directory_offset == 0 ||
      header.directory_offset > bytes.size())
    return shape;
  if (header.directory_offset + header.num_columns * sizeof(ColumnDesc) >
      bytes.size())
    return shape;
  // The data region ends at the lowest table offset any column records.
  std::uint64_t data_end = header.directory_offset;
  for (std::uint32_t i = 0; i < header.num_columns; ++i) {
    std::uint64_t offsets_offset = 0;
    std::memcpy(&offsets_offset,
                bytes.data() + header.directory_offset +
                    i * sizeof(ColumnDesc) +
                    offsetof(ColumnDesc, offsets_offset),
                sizeof(offsets_offset));
    if (offsets_offset >= sizeof(FileHeader) && offsets_offset < data_end)
      data_end = offsets_offset;
  }
  shape.directory_offset = header.directory_offset;
  shape.data_end = data_end;
  shape.valid = data_end > sizeof(FileHeader);
  return shape;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::DropLines: return "drop_lines";
    case FaultKind::TruncateTail: return "truncate_tail";
    case FaultKind::DuplicateLines: return "duplicate_lines";
    case FaultKind::PerturbTimestamps: return "perturb_timestamps";
    case FaultKind::FlipBytes: return "flip_bytes";
    case FaultKind::LsblkFlipBlock: return "lsblk_flip_block";
    case FaultKind::LsblkTruncateDir: return "lsblk_truncate_dir";
    case FaultKind::LsblkZeroFooter: return "lsblk_zero_footer";
  }
  return "?";
}

bool parse_fault_kind(const std::string& name, FaultKind* out) {
  for (int k = 0; k < kNumFaultKinds; ++k) {
    FaultKind kind = static_cast<FaultKind>(k);
    if (name == fault_kind_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

std::string CorruptionSummary::to_string() const {
  std::ostringstream os;
  os << fault_kind_name(kind) << " seed=" << seed;
  if (lines_dropped) os << " dropped=" << lines_dropped;
  if (lines_duplicated) os << " duplicated=" << lines_duplicated;
  if (bytes_truncated) os << " truncated_bytes=" << bytes_truncated;
  if (timestamps_perturbed) os << " perturbed=" << timestamps_perturbed;
  if (bytes_flipped) os << " flipped=" << bytes_flipped;
  if (footer_zeroed) os << " footer_zeroed=" << footer_zeroed;
  return os.str();
}

TraceCorruptor::TraceCorruptor(std::uint64_t seed, double intensity)
    : seed_(seed), intensity_(std::clamp(intensity, 0.0, 1.0)) {}

std::string TraceCorruptor::corrupt(const std::string& text, FaultKind kind,
                                    CorruptionSummary* summary) {
  CorruptionSummary local;
  CorruptionSummary& s = summary ? *summary : local;
  s = CorruptionSummary{};
  s.kind = kind;
  s.seed = seed_;
  ++stream_;
  switch (kind) {
    case FaultKind::DropLines:
      return drop_lines(split_lines(text), s);
    case FaultKind::TruncateTail:
      return truncate_tail(text, s);
    case FaultKind::DuplicateLines:
      return duplicate_lines(split_lines(text), s);
    case FaultKind::PerturbTimestamps:
      return perturb_timestamps(split_lines(text), s);
    case FaultKind::FlipBytes:
      return flip_bytes(text, s);
    case FaultKind::LsblkFlipBlock:
      return lsblk_flip_block(text, s);
    case FaultKind::LsblkTruncateDir:
      return lsblk_truncate_dir(text, s);
    case FaultKind::LsblkZeroFooter:
      return lsblk_zero_footer(text, s);
  }
  return text;
}

std::string TraceCorruptor::drop_lines(std::vector<std::string> lines,
                                       CorruptionSummary& s) {
  const Body body = body_of(lines);
  if (body.count == 0) return join_lines(lines);
  util::Rng rng = util::Rng(seed_).fork(stream_);
  std::int64_t want = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(intensity_ *
                                   static_cast<double>(body.count)));
  std::vector<std::string> out;
  out.reserve(lines.size());
  // Pick victim indices, then emit everything else in order.
  std::vector<char> drop(lines.size(), 0);
  for (std::int64_t i = 0; i < want; ++i) {
    std::size_t victim = body.first + rng.uniform(body.count);
    if (!drop[victim]) {
      drop[victim] = 1;
      ++s.lines_dropped;
    }
  }
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (!drop[i]) out.push_back(std::move(lines[i]));
  return join_lines(out);
}

std::string TraceCorruptor::truncate_tail(const std::string& text,
                                          CorruptionSummary& s) {
  if (text.size() < 2) return text;
  util::Rng rng = util::Rng(seed_).fork(stream_);
  // Keep at least the first line; cut anywhere in the second half of the
  // rest (possibly mid-line, like a real crash).
  std::string::size_type header_end = text.find('\n');
  if (header_end == std::string::npos) return text;
  const std::size_t lo = header_end + 1;
  const std::size_t hi = text.size() - 1;  // always cut something
  const std::size_t cut =
      lo + static_cast<std::size_t>(
               rng.uniform(static_cast<std::uint64_t>(hi - lo + 1)));
  s.bytes_truncated = static_cast<std::int64_t>(text.size() - cut);
  return text.substr(0, cut);
}

std::string TraceCorruptor::duplicate_lines(std::vector<std::string> lines,
                                            CorruptionSummary& s) {
  const Body body = body_of(lines);
  if (body.count == 0) return join_lines(lines);
  util::Rng rng = util::Rng(seed_).fork(stream_);
  std::int64_t want = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(intensity_ *
                                   static_cast<double>(body.count)));
  std::vector<char> dup(lines.size(), 0);
  for (std::int64_t i = 0; i < want; ++i) {
    std::size_t victim = body.first + rng.uniform(body.count);
    if (!dup[victim]) {
      dup[victim] = 1;
      ++s.lines_duplicated;
    }
  }
  std::vector<std::string> out;
  out.reserve(lines.size() + static_cast<std::size_t>(s.lines_duplicated));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out.push_back(lines[i]);
    if (dup[i]) out.push_back(std::move(lines[i]));
  }
  return join_lines(out);
}

std::string TraceCorruptor::perturb_timestamps(
    std::vector<std::string> lines, CorruptionSummary& s) {
  const Body body = body_of(lines);
  if (body.count == 0) return join_lines(lines);
  util::Rng rng = util::Rng(seed_).fork(stream_);
  std::int64_t want = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(intensity_ *
                                   static_cast<double>(body.count)));
  // Deltas far beyond any real trace duration, so a perturbed time is
  // guaranteed to land outside its block span (the recovery property
  // tests rely on a perturbation always being detectable).
  constexpr std::int64_t kDeltaLo = std::int64_t{1} << 40;
  constexpr std::int64_t kDeltaHi = std::int64_t{1} << 50;
  std::int64_t budget = want;
  for (std::int64_t attempt = 0; attempt < want * 8 && budget > 0;
       ++attempt) {
    std::size_t victim = body.first + rng.uniform(body.count);
    std::string& line = lines[victim];
    // Collect the spans of whole decimal numbers on the line (skipping
    // the leading record tag, which is never numeric in our formats).
    struct NumSpan { std::size_t begin, len; };
    std::vector<NumSpan> nums;
    std::size_t i = 0;
    while (i < line.size()) {
      if (std::isdigit(static_cast<unsigned char>(line[i])) ||
          (line[i] == '-' && i + 1 < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[i + 1])))) {
        std::size_t j = i + (line[i] == '-' ? 1 : 0);
        while (j < line.size() &&
               std::isdigit(static_cast<unsigned char>(line[j])))
          ++j;
        const bool boundary_ok =
            (i == 0 || line[i - 1] == ' ') &&
            (j == line.size() || line[j] == ' ');
        if (boundary_ok) nums.push_back({i, j - i});
        i = j;
      } else {
        ++i;
      }
    }
    if (nums.empty()) continue;
    const NumSpan target = nums[rng.uniform(nums.size())];
    std::int64_t value = 0;
    try {
      value = std::stoll(line.substr(target.begin, target.len));
    } catch (...) {
      continue;  // number too large to parse; leave it garbled as-is
    }
    const std::int64_t delta = rng.uniform_range(kDeltaLo, kDeltaHi);
    const std::int64_t perturbed =
        rng.uniform(2) ? value + delta : value - delta;
    line = line.substr(0, target.begin) + std::to_string(perturbed) +
           line.substr(target.begin + target.len);
    ++s.timestamps_perturbed;
    --budget;
  }
  return join_lines(lines);
}

std::string TraceCorruptor::flip_bytes(std::string text,
                                       CorruptionSummary& s) {
  if (text.empty()) return text;
  util::Rng rng = util::Rng(seed_).fork(stream_);
  std::int64_t want = std::max<std::int64_t>(
      1,
      static_cast<std::int64_t>(intensity_ *
                                static_cast<double>(text.size()) / 16.0));
  for (std::int64_t i = 0; i < want; ++i) {
    const std::size_t pos = rng.uniform(text.size());
    const unsigned bit = static_cast<unsigned>(rng.uniform(8));
    text[pos] = static_cast<char>(
        static_cast<unsigned char>(text[pos]) ^ (1u << bit));
    ++s.bytes_flipped;
  }
  return text;
}

std::string TraceCorruptor::lsblk_flip_block(std::string bytes,
                                             CorruptionSummary& s) {
  const LsblkShape shape = lsblk_shape(bytes);
  if (!shape.valid) return bytes;
  util::Rng rng = util::Rng(seed_).fork(stream_);
  const std::uint64_t span =
      shape.data_end - sizeof(storage::FileHeader);
  const std::int64_t want = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(intensity_ * static_cast<double>(span) /
                                   4096.0));
  for (std::int64_t i = 0; i < want; ++i) {
    const std::size_t pos =
        sizeof(storage::FileHeader) + static_cast<std::size_t>(
                                          rng.uniform(span));
    const unsigned bit = static_cast<unsigned>(rng.uniform(8));
    bytes[pos] = static_cast<char>(
        static_cast<unsigned char>(bytes[pos]) ^ (1u << bit));
    ++s.bytes_flipped;
  }
  return bytes;
}

std::string TraceCorruptor::lsblk_truncate_dir(const std::string& bytes,
                                               CorruptionSummary& s) {
  const LsblkShape shape = lsblk_shape(bytes);
  if (!shape.valid) return bytes;
  util::Rng rng = util::Rng(seed_).fork(stream_);
  // Cut anywhere from the start of the directory to the last byte: the
  // footer is always lost, the directory usually mid-entry.
  const std::uint64_t span = bytes.size() - shape.directory_offset;
  const std::size_t cut =
      static_cast<std::size_t>(shape.directory_offset +
                               rng.uniform(span));
  s.bytes_truncated = static_cast<std::int64_t>(bytes.size() - cut);
  return bytes.substr(0, cut);
}

std::string TraceCorruptor::lsblk_zero_footer(std::string bytes,
                                              CorruptionSummary& s) {
  const LsblkShape shape = lsblk_shape(bytes);
  if (!shape.valid || bytes.size() < sizeof(storage::CommitFooter))
    return bytes;
  std::memset(bytes.data() + bytes.size() - sizeof(storage::CommitFooter),
              0, sizeof(storage::CommitFooter));
  s.footer_zeroed = 1;
  return bytes;
}

}  // namespace logstruct::trace
