#include "obs/flightrec.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include "obs/progress.hpp"
#include "obs/registry.hpp"

namespace logstruct::obs {

namespace {

// ---- async-signal-safe building blocks ---------------------------------

/// Buffered writer over a file descriptor using only write(2). Every
/// method is async-signal-safe.
struct SafeWriter {
  int fd = -1;
  char buf[1024];
  std::size_t len = 0;
  bool ok = true;

  void flush() {
    std::size_t off = 0;
    while (ok && off < len) {
      const ssize_t n = ::write(fd, buf + off, len - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        ok = false;
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    len = 0;
  }

  void put(char c) {
    if (len >= sizeof buf) flush();
    buf[len++] = c;
  }

  void str(const char* s) {
    while (*s != 0) put(*s++);
  }

  void i64(long long v) {
    char tmp[24];
    int n = 0;
    unsigned long long u;
    if (v < 0) {
      put('-');
      u = static_cast<unsigned long long>(-(v + 1)) + 1;
    } else {
      u = static_cast<unsigned long long>(v);
    }
    do {
      tmp[n++] = static_cast<char>('0' + (u % 10));
      u /= 10;
    } while (u != 0);
    while (n > 0) put(tmp[--n]);
  }

  /// JSON string contents (no surrounding quotes): escapes backslash,
  /// quote, and maps control bytes to '?'.
  void escaped(const char* s) {
    for (; *s != 0; ++s) {
      const char c = *s;
      if (c == '\\' || c == '"') {
        put('\\');
        put(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        put('?');
      } else {
        put(c);
      }
    }
  }
};

/// VmRSS/VmHWM from /proc/self/status using only open/read/close.
void signal_safe_rss_kb(long long* rss_kb, long long* peak_kb) {
  *rss_kb = 0;
  *peak_kb = 0;
#if defined(__linux__)
  const int fd = ::open("/proc/self/status", O_RDONLY);
  if (fd < 0) return;
  char data[4096];
  std::size_t total = 0;
  while (total < sizeof data - 1) {
    const ssize_t n = ::read(fd, data + total, sizeof data - 1 - total);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    total += static_cast<std::size_t>(n);
  }
  ::close(fd);
  data[total] = 0;
  const struct {
    const char* key;
    long long* out;
  } fields[] = {{"VmRSS:", rss_kb}, {"VmHWM:", peak_kb}};
  for (const auto& f : fields) {
    const char* p = std::strstr(data, f.key);
    if (p == nullptr) continue;
    p += std::strlen(f.key);
    while (*p == ' ' || *p == '\t') ++p;
    long long v = 0;
    while (*p >= '0' && *p <= '9') v = v * 10 + (*p++ - '0');
    *f.out = v;
  }
#endif
}

// ---- signal handling ----------------------------------------------------

struct sigaction g_old_segv;
struct sigaction g_old_abrt;

void crash_handler(int sig) {
  FlightRecorder::global().dump_to_path(sig);
  // Restore the default disposition and re-deliver, so exit status and
  // core dumps look exactly as they would without the recorder.
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* instance = new FlightRecorder();  // never destroyed
  return *instance;
}

void FlightRecorder::record(bool close, std::string_view name,
                            std::int64_t t_ns, std::int32_t thread) {
  const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = ring_[ticket % kRingSize];
  std::uint64_t cur = s.seq.load(std::memory_order_relaxed);
  if ((cur & 1) != 0 ||
      !s.seq.compare_exchange_strong(cur, cur | 1,
                                     std::memory_order_acq_rel)) {
    // Another writer holds this slot (ring lapped within one record):
    // drop rather than block — the recorder must never stall a pass.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  s.t_ns.store(t_ns, std::memory_order_release);
  s.thread.store(thread, std::memory_order_release);
  s.close.store(close, std::memory_order_release);
  char text[kNameLen] = {0};
  std::memcpy(text, name.data(),
              name.size() < kNameLen - 1 ? name.size() : kNameLen - 1);
  for (std::size_t i = 0; i < kNameWords; ++i) {
    std::uint64_t word;
    std::memcpy(&word, text + 8 * i, sizeof word);
    s.name[i].store(word, std::memory_order_release);
  }
  s.seq.store((ticket + 1) << 1, std::memory_order_release);
}

void FlightRecorder::arm(std::string_view path) {
  const std::size_t n =
      path.size() < sizeof path_ - 1 ? path.size() : sizeof path_ - 1;
  std::memcpy(path_, path.data(), n);
  path_[n] = 0;
  refresh_metrics();
  if (armed_.exchange(true)) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = crash_handler;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGSEGV, &sa, &g_old_segv);
  ::sigaction(SIGABRT, &sa, &g_old_abrt);
}

void FlightRecorder::disarm() {
  if (!armed_.exchange(false)) return;
  ::sigaction(SIGSEGV, &g_old_segv, nullptr);
  ::sigaction(SIGABRT, &g_old_abrt, nullptr);
}

bool FlightRecorder::armed() const {
  return armed_.load(std::memory_order_relaxed);
}

std::string FlightRecorder::path() const { return std::string(path_); }

void FlightRecorder::refresh_metrics() {
  const Registry::RawMetrics raw = Registry::global().raw_metrics();
  const std::lock_guard<std::mutex> lock(refresh_mu_);
  // Seqlock-style: epoch goes odd while the fixed table is rewritten;
  // a dump that observes an odd or changed epoch reports the metrics
  // section as truncated instead of reading torn entries.
  metric_epoch_.fetch_add(1, std::memory_order_acq_rel);  // -> odd
  std::uint32_t count = 0;
  auto add = [&](const std::string& name, const void* ptr, bool is_gauge) {
    if (count >= kMaxMetrics) return;
    MetricRef& m = metrics_[count];
    const std::size_t n = name.size() < sizeof m.name - 1
                              ? name.size()
                              : sizeof m.name - 1;
    std::memcpy(m.name, name.data(), n);
    m.name[n] = 0;
    m.ptr = ptr;
    m.is_gauge = is_gauge;
    ++count;
  };
  for (const auto& [name, c] : raw.counters) add(name, c, false);
  for (const auto& [name, g] : raw.gauges) add(name, g, true);
  metric_count_.store(count, std::memory_order_relaxed);
  metric_epoch_.fetch_add(1, std::memory_order_acq_rel);  // -> even
}

bool FlightRecorder::dump(int fd, int sig) const {
  SafeWriter w;
  w.fd = fd;
  w.str("{\"schema\":\"logstruct-flightrec/v1\",\"signal\":");
  w.i64(sig);

  char pass[64];
  Progress::current_pass(pass, sizeof pass);
  w.str(",\"pass\":\"");
  w.escaped(pass);
  w.str("\",\"progress\":{\"done\":");
  w.i64(Progress::done_now());
  w.str(",\"total\":");
  w.i64(Progress::total_now());
  w.str("}");

  long long rss = 0;
  long long peak = 0;
  signal_safe_rss_kb(&rss, &peak);
  w.str(",\"rss_kb\":");
  w.i64(rss);
  w.str(",\"peak_rss_kb\":");
  w.i64(peak);

  w.str(",\"ring_dropped\":");
  w.i64(dropped_.load(std::memory_order_relaxed));

  // Oldest-to-newest sweep of the ring. Slots whose sequence word does
  // not match their ticket (still being written, or lapped mid-dump)
  // are skipped.
  w.str(",\"events\":[");
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t span = head < kRingSize ? head : kRingSize;
  bool first = true;
  for (std::uint64_t i = head - span; i < head; ++i) {
    const Slot& s = ring_[i % kRingSize];
    const std::uint64_t want = (i + 1) << 1;
    if (s.seq.load(std::memory_order_acquire) != want) continue;
    char name[kNameLen];
    for (std::size_t k = 0; k < kNameWords; ++k) {
      const std::uint64_t word = s.name[k].load(std::memory_order_acquire);
      std::memcpy(name + 8 * k, &word, sizeof word);
    }
    name[kNameLen - 1] = 0;
    const std::int64_t t_ns = s.t_ns.load(std::memory_order_acquire);
    const std::int32_t thread = s.thread.load(std::memory_order_acquire);
    const bool close = s.close.load(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_acquire) != want) continue;
    if (!first) w.put(',');
    first = false;
    w.str("{\"t_ns\":");
    w.i64(t_ns);
    w.str(",\"thread\":");
    w.i64(thread);
    w.str(",\"kind\":\"");
    w.str(close ? "close" : "open");
    w.str("\",\"name\":\"");
    w.escaped(name);
    w.str("\"}");
  }
  w.str("]");

  const std::uint32_t e1 = metric_epoch_.load(std::memory_order_acquire);
  bool truncated = (e1 & 1) != 0;
  w.str(",\"counters\":{");
  if (!truncated) {
    const std::uint32_t count = metric_count_.load(std::memory_order_relaxed);
    bool first_c = true;
    for (std::uint32_t i = 0; i < count; ++i) {
      const MetricRef& m = metrics_[i];
      if (m.is_gauge || m.ptr == nullptr) continue;
      if (!first_c) w.put(',');
      first_c = false;
      w.put('"');
      w.escaped(m.name);
      w.str("\":");
      w.i64(static_cast<const Counter*>(m.ptr)->value());
    }
  }
  w.str("},\"gauges\":{");
  if (!truncated) {
    const std::uint32_t count = metric_count_.load(std::memory_order_relaxed);
    bool first_g = true;
    for (std::uint32_t i = 0; i < count; ++i) {
      const MetricRef& m = metrics_[i];
      if (!m.is_gauge || m.ptr == nullptr) continue;
      if (!first_g) w.put(',');
      first_g = false;
      w.put('"');
      w.escaped(m.name);
      w.str("\":");
      w.i64(static_cast<const Gauge*>(m.ptr)->value());
    }
  }
  w.str("}");
  truncated =
      truncated || metric_epoch_.load(std::memory_order_acquire) != e1;
  w.str(",\"metrics_truncated\":");
  w.str(truncated ? "true" : "false");
  w.str("}\n");
  w.flush();
  return w.ok;
}

bool FlightRecorder::dump_to_path(int sig) const {
  if (path_[0] == 0) return false;
  const int fd = ::open(path_, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool ok = dump(fd, sig);
  ::close(fd);
  return ok;
}

std::string FlightRecorder::to_json(int sig) const {
  char tmpl[] = "/tmp/logstruct-flightrec-XXXXXX";
  const int fd = ::mkstemp(tmpl);
  if (fd < 0) return {};
  dump(fd, sig);
  std::string out;
  if (::lseek(fd, 0, SEEK_SET) == 0) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  ::unlink(tmpl);
  return out;
}

std::int64_t FlightRecorder::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

void FlightRecorder::reset() {
  head_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  for (Slot& s : ring_) {
    s.seq.store(0, std::memory_order_relaxed);
    s.t_ns.store(0, std::memory_order_relaxed);
    s.thread.store(0, std::memory_order_relaxed);
    s.close.store(false, std::memory_order_relaxed);
    for (auto& word : s.name) word.store(0, std::memory_order_relaxed);
  }
}

}  // namespace logstruct::obs
