#include "trace/storage/blocked_trace.hpp"

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <stdexcept>

#include "obs/obs.hpp"
#include "trace/repair.hpp"
#include "trace/storage/options.hpp"
#include "util/check.hpp"

namespace logstruct::trace::storage {

namespace {

// ------------------------------------------------- metadata blob codec

class ByteWriter {
 public:
  void raw(const void* data, std::size_t bytes) {
    out_.append(static_cast<const char*>(data), bytes);
  }
  void u8(std::uint8_t v) { raw(&v, 1); }
  void i32(std::int32_t v) { raw(&v, 4); }
  void i64(std::int64_t v) { raw(&v, 8); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(v.size());
    raw(v.data(), v.size() * sizeof(T));
  }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::string& blob)
      : p_(blob.data()), end_(blob.data() + blob.size()) {}
  void raw(void* data, std::size_t bytes) {
    if (static_cast<std::size_t>(end_ - p_) < bytes)
      throw std::runtime_error("lsblk: truncated trace metadata");
    if (bytes == 0) return;  // empty vectors have a null data()
    std::memcpy(data, p_, bytes);
    p_ += bytes;
  }
  std::uint8_t u8() {
    std::uint8_t v;
    raw(&v, 1);
    return v;
  }
  std::int32_t i32() {
    std::int32_t v;
    raw(&v, 4);
    return v;
  }
  std::int64_t i64() {
    std::int64_t v;
    raw(&v, 8);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, 8);
    return v;
  }
  std::string str() {
    const std::uint64_t n = len();
    std::string s(n, '\0');
    raw(s.data(), n);
    return s;
  }
  template <typename T>
  std::vector<T> vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = len();
    std::vector<T> v(n);
    raw(v.data(), n * sizeof(T));
    return v;
  }

 private:
  std::uint64_t len() {
    const std::uint64_t n = u64();
    if (n > static_cast<std::uint64_t>(end_ - p_))
      throw std::runtime_error("lsblk: truncated trace metadata");
    return n;
  }
  const char* p_;
  const char* end_;
};

constexpr std::uint32_t kMetaVersion = 1;

// ---------------------------------------------------- column streaming

template <typename T, typename View>
void append_column(BlockStoreWriter& writer, ColumnId col, const View& view) {
  writer.set_elem_bytes(col, sizeof(T));
  view.for_each_chunk([&](const T* chunk, std::size_t n, std::size_t) {
    writer.append(col, chunk, n * sizeof(T));
  });
}

/// A derived column with no public accessor: the store's column when
/// the trace is blocked, else the frozen vector.
template <typename T>
ColumnView<T> derived_view(const BlockedTraceData* blocked,
                           BlockedColumn<T> BlockedTraceData::*col,
                           const std::vector<T>& mem) {
  return blocked ? ColumnView<T>(&(blocked->*col))
                 : ColumnView<T>(mem.data(), mem.size());
}

/// Free a vector's storage. `v = {}` would pick the initializer_list
/// assignment, which only clears it and keeps the capacity.
template <typename T>
void release(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

std::string make_spill_path(const StorageOptions& opts) {
  static std::atomic<std::uint64_t> counter{0};
  return resolve_spill_dir(opts) + "/lsblk-" + std::to_string(::getpid()) +
         "-" + std::to_string(counter.fetch_add(1)) + ".tmp";
}

}  // namespace

std::string serialize_trace_metadata(const Trace& trace) {
  ByteWriter w;
  w.i32(static_cast<std::int32_t>(kMetaVersion));
  w.i32(trace.num_procs_);
  w.i64(trace.end_time_);
  w.vec(trace.idle_total_);
  w.vec(trace.degraded_chare_);
  w.u64(trace.chares_.size());
  for (const ChareInfo& c : trace.chares_) {
    w.str(c.name);
    w.i32(c.array);
    w.i32(c.index);
    w.i32(c.home);
    w.u8(c.runtime ? 1 : 0);
  }
  w.u64(trace.arrays_.size());
  for (const ArrayInfo& a : trace.arrays_) {
    w.str(a.name);
    w.u8(a.runtime ? 1 : 0);
  }
  w.u64(trace.entries_.size());
  for (const EntryInfo& e : trace.entries_) {
    w.str(e.name);
    w.u8(e.runtime ? 1 : 0);
    w.i32(e.sdag_serial);
    w.vec(e.when_entries);
  }
  w.u64(trace.collectives_.size());
  for (const Collective& c : trace.collectives_) {
    w.vec(c.sends);
    w.vec(c.recvs);
  }
  w.vec(trace.chare_blocks_begin_);
  w.vec(trace.proc_blocks_begin_);
  w.vec(trace.chare_events_begin_);
  return w.take();
}

void deserialize_trace_metadata(const std::string& blob, Trace& trace) {
  ByteReader r(blob);
  if (r.i32() != static_cast<std::int32_t>(kMetaVersion))
    throw std::runtime_error("lsblk: unsupported trace metadata version");
  trace.num_procs_ = r.i32();
  trace.end_time_ = r.i64();
  trace.idle_total_ = r.vec<TimeNs>();
  trace.degraded_chare_ = r.vec<std::uint8_t>();
  trace.chares_.resize(r.u64());
  for (ChareInfo& c : trace.chares_) {
    c.name = r.str();
    c.array = r.i32();
    c.index = r.i32();
    c.home = r.i32();
    c.runtime = r.u8() != 0;
  }
  trace.arrays_.resize(r.u64());
  for (ArrayInfo& a : trace.arrays_) {
    a.name = r.str();
    a.runtime = r.u8() != 0;
  }
  trace.entries_.resize(r.u64());
  for (EntryInfo& e : trace.entries_) {
    e.name = r.str();
    e.runtime = r.u8() != 0;
    e.sdag_serial = r.i32();
    e.when_entries = r.vec<EntryId>();
  }
  trace.collectives_.resize(r.u64());
  for (Collective& c : trace.collectives_) {
    c.sends = r.vec<EventId>();
    c.recvs = r.vec<EventId>();
  }
  trace.chare_blocks_begin_ = r.vec<std::int64_t>();
  trace.proc_blocks_begin_ = r.vec<std::int64_t>();
  trace.chare_events_begin_ = r.vec<std::int64_t>();
}

void spill_to_blocked(Trace& trace) {
  const StorageOptions opts = default_options();
  const std::string path = make_spill_path(opts);
  write_blocked_file(trace, path, opts.block_bytes);

  auto data = std::make_shared<BlockedTraceData>();
  data->store = std::make_unique<BlockStore>(path);
  data->store->unlink_backing_file();  // spill store: fd keeps it alive
  data->bind_columns();
  trace.blocked_ = std::move(data);

  // Release the vectors the store now serves.
  release(trace.events_);
  release(trace.blocks_);
  release(trace.idles_);
  release(trace.chare_blocks_);
  release(trace.proc_blocks_);
  release(trace.chare_events_);
  release(trace.block_events_);
  release(trace.block_ev_begin_);
  release(trace.dep_send_);
  release(trace.dep_recv_);
  release(trace.dep_kind_);
  release(trace.dep_begin_);
}

Trace open_blocked_trace(const std::string& path) {
  Trace trace;
  auto data = std::make_shared<BlockedTraceData>();
  data->store = std::make_unique<BlockStore>(path);
  deserialize_trace_metadata(data->store->metadata(), trace);
  data->bind_columns();
  trace.blocked_ = std::move(data);
  LS_CHECK_MSG(trace.chare_blocks_begin_.size() == trace.chares_.size() + 1,
               "lsblk: metadata/column shape mismatch");
  return trace;
}

namespace {

/// Visit every element of `col` that lives in a non-quarantined block,
/// as (global element index, element). Blocks lost to quarantine leave
/// index gaps — exactly the shape trace::repair() was built to close.
template <typename T, typename Fn>
void for_each_surviving(const BlockStore& store, ColumnId col,
                        RecoveryReport& report, Fn&& fn) {
  const std::uint32_t elem = store.column_elem_bytes(col);
  if (elem == 0 || store.column_bytes(col) == 0) return;
  if (elem != sizeof(T)) {
    report.add(DiagCode::BadHeader, Severity::Error,
               "lsblk: column " +
                   std::to_string(static_cast<std::uint32_t>(col)) +
                   " element size mismatch; column dropped");
    return;
  }
  const std::size_t elems_per_block = store.column_payload(col) / elem;
  std::vector<char> scratch(store.block_bytes());
  const std::uint32_t blocks = store.num_blocks(col);
  for (std::uint32_t b = 0; b < blocks; ++b) {
    if (store.is_quarantined(col, b)) continue;
    const std::uint32_t size = store.block_size(col, b);
    try {
      store.read_block(col, b, scratch.data());
    } catch (const StorageError&) {
      continue;  // rot the scan missed; already the scan's diagnostic
    }
    const std::size_t base = std::size_t{b} * elems_per_block;
    const T* p = reinterpret_cast<const T*>(scratch.data());
    for (std::uint32_t i = 0; i * elem < size; ++i) fn(base + i, p[i]);
  }
}

}  // namespace

Trace open_blocked_trace(const std::string& path,
                         const StorageOptions& options,
                         RecoveryReport& report, int threads) {
  if (!options.recover) return open_blocked_trace(path);
  OBS_SPAN(span, "trace/open_blocked_recovering");

  auto store =
      std::make_unique<BlockStore>(path, OpenOptions::recovering(&report));
  if (!store->salvageable()) return Trace{};  // Fatal already recorded
  store->scan_blocks(&report);

  // The metadata blob holds the chare / entry / collective tables; a
  // trace cannot be rebuilt without them. (Under a valid footer the blob
  // is checksummed, so this only fires on v1 rot or a torn tail.)
  Trace meta;
  try {
    deserialize_trace_metadata(store->metadata(), meta);
  } catch (const std::exception& e) {
    report.add({DiagCode::ContainerTruncated, Severity::Fatal, -1, -1,
                std::string("trace metadata unusable: ") + e.what()});
    return Trace{};
  }

  if (report.ok() && store->num_quarantined() == 0) {
    // Fully intact: serve straight from the container, strict-style.
    try {
      store.reset();
      return open_blocked_trace(path);
    } catch (const std::exception& e) {
      report.add({DiagCode::BadHeader, Severity::Error, -1, -1,
                  std::string("strict re-open failed: ") + e.what()});
      store = std::make_unique<BlockStore>(
          path, OpenOptions::recovering(&report));
      if (!store->salvageable()) return Trace{};
      store->scan_blocks(&report);
    }
  }

  // Salvage: primary columns only. Derived columns (dependency table,
  // CSR groupings) are recomputed by the freeze inside build_trace(), so
  // damage there costs nothing; damage to the primaries surfaces as id
  // gaps that repair() closes with full provenance.
  RawTrace raw;
  raw.num_procs = meta.num_procs();
  std::int64_t next_id = 0;
  for (const ChareInfo& c : meta.chares()) raw.chares.push_back({next_id++, c});
  next_id = 0;
  for (const ArrayInfo& a : meta.arrays()) raw.arrays.push_back({next_id++, a});
  next_id = 0;
  for (const EntryInfo& e : meta.entries())
    raw.entries.push_back({next_id++, e});
  for (const Collective& c : meta.collectives()) {
    RawCollective rc;
    rc.sends.assign(c.sends.begin(), c.sends.end());
    rc.recvs.assign(c.recvs.begin(), c.recvs.end());
    raw.collectives.push_back(std::move(rc));
  }
  for (ChareId c = 0; c < meta.num_chares(); ++c)
    if (meta.is_degraded_chare(c)) raw.degraded_chares.push_back(c);

  for_each_surviving<Event>(
      *store, ColumnId::Events, report,
      [&](std::size_t id, const Event& e) {
        raw.events.push_back({static_cast<std::int64_t>(id), e.kind, e.time,
                              e.block, e.partner});
      });
  for_each_surviving<SerialBlock>(
      *store, ColumnId::Blocks, report,
      [&](std::size_t id, const SerialBlock& b) {
        raw.blocks.push_back({static_cast<std::int64_t>(id), b.chare, b.proc,
                              b.entry, b.begin, b.end, true});
      });
  for_each_surviving<IdleSpan>(
      *store, ColumnId::Idles, report,
      [&](std::size_t, const IdleSpan& s) { raw.idles.push_back(s); });
  store.reset();

  repair(raw, report);
  return build_trace(std::move(raw), threads);
}

void write_blocked_file(const Trace& trace, const std::string& path,
                        std::uint32_t block_bytes, std::uint32_t version) {
  OBS_SPAN(span, "trace/write_blocked_file");
  BlockStoreWriter writer(path, block_bytes, version);
  append_column<Event>(writer, ColumnId::Events, trace.events());
  append_column<SerialBlock>(writer, ColumnId::Blocks, trace.blocks());
  append_column<IdleSpan>(writer, ColumnId::Idles, trace.idles());
  append_column<EventId>(writer, ColumnId::DepSend, trace.dep_sends());
  append_column<EventId>(writer, ColumnId::DepRecv, trace.dep_recvs());
  append_column<DepKind>(writer, ColumnId::DepKind, trace.dep_kinds());

  const BlockedTraceData* b = trace.blocked_.get();
  append_column<std::int32_t>(
      writer, ColumnId::DepBegin,
      derived_view(b, &BlockedTraceData::dep_begin, trace.dep_begin_));
  append_column<EventId>(
      writer, ColumnId::BlockEvents,
      derived_view(b, &BlockedTraceData::block_events, trace.block_events_));
  append_column<std::int64_t>(
      writer, ColumnId::BlockEvBegin,
      derived_view(b, &BlockedTraceData::block_ev_begin,
                   trace.block_ev_begin_));
  append_column<EventId>(
      writer, ColumnId::ChareEvents,
      derived_view(b, &BlockedTraceData::chare_events, trace.chare_events_));
  append_column<BlockId>(
      writer, ColumnId::ChareBlocks,
      derived_view(b, &BlockedTraceData::chare_blocks, trace.chare_blocks_));
  append_column<BlockId>(
      writer, ColumnId::ProcBlocks,
      derived_view(b, &BlockedTraceData::proc_blocks, trace.proc_blocks_));
  writer.finish(serialize_trace_metadata(trace));
}

namespace {

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(std::int32_t v) {
    u64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
  }
  void str(const std::string& s) {
    u64(s.size());
    for (char c : s) byte(static_cast<std::uint8_t>(c));
  }
};

}  // namespace

std::uint64_t trace_structure_hash(const Trace& trace) {
  Fnv1a h;
  h.i32(trace.num_procs());
  h.i32(trace.num_events());
  h.i32(trace.num_blocks());
  h.i32(trace.num_chares());
  h.i64(trace.num_dependencies());
  h.i64(trace.end_time());

  for (const Event& e : trace.events()) {
    h.byte(static_cast<std::uint8_t>(e.kind));
    h.i64(e.time);
    h.i32(e.chare);
    h.i32(e.proc);
    h.i32(e.block);
    h.i32(e.partner);
  }
  for (const SerialBlock& b : trace.blocks()) {
    h.i32(b.chare);
    h.i32(b.proc);
    h.i32(b.entry);
    h.i64(b.begin);
    h.i64(b.end);
    h.i32(b.trigger);
  }
  for (const IdleSpan& s : trace.idles()) {
    h.i32(s.proc);
    h.i64(s.begin);
    h.i64(s.end);
  }
  trace.dep_sends().for_each_chunk(
      [&](const EventId* p, std::size_t n, std::size_t) {
        for (std::size_t i = 0; i < n; ++i) h.i32(p[i]);
      });
  trace.dep_recvs().for_each_chunk(
      [&](const EventId* p, std::size_t n, std::size_t) {
        for (std::size_t i = 0; i < n; ++i) h.i32(p[i]);
      });
  trace.dep_kinds().for_each_chunk(
      [&](const DepKind* p, std::size_t n, std::size_t) {
        for (std::size_t i = 0; i < n; ++i)
          h.byte(static_cast<std::uint8_t>(p[i]));
      });
  for (BlockId b = 0; b < trace.num_blocks(); ++b) {
    const auto span = trace.events_of_block(b);
    h.u64(span.size());
    for (EventId e : span) h.i32(e);
  }
  for (ChareId c = 0; c < trace.num_chares(); ++c) {
    const auto events = trace.events_of_chare(c);
    h.u64(events.size());
    for (EventId e : events) h.i32(e);
    const auto blocks = trace.blocks_of_chare(c);
    h.u64(blocks.size());
    for (BlockId b : blocks) h.i32(b);
  }
  for (ProcId p = 0; p < trace.num_procs(); ++p) {
    const auto blocks = trace.blocks_of_proc(p);
    h.u64(blocks.size());
    for (BlockId b : blocks) h.i32(b);
    h.i64(trace.total_idle(p));
  }
  for (const ChareInfo& c : trace.chares()) {
    h.str(c.name);
    h.i32(c.array);
    h.i32(c.index);
    h.i32(c.home);
    h.byte(c.runtime ? 1 : 0);
  }
  for (const ArrayInfo& a : trace.arrays()) {
    h.str(a.name);
    h.byte(a.runtime ? 1 : 0);
  }
  for (const EntryInfo& e : trace.entries()) {
    h.str(e.name);
    h.byte(e.runtime ? 1 : 0);
    h.i32(e.sdag_serial);
    h.u64(e.when_entries.size());
    for (EntryId w : e.when_entries) h.i32(w);
  }
  for (const Collective& c : trace.collectives()) {
    h.u64(c.sends.size());
    for (EventId s : c.sends) h.i32(s);
    h.u64(c.recvs.size());
    for (EventId r : c.recvs) h.i32(r);
  }
  h.i32(trace.num_degraded_chares());
  for (ChareId c = 0; c < trace.num_chares(); ++c)
    if (trace.is_degraded_chare(c)) h.i32(c);
  return h.h;
}

}  // namespace logstruct::trace::storage
