#include "trace/repair.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <sstream>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/csr.hpp"

namespace logstruct::trace {

namespace {

/// Ids beyond (table size + slack) are garbage, not gaps: stubbing or
/// remapping them would let one flipped digit allocate unbounded memory.
constexpr std::int64_t kIdSlack = 4096;

/// Claimed processor counts above this are treated as garbled (the freeze
/// allocates per-PE index lists).
constexpr std::int32_t kMaxProcs = 1 << 20;

/// Timestamps are clamped into ±2^53 ns (~104 days) so downstream sums
/// and differences can never overflow, sanitizers included.
constexpr TimeNs kTimeCap = TimeNs{1} << 53;

template <typename... Args>
std::string cat(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

TimeNs clamp_time(TimeNs t, std::int64_t* clamped) {
  if (t > kTimeCap) {
    ++*clamped;
    return kTimeCap;
  }
  if (t < -kTimeCap) {
    ++*clamped;
    return -kTimeCap;
  }
  return t;
}

/// Sort a raw table by claimed id (file order preserved within one id),
/// drop duplicates and out-of-cap ids, and report gaps. Surviving ids
/// stay below the table's original size + kIdSlack.
template <typename Rec>
void normalize_ids(std::vector<Rec>& recs, const char* what,
                   RecoveryReport& report) {
  const std::int64_t cap =
      static_cast<std::int64_t>(recs.size()) + kIdSlack;
  std::erase_if(recs, [&](const Rec& r) {
    if (r.id >= 0 && r.id < cap) return false;
    report.add(DiagCode::DroppedRecord, Severity::Warning,
               cat(what, " id ", r.id, " out of plausible range"));
    return true;
  });
  const auto by_id = [](const Rec& a, const Rec& b) { return a.id < b.id; };
  if (!std::is_sorted(recs.begin(), recs.end(), by_id))
    std::stable_sort(recs.begin(), recs.end(), by_id);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const std::int64_t id = recs[i].id;
    if (kept > 0 && id == recs[kept - 1].id) {
      report.add(DiagCode::DeduplicatedRecord, Severity::Warning,
                 cat("duplicate ", what, " id ", id, " dropped"));
      continue;
    }
    if (kept > 0 && id != recs[kept - 1].id + 1) {
      report.add(DiagCode::NonSequentialId, Severity::Warning,
                 cat(what, " ids skip from ", recs[kept - 1].id, " to ", id,
                     " (lines lost)"));
    }
    if (i != kept) recs[kept] = std::move(recs[i]);
    ++kept;
  }
  recs.resize(kept);
}

/// Claimed id -> dense index over id-sorted records (kNone for ids that
/// did not survive). Ids are bounded by normalize_ids, so a flat table
/// replaces a hash map.
template <typename Rec>
std::vector<std::int32_t> dense_remap(const std::vector<Rec>& recs) {
  std::vector<std::int32_t> remap(
      recs.empty() ? 0 : static_cast<std::size_t>(recs.back().id) + 1,
      kNone);
  for (std::size_t i = 0; i < recs.size(); ++i)
    remap[static_cast<std::size_t>(recs[i].id)] = static_cast<std::int32_t>(i);
  return remap;
}

/// remap[id], or kNone when `id` is outside the table.
std::int32_t lookup(const std::vector<std::int32_t>& remap, std::int64_t id) {
  return id >= 0 && static_cast<std::size_t>(id) < remap.size()
             ? remap[static_cast<std::size_t>(id)]
             : kNone;
}

/// Densify a metadata table, synthesizing placeholder records for gaps so
/// surviving references by original id stay correct. `needed` extends the
/// table when later records reference ids past the claimed maximum.
template <typename Info>
std::vector<Info> densify_meta(std::vector<RawRecord<Info>>& recs,
                               std::int64_t needed, const char* what,
                               RecoveryReport& report) {
  std::int64_t size = recs.empty() ? 0 : recs.back().id + 1;
  size = std::max(size, needed);
  std::vector<Info> out(static_cast<std::size_t>(size));
  std::vector<char> present(static_cast<std::size_t>(size), 0);
  for (RawRecord<Info>& r : recs) {
    out[static_cast<std::size_t>(r.id)] = std::move(r.info);
    present[static_cast<std::size_t>(r.id)] = 1;
  }
  for (std::int64_t i = 0; i < size; ++i) {
    if (present[static_cast<std::size_t>(i)]) continue;
    out[static_cast<std::size_t>(i)].name = cat("<recovered ", what, ' ', i,
                                                '>');
    report.add(DiagCode::StubbedMetadata, Severity::Warning,
               cat(what, ' ', i, " lost; placeholder synthesized"));
  }
  return out;
}

bool fits_id(std::int64_t v) { return v >= INT32_MIN && v <= INT32_MAX; }

bool in_range(std::int64_t v, std::size_t n) {
  return v >= 0 && static_cast<std::uint64_t>(v) < n;
}

bool sane_time(TimeNs t) { return t >= -kTimeCap && t <= kTimeCap; }

/// True when the column form of `raw` already holds everything the
/// salvage passes guarantee, so they would change nothing and report
/// nothing. One pass over each table, no copies; any doubt answers
/// false and the passes decide.
bool verify_columns(const RawTrace& raw) {
  const auto dense = [](const auto& recs) {
    for (std::size_t i = 0; i < recs.size(); ++i)
      if (recs[i].id != static_cast<std::int64_t>(i)) return false;
    return true;
  };
  if (!dense(raw.arrays) || !dense(raw.chares) || !dense(raw.entries))
    return false;
  if (raw.num_procs < 0 || raw.num_procs > kMaxProcs) return false;
  const std::size_t procs = static_cast<std::size_t>(raw.num_procs);
  for (const RawRecord<ChareInfo>& c : raw.chares)
    if (c.info.array != kNone && !in_range(c.info.array, raw.arrays.size()))
      return false;
  for (const RawRecord<EntryInfo>& e : raw.entries) {
    if (e.info.sdag_serial < -1) return false;
    for (EntryId w : e.info.when_entries)
      if (!in_range(w, raw.entries.size())) return false;
  }

  // A PE's blocks, in id order, must each begin at or after the end of
  // the one before: then id order is the (begin, id) order the overlap
  // pass sweeps, and no two overlap.
  std::vector<TimeNs> last_end(procs, -kTimeCap);
  for (const SerialBlock& b : raw.block_rows) {
    if (!in_range(b.chare, raw.chares.size()) ||
        !in_range(b.entry, raw.entries.size()) || !in_range(b.proc, procs) ||
        !sane_time(b.begin) || !sane_time(b.end) || b.end < b.begin)
      return false;
    TimeNs& last = last_end[static_cast<std::size_t>(b.proc)];
    if (b.begin < last) return false;
    last = b.end;
  }

  const std::vector<Event>& events = raw.event_rows;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (!in_range(e.block, raw.block_rows.size()) || !sane_time(e.time))
      return false;
    const SerialBlock& blk = raw.block_rows[static_cast<std::size_t>(e.block)];
    if (e.time < blk.begin || e.time > blk.end) return false;
    if (e.kind != EventKind::Recv || e.partner == kNone) continue;
    if (!in_range(e.partner, events.size()) ||
        e.partner == static_cast<EventId>(i))
      return false;
    const Event& s = events[static_cast<std::size_t>(e.partner)];
    if (s.kind != EventKind::Send || s.time > e.time) return false;
  }

  // Idle spans: non-empty, and per PE in file order disjoint and rising,
  // so the (proc, begin) order the idle pass sweeps finds nothing.
  std::fill(last_end.begin(), last_end.end(), -kTimeCap);
  for (const IdleSpan& s : raw.idles) {
    if (!in_range(s.proc, procs) || !sane_time(s.begin) ||
        !sane_time(s.end) || s.end <= s.begin)
      return false;
    TimeNs& last = last_end[static_cast<std::size_t>(s.proc)];
    if (s.begin < last) return false;
    last = s.end;
  }

  const auto members_ok = [&](const std::vector<std::int64_t>& ids,
                              EventKind want) {
    for (std::int64_t m : ids)
      if (!in_range(m, events.size()) ||
          events[static_cast<std::size_t>(m)].kind != want)
        return false;
    return true;
  };
  for (const RawCollective& c : raw.collectives)
    if ((c.sends.empty() && c.recvs.empty()) ||
        !members_ok(c.sends, EventKind::Send) ||
        !members_ok(c.recvs, EventKind::Recv))
      return false;
  for (std::int64_t c : raw.degraded_chares)
    if (!in_range(c, raw.chares.size())) return false;
  return true;
}

}  // namespace

void RawTrace::add_block(const RawBlock& b) {
  if (columnar && b.id == static_cast<std::int64_t>(block_rows.size()) &&
      b.has_end && fits_id(b.chare) && fits_id(b.entry)) {
    block_rows.push_back({static_cast<ChareId>(b.chare), b.proc,
                          static_cast<EntryId>(b.entry), b.begin, b.end});
    return;
  }
  lift();
  blocks.push_back(b);
}

void RawTrace::add_event(const RawEvent& e) {
  if (columnar && e.id == static_cast<std::int64_t>(event_rows.size()) &&
      fits_id(e.block) && fits_id(e.partner)) {
    event_rows.push_back({e.kind, e.time, kNone, kNone,
                          static_cast<BlockId>(e.block),
                          static_cast<EventId>(e.partner)});
    return;
  }
  lift();
  events.push_back(e);
}

void RawTrace::lift() {
  if (!columnar) return;
  columnar = false;
  blocks.reserve(block_rows.size());
  for (std::size_t i = 0; i < block_rows.size(); ++i) {
    const SerialBlock& b = block_rows[i];
    blocks.push_back({static_cast<std::int64_t>(i), b.chare, b.proc, b.entry,
                      b.begin, b.end, true});
  }
  events.reserve(event_rows.size());
  for (std::size_t i = 0; i < event_rows.size(); ++i) {
    const Event& e = event_rows[i];
    events.push_back(
        {static_cast<std::int64_t>(i), e.kind, e.time, e.block, e.partner});
  }
  block_rows = {};
  event_rows = {};
}

void repair(RawTrace& raw, RecoveryReport& report) {
  OBS_SPAN_ANON("trace/repair");
  const bool clean = raw.columnar && verify_columns(raw);
  OBS_COUNTER_ADD("trace/repair/salvaged", clean ? 0 : 1);
  if (clean) return;
  raw.lift();
  std::int64_t clamped = 0;

  // --- metadata tables: dedup, then densify with stubs -----------------
  normalize_ids(raw.arrays, "array", report);
  normalize_ids(raw.chares, "chare", report);
  normalize_ids(raw.entries, "entry", report);
  normalize_ids(raw.blocks, "block", report);

  // References may name metadata ids whose defining lines were lost; the
  // reference proves the record existed, so extend the stub range to
  // cover it (within the anti-balloon cap).
  const std::int64_t chare_cap =
      static_cast<std::int64_t>(raw.chares.size()) + kIdSlack;
  const std::int64_t entry_cap =
      static_cast<std::int64_t>(raw.entries.size()) + kIdSlack;
  const std::int64_t array_cap =
      static_cast<std::int64_t>(raw.arrays.size()) + kIdSlack;
  std::int64_t chares_needed = 0, entries_needed = 0, arrays_needed = 0;
  for (const RawBlock& b : raw.blocks) {
    if (b.chare >= 0 && b.chare < chare_cap)
      chares_needed = std::max(chares_needed, b.chare + 1);
    if (b.entry >= 0 && b.entry < entry_cap)
      entries_needed = std::max(entries_needed, b.entry + 1);
  }
  for (const RawRecord<ChareInfo>& c : raw.chares) {
    if (c.info.array != kNone && c.info.array >= 0 &&
        c.info.array < array_cap)
      arrays_needed = std::max(arrays_needed,
                               static_cast<std::int64_t>(c.info.array) + 1);
  }

  std::vector<ArrayInfo> arrays =
      densify_meta(raw.arrays, arrays_needed, "array", report);
  std::vector<ChareInfo> chares =
      densify_meta(raw.chares, chares_needed, "chare", report);
  std::vector<EntryInfo> entries =
      densify_meta(raw.entries, entries_needed, "entry", report);

  // Fix intra-metadata references on the densified tables.
  for (ChareInfo& c : chares) {
    if (c.array != kNone &&
        (c.array < 0 ||
         static_cast<std::size_t>(c.array) >= arrays.size())) {
      report.add(DiagCode::DanglingReference, Severity::Warning,
                 cat("chare references lost array ", c.array));
      c.array = kNone;
    }
  }
  for (EntryInfo& e : entries) {
    auto bad = [&](EntryId w) {
      return w < 0 || static_cast<std::size_t>(w) >= entries.size();
    };
    for (EntryId w : e.when_entries) {
      if (bad(w))
        report.add(DiagCode::DanglingReference, Severity::Warning,
                   cat("entry when-list references lost entry ", w));
    }
    e.when_entries.erase(
        std::remove_if(e.when_entries.begin(), e.when_entries.end(), bad),
        e.when_entries.end());
    if (e.sdag_serial < -1) e.sdag_serial = -1;
  }

  // --- processor count --------------------------------------------------
  if (raw.num_procs < 0 || raw.num_procs > kMaxProcs) {
    report.add(DiagCode::ParseError, Severity::Warning,
               cat("implausible processor count ", raw.num_procs,
                   "; recomputing from content"));
    raw.num_procs = 0;
  }

  // --- blocks: drop unusable ones, clamp spans --------------------------
  const std::int32_t proc_cap = std::max(raw.num_procs, kMaxProcs);
  std::vector<std::int32_t> block_remap;
  {
    std::size_t kept = 0;  // compacted in place
    for (RawBlock& b : raw.blocks) {
      const bool bad_chare =
          b.chare < 0 || static_cast<std::size_t>(b.chare) >= chares.size();
      const bool bad_entry =
          b.entry < 0 ||
          static_cast<std::size_t>(b.entry) >= entries.size();
      const bool bad_proc = b.proc < 0 || b.proc >= proc_cap;
      if (bad_chare || bad_entry || bad_proc) {
        report.add(DiagCode::DanglingReference, Severity::Error,
                   cat("block ", b.id, " dropped: invalid ",
                       bad_chare ? "chare" : bad_proc ? "proc" : "entry",
                       " reference"));
        continue;
      }
      b.begin = clamp_time(b.begin, &clamped);
      b.end = clamp_time(b.end, &clamped);
      if (b.has_end && b.end < b.begin) {
        report.add(DiagCode::SynthesizedBlockEnd, Severity::Warning,
                   cat("block ", b.id, " ended before it began; end reset"));
        b.has_end = false;
        b.end = b.begin;
      }
      raw.blocks[kept++] = b;
    }
    raw.blocks.resize(kept);
    block_remap = dense_remap(raw.blocks);
    raw.num_procs = std::max(raw.num_procs, 0);
    for (const RawBlock& b : raw.blocks)
      raw.num_procs = std::max(raw.num_procs, b.proc + 1);
  }

  // --- events: dedup/densify, remap block refs, clamp times ------------
  std::vector<std::int32_t> event_remap;
  normalize_ids(raw.events, "event", report);
  {
    std::size_t kept = 0;  // compacted in place
    for (RawEvent& e : raw.events) {
      const std::int32_t block = lookup(block_remap, e.block);
      if (block == kNone) {
        report.add(DiagCode::DanglingReference, Severity::Error,
                   cat("event ", e.id, " dropped: its block ", e.block,
                       " was lost"));
        continue;
      }
      e.block = block;
      e.time = clamp_time(e.time, &clamped);
      raw.events[kept++] = e;
    }
    raw.events.resize(kept);
    event_remap = dense_remap(raw.events);
  }

  auto mark_degraded = [&](std::int64_t chare) {
    if (chare >= 0 && static_cast<std::size_t>(chare) < chares.size())
      raw.degraded_chares.push_back(chare);
  };

  // Partner references live on the receive side (send-side values are
  // rebuilt at freeze). A partner that was lost, or that is not a send,
  // degrades to the untraced-dependency case the pipeline already
  // handles — and quarantines the chares involved.
  for (std::size_t i = 0; i < raw.events.size(); ++i) {
    RawEvent& e = raw.events[i];
    if (e.kind != EventKind::Recv) {
      e.partner = kNone;  // rebuilt from the recv side
      continue;
    }
    if (e.partner == kNone) continue;
    const std::int32_t partner = lookup(event_remap, e.partner);
    const std::int64_t recv_chare =
        raw.blocks[static_cast<std::size_t>(e.block)].chare;
    if (partner == kNone) {
      report.add(DiagCode::DroppedDanglingPartner, Severity::Warning,
                 cat("recv ", e.id, " lost its matching send ", e.partner));
      e.partner = kNone;
      mark_degraded(recv_chare);
      continue;
    }
    const RawEvent& s = raw.events[static_cast<std::size_t>(partner)];
    if (s.kind != EventKind::Send ||
        partner == static_cast<std::int32_t>(i)) {
      report.add(DiagCode::DroppedDanglingPartner, Severity::Warning,
                 cat("recv ", e.id, " partnered with a non-send; match "
                     "dropped"));
      e.partner = kNone;
      mark_degraded(recv_chare);
      continue;
    }
    e.partner = partner;
  }

  // --- per-block event containment and block-end synthesis -------------
  {
    // CSR of event indices per block, in event order.
    std::vector<std::int32_t> first;
    std::vector<std::int32_t> events_of_block;
    util::csr_scatter(
        raw.blocks.size(),
        [&](auto emit) {
          for (std::size_t i = 0; i < raw.events.size(); ++i)
            emit(raw.events[i].block, i);
        },
        first, events_of_block);
    for (std::size_t b = 0; b < raw.blocks.size(); ++b) {
      RawBlock& blk = raw.blocks[b];
      const std::span<const std::int32_t> evs(
          events_of_block.data() + first[b],
          static_cast<std::size_t>(first[b + 1] - first[b]));
      if (!blk.has_end) {
        TimeNs end = blk.begin;
        for (std::int32_t ei : evs)
          end = std::max(end, raw.events[static_cast<std::size_t>(ei)].time);
        blk.end = end;
        blk.has_end = true;
        report.add(DiagCode::SynthesizedBlockEnd, Severity::Warning,
                   cat("block ", blk.id, " end synthesized at t=", end,
                       " (log truncated)"));
      }
      for (std::int32_t ei : evs) {
        RawEvent& e = raw.events[static_cast<std::size_t>(ei)];
        const TimeNs fixed = std::clamp(e.time, blk.begin, blk.end);
        if (fixed != e.time) {
          report.add(DiagCode::ClampedTimestamp, Severity::Warning,
                     cat("event ", e.id, " at t=", e.time,
                         " clamped into its block span [", blk.begin, ",",
                         blk.end, "]"));
          e.time = fixed;
        }
      }
    }
  }

  // --- per-proc block overlap resolution --------------------------------
  // A perturbed begin/end line (or a synthesized end) can make two
  // serial blocks on one PE overlap, which no real execution produces.
  // One sweep per PE in (begin, id) order pushes an overlapping begin up
  // to M, the running maximum end of the blocks already swept. Begin
  // ties go by id, as Trace::freeze orders them: a block that would end
  // at or before M becomes the empty span [M, M], so it waits until the
  // next block that begins at or before M has a higher id (or begins
  // after M) and then goes in ahead of it. Then the sweep's order is the
  // freeze's and nothing is left for a second sweep. Runs after end
  // synthesis (which can extend spans) and re-contains events itself —
  // the block-level diagnostic covers the events dragged along.
  {
    // Blocks grouped by proc with a counting scatter in index order. A
    // per-PE log lists its blocks in time order, so a run is usually in
    // (begin, id) order already; only the runs that are not get sorted.
    std::int32_t max_proc = -1;
    for (const RawBlock& b : raw.blocks) max_proc = std::max(max_proc, b.proc);
    std::vector<std::int32_t> first;
    std::vector<std::int32_t> of_proc;
    util::csr_scatter(
        static_cast<std::size_t>(max_proc) + 1,
        [&](auto emit) {
          for (std::size_t i = 0; i < raw.blocks.size(); ++i)
            emit(raw.blocks[i].proc, i);
        },
        first, of_proc);
    const auto by_begin = [&](std::int32_t a, std::int32_t b) {
      const TimeNs ta = raw.blocks[static_cast<std::size_t>(a)].begin;
      const TimeNs tb = raw.blocks[static_cast<std::size_t>(b)].begin;
      return ta != tb ? ta < tb : a < b;
    };
    std::int64_t sorted_runs = 0;
    bool moved_any = false;
    std::vector<std::int32_t> waiting;  // min-heap by id
    std::vector<std::int32_t> ready;
    for (std::size_t p = 0; p + 1 < first.size(); ++p) {
      const std::span<std::int32_t> run(
          of_proc.data() + first[p],
          static_cast<std::size_t>(first[p + 1] - first[p]));
      if (!std::is_sorted(run.begin(), run.end(), by_begin)) {
        std::sort(run.begin(), run.end(), by_begin);
        ++sorted_runs;
      }
      const RawBlock* prev = nullptr;  // the last block swept; ends at M
      const auto sweep = [&](std::int32_t b) {
        RawBlock& cur = raw.blocks[static_cast<std::size_t>(b)];
        if (prev != nullptr && cur.begin < prev->end) {
          report.add(DiagCode::ClampedTimestamp, Severity::Warning,
                     cat("block ", cur.id, " began at t=", cur.begin,
                         " inside block ", prev->id, " on proc ", cur.proc,
                         "; begin clamped to t=", prev->end));
          cur.begin = prev->end;
          if (cur.end < cur.begin) cur.end = cur.begin;
          moved_any = true;
        }
        prev = &cur;
      };
      std::size_t next = 0;
      while (next < run.size() || !waiting.empty()) {
        while (next < run.size() && prev != nullptr &&
               raw.blocks[static_cast<std::size_t>(run[next])].end <=
                   prev->end) {
          waiting.push_back(run[next++]);
          std::push_heap(waiting.begin(), waiting.end(), std::greater<>());
        }
        const bool tie =
            next < run.size() && prev != nullptr &&
            raw.blocks[static_cast<std::size_t>(run[next])].begin <=
                prev->end;
        ready.clear();
        while (!waiting.empty() && (!tie || waiting.front() < run[next])) {
          std::pop_heap(waiting.begin(), waiting.end(), std::greater<>());
          ready.push_back(waiting.back());
          waiting.pop_back();
        }
        std::sort(ready.begin(), ready.end(), by_begin);
        for (std::int32_t b : ready) sweep(b);
        if (next < run.size()) sweep(run[next++]);
      }
    }
    OBS_COUNTER_ADD("trace/repair/overlap_sweeps", 1);
    OBS_COUNTER_ADD("trace/repair/sorted_proc_runs", sorted_runs);
    OBS_COUNTER_ADD("trace/repair/overlap_sweeps", 1);
    if (moved_any) {
      for (RawEvent& e : raw.events) {
        const RawBlock& blk = raw.blocks[static_cast<std::size_t>(e.block)];
        e.time = std::clamp(e.time, blk.begin, blk.end);
      }
    }
  }

  // --- causality: a recv may not precede its send -----------------------
  for (RawEvent& e : raw.events) {
    if (e.kind != EventKind::Recv || e.partner == kNone) continue;
    const RawEvent& s = raw.events[static_cast<std::size_t>(e.partner)];
    if (s.time <= e.time) continue;
    const RawBlock& blk = raw.blocks[static_cast<std::size_t>(e.block)];
    if (s.time <= blk.end) {
      report.add(DiagCode::ClampedTimestamp, Severity::Warning,
                 cat("recv ", e.id, " at t=", e.time,
                     " preceded its send; clamped to t=", s.time));
      e.time = s.time;
    } else {
      // Clamping would push the recv outside its block; the match cannot
      // be salvaged without breaking well-formedness.
      report.add(DiagCode::DroppedDanglingPartner, Severity::Warning,
                 cat("recv ", e.id, " precedes its send by more than its "
                     "block span; match dropped"));
      mark_degraded(blk.chare);
      mark_degraded(raw.blocks[static_cast<std::size_t>(s.block)].chare);
      e.partner = kNone;
    }
  }

  // --- idle spans: range, duplicates, per-proc overlap ------------------
  {
    std::vector<IdleSpan> kept;
    kept.reserve(raw.idles.size());
    for (IdleSpan s : raw.idles) {
      s.begin = clamp_time(s.begin, &clamped);
      s.end = clamp_time(s.end, &clamped);
      if (s.proc < 0 || s.proc >= proc_cap || s.end <= s.begin) {
        report.add(DiagCode::DroppedRecord, Severity::Warning,
                   cat("idle span on proc ", s.proc,
                       " dropped (empty or invalid)"));
        continue;
      }
      raw.num_procs = std::max(raw.num_procs, s.proc + 1);
      kept.push_back(s);
    }
    // Overlap/duplicate pass over a (proc, begin) sorted view; output
    // order stays the file order (write_trace round-trips).
    std::vector<std::int32_t> order(kept.size());
    for (std::size_t i = 0; i < order.size(); ++i)
      order[i] = static_cast<std::int32_t>(i);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::int32_t a, std::int32_t b) {
                       const IdleSpan& x = kept[static_cast<std::size_t>(a)];
                       const IdleSpan& y = kept[static_cast<std::size_t>(b)];
                       if (x.proc != y.proc) return x.proc < y.proc;
                       if (x.begin != y.begin) return x.begin < y.begin;
                       return x.end < y.end;
                     });
    std::vector<char> drop(kept.size(), 0);
    for (std::size_t i = 1; i < order.size(); ++i) {
      IdleSpan& prev = kept[static_cast<std::size_t>(order[i - 1])];
      IdleSpan& cur = kept[static_cast<std::size_t>(order[i])];
      if (cur.proc != prev.proc) continue;
      if (cur.begin == prev.begin && cur.end == prev.end) {
        report.add(DiagCode::DeduplicatedRecord, Severity::Warning,
                   cat("duplicate idle span on proc ", cur.proc,
                       " dropped"));
        drop[static_cast<std::size_t>(order[i])] = 1;
        // Keep prev as the comparison anchor for the next span.
        order[i] = order[i - 1];
        continue;
      }
      if (cur.begin < prev.end) {
        if (cur.end <= prev.end) {
          report.add(DiagCode::DroppedRecord, Severity::Warning,
                     cat("idle span on proc ", cur.proc,
                         " nested inside another; dropped"));
          drop[static_cast<std::size_t>(order[i])] = 1;
          order[i] = order[i - 1];
        } else {
          report.add(DiagCode::ClampedTimestamp, Severity::Warning,
                     cat("overlapping idle spans on proc ", cur.proc,
                         "; begin clamped to t=", prev.end));
          cur.begin = prev.end;
        }
      }
    }
    std::vector<IdleSpan> out;
    out.reserve(kept.size());
    for (std::size_t i = 0; i < kept.size(); ++i)
      if (!drop[i]) out.push_back(kept[i]);
    raw.idles = std::move(out);
  }

  // --- collectives: remap members, enforce member kinds -----------------
  {
    std::vector<RawCollective> kept;
    kept.reserve(raw.collectives.size());
    for (RawCollective& coll : raw.collectives) {
      RawCollective fixed;
      auto remap_members = [&](const std::vector<std::int64_t>& in,
                               EventKind want,
                               std::vector<std::int64_t>& out) {
        for (std::int64_t m : in) {
          const std::int32_t member = lookup(event_remap, m);
          if (member == kNone ||
              raw.events[static_cast<std::size_t>(member)].kind != want) {
            report.add(DiagCode::DanglingReference, Severity::Warning,
                       cat("collective member ", m,
                           " lost or wrong kind; dropped"));
            continue;
          }
          out.push_back(member);
        }
      };
      remap_members(coll.sends, EventKind::Send, fixed.sends);
      remap_members(coll.recvs, EventKind::Recv, fixed.recvs);
      if (fixed.sends.empty() && fixed.recvs.empty()) {
        if (!coll.sends.empty() || !coll.recvs.empty())
          report.add(DiagCode::DroppedRecord, Severity::Warning,
                     "collective dropped: every member was lost");
        continue;
      }
      kept.push_back(std::move(fixed));
    }
    raw.collectives = std::move(kept);
  }

  if (clamped > 0)
    report.add(DiagCode::ClampedTimestamp, Severity::Warning,
               cat(clamped, " timestamp(s) outside the sane range were "
                   "clamped"));

  // Stash the densified metadata back through the raw record vectors so
  // build_trace can move it out.
  raw.arrays.clear();
  for (std::size_t i = 0; i < arrays.size(); ++i)
    raw.arrays.push_back({static_cast<std::int64_t>(i),
                          std::move(arrays[i])});
  raw.chares.clear();
  for (std::size_t i = 0; i < chares.size(); ++i)
    raw.chares.push_back({static_cast<std::int64_t>(i),
                          std::move(chares[i])});
  raw.entries.clear();
  for (std::size_t i = 0; i < entries.size(); ++i)
    raw.entries.push_back({static_cast<std::int64_t>(i),
                           std::move(entries[i])});

  // Degraded set: bound-check, dedup.
  std::erase_if(raw.degraded_chares, [&](std::int64_t c) {
    if (c >= 0 && static_cast<std::size_t>(c) < raw.chares.size())
      return false;
    report.add(DiagCode::DanglingReference, Severity::Warning,
               cat("degraded flag for unknown chare ", c, " dropped"));
    return true;
  });
  std::sort(raw.degraded_chares.begin(), raw.degraded_chares.end());
  raw.degraded_chares.erase(std::unique(raw.degraded_chares.begin(),
                                        raw.degraded_chares.end()),
                            raw.degraded_chares.end());
}

Trace build_trace(RawTrace&& raw, int threads) {
  Trace trace;
  trace.num_procs_ = raw.num_procs;
  trace.arrays_.reserve(raw.arrays.size());
  for (auto& r : raw.arrays) trace.arrays_.push_back(std::move(r.info));
  trace.chares_.reserve(raw.chares.size());
  for (auto& r : raw.chares) trace.chares_.push_back(std::move(r.info));
  trace.entries_.reserve(raw.entries.size());
  for (auto& r : raw.entries) trace.entries_.push_back(std::move(r.info));

  if (raw.columnar) {
    trace.blocks_ = std::move(raw.block_rows);
    trace.events_ = std::move(raw.event_rows);
  } else {
    trace.blocks_.reserve(raw.blocks.size());
    for (const RawBlock& b : raw.blocks) {
      LS_CHECK_MSG(b.chare >= 0 && static_cast<std::size_t>(b.chare) <
                                       trace.chares_.size(),
                   "build_trace: unrepaired chare reference");
      LS_CHECK_MSG(b.entry >= 0 && static_cast<std::size_t>(b.entry) <
                                       trace.entries_.size(),
                   "build_trace: unrepaired entry reference");
      SerialBlock blk;
      blk.chare = static_cast<ChareId>(b.chare);
      blk.proc = b.proc;
      blk.entry = static_cast<EntryId>(b.entry);
      blk.begin = b.begin;
      blk.end = b.end;
      trace.blocks_.push_back(blk);
    }
    trace.events_.reserve(raw.events.size());
    for (const RawEvent& re : raw.events) {
      LS_CHECK_MSG(re.block >= 0 && static_cast<std::size_t>(re.block) <
                                        trace.blocks_.size(),
                   "build_trace: unrepaired block reference");
      Event e;
      e.kind = re.kind;
      e.time = re.time;
      e.block = static_cast<BlockId>(re.block);
      e.partner = static_cast<EventId>(re.partner);
      trace.events_.push_back(e);
    }
  }

  // Each event takes its chare and proc from its block; a send's partner
  // is rebuilt below. The trigger is each block's first receive in
  // (time, id) order — the same event the historical stable-sort-by-time
  // pass picked, found here with a single argmin scan (the freeze sorts
  // the within-block event lists itself).
  for (std::size_t i = 0; i < trace.events_.size(); ++i) {
    Event& e = trace.events_[i];
    SerialBlock& blk = trace.blocks_[static_cast<std::size_t>(e.block)];
    e.chare = blk.chare;
    e.proc = blk.proc;
    if (e.kind != EventKind::Recv) {
      e.partner = kNone;
      continue;
    }
    if (blk.trigger == kNone ||
        e.time < trace.events_[static_cast<std::size_t>(blk.trigger)].time)
      blk.trigger = static_cast<EventId>(i);
  }

  // Send-side matching rebuilt from the recv side, in recv id order: a
  // send's partner is its first receiver.
  for (EventId id = 0; id < static_cast<EventId>(trace.events_.size());
       ++id) {
    Event& e = trace.events_[static_cast<std::size_t>(id)];
    if (e.kind != EventKind::Recv || e.partner == kNone) continue;
    LS_CHECK_MSG(e.partner >= 0 && static_cast<std::size_t>(e.partner) <
                                       trace.events_.size(),
                 "build_trace: unrepaired partner reference");
    Event& s = trace.events_[static_cast<std::size_t>(e.partner)];
    LS_CHECK_MSG(s.kind == EventKind::Send,
                 "build_trace: unrepaired partner kind");
    if (s.partner == kNone) s.partner = id;
    // Fan-out rows are rebuilt from the recv side at freeze time.
  }

  trace.collectives_.reserve(raw.collectives.size());
  for (const RawCollective& coll : raw.collectives) {
    Collective c;
    c.sends.reserve(coll.sends.size());
    for (std::int64_t s : coll.sends)
      c.sends.push_back(static_cast<EventId>(s));
    c.recvs.reserve(coll.recvs.size());
    for (std::int64_t r : coll.recvs)
      c.recvs.push_back(static_cast<EventId>(r));
    trace.collectives_.push_back(std::move(c));
  }

  trace.idles_ = std::move(raw.idles);

  if (!raw.degraded_chares.empty()) {
    trace.degraded_chare_.assign(trace.chares_.size(), 0);
    for (std::int64_t c : raw.degraded_chares) {
      if (c >= 0 && static_cast<std::size_t>(c) < trace.chares_.size())
        trace.degraded_chare_[static_cast<std::size_t>(c)] = 1;
    }
  }

  trace.freeze(threads);
  return trace;
}

}  // namespace logstruct::trace
