#include "trace/builder.hpp"

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace logstruct::trace {

ArrayId TraceBuilder::add_array(std::string name, bool runtime) {
  trace_.arrays_.push_back(ArrayInfo{std::move(name), runtime});
  return static_cast<ArrayId>(trace_.arrays_.size() - 1);
}

ChareId TraceBuilder::add_chare(std::string name, ArrayId array,
                                std::int32_t index, ProcId home,
                                bool runtime) {
  ChareInfo info;
  info.name = std::move(name);
  info.array = array;
  info.index = index;
  info.home = home;
  info.runtime = runtime;
  trace_.chares_.push_back(std::move(info));
  return static_cast<ChareId>(trace_.chares_.size() - 1);
}

EntryId TraceBuilder::add_entry(std::string name, bool runtime,
                                std::int32_t sdag_serial,
                                std::vector<EntryId> when_entries) {
  EntryInfo info;
  info.name = std::move(name);
  info.runtime = runtime;
  info.sdag_serial = sdag_serial;
  info.when_entries = std::move(when_entries);
  trace_.entries_.push_back(std::move(info));
  return static_cast<EntryId>(trace_.entries_.size() - 1);
}

BlockId TraceBuilder::begin_block(ChareId chare, ProcId proc, EntryId entry,
                                  TimeNs t) {
  LS_CHECK(chare >= 0 &&
           static_cast<std::size_t>(chare) < trace_.chares_.size());
  LS_CHECK(entry >= 0 &&
           static_cast<std::size_t>(entry) < trace_.entries_.size());
  SerialBlock blk;
  blk.chare = chare;
  blk.proc = proc;
  blk.entry = entry;
  blk.begin = t;
  blk.end = t;
  trace_.blocks_.push_back(std::move(blk));
  block_open_.push_back(true);
  return static_cast<BlockId>(trace_.blocks_.size() - 1);
}

EventId TraceBuilder::add_event(BlockId block, EventKind kind, TimeNs t) {
  LS_CHECK(block >= 0 &&
           static_cast<std::size_t>(block) < trace_.blocks_.size());
  LS_CHECK_MSG(block_open_[static_cast<std::size_t>(block)],
               "event added to a closed serial block");
  SerialBlock& blk = trace_.blocks_[static_cast<std::size_t>(block)];
  Event e;
  e.kind = kind;
  e.time = t;
  e.chare = blk.chare;
  e.proc = blk.proc;
  e.block = block;
  trace_.events_.push_back(e);
  const auto id = static_cast<EventId>(trace_.events_.size() - 1);
  // The block's trigger is its first receive in (time, id) order,
  // collective members included: the rule build_trace applies when it
  // reads a trace back, so a save/load round trip keeps the trigger.
  if (kind == EventKind::Recv &&
      (blk.trigger == kNone ||
       t < trace_.events_[static_cast<std::size_t>(blk.trigger)].time))
    blk.trigger = id;
  return id;
}

EventId TraceBuilder::add_recv(BlockId block, TimeNs t, EventId send) {
  // The first receive awakens the block (add_event makes it the
  // trigger); further receives are additional satisfied dependencies
  // (multi-dependency task models; Charm++ blocks only ever have one).
  EventId id = add_event(block, EventKind::Recv, t);
  if (send != kNone) {
    LS_CHECK(send >= 0 &&
             static_cast<std::size_t>(send) < trace_.events_.size());
    Event& s = trace_.events_[static_cast<std::size_t>(send)];
    LS_CHECK(s.kind == EventKind::Send);
    trace_.events_[static_cast<std::size_t>(id)].partner = send;
    // First receiver becomes the send's partner; later receivers of a
    // broadcast are recovered at freeze from their own partner fields.
    if (s.partner == kNone) s.partner = id;
  }
  return id;
}

EventId TraceBuilder::add_send(BlockId block, TimeNs t) {
  return add_event(block, EventKind::Send, t);
}

void TraceBuilder::end_block(BlockId block, TimeNs t) {
  LS_CHECK(block >= 0 &&
           static_cast<std::size_t>(block) < trace_.blocks_.size());
  LS_CHECK(block_open_[static_cast<std::size_t>(block)]);
  SerialBlock& blk = trace_.blocks_[static_cast<std::size_t>(block)];
  LS_CHECK_MSG(t >= blk.begin, "block ends before it begins");
  blk.end = t;
  block_open_[static_cast<std::size_t>(block)] = false;
}

void TraceBuilder::add_idle(ProcId proc, TimeNs begin, TimeNs end) {
  if (end <= begin) return;  // zero-length idles are noise
  trace_.idles_.push_back(IdleSpan{proc, begin, end});
}

void TraceBuilder::mark_degraded(ChareId chare) {
  if (chare < 0 || static_cast<std::size_t>(chare) >= trace_.chares_.size())
    return;
  if (trace_.degraded_chare_.size() < trace_.chares_.size())
    trace_.degraded_chare_.resize(trace_.chares_.size(), 0);
  trace_.degraded_chare_[static_cast<std::size_t>(chare)] = 1;
}

CollectiveId TraceBuilder::begin_collective() {
  trace_.collectives_.emplace_back();
  return static_cast<CollectiveId>(trace_.collectives_.size() - 1);
}

EventId TraceBuilder::add_collective_send(CollectiveId c, BlockId block,
                                          TimeNs t) {
  EventId id = add_event(block, EventKind::Send, t);
  trace_.collectives_[static_cast<std::size_t>(c)].sends.push_back(id);
  return id;
}

EventId TraceBuilder::add_collective_recv(CollectiveId c, BlockId block,
                                          TimeNs t) {
  EventId id = add_event(block, EventKind::Recv, t);
  trace_.collectives_[static_cast<std::size_t>(c)].recvs.push_back(id);
  return id;
}

Trace TraceBuilder::finish(std::int32_t num_procs, int threads) {
  OBS_SPAN(span, "trace/ingest");
  span.attr("events", num_events());
  span.attr("blocks", static_cast<std::int64_t>(trace_.blocks_.size()));
  span.attr("chares", static_cast<std::int64_t>(trace_.chares_.size()));
  OBS_COUNTER_ADD("trace/builder/events", num_events());
  OBS_COUNTER_ADD("trace/builder/blocks",
                  static_cast<std::int64_t>(trace_.blocks_.size()));
  for (std::size_t b = 0; b < block_open_.size(); ++b) {
    LS_CHECK_MSG(!block_open_[b], "finish() with an open serial block");
  }
  trace_.num_procs_ = num_procs;
  if (!trace_.degraded_chare_.empty())
    trace_.degraded_chare_.resize(trace_.chares_.size(), 0);
  trace_.freeze(threads);
  Trace out = std::move(trace_);
  trace_ = Trace{};
  block_open_.clear();
  return out;
}

}  // namespace logstruct::trace
