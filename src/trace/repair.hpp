#pragma once

/// \file repair.hpp
/// Salvage-to-well-formedness: the RawTrace intermediate and repair().
///
/// Every text reader (io.hpp, projections.hpp, in either ReadOptions mode)
/// parses whatever lines survive into a RawTrace — records keep the ids
/// the file claimed, so dropped/duplicated/reordered lines are visible as
/// gaps and collisions. repair() then turns that salvage into data the
/// pipeline can trust:
///
///   - duplicate ids            -> later copies dropped (first one wins)
///   - gaps in metadata tables  -> placeholder arrays/chares/entries so
///                                 surviving references stay valid
///   - gaps in block/event ids  -> dense renumbering; references remapped
///   - dangling references      -> events of lost blocks dropped; lost
///                                 send/recv partners become kNone (the
///                                 untraced-dependency case the pipeline
///                                 already handles); the affected chares
///                                 are flagged degraded; degraded flags
///                                 naming unknown chares are dropped
///   - missing/invalid block end-> synthesized from the block's events
///   - out-of-order timestamps  -> clamped into the block span / after
///                                 the matching send
///   - duplicate idle spans and overlapping idles -> deduplicated/clamped
///
/// Every fix is counted in the RecoveryReport (and, via
/// RecoveryReport::export_counters, in the `trace/recovery/*` obs
/// counters). For well-formed input repair() is the identity and records
/// nothing, which is what lets a strict read succeed; build_trace() then
/// freezes exactly the Trace that was written. A clean .lstrace never
/// reaches the fixes: repair() verifies its column form in place and
/// build_trace() moves the rows (docs/ROBUSTNESS.md, "Checks first").

#include <cstdint>
#include <vector>

#include "trace/diagnostics.hpp"
#include "trace/event.hpp"
#include "trace/trace.hpp"

namespace logstruct::trace {

/// One metadata record as read, with the id the file claimed.
template <typename Info>
struct RawRecord {
  std::int64_t id = -1;
  Info info;
};

/// A serial block as read. `has_end` is false when the end marker was
/// lost (truncated PE log).
struct RawBlock {
  std::int64_t id = -1;
  std::int64_t chare = -1;
  ProcId proc = -1;
  std::int64_t entry = -1;
  TimeNs begin = 0;
  TimeNs end = 0;
  bool has_end = true;
};

/// A dependency event as read. `block` and `partner` are file-claimed ids.
struct RawEvent {
  std::int64_t id = -1;
  EventKind kind = EventKind::Send;
  TimeNs time = 0;
  std::int64_t block = -1;
  std::int64_t partner = -1;
};

/// A collective as read; members are file-claimed event ids.
struct RawCollective {
  std::vector<std::int64_t> sends;
  std::vector<std::int64_t> recvs;
};

/// The mutable pre-freeze representation every reader fills.
///
/// Blocks and events come in one of two forms. A reader that calls
/// add_block() / add_event() (the .lstrace parser) fills the column form:
/// `block_rows` and `event_rows`, in the layout Trace::freeze consumes,
/// for as long as each record's claimed id is its position and its
/// references fit 32 bits. The first record that does not lift()s the
/// rows into `blocks` and `events`, which then take every later record,
/// so a lifted RawTrace holds exactly what a reader pushing straight
/// into `blocks` and `events` (Projections, the blocked salvage) would.
struct RawTrace {
  std::int32_t num_procs = 0;
  std::vector<RawRecord<ArrayInfo>> arrays;
  std::vector<RawRecord<ChareInfo>> chares;
  std::vector<RawRecord<EntryInfo>> entries;
  std::vector<RawBlock> blocks;
  std::vector<RawEvent> events;
  std::vector<IdleSpan> idles;
  std::vector<RawCollective> collectives;
  /// Chares flagged degraded by the reader (repair() adds its own).
  std::vector<std::int64_t> degraded_chares;

  /// The column form; an event row's chare and proc are left for
  /// build_trace() to copy from its block. Used while `columnar`.
  bool columnar = false;
  std::vector<SerialBlock> block_rows;
  std::vector<Event> event_rows;

  /// Append one record as read: to the rows while it fits them,
  /// otherwise (after lift()) to `blocks` / `events`.
  void add_block(const RawBlock& b);
  void add_event(const RawEvent& e);
  /// Move the rows into `blocks` and `events` (claimed id = position)
  /// and leave the column form; a no-op when not `columnar`.
  void lift();
};

/// Make `raw` satisfy every structural rule trace::validate() checks.
/// Checks first: column-form input is verified in place, one pass over
/// each table, and when it holds nothing is copied or reported. Anything
/// else (or any failed check) is lifted and runs the salvage passes,
/// which record one diagnostic per fix. Safe on arbitrary salvage; a
/// no-op (zero fixes) on well-formed input.
void repair(RawTrace& raw, RecoveryReport& report);

/// Freeze a *repaired* RawTrace into a Trace; the column form's rows are
/// moved, not copied. Precondition: repair() ran (or the raw data came
/// from a well-formed file); violations of the structural rules here are
/// programming errors, not input errors.
/// `threads` fans out the freeze (0 = default parallelism).
Trace build_trace(RawTrace&& raw, int threads = 0);

}  // namespace logstruct::trace
