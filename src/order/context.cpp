#include "order/context.hpp"

#include <numeric>
#include <type_traits>

#include "graph/leaps.hpp"
#include "util/check.hpp"

namespace logstruct::order {

PartitionGraph& OrderContext::pg() {
  LS_CHECK_MSG(pg_.has_value(), "pass needs a partition graph before initial");
  return *pg_;
}

const PartitionGraph& OrderContext::pg() const {
  LS_CHECK_MSG(pg_.has_value(), "pass needs a partition graph before initial");
  return *pg_;
}

void OrderContext::set_pg(PartitionGraph&& pg) {
  pg_.emplace(std::move(pg));
  leaps_epoch_ = 0;
  groups_epoch_ = 0;
}

void OrderContext::release_pg() {
  pg_.reset();
  leaps_ = {};
  groups_ = {};
  leaps_epoch_ = 0;
  groups_epoch_ = 0;
}

const std::vector<std::int32_t>& OrderContext::leaps() {
  const std::uint64_t epoch = pg().epoch();
  if (leaps_epoch_ != epoch) {
    leaps_ = graph::compute_leaps(pg().dag());
    leaps_epoch_ = epoch;
  }
  return leaps_;
}

const std::vector<std::vector<graph::NodeId>>& OrderContext::leap_groups() {
  const std::uint64_t epoch = pg().epoch();
  if (groups_epoch_ != epoch) {
    groups_ = graph::group_by_leap(leaps());
    groups_epoch_ = epoch;
  }
  return groups_;
}

const std::vector<trace::EventId>& OrderContext::by_time() {
  if (!by_time_) by_time_ = trace_->events_by_time();
  return *by_time_;
}

const trace::SdagRelations& OrderContext::sdag() {
  if (!sdag_) sdag_ = trace::sdag_relations(*trace_);
  return *sdag_;
}

const BlockUnits& OrderContext::units(bool sdag_absorption) {
  auto& slot = sdag_absorption ? units_absorbed_ : units_raw_;
  if (slot) return *slot;
  if (sdag_absorption) {
    // Each event's block comes from an array the context already holds,
    // never from a second scan of the event column: the raw flavor's
    // unit_of_event when "initial" built it, else the event rows (a
    // context that only runs the stepping passes).
    const std::vector<trace::BlockId>& block =
        units_raw_ ? units_raw_->unit_of_event : event_rows().block;
    slot = compute_block_units(*trace_, sdag().rep, block, by_time());
    return *slot;
  }
  std::vector<trace::BlockId> rep(
      static_cast<std::size_t>(trace_->num_blocks()));
  std::iota(rep.begin(), rep.end(), 0);
  slot = compute_block_units(*trace_, std::move(rep), {}, by_time());
  return *slot;
}

const EventRows& OrderContext::event_rows() {
  if (!event_rows_) event_rows_ = order::event_rows(*trace_);
  return *event_rows_;
}

std::vector<std::pair<PartId, PartId>>& OrderContext::scratch_pairs() {
  scratch_pairs_.clear();
  return scratch_pairs_;
}

std::vector<std::pair<PartId, PartId>>& OrderContext::scratch_edges() {
  scratch_edges_.clear();
  return scratch_edges_;
}

std::int64_t OrderContext::arena_bytes() const {
  auto vec_bytes = [](const auto& v) {
    return static_cast<std::int64_t>(v.capacity() *
                                     sizeof(typename std::decay_t<
                                            decltype(v)>::value_type));
  };
  std::int64_t b = vec_bytes(scratch_pairs_) + vec_bytes(scratch_edges_) +
                   vec_bytes(leaps_) + vec_bytes(groups_);
  for (const auto& g : groups_) b += vec_bytes(g);
  return b;
}

}  // namespace logstruct::order
