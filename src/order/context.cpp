#include "order/context.hpp"

#include <numeric>
#include <type_traits>

#include "graph/leaps.hpp"
#include "util/check.hpp"
#include "util/csr.hpp"

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

const trace::SdagRelations& OrderContext::sdag() {
  if (!sdag_) sdag_ = trace::sdag_relations(*trace_);
  return *sdag_;
}

const BlockUnits& OrderContext::units() {
  if (units_) return *units_;
  // One counting scatter of the time order keyed by each event's block,
  // so every row comes out in Trace::before order without a comparison.
  const std::vector<trace::BlockId>& block = event_rows().block;
  BlockUnits& u = units_.emplace();
  util::csr_scatter(
      static_cast<std::size_t>(trace_->num_blocks()),
      [&](auto emit) {
        for (const trace::EventId e : by_time())
          emit(block[static_cast<std::size_t>(e)], e);
      },
      u.begin, u.flat);
  return u;
}

const std::vector<trace::BlockId>& OrderContext::unit_of_block() {
  if (opts_.partition.sdag_inference) return sdag().rep;
  if (identity_units_.empty()) {
    identity_units_.resize(static_cast<std::size_t>(trace_->num_blocks()));
    std::iota(identity_units_.begin(), identity_units_.end(), 0);
  }
  return identity_units_;
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
