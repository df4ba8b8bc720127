#include "trace/sdag.hpp"

#include <algorithm>
#include <numeric>

namespace logstruct::trace {

SdagRelations sdag_relations(const Trace& trace) {
  SdagRelations out;
  const auto num_blocks = static_cast<std::size_t>(trace.num_blocks());
  out.serial.resize(num_blocks);
  // The fields the absorption test reads, kept from the one scan so the
  // per-chare walk below reads no block again.
  struct BlockRow {
    EntryId entry;
    ProcId proc;
    TimeNs begin, end;
  };
  std::vector<BlockRow> rows(num_blocks);
  trace.blocks().for_each_chunk(
      [&](const SerialBlock* b, std::size_t n, std::size_t base) {
        for (std::size_t i = 0; i < n; ++i) {
          out.serial[base + i] = trace.entry(b[i].entry).sdag_serial;
          rows[base + i] = {b[i].entry, b[i].proc, b[i].begin, b[i].end};
        }
      });
  auto serial = [&out](BlockId b) {
    return out.serial[static_cast<std::size_t>(b)];
  };

  out.rep.resize(num_blocks);
  std::iota(out.rep.begin(), out.rep.end(), 0);
  for (ChareId c = 0; c < trace.num_chares(); ++c) {
    const auto blocks = trace.blocks_of_chare(c);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      // Absorption: the block right before a serial may be its `when`.
      if (i + 1 < blocks.size() && serial(blocks[i + 1]) >= 0) {
        const BlockRow& cb = rows[static_cast<std::size_t>(blocks[i])];
        const BlockRow& nb = rows[static_cast<std::size_t>(blocks[i + 1])];
        const EntryInfo& ne = trace.entry(nb.entry);
        const bool is_when =
            std::find(ne.when_entries.begin(), ne.when_entries.end(),
                      cb.entry) != ne.when_entries.end();
        // Same scheduler and "occurs right before a serial": contiguous
        // execution, no gap the scheduler could have filled.
        if (is_when && cb.proc == nb.proc && nb.begin == cb.end)
          out.rep[static_cast<std::size_t>(blocks[i])] = blocks[i + 1];
      }
      // Adjacency: the nearest later block of serial n+1; a new instance
      // of n restarts the scan.
      const std::int32_t n = serial(blocks[i]);
      if (n < 0) continue;
      for (std::size_t j = i + 1; j < blocks.size(); ++j) {
        const std::int32_t later = serial(blocks[j]);
        if (later == n + 1) {
          out.happened_before.emplace_back(blocks[i], blocks[j]);
          break;
        }
        if (later == n) break;
      }
    }
  }

  // Flatten chains (a when-block absorbed into a serial that is itself
  // never absorbed keeps this a single pass in practice, but be safe).
  for (std::size_t b = 0; b < num_blocks; ++b) {
    BlockId r = out.rep[b];
    while (out.rep[static_cast<std::size_t>(r)] != r)
      r = out.rep[static_cast<std::size_t>(r)];
    out.rep[b] = r;
  }
  return out;
}

}  // namespace logstruct::trace
