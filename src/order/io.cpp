#include "order/io.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace logstruct::order {

namespace {
constexpr const char* kMagic = "lstruct";
constexpr int kVersion = 1;
}  // namespace

void write_structure(const LogicalStructure& ls, std::ostream& out) {
  out << kMagic << ' ' << kVersion << '\n';
  out << "counts " << ls.phases.phase_of_event.size() << ' '
      << ls.num_phases() << ' ' << ls.max_step << ' ' << ls.order_conflicts
      << ' ' << ls.phases.initial_partitions << ' ' << ls.phases.merges
      << '\n';
  for (std::int32_t p = 0; p < ls.num_phases(); ++p) {
    out << "phase " << p << ' '
        << (ls.phases.runtime[static_cast<std::size_t>(p)] ? 1 : 0) << ' '
        << ls.phases.leap[static_cast<std::size_t>(p)] << ' '
        << ls.phase_offset[static_cast<std::size_t>(p)] << ' '
        << ls.phase_height[static_cast<std::size_t>(p)] << '\n';
  }
  for (auto [u, v] : ls.phases.dag.edges())
    out << "edge " << u << ' ' << v << '\n';
  // Per event: phase, local step, w. One line per event keeps the format
  // greppable; global step is offset + local.
  for (std::size_t e = 0; e < ls.phases.phase_of_event.size(); ++e) {
    out << "e " << ls.phases.phase_of_event[e] << ' ' << ls.local_step[e]
        << ' ' << ls.w[e] << '\n';
  }
  out << "end\n";
}

LogicalStructure read_structure(std::istream& in,
                                const trace::Trace& trace) {
  std::string word;
  int version = 0;
  in >> word >> version;
  if (word != kMagic || version != kVersion)
    throw std::runtime_error("lstruct: bad header");

  LogicalStructure ls;
  std::size_t num_events = 0;
  std::int32_t num_phases = 0;
  in >> word;
  if (word != "counts") throw std::runtime_error("lstruct: missing counts");
  in >> num_events >> num_phases >> ls.max_step >> ls.order_conflicts >>
      ls.phases.initial_partitions >> ls.phases.merges;
  if (num_events != static_cast<std::size_t>(trace.num_events()))
    throw std::runtime_error(
        "lstruct: structure does not match the trace (event count)");

  ls.phases.runtime.assign(static_cast<std::size_t>(num_phases), false);
  ls.phases.leap.assign(static_cast<std::size_t>(num_phases), 0);
  ls.phase_offset.assign(static_cast<std::size_t>(num_phases), 0);
  ls.phase_height.assign(static_cast<std::size_t>(num_phases), 0);
  ls.phases.events.resize(static_cast<std::size_t>(num_phases));
  ls.phases.dag.reset(num_phases);
  ls.phases.phase_of_event.assign(num_events, -1);
  ls.local_step.assign(num_events, 0);
  ls.global_step.assign(num_events, 0);
  ls.w.assign(num_events, 0);

  std::size_t next_event = 0;
  bool saw_end = false;
  while (in >> word) {
    if (word == "phase") {
      std::size_t id;
      int runtime;
      in >> id;
      if (id >= static_cast<std::size_t>(num_phases))
        throw std::runtime_error("lstruct: phase id out of range");
      in >> runtime >> ls.phases.leap[id] >> ls.phase_offset[id] >>
          ls.phase_height[id];
      ls.phases.runtime[id] = runtime != 0;
    } else if (word == "edge") {
      graph::NodeId u, v;
      in >> u >> v;
      if (u < 0 || v < 0 || u >= num_phases || v >= num_phases)
        throw std::runtime_error("lstruct: edge out of range");
      ls.phases.dag.add_edge(u, v);
    } else if (word == "e") {
      if (next_event >= num_events)
        throw std::runtime_error("lstruct: too many event records");
      std::int32_t phase;
      in >> phase >> ls.local_step[next_event] >> ls.w[next_event];
      if (phase < 0 || phase >= num_phases)
        throw std::runtime_error("lstruct: event phase out of range");
      ls.phases.phase_of_event[next_event] = phase;
      ++next_event;
    } else if (word == "end") {
      saw_end = true;
      break;
    } else {
      throw std::runtime_error("lstruct: unknown record '" + word + "'");
    }
    if (!in) throw std::runtime_error("lstruct: parse error");
  }
  if (!saw_end || next_event != num_events)
    throw std::runtime_error("lstruct: truncated file");
  ls.phases.dag.finalize();

  // Re-derive trace-dependent views; visiting events in time order leaves
  // every phase's event list in Trace::before order.
  for (trace::EventId e : trace.by_time()) {
    auto ph = static_cast<std::size_t>(
        ls.phases.phase_of_event[static_cast<std::size_t>(e)]);
    ls.global_step[static_cast<std::size_t>(e)] =
        ls.phase_offset[ph] + ls.local_step[static_cast<std::size_t>(e)];
    ls.phases.events[ph].push_back(e);
  }

  // Degraded quarantine flags are a pure function of trace + membership,
  // so they are re-derived here rather than serialized.
  ls.phases.degraded.assign(static_cast<std::size_t>(num_phases), false);
  ls.phases.degraded_phases = 0;
  if (trace.num_degraded_chares() > 0) {
    for (std::size_t ph = 0; ph < ls.phases.events.size(); ++ph) {
      for (trace::EventId e : ls.phases.events[ph]) {
        if (trace.is_degraded_chare(trace.event(e).chare)) {
          ls.phases.degraded[ph] = true;
          ++ls.phases.degraded_phases;
          break;
        }
      }
    }
  }

  ls.chare_sequence.assign(static_cast<std::size_t>(trace.num_chares()),
                           {});
  for (trace::EventId e = 0; e < trace.num_events(); ++e)
    ls.chare_sequence[static_cast<std::size_t>(trace.event(e).chare)]
        .push_back(e);
  auto by_step = [&ls](trace::EventId a, trace::EventId b) {
    return ls.global_step[static_cast<std::size_t>(a)] <
           ls.global_step[static_cast<std::size_t>(b)];
  };
  ls.pos_in_chare.assign(num_events, 0);
  for (auto& seq : ls.chare_sequence) {
    std::sort(seq.begin(), seq.end(), by_step);
    for (std::size_t i = 0; i < seq.size(); ++i)
      ls.pos_in_chare[static_cast<std::size_t>(seq[i])] =
          static_cast<std::int32_t>(i);
  }
  return ls;
}

bool save_structure(const LogicalStructure& ls, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  write_structure(ls, f);
  return static_cast<bool>(f);
}

LogicalStructure load_structure(const std::string& path,
                                const trace::Trace& trace) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open structure file: " + path);
  return read_structure(f, trace);
}

}  // namespace logstruct::order
