#include "sketch/flowradar.hpp"

#include <algorithm>

namespace intox::sketch {

FlowRadar::FlowRadar(const FlowRadarConfig& config)
    : config_(config),
      seen_(config.bloom_cells, config.bloom_hashes, config.seed),
      table_(config.table_cells) {}

void FlowRadar::add_packet(std::uint64_t flow) {
  if (!seen_.contains(flow)) {
    seen_.insert(flow);
    ++distinct_;
    for (std::uint32_t i = 0; i < config_.table_hashes; ++i) {
      Cell& c =
          table_[partitioned_index(flow, i, config_.table_hashes,
                                   table_.size(), config_.seed ^ 0xf10eu)];
      c.flow_xor ^= flow;
      c.flow_count += 1;
      c.packet_count += 1;
    }
  } else {
    for (std::uint32_t i = 0; i < config_.table_hashes; ++i) {
      Cell& c =
          table_[partitioned_index(flow, i, config_.table_hashes,
                                   table_.size(), config_.seed ^ 0xf10eu)];
      c.packet_count += 1;
    }
  }
}

DecodeResult FlowRadar::decode() const {
  std::vector<Cell> work = table_;
  DecodeResult result;
  std::unordered_map<std::uint64_t, std::uint64_t> flow_packets;

  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < work.size(); ++i) {
      if (work[i].flow_count != 1) continue;
      const std::uint64_t flow = work[i].flow_xor;
      // A pure cell names one flow; its packet count is recoverable by
      // the standard FlowRadar SolveSingle step: here every cell of the
      // flow carries the same per-flow count only once other flows are
      // removed, so we take the count at peel time.
      const std::uint64_t packets_here = work[i].packet_count;
      flow_packets[flow] = packets_here;
      for (std::uint32_t k = 0; k < config_.table_hashes; ++k) {
        Cell& c = work[partitioned_index(flow, k, config_.table_hashes,
                                        work.size(), config_.seed ^ 0xf10eu)];
        c.flow_xor ^= flow;
        c.flow_count -= 1;
        c.packet_count -= packets_here;
      }
      progress = true;
    }
  }

  // intox-analyze: allow(taint)  -- collection pass only; flows sorted below
  for (const auto& [flow, packets] : flow_packets) {
    result.flows.push_back({flow, packets});
  }
  // flow_packets iterates in hash order, which is implementation- and
  // seed-dependent; callers compare decoded sets byte-for-byte across
  // runs, so emit flows in id order.
  std::sort(result.flows.begin(), result.flows.end(),
            [](const DecodedFlow& a, const DecodedFlow& b) {
              return a.flow < b.flow;
            });
  for (const auto& c : work) {
    if (c.flow_count != 0) ++result.stuck_cells;
  }
  return result;
}

void FlowRadar::clear() {
  seen_.clear();
  table_.assign(table_.size(), Cell{});
  distinct_ = 0;
}

}  // namespace intox::sketch
