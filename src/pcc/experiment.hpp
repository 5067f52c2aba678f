// End-to-end PCC experiments (PCC-OSC and PCC-FLEET in DESIGN.md).
//
// Topology: N senders share a bottleneck link into one destination; ACKs
// return on a clean reverse path. The attacker (optional) sits on the
// bottleneck — the classic on-path MitM position.
#pragma once

#include <cstdint>
#include <vector>

#include "pcc/attacker.hpp"
#include "pcc/monitor.hpp"
#include "sim/stats.hpp"

namespace intox::pcc {

enum class SenderKind { kPcc, kReno };

struct PccExperimentConfig {
  std::size_t flows = 1;
  SenderKind kind = SenderKind::kPcc;
  double bottleneck_bps = 20e6;
  sim::Duration one_way_delay = sim::millis(20);
  std::uint32_t queue_limit_bytes = 64 * 1024;
  /// RED AQM on the bottleneck (enabled by default: a smooth loss ramp is
  /// what lets clean PCC settle; pure drop-tail cliffs force limit cycles
  /// in *any* loss-driven controller and would mask the attack effect).
  std::uint32_t red_min_bytes = 8 * 1024;
  std::uint32_t red_max_bytes = 64 * 1024;
  double red_max_prob = 0.25;
  sim::Duration duration = sim::seconds(120);
  bool attack = false;
  PccMitmConfig mitm{};
  /// Both sender kinds read its SendConfig fields; the rest is PCC's.
  PccConfig pcc{};
  std::uint64_t seed = 1;
};

struct PccExperimentResult {
  /// Flow 0's per-MI sending rate.
  sim::TimeSeries rate;
  /// Aggregate delivered throughput at the destination, 100 ms bins (bps).
  sim::TimeSeries delivered_bps;
  /// Convergence metrics over the last third of the run.
  double mean_rate_bps = 0.0;
  double rate_cv = 0.0;             // coefficient of variation of flow-0 rate
  double osc_amplitude = 0.0;       // (max-min)/(2*mean) of flow-0 rate
  double delivered_cv = 0.0;        // CV of aggregate arrivals (fleet metric)
  double mean_utility = 0.0;        // flow 0 (PCC only)
  std::uint64_t inconclusive = 0;   // flow 0 (PCC only)
  std::uint64_t decisions = 0;      // flow 0 (PCC only)
  std::uint64_t attacker_dropped = 0;
  std::uint64_t attacker_observed = 0;
};

PccExperimentResult run_pcc_experiment(const PccExperimentConfig& config);

/// The oscillation bench/scenario default: a 90 s run seeded for the
/// PCC-OSC table (clean vs MitM variants all derive from this one
/// config, so the comparison is apples-to-apples).
PccExperimentConfig default_oscillation_config();

/// The fleet bench/scenario default for `flows` senders: the bottleneck,
/// queue and RED ceiling scale linearly with the fleet so per-flow fair
/// share stays 10 Mb/s at every fleet size.
PccExperimentConfig default_fleet_config(std::size_t flows, bool attack);

}  // namespace intox::pcc
