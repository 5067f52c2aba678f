// Monitor-interval bookkeeping and sender configuration.
#pragma once

#include <cstdint>

#include "pcc/utility.hpp"
#include "sim/time.hpp"

namespace intox::pcc {

/// What the shared send path (PacedSender) and both rate policies read:
/// the rate bounds, the packet size and the RTT assumed before the first
/// ACK.
struct SendConfig {
  double initial_rate_bps = 2e6;
  double min_rate_bps = 0.25e6;
  double max_rate_bps = 1e9;
  std::uint32_t packet_payload_bytes = 1460;
  sim::Duration initial_rtt = sim::millis(50);
};

struct PccConfig : SendConfig {
  /// Experiment granularity: ε starts at epsilon_min and, on inconclusive
  /// experiments, grows by epsilon_min up to epsilon_max ("a threshold of
  /// 5%" — the bound the §4.2 attacker drives PCC to oscillate at).
  double epsilon_min = 0.01;
  double epsilon_max = 0.05;
  /// Monitor-interval length as a multiple of the smoothed RTT; PCC
  /// randomizes in [lo, hi) to resist (honest) periodic patterns.
  double mi_rtt_lo = 1.7;
  double mi_rtt_hi = 2.2;
  /// Grace period after an MI ends before it is evaluated (lets ACKs of
  /// in-flight packets arrive): multiple of smoothed RTT.
  double mi_grace_rtt = 1.2;
  UtilityParams utility_params{};
  std::uint64_t seed = 1;
};

enum class MiPhase {
  kStarting,    // doubling phase
  kUp,          // decision experiment, rate * (1 + eps)
  kDown,        // decision experiment, rate * (1 - eps)
  kAdjusting,   // moving in the decided direction
  kWaiting,     // experiment finished sending, results still in flight
};

struct MonitorInterval {
  std::uint64_t id = 0;
  MiPhase phase = MiPhase::kStarting;
  double rate_bps = 0.0;
  sim::Time start = 0;
  sim::Time end = 0;
  std::uint64_t sent = 0;
  std::uint64_t acked = 0;
  bool evaluated = false;

  [[nodiscard]] double loss() const {
    return sent == 0 ? 0.0
                     : static_cast<double>(sent - acked) /
                           static_cast<double>(sent);
  }
};

}  // namespace intox::pcc
