// TCP-Reno-flavoured AIMD baseline.
//
// PCC's paper (and ours) compares against "hardwired" congestion
// control: additive increase of one segment per RTT, multiplicative
// decrease on loss. It is rate-based and sends through the same
// PacedSender path as PccSender, so the benches can contrast how the two
// react to the same adversarial drops.
#pragma once

#include "pcc/paced_sender.hpp"

namespace intox::pcc {

class RenoSender : public PacedSender {
 public:
  RenoSender(sim::Scheduler& sched, const SendConfig& config,
             net::FiveTuple flow, PacketSink sink)
      : PacedSender(sched, config, flow, std::move(sink)) {}

 private:
  /// Loss is assessed over fixed epochs of one smoothed RTT (a
  /// rate-based stand-in for per-window dupack detection).
  static constexpr double kEpochRtts = 1.0;

  void on_start() override;
  std::uint64_t on_send() override {
    ++epoch_sent_;
    return 0;
  }
  void on_acked(std::uint64_t) override { ++epoch_acked_; }
  void arm_epoch();
  void close_epoch();

  bool slow_start_ = true;
  std::uint64_t epoch_sent_ = 0;
  std::uint64_t epoch_acked_ = 0;
  std::uint64_t prev_epoch_sent_ = 0;
};

}  // namespace intox::pcc
