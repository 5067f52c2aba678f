#include "pcc/baseline_reno.hpp"

#include <algorithm>

namespace intox::pcc {

// The first packet goes out at once; the first epoch closes one RTT later.
void RenoSender::on_start() {
  set_pacing_rate(send_config_.initial_rate_bps);
  send_packet();
  arm_epoch();
}

void RenoSender::arm_epoch() {
  interval_event_ =
      sched_.schedule_after(sim::seconds(smoothed_rtt_seconds() * kEpochRtts),
                            [this] { close_epoch(); });
}

void RenoSender::close_epoch() {
  if (!running_) return;
  // ACKs observed this epoch answer the *previous* epoch's sends (one
  // RTT in flight); compare against that cohort, with 2% slack for
  // boundary jitter. Fewer ACKs than expected => loss => multiplicative
  // decrease; otherwise additive increase of one segment per RTT.
  double rate = pacing_rate_bps();
  if (prev_epoch_sent_ > 0 &&
      epoch_acked_ + prev_epoch_sent_ / 50 < prev_epoch_sent_) {
    rate = std::max(rate / 2.0, send_config_.min_rate_bps);
    slow_start_ = false;
  } else if (slow_start_) {
    rate = std::min(rate * 2.0, send_config_.max_rate_bps);
  } else {
    rate = std::min(rate + packet_bits() / smoothed_rtt_seconds(),
                    send_config_.max_rate_bps);
  }
  set_pacing_rate(rate);
  prev_epoch_sent_ = epoch_sent_;
  epoch_sent_ = 0;
  epoch_acked_ = 0;
  arm_epoch();
}

}  // namespace intox::pcc
