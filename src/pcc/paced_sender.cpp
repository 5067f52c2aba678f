#include "pcc/paced_sender.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "validate/invariant.hpp"

namespace intox::pcc {

PacedSender::PacedSender(sim::Scheduler& sched, const SendConfig& config,
                         net::FiveTuple flow, PacketSink sink)
    : sched_(sched), send_config_(config), flow_(flow),
      sink_(std::move(sink)), pacing_bps_(config.initial_rate_bps),
      srtt_s_(sim::to_seconds(config.initial_rtt)) {}

PacedSender::~PacedSender() {
  static obs::Gauge& ack_distance =
      obs::Registry::global().gauge("pcc.send_ring.ack_distance_hwm");
  if (ack_distance_hwm_) {
    ack_distance.update_max(static_cast<double>(ack_distance_hwm_));
  }
}

void PacedSender::start() {
  running_ = true;
  on_start();
}

void PacedSender::stop() {
  running_ = false;
  if (send_event_.valid()) sched_.cancel(send_event_);
  if (interval_event_.valid()) sched_.cancel(interval_event_);
}

void PacedSender::set_pacing_rate(double bps) {
  pacing_bps_ = bps;
  rate_series_.record(sched_.now(), bps);
}

void PacedSender::send_packet() {
  if (!running_) return;
  net::Packet p;
  p.src = flow_.src;
  p.dst = flow_.dst;
  net::UdpHeader u;
  u.src_port = flow_.src_port;
  u.dst_port = flow_.dst_port;
  p.l4 = u;
  p.payload_bytes = send_config_.packet_payload_bytes;
  // Sequence number travels in flow_tag's low bits for simplicity of the
  // UDP framing (both senders run their own sequencing above UDP).
  const std::uint32_t seq = next_seq_++;
  p.flow_tag = seq;
  send_ring_[seq & (kSendRingSize - 1)] =
      SendRecord{seq, on_send(), sched_.now()};
  sink_(std::move(p));
  schedule_next_send();
}

void PacedSender::schedule_next_send() {
  if (!running_) return;
  const double rate = std::max(pacing_bps_, send_config_.min_rate_bps);
  send_event_ = sched_.schedule_after(sim::seconds(packet_bits() / rate),
                                      [this] { send_packet(); });
}

void PacedSender::on_ack(std::uint32_t seq, sim::Time now) {
  if (seq != 0 && seq < next_seq_) {
    const std::uint32_t distance = next_seq_ - seq;
    ack_distance_hwm_ = std::max(ack_distance_hwm_, distance);
    INTOX_INVARIANT(distance <= kSendRingSize,
                    "ACK for seq %u arrived %u sends after it, past the "
                    "%u-record send ring",
                    seq, distance, kSendRingSize);
  }
  SendRecord& rec = send_ring_[seq & (kSendRingSize - 1)];
  // Never sent, overwritten or already acked (seq 0 would match an
  // empty slot).
  if (seq == 0 || rec.seq != seq) return;
  srtt_s_ = 0.9 * srtt_s_ + 0.1 * sim::to_seconds(now - rec.sent_at);
  const std::uint64_t interval = rec.interval;
  rec = SendRecord{};  // duplicate ACKs miss from here on
  on_acked(interval);
}

}  // namespace intox::pcc
