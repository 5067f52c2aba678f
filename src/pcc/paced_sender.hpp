// The send path PCC and its Reno baseline share.
//
// A PacedSender frames UDP data packets, paces them at the rate its
// policy last set, keeps a send record per sequence number, smooths the
// RTT from ACKs and records every rate it is set to. A subclass keeps
// only the rate decision: PccSender's monitor-interval experiments or
// RenoSender's per-RTT AIMD epochs (genericCC's CCC split, SNIPPETS.md
// snippet 3). The policy hooks are one virtual call per packet sent and
// one per ACK matched.
#pragma once

#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "pcc/monitor.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"

namespace intox::pcc {

class PacedSender {
 public:
  using PacketSink = std::function<void(net::Packet)>;

  /// Send records kept: an ACK matches only if fewer than this many
  /// packets left after its own (see on_ack).
  static constexpr std::uint32_t kSendRingSize = 1u << 12;

  /// Publishes the largest ACK distance seen as the gauge
  /// pcc.send_ring.ack_distance_hwm.
  virtual ~PacedSender();
  // Scheduled closures hold `this`.
  PacedSender(const PacedSender&) = delete;
  PacedSender& operator=(const PacedSender&) = delete;

  /// Starts sending: the policy opens its first interval and decides
  /// when the first packet goes out.
  void start();
  /// Stops pacing and cancels the policy's interval timer.
  void stop();
  /// Feed an ACK for sequence number `seq` (from the receiver path).
  /// An ACK for a packet sent more than kSendRingSize sends ago raises an
  /// invariant: its record was overwritten, so its RTT sample and its
  /// interval credit would be lost.
  void on_ack(std::uint32_t seq, sim::Time now);

  [[nodiscard]] double smoothed_rtt_seconds() const { return srtt_s_; }
  /// Every pacing rate the policy set, stamped when it set it: PCC's
  /// per-MI rate (the §4.2 oscillation signal) or Reno's per-epoch rate.
  [[nodiscard]] const sim::TimeSeries& rate_series() const {
    return rate_series_;
  }

 protected:
  PacedSender(sim::Scheduler& sched, const SendConfig& config,
              net::FiveTuple flow, PacketSink sink);

  /// Opens the first interval; running_ is already set.
  virtual void on_start() = 0;
  /// Counts one packet about to go out. Returns the interval id its send
  /// record carries back to on_acked.
  virtual std::uint64_t on_send() = 0;
  /// An ACK matched the send record of a packet sent in `interval`.
  virtual void on_acked(std::uint64_t interval) = 0;

  [[nodiscard]] double pacing_rate_bps() const { return pacing_bps_; }
  /// Paces at `bps` from the next gap on, and records it.
  void set_pacing_rate(double bps);
  /// Sends one packet now, then arms the next send one gap later.
  void send_packet();
  void schedule_next_send();
  /// Bits on the wire per data packet: payload plus IPv4 and UDP headers.
  [[nodiscard]] double packet_bits() const {
    return static_cast<double>(send_config_.packet_payload_bytes + 28) * 8.0;
  }

  sim::Scheduler& sched_;
  const SendConfig send_config_;
  bool running_ = false;
  /// The policy's interval timer (PCC's MI end, Reno's epoch end).
  sim::Scheduler::EventId interval_event_;

 private:
  net::FiveTuple flow_;
  PacketSink sink_;
  double pacing_bps_;
  double srtt_s_;
  std::uint32_t next_seq_ = 1;
  /// Largest next_seq_ - seq over the ACKs of packets sent so far.
  std::uint32_t ack_distance_hwm_ = 0;
  /// Per-packet send records in a flat power-of-two ring indexed by
  /// seq & (kSendRingSize - 1). Sequence numbers are consecutive, so
  /// the ring always holds the most recent kSendRingSize sends; a
  /// record is cleared when its ACK arrives. Records of lost packets
  /// are overwritten one ring revolution (4096 packets) later. The
  /// scenarios' ACKs arrive at most a few hundred sends after their
  /// packet (pcc.send_ring.ack_distance_hwm), so lookups behave like a
  /// per-seq hash map that never leaks lost-packet entries.
  struct SendRecord {
    std::uint32_t seq = 0;  // 0 = empty (sequence numbers start at 1)
    std::uint64_t interval = 0;
    sim::Time sent_at = 0;
  };
  std::vector<SendRecord> send_ring_ = std::vector<SendRecord>(kSendRingSize);
  sim::Scheduler::EventId send_event_;
  sim::TimeSeries rate_series_;
};

}  // namespace intox::pcc
