// Packet-level flow drivers.
//
// A driver turns a FlowSpec into a scheduled packet stream feeding a sink
// (usually a host's egress link, or a Blink pipeline directly).
//
//  * LegitFlowDriver sends fresh in-order TCP segments for the flow's
//    lifetime, then a FIN. On `enter_failure_mode()` it starts
//    retransmitting its last segment with exponential RTO backoff — the
//    genuine signal Blink listens for.
//  * MaliciousFlowDriver implements the §3.1 attacker: it stays active
//    forever and emits one segment every `spec.pkt_interval`, sending
//    each sequence number twice, so any cell it occupies both never
//    expires and always looks like it is retransmitting. No TCP
//    handshake is ever performed, matching the paper's observation that
//    none is needed.
//  * FlowPopulation owns a whole workload: `add_trace` adds a synthetic
//    legitimate trace, `add_bots` the attacker's botnet.
#pragma once

#include <deque>
#include <functional>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "trafficgen/flow.hpp"
#include "trafficgen/synth.hpp"

namespace intox::trafficgen {

using PacketSink = std::function<void(net::Packet)>;

class LegitFlowDriver {
 public:
  LegitFlowDriver(sim::Scheduler& sched, sim::Rng rng, FlowSpec spec,
                  PacketSink sink);

  /// Schedules the flow's first packet at spec.start.
  void start();
  /// Switches to RTO-driven retransmission of the last segment (a real
  /// path failure as seen from the sender).
  void enter_failure_mode();
  /// Returns to normal transmission (path repaired).
  void exit_failure_mode();
  void stop();

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] const FlowSpec& spec() const { return spec_; }

 private:
  void send_next();
  void send_retransmission();
  net::Packet make_packet(std::uint32_t seq, bool fin = false) const;

  sim::Scheduler& sched_;
  sim::Rng rng_;
  FlowSpec spec_;
  PacketSink sink_;
  std::uint32_t next_seq_ = 1000;
  std::uint32_t last_sent_seq_ = 1000;
  sim::Duration rto_ = sim::seconds(1);
  bool failure_mode_ = false;
  bool finished_ = false;
  sim::Scheduler::EventId pending_;
};

class MaliciousFlowDriver {
 public:
  /// `spec.pkt_interval` is the gap between consecutive segments and
  /// must be positive. Every segment is a fresh chance to capture a freed
  /// selector cell, so the attacker spaces them evenly (back-to-back
  /// duplicates would halve the capture rate) at the legitimate per-flow
  /// rate, well below the victim's 2 s eviction timeout.
  MaliciousFlowDriver(sim::Scheduler& sched, sim::Rng rng, FlowSpec spec,
                      PacketSink sink);

  void start();
  void stop();

  [[nodiscard]] const FlowSpec& spec() const { return spec_; }

 private:
  void send_one();

  /// Each sequence number goes out on this many consecutive sends before
  /// advancing; two makes every pair look retransmitted.
  static constexpr int kRepeatsPerSeq = 2;

  sim::Scheduler& sched_;
  sim::Rng rng_;
  FlowSpec spec_;
  PacketSink sink_;
  std::uint32_t seq_ = 5000;
  int sends_of_current_seq_ = 0;
  bool running_ = false;
  sim::Scheduler::EventId pending_;
};

/// Owns and runs a whole population of drivers — the shape every Blink
/// experiment uses.
class FlowPopulation {
 public:
  FlowPopulation(sim::Scheduler& sched, sim::Rng rng, PacketSink sink);

  void add_legit(const FlowSpec& spec);
  void add_malicious(const FlowSpec& spec);
  /// Adds every flow of `synthesize_trace(config, rng)` as a legitimate
  /// driver.
  void add_trace(const TraceConfig& config, sim::Rng rng);
  /// Adds every flow of `synthesize_malicious_flows(config, count, start,
  /// rng, first_id)` as a malicious driver. Drivers fork the population's
  /// Rng by insertion index, so call `add_trace` first: legitimate flows
  /// then keep indices 0..L-1 and bots L..L+M-1.
  void add_bots(const TraceConfig& config, std::size_t count,
                sim::Time start, sim::Rng rng, std::uint64_t first_id);
  void start_all();
  /// Puts every currently-unfinished legitimate flow into failure mode.
  void fail_all_legit();
  void stop_all();

  [[nodiscard]] std::size_t legit_count() const { return legit_.size(); }
  [[nodiscard]] std::size_t malicious_count() const {
    return malicious_.size();
  }

 private:
  sim::Scheduler& sched_;
  sim::Rng rng_;
  PacketSink sink_;
  std::uint64_t next_fork_ = 0;
  // By-value driver pools: deque keeps element addresses stable (the
  // drivers' scheduled closures capture `this`) while storing them in
  // contiguous chunks instead of one heap allocation per flow, so the
  // start_all/fail_all sweeps walk dense memory.
  std::deque<LegitFlowDriver> legit_;
  std::deque<MaliciousFlowDriver> malicious_;
};

}  // namespace intox::trafficgen
