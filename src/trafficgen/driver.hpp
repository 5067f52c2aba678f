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
//    legitimate trace, `add_bots` the attacker's botnet. It keeps every
//    legitimate flow's FlowSpec, but builds that flow's driver (a few KB,
//    mostly RNG state) only when the flow starts, in a slot it reuses
//    once the flow has sent its FIN. Live driver memory therefore follows
//    the number of concurrently active flows, not the trace length.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "trafficgen/flow.hpp"
#include "trafficgen/synth.hpp"

namespace intox::trafficgen {

using PacketSink = std::function<void(net::Packet)>;

class FlowPopulation;

class LegitFlowDriver {
 public:
  /// `spec.pkt_interval` is the mean gap between segments and must be
  /// positive; a driver with a non-positive interval sends nothing.
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
  // FlowPopulation builds drivers at their flow's start event, sends the
  // first segment itself and is told of the FIN.
  friend class FlowPopulation;

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
  // Set for drivers a FlowPopulation owns: the FIN hands flow `flow_`'s
  // slot back to `owner_`.
  FlowPopulation* owner_ = nullptr;
  std::size_t flow_ = 0;
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
  /// Publishes `live_high_water()` as the gauge
  /// trafficgen.population.live_hwm (retirement-time accounting, as the
  /// scheduler does for its totals).
  ~FlowPopulation();
  // Scheduled closures capture `this`.
  FlowPopulation(const FlowPopulation&) = delete;
  FlowPopulation& operator=(const FlowPopulation&) = delete;

  /// `spec.pkt_interval` must be positive; a flow that breaks this is
  /// kept (indices stay put) but never scheduled.
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
  /// Schedules one start event per legitimate flow at its spec.start, in
  /// insertion order, then starts the bots. A flow's start event builds
  /// its driver and sends the first segment.
  void start_all();
  /// Puts every unfinished legitimate flow into failure mode, in
  /// insertion order. Flows that have not started yet are built now.
  void fail_all_legit();
  void stop_all();

  [[nodiscard]] std::size_t legit_count() const { return legit_.size(); }
  [[nodiscard]] std::size_t malicious_count() const {
    return malicious_.size();
  }
  /// Most legitimate drivers that existed at once.
  [[nodiscard]] std::size_t live_high_water() const { return slots_.size(); }

 private:
  // `LegitFlow::slot` for a flow with no driver.
  static constexpr std::uint32_t kPending = UINT32_MAX;  // not started
  static constexpr std::uint32_t kDone = UINT32_MAX - 1;  // never again

  struct LegitFlow {
    FlowSpec spec;
    std::uint64_t fork = 0;          // index of the driver's rng_ substream
    sim::Scheduler::EventId start;   // start event, while kPending
    std::uint32_t slot = kPending;   // driver slot, kPending or kDone
  };

  // A driver's FIN calls release().
  friend class LegitFlowDriver;

  LegitFlowDriver& build(std::size_t flow);
  void release(std::size_t flow);

  sim::Scheduler& sched_;
  sim::Rng rng_;
  PacketSink sink_;
  std::uint64_t next_fork_ = 0;
  std::vector<LegitFlow> legit_;
  // Driver slots. A deque keeps their addresses stable (the drivers'
  // scheduled closures capture `this`); a FIN puts the slot on
  // `free_slots_`, and only a later build replaces its driver, never the
  // finishing driver's own callback.
  std::deque<std::optional<LegitFlowDriver>> slots_;
  std::vector<std::uint32_t> free_slots_;
  // Bots are few and live for the whole run, so they are built up front.
  std::deque<MaliciousFlowDriver> malicious_;
};

}  // namespace intox::trafficgen
