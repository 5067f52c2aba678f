#include "pcc/experiment.hpp"

#include <memory>

#include "pcc/baseline_reno.hpp"
#include "pcc/receiver.hpp"
#include "sim/link.hpp"

namespace intox::pcc {

PccExperimentConfig default_oscillation_config() {
  PccExperimentConfig cfg;
  cfg.duration = sim::seconds(90);
  cfg.seed = 4;
  return cfg;
}

PccExperimentConfig default_fleet_config(std::size_t flows, bool attack) {
  PccExperimentConfig cfg;
  cfg.flows = flows;
  cfg.bottleneck_bps = 10e6 * static_cast<double>(flows);
  cfg.queue_limit_bytes = 64 * 1024 * static_cast<std::uint32_t>(flows);
  cfg.red_max_bytes = cfg.queue_limit_bytes;
  cfg.duration = sim::seconds(50);
  cfg.seed = 9;
  cfg.attack = attack;
  return cfg;
}

PccExperimentResult run_pcc_experiment(const PccExperimentConfig& config) {
  sim::Scheduler sched;

  // Destination-side accounting: delivered bytes per 100 ms bin.
  PccExperimentResult result;
  std::uint64_t bin_bytes = 0;
  const sim::Duration bin = sim::millis(100);
  std::function<void()> flush_bin = [&] {
    result.delivered_bps.record(sched.now(),
                                static_cast<double>(bin_bytes) * 8.0 /
                                    sim::to_seconds(bin));
    bin_bytes = 0;
    if (sched.now() < config.duration) sched.schedule_after(bin, flush_bin);
  };
  sched.schedule_after(bin, flush_bin);

  // Reverse path: one clean high-capacity link carrying all ACKs back; a
  // dispatcher hands each ACK to its sender by destination port.
  std::vector<std::unique_ptr<PacedSender>> senders;
  // The same senders, typed, when they are PCC: the MitM resolver and the
  // PCC-only result fields read them. Empty for the Reno baseline.
  std::vector<const PccSender*> pcc_senders;
  sim::LinkConfig reverse_cfg;
  reverse_cfg.rate_bps = 10e9;
  reverse_cfg.prop_delay = config.one_way_delay;
  sim::Link reverse{sched, reverse_cfg, [&](net::Packet ack) {
                      const auto* u = ack.udp();
                      if (!u || u->dst_port < 10000) return;
                      const std::size_t idx =
                          static_cast<std::size_t>(u->dst_port - 10000);
                      if (idx < senders.size()) {
                        senders[idx]->on_ack(
                            static_cast<std::uint32_t>(ack.flow_tag),
                            sched.now());
                      }
                    }};

  PccReceiver receiver{
      [&](net::Packet ack) { reverse.transmit(std::move(ack)); }};

  // Forward path: shared bottleneck into the receiver.
  sim::LinkConfig fwd_cfg;
  fwd_cfg.rate_bps = config.bottleneck_bps;
  fwd_cfg.prop_delay = config.one_way_delay;
  fwd_cfg.queue_limit_bytes = config.queue_limit_bytes;
  fwd_cfg.red_min_bytes = config.red_min_bytes;
  fwd_cfg.red_max_bytes = config.red_max_bytes;
  fwd_cfg.red_max_prob = config.red_max_prob;
  fwd_cfg.red_seed = config.seed ^ 0x9e3779b9ULL;
  sim::Link bottleneck{sched, fwd_cfg, [&](net::Packet data) {
                         bin_bytes += data.size_bytes();
                         receiver.on_data(data);
                       }};

  auto flow_tuple = [&](std::size_t i) {
    net::FiveTuple t;
    t.src = net::Ipv4Addr{172, 16, static_cast<std::uint8_t>(i >> 8),
                          static_cast<std::uint8_t>(i & 0xff)};
    t.dst = net::Ipv4Addr{10, 0, 0, 1};
    t.src_port = static_cast<std::uint16_t>(10000 + i);
    t.dst_port = 443;
    t.proto = net::IpProto::kUdp;
    return t;
  };

  auto into_bottleneck = [&](net::Packet p) {
    bottleneck.transmit(std::move(p));
  };

  for (std::size_t i = 0; i < config.flows; ++i) {
    if (config.kind == SenderKind::kPcc) {
      PccConfig pc = config.pcc;
      pc.seed = config.seed * 7919 + i;
      auto s = std::make_unique<PccSender>(sched, pc, flow_tuple(i),
                                           into_bottleneck);
      pcc_senders.push_back(s.get());
      senders.push_back(std::move(s));
    } else {
      senders.push_back(std::make_unique<RenoSender>(
          sched, config.pcc, flow_tuple(i), into_bottleneck));
    }
  }

  // Attacker on the bottleneck. In omniscient mode it keeps one tracker
  // per flow, resolved by source port.
  std::unique_ptr<PccMitm> mitm;
  if (config.attack) {
    auto resolver = [&](const net::Packet& p) -> const PccSender* {
      const auto* u = p.udp();
      if (!u || u->src_port < 10000) return nullptr;
      const std::size_t idx = static_cast<std::size_t>(u->src_port - 10000);
      return idx < pcc_senders.size() ? pcc_senders[idx] : nullptr;
    };
    mitm = std::make_unique<PccMitm>(sched, config.mitm,
                                     PccMitm::SenderResolver{resolver});
    mitm->attach(bottleneck);
  }

  for (auto& s : senders) s->start();
  sched.run_until(config.duration);
  for (auto& s : senders) s->stop();

  // Flow-0 rate series and late-window statistics.
  result.rate = senders[0]->rate_series();
  const sim::Time from = config.duration * 2 / 3;
  const sim::WindowStats rate = sim::window_stats(result.rate, from);
  result.mean_rate_bps = rate.mean;
  result.rate_cv = rate.cv;
  result.osc_amplitude = rate.amplitude;
  result.delivered_cv = sim::window_stats(result.delivered_bps, from).cv;
  if (!pcc_senders.empty()) {
    const PccSender& flow0 = *pcc_senders[0];
    result.inconclusive = flow0.inconclusive_experiments();
    result.decisions = flow0.decisions();
    result.mean_utility = sim::window_stats(flow0.utility_series(), from).mean;
  }
  if (mitm) {
    result.attacker_dropped = mitm->dropped();
    result.attacker_observed = mitm->observed();
  }
  return result;
}

}  // namespace intox::pcc
