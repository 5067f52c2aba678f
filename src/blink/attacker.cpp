#include "blink/attacker.hpp"

#include <cmath>
#include <functional>

#include "obs/flightrec.hpp"

namespace intox::blink {

AttackPlan plan_attack(const BlinkConfig& config, std::size_t legit_flows,
                       double tr_seconds, double confidence) {
  const auto needed = static_cast<std::size_t>(
      config.failure_threshold * static_cast<double>(config.cells));
  const double t_budget = sim::to_seconds(config.sample_reset_period);

  const double qm_needed = min_qm_for_success(config.cells, t_budget,
                                              tr_seconds, needed, confidence);
  AttackPlan plan;
  // q_m = m / (legit + m)  =>  m = legit * q_m / (1 - q_m).
  plan.malicious_flows = static_cast<std::size_t>(
      std::ceil(static_cast<double>(legit_flows) * qm_needed /
                (1.0 - qm_needed)));
  plan.qm = static_cast<double>(plan.malicious_flows) /
            static_cast<double>(legit_flows + plan.malicious_flows);
  plan.expected_majority_time_s = time_to_expected_count(
      config.cells, plan.qm, tr_seconds, static_cast<double>(needed));
  plan.success_probability = attack_success_probability(
      config.cells, plan.qm, t_budget, tr_seconds, needed);
  return plan;
}

Fig2Config default_fig2_config(std::uint64_t trial) {
  Fig2Config config;
  config.seed = 1000 + trial;
  return config;
}

Fig2Result run_fig2_experiment(const Fig2Config& config) {
  sim::Scheduler sched;
  sim::Rng rng{config.seed};

  BlinkNode node{config.blink};
  // Ports are symbolic here — the experiment feeds the pipeline stage
  // directly instead of going through a switch, which is ~3x faster and
  // exercises identical Blink logic (the e2e bench covers the full path).
  node.monitor_prefix(config.trace.victim_prefix, /*primary=*/0, /*backup=*/1);

  auto sink = [&](net::Packet p) {
    dataplane::PipelineMetadata meta;
    node.process(p, meta, sched.now());
  };

  // Bots send at the legitimate per-flow packet rate, so a freed cell is
  // won by a malicious flow with probability ~= the flow fraction q_m.
  trafficgen::FlowPopulation pop{sched, rng.fork("drivers"), sink};
  pop.add_trace(config.trace, rng.fork("trace"));
  pop.add_bots(config.trace, config.malicious_flows, /*start=*/0,
               rng.fork("malicious"), kMaliciousTagBase);

  Fig2Result result;
  const FlowSelector* selector = node.selector(config.trace.victim_prefix);
  const auto majority = static_cast<std::size_t>(
      config.blink.failure_threshold * static_cast<double>(config.blink.cells));

  // Periodic sampling of the ground-truth malicious cell count.
  std::function<void()> sample = [&] {
    const std::size_t bad = selector->count_tagged(is_malicious_tag);
    result.malicious_sampled.record(sched.now(), static_cast<double>(bad));
    if (result.time_to_majority_seconds < 0 && bad >= majority) {
      result.time_to_majority_seconds = sim::to_seconds(sched.now());
    }
    if (sched.now() < config.trace.horizon) {
      sched.schedule_after(config.sample_interval, sample);
    }
  };
  sched.schedule_at(0, sample);

  obs::flightrec_record(
      obs::FrType::kAttackerAction, static_cast<std::uint64_t>(sched.now()),
      static_cast<std::uint64_t>(obs::FrAttackerKind::kBlinkFig2Start),
      config.malicious_flows, config.trace.active_flows);
  pop.start_all();
  sched.run_until(config.trace.horizon);
  pop.stop_all();

  result.measured_tr_seconds = selector->residency_stats().mean();
  result.reroutes = node.reroutes();
  return result;
}

}  // namespace intox::blink
