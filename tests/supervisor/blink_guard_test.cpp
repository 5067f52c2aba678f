// BlinkRtoGuard: vetoes the §3.1 attack while letting genuine failures
// through, both at the selector level and end-to-end.
#include "supervisor/blink_guard.hpp"

#include <gtest/gtest.h>

#include "blink/attacker.hpp"

namespace intox::supervisor {
namespace {

using blink::FlowSelector;

net::FiveTuple tuple(std::uint16_t port) {
  return {net::Ipv4Addr{1, 1, 1, 1}, net::Ipv4Addr{10, 0, 0, 1}, port, 80,
          net::IpProto::kTcp};
}

blink::BlinkConfig cfg16() {
  blink::BlinkConfig c;
  c.cells = 16;
  return c;
}

TEST(BlinkRtoGuard, AllowsFreshFailureSignature) {
  FlowSelector sel{cfg16()};
  // 16 flows send normally for a while, then all start retransmitting at
  // t=30 s with RTO spacing — a genuine failure.
  for (std::uint16_t i = 0; i < 16; ++i) {
    sel.observe(tuple(static_cast<std::uint16_t>(1000 + i)), i, 100, false,
                sim::seconds(29));
  }
  const sim::Time fail = sim::seconds(30);
  for (std::uint16_t i = 0; i < 16; ++i) {
    sel.observe(tuple(static_cast<std::uint16_t>(1000 + i)), i, 100, false,
                fail);
    sel.observe(tuple(static_cast<std::uint16_t>(1000 + i)), i, 100, false,
                fail + sim::seconds(1));
  }
  BlinkRtoGuard guard;
  const auto a = guard.assess(sel, fail + sim::seconds(1));
  EXPECT_TRUE(a.allowed());
  EXPECT_LT(a.risk, 0.25);
}

TEST(BlinkRtoGuard, VetoesContinuousEmitters) {
  FlowSelector sel{cfg16()};
  // Attack flows retransmitting every 500 ms for half a minute.
  sim::Time t = 0;
  for (int round = 0; round < 60; ++round) {
    for (std::uint16_t i = 0; i < 16; ++i) {
      sel.observe(tuple(static_cast<std::uint16_t>(1000 + i)), i,
                  static_cast<std::uint32_t>(round / 2), false, t);
    }
    t += sim::millis(500);
  }
  BlinkRtoGuard guard;
  const auto a = guard.assess(sel, t);
  EXPECT_FALSE(a.allowed());
  EXPECT_GT(a.risk, 0.5);
  EXPECT_EQ(guard.stats().denied, 1u);
}

TEST(BlinkRtoGuard, EmptySelectorIsLowRisk) {
  FlowSelector sel{cfg16()};
  BlinkRtoGuard guard;
  EXPECT_TRUE(guard.assess(sel, sim::seconds(1)).allowed());
}

TEST(BlinkRtoGuard, EndToEndAttackSuppressed) {
  // Full Fig.2-style packet-level attack with the guard installed: the
  // malicious majority forms, but the reroute is vetoed.
  // Paper-scale population: the malicious flow count must exceed the 64
  // cells for a majority capture to be possible at all.
  blink::Fig2Config cfg;
  cfg.trace.horizon = sim::seconds(240);
  cfg.seed = 8;

  // Run twice: without and with the guard.
  const auto undefended = blink::run_fig2_experiment(cfg);
  ASSERT_FALSE(undefended.reroutes.empty());

  // With guard: replicate the experiment wiring, guard installed.
  sim::Scheduler sched;
  sim::Rng rng{cfg.seed};
  blink::BlinkNode node{cfg.blink};
  node.monitor_prefix(cfg.trace.victim_prefix, 0, 1);
  BlinkRtoGuard guard;
  node.set_reroute_guard(guard.as_reroute_guard());

  auto sink = [&](net::Packet p) {
    dataplane::PipelineMetadata meta;
    node.process(p, meta, sched.now());
  };
  trafficgen::FlowPopulation pop{sched, rng.fork("drivers"), sink};
  pop.add_trace(cfg.trace, rng.fork("trace"));
  pop.add_bots(cfg.trace, cfg.malicious_flows, 0, rng.fork("malicious"),
               blink::kMaliciousTagBase);
  pop.start_all();
  sched.run_until(cfg.trace.horizon);
  pop.stop_all();

  EXPECT_TRUE(node.reroutes().empty());
  EXPECT_GT(node.vetoed(), 0u);
}

TEST(BlinkRtoGuard, EndToEndGenuineFailureStillReroutes) {
  // Legit-only population; a real failure at t=60 s must still trigger a
  // reroute with the guard installed (no false negative).
  sim::Scheduler sched;
  sim::Rng rng{13};
  blink::BlinkConfig bcfg;
  blink::BlinkNode node{bcfg};
  trafficgen::TraceConfig tcfg;
  tcfg.active_flows = 800;
  tcfg.horizon = sim::seconds(90);
  node.monitor_prefix(tcfg.victim_prefix, 0, 1);
  BlinkRtoGuard guard;
  node.set_reroute_guard(guard.as_reroute_guard());

  auto sink = [&](net::Packet p) {
    dataplane::PipelineMetadata meta;
    node.process(p, meta, sched.now());
  };
  trafficgen::FlowPopulation pop{sched, rng.fork("drivers"), sink};
  pop.add_trace(tcfg, rng.fork("trace"));
  pop.start_all();
  sched.schedule_at(sim::seconds(60), [&] { pop.fail_all_legit(); });
  sched.run_until(tcfg.horizon);
  pop.stop_all();

  ASSERT_FALSE(node.reroutes().empty());
  // Reroute decision happened within a few seconds of the failure.
  EXPECT_GE(node.reroutes()[0].when, sim::seconds(60));
  EXPECT_LT(node.reroutes()[0].when, sim::seconds(70));
  EXPECT_EQ(node.vetoed(), 0u);
}

}  // namespace
}  // namespace intox::supervisor
