#include "trafficgen/driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <tuple>

#include "obs/metrics.hpp"
#include "validate/invariant.hpp"

namespace intox::trafficgen {
namespace {

FlowSpec legit_spec() {
  FlowSpec f;
  f.id = 1;
  f.tuple = {net::Ipv4Addr{1, 1, 1, 1}, net::Ipv4Addr{10, 0, 0, 1}, 5555, 80,
             net::IpProto::kTcp};
  f.start = sim::seconds(1);
  f.duration = sim::seconds(5);
  f.pkt_interval = sim::millis(100);
  return f;
}

TEST(LegitFlowDriver, SendsDuringLifetimeThenFin) {
  sim::Scheduler s;
  std::vector<net::Packet> pkts;
  LegitFlowDriver d{s, sim::Rng{1}, legit_spec(),
                    [&](net::Packet p) { pkts.push_back(std::move(p)); }};
  d.start();
  s.run();
  ASSERT_GT(pkts.size(), 10u);
  EXPECT_TRUE(pkts.back().tcp()->fin);
  for (std::size_t i = 0; i + 1 < pkts.size(); ++i) {
    EXPECT_FALSE(pkts[i].tcp()->fin);
  }
  EXPECT_TRUE(d.finished());
}

TEST(LegitFlowDriver, FreshSequenceNumbersWhenHealthy) {
  sim::Scheduler s;
  std::vector<std::uint32_t> seqs;
  LegitFlowDriver d{s, sim::Rng{2}, legit_spec(),
                    [&](net::Packet p) { seqs.push_back(p.tcp()->seq); }};
  d.start();
  s.run();
  for (std::size_t i = 1; i + 1 < seqs.size(); ++i) {  // skip FIN
    EXPECT_GT(seqs[i], seqs[i - 1]);
  }
}

TEST(LegitFlowDriver, FailureModeRetransmitsWithBackoff) {
  sim::Scheduler s;
  std::vector<std::pair<sim::Time, std::uint32_t>> sent;
  auto spec = legit_spec();
  spec.duration = sim::seconds(100);
  LegitFlowDriver d{s, sim::Rng{3}, spec, [&](net::Packet p) {
                      sent.push_back({s.now(), p.tcp()->seq});
                    }};
  d.start();
  s.run_until(sim::seconds(3));
  const auto healthy_count = sent.size();
  d.enter_failure_mode();
  s.run_until(sim::seconds(3) + sim::seconds(7));  // 1+2+4 = 7s of RTOs
  ASSERT_GE(sent.size(), healthy_count + 3);

  // All post-failure packets carry the same (retransmitted) seq.
  const std::uint32_t frozen = sent[healthy_count].second;
  for (std::size_t i = healthy_count; i < sent.size(); ++i) {
    EXPECT_EQ(sent[i].second, frozen);
  }
  // Inter-retransmit gaps double: 1 s then 2 s then 4 s.
  const auto gap1 = sent[healthy_count + 1].first - sent[healthy_count].first;
  const auto gap2 =
      sent[healthy_count + 2].first - sent[healthy_count + 1].first;
  EXPECT_EQ(gap1, sim::seconds(1));
  EXPECT_EQ(gap2, sim::seconds(2));
}

TEST(LegitFlowDriver, ExitFailureModeResumesFreshSeqs) {
  sim::Scheduler s;
  std::vector<std::uint32_t> seqs;
  auto spec = legit_spec();
  spec.duration = sim::seconds(60);
  LegitFlowDriver d{s, sim::Rng{4}, spec,
                    [&](net::Packet p) { seqs.push_back(p.tcp()->seq); }};
  d.start();
  s.run_until(sim::seconds(2));
  d.enter_failure_mode();
  s.run_until(sim::seconds(5));
  d.exit_failure_mode();
  const auto resumed_at = seqs.size();
  s.run_until(sim::seconds(8));
  ASSERT_GT(seqs.size(), resumed_at + 2);
  EXPECT_GT(seqs.back(), seqs[resumed_at]);
}

TEST(LegitFlowDriver, ZeroIntervalIsRejected) {
  // A zero interval would re-fire at one instant forever.
  sim::Scheduler s;
  int count = 0;
  auto spec = legit_spec();
  spec.pkt_interval = 0;
  {
    validate::ScopedInvariantMode mode{validate::InvariantMode::kThrow};
    EXPECT_THROW((LegitFlowDriver{s, sim::Rng{6}, spec,
                                  [&](net::Packet) { ++count; }}),
                 validate::InvariantError);
    FlowPopulation pop{s, sim::Rng{6}, [&](net::Packet) { ++count; }};
    EXPECT_THROW(pop.add_legit(spec), validate::InvariantError);
  }
  // Count mode continues on the degraded path: nothing is scheduled.
  validate::ScopedInvariantMode mode{validate::InvariantMode::kCount};
  validate::reset_invariant_violations();
  LegitFlowDriver d{s, sim::Rng{6}, spec, [&](net::Packet) { ++count; }};
  EXPECT_EQ(validate::invariant_violations(), 1u);
  d.start();
  EXPECT_EQ(s.pending(), 0u);

  validate::reset_invariant_violations();
  FlowPopulation pop{s, sim::Rng{6}, [&](net::Packet) { ++count; }};
  pop.add_legit(spec);
  EXPECT_EQ(validate::invariant_violations(), 1u);
  validate::reset_invariant_violations();
  EXPECT_EQ(pop.legit_count(), 1u);
  pop.start_all();
  pop.fail_all_legit();
  EXPECT_EQ(s.pending(), 0u);
  s.run_until(sim::seconds(10));
  EXPECT_EQ(count, 0);
  EXPECT_EQ(s.events_processed(), 0u);
  EXPECT_EQ(pop.live_high_water(), 0u);
}

TEST(MaliciousFlowDriver, EmitsDuplicatePairsForever) {
  sim::Scheduler s;
  std::map<std::uint32_t, int> seq_counts;
  std::vector<sim::Time> times;
  FlowSpec f;
  f.id = 9;
  f.tuple = {net::Ipv4Addr{6, 6, 6, 6}, net::Ipv4Addr{10, 0, 0, 2}, 6666, 80,
             net::IpProto::kTcp};
  f.start = 0;
  f.pkt_interval = sim::millis(250);
  MaliciousFlowDriver d{s, sim::Rng{5}, f, [&](net::Packet p) {
                          ++seq_counts[p.tcp()->seq];
                          times.push_back(s.now());
                        }};
  d.start();
  s.run_until(sim::seconds(10));
  d.stop();

  EXPECT_GE(seq_counts.size(), 18u);  // ~20 seqs in 10 s at 250 ms spacing
  std::size_t singles = 0;
  for (const auto& [seq, count] : seq_counts) {
    EXPECT_LE(count, 2) << "seq " << seq;
    singles += (count == 1);
  }
  // Every seq is sent exactly twice, except possibly the one in flight
  // when the driver was stopped.
  EXPECT_LE(singles, 1u);
  // Activity gaps never exceed Blink's 2 s eviction timeout.
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LT(times[i] - times[i - 1], sim::seconds(2));
  }
}

TEST(MaliciousFlowDriver, StopHalts) {
  sim::Scheduler s;
  int count = 0;
  FlowSpec f;
  f.tuple = {net::Ipv4Addr{6, 6, 6, 6}, net::Ipv4Addr{10, 0, 0, 2}, 1, 2,
             net::IpProto::kTcp};
  f.pkt_interval = sim::millis(250);
  MaliciousFlowDriver d{s, sim::Rng{6}, f, [&](net::Packet) { ++count; }};
  d.start();
  s.run_until(sim::seconds(2));
  const int at_stop = count;
  d.stop();
  s.run_until(sim::seconds(10));
  EXPECT_EQ(count, at_stop);
}

TEST(MaliciousFlowDriver, ZeroPeriodIsRejected) {
  // A zero period would re-fire at one instant forever.
  sim::Scheduler s;
  int count = 0;
  FlowSpec f;
  f.tuple = {net::Ipv4Addr{6, 6, 6, 6}, net::Ipv4Addr{10, 0, 0, 2}, 1, 2,
             net::IpProto::kTcp};
  {
    validate::ScopedInvariantMode mode{validate::InvariantMode::kThrow};
    EXPECT_THROW((MaliciousFlowDriver{s, sim::Rng{6}, f,
                                      [&](net::Packet) { ++count; }}),
                 validate::InvariantError);
  }
  // Count mode continues on the degraded path: start() schedules nothing.
  validate::ScopedInvariantMode mode{validate::InvariantMode::kCount};
  validate::reset_invariant_violations();
  MaliciousFlowDriver d{s, sim::Rng{6}, f, [&](net::Packet) { ++count; }};
  EXPECT_EQ(validate::invariant_violations(), 1u);
  validate::reset_invariant_violations();
  d.start();
  s.run_until(sim::seconds(1));
  EXPECT_EQ(count, 0);
  EXPECT_EQ(s.events_processed(), 0u);
}

TEST(FlowPopulation, RunsMixedPopulation) {
  sim::Scheduler s;
  std::uint64_t legit_pkts = 0, bad_pkts = 0;
  FlowPopulation pop{s, sim::Rng{7}, [&](net::Packet p) {
                       if (p.flow_tag >= 1000) {
                         ++bad_pkts;
                       } else {
                         ++legit_pkts;
                       }
                     }};
  for (int i = 0; i < 10; ++i) {
    auto f = legit_spec();
    f.id = static_cast<std::uint64_t>(i);
    f.tuple.src_port = static_cast<std::uint16_t>(10000 + i);
    pop.add_legit(f);
  }
  FlowSpec bad;
  bad.id = 1000;
  bad.tuple = {net::Ipv4Addr{6, 6, 6, 6}, net::Ipv4Addr{10, 0, 0, 9}, 7, 8,
               net::IpProto::kTcp};
  bad.pkt_interval = sim::millis(250);
  pop.add_malicious(bad);
  EXPECT_EQ(pop.legit_count(), 10u);
  EXPECT_EQ(pop.malicious_count(), 1u);

  pop.start_all();
  s.run_until(sim::seconds(8));
  pop.stop_all();
  EXPECT_GT(legit_pkts, 100u);
  EXPECT_GT(bad_pkts, 10u);
}

TEST(FlowPopulation, TraceAndBotsMatchHandBuiltPopulation) {
  TraceConfig cfg;
  cfg.active_flows = 50;
  cfg.horizon = sim::seconds(20);
  const sim::Rng root{8};
  using Sent = std::tuple<sim::Time, std::uint64_t, std::uint32_t>;

  sim::Scheduler s1;
  std::vector<Sent> via_calls;
  FlowPopulation calls{s1, root.fork("drivers"), [&](net::Packet p) {
                         via_calls.emplace_back(s1.now(), p.flow_tag,
                                                p.tcp()->seq);
                       }};
  calls.add_trace(cfg, root.fork("trace"));
  calls.add_bots(cfg, 5, 0, root.fork("bots"), 1u << 20);

  sim::Scheduler s2;
  std::vector<Sent> by_hand;
  FlowPopulation hand{s2, root.fork("drivers"), [&](net::Packet p) {
                        by_hand.emplace_back(s2.now(), p.flow_tag,
                                             p.tcp()->seq);
                      }};
  sim::Rng trace_rng = root.fork("trace");
  for (const auto& f : synthesize_trace(cfg, trace_rng)) hand.add_legit(f);
  sim::Rng bot_rng = root.fork("bots");
  for (const auto& f :
       synthesize_malicious_flows(cfg, 5, 0, bot_rng, 1u << 20)) {
    hand.add_malicious(f);
  }

  EXPECT_EQ(calls.legit_count(), hand.legit_count());
  EXPECT_GT(calls.legit_count(), 50u);
  EXPECT_EQ(calls.malicious_count(), 5u);
  EXPECT_EQ(hand.malicious_count(), 5u);

  calls.start_all();
  hand.start_all();
  s1.run_until(sim::seconds(10));
  s2.run_until(sim::seconds(10));
  calls.stop_all();
  hand.stop_all();
  ASSERT_GT(via_calls.size(), 1000u);
  EXPECT_TRUE(std::any_of(via_calls.begin(), via_calls.end(),
                          [](const Sent& p) {
                            return std::get<1>(p) >= (1u << 20);
                          }));
  EXPECT_EQ(via_calls, by_hand);
}

using SentPacket = std::tuple<sim::Time, std::uint64_t, std::uint32_t, bool>;

SentPacket sent_packet(const sim::Scheduler& s, const net::Packet& p) {
  return {s.now(), p.flow_tag, p.tcp()->seq, p.tcp()->fin};
}

// Runs `trace` through a FlowPopulation and through the up-front driver
// list it replaced (every driver built with rng.fork(i) and started in
// index order), optionally failing every legitimate flow at `fail_at`,
// and expects the same packet stream from both.
void expect_lazy_matches_eager(const std::vector<FlowSpec>& trace,
                               sim::Time fail_at, sim::Time end) {
  const sim::Rng rng{11};

  sim::Scheduler lazy_sched;
  std::vector<SentPacket> lazy;
  FlowPopulation pop{lazy_sched, rng, [&](net::Packet p) {
                       lazy.push_back(sent_packet(lazy_sched, p));
                     }};
  for (const auto& f : trace) pop.add_legit(f);
  pop.start_all();

  sim::Scheduler eager_sched;
  std::vector<SentPacket> eager;
  std::deque<LegitFlowDriver> drivers;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    drivers.emplace_back(eager_sched, rng.fork(i), trace[i],
                         [&](net::Packet p) {
                           eager.push_back(sent_packet(eager_sched, p));
                         });
  }
  for (auto& d : drivers) d.start();

  if (fail_at < end) {
    lazy_sched.run_until(fail_at);
    eager_sched.run_until(fail_at);
    pop.fail_all_legit();
    for (auto& d : drivers) d.enter_failure_mode();
  }
  lazy_sched.run_until(end);
  eager_sched.run_until(end);
  pop.stop_all();
  for (auto& d : drivers) d.stop();

  ASSERT_GT(lazy.size(), 10000u);
  EXPECT_EQ(lazy, eager);
  EXPECT_EQ(lazy_sched.events_processed(), eager_sched.events_processed());
  EXPECT_EQ(lazy_sched.queue_depth_high_water(),
            eager_sched.queue_depth_high_water());
}

std::vector<FlowSpec> short_flow_trace(std::size_t active_flows,
                                       sim::Duration horizon) {
  TraceConfig cfg;
  cfg.active_flows = active_flows;
  cfg.mean_duration = sim::seconds(1);
  cfg.horizon = horizon;
  sim::Rng rng{12};
  return synthesize_trace(cfg, rng);
}

TEST(FlowPopulation, LazyDriversMatchEagerDrivers) {
  // ~12 k one-second flows over 60 s: slots are freed and reused
  // thousands of times.
  const auto trace = short_flow_trace(200, sim::seconds(60));
  ASSERT_GT(trace.size(), 5000u);
  expect_lazy_matches_eager(trace, sim::kTimeMax, sim::seconds(70));
}

TEST(FlowPopulation, LazyDriversMatchEagerDriversThroughFailure) {
  // At 30 s some flows have finished, ~200 are live and ~6 k have not
  // started; all of them must fail exactly as the eager drivers did.
  const auto trace = short_flow_trace(200, sim::seconds(60));
  expect_lazy_matches_eager(trace, sim::seconds(30), sim::seconds(90));
}

TEST(FlowPopulation, LiveHighWaterFollowsActiveFlows) {
  obs::Gauge& gauge =
      obs::Registry::global().gauge("trafficgen.population.live_hwm");
  gauge.reset();
  const auto trace = short_flow_trace(2000, sim::seconds(20));
  std::size_t hwm = 0;
  {
    sim::Scheduler s;
    std::uint64_t fins = 0;
    FlowPopulation pop{s, sim::Rng{13},
                       [&](net::Packet p) { fins += p.tcp()->fin; }};
    for (const auto& f : trace) pop.add_legit(f);
    EXPECT_EQ(pop.live_high_water(), 0u);
    pop.start_all();
    s.run_until(sim::seconds(30));
    pop.stop_all();
    EXPECT_GT(fins, 20000u);
    EXPECT_GT(pop.legit_count(), 10 * 2000u);
    hwm = pop.live_high_water();
    EXPECT_GT(hwm, 2000u / 2);
    EXPECT_LE(hwm, 2 * 2000u);
  }
  EXPECT_EQ(gauge.value(), static_cast<double>(hwm));
}

}  // namespace
}  // namespace intox::trafficgen
