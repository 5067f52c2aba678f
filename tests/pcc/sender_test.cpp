// Sender unit tests over an ideal (fixed-delay) path: the shared send
// path for both PccSender and RenoSender, then each rate policy.
#include "pcc/sender.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "pcc/baseline_reno.hpp"
#include "pcc/experiment.hpp"
#include "pcc/receiver.hpp"
#include "sim/link.hpp"
#include "validate/invariant.hpp"

namespace intox::pcc {

// Names the SendPath cases ".../Pcc" and ".../Reno" in gtest and ctest.
void PrintTo(SenderKind kind, std::ostream* os) {
  *os << (kind == SenderKind::kPcc ? "Pcc" : "Reno");
}

namespace {

struct Loop {
  sim::Scheduler sched;
  PccConfig cfg;
  std::unique_ptr<PacedSender> sender;
  PccSender* pcc = nullptr;  // set for SenderKind::kPcc
  std::unique_ptr<PccReceiver> receiver;
  std::unique_ptr<sim::Link> fwd;
  std::unique_ptr<sim::Link> rev;
  /// (send time, last rate in the sender's rate series) per packet sent.
  std::vector<std::pair<sim::Time, double>> sends;

  explicit Loop(SenderKind kind = SenderKind::kPcc, double link_bps = 100e6,
                double drop_every_nth = 0, const PccConfig& config = {})
      : cfg(config) {
    sim::LinkConfig fc;
    fc.rate_bps = link_bps;
    fc.prop_delay = sim::millis(20);
    sim::LinkConfig rc;
    rc.rate_bps = 1e9;
    rc.prop_delay = sim::millis(20);

    rev = std::make_unique<sim::Link>(sched, rc, [this](net::Packet a) {
      sender->on_ack(static_cast<std::uint32_t>(a.flow_tag), sched.now());
    });
    receiver = std::make_unique<PccReceiver>(
        [this](net::Packet a) { rev->transmit(std::move(a)); });
    fwd = std::make_unique<sim::Link>(sched, fc, [this](net::Packet d) {
      receiver->on_data(d);
    });
    if (drop_every_nth > 0) {
      fwd->set_tap([this, drop_every_nth](net::Packet&) {
        return (++tap_count_ % static_cast<int>(drop_every_nth)) == 0
                   ? sim::TapAction::kDrop
                   : sim::TapAction::kForward;
      });
    }
    net::FiveTuple t{net::Ipv4Addr{1, 1, 1, 1}, net::Ipv4Addr{2, 2, 2, 2},
                     10000, 443, net::IpProto::kUdp};
    auto sink = [this](net::Packet p) {
      sends.emplace_back(sched.now(),
                         sender->rate_series().points().back().second);
      fwd->transmit(std::move(p));
    };
    if (kind == SenderKind::kPcc) {
      auto s = std::make_unique<PccSender>(sched, cfg, t, sink);
      pcc = s.get();
      sender = std::move(s);
    } else {
      sender = std::make_unique<RenoSender>(sched, cfg, t, sink);
    }
  }

  /// Runs the sender from now until `until`, then stops it.
  void run(sim::Duration until) {
    sender->start();
    sched.run_until(until);
    sender->stop();
  }

  int tap_count_ = 0;
};

// ---- Shared send path, once per sender kind ---------------------------

class SendPath : public ::testing::TestWithParam<SenderKind> {};

TEST_P(SendPath, StopHaltsTraffic) {
  Loop loop{GetParam()};
  loop.run(sim::seconds(1));
  const auto tx = loop.fwd->counters().tx_packets;
  ASSERT_GT(tx, 0u);
  loop.sched.run_until(sim::seconds(2));
  EXPECT_EQ(loop.fwd->counters().tx_packets, tx);
}

TEST_P(SendPath, PacketsGoOutAtTheCurrentRate) {
  // Each packet leaves one wire time after the one before, at the rate
  // the sender had last set when that one left.
  Loop loop{GetParam()};
  loop.run(sim::seconds(3));
  ASSERT_GT(loop.sends.size(), 100u);
  const double bits =
      static_cast<double>(loop.cfg.packet_payload_bytes + 28) * 8.0;
  std::size_t off_pace = 0;
  std::set<double> rates;
  for (std::size_t i = 1; i < loop.sends.size(); ++i) {
    const auto& [t, rate] = loop.sends[i - 1];
    if (loop.sends[i].first - t != sim::seconds(bits / rate)) ++off_pace;
    rates.insert(rate);
  }
  EXPECT_EQ(off_pace, 0u);
  EXPECT_GT(rates.size(), 3u);  // the rate moved and the pacing followed
}

TEST_P(SendPath, AckPastTheSendRingRaises) {
  // Nothing is ACKed while the sender runs, so every record stays; then
  // the oldest ACK the ring still holds matches and one older raises.
  PccConfig cfg;
  cfg.initial_rate_bps = 100e6;
  cfg.min_rate_bps = 100e6;  // no ACKs: Reno would back off far below
  cfg.max_rate_bps = 100e6;
  sim::Scheduler sched;
  std::uint32_t last_seq = 0;
  auto sink = [&](net::Packet p) {
    last_seq = static_cast<std::uint32_t>(p.flow_tag);
  };
  net::FiveTuple t{};
  std::unique_ptr<PacedSender> sender;
  if (GetParam() == SenderKind::kPcc) {
    sender = std::make_unique<PccSender>(sched, cfg, t, sink);
  } else {
    sender = std::make_unique<RenoSender>(sched, cfg, t, sink);
  }
  sender->start();
  sched.run_until(sim::seconds(1));
  sender->stop();
  constexpr std::uint32_t kRing = PacedSender::kSendRingSize;
  ASSERT_GT(last_seq, kRing + 1);

  validate::ScopedInvariantMode mode(validate::InvariantMode::kThrow);
  validate::reset_invariant_violations();
  const double srtt = sender->smoothed_rtt_seconds();
  // next_seq - seq == kRing: the record is still in the ring.
  sender->on_ack(last_seq + 1 - kRing, sched.now());
  EXPECT_EQ(validate::invariant_violations(), 0u);
  EXPECT_NE(sender->smoothed_rtt_seconds(), srtt);
  EXPECT_THROW(sender->on_ack(last_seq - kRing, sched.now()),
               validate::InvariantError);
  EXPECT_EQ(validate::invariant_violations(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Senders, SendPath,
                         ::testing::Values(SenderKind::kPcc,
                                           SenderKind::kReno));

// ---- PCC's monitor-interval experiments -------------------------------

TEST(PccSender, StartingPhaseGrowsRate) {
  Loop loop;
  loop.run(sim::seconds(3));
  // From 2 Mbps, a few doublings must have happened on a clean 100 Mbps path.
  EXPECT_GT(loop.pcc->rate_bps(), 8e6);
}

TEST(PccSender, TracksRttFromAcks) {
  Loop loop;
  loop.run(sim::seconds(3));
  // 40 ms RTT path (20 ms each way) plus serialization.
  EXPECT_NEAR(loop.sender->smoothed_rtt_seconds(), 0.040, 0.01);
}

TEST(PccSender, MonitorIntervalsAccountPackets) {
  Loop loop;
  loop.run(sim::seconds(5));
  ASSERT_GT(loop.pcc->history().size(), 10u);
  for (const auto& mi : loop.pcc->history()) {
    EXPECT_GE(mi.sent, mi.acked);
    EXPECT_GE(mi.end, mi.start);
  }
}

TEST(PccSender, LosslessPathMeansZeroMeasuredLoss) {
  // Cap the sender below the link rate so probing can never saturate the
  // queue: the path is then genuinely lossless.
  PccConfig capped;
  capped.max_rate_bps = 40e6;
  Loop loop{SenderKind::kPcc, 100e6, 0, capped};
  loop.run(sim::seconds(5));
  // Skip the first few MIs (rate far below link, nothing queued): all
  // should see ~no loss.
  std::size_t lossy = 0;
  for (const auto& mi : loop.pcc->history()) {
    if (mi.loss() > 0.02) ++lossy;
  }
  EXPECT_LE(lossy, loop.pcc->history().size() / 10);
}

TEST(PccSender, PersistentLossDetected) {
  Loop loop{SenderKind::kPcc, 100e6, /*drop_every_nth=*/10};
  loop.run(sim::seconds(5));
  // Late MIs should measure ~10% loss.
  const auto& h = loop.pcc->history();
  ASSERT_GT(h.size(), 10u);
  sim::RunningStats loss;
  for (std::size_t i = h.size() - 5; i < h.size(); ++i) loss.add(h[i].loss());
  EXPECT_NEAR(loss.mean(), 0.10, 0.04);
}

TEST(PccSender, EpsilonBoundedByConfig) {
  Loop loop;
  loop.run(sim::seconds(10));
  EXPECT_GE(loop.pcc->epsilon(), loop.cfg.epsilon_min);
  EXPECT_LE(loop.pcc->epsilon(), loop.cfg.epsilon_max + 1e-12);
}

TEST(PccSender, ExperimentRatesBracketBaseRate) {
  Loop loop;
  loop.run(sim::seconds(10));
  bool saw_up = false, saw_down = false;
  for (const auto& mi : loop.pcc->history()) {
    saw_up |= mi.phase == MiPhase::kUp;
    saw_down |= mi.phase == MiPhase::kDown;
  }
  EXPECT_TRUE(saw_up);
  EXPECT_TRUE(saw_down);
}

// ---- Reno's per-RTT AIMD epochs ---------------------------------------

// A 1 Gb/s path that never queues: Reno starts at 16 Mb/s, so every epoch
// carries over 50 packets and the 2% slack absorbs the one-packet jitter
// at epoch boundaries, and it starts from the path's RTT, so its epochs
// line up with the ACK cohorts from the first one on.
Loop reno_loop() {
  PccConfig cfg;
  cfg.initial_rate_bps = 16e6;
  cfg.max_rate_bps = 200e6;
  cfg.initial_rtt = sim::millis(40);
  return Loop{SenderKind::kReno, 1e9, 0, cfg};
}

TEST(RenoSender, SlowStartDoublesEachEpochOnLosslessPath) {
  // The rate doubles at every epoch close until it reaches the cap, then
  // stays there.
  Loop loop = reno_loop();
  loop.run(sim::seconds(2));
  const auto& r = loop.sender->rate_series().points();
  ASSERT_GT(r.size(), 10u);
  EXPECT_EQ(r[0].second, loop.cfg.initial_rate_bps);
  for (std::size_t i = 1; i < r.size(); ++i) {
    EXPECT_EQ(r[i].second,
              std::min(2.0 * r[i - 1].second, loop.cfg.max_rate_bps))
        << "epoch " << i;
  }
}

TEST(RenoSender, FirstLossyEpochHalvesRateAndEndsSlowStart) {
  // Twenty packets lost in the third epoch; the path is clean otherwise.
  Loop loop = reno_loop();
  int seen = 0;
  loop.fwd->set_tap([&seen](net::Packet&) {
    ++seen;
    return seen > 200 && seen <= 220 ? sim::TapAction::kDrop
                                     : sim::TapAction::kForward;
  });
  loop.run(sim::seconds(2));
  const auto& r = loop.sender->rate_series().points();
  std::size_t cut = 1;
  while (cut < r.size() && r[cut].second == 2.0 * r[cut - 1].second) ++cut;
  ASSERT_GT(cut, 2u);  // slow start ran for a few epochs first
  ASSERT_LT(cut, r.size());
  EXPECT_EQ(r[cut].second, r[cut - 1].second / 2.0);
  // Out of slow start no epoch doubles the rate again; it climbs by one
  // packet per RTT.
  for (std::size_t i = cut + 1; i < r.size(); ++i) {
    EXPECT_GT(r[i].second, r[i - 1].second) << "epoch " << i;
    EXPECT_LT(r[i].second, 1.05 * r[i - 1].second) << "epoch " << i;
  }
}

// Reno's rate series over 2 s of a path that loses every 10th packet and
// ACKs the rest 40 ms after they leave. With `stray`, every ACK arrives
// twice and is followed by ACKs for a sequence number never sent (it
// maps to the same ring slot) and for sequence number 0.
sim::TimeSeries reno_rates(bool stray) {
  sim::Scheduler sched;
  std::unique_ptr<RenoSender> reno;
  auto ack = [&](std::uint32_t seq) { reno->on_ack(seq, sched.now()); };
  reno = std::make_unique<RenoSender>(
      sched, SendConfig{}, net::FiveTuple{}, [&](net::Packet p) {
        const auto seq = static_cast<std::uint32_t>(p.flow_tag);
        if (seq % 10 == 0) return;
        sched.schedule_after(sim::millis(40), [&, seq] {
          ack(seq);
          if (!stray) return;
          ack(seq);
          ack(seq + (1u << 20));
          ack(0);
        });
      });
  reno->start();
  sched.run_until(sim::seconds(2));
  reno->stop();
  return reno->rate_series();
}

TEST(RenoSender, UnknownOrRepeatedAcksChangeNothing) {
  const sim::TimeSeries clean = reno_rates(false);
  ASSERT_GT(clean.size(), 20u);
  EXPECT_EQ(reno_rates(true).points(), clean.points());
}

}  // namespace
}  // namespace intox::pcc
