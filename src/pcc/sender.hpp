// PCC Allegro sender: the online-learning rate-control loop.
//
// The sender paces UDP-like data packets (PacedSender) at its current
// rate and slices time into monitor intervals (MIs). It learns by A/B
// experiment:
//
//  * Starting: double the rate every MI while utility keeps rising.
//  * Decision: four MIs — two at rate*(1+ε), two at rate*(1−ε), in
//    random order. If both +ε trials beat both −ε trials, move up; if
//    both lose, move down; otherwise the experiment is inconclusive and
//    ε grows by ε_min, capped at ε_max = 5%.
//  * Adjusting: keep moving in the decided direction with growing steps
//    while utility improves; on regression, return to Decision.
//
// Loss per MI is measured from ACKs after a grace period. This is the
// loop the §4.2 MitM neutralizes by equalizing what the two experiment
// arms observe.
#pragma once

#include <functional>
#include <vector>

#include "pcc/paced_sender.hpp"
#include "sim/rng.hpp"

namespace intox::pcc {

class PccSender : public PacedSender {
 public:
  PccSender(sim::Scheduler& sched, const PccConfig& config,
            net::FiveTuple flow, PacketSink sink);
  /// Publishes lifetime totals into the obs metrics registry: decision
  /// and inconclusive-experiment counts, per-MI normalized utility and
  /// loss histograms, and the rate-oscillation amplitude (the §4.2
  /// attack signal) as a high-water gauge.
  ~PccSender() override;

  /// The decided rate; experiment MIs pace at it times (1 ± ε).
  [[nodiscard]] double rate_bps() const { return rate_bps_; }
  [[nodiscard]] double epsilon() const { return epsilon_; }
  [[nodiscard]] const sim::TimeSeries& utility_series() const {
    return utility_series_;
  }
  [[nodiscard]] const std::vector<MonitorInterval>& history() const {
    return history_;
  }
  [[nodiscard]] std::uint64_t inconclusive_experiments() const {
    return inconclusive_;
  }
  [[nodiscard]] std::uint64_t decisions() const { return decisions_; }

  /// Side-channel for the *omniscient* attacker model: exposes the
  /// current MI phase. A real MitM estimates this from timing; see
  /// PccMitm's estimator mode.
  [[nodiscard]] MiPhase current_phase() const { return current_.phase; }
  [[nodiscard]] double current_mi_rate() const { return current_.rate_bps; }

  /// Per-experiment summary, delivered to the §5 PCC supervisor as each
  /// 2+2 experiment resolves.
  struct ExperimentOutcome {
    double up_loss_mean = 0.0;
    double down_loss_mean = 0.0;
    /// Loss of the most recent hold (kWaiting) interval, i.e. the path's
    /// baseline loss outside experiments (-1 if none observed yet).
    double hold_loss = -1.0;
    bool conclusive = false;
    double epsilon = 0.0;
    sim::Time when = 0;
  };
  using ExperimentObserver = std::function<void(const ExperimentOutcome&)>;
  void set_experiment_observer(ExperimentObserver obs) {
    observer_ = std::move(obs);
  }
  /// Clamps the epsilon escalation ceiling at runtime (supervisor
  /// action: "limit the amplitude of the oscillations by decreasing the
  /// range of epsilon").
  void set_epsilon_cap(double cap) {
    epsilon_cap_ = cap;
    epsilon_ = std::min(epsilon_, cap);
  }
  [[nodiscard]] double epsilon_cap() const { return epsilon_cap_; }

 private:
  enum class State { kStarting, kDecision, kAdjusting };

  void on_start() override;
  std::uint64_t on_send() override;
  void on_acked(std::uint64_t mi_id) override;
  void begin_mi();
  void finish_mi(MonitorInterval mi);   // called after the grace period
  void evaluate(const MonitorInterval& mi, double utility_value);
  double mi_duration_seconds();
  void enter_decision(sim::Time now);
  std::vector<MiPhase> make_experiment_order();

  PccConfig config_;
  sim::Rng rng_;

  State state_ = State::kStarting;
  double rate_bps_;
  double base_rate_bps_;  // rate around which the experiment runs
  double epsilon_;
  int adjust_step_ = 1;
  int direction_ = 0;  // +1 / -1 during kAdjusting
  double prev_utility_ = 0.0;
  bool have_prev_utility_ = false;

  // Decision experiment bookkeeping.
  std::vector<MiPhase> experiment_order_;
  std::size_t experiment_index_ = 0;
  bool need_new_experiment_ = true;
  std::vector<double> up_utilities_;
  std::vector<double> down_utilities_;
  std::vector<double> up_losses_;
  std::vector<double> down_losses_;
  double last_hold_loss_ = -1.0;
  ExperimentObserver observer_;
  double epsilon_cap_;

  MonitorInterval current_;
  std::uint64_t next_mi_id_ = 1;
  /// MIs closed but awaiting their ACK grace period — a handful at a
  /// time, so a flat vector with linear scans beats hashing.
  std::vector<MonitorInterval> pending_mis_;

  sim::TimeSeries utility_series_;
  std::vector<MonitorInterval> history_;
  std::uint64_t inconclusive_ = 0;
  std::uint64_t decisions_ = 0;
};

}  // namespace intox::pcc
