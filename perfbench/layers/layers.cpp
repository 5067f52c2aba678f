// Per-layer timer for perfbench.
//
// Times calls into each layer's public API at sizes taken from one
// benchmark workload, prints one JSON object of results to stdout, and
// writes the spans of its timed sections (Chrome trace-event JSON) to
// --spans-out when it ends. Spans are kept in memory until then, so the
// file I/O never lands inside a timed section.
//
//   perfbench_layers --workload NAME --seed N --depth D --trials N
//                    --spans-out FILE
//
// --depth is the workload's scheduler queue-depth high-water mark and
// --trials its trial count, both read by perfbench/run.py from the
// workload's traced run. Every metric is measured on every workload: a
// layer the workload does not run is timed at a small reference size
// (see perfbench/README.md), so no figure is a placeholder.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "blink/attacker.hpp"
#include "blink/blink_node.hpp"
#include "blink/flow_selector.hpp"
#include "dataplane/switch.hpp"
#include "obs/flightrec.hpp"
#include "pcc/experiment.hpp"
#include "pcc/utility.hpp"
#include "pytheas/experiment.hpp"
#include "sim/event_queue.hpp"
#include "sim/link.hpp"
#include "sim/network.hpp"
#include "sim/rng.hpp"
#include "supervisor/pytheas_guard.hpp"
#include "trafficgen/synth.hpp"

namespace {

using namespace intox;
using Clock = std::chrono::steady_clock;

// Folds results of timed calls so the optimizer cannot drop the calls.
std::uint64_t g_sink = 0;
void consume(std::uint64_t v) { g_sink = g_sink * 31 + v; }
void consume(double v) { consume(std::bit_cast<std::uint64_t>(v)); }

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  std::size_t depth = 4096;
  std::size_t trials = 1;
  std::string spans_out;
};

// ------------------------------------------------------------- spans

struct Span {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
  int parent = -1;  // index into the span list, -1 for a root
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  /// Opens a span under the innermost open one.
  void open(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), now_us(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  /// Closes the innermost open span; returns its duration in seconds.
  double close() {
    Span& s = spans_[static_cast<std::size_t>(stack_.back())];
    stack_.pop_back();
    s.dur_us = now_us() - s.start_us;
    return s.dur_us * 1e-6;
  }

  bool write(const std::string& path) const {
    std::ofstream out{path};
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,"
                    "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%zu,"
                    "\"parent\":%d}}",
                    s.start_us, s.dur_us, i, s.parent);
      out << (i == 0 ? "" : ",") << "{\"name\":\"" << s.name << "\","
          << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

SpanLog g_spans;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Runs `batch` (which performs `ops` operations) `batches` times, each
/// inside its own span under a span named `layer`, and returns the
/// median nanoseconds per operation.
template <typename F>
double ns_per_op(const char* layer, int batches, std::size_t ops, F&& batch) {
  g_spans.open(layer);
  std::vector<double> per_op;
  for (int b = 0; b < batches; ++b) {
    g_spans.open(std::string(layer) + ".batch");
    batch();
    per_op.push_back(g_spans.close() * 1e9 / static_cast<double>(ops));
  }
  g_spans.close();
  return median(per_op);
}

/// Times one call in its own span; returns seconds.
template <typename F>
double timed_call(std::string name, F&& call) {
  g_spans.open(std::move(name));
  call();
  return g_spans.close();
}

// ------------------------------------------------------------ layers

/// Scheduler::schedule_after + run_until with `depth` self-rescheduling
/// events pending, delays drawn around a 250 ms packet interval (the
/// trace generator's default), so the wheel is as deep as the
/// workload's.
double scheduler_ns_per_event(const Options& opt) {
  struct Chain {
    sim::Scheduler sched;
    std::vector<sim::Duration> delays;
    std::uint64_t fired = 0;
    void fire() {
      ++fired;
      sched.schedule_after(delays[fired & (delays.size() - 1)],
                           [this] { fire(); });
    }
  };
  auto chain = std::make_unique<Chain>();
  sim::Rng rng{opt.seed};
  chain->delays.resize(4096);
  for (sim::Duration& d : chain->delays) {
    d = rng.exp_duration(sim::millis(250)) + 1;
  }
  Chain* c = chain.get();
  for (std::size_t i = 0; i < opt.depth; ++i) {
    c->sched.schedule_after(c->delays[i & 4095] * static_cast<sim::Duration>(
                                                      1 + i % 7),
                            [c] { c->fire(); });
  }
  // Warm the wheel to its steady state before timing.
  const sim::Duration step = sim::millis(250) * 2;
  c->sched.run_until(c->sched.now() + step);
  const std::size_t per_batch = 200000;
  g_spans.open("sim.scheduler");
  std::vector<double> per_event;
  for (int b = 0; b < 5; ++b) {
    g_spans.open("sim.scheduler.batch");
    const std::uint64_t before = c->sched.events_processed();
    std::uint64_t fired = 0;
    while (fired < per_batch) {
      c->sched.run_until(c->sched.now() + sim::millis(10));
      fired = c->sched.events_processed() - before;
    }
    per_event.push_back(g_spans.close() * 1e9 / static_cast<double>(fired));
  }
  g_spans.close();
  consume(c->fired);
  return median(per_event);
}

/// Rng::fork(index) followed by the first draw on the new stream, as a
/// flow driver does.
double rng_fork_ns(const Options& opt) {
  const sim::Rng base{opt.seed};
  const std::size_t n = 20000;
  return ns_per_op("sim.rng.fork", 5, n, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      sim::Rng r = base.fork(static_cast<std::uint64_t>(i));
      consume(r.uniform());
    }
  });
}

double rng_draw_ns(const Options& opt) {
  sim::Rng rng{opt.seed};
  const std::size_t n = 2000000;
  return ns_per_op("sim.rng.draw", 5, n, [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += rng.uniform();
    consume(acc);
  });
}

net::Packet probe_packet() {
  net::Packet p;
  p.src = net::Ipv4Addr{10, 0, 0, 1};
  p.dst = net::Ipv4Addr{10, 0, 0, 2};
  p.l4 = net::UdpHeader{1234, 80};
  p.payload_bytes = 512;
  return p;
}

/// Link::transmit through serialization to delivery, drained in bursts
/// of 64 so the in-flight slab stays bounded.
double link_ns_per_packet() {
  const std::size_t n = 500000;
  return ns_per_op("sim.link", 5, n, [&] {
    sim::Scheduler sched;
    std::uint64_t delivered = 0;
    sim::LinkConfig cfg;
    cfg.rate_bps = 100e9;
    cfg.queue_limit_bytes = 64 * 1024 * 1024;
    sim::Link link{sched, cfg, [&delivered](net::Packet) { ++delivered; }};
    const net::Packet p = probe_packet();
    for (std::size_t i = 0; i < n; ++i) {
      link.transmit(p);
      if ((i & 63) == 63) sched.run();
    }
    sched.run();
    consume(delivered);
  });
}

trafficgen::TraceConfig workload_trace(const Options& opt) {
  trafficgen::TraceConfig trace;  // 2000 flows over 510 s (Fig. 2)
  if (opt.workload == "e2e-hijack") trace.horizon = sim::seconds(300);
  return trace;
}

double synthesize_trace_ms(const Options& opt) {
  const trafficgen::TraceConfig trace = workload_trace(opt);
  sim::Rng rng{opt.seed};
  return ns_per_op("trafficgen.synthesize_trace", 5, 1, [&] {
           consume(static_cast<std::uint64_t>(
               trafficgen::synthesize_trace(trace, rng).size()));
         }) *
         1e-6;
}

std::vector<net::FiveTuple> victim_flows(std::size_t count,
                                         std::uint64_t seed) {
  sim::Rng rng{seed};
  const net::Prefix victim = workload_trace(Options{}).victim_prefix;
  std::vector<net::FiveTuple> flows;
  flows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    flows.push_back(trafficgen::random_tuple_to(victim, rng));
  }
  return flows;
}

/// FlowSelector::observe over the workload's flow population (2000
/// legitimate + 105 malicious flows), one packet per flow in turn, a
/// millisecond apart, with every eighth sequence number repeated.
double blink_observe_ns(const Options& opt) {
  const std::vector<net::FiveTuple> flows = victim_flows(2105, opt.seed);
  blink::FlowSelector selector{blink::BlinkConfig{}};
  const std::size_t n = 1000000;
  sim::Time now = 0;
  std::uint64_t i = 0;
  return ns_per_op("blink.observe", 5, n, [&] {
    std::uint64_t hits = 0;
    for (std::size_t k = 0; k < n; ++k, ++i) {
      now += sim::millis(1);
      const auto v = selector.observe(flows[i % flows.size()], i % 2105,
                                      static_cast<std::uint32_t>(i >> 3),
                                      false, now);
      hits += v.retransmission;
    }
    consume(hits);
  });
}

/// RoutedSwitch::receive with the e2e pipeline (a BlinkNode on 10/8 and
/// an LPM route), forwarding onto a 10 Gb/s link to a sink.
double switch_ns_per_packet(const Options& opt) {
  const std::vector<net::FiveTuple> flows = victim_flows(2105, opt.seed);
  const std::size_t n = 200000;
  return ns_per_op("dataplane.switch", 5, n, [&] {
    sim::Scheduler sched;
    sim::Network net{sched};
    std::uint64_t delivered = 0;
    dataplane::RoutedSwitch sw{"switch", sched, net::Ipv4Addr{192, 0, 2, 1}};
    dataplane::CallbackNode sink{
        "sink", [&delivered](net::Packet, int) { ++delivered; }};
    dataplane::CallbackNode backup{"backup", nullptr};
    sim::LinkConfig fast;
    fast.rate_bps = 10e9;
    fast.prop_delay = sim::millis(1);
    fast.queue_limit_bytes = 64 * 1024 * 1024;
    net.connect(sw, 1, sink, 0, fast);
    net.connect(sw, 2, backup, 0, fast);
    sw.add_route(net::Prefix{net::Ipv4Addr{10, 0, 0, 0}, 8}, 1);
    blink::BlinkNode node{blink::BlinkConfig{}};
    node.monitor_prefix(workload_trace(opt).victim_prefix, 1, 2);
    sw.add_processor(&node);
    for (std::size_t i = 0; i < n; ++i) {
      const net::FiveTuple& t = flows[i % flows.size()];
      net::Packet p;
      p.src = t.src;
      p.dst = t.dst;
      net::TcpHeader tcp;
      tcp.src_port = t.src_port;
      tcp.dst_port = t.dst_port;
      tcp.seq = static_cast<std::uint32_t>(i);
      p.l4 = tcp;
      p.payload_bytes = 512;
      sw.receive(std::move(p), 0);
      if ((i & 63) == 63) sched.run_until(sched.now() + sim::micros(200));
    }
    sched.run();
    consume(delivered);
  });
}

double pcc_utility_ns(const Options& opt) {
  sim::Rng rng{opt.seed};
  std::vector<std::pair<double, double>> inputs(4096);
  for (auto& [rate, loss] : inputs) {
    rate = rng.uniform(1e6, 50e6);
    loss = rng.uniform(0.0, 0.2);
  }
  const std::size_t n = 2000000;
  return ns_per_op("pcc.utility", 5, n, [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& [rate, loss] = inputs[i & 4095];
      acc += pcc::utility(rate, loss);
    }
    consume(acc);
  });
}

/// The MitM's per-packet question: how much loss makes the higher-rate
/// phase look no better than the lower one.
double pcc_loss_for_target_ns(const Options& opt) {
  sim::Rng rng{opt.seed};
  std::vector<std::pair<double, double>> inputs(4096);
  for (auto& [rate, target] : inputs) {
    rate = rng.uniform(1e6, 50e6);
    target = pcc::utility(rate / 1.05, 0.0);
  }
  const std::size_t n = 40000;
  return ns_per_op("pcc.loss_for_target_utility", 5, n, [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& [rate, target] = inputs[i & 4095];
      acc += pcc::loss_for_target_utility(rate, target);
    }
    consume(acc);
  });
}

/// PytheasGuard::admit on one group of 240 sessions (200 honest, 40
/// lying), three arms, one report per session per one-second epoch.
double pytheas_admit_ns(const Options& opt) {
  sim::Rng rng{opt.seed};
  const pytheas::SessionFeatures group{64500, "metro", "video"};
  const std::size_t sessions = 240, n = 24000;
  return ns_per_op("supervisor.pytheas_guard.admit", 5, n, [&] {
    supervisor::PytheasGuard guard;
    std::uint64_t admitted = 0;
    for (std::size_t i = 0; i < n; ++i) {
      pytheas::QoeReport r;
      r.session = i % sessions;
      r.arm = static_cast<pytheas::ArmId>(i % 3);
      r.qoe = r.session >= 200 ? 0.5 : rng.normal(4.0, 0.4);
      r.when = sim::seconds(static_cast<double>(i / sessions));
      admitted += guard.admit(group, r);
    }
    consume(admitted);
  });
}

double flightrec_record_ns() {
  const std::size_t n = 5000000;
  return ns_per_op("obs.flightrec_record", 5, n, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      obs::flightrec_record(obs::FrType::kSchedFire, i);
    }
  });
}

// ---------------------------------------------------------- trials

struct Trials {
  std::vector<double> seconds;  // one per trial call, in trial order
  bool ok = true;               // every call produced a sane result
};

/// One run_fig2_experiment per Fig. 2 trial, configured as the scenario
/// does (trial-index seeds, 105 bots). Elsewhere one call on a 60 s
/// reference horizon.
Trials fig2_trials(const Options& opt) {
  Trials out;
  const bool own = opt.workload == "fig2";
  const std::size_t n = own ? opt.trials : 1;
  for (std::size_t r = 0; r < n; ++r) {
    blink::Fig2Config cfg = blink::default_fig2_config(r);
    cfg.malicious_flows = 105;
    if (!own) cfg.trace.horizon = sim::seconds(60);
    blink::Fig2Result result;
    out.seconds.push_back(timed_call("blink.run_fig2_experiment", [&] {
      result = blink::run_fig2_experiment(cfg);
    }));
    out.ok &= result.malicious_sampled.points().size() > 0;
    if (own) out.ok &= !result.reroutes.empty();
  }
  return out;
}

/// One run_pcc_experiment per pcc.fleet trial (fleets of 1, 4, 16 and
/// 48 flows, clean then attacked, 50 s each). Elsewhere one attacked
/// 4-flow fleet over a 10 s reference duration.
Trials pcc_trials(const Options& opt) {
  Trials out;
  std::vector<pcc::PccExperimentConfig> configs;
  if (opt.workload == "pcc-fleet") {
    for (std::size_t flows : {1, 4, 16, 48}) {
      for (bool attack : {false, true}) {
        configs.push_back(pcc::default_fleet_config(flows, attack));
      }
    }
  } else {
    configs.push_back(pcc::default_fleet_config(4, true));
    configs.back().duration = sim::seconds(10);
  }
  for (const pcc::PccExperimentConfig& cfg : configs) {
    pcc::PccExperimentResult result;
    out.seconds.push_back(timed_call("pcc.run_pcc_experiment", [&] {
      result = pcc::run_pcc_experiment(cfg);
    }));
    out.ok &= result.decisions > 0;
  }
  return out;
}

/// The seven run_poisoning_experiment calls of defense.guards (no
/// guard, guarded, clean guarded, and the four-point outlier-k sweep).
/// Elsewhere one guarded call over 40 reference epochs.
Trials pytheas_trials(const Options& opt) {
  Trials out;
  pytheas::PoisonConfig attack_cfg;
  attack_cfg.bot_sessions = 40;
  pytheas::PoisonConfig clean_cfg;
  clean_cfg.bot_sessions = 0;
  std::vector<std::pair<pytheas::PoisonConfig,
                        std::shared_ptr<supervisor::PytheasGuard>>>
      calls;
  if (opt.workload == "defense-guards") {
    calls.emplace_back(attack_cfg, nullptr);
    calls.emplace_back(attack_cfg,
                       std::make_shared<supervisor::PytheasGuard>());
    calls.emplace_back(clean_cfg,
                       std::make_shared<supervisor::PytheasGuard>());
    for (double k : {2.0, 4.0, 8.0, 16.0}) {
      supervisor::PytheasGuardConfig g;
      g.outlier_k = k;
      calls.emplace_back(attack_cfg,
                         std::make_shared<supervisor::PytheasGuard>(g));
    }
  } else {
    attack_cfg.epochs = 40;
    attack_cfg.warmup_epochs = 10;
    calls.emplace_back(attack_cfg,
                       std::make_shared<supervisor::PytheasGuard>());
  }
  for (auto& [cfg, guard] : calls) {
    pytheas::PoisonResult result;
    out.seconds.push_back(timed_call("pytheas.run_poisoning_experiment", [&] {
      result = pytheas::run_poisoning_experiment(cfg, guard);
    }));
    out.ok &= result.legit_qoe.points().size() > 0;
  }
  return out;
}

bool parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--depth") {
      opt->depth = std::max<std::size_t>(1, std::strtoull(value, nullptr, 10));
    } else if (key == "--trials") {
      opt->trials = std::max<std::size_t>(1, std::strtoull(value, nullptr, 10));
    } else if (key == "--spans-out") {
      opt->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt->workload.empty() && !opt->spans_out.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_layers --workload NAME --seed N "
                 "[--depth D] [--trials N] --spans-out FILE\n");
    return 2;
  }

  std::map<std::string, double> metrics;
  g_spans.open("perfbench.layers");
  metrics["sim.scheduler.ns_per_event"] = scheduler_ns_per_event(opt);
  metrics["sim.rng.fork_ns"] = rng_fork_ns(opt);
  metrics["sim.rng.draw_ns"] = rng_draw_ns(opt);
  metrics["sim.link.ns_per_packet"] = link_ns_per_packet();
  metrics["trafficgen.synthesize_trace_ms"] = synthesize_trace_ms(opt);
  metrics["blink.observe_ns"] = blink_observe_ns(opt);
  metrics["dataplane.switch_ns_per_packet"] = switch_ns_per_packet(opt);
  metrics["pcc.utility_ns"] = pcc_utility_ns(opt);
  metrics["pcc.loss_for_target_utility_ns"] = pcc_loss_for_target_ns(opt);
  metrics["supervisor.pytheas_guard.admit_ns"] = pytheas_admit_ns(opt);
  metrics["obs.flightrec_record_ns"] = flightrec_record_ns();

  const Trials fig2 = fig2_trials(opt);
  const Trials pcc = pcc_trials(opt);
  const Trials pytheas = pytheas_trials(opt);
  g_spans.close();
  metrics["blink.run_fig2_experiment_s"] = median(fig2.seconds);
  metrics["pcc.run_pcc_experiment_s"] = median(pcc.seconds);
  metrics["pytheas.run_poisoning_experiment_s"] = median(pytheas.seconds);

  // The runner's trials are the workload's own experiment calls; a
  // workload that does not dispatch trials reports none.
  const std::vector<double>* trial_s = nullptr;
  if (opt.workload == "fig2") trial_s = &fig2.seconds;
  if (opt.workload == "pcc-fleet") trial_s = &pcc.seconds;

  const bool ok =
      fig2.ok && pcc.ok && pytheas.ok && g_spans.write(opt.spans_out);
  std::printf("{\"ok\": %s, \"sink\": %llu, \"metrics\": {",
              ok ? "true" : "false",
              static_cast<unsigned long long>(g_sink % 1000));
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": %.9g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}, \"trial_s\": [");
  sep = "";
  if (trial_s != nullptr) {
    for (double s : *trial_s) {
      std::printf("%s%.9g", sep, s);
      sep = ", ";
    }
  }
  std::printf("]}\n");
  return ok ? 0 : 1;
}
