#include "scenario/scenario.hpp"

#include "obs/report.hpp"

namespace intox::scenario {

void Ctx::perf(const char* sweep) const {
  obs::SweepPerf record = runner.last_report();
  record.name = sweep;
  obs::emit_sweep_perf(record);
}

}  // namespace intox::scenario
