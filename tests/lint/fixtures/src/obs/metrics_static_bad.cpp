// Fixture: registrations outside any function body (namespace-scope
// and default member initializers) are checked like any other. Both
// must fire.
#include "obs/metrics.hpp"

namespace intox::fixture {

obs::Counter& g_retries = obs::Registry::global().counter("Retries");  // 8

struct Stage {
  obs::Gauge& depth{obs::Registry::global().gauge("fixture.depth")};
  obs::Gauge& again = obs::Registry::global().gauge("fixture.depth");  // 12
};

}  // namespace intox::fixture
