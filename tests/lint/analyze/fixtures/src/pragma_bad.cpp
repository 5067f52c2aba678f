// Fixture: allow pragmas on whole-program findings. Each check a pragma
// names must suppress a finding on its line or the next, or the pragma
// check reports that check as stale.
#include <cstdlib>
#include <ctime>
#include <mutex>

namespace fixture {

std::mutex mu_c;

// Reached from run_pragma_fixture. The pragma silences taint only:
// determinism is a per-file check and still fires on line 16.
int pragma_draw() {
  // intox-analyze: allow(taint)  -- fixture: suppressed on purpose
  return std::rand();
}

// Reached from no scenario, so only determinism fires on line 23 and
// the pragma's taint half is stale (line 22).
long host_seconds() {
  // intox-analyze: allow(determinism, taint)  -- fixture: half stale
  return static_cast<long>(std::time(nullptr));
}

// One acquisition orders nothing: the pragma is stale (line 28).
void take_c() {
  // intox-analyze: allow(lockorder)  -- fixture: nothing to suppress
  std::lock_guard<std::mutex> c(mu_c);
}

int run_pragma_fixture(int trials) { return pragma_draw() + trials; }

INTOX_REGISTER_SCENARIO(kPragma, {"pragma", run_pragma_fixture});

}  // namespace fixture
