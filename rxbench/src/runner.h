// The measuring side of the receive-path benchmark: builds a tcp::Host,
// establishes the initial population through real handshakes, then feeds
// the client stream into Host::input in fixed-size bursts while playing
// the server application, and checks every frame against the oracle.
#ifndef RXBENCH_RUNNER_H_
#define RXBENCH_RUNNER_H_

#include <string>

#include "traffic.h"

namespace rxbench {

struct RunOptions {
  double seconds = 10.0;  ///< timed delivery to measure
  bool trace = false;     ///< per-layer spans instead of end-to-end metrics
  std::string provenance_json;  ///< printed verbatim in the detail line
};

/// Runs one measurement and prints its detail line and, last, the result
/// line. Returns the process exit code: 0 when the run completed, whether
/// or not every frame was correct (the result line says which).
int run_benchmark(const Traffic& traffic, const RunOptions& options);

}  // namespace rxbench

#endif  // RXBENCH_RUNNER_H_
