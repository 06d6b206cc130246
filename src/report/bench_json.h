// Minimal JSON export for the wall-clock benches.
//
// Each bench binary accumulates flat records — (bench, case name, metric
// map) — and serializes them as a JSON array so CI can merge the per-binary
// files into one BENCH_wallclock.json and dashboards can diff runs without
// scraping the human-readable tables. Deliberately tiny: no escaping needs
// beyond the handful of characters our names can contain, no parsing, no
// nested structures.
#ifndef TCPDEMUX_REPORT_BENCH_JSON_H_
#define TCPDEMUX_REPORT_BENCH_JSON_H_

#include <string>
#include <utility>
#include <vector>

namespace tcpdemux::report {

/// One measured case: `bench` is the binary ("wallclock_lookup"), `name`
/// the case within it ("flat16:4096 users=20000"). Metrics keep insertion
/// order so the JSON diffs stably run-to-run.
struct BenchRecord {
  std::string bench;
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;

  void add_metric(std::string key, double value) {
    metrics.emplace_back(std::move(key), value);
  }
};

/// Accumulates records and serializes them as a JSON array:
///   [{"bench": "...", "name": "...", "metrics": {"ns_per_op": 12.3}}, ...]
/// Arrays from several binaries concatenate into one valid file by merging
/// their elements, which is exactly what ci/bench_smoke.sh does.
class BenchJsonWriter {
 public:
  void add(BenchRecord record);

  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() to `path`. Returns false (and leaves no partial
  /// file behind the caller cares about) on I/O failure.
  [[nodiscard]] bool write_file(const std::string& path) const;

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

 private:
  std::vector<BenchRecord> records_;
};

}  // namespace tcpdemux::report

#endif  // TCPDEMUX_REPORT_BENCH_JSON_H_
