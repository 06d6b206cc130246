// rxbench: frames per second through tcp::Host::input.
//
//   rxbench generate --workload <name> --seed <n> --out <file>
//   rxbench generate --workload <name> --holdout-seed <n> --out <file>
//   rxbench run --traffic <file> --seconds <s> --trace <0|1>
//               [--commit <sha>] [--source-digest <hex>]
//
// `generate` writes the workload's client stream; `run` measures it in a
// separate process, so generation never counts toward set-up time or peak
// memory. rxbench/run.py drives both steps. A held-out seed is mapped into
// a stream namespace that no --seed value reaches, for checking a claim on
// traffic nobody tuned against.
#include <unistd.h>

#include <cstdio>
#include <ctime>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "core/simd.h"
#include "runner.h"
#include "net/crc32c.h"
#include "traffic.h"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) >= 0x20) {
      out += ch;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string provenance(const std::map<std::string, std::string>& args) {
  const auto arg = [&](const char* key) {
    const auto it = args.find(key);
    return it == args.end() ? std::string("unknown") : it->second;
  };
  return "{\"commit\": \"" + json_escape(arg("commit")) +
         "\", \"source_digest\": \"" + json_escape(arg("source-digest")) +
         "\", \"compiler\": \"" + json_escape(compiler()) +
         "\", \"build_type\": \"" + RXBENCH_BUILD_TYPE +
         "\", \"simd_backend\": \"" +
         std::string(tcpdemux::core::simd_backend()) +
         "\", \"crc32c_backend\": \"" +
         std::string(tcpdemux::net::crc32c_backend()) + "\", \"cpu\": \"" +
         json_escape(cpu_model()) +
         "\", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"date\": \"" + utc_now() + "\"}";
}

std::uint64_t holdout_seed(std::uint64_t n) {
  std::uint64_t z = n + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) | (1ULL << 63);
}

int usage() {
  std::fprintf(stderr,
               "usage: rxbench generate --workload W (--seed N | "
               "--holdout-seed N) --out FILE\n"
               "       rxbench run --traffic FILE --seconds S --trace 0|1 "
               "[--commit SHA] [--source-digest HEX]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if ((argc - 2) % 2 != 0) return usage();

  try {
    if (mode == "generate") {
      if (!args.count("workload") || !args.count("out") ||
          args.count("seed") == args.count("holdout-seed")) {
        return usage();
      }
      const std::uint64_t seed =
          args.count("seed")
              ? std::stoull(args["seed"])
              : holdout_seed(std::stoull(args["holdout-seed"]));
      const rxbench::Traffic traffic =
          rxbench::generate_traffic(args["workload"], seed);
      rxbench::write_traffic(traffic, args["out"]);
      std::fprintf(stderr,
                   "rxbench: %s seed %llu: %zu connections, %zu initial, "
                   "%zu steps, fingerprint %016llx\n",
                   traffic.workload.c_str(),
                   static_cast<unsigned long long>(seed), traffic.keys.size(),
                   traffic.initial.size(), traffic.steps.size(),
                   static_cast<unsigned long long>(traffic.fingerprint));
      return 0;
    }
    if (mode == "run") {
      if (!args.count("traffic") || !args.count("seconds") ||
          !args.count("trace")) {
        return usage();
      }
      rxbench::RunOptions options;
      options.seconds = std::stod(args["seconds"]);
      options.trace = args["trace"] == "1";
      if (options.seconds <= 0 || (!options.trace && args["trace"] != "0")) {
        return usage();
      }
      options.provenance_json = provenance(args);
      const rxbench::Traffic traffic = rxbench::read_traffic(args["traffic"]);
      return rxbench::run_benchmark(traffic, options);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rxbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
