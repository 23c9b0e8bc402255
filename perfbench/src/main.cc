// perfbench: runs one benchmark workload and prints its result as one JSON
// object on the last line of standard output.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>] [--samples <csv>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The exit code is 0 only when every correctness check passed.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "perfbench/workloads.h"

namespace {

std::string number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  options.scratch = ".bench_build/perfbench-scratch";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      options.trace = value == "1";
    } else if (flag == "--scratch") {
      options.scratch = value;
    } else if (flag == "--samples") {
      options.samples = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Options options = parse(argc, argv);
    const perfbench::Result result = perfbench::run(options, std::cerr);
    std::filesystem::remove_all(options.scratch / "ckpt");
    bool finite = true;
    std::string metrics;
    for (const perfbench::Metric& metric : result.metrics) {
      finite = finite && std::isfinite(metric.value);
      if (!metrics.empty()) metrics += ", ";
      metrics += "\"" + metric.name + "\": {\"value\": " +
                 number(metric.value) + ", \"unit\": \"" + metric.unit +
                 "\"}";
    }
    for (const std::string& failure : result.failures) {
      std::cerr << "CHECK FAILED: " << failure << "\n";
    }
    if (!finite) std::cerr << "CHECK FAILED: a metric is not finite\n";
    const bool correct = result.correct() && finite;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << result.attempted
              << ", \"failed\": " << result.failed << ", \"metrics\": {"
              << metrics << "}}" << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}
