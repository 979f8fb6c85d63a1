// perfbench: runs one benchmark workload with a seed and prints its metrics.
//
//   perfbench --workload elda_cohort|ward_stream|ragged_shards --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//             [--git-rev REV] [--src-hash HASH]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: every end-to-end metric when
// --trace 0, every per-layer metric when --trace 1. The line before it is
// the provenance fingerprint. A fuller result (fingerprint, digests,
// failed checks) goes to DIR/results/, and a traced run's spans to
// DIR/traces/. Exits 1 when a correctness check fails, 2 on bad arguments.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "tensor/simd_math.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + Quote(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) +
           "}";
  }
  return out + "}";
}

int BadArgs(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--git-rev R] [--src-hash H]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string git_rev = "unknown", src_hash = "unknown", trace_flag = "0";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return BadArgs("missing value for " + key);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return BadArgs("bad --seed " + value);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 600.0) {
        return BadArgs("bad --seconds " + value);
      }
    } else if (key == "--trace") {
      trace_flag = value;
      if (value != "0" && value != "1") return BadArgs("bad --trace " + value);
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--git-rev") {
      git_rev = value;
    } else if (key == "--src-hash") {
      src_hash = value;
    } else {
      return BadArgs("unknown flag " + key);
    }
  }
  if (!have_seed) return BadArgs("--seed is required");
  if (args.work_dir.empty()) return BadArgs("--work-dir is required");
  mkdir(args.work_dir.c_str(), 0755);
  mkdir((args.work_dir + "/results").c_str(), 0755);
  mkdir((args.work_dir + "/traces").c_str(), 0755);

  Tracer::Get().Enable(args.trace);
  const CpuTicks ticks0 = CpuTicks::Now();
  Report report;
  if (args.workload == "elda_cohort") {
    RunEldaCohort(args, &report);
  } else if (args.workload == "ward_stream") {
    RunWardStream(args, &report);
  } else if (args.workload == "ragged_shards") {
    RunRaggedShards(args, &report);
  } else {
    return BadArgs("unknown workload '" + args.workload + "'");
  }
  report.E2E("peak_rss_mb", PeakRssMb(), "MB");
  const double steal_pct = CpuTicks::Now().StealPctSince(ticks0);
  for (const std::vector<Metric>* set :
       {&report.end_to_end, &report.per_layer}) {
    for (const Metric& m : *set) {
      report.Check(std::isfinite(m.value), "metric " + m.name + " not finite");
    }
  }

  const std::string tag = args.workload + "-seed" + std::to_string(args.seed) +
                          "-trace" + trace_flag;
  std::ostringstream fingerprint;
  fingerprint << "{\"cpu\": " << Quote(CpuModel())
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"simd\": " << Quote(elda::simd::ActivePath())
              << ", \"compiler\": " << Quote(__VERSION__)
              << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE)
              << ", \"threads\": " << Quote(report.threads)
              << ", \"git_rev\": " << Quote(git_rev)
              << ", \"src_hash\": " << Quote(src_hash) << "}";
  if (args.trace) {
    const std::string path = args.work_dir + "/traces/" + tag + ".json";
    report.Check(Tracer::Get().WriteJson(path), "cannot write " + path);
  }

  const std::vector<Metric>& printed =
      args.trace ? report.per_layer : report.end_to_end;
  std::ostringstream errors;
  for (size_t i = 0; i < report.errors.size(); ++i) {
    errors << (i ? ", " : "") << Quote(report.errors[i]);
  }
  {
    const std::string path = args.work_dir + "/results/" + tag + ".json";
    std::ofstream out(path);
    out << "{\"workload\": " << Quote(args.workload)
        << ", \"seed\": " << args.seed << ", \"seconds\": " << Num(args.seconds)
        << ", \"trace\": " << trace_flag
        << ", \"fingerprint\": " << fingerprint.str()
        << ", \"input_digest\": " << Quote(report.input_digest)
        << ", \"output_digest\": " << Quote(report.output_digest)
        << ", \"host_steal_pct\": " << Num(steal_pct)
        << ", \"errors\": [" << errors.str() << "]"
        << ", \"end_to_end\": " << MetricsJson(report.end_to_end)
        << ", \"per_layer\": " << MetricsJson(report.per_layer) << "}\n";
  }
  for (const std::string& e : report.errors) {
    std::cerr << "perfbench: check failed: " << e << "\n";
  }
  std::cout << "digest input=" << report.input_digest
            << " output=" << report.output_digest << "\n";
  std::cout << "fingerprint " << fingerprint.str() << "\n";
  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed
            << ", \"metrics\": " << MetricsJson(printed) << "}" << std::endl;
  return report.correct ? 0 : 1;
}
