// SlamService benchmark program.
//
//   slambench --workload <fleet_fabric|loc_serve> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics through the public SlamService
// API from one client thread; --trace 1 runs the per-layer accounting
// (traced.cpp).  Inputs are generated from the seed before any timing.
// Output checks run in the same command; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}, and the exit code
// is non-zero when a check failed.  Diagnostics that are not metrics (the
// host-speed probe, sample counts, generator lateness, work counts) go to
// <out-dir>/result-<workload>-<seed>-trace<t>.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using namespace slambench;

struct Args {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string out_dir = ".";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = static_cast<std::uint32_t>(std::strtoul(value, nullptr, 10));
    else if (key == "--seconds") a.seconds = std::atof(value);
    else if (key == "--trace") a.trace = std::strcmp(value, "1") == 0;
    else if (key == "--out-dir") a.out_dir = value;
    else return false;
  }
  return known_workload(a.workload) && a.seconds > 0;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

// FNV-1a over the running binary: runs of the same build share it, so
// their work counts must agree.
std::string binary_fingerprint() {
  std::ifstream f("/proc/self/exe", std::ios::binary);
  std::uint64_t h = 1469598103934665603ull;
  char buf[1 << 16];
  while (f.read(buf, sizeof buf) || f.gcount() > 0) {
    for (std::streamsize i = 0; i < f.gcount(); ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ull;
    }
  }
  char out[20];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

// Compares this run's work counts with the last run of the same build on
// the same workload and seed (if any), then records this run's.  Returns
// false when they differ: the work changed, so the timings of the two
// runs measure different things.
bool work_matches_previous(const Args& a, const RunReport& report) {
  const std::string path = a.out_dir + "/work-" + a.workload + "-" +
                           std::to_string(a.seed) + ".txt";
  std::ostringstream now;
  now << binary_fingerprint() << "\n";
  for (const auto& [name, value] : report.work) now << name << " " << value << "\n";
  bool same = true;
  std::ifstream prev(path);
  if (prev) {
    std::stringstream before;
    before << prev.rdbuf();
    const std::string b = before.str();
    const std::string n = now.str();
    // Only a record from the same build is comparable.
    if (b.substr(0, b.find('\n')) == n.substr(0, n.find('\n'))) same = b == n;
  }
  std::ofstream(path) << now.str();
  return same;
}

void write_result_file(const Args& a, const RunReport& r, const HostProbe& probe,
                       double generate_s) {
  const std::string path = a.out_dir + "/result-" + a.workload + "-" +
                           std::to_string(a.seed) + "-trace" +
                           (a.trace ? "1" : "0") + ".json";
  std::ofstream f(path);
  f << "{\n  \"workload\": \"" << a.workload << "\",\n  \"seed\": " << a.seed
    << ",\n  \"correct\": " << (r.correct ? "true" : "false")
    << ",\n  \"host_probe\": {\"mem_ms\": " << number(probe.mem_ms)
    << ", \"alu_ms\": " << number(probe.alu_ms) << "},\n  \"generate_s\": "
    << number(generate_s) << ",\n  \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    f << (i ? ", " : "") << "\"" << r.metrics[i].first
      << "\": " << number(r.metrics[i].second.value);
  f << "},\n  \"diagnostics\": {";
  for (std::size_t i = 0; i < r.diagnostics.size(); ++i)
    f << (i ? ", " : "") << "\"" << r.diagnostics[i].first
      << "\": " << number(r.diagnostics[i].second);
  f << "},\n  \"work\": {";
  for (std::size_t i = 0; i < r.work.size(); ++i)
    f << (i ? ", " : "") << "\"" << r.work[i].first << "\": " << r.work[i].second;
  f << "}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: slambench --workload <fleet_fabric|loc_serve> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);

  const HostProbe probe = run_host_probe();
  std::printf("slambench %s seed %u, %s run, %.0f s\n", args.workload.c_str(),
              args.seed, args.trace ? "traced" : "end-to-end", args.seconds);
  std::printf("  host probe: memory loop %.1f ms, ALU loop %.1f ms\n",
              probe.mem_ms, probe.alu_ms);

  RunReport report;
  double generate_s = 0;
  std::string snapshot;
  try {
    const double g0 = now_ms();
    const Workload w = generate(args.workload, args.seed, args.out_dir);
    snapshot = w.snapshot_path;
    generate_s = (now_ms() - g0) / 1000.0;
    std::printf("  inputs generated in %.1f s (untimed)\n", generate_s);
    if (args.trace)
      run_traced(w,
                 args.out_dir + "/trace-" + args.workload + "-" +
                     std::to_string(args.seed) + ".json",
                 report);
    else
      run_end_to_end(w, args.seconds, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slambench: %s\n", e.what());
    return 1;
  }
  if (!snapshot.empty()) std::remove(snapshot.c_str());

  if (!args.trace) {
    const bool same = work_matches_previous(args, report);
    report.diag("work_matches_previous_run", same ? 1 : 0);
    if (!same)
      std::printf("  [FLAG] work counts differ from the previous run of this "
                  "build on this seed: the work changed, not just the timing\n");
    std::printf("  work:");
    for (const auto& [name, value] : report.work)
      std::printf(" %s=%lld", name.c_str(), value);
    std::printf("\n");
  }
  for (const auto& [name, value] : report.diagnostics)
    std::printf("  %-32s %.4g\n", name.c_str(), value);
  for (const auto& [name, m] : report.metrics)
    std::printf("  %-32s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  write_result_file(args, report, probe, generate_s);

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              report.correct ? "true" : "false", report.attempted, report.failed);
  for (std::size_t i = 0; i < report.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                report.metrics[i].first.c_str(),
                number(report.metrics[i].second.value).c_str(),
                report.metrics[i].second.unit.c_str());
  std::printf("}}\n");
  return report.correct ? 0 : 1;
}
