// Shared helpers for the benchmark binaries that regenerate the paper's
// tables and figures.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

// Baked in by CMake for targets linking eslam; standalone consumers of
// this header still compile.
#if !defined(ESLAM_GIT_SHA)
#define ESLAM_GIT_SHA "unknown"
#endif

#include "accel/backend_factory.h"
#include "accel/timing_model.h"
#include "dataset/sequence.h"
#include "eval/report.h"
#include "geometry/wall_timer.h"

namespace eslam::bench {

using eslam::WallTimer;

inline void sleep_until_elapsed(const WallTimer& timer, double target_ms) {
  const double remaining = target_ms - timer.elapsed_ms();
  if (remaining > 0)
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(remaining));
}

// Asynchronous-device emulation of the eSLAM fabric, shared by the
// pipeline and multi-session throughput benches so both model the same
// platform: feature extraction is precomputed functionally outside the
// timed region and replayed with the modeled device latency as a sleep —
// the lane that drives the backend stays *occupied* for the modeled time
// while the host CPU is released, exactly as a real FPGA would behave.
// Feature matching must run live on the host (it reads the evolving map)
// and is padded up to the device floor when the host is faster.
class DeviceEmulationBackend final : public FeatureBackend {
 public:
  DeviceEmulationBackend(std::vector<FeatureList> precomputed,
                         const MatcherOptions& matcher, double fe_ms,
                         double fm_floor_ms)
      : precomputed_(std::move(precomputed)),
        matcher_(matcher),
        fe_ms_(fe_ms),
        fm_floor_ms_(fm_floor_ms) {}

  FeatureList extract(const ImageU8&) override {
    const WallTimer timer;
    FeatureList features = precomputed_[next_frame_++ % precomputed_.size()];
    sleep_until_elapsed(timer, fe_ms_);
    extract_ms_.store(timer.elapsed_ms());
    return features;
  }

  std::vector<Match> match(std::span<const Descriptor256> queries,
                           std::span<const Descriptor256> train) override {
    const WallTimer timer;
    std::vector<Match> matches = match_descriptors(queries, train, matcher_);
    sleep_until_elapsed(timer, fm_floor_ms_);
    match_ms_.store(timer.elapsed_ms());
    return matches;
  }

  // Gated tier: the same device floor applies (the modeled fabric answers
  // no slower gated than full-scan), so the emulated schedule is
  // conservative while the functional result is the real windowed search.
  std::vector<Match> match_candidates(std::span<const Descriptor256> queries,
                                      std::span<const Descriptor256> train,
                                      const CandidateSet& candidates) override {
    const WallTimer timer;
    std::vector<Match> matches =
        eslam::match_candidates(queries, train, candidates, matcher_);
    sleep_until_elapsed(timer, fm_floor_ms_);
    match_ms_.store(timer.elapsed_ms());
    return matches;
  }

  double last_extract_time_ms() const override { return extract_ms_.load(); }
  double last_match_time_ms() const override { return match_ms_.load(); }
  const char* name() const override { return "device-emu"; }

 private:
  std::vector<FeatureList> precomputed_;
  MatcherOptions matcher_;
  double fe_ms_;
  double fm_floor_ms_;
  std::size_t next_frame_ = 0;
  std::atomic<double> extract_ms_{0.0};
  std::atomic<double> match_ms_{0.0};
};

// Renders all frames of a sequence once so multiple pipeline variants can
// consume identical inputs without re-raycasting.
inline std::vector<FrameInput> render_all(const SyntheticSequence& seq) {
  std::vector<FrameInput> frames;
  frames.reserve(static_cast<std::size_t>(seq.size()));
  for (int i = 0; i < seq.size(); ++i) frames.push_back(seq.frame(i));
  return frames;
}

// Runs pre-rendered frames through a sequential Tracker and keeps every
// result, in frame order.
inline std::vector<TrackResult> process_all(
    Tracker& tracker, const std::vector<FrameInput>& frames) {
  std::vector<TrackResult> results;
  results.reserve(frames.size());
  for (const FrameInput& f : frames) results.push_back(tracker.process(f));
  return results;
}

// Self-checking benches print one line per check and exit non-zero when
// any check() failed; info() and note() lines never fail the run.
inline int failures = 0;

inline void check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
  if (!ok) ++failures;
}

inline void info(bool ok, const char* what) {
  std::printf("  [%s] %s (informational: outside the target regime)\n",
              ok ? "ok" : "--", what);
}

inline void note(bool ok, const char* what) {
  std::printf("  [%s] %s (informational)\n", ok ? "ok" : "--", what);
}

inline std::string ms(double v, int decimals = 1) {
  return Table::fmt(v, decimals) + " ms";
}

// One lane of an ASCII Gantt chart (Figure-7 style): segments are scaled
// from [t0, t1] onto `width` cells, drawn as '#' runs with a (up to
// two-character) stage label over the first cells.  Shared by the
// analytic fig7 drawing and the measured pipeline-throughput drawing so
// the clamping/label rules stay identical.
struct GanttSegment {
  const char* label;  // stage name, 1-2 chars used
  double start_ms = 0;
  double end_ms = 0;
};

inline void draw_gantt_lane(const char* unit,
                            const std::vector<GanttSegment>& segments,
                            double t0, double t1, int width = 64) {
  std::string lane(static_cast<std::size_t>(width), '.');
  std::string labels(static_cast<std::size_t>(width), ' ');
  const double span = t1 - t0;
  for (const GanttSegment& s : segments) {
    const int a =
        static_cast<int>((s.start_ms - t0) / span * (width - 1));
    const int b = std::max(
        a + 1, static_cast<int>((s.end_ms - t0) / span * (width - 1)));
    for (int i = a; i < b && i < width; ++i)
      lane[static_cast<std::size_t>(i)] = '#';
    // Guard each label character independently: the first only needs its
    // own cell, and the second is only read for stage names that have one.
    if (a < width) labels[static_cast<std::size_t>(a)] = s.label[0];
    if (s.label[1] != '\0' && a + 1 < width)
      labels[static_cast<std::size_t>(a + 1)] = s.label[1];
  }
  std::printf("  %-4s |%s|\n       |%s|\n", unit, labels.c_str(),
              lane.c_str());
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n=== %s ===\n", title);
  std::printf("reproduces: %s (eSLAM, DAC 2019)\n\n", paper_ref);
}

// Host CPU model string from /proc/cpuinfo, "unknown" where the file or
// field is absent (non-Linux, stripped containers).  Read once per call —
// bench artifacts are written a handful of times per run.
inline std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (!f) return "unknown";
  std::string model = "unknown";
  char line[256];
  while (std::fgets(line, sizeof line, f)) {
    const char* sep = std::strchr(line, ':');
    if (!sep || std::strncmp(line, "model name", 10) != 0) continue;
    ++sep;
    while (*sep == ' ' || *sep == '\t') ++sep;
    model = sep;
    while (!model.empty() && (model.back() == '\n' || model.back() == '\r'))
      model.pop_back();
    break;
  }
  std::fclose(f);
  return model;
}

// Machine-readable benchmark output: accumulates numbers, strings, flat
// arrays and uniform row tables, then writes BENCH_<name>.json in the
// working directory — the artifact CI uploads so the perf trajectory
// (FPS, p50/p99, match-time-vs-map-size curves) is tracked per run.
// Every artifact is stamped with provenance metadata (git SHA, compiler,
// CPU model, hardware thread count) so a number in an uploaded JSON is
// attributable to a commit and a machine without consulting CI logs.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void number(const std::string& key, double value) {
    fields_.emplace_back(key, fmt_number(value));
  }
  void text(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, "\"" + escaped(value) + "\"");
  }
  void array(const std::string& key, std::span<const double> values) {
    std::string v = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) v += ", ";
      v += fmt_number(values[i]);
    }
    fields_.emplace_back(key, v + "]");
  }
  // Uniform table: rows of {columns[0]: row[0], ...}.
  void rows(const std::string& key, std::span<const std::string> columns,
            const std::vector<std::vector<double>>& rows) {
    std::string v = "[";
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (r) v += ", ";
      v += "{";
      for (std::size_t c = 0; c < columns.size() && c < rows[r].size(); ++c) {
        if (c) v += ", ";
        v += "\"" + escaped(columns[c]) + "\": " + fmt_number(rows[r][c]);
      }
      v += "}";
    }
    fields_.emplace_back(key, v + "]");
  }

  // Writes BENCH_<name>.json; returns false (and warns) on I/O failure
  // without affecting the bench's exit code.
  bool write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\"", escaped(name_).c_str());
    // Provenance stamp (see the class comment).  ESLAM_GIT_SHA is the
    // configure-time snapshot CMake bakes into the library's interface.
    std::fprintf(f, ",\n  \"git_sha\": \"%s\"", escaped(ESLAM_GIT_SHA).c_str());
#if defined(__VERSION__)
    std::fprintf(f, ",\n  \"compiler\": \"%s\"", escaped(__VERSION__).c_str());
#else
    std::fprintf(f, ",\n  \"compiler\": \"unknown\"");
#endif
    std::fprintf(f, ",\n  \"cpu\": \"%s\"", escaped(cpu_model()).c_str());
    std::fprintf(f, ",\n  \"hw_threads\": %u",
                 std::thread::hardware_concurrency());
    for (const auto& [key, value] : fields_)
      std::fprintf(f, ",\n  \"%s\": %s", escaped(key).c_str(), value.c_str());
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  static std::string fmt_number(double v) {
    if (v != v) return "null";  // NaN is not valid JSON
    char buf[64];
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        std::abs(v) < 1e15) {
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    } else {
      std::snprintf(buf, sizeof buf, "%.6g", v);
    }
    return buf;
  }
  static std::string escaped(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace eslam::bench
