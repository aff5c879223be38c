// Shared pieces of the SlamService benchmark: statistics, clocks, the
// host-speed probe, parallel input generation, the replayed-FE feature
// backend, the in-memory span recorder behind the traced run, and the
// result record every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "slam/tracker.h"

namespace slambench {

using eslam::FeatureList;
using eslam::FrameInput;

// ---- clocks ---------------------------------------------------------------

inline double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time (ms) of the whole process and of the calling thread.
double process_cpu_ms();
double thread_cpu_ms();

// Resident set size (MB) read from /proc/self/statm; 0 where unavailable.
double rss_mb();
// Returns freed heap pages to the OS so the next RSS baseline is not
// inflated by an earlier pass's garbage.
void release_free_heap();

// Parks the client thread between polls (it never spins): until
// `deadline_ms` (now_ms() clock) or for one poll interval, whichever is
// sooner.
void park_until(double deadline_ms);

// ---- statistics -------------------------------------------------------------

double median(std::vector<double> v);
double mean(const std::vector<double>& v);
// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> v, double p);

// ---- host-speed probe ---------------------------------------------------------

// Times one memory-bound and one ALU-bound loop that share no code with
// the engine.  A diagnostic stored beside the results (never a metric):
// it lets a slow run be traced to the machine rather than the program.
struct HostProbe {
  double mem_ms = 0;  // strided sweep over a 64 MiB buffer
  double alu_ms = 0;  // dependent integer hash chain
};
HostProbe run_host_probe();

// ---- input generation -----------------------------------------------------------

// Worker threads for input generation (outside every timed region): the
// host's hardware threads, at most 4.
int generation_threads();
// Runs job(i, worker) for i in [0, n) on min(n, generation_threads())
// threads; worker in [0, generation_threads()) names the calling thread.
void parallel_for(int n, const std::function<void(int, int)>& job);

// ---- replayed feature extraction ---------------------------------------------

// Stands in for the fabric's feature extraction: returns precomputed
// features in feed order and holds the calling lane for `hold_ms` (the
// modeled fabric FE latency; the host core sleeps, as it would while a
// real FPGA works).  Matching runs live on the host through the software
// backend's kernels, unpadded.  With hold_ms = 0 it is the solo reference
// the served sessions are compared against.
class ReplayBackend final : public eslam::FeatureBackend {
 public:
  ReplayBackend(std::vector<const FeatureList*> stream, double hold_ms);

  FeatureList extract(const eslam::ImageU8& image) override;
  void extract_into(const eslam::ImageU8& image, FeatureList& out) override;
  std::vector<eslam::Match> match(
      std::span<const eslam::Descriptor256> queries,
      std::span<const eslam::Descriptor256> train) override;
  std::vector<eslam::Match> match_candidates(
      std::span<const eslam::Descriptor256> queries,
      std::span<const eslam::Descriptor256> train,
      const eslam::CandidateSet& candidates) override;
  void match_into(std::span<const eslam::Feature> queries,
                  const eslam::TrainView& train, eslam::Arena* scratch,
                  std::vector<eslam::Match>& out) override;
  void match_candidates_into(std::span<const eslam::Feature> queries,
                             const eslam::TrainView& train,
                             const eslam::CandidateSet& candidates,
                             eslam::Arena* scratch,
                             std::vector<eslam::Match>& out) override;
  double last_extract_time_ms() const override { return extract_ms_; }
  double last_match_time_ms() const override {
    return host_.last_match_time_ms();
  }
  const char* name() const override { return "replay"; }

 private:
  const FeatureList& next();

  std::vector<const FeatureList*> stream_;
  std::size_t next_ = 0;
  double hold_ms_;
  std::atomic<double> extract_ms_{0.0};
  eslam::SoftwareBackend host_;
};

// ---- spans ----------------------------------------------------------------

// In-memory span log for the traced run.  Single-threaded by design: the
// traced run drives every layer one call at a time, so the innermost open
// span is the parent of the next one.
struct Span {
  std::string name;
  int id = 0;
  int parent = -1;
  int session = 0;
  int frame = -1;
  double start_ms = 0;
  double end_ms = 0;
  double child_ms = 0;  // summed duration of direct children
  double duration_ms() const { return end_ms - start_ms; }
  double self_ms() const { return duration_ms() - child_ms; }
};

class SpanRecorder {
 public:
  int begin(const char* name, int session, int frame);
  void end(int id);
  const std::vector<Span>& spans() const { return spans_; }
  // Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  double origin_ms_ = now_ms();
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int session, int frame)
      : rec_(rec), id_(rec ? rec->begin(name, session, frame) : -1) {}
  ~ScopedSpan() {
    if (rec_) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

// Wraps a feature backend so every extract call is recorded as a
// "FeatureBackend::extract" span, nested under whatever span is open.
class TracingBackend final : public eslam::FeatureBackend {
 public:
  TracingBackend(std::unique_ptr<eslam::FeatureBackend> inner,
                 SpanRecorder* rec, int session)
      : inner_(std::move(inner)), rec_(rec), session_(session) {}

  FeatureList extract(const eslam::ImageU8& image) override;
  void extract_into(const eslam::ImageU8& image, FeatureList& out) override;
  std::vector<eslam::Match> match(
      std::span<const eslam::Descriptor256> queries,
      std::span<const eslam::Descriptor256> train) override {
    return inner_->match(queries, train);
  }
  std::vector<eslam::Match> match_candidates(
      std::span<const eslam::Descriptor256> queries,
      std::span<const eslam::Descriptor256> train,
      const eslam::CandidateSet& candidates) override {
    return inner_->match_candidates(queries, train, candidates);
  }
  void match_into(std::span<const eslam::Feature> queries,
                  const eslam::TrainView& train, eslam::Arena* scratch,
                  std::vector<eslam::Match>& out) override {
    inner_->match_into(queries, train, scratch, out);
  }
  void match_candidates_into(std::span<const eslam::Feature> queries,
                             const eslam::TrainView& train,
                             const eslam::CandidateSet& candidates,
                             eslam::Arena* scratch,
                             std::vector<eslam::Match>& out) override {
    inner_->match_candidates_into(queries, train, candidates, scratch, out);
  }
  double last_extract_time_ms() const override {
    return inner_->last_extract_time_ms();
  }
  double last_match_time_ms() const override {
    return inner_->last_match_time_ms();
  }
  const char* name() const override { return inner_->name(); }

  // Frame id stamped on the next extract span.
  void set_frame(int frame) { frame_ = frame; }

 private:
  std::unique_ptr<eslam::FeatureBackend> inner_;
  SpanRecorder* rec_;
  int session_;
  int frame_ = -1;
};

// ---- results --------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

// What one invocation reports.  `metrics` keeps insertion order by name so
// the JSON line is stable; `diagnostics` and `work` go to the results file
// beside it, never into the metrics.
struct RunReport {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;
  std::vector<std::pair<std::string, double>> diagnostics;
  std::vector<std::pair<std::string, long long>> work;  // per-pass work counts
  std::vector<std::string> failures;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, Metric{value, unit});
  }
  void diag(const std::string& name, double value) {
    diagnostics.emplace_back(name, value);
  }
  // Records a named output check; a failing one marks the run incorrect.
  void check(bool ok, const std::string& what);
};

}  // namespace slambench
