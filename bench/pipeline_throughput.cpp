// Measured counterpart of Figure 7 / Table 3: runs the same synthetic
// sequence through the sequential schedule and through the concurrent
// pipeline runtime (server/SlamService, one session on one ARM worker:
// the paper's two-lane pipeline), and prints measured
// per-frame latency/throughput side-by-side with the analytic
// pipeline_timeline model fed with the measured stage durations.
//
// The accelerator is emulated as an asynchronous *device*: feature
// extraction is computed functionally once per frame outside the timed
// region (bit-exact software ORB), and the backend replays it with the
// modeled device latency as a sleep — releasing the host CPU exactly as
// a real FPGA would, so the overlap is measurable even on a single-core
// runner.  Feature matching runs live on the host (it reads the evolving
// map).  Both execution modes use identical backends, so their poses are
// bit-identical and the only variable is the schedule.  The measured
// schedule is the stage windows each delivered result carries.
//
// The run is device-bound.  Per frame the device lane spends FE 25 ms plus
// FM ~5 ms and the ARM lane PE ~11-13 ms plus under 1 ms of PO and MU
// (4-thread Xeon), so the device sets the period and the ARM worker waits
// for it; the paper's normal frame is ARM-bound (PE+PO 17.9 ms against FE
// 9.1 ms, Table 2).  MU of frame N has normally retired by the time FM
// of frame N+1 is dispatched, so the run reports 0 speculative and 0
// replayed FMs.  The replay path is covered by the runtime test
// SingleStreamPipeline.KeyframeBarrierOrdersMatchAfterMapUpdate, whose
// ARM lane is slowed far below the device.
//
// Exits non-zero unless the measured schedule reproduces the paper's
// shapes: on normal frames the FPGA-lane work of frame N+1 overlaps the
// ARM-lane work of frame N and the pipelined per-frame latency is
// strictly below the sequential sum of stages; on key frames feature
// matching of frame N+1 starts only after map updating of frame N.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/trace.h"
#include "server/slam_service.h"

namespace {

using namespace eslam;

// Modeled device latency for feature extraction.  The paper's fabric
// extracts in 9.1 ms (Table 2); at 25 ms, FE alone outlasts the ARM-side
// PE+PO+MU, so the device lane sets the period (see the file comment).
constexpr double kDeviceFeMs = 25.0;
// Floor for feature matching: the device would answer in ~4 ms (paper),
// but the functional match must run on the host, so the host compute
// time applies whenever it is larger.
constexpr double kDeviceFmFloorMs = 4.0;

using bench::WallTimer;

TrackerOptions bench_tracker_options() {
  TrackerOptions opts;
  // Fixed-iteration RANSAC: min == max defeats the adaptive stop and an
  // unreachable early-exit share defeats the early exit, so PE scores
  // 2,000 hypotheses on every frame, a steady ARM load (~11-13 ms) below
  // the device lane's FE+FM.
  opts.ransac.max_iterations = 2000;
  opts.ransac.min_iterations = 2000;
  opts.ransac.early_exit_ratio = 1.1;
  return opts;
}

using bench::check;
using bench::failures;

// The single-stream Figure-7 pipeline: one session on a one-worker
// service.
struct SingleStream {
  explicit SingleStream(const SessionConfig& config)
      : session(service.open_session(config)) {}

  std::vector<TrackResult> run(const std::vector<FrameInput>& frames) {
    for (const FrameInput& f : frames) session.feed(f);
    return session.drain();
  }

  SlamService service{ServiceOptions{/*arm_workers=*/1}};
  SessionHandle session;
};

// Mean retire-to-retire period (MU end to MU end) over frames 2..end.
double mean_period_ms(const std::vector<TrackResult>& results) {
  double sum = 0.0;
  for (std::size_t n = 2; n < results.size(); ++n)
    sum += results[n].windows.mu.end_ms - results[n - 1].windows.mu.end_ms;
  return results.size() > 2 ? sum / static_cast<double>(results.size() - 2)
                            : 0.0;
}

// ASCII Gantt of one measured frame pair (ARM of frame N, FPGA of N+1),
// time-shifted to the window start — the measured analogue of the
// bench_fig7_pipeline drawing.
void draw_measured(const StageWindows& n, const StageWindows& next) {
  const double t0 = std::min(n.pe.start_ms, next.fe.start_ms);
  const double t1 = std::max(n.mu.end_ms, next.fm.end_ms);
  constexpr int kWidth = 64;
  auto lane = [](std::vector<std::pair<const char*, StageWindow>> segs) {
    std::vector<bench::GanttSegment> out;
    for (const auto& [stage, w] : segs)
      out.push_back({stage, w.start_ms, w.end_ms});
    return out;
  };
  bench::draw_gantt_lane(
      "ARM", lane({{"PE", n.pe}, {"PO", n.po}, {"MU", n.mu}}), t0, t1,
      kWidth);
  bench::draw_gantt_lane("FPGA", lane({{"FE", next.fe}, {"FM", next.fm}}),
                         t0, t1, kWidth);
  std::printf("       0%*s%.1f ms\n", kWidth - 6, "", t1 - t0);
}

}  // namespace

int main() {
  using namespace eslam;
  bench::print_header(
      "Pipeline throughput: sequential vs concurrent Figure-7 runtime",
      "Figure 7 / Table 3");

  // fr1/xyz: several key frames at the default thresholds, but the jiggle
  // revisits the same view, so the map — and with it the host-side FM
  // compute — stays bounded across the run.
  SequenceOptions opts;
  opts.frames = 36;
  const SyntheticSequence seq(SequenceId::kFr1Xyz, opts);
  const std::vector<FrameInput> frames = bench::render_all(seq);

  // Functional FE, computed once outside the timed region (the device
  // replays it with modeled latency; both modes share it bit-exactly).
  const TrackerOptions topts = bench_tracker_options();
  std::vector<FeatureList> precomputed;
  {
    OrbExtractor extractor{OrbConfig{}};
    precomputed.reserve(frames.size());
    for (const FrameInput& f : frames)
      precomputed.push_back(extractor.extract(f.gray));
  }
  auto make_backend = [&]() -> std::unique_ptr<FeatureBackend> {
    return std::make_unique<bench::DeviceEmulationBackend>(
        precomputed, MatcherOptions{}, kDeviceFeMs, kDeviceFmFloorMs);
  };
  SessionConfig pipelined;
  pipelined.camera = seq.camera();
  pipelined.tracker = topts;
  pipelined.backend_factory = make_backend;

  // --- sequential reference ----------------------------------------------
  auto sequential =
      std::make_unique<Tracker>(seq.camera(), make_backend(), topts);
  const WallTimer seq_timer;
  const std::vector<TrackResult> seq_results =
      bench::process_all(*sequential, frames);
  const double seq_wall_ms = seq_timer.elapsed_ms();

  std::vector<TrackResult> key_frames, normal_frames;
  std::partition_copy(seq_results.begin(), seq_results.end(),
                      std::back_inserter(key_frames),
                      std::back_inserter(normal_frames),
                      [](const TrackResult& r) { return r.keyframe; });
  const int n_normal = static_cast<int>(normal_frames.size());
  const int n_key = static_cast<int>(key_frames.size());
  const StageDurations normal_mean = mean_stage_times(normal_frames);
  const StageDurations key_mean = mean_stage_times(key_frames);

  // --- pipelined run ------------------------------------------------------
  SingleStream pipe(pipelined);
  const WallTimer pipe_timer;
  const std::vector<TrackResult> results = pipe.run(frames);
  const double pipe_wall_ms = pipe_timer.elapsed_ms();

  const PipelineStats stats = pipe.session.stats();

  // Steady-state per-frame latency: retire-to-retire interval, attributed
  // to the frame that retires.  Skip the two warmup frames.
  double pipe_normal_period_ms = 0, pipe_key_period_ms = 0;
  int p_normal = 0, p_key = 0;
  int overlapped = 0, overlap_candidates = 0;
  bool key_barrier_ok = true;
  std::vector<double> periods;  // all retire-to-retire intervals (p50/p99)
  for (std::size_t n = 2; n < results.size(); ++n) {
    const StageWindows& cur = results[n].windows;
    const StageWindows& prev = results[n - 1].windows;
    const double period = cur.mu.end_ms - prev.mu.end_ms;
    periods.push_back(period);
    if (results[n].keyframe) {
      pipe_key_period_ms += period;
      ++p_key;
    } else {
      pipe_normal_period_ms += period;
      ++p_normal;
    }
    // Overlap shape: FPGA work of frame n (FE..FM) vs ARM work of n-1.
    if (!results[n - 1].keyframe) {
      ++overlap_candidates;
      if (cur.fe.start_ms < prev.mu.end_ms && cur.fm.end_ms > prev.pe.start_ms)
        ++overlapped;
    }
    // Key-frame shape: FM of n must wait for MU of key frame n-1.
    if (results[n - 1].keyframe && cur.fm.start_ms + 1e-6 < prev.mu.end_ms)
      key_barrier_ok = false;
  }
  if (p_normal > 0) pipe_normal_period_ms /= p_normal;
  if (p_key > 0) pipe_key_period_ms /= p_key;
  const double seq_normal_mean_ms = normal_mean.total();

  // --- report -------------------------------------------------------------
  std::printf("sequence %s, %d frames (%d normal / %d key), backend %s\n",
              seq.name().c_str(), opts.frames, n_normal, n_key,
              sequential->backend().name());
  std::printf("device model: FE latency %.1f ms (host-free), FM floor %.1f "
              "ms (host compute when larger)\n\n",
              kDeviceFeMs, kDeviceFmFloorMs);
  std::printf("measured stage means, normal frames: FE=%.1f FM=%.1f PE=%.1f "
              "PO=%.1f ms\n",
              normal_mean.feature_extraction, normal_mean.feature_matching,
              normal_mean.pose_estimation, normal_mean.pose_optimization);
  std::printf("measured stage means, key frames:    FE=%.1f FM=%.1f PE=%.1f "
              "PO=%.1f MU=%.1f ms\n\n",
              key_mean.feature_extraction, key_mean.feature_matching,
              key_mean.pose_estimation, key_mean.pose_optimization,
              key_mean.map_updating);

  std::printf("%-36s %12s %12s\n", "per-frame latency", "normal", "key");
  std::printf("%-36s %9.1f ms %9.1f ms\n",
              "sequential (measured sum)", seq_normal_mean_ms,
              software_key_frame_ms(key_mean));
  std::printf("%-36s %9.1f ms %9.1f ms\n",
              "pipelined (analytic, Fig-7 model)",
              eslam_normal_frame_ms(normal_mean),
              eslam_key_frame_ms(key_mean));
  std::printf("%-36s %9.1f ms %9.1f ms\n\n",
              "pipelined (measured period)", pipe_normal_period_ms,
              pipe_key_period_ms);

  std::printf("wall clock: sequential %.0f ms, pipelined %.0f ms "
              "(%.2fx throughput)\n",
              seq_wall_ms, pipe_wall_ms, seq_wall_ms / pipe_wall_ms);
  std::printf("lane occupancy: FPGA %.0f ms, ARM %.0f ms over %.0f ms wall; "
              "max in-flight %d, speculative FM %d (replayed %d)\n\n",
              stats.fpga_busy_ms, stats.arm_busy_ms, pipe_wall_ms,
              stats.max_in_flight, stats.speculative_matches,
              stats.replayed_matches);

  // A sample normal-frame window, measured (compare bench_fig7_pipeline's
  // analytic drawing of the same schedule).
  for (int n = 2; n < opts.frames; ++n) {
    if (results[static_cast<std::size_t>(n - 1)].keyframe ||
        results[static_cast<std::size_t>(n)].keyframe)
      continue;
    std::printf("measured normal-frame window (ARM frame %d / FPGA frame "
                "%d):\n",
                n - 1, n);
    draw_measured(results[static_cast<std::size_t>(n - 1)].windows,
                  results[static_cast<std::size_t>(n)].windows);
    std::printf("\n");
    break;
  }

  // --- tracing overhead gate -----------------------------------------------
  // A/B the span-tracing layer (obs/trace.h) on this exact workload: same
  // session config, same frames, runtime switch flipped.  An arm's
  // statistic is its mean frame period over the ~34 periods of a run:
  // tracing costs every frame, so the mean carries it, while a p99 over
  // so few periods is the run's largest one and reads one scheduler
  // hiccup.  The gate runs kTracePairs off/on pairs back to back,
  // alternating which arm goes first so drift in host speed cancels, and
  // gates the median of the per-pair on/off ratios.  The metrics
  // histograms record in both arms (they have no off switch by design), so
  // the ratio isolates tracing itself.
  constexpr int kTracePairs = 6;
  auto pipelined_mean_period = [&](bool tracing_on) {
    const bool was = obs::trace_enabled();
    obs::set_trace_enabled(tracing_on);
    SingleStream ab(pipelined);
    const std::vector<TrackResult> ab_results = ab.run(frames);
    obs::set_trace_enabled(was);
    return mean_period_ms(ab_results);
  };
  std::vector<double> off_means, on_means, trace_ratios;
  for (int pair = 0; pair < kTracePairs; ++pair) {
    double off = 0, on = 0;
    if (pair % 2 == 0) {
      off = pipelined_mean_period(false);
      on = pipelined_mean_period(true);
    } else {
      on = pipelined_mean_period(true);
      off = pipelined_mean_period(false);
    }
    off_means.push_back(off);
    on_means.push_back(on);
    trace_ratios.push_back(off > 0 ? on / off : 1.0);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  const double trace_ratio = median(trace_ratios);
  const double trace_off_mean = median(off_means);
  const double trace_on_mean = median(on_means);
  const double trace_overhead_pct = (trace_ratio - 1.0) * 100.0;
  const auto [ratio_min, ratio_max] =
      std::minmax_element(trace_ratios.begin(), trace_ratios.end());
  std::printf("tracing overhead: median mean period %.2f ms off, %.2f ms on; "
              "median per-pair ratio %.4f (%+.2f%%) over %d pairs, range "
              "%.4f-%.4f\n\n",
              trace_off_mean, trace_on_mean, trace_ratio, trace_overhead_pct,
              kTracePairs, *ratio_min, *ratio_max);

  // --- machine-readable output ---------------------------------------------
  {
    std::vector<double> sorted = periods;
    std::sort(sorted.begin(), sorted.end());
    auto pct = [&](double p) {
      if (sorted.empty()) return 0.0;
      return sorted[std::min(sorted.size() - 1,
                             static_cast<std::size_t>(
                                 p * static_cast<double>(sorted.size())))];
    };
    bench::BenchJson json("pipeline_throughput");
    json.number("frames", opts.frames);
    json.number("sequential_wall_ms", seq_wall_ms);
    json.number("pipelined_wall_ms", pipe_wall_ms);
    json.number("throughput_ratio", seq_wall_ms / pipe_wall_ms);
    json.number("sequential_fps", 1000.0 * opts.frames / seq_wall_ms);
    json.number("pipelined_fps", 1000.0 * opts.frames / pipe_wall_ms);
    json.number("pipelined_p50_ms", pct(0.50));
    json.number("pipelined_p99_ms", pct(0.99));
    json.number("normal_period_ms", pipe_normal_period_ms);
    json.number("key_period_ms", pipe_key_period_ms);
    json.number("speculative_matches", stats.speculative_matches);
    json.number("replayed_matches", stats.replayed_matches);
    json.number("trace_off_mean_period_ms", trace_off_mean);
    json.number("trace_on_mean_period_ms", trace_on_mean);
    json.number("trace_overhead_pct", trace_overhead_pct);
    json.number("trace_pairs", kTracePairs);
    json.number("trace_ratio_median", trace_ratio);
    json.number("trace_ratio_min", *ratio_min);
    json.number("trace_ratio_max", *ratio_max);
    json.write();
    std::printf("\n");
  }

  // --- shape checks --------------------------------------------------------
  std::printf("checks:\n");
  check(results.size() == seq_results.size(),
        "streaming delivered every frame");
  bool poses_equal = true;
  for (std::size_t i = 0; i < results.size(); ++i)
    if ((results[i].pose_wc.translation() -
         seq_results[i].pose_wc.translation()).max_abs() != 0.0 ||
        (results[i].pose_wc.rotation() -
         seq_results[i].pose_wc.rotation()).max_abs() != 0.0)
      poses_equal = false;
  check(poses_equal, "streaming poses bit-identical to sequential");
  check(n_key > 1, "sequence produced key frames beyond bootstrap");
  check(p_normal > 0 && pipe_normal_period_ms < seq_normal_mean_ms,
        "pipelined normal-frame latency < sequential sum of stages");
  check(pipe_wall_ms < seq_wall_ms,
        "pipelined wall clock < sequential wall clock");
  check(overlap_candidates > 0 && overlapped * 10 >= overlap_candidates * 8,
        "FPGA(N+1) overlaps ARM(N) on >=80% of normal frames (Fig-7 "
        "normal shape)");
  check(key_barrier_ok,
        "FM(N+1) never precedes MU(N) on key frames (Fig-7 key shape)");
  // The overhead gate needs a host with enough cores that the tracing
  // delta is not drowned by lane threads time-slicing one CPU; report-only
  // below that.
  if (std::thread::hardware_concurrency() >= 3)
    check(trace_ratio <= 1.03,
          "tracing-on mean frame period within 3% of tracing-off, median "
          "of paired runs (overhead gate)");
  else
    std::printf("  [--] tracing overhead gate skipped (<3 hardware "
                "threads)\n");

  if (failures == 0)
    std::printf("\nmeasured schedule reproduces the Figure-7 shapes.\n");
  else
    std::printf("\n%d shape check(s) failed.\n", failures);
  return failures == 0 ? 0 : 1;
}
