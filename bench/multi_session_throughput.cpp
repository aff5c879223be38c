// Multi-session serving throughput: aggregate FPS and per-session latency
// vs session count over server/SlamService — one shared device lane, a
// four-worker ARM pool, K independent camera streams.
//
// The platform is emulated the same way bench_pipeline_throughput emulates
// it, extended to the ARM side: feature extraction is computed functionally
// once per stream outside the timed region and replayed by the backend with
// the modeled device latency as a sleep (the one fabric is *occupied*, the
// host core is free, exactly like a real shared FPGA); the ARM stages run
// their real computation and are then paced to the paper's ARM Cortex-A9
// Table-2 stage durations via each session's StagePacer.  Because both
// knobs only pad wall time, every session's poses stay bit-identical to a
// solo sequential run — which is checked — while the schedule keeps the
// paper's proportions on any host, so the session-count scaling is
// measurable even on a small CI runner.  The >= 1.5x exit-code gate is
// enforced on hosts with >= 4 hardware threads (the ISSUE-2 target); on
// smaller machines the 4 sessions' real per-frame host compute
// timeshares, so the ratio is reported without failing the run.
//
// With FE+FM ~12 ms on the shared fabric and PE+PO+MU ~28 ms per session
// on the pooled ARM side, one session is ARM-bound (~36 fps) and four
// sessions become fabric-bound (~83 fps aggregate): the expected
// aggregate scaling from 1 -> 4 sessions is >2x, and the bench exits
// non-zero below 1.5x.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "dataset/multi_sequence.h"
#include "obs/metrics.h"
#include "server/slam_service.h"
#include "slam/map.h"

namespace {

using namespace eslam;

constexpr int kStreams = 4;
constexpr int kFramesPerSession = 30;
constexpr int kArmWorkers = 4;
// Modeled shared-fabric latencies (ms).  FE is pure device time (sleep);
// FM must run functionally on the host (it reads the evolving map) and is
// padded up to the floor when the host is faster.
constexpr double kDeviceFeMs = 10.0;
constexpr double kDeviceFmFloorMs = 2.0;
// Functional feature budget: enough to track the synthetic rooms solidly
// (the tests use 400) while keeping the host-side FM compute well under
// the modeled stage times, so the emulated platform — not this machine's
// core count — sets the schedule.
constexpr int kFunctionalFeatures = 200;
constexpr double kRequiredScaling14 = 1.5;  // 1 -> 4 sessions, aggregate

using bench::WallTimer;

// Pads the ARM stages to the paper's ARM Cortex-A9 Table-2 durations
// (PE 9.2 ms, PO 8.7 ms, MU 9.9 ms).  Our MU stage runs every frame (it
// includes the commit), so pacing it to the Table-2 value models an ARM
// host that always pays the map-maintenance cost — a conservative stand-in
// that keeps the per-frame ARM total at the paper's key-frame-free sum.
StagePacer a9_pacer() {
  return [](PipeStage stage) {
    switch (stage) {
      case PipeStage::kPoseEstimation: return 9.2;
      case PipeStage::kPoseOptimization: return 8.7;
      case PipeStage::kMapUpdating: return 9.9;
      default: return 0.0;
    }
  };
}

struct RunResult {
  double wall_ms = 0;
  double aggregate_fps = 0;
  double p50_ms = 0, p99_ms = 0;      // per-frame latency across sessions
  std::vector<std::vector<TrackResult>> results;  // per session, feed order
  std::vector<PipelineStats> stats;               // per session
};

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t i = std::min(
      v.size() - 1, static_cast<std::size_t>(p * static_cast<double>(v.size())));
  return v[i];
}

// Serves `k` streams concurrently (one feeder thread per session, a
// closed try_feed/poll loop so delivery timestamps are tight) and returns
// throughput, latency percentiles, results and per-session stats.
RunResult run_sessions(int k, const MultiSequenceSet& streams,
                       const std::vector<std::vector<FeatureList>>& features,
                       const std::vector<std::vector<FrameInput>>& frames) {
  SlamService service(ServiceOptions{kArmWorkers});
  std::vector<SessionHandle> sessions;
  sessions.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    SessionConfig config;
    config.camera = streams.stream(i).camera();
    config.pacer = a9_pacer();
    const std::vector<FeatureList>& stream_features =
        features[static_cast<std::size_t>(i)];
    config.backend_factory = [&stream_features] {
      return std::make_unique<bench::DeviceEmulationBackend>(
          stream_features, MatcherOptions{}, kDeviceFeMs, kDeviceFmFloorMs);
    };
    sessions.push_back(service.open_session(config));
  }

  RunResult run;
  run.results.resize(static_cast<std::size_t>(k));
  std::mutex latency_mutex;
  std::vector<double> latencies;

  const WallTimer timer;
  std::vector<std::thread> feeders;
  feeders.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    feeders.emplace_back([&, i] {
      SessionHandle& session = sessions[static_cast<std::size_t>(i)];
      const std::vector<FrameInput>& input =
          frames[static_cast<std::size_t>(i)];
      std::vector<double> fed_at(input.size(), 0.0);
      std::vector<double> local;
      std::vector<TrackResult>& out = run.results[static_cast<std::size_t>(i)];
      std::size_t next = 0;
      while (out.size() < input.size()) {
        bool progress = false;
        if (next < input.size() && session.try_feed(input[next])) {
          fed_at[next] = timer.elapsed_ms();
          ++next;
          progress = true;
        }
        while (auto r = session.poll()) {
          local.push_back(timer.elapsed_ms() - fed_at[out.size()]);
          out.push_back(std::move(*r));
          progress = true;
        }
        if (!progress) std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      const std::lock_guard<std::mutex> lock(latency_mutex);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : feeders) t.join();
  run.wall_ms = timer.elapsed_ms();
  run.aggregate_fps =
      1000.0 * static_cast<double>(k) * kFramesPerSession / run.wall_ms;
  run.p50_ms = percentile(latencies, 0.50);
  run.p99_ms = percentile(latencies, 0.99);
  for (SessionHandle& session : sessions) run.stats.push_back(session.stats());
  return run;
}

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
  if (!ok) ++failures;
}

// ---------------------------------------------------------------------------
// Writer-stall probe: device-lane FM wait while a co-session is mid-write.
//
// The seed serialized FM's map reads against map updating with one
// shared_mutex, so a keyframe insert on the ARM side stalled the shared
// device lane for every session.  The probe reproduces that contention
// shape directly: a writer thread applies back-to-back map-update batches
// while reader threads time how long acquiring the map's read state takes
// (arrival -> readable).  Arm A is the seed discipline (shared_mutex
// around the same Map); arm B is the shipped wait-free path
// (Map::read_view()).  Both arms run the identical mutation schedule, so
// the only variable is the read-side discipline.  The gate is the ratio
// of *median* acquisition times — medians so a preempted sample on a
// small host cannot swing the result — and is machine-independent enough
// to enforce everywhere: blocking behind a mid-write exclusive section
// costs tens of microseconds, a refcount borrow tens of nanoseconds.

struct StallArmStats {
  double p50_us = 0, p99_us = 0, mean_us = 0;
  std::size_t samples = 0;
};

struct StallProbeResult {
  StallArmStats locked, view;
  double improvement = 0;  // locked p50 / view p50
};

Descriptor256 probe_descriptor(std::int64_t id) {
  Descriptor256 d;
  for (int w = 0; w < Descriptor256::kWords; ++w)
    d.words()[w] = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(id + w + 1);
  return d;
}

StallArmStats fold_waits(std::vector<double>& waits_us) {
  StallArmStats s;
  s.samples = waits_us.size();
  if (waits_us.empty()) return s;
  double sum = 0;
  for (double w : waits_us) sum += w;
  s.mean_us = sum / static_cast<double>(waits_us.size());
  std::sort(waits_us.begin(), waits_us.end());
  s.p50_us = waits_us[waits_us.size() / 2];
  s.p99_us = waits_us[std::min(waits_us.size() - 1,
                               static_cast<std::size_t>(
                                   0.99 * static_cast<double>(waits_us.size())))];
  return s;
}

// Runs one probe arm in lockstep rounds so every sample measures the
// *conditional* latency the probe is named for — a reader arriving while
// the write is in flight — independent of how the host schedules the
// threads (a free-running writer finishes its whole critical section
// inside one timeslice on a small host, and unconditioned samples would
// then mostly measure an idle lock):
//
//   1. the writer *opens* the round (for the seed arm: takes the
//      exclusive lock first, so the write is in flight by definition),
//   2. readers announce arrival and immediately time one read-state
//      acquisition,
//   3. the writer waits for all arrivals, applies the keyframe-style
//      append batch, and closes the round (seed arm: releases the lock),
//   4. everyone acknowledges before the next round starts.
//
// Under the seed discipline step 2 blocks until step 3 finishes — the
// head-of-line stall every co-session paid.  Under published views it
// completes immediately, concurrent with the batch.
template <typename ReadOnce, typename OpenRound, typename CloseRound>
StallArmStats run_stall_arm(ReadOnce read_once, OpenRound open_round,
                            CloseRound close_round) {
  constexpr int kProbeReaders = 2;
  constexpr int kProbeRounds = 200;

  std::atomic<int> round_live{-1};
  std::atomic<int> arrivals{0};
  std::atomic<int> acks{0};
  std::atomic<bool> stop{false};
  std::mutex merge_mutex;
  std::vector<double> waits_us;

  std::vector<std::thread> readers;
  readers.reserve(kProbeReaders);
  for (int r = 0; r < kProbeReaders; ++r) {
    readers.emplace_back([&] {
      std::vector<double> local;
      local.reserve(kProbeRounds);
      int last = -1;
      while (!stop.load(std::memory_order_acquire)) {
        const int round = round_live.load(std::memory_order_acquire);
        if (round == last) {
          std::this_thread::yield();
          continue;
        }
        last = round;
        arrivals.fetch_add(1, std::memory_order_release);
        const auto t0 = std::chrono::steady_clock::now();
        read_once();
        const auto t1 = std::chrono::steady_clock::now();
        local.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        acks.fetch_add(1, std::memory_order_release);
      }
      const std::lock_guard<std::mutex> lock(merge_mutex);
      waits_us.insert(waits_us.end(), local.begin(), local.end());
    });
  }

  for (int round = 0; round < kProbeRounds; ++round) {
    open_round(round);
    round_live.store(round, std::memory_order_release);
    while (arrivals.load(std::memory_order_acquire) <
           kProbeReaders * (round + 1))
      std::this_thread::yield();
    close_round(round);  // the batch itself + the seed arm's unlock
    while (acks.load(std::memory_order_acquire) < kProbeReaders * (round + 1))
      std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  return fold_waits(waits_us);
}

StallProbeResult writer_stall_probe() {
  constexpr int kSeedPoints = 2048;
  constexpr int kBatch = 48;  // points per keyframe-style map-update burst
  StallProbeResult probe;
  std::atomic<std::uint64_t> sink{0};

  {  // Arm A: seed discipline — one shared_mutex over the same Map.
    Map map;
    std::shared_mutex map_mutex;
    for (int i = 0; i < kSeedPoints; ++i)
      map.add_point(Vec3{0.01 * i, 0.02 * i, 1.0}, probe_descriptor(i), 0);
    probe.locked = run_stall_arm(
        [&] {
          const std::shared_lock<std::shared_mutex> lock(map_mutex);
          sink.fetch_add(map.epoch() + map.descriptors()[0].words()[0],
                         std::memory_order_relaxed);
        },
        [&](int) { map_mutex.lock(); },  // write in flight before readers go
        [&](int round) {
          for (int i = 0; i < kBatch; ++i)
            map.add_point(Vec3{0.01 * round, 0.02 * i, 1.0},
                          probe_descriptor(map.next_id()), round);
          map_mutex.unlock();
        });
  }

  {  // Arm B: shipped discipline — wait-free published views, no lock.
    Map map;
    for (int i = 0; i < kSeedPoints; ++i)
      map.add_point(Vec3{0.01 * i, 0.02 * i, 1.0}, probe_descriptor(i), 0);
    probe.view = run_stall_arm(
        [&] {
          const auto view = map.read_view();
          sink.fetch_add(view->epoch() + view->descriptors()[0].words()[0],
                         std::memory_order_relaxed);
        },
        [&](int) {},
        [&](int round) {
          for (int i = 0; i < kBatch; ++i)
            map.add_point(Vec3{0.01 * round, 0.02 * i, 1.0},
                          probe_descriptor(map.next_id()), round);
        });
  }

  probe.improvement =
      probe.view.p50_us > 0 ? probe.locked.p50_us / probe.view.p50_us : 0;
  return probe;
}

}  // namespace

int main() {
  using namespace eslam;
  bench::print_header(
      "Multi-session serving: aggregate FPS / latency vs session count",
      "server/SlamService over the Figure-7 scheduler");

  MultiSequenceOptions mopts;
  mopts.streams = kStreams;
  mopts.sequence.frames = kFramesPerSession;
  const MultiSequenceSet streams(mopts);

  // Pre-render every stream and precompute its functional FE once (the
  // device replays it; all runs and the solo references share it
  // bit-exactly).
  std::vector<std::vector<FrameInput>> frames;
  std::vector<std::vector<FeatureList>> features;
  for (int i = 0; i < streams.size(); ++i) {
    frames.push_back(bench::render_all(streams.stream(i)));
    OrbConfig orb;
    orb.n_features = kFunctionalFeatures;
    OrbExtractor extractor{orb};
    std::vector<FeatureList> fe;
    fe.reserve(frames.back().size());
    for (const FrameInput& f : frames.back())
      fe.push_back(extractor.extract(f.gray));
    features.push_back(std::move(fe));
  }

  std::printf("streams: %d x %d frames; device FE %.1f ms + FM floor %.1f ms "
              "on one shared lane; ARM pool %d workers, stages paced to "
              "A9 Table-2 times\nhost: %u hardware threads\n\n",
              kStreams, kFramesPerSession, kDeviceFeMs, kDeviceFmFloorMs,
              kArmWorkers, std::thread::hardware_concurrency());

  // Solo sequential references (bit-identity oracle).
  std::vector<std::vector<TrackResult>> solo(
      static_cast<std::size_t>(kStreams));
  for (int i = 0; i < kStreams; ++i) {
    Tracker tracker(streams.stream(i).camera(),
                    std::make_unique<bench::DeviceEmulationBackend>(
                        features[static_cast<std::size_t>(i)],
                        MatcherOptions{}, kDeviceFeMs, kDeviceFmFloorMs),
                    TrackerOptions{});
    for (const FrameInput& f : frames[static_cast<std::size_t>(i)])
      solo[static_cast<std::size_t>(i)].push_back(tracker.process(f));
  }

  std::printf("%9s %12s %14s %12s %12s\n", "sessions", "wall ms",
              "aggregate fps", "p50 ms", "p99 ms");
  std::vector<RunResult> runs;
  for (int k : {1, 2, 4}) {
    runs.push_back(run_sessions(k, streams, features, frames));
    const RunResult& r = runs.back();
    std::printf("%9d %12.0f %14.1f %12.1f %12.1f\n", k, r.wall_ms,
                r.aggregate_fps, r.p50_ms, r.p99_ms);
  }
  const RunResult& one = runs[0];
  const RunResult& four = runs[2];
  std::printf("\naggregate scaling 1 -> 4 sessions: %.2fx\n\n",
              four.aggregate_fps / one.aggregate_fps);

  // Wait-free read path vs the seed's shared_mutex, under a writer
  // applying back-to-back keyframe-style map updates.
  const StallProbeResult probe = writer_stall_probe();
  std::printf("writer-stall probe (reader wait to acquire map read state, "
              "writer mid-update):\n");
  std::printf("%18s %10s %10s %10s %10s\n", "read discipline", "p50 us",
              "p99 us", "mean us", "samples");
  std::printf("%18s %10.3f %10.3f %10.3f %10zu\n", "seed shared_mutex",
              probe.locked.p50_us, probe.locked.p99_us, probe.locked.mean_us,
              probe.locked.samples);
  std::printf("%18s %10.3f %10.3f %10.3f %10zu\n", "published views",
              probe.view.p50_us, probe.view.p99_us, probe.view.mean_us,
              probe.view.samples);
  std::printf("median writer-stall improvement: %.1fx\n\n", probe.improvement);

  const obs::Counter* reader_stalls =
      obs::metrics().find_counter("eslam_map_reader_stalls_total");
  const std::int64_t reader_stalls_total =
      reader_stalls ? reader_stalls->value() : 0;
  const obs::Counter* publishes =
      obs::metrics().find_counter("eslam_map_publishes_total");
  const obs::Counter* block_copies =
      obs::metrics().find_counter("eslam_map_block_copies_total");
  const obs::Counter* bytes_copied =
      obs::metrics().find_counter("eslam_map_bytes_copied_total");
  const obs::Counter* bytes_shared =
      obs::metrics().find_counter("eslam_map_bytes_shared_total");
  std::printf("map publication (process-wide, all runs + probe): "
              "%lld views, %lld block copies, %.1f MB copied, %.1f MB "
              "shared, %lld reader stalls\n\n",
              static_cast<long long>(publishes ? publishes->value() : 0),
              static_cast<long long>(block_copies ? block_copies->value() : 0),
              static_cast<double>(bytes_copied ? bytes_copied->value() : 0) /
                  1e6,
              static_cast<double>(bytes_shared ? bytes_shared->value() : 0) /
                  1e6,
              static_cast<long long>(reader_stalls_total));

  std::printf("checks:\n");
  bool all_delivered = true;
  for (const RunResult& r : runs)
    for (const std::vector<TrackResult>& session : r.results)
      if (session.size() != kFramesPerSession) all_delivered = false;
  check(all_delivered, "every session delivered every frame in every run");

  bool bit_identical = true;
  for (std::size_t i = 0; i < four.results.size(); ++i) {
    const std::vector<TrackResult>& served = four.results[i];
    const std::vector<TrackResult>& reference = solo[i];
    for (std::size_t f = 0; f < served.size(); ++f) {
      if ((served[f].pose_wc.translation() -
           reference[f].pose_wc.translation()).max_abs() != 0.0 ||
          (served[f].pose_wc.rotation() -
           reference[f].pose_wc.rotation()).max_abs() != 0.0 ||
          served[f].keyframe != reference[f].keyframe ||
          served[f].n_matches != reference[f].n_matches ||
          served[f].n_inliers != reference[f].n_inliers)
        bit_identical = false;
    }
  }
  check(bit_identical,
        "all 4 concurrent sessions bit-identical to solo sequential runs");

  bool fair = true;
  for (const PipelineStats& s : four.stats)
    if (s.device_dispatches != kFramesPerSession) fair = false;
  check(fair, "device lane dispatched every session exactly its frame count");

  // The wait-free gates hold on any host: the probe's ratio compares two
  // disciplines measured back-to-back on the same machine, and the stall
  // counter counts events, not time.
  check(probe.improvement >= 5.0,
        "writer-stall probe: published views beat the seed's shared_mutex "
        ">= 5x (median reader wait)");
  check(reader_stalls_total == 0,
        "steady-state map readers never fell back to blocking (reader-stall "
        "counter is 0)");

  // The scaling target is defined for a 4-core host (ISSUE 2): the
  // emulation's sleeps hide most of the parallelism cost, but the real
  // per-frame host compute of 4 sessions still timeshares on smaller
  // machines, so there the ratio is reported without gating the exit code
  // (CI's 4-vCPU runners do enforce it).
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores >= 4) {
    check(four.aggregate_fps >= kRequiredScaling14 * one.aggregate_fps,
          "aggregate FPS scales >= 1.5x from 1 to 4 sessions");
  } else {
    std::printf("  [%s] aggregate FPS scales >= 1.5x from 1 to 4 sessions "
                "(informational: gate needs >= 4 hardware threads, host has "
                "%u)\n",
                four.aggregate_fps >= kRequiredScaling14 * one.aggregate_fps
                    ? "ok"
                    : "--",
                cores);
  }

  {
    bench::BenchJson json("multi_session_throughput");
    json.number("streams", kStreams);
    json.number("frames_per_session", kFramesPerSession);
    json.number("arm_workers", kArmWorkers);
    json.number("scaling_1_to_4", four.aggregate_fps / one.aggregate_fps);
    // Machine-independent gate inputs (bench/compare_bench.py enforces
    // these against the committed baseline snapshot).
    json.number("writer_stall_improvement", probe.improvement);
    json.number("reader_stalls_total",
                static_cast<double>(reader_stalls_total));
    json.number("bit_identical", bit_identical ? 1 : 0);
    json.number("all_delivered", all_delivered ? 1 : 0);
    json.number("fair_device_dispatch", fair ? 1 : 0);
    // Probe detail + publication accounting (informational).
    json.number("writer_stall_locked_p50_us", probe.locked.p50_us);
    json.number("writer_stall_locked_p99_us", probe.locked.p99_us);
    json.number("writer_stall_view_p50_us", probe.view.p50_us);
    json.number("writer_stall_view_p99_us", probe.view.p99_us);
    json.number("map_publishes_total",
                static_cast<double>(publishes ? publishes->value() : 0));
    json.number("map_block_copies_total",
                static_cast<double>(block_copies ? block_copies->value() : 0));
    json.number("map_bytes_copied_total",
                static_cast<double>(bytes_copied ? bytes_copied->value() : 0));
    json.number("map_bytes_shared_total",
                static_cast<double>(bytes_shared ? bytes_shared->value() : 0));
    const std::string columns[] = {"sessions", "wall_ms", "aggregate_fps",
                                   "p50_ms", "p99_ms"};
    const int session_counts[] = {1, 2, 4};
    std::vector<std::vector<double>> rows;
    for (std::size_t i = 0; i < runs.size(); ++i)
      rows.push_back({static_cast<double>(session_counts[i]), runs[i].wall_ms,
                      runs[i].aggregate_fps, runs[i].p50_ms, runs[i].p99_ms});
    json.rows("sessions", columns, rows);
    json.write();
  }

  if (failures == 0)
    std::printf("\nmulti-session serving reproduces solo results and scales.\n");
  else
    std::printf("\n%d check(s) failed.\n", failures);
  return failures == 0 ? 0 : 1;
}
