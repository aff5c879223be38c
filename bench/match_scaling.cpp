// Matching-subsystem scaling: per-frame match cost and trajectory accuracy
// of the projection-gated tier vs the brute-force tier as the map grows.
//
// The workload is the long-horizon regime the gate exists for: the fig9
// trajectory (fr1/desk) sampled densely (500+ frames, so per-frame motion
// is realistic ~30 fps flow).  The desk sweep keeps revisiting its view,
// so under the default pruning policy the map still grows past 20k points
// (most points stay matched and survive) — the regime where the
// brute-force scan's linear cost decays while tracking itself remains
// healthy enough that the two tiers' trajectories are comparable.
//
// Two full runs over identical rendered frames:
//   * brute:  MatchPolicy{use_gate = false} — every frame full-map scan;
//   * gated:  default MatchPolicy — projection gate + candidate search,
//             brute fallback on bootstrap/loss/thin-gate frames.
// The gated run additionally *probes* the brute tier every few frames on
// the same features and the same map (the backend is re-invoked out of
// band), giving a paired same-workload cost comparison that run
// divergence cannot distort.
//
// Exit code: non-zero when the run is in the target regime (>= 400
// frames, so per-frame motion is realistic, and the map reached 4k
// points) and either the paired speedup at >= 4k map points falls below
// 3x, the gated run's ATE degrades more than 5% over the brute run,
// gated match cost fails the sublinearity bound, or the gated tier failed
// to engage.  Small frame-count runs (CI smoke) sample the trajectory so
// coarsely that per-frame motion is far beyond any realistic 30 fps flow
// — the gate correctly refuses such frames — so they report the same
// numbers informationally.
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/simd_dispatch.h"
#include "eval/ate.h"
#include "features/simd_kernels.h"

namespace {

using namespace eslam;
using bench::WallTimer;

constexpr int kDefaultFrames = 520;
constexpr int kProbeStride = 10;     // brute probe cadence in the gated run
constexpr std::size_t kBigMap = 4000;  // "large map" regime for the gates
constexpr double kRequiredSpeedup = 3.0;
constexpr double kAtePartityslack = 1.05;  // gated ATE <= 5% over brute

using bench::check;
using bench::failures;
using bench::info;

TrackerOptions scaling_options(bool use_gate) {
  TrackerOptions opts;
  opts.match.use_gate = use_gate;
  return opts;
}

struct PerFrame {
  int frame = 0;
  std::size_t map_size = 0;
  double fm_ms = 0;            // the run's policy-tier match time
  double probe_brute_ms = -1;  // paired brute cost on the same workload
  bool gated = false;
  bool lost = false;
};

struct Run {
  std::vector<PerFrame> frames;
  std::vector<SE3> poses;
  int gated_frames = 0;
  int lost_frames = 0;
  std::size_t final_map = 0;
  double ate_rmse = 0;
  // Kept alive so the kernel probe below can run against the final map's
  // real SoA descriptor planes rather than synthetic data.
  std::unique_ptr<Tracker> tracker;
};

// Drives one tracker over the pre-rendered frames through the stage API;
// when `probe_brute` is set, re-invokes the backend's brute tier on the
// same queries + map every kProbeStride frames (out of band — the probe's
// matches are discarded and do not touch the tracker).
Run run_tracker(const SyntheticSequence& seq,
                const std::vector<FrameInput>& frames, bool use_gate,
                bool probe_brute) {
  Run run;
  run.tracker = std::make_unique<Tracker>(seq.camera(),
                                          std::make_unique<SoftwareBackend>(),
                                          scaling_options(use_gate));
  Tracker& tracker = *run.tracker;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    FrameState fs = tracker.begin_frame(frames[i]);
    tracker.extract(fs);
    tracker.match(fs);

    PerFrame pf;
    pf.frame = static_cast<int>(i);
    // The map size the costs were measured against: match() ran before
    // this frame's own keyframe insertion/prune.
    pf.map_size = tracker.map().size();
    pf.fm_ms = fs.result.times.feature_matching;
    pf.gated = fs.match_tier == MatchTier::kGated;
    if (probe_brute && i % kProbeStride == 0 && !tracker.map().empty()) {
      std::vector<Descriptor256> query;
      query.reserve(fs.features.size());
      for (const Feature& f : fs.features) query.push_back(f.descriptor);
      (void)tracker.backend().match(query, tracker.map().descriptors());
      pf.probe_brute_ms = tracker.backend().last_match_time_ms();
    }

    tracker.estimate_pose(fs);
    tracker.optimize_pose(fs);
    const TrackResult r = tracker.update_map(fs);
    pf.lost = r.lost;
    run.frames.push_back(pf);
    run.gated_frames += pf.gated;
    run.lost_frames += pf.lost;
    run.poses.push_back(r.pose_wc);
  }
  run.final_map = tracker.map().size();
  const AteResult ate =
      absolute_trajectory_error(run.poses, seq.ground_truth());
  run.ate_rmse = ate.rmse;
  return run;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Median: robust against the rare fallback frames, which pay gate + full
// scan and would otherwise dominate a mean of mostly-flat gated costs.
double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eslam;
  bench::print_header(
      "Match scaling: projection-gated vs brute-force matching vs map size",
      "Feature Matching cost model (sections 2.1/3.2) on the Fig-9 "
      "trajectory");

  SequenceOptions opts;
  opts.frames = argc > 1 ? std::atoi(argv[1]) : kDefaultFrames;
  if (opts.frames < 10) opts.frames = 10;
  const SyntheticSequence seq(SequenceId::kFr1Desk, opts);
  const std::vector<FrameInput> frames = bench::render_all(seq);

  std::printf("sequence %s, %d frames, default pruning (the desk sweep "
              "keeps points alive, so the map still grows past 20k)\n\n",
              seq.name().c_str(), opts.frames);

  const WallTimer brute_timer;
  const Run brute = run_tracker(seq, frames, /*use_gate=*/false,
                                /*probe_brute=*/false);
  const double brute_wall_ms = brute_timer.elapsed_ms();
  const WallTimer gated_timer;
  const Run gated = run_tracker(seq, frames, /*use_gate=*/true,
                                /*probe_brute=*/true);
  const double gated_wall_ms = gated_timer.elapsed_ms();

  // --- per-frame curve ----------------------------------------------------
  std::printf("%8s %10s %12s %12s %8s\n", "frame", "map", "gated-run fm",
              "brute probe", "tier");
  std::vector<std::vector<double>> curve;
  for (const PerFrame& pf : gated.frames) {
    if (pf.probe_brute_ms < 0) continue;
    curve.push_back({static_cast<double>(pf.frame),
                     static_cast<double>(pf.map_size), pf.fm_ms,
                     pf.probe_brute_ms});
    if (pf.frame % (5 * kProbeStride) == 0)
      std::printf("%8d %10zu %9.2f ms %9.2f ms %8s\n", pf.frame, pf.map_size,
                  pf.fm_ms, pf.probe_brute_ms, pf.gated ? "gated" : "brute");
  }

  // Paired cost samples, split by map-size regime (same frame, same
  // features, same map for both tiers).
  std::vector<double> small_gated, small_brute, big_gated, big_brute;
  std::vector<double> small_map, big_map;
  for (const PerFrame& pf : gated.frames) {
    if (pf.probe_brute_ms < 0 || pf.frame == 0) continue;
    if (pf.map_size >= kBigMap) {
      big_gated.push_back(pf.fm_ms);
      big_brute.push_back(pf.probe_brute_ms);
      big_map.push_back(static_cast<double>(pf.map_size));
    } else if (pf.map_size >= 1000) {
      small_gated.push_back(pf.fm_ms);
      small_brute.push_back(pf.probe_brute_ms);
      small_map.push_back(static_cast<double>(pf.map_size));
    }
  }
  // Enforce only in the documented regime: dense trajectory sampling
  // (realistic per-frame motion) AND a map that actually grew large.
  const bool target_regime = opts.frames >= 400 && brute.final_map >= kBigMap &&
                             !big_gated.empty() && !small_gated.empty();
  const double speedup_big =
      big_gated.empty() ? 0 : mean(big_brute) / mean(big_gated);
  // Marginal cost per additional map point between the ~1k-point regime
  // and the >= 4k regime, on medians (robust to fallback-frame spikes):
  // the brute scan pays the full per-point Hamming cost, the gated tier
  // only the slim projection + bucketing share plus whatever lands in its
  // windows — this slope ratio is the sublinearity evidence.
  const double map_span = mean(big_map) - mean(small_map);
  const double gated_slope_us =
      map_span > 0 ? (median(big_gated) - median(small_gated)) / map_span * 1e3
                   : 0;
  const double brute_slope_us =
      map_span > 0 ? (median(big_brute) - median(small_brute)) / map_span * 1e3
                   : 0;

  std::printf("\nfinal map: brute run %zu, gated run %zu points\n",
              brute.final_map, gated.final_map);
  std::printf("gated tier engaged on %d/%d frames (%d lost); brute run lost "
              "%d\n",
              gated.gated_frames, opts.frames, gated.lost_frames,
              brute.lost_frames);
  std::printf("paired match cost, map >= %zu: brute %.2f ms, gated %.2f ms "
              "(%.1fx)\n",
              kBigMap, mean(big_brute), mean(big_gated), speedup_big);
  std::printf("marginal cost per added map point (1k -> %zu+): brute %.2f "
              "us, gated %.2f us\n",
              kBigMap, brute_slope_us, gated_slope_us);
  std::printf("trajectory ATE (aligned rmse): brute %.2f cm, gated %.2f cm\n",
              brute.ate_rmse * 100, gated.ate_rmse * 100);
  std::printf("whole-run wall clock: brute %.0f ms, gated %.0f ms\n\n",
              brute_wall_ms, gated_wall_ms);

  // --- machine-readable output -------------------------------------------
  bench::BenchJson json("match_scaling");
  json.number("frames", opts.frames);
  json.number("final_map_brute", static_cast<double>(brute.final_map));
  json.number("final_map_gated", static_cast<double>(gated.final_map));
  json.number("gated_frames", gated.gated_frames);
  json.number("lost_frames_gated", gated.lost_frames);
  json.number("lost_frames_brute", brute.lost_frames);
  json.number("paired_brute_ms_at_4k", mean(big_brute));
  json.number("paired_gated_ms_at_4k", mean(big_gated));
  json.number("speedup_at_4k", speedup_big);
  json.number("gated_us_per_map_point", gated_slope_us);
  json.number("brute_us_per_map_point", brute_slope_us);
  json.number("ate_rmse_m_brute", brute.ate_rmse);
  json.number("ate_rmse_m_gated", gated.ate_rmse);
  json.number("wall_ms_brute", brute_wall_ms);
  json.number("wall_ms_gated", gated_wall_ms);
  // --- SIMD kernel probe over the final map -------------------------------
  // Scalar vs dispatched brute-force kernel (best match + runner-up per
  // query) over the gated run's real descriptor word planes — the
  // per-point cost the brute tier pays per map point.  Bit-exactness is
  // asserted first, so a dispatch regression fails the bench instead of
  // skewing its numbers.
  {
    const Map& map = gated.tracker->map();
    const DescriptorSoA& soa = map.descriptor_soa();
    std::mt19937_64 rng(123);
    std::vector<Descriptor256> queries(256);
    for (auto& d : queries)
      for (auto& w : d.words()) w = rng();
    const DescriptorRows rows = descriptor_rows(queries);
    std::vector<Match> best_simd(queries.size());
    std::vector<Match> best_scalar(queries.size());
    simd::best_two_block(soa, map.size(), rows, best_simd.data());
    simd::best_two_block_scalar(soa, map.size(), rows, best_scalar.data());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (best_simd[i].train != best_scalar[i].train ||
          best_simd[i].distance != best_scalar[i].distance ||
          best_simd[i].second_best != best_scalar[i].second_best) {
        std::printf("FATAL: SIMD/scalar Hamming parity violated on the map\n");
        return 1;
      }
    }
    auto probe_ms = [&](auto&& kernel) {
      std::vector<double> samples;
      for (int rep = 0; rep < 7; ++rep) {
        const WallTimer t;
        kernel();
        samples.push_back(t.elapsed_ms());
      }
      std::sort(samples.begin(), samples.end());
      return samples[samples.size() / 2];
    };
    const double kernel_scalar_ms = probe_ms([&] {
      simd::best_two_block_scalar(soa, map.size(), rows, best_scalar.data());
    });
    const double kernel_simd_ms = probe_ms([&] {
      simd::best_two_block(soa, map.size(), rows, best_simd.data());
    });
    const double kernel_speedup =
        kernel_simd_ms > 0 ? kernel_scalar_ms / kernel_simd_ms : 0.0;
    std::printf("kernel probe (%s, %zu-point map, 256 queries): scalar %.2f "
                "ms, simd %.2f ms (%.1fx)\n",
                simd::active_isa_name(), map.size(), kernel_scalar_ms,
                kernel_simd_ms, kernel_speedup);
    json.text("kernel_isa", simd::active_isa_name());
    json.number("kernel_probe_map_size", static_cast<double>(map.size()));
    json.number("kernel_scalar_ms", kernel_scalar_ms);
    json.number("kernel_simd_ms", kernel_simd_ms);
    json.number("kernel_simd_speedup", kernel_speedup);
  }

  const std::string columns[] = {"frame", "map_size", "gated_run_fm_ms",
                                 "paired_brute_ms"};
  json.rows("curve", columns, curve);
  json.write();

  // --- acceptance ---------------------------------------------------------
  std::printf("\nchecks:\n");
  check(gated.frames.size() == static_cast<std::size_t>(opts.frames) &&
            brute.frames.size() == static_cast<std::size_t>(opts.frames),
        "both runs processed every frame");
  const bool tier_ok =
      gated.gated_frames * 10 >= opts.frames * 7;  // >= 70% of frames
  const bool speed_ok = speedup_big >= kRequiredSpeedup;
  // Sublinearity: each added map point must cost the gated tier a small
  // fraction of what it costs the (exactly linear) brute scan.
  const bool growth_ok =
      brute_slope_us > 0 && gated_slope_us <= 0.25 * brute_slope_us;
  const bool ate_ok =
      gated.ate_rmse <= brute.ate_rmse * kAtePartityslack + 0.002;
  if (target_regime) {
    check(tier_ok, "gated tier engaged on >= 70% of frames");
    check(speed_ok, "gated >= 3x faster than brute at >= 4k map points "
                    "(paired workload)");
    check(growth_ok, "gated marginal cost per map point <= 25% of brute's");
    check(ate_ok, "gated ATE within 5% of the brute-force run");
  } else {
    std::printf("  smoke run (need >= 400 frames and a >= %zu-point map "
                "for enforcement) — gates reported, not enforced\n",
                kBigMap);
    info(tier_ok, "gated tier engaged on >= 70% of frames");
    info(speed_ok, "gated >= 3x faster than brute (paired workload)");
    info(ate_ok, "gated ATE within 5% of the brute-force run");
  }

  if (failures != 0)
    std::printf("\n%d check(s) failed.\n", failures);
  else if (target_regime)
    std::printf("\ngated matching scales sublinearly with map size at "
                "brute-force accuracy.\n");
  else
    std::printf("\nsmoke run completed (benches compile and run).\n");
  return failures == 0 ? 0 : 1;
}
