// Microbenchmarks for the pipeline's hot kernels, emitting
// BENCH_micro_kernels.json (uploaded by CI's bench-smoke job) so the
// matching tiers' cost is tracked per run:
//
//   * gate build: the projection gate's candidate windows at ~3k and ~6k
//     projected points x 1024 features, hot-path builder vs the GridIndex2d
//     reference, plus the gated matching over the windows it built;
//   * brute force at 1024 x 6140: the dispatched fused kernel (SoA) vs the
//     AoS reference;
//   * verification matching at 1024 x 1881 (cross-checked, no SoA planes —
//     the relocalization and loop-closure shape): dispatched vs the AoS
//     reference;
//   * the three Hamming kernels on every tier the host supports (the
//     tier_<isa>_* keys): brute force, the window scan over both gate
//     sizes and the verification shape, each checked against the scalar
//     tier first.  The other keys describe the dispatched tier (`isa`);
//   * batched map-point projection, scalar vs dispatched;
//   * pose estimation at 1000 correspondences: the 4-point RANSAC
//     hypothesis solve, the 10-iteration refit on the inliers and the
//     15-iteration Huber pose optimization, each against
//     solve_pnp_reference(); one normal-equation pass per tier, Huber off
//     and on (tier_<isa>_normal_equations_us, ..._huber_us), each first
//     checked bit for bit against the scalar tier; and RANSAC's inlier
//     scoring (dispatched, scalar tier, and the reprojection_error_sq()
//     loop);
//   * the recognition index over keyframes of extracted ORB descriptors
//     (the keyframe_index_* keys): a one-batch build of 21 keyframes (a
//     snapshot load), one live insert plus FIFO eviction at 25, 100 and
//     512 live keyframes, and one 1024-descriptor query.
//
// Every timed case first asserts that its outputs equal the reference
// (candidate sets per feature, Match fields, projected pixels, PnP results
// bit for bit, inlier lists, and the recognition index's rankings built
// in one batch against keyframe by keyframe) — a dispatch regression
// fails the bench before it pollutes the numbers.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "backend/keyframe_index.h"
#include "bench_util.h"
#include "core/arena.h"
#include "core/simd_dispatch.h"
#include "dataset/sequence.h"
#include "features/descriptor_soa.h"
#include "features/fast.h"
#include "features/matcher.h"
#include "features/orb.h"
#include "features/simd_kernels.h"
#include "geometry/camera.h"
#include "geometry/wall_timer.h"
#include "image/convolve.h"
#include "slam/match_gate.h"
#include "slam/pnp.h"
#include "slam/ransac.h"

namespace {

using namespace eslam;
using bench::BenchJson;

ImageU8 test_image(int w, int h) {
  ImageU8 img(w, h);
  std::mt19937 rng(7);
  for (auto& p : img.data())
    p = static_cast<std::uint8_t>(40 + rng() % 176);
  return img;
}

Descriptor256 random_descriptor(std::mt19937_64& rng) {
  Descriptor256 d;
  for (auto& w : d.words()) w = rng();
  return d;
}

void require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FATAL: kernel parity violated: %s\n", what);
    std::exit(1);
  }
}

// Forced ties: every third train descriptor repeats its predecessor, and
// every fifth query is a one-bit variant of a train descriptor.
std::vector<Descriptor256> tied_descriptors(std::mt19937_64& rng,
                                            std::size_t n) {
  std::vector<Descriptor256> out(n);
  for (auto& d : out) d = random_descriptor(rng);
  for (std::size_t i = 2; i < n; i += 3) out[i] = out[i - 1];
  return out;
}

FeatureList features_near(std::mt19937_64& rng,
                          const std::vector<Descriptor256>& train,
                          std::size_t n) {
  FeatureList features(n);
  for (std::size_t i = 0; i < n; ++i) {
    features[i].descriptor = random_descriptor(rng);
    if (i % 5 == 0) {
      features[i].descriptor = train[rng() % train.size()];
      features[i].descriptor.set_bit(static_cast<int>(rng() % 256), true);
    }
  }
  return features;
}

void require_same_matches(const std::vector<Match>& a,
                          const std::vector<Match>& b, const char* what) {
  require(a.size() == b.size(), what);
  for (std::size_t i = 0; i < a.size(); ++i)
    require(a[i].query == b[i].query && a[i].train == b[i].train &&
                a[i].distance == b[i].distance &&
                a[i].second_best == b[i].second_best,
            what);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void require_same_pnp(const PnpResult& a, const PnpResult& b,
                      const char* what) {
  for (int i = 0; i < 9; ++i)
    require(same_bits(a.pose.rotation()[i], b.pose.rotation()[i]), what);
  for (int i = 0; i < 3; ++i)
    require(same_bits(a.pose.translation()[i], b.pose.translation()[i]),
            what);
  require(same_bits(a.final_cost, b.final_cost) &&
              a.iterations == b.iterations && a.converged == b.converged,
          what);
}

bool same_equations(const simd::NormalEquations& a,
                    const simd::NormalEquations& b) {
  for (int k = 0; k < 21; ++k)
    if (!same_bits(a.h[k], b.h[k])) return false;
  for (int k = 0; k < 6; ++k)
    if (!same_bits(a.b[k], b.b[k])) return false;
  return same_bits(a.cost, b.cost) && a.used == b.used;
}

// The tiers this CPU runs, announcing the ones it cannot.
std::vector<simd::IsaLevel> supported_tiers() {
  std::vector<simd::IsaLevel> out;
  for (const simd::IsaLevel level : simd::kIsaLevels) {
    if (simd::isa_supported(level))
      out.push_back(level);
    else
      std::printf("tier %-7s not supported by this CPU: not measured\n",
                  simd::isa_name(level));
  }
  return out;
}

std::string tier_key(simd::IsaLevel level, const std::string& metric) {
  return std::string("tier_") + simd::isa_name(level) + "_" + metric;
}

// Verification matching's kernel work on one tier, as match_descriptors_into
// does it with ratio 1: each query's best row, then for a match within
// max_distance the cross-check's back scan over the queries.
std::vector<Match> verify_on(const simd::KernelTable& tier,
                             std::span<const Descriptor256> queries,
                             std::span<const Descriptor256> train,
                             int max_distance) {
  std::vector<Match> out;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    Match m = tier.best_two_rows(queries[i], descriptor_rows(train));
    m.query = static_cast<int>(i);
    if (m.train < 0 || m.distance > max_distance) continue;
    const Match back = tier.best_two_rows(
        train[static_cast<std::size_t>(m.train)], descriptor_rows(queries));
    if (back.train == m.query) out.push_back(m);
  }
  return out;
}

// Keyframe observation sets cut from extracted ORB descriptors.  Uniform
// random descriptors spread over the whole 2^20-word space; extracted ones
// repeat chunk values across views, and that decides the index's size.
// `frames` frames spread over the room sequence are extracted once; set s
// is a window of `per_set` features of frame s % frames, starting further
// along that frame's features on every lap, so no two sets are equal.
// `query` gets the features of a frame between the first two.
std::vector<std::vector<backend::KeyframeObservation>> extracted_keyframes(
    int frames, int sets, int per_set, std::vector<Descriptor256>& query) {
  constexpr int kStride = 12;
  SequenceOptions options;
  options.frames = frames * kStride;
  const SyntheticSequence seq(SequenceId::kFr1Room, options);
  OrbExtractor extractor{OrbConfig{}};
  std::vector<FeatureList> features;
  for (int f = 0; f < frames; ++f)
    features.push_back(extractor.extract(seq.frame(f * kStride).gray));
  for (const Feature& f : extractor.extract(seq.frame(kStride / 2).gray))
    query.push_back(f.descriptor);
  std::vector<std::vector<backend::KeyframeObservation>> out(
      static_cast<std::size_t>(sets));
  for (int s = 0; s < sets; ++s) {
    const FeatureList& from = features[static_cast<std::size_t>(s % frames)];
    const std::size_t start = static_cast<std::size_t>(s / frames) * 37;
    for (int j = 0; j < per_set && j < static_cast<int>(from.size()); ++j) {
      const Feature& f = from[(start + static_cast<std::size_t>(j)) %
                              from.size()];
      out[static_cast<std::size_t>(s)].push_back(
          {s * 10000 + j, Vec2{}, f.descriptor, {}});
    }
  }
  return out;
}

// Keyframes [first, first + n) of `sets`, as one batch.
std::vector<backend::IndexedKeyframe> keyframe_batch(
    const std::vector<std::vector<backend::KeyframeObservation>>& sets,
    int first, int n) {
  std::vector<backend::IndexedKeyframe> batch;
  for (int id = first; id < first + n; ++id)
    batch.push_back({id, sets[static_cast<std::size_t>(id)]});
  return batch;
}

void require_same_ranking(const backend::KeyframeIndex& a,
                          const backend::KeyframeIndex& b,
                          std::span<const Descriptor256> query,
                          const char* what) {
  const auto ra = a.query(query, 1 << 20);
  const auto rb = b.query(query, 1 << 20);
  require(!ra.empty() && ra.size() == rb.size(), what);
  for (std::size_t i = 0; i < ra.size(); ++i)
    require(ra[i].keyframe_id == rb[i].keyframe_id &&
                same_bits(ra[i].score, rb[i].score),
            what);
}

// Median-of-reps wall time for `fn`, in milliseconds.
template <typename Fn>
double time_ms(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const WallTimer t;
    fn();
    samples.push_back(t.elapsed_ms());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main() {
  bench::print_header("micro kernels: scalar vs SIMD",
                      "section 3.2 (BRIEF matcher) kernel throughput");
  BenchJson json("micro_kernels");
  json.text("isa", simd::active_isa_name());
  const std::vector<simd::IsaLevel> tiers = supported_tiers();

  std::mt19937_64 rng(42);
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(rng() >> 11) * 0x1p-53);
  };

  // ---- Gate build: candidate lists for 1024 features --------------------
  {
    const int kFeatures = 1024;
    FeatureList features(kFeatures);
    for (auto& f : features) {
      f.keypoint.x = static_cast<int>(uniform(0.0, 640.0));
      f.keypoint.y = static_cast<int>(uniform(0.0, 480.0));
      f.keypoint.scale = 1.0;
      f.descriptor = random_descriptor(rng);
    }
    const SE3 pose;  // identity prior
    const MatchPolicy policy;
    std::vector<std::vector<double>> gate_rows;
    for (const int target : {3000, 6000}) {
      // Points in the frustum's depth band, about target of them inside
      // the padded image (the rest fall outside or behind).
      const int n = target * 5 / 4;
      std::vector<Vec3> positions(static_cast<std::size_t>(n));
      std::vector<double> xs(positions.size()), ys(positions.size()),
          zs(positions.size());
      for (std::size_t i = 0; i < positions.size(); ++i) {
        const double z = uniform(0.5, 4.0);
        const double u = uniform(-60.0, 700.0), v = uniform(-50.0, 530.0);
        positions[i] = cam.unproject(u, v, z);
        if (i % 50 == 0) positions[i][2] = -z;  // behind the camera
        xs[i] = positions[i][0];
        ys[i] = positions[i][1];
        zs[i] = positions[i][2];
      }
      const std::vector<Descriptor256> train =
          tied_descriptors(rng, positions.size());

      Arena arena;
      GateResult out;
      build_candidate_set_into(xs, ys, zs, pose, cam, features, policy,
                               &arena, out);
      const GateResult reference =
          build_candidate_set(positions, pose, cam, features, policy);
      require(out.projected == reference.projected, "gate projected count");
      std::vector<std::int32_t> list, ref;
      for (std::size_t q = 0; q < features.size(); ++q) {
        out.candidates.expand(q, list);
        reference.candidates.expand(q, ref);
        std::sort(list.begin(), list.end());
        require(list == ref, "gate candidate set vs reference");
      }
      const MatcherOptions options;
      std::vector<Match> gated, gated_ref;
      match_candidates_into(features, TrainView{train, nullptr},
                            out.candidates, options, &arena, gated);
      match_candidates_into(features, TrainView{train, nullptr},
                            reference.candidates, options, &arena, gated_ref);
      require_same_matches(gated, gated_ref, "gated matches vs reference");

      const int reps = 15;
      const double build_ms = time_ms(reps, [&] {
        build_candidate_set_into(xs, ys, zs, pose, cam, features, policy,
                                 &arena, out);
      });
      const double reference_ms = time_ms(reps, [&] {
        (void)build_candidate_set(positions, pose, cam, features, policy);
      });
      const double hamming_ms = time_ms(reps, [&] {
        match_candidates_into(features, TrainView{train, nullptr},
                              out.candidates, options, &arena, gated);
      });
      const double per_feature =
          static_cast<double>(out.candidates.total_candidates()) / kFeatures;
      std::printf("gate_build     projected=%5d x %d features  build %6.3f ms"
                  "  reference %6.3f ms  gated matching %6.3f ms  "
                  "(%.1f candidates/feature)\n",
                  out.projected, kFeatures, build_ms, reference_ms,
                  hamming_ms, per_feature);

      // The window scan alone over every feature's window, per tier.
      const CandidateSet& set = out.candidates;
      std::vector<Descriptor256> rows(set.num_slots() + simd::kSlotRowPad);
      for (std::size_t s = 0; s < set.num_slots(); ++s)
        rows[s] = train[static_cast<std::size_t>(set.slot_train[s])];
      std::vector<Match> best(features.size()), best_scalar(features.size());
      simd::best_two_windows_scalar(set, rows.data(),
                                    descriptor_rows(features),
                                    best_scalar.data());
      const std::string size_tag = target == 3000 ? "3k" : "6k";
      std::printf("  window scan, %s projected:", size_tag.c_str());
      for (const simd::IsaLevel level : tiers) {
        const simd::KernelTable& tier = simd::kernels(level);
        tier.best_two_windows(set, rows.data(), descriptor_rows(features),
                              best.data());
        require_same_matches(best, best_scalar, "window scan tier vs scalar");
        const double ms = time_ms(reps, [&] {
          tier.best_two_windows(set, rows.data(), descriptor_rows(features),
                                best.data());
        });
        std::printf("  %s %6.3f ms", simd::isa_name(level), ms);
        json.number(tier_key(level, "windows_" + size_tag + "_ms"), ms);
      }
      std::printf("\n");
      gate_rows.push_back({static_cast<double>(out.projected), build_ms,
                           reference_ms, hamming_ms, per_feature});
    }
    const std::string gate_cols[] = {"projected", "build_ms", "reference_ms",
                                     "gated_hamming_ms",
                                     "candidates_per_feature"};
    json.rows("gate_build", gate_cols, gate_rows);
  }

  // ---- Brute force: 1024 queries x 6140 train, fused kernel --------------
  {
    const std::vector<Descriptor256> train = tied_descriptors(rng, 6140);
    const FeatureList features = features_near(rng, train, 1024);
    std::vector<Descriptor256> queries(features.size());
    for (std::size_t i = 0; i < features.size(); ++i)
      queries[i] = features[i].descriptor;
    DescriptorSoA soa;
    soa.assign(train);
    const MatcherOptions options;
    Arena arena;
    std::vector<Match> out;
    match_descriptors_into(features, TrainView{train, &soa}, options, &arena,
                           out);
    require_same_matches(out, match_descriptors(queries, train, options),
                         "brute force vs AoS reference");
    std::vector<Match> best(features.size()), best_scalar(features.size());
    simd::best_two_block_scalar(soa, train.size(), descriptor_rows(features),
                                best_scalar.data());

    const int reps = 9;
    const double simd_ms = time_ms(reps, [&] {
      match_descriptors_into(features, TrainView{train, &soa}, options,
                             &arena, out);
    });
    const double aos_ms = time_ms(
        reps, [&] { (void)match_descriptors(queries, train, options); });
    const double pairs = static_cast<double>(features.size()) * train.size();
    std::printf("brute_match    %zu x %zu  dispatched %7.3f ms (%.2f ns/pair)"
                "  aos reference %7.3f ms\n",
                features.size(), train.size(), simd_ms,
                simd_ms * 1e6 / pairs, aos_ms);
    json.number("brute_match_ms", simd_ms);
    json.number("brute_ns_per_pair", simd_ms * 1e6 / pairs);
    json.number("brute_match_aos_ms", aos_ms);
    json.number("brute_match_speedup", simd_ms > 0 ? aos_ms / simd_ms : 0.0);

    // The fused kernel alone, per tier.
    std::printf("  best_two_block kernel:");
    for (const simd::IsaLevel level : tiers) {
      const simd::KernelTable& tier = simd::kernels(level);
      tier.best_two_block(soa, train.size(), descriptor_rows(features),
                          best.data());
      for (std::size_t i = 0; i < best.size(); ++i)
        require(best[i].train == best_scalar[i].train &&
                    best[i].distance == best_scalar[i].distance &&
                    best[i].second_best == best_scalar[i].second_best,
                "best_two_block tier vs scalar");
      const double ms = time_ms(level == simd::IsaLevel::kScalar ? 3 : reps,
                                [&] {
                                  tier.best_two_block(
                                      soa, train.size(),
                                      descriptor_rows(features), best.data());
                                });
      std::printf("  %s %7.3f ms (%.2f ns/pair)", simd::isa_name(level), ms,
                  ms * 1e6 / pairs);
      json.number(tier_key(level, "brute_ms"), ms);
      json.number(tier_key(level, "brute_ns_per_pair"), ms * 1e6 / pairs);
      if (level == simd::IsaLevel::kScalar)
        json.number("brute_scalar_kernel_ms", ms);
    }
    std::printf("\n");
  }

  // ---- Verification: 1024 x 1881, cross-checked, AoS rows ----------------
  {
    const std::vector<Descriptor256> train = tied_descriptors(rng, 1881);
    const FeatureList features = features_near(rng, train, 1024);
    std::vector<Descriptor256> queries(features.size());
    for (std::size_t i = 0; i < features.size(); ++i)
      queries[i] = features[i].descriptor;
    const MatcherOptions options{/*max_distance=*/48, /*ratio=*/1.0,
                                 /*cross_check=*/true};
    Arena arena;
    std::vector<Match> out;
    match_descriptors_into(queries, TrainView{train, nullptr}, options,
                           &arena, out);
    const std::vector<Match> reference =
        match_descriptors(queries, train, options);
    require(!reference.empty(), "verification finds matches");
    require_same_matches(out, reference, "verification vs AoS reference");

    const int reps = 9;
    const double simd_ms = time_ms(reps, [&] {
      match_descriptors_into(queries, TrainView{train, nullptr}, options,
                             &arena, out);
    });
    const double aos_ms = time_ms(
        reps, [&] { (void)match_descriptors(queries, train, options); });
    std::printf("verify_match   %zu x %zu  dispatched %7.3f ms  aos reference "
                "%7.3f ms  speedup %5.2fx  (%zu matches)\n",
                queries.size(), train.size(), simd_ms, aos_ms,
                simd_ms > 0 ? aos_ms / simd_ms : 0.0, reference.size());
    json.number("verify_match_ms", simd_ms);
    json.number("verify_match_aos_ms", aos_ms);
    json.number("verify_match_speedup", simd_ms > 0 ? aos_ms / simd_ms : 0.0);

    // The row kernel's share of that work, per tier.
    std::printf("  best_two_rows kernel:");
    for (const simd::IsaLevel level : tiers) {
      const simd::KernelTable& tier = simd::kernels(level);
      require_same_matches(
          verify_on(tier, queries, train, options.max_distance), reference,
          "best_two_rows tier vs AoS reference");
      const double ms = time_ms(reps, [&] {
        (void)verify_on(tier, queries, train, options.max_distance);
      });
      std::printf("  %s %7.3f ms", simd::isa_name(level), ms);
      json.number(tier_key(level, "verify_ms"), ms);
    }
    std::printf("\n");
  }

  // ---- Batched projection (the match gate's kernel) ----------------------
  {
    const int n = 8192;
    std::vector<double> xs(n), ys(n), zs(n);
    std::mt19937_64 prng(9);
    auto uniform = [&](double lo, double hi) {
      return lo + (hi - lo) * (static_cast<double>(prng() >> 11) * 0x1p-53);
    };
    for (int i = 0; i < n; ++i) {
      xs[static_cast<std::size_t>(i)] = uniform(-4.0, 4.0);
      ys[static_cast<std::size_t>(i)] = uniform(-3.0, 3.0);
      zs[static_cast<std::size_t>(i)] = uniform(-1.0, 9.0);  // some behind
    }
    const SE3 pose;  // identity prior
    const double margin = 24.0;
    std::vector<double> u_a(xs.size()), v_a(xs.size());
    std::vector<double> u_b(xs.size()), v_b(xs.size());
    std::vector<std::uint8_t> keep_a(xs.size()), keep_b(xs.size());

    simd::project_batch(xs, ys, zs, pose, cam, margin, u_a.data(), v_a.data(),
                        keep_a.data());
    simd::project_batch_scalar(xs, ys, zs, pose, cam, margin, u_b.data(),
                               v_b.data(), keep_b.data());
    require(keep_a == keep_b, "project_batch keep mask vs scalar");
    for (std::size_t i = 0; i < xs.size(); ++i)
      if (keep_a[i])
        require(u_a[i] == u_b[i] && v_a[i] == v_b[i],
                "project_batch uv vs scalar");

    const int reps = 9, inner = 64;
    const double scalar_ms = time_ms(reps, [&] {
      for (int i = 0; i < inner; ++i)
        simd::project_batch_scalar(xs, ys, zs, pose, cam, margin, u_b.data(),
                                   v_b.data(), keep_b.data());
    });
    const double simd_ms = time_ms(reps, [&] {
      for (int i = 0; i < inner; ++i)
        simd::project_batch(xs, ys, zs, pose, cam, margin, u_a.data(),
                            v_a.data(), keep_a.data());
    });
    std::printf("project_batch  n=%d  scalar %7.3f ms  simd %7.3f ms  "
                "speedup %5.2fx\n",
                n, scalar_ms, simd_ms,
                simd_ms > 0 ? scalar_ms / simd_ms : 0.0);
    json.number("project_scalar_ms", scalar_ms);
    json.number("project_simd_ms", simd_ms);
    json.number("project_speedup", simd_ms > 0 ? scalar_ms / simd_ms : 0.0);
  }

  // ---- Pose estimation: LM solves and RANSAC scoring ---------------------
  {
    // 1000 correspondences at the tracking workloads' inlier share: 1-px
    // noise, one in four a gross outlier.
    std::mt19937_64 prng(11);
    auto uniform = [&](double lo, double hi) {
      return lo + (hi - lo) * (static_cast<double>(prng() >> 11) * 0x1p-53);
    };
    const SE3 truth = SE3::exp({0.05, -0.02, 0.1, 0.03, -0.04, 0.02});
    const SE3 truth_wc = truth.inverse();
    std::vector<Correspondence> corr;
    while (corr.size() < 1000) {
      const Vec3 p_cam{uniform(-2.0, 2.0), uniform(-1.5, 1.5),
                       uniform(1.0, 6.0)};
      const auto px = cam.project(p_cam);
      if (!px || !cam.in_image(*px)) continue;
      Vec2 pixel = *px + Vec2{uniform(-1.0, 1.0), uniform(-1.0, 1.0)};
      if (corr.size() % 4 == 3)
        pixel = Vec2{uniform(0.0, 640.0), uniform(0.0, 480.0)};
      corr.push_back(Correspondence{truth_wc * p_cam, pixel});
    }
    const SE3 prior = SE3::exp({0.01, 0.01, -0.02, 0.005, 0.0, -0.005}) *
                      truth;

    // RANSAC's hypothesis refit: 4 points, refit.max_iterations (10).
    const RansacOptions ransac;
    PnpOptions refit = ransac.refit;
    refit.max_iterations = std::max(refit.max_iterations, 5);
    const int kSamples = 256;
    std::vector<Correspondence> samples(4 * kSamples);
    for (auto& c : samples) c = corr[prng() % corr.size()];
    auto sample = [&](int k) {
      return std::span<const Correspondence>(samples).subspan(
          static_cast<std::size_t>(4 * k), 4);
    };
    for (int k = 0; k < kSamples; ++k)
      require_same_pnp(solve_pnp(sample(k), cam, prior, refit),
                       solve_pnp_reference(sample(k), cam, prior, refit),
                       "4-point solve_pnp vs reference");
    const double hyp_ms = time_ms(9, [&] {
      for (int k = 0; k < kSamples; ++k)
        (void)solve_pnp(sample(k), cam, prior, refit);
    });
    const double hyp_ref_ms = time_ms(9, [&] {
      for (int k = 0; k < kSamples; ++k)
        (void)solve_pnp_reference(sample(k), cam, prior, refit);
    });
    const double hyp_us = hyp_ms * 1e3 / kSamples;
    const double hyp_ref_us = hyp_ref_ms * 1e3 / kSamples;

    // The final refit (10 iterations) and pose optimization (Huber 2.5,
    // 15 iterations) over all 1000 points.
    PnpOptions final_fit = ransac.refit;
    final_fit.max_iterations = 10;
    const PnpOptions po{/*max_iterations=*/15, /*initial_lambda=*/1e-4,
                        /*huber_delta=*/2.5, /*convergence_step=*/1e-8};
    require_same_pnp(solve_pnp(corr, cam, prior, final_fit),
                     solve_pnp_reference(corr, cam, prior, final_fit),
                     "1000-point refit vs reference");
    require_same_pnp(solve_pnp(corr, cam, prior, po),
                     solve_pnp_reference(corr, cam, prior, po),
                     "1000-point Huber PO vs reference");
    const double refit_ms =
        time_ms(9, [&] { (void)solve_pnp(corr, cam, prior, final_fit); });
    const double refit_ref_ms = time_ms(
        9, [&] { (void)solve_pnp_reference(corr, cam, prior, final_fit); });
    const double po_ms =
        time_ms(9, [&] { (void)solve_pnp(corr, cam, prior, po); });
    const double po_ref_ms =
        time_ms(9, [&] { (void)solve_pnp_reference(corr, cam, prior, po); });

    // Inlier scoring of one hypothesis over the 1000 correspondences.
    const std::size_t n = corr.size();
    std::vector<double> xs(n), ys(n), zs(n), us(n), vs(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = corr[i].world[0];
      ys[i] = corr[i].world[1];
      zs[i] = corr[i].world[2];
      us[i] = corr[i].pixel[0];
      vs[i] = corr[i].pixel[1];
    }
    const simd::ReprojectionColumns columns{xs, ys, zs, us, vs};
    const double thresh_sq =
        ransac.inlier_threshold_px * ransac.inlier_threshold_px;
    std::vector<int> want, got(n), got_scalar(n);
    for (std::size_t i = 0; i < n; ++i)
      if (reprojection_error_sq(corr[i], cam, prior) < thresh_sq)
        want.push_back(static_cast<int>(i));
    got.resize(simd::reprojection_inliers(columns, prior, cam, thresh_sq,
                                          got.data(), 0));
    got_scalar.resize(simd::reprojection_inliers_scalar(
        columns, prior, cam, thresh_sq, got_scalar.data(), 0));
    require(got == want, "reprojection_inliers vs error loop");
    require(got_scalar == want, "reprojection_inliers_scalar vs error loop");
    got.resize(n);
    const int inner = 64;
    std::size_t sink = 0;
    const double score_ms = time_ms(9, [&] {
      for (int r = 0; r < inner; ++r)
        sink += simd::reprojection_inliers(columns, prior, cam, thresh_sq,
                                           got.data(), 0);
    });
    const double score_scalar_ms = time_ms(9, [&] {
      for (int r = 0; r < inner; ++r)
        sink += simd::reprojection_inliers_scalar(columns, prior, cam,
                                                  thresh_sq, got.data(), 0);
    });
    const double score_ref_ms = time_ms(9, [&] {
      for (int r = 0; r < inner; ++r) {
        std::size_t count = 0;
        for (std::size_t i = 0; i < n; ++i)
          if (reprojection_error_sq(corr[i], cam, prior) < thresh_sq)
            got[count++] = static_cast<int>(i);
        sink += count;
      }
    });
    require(sink > 0, "scoring found inliers");
    const double score_us = score_ms * 1e3 / inner;
    const double score_scalar_us = score_scalar_ms * 1e3 / inner;
    const double score_ref_us = score_ref_ms * 1e3 / inner;

    // One normal-equation pass (solve_pnp's per-iteration kernel) over the
    // 1000 correspondences at the prior, per tier, Huber off and on.
    std::printf("normal_equations %zu points:", n);
    for (const double huber : {0.0, po.huber_delta}) {
      const simd::NormalEquations want_ne =
          simd::normal_equations_scalar(columns, prior, cam, huber);
      for (const simd::IsaLevel level : tiers) {
        const simd::KernelTable& tier = simd::kernels(level);
        require(same_equations(tier.normal_equations(columns, prior, cam,
                                                     huber),
                               want_ne),
                "normal_equations tier vs scalar");
        double cost_sum = 0.0;
        const double us =
            time_ms(9,
                    [&] {
                      for (int r = 0; r < inner; ++r)
                        cost_sum +=
                            tier.normal_equations(columns, prior, cam, huber)
                                .cost;
                    }) *
            1e3 / inner;
        require(cost_sum > 0.0, "normal_equations sums a cost");
        const std::string key =
            huber > 0.0 ? "normal_equations_huber_us" : "normal_equations_us";
        std::printf("  %s%s %6.2f us", simd::isa_name(level),
                    huber > 0.0 ? " huber" : "", us);
        json.number(tier_key(level, key), us);
      }
    }
    std::printf("\n");

    std::printf("pnp_hypothesis 4 points   %6.2f us  reference %6.2f us  "
                "speedup %5.2fx\n",
                hyp_us, hyp_ref_us, hyp_us > 0 ? hyp_ref_us / hyp_us : 0.0);
    std::printf("pnp_refit      %zu points %6.3f ms  reference %6.3f ms  "
                "speedup %5.2fx\n",
                n, refit_ms, refit_ref_ms,
                refit_ms > 0 ? refit_ref_ms / refit_ms : 0.0);
    std::printf("pnp_po_huber   %zu points %6.3f ms  reference %6.3f ms  "
                "speedup %5.2fx\n",
                n, po_ms, po_ref_ms, po_ms > 0 ? po_ref_ms / po_ms : 0.0);
    std::printf("ransac_score   %zu points dispatched %6.2f us  scalar %6.2f "
                "us  error loop %6.2f us  (%zu inliers)\n",
                n, score_us, score_scalar_us, score_ref_us, want.size());
    json.number("pnp_hypothesis_us", hyp_us);
    json.number("pnp_hypothesis_reference_us", hyp_ref_us);
    json.number("pnp_refit_ms", refit_ms);
    json.number("pnp_refit_reference_ms", refit_ref_ms);
    json.number("pnp_po_ms", po_ms);
    json.number("pnp_po_reference_ms", po_ref_ms);
    json.number("ransac_score_us", score_us);
    json.number("ransac_score_scalar_us", score_scalar_us);
    json.number("ransac_score_reference_us", score_ref_us);
  }

  // ---- Recognition index: build, live insert + eviction, query ----------
  {
    constexpr int kLive[] = {25, 100, 512};
    constexpr int kReps = 15;
    std::vector<Descriptor256> query;
    const auto sets = extracted_keyframes(/*frames=*/24,
                                          /*sets=*/512 + kReps + 1,
                                          /*per_set=*/700, query);
    auto one_by_one = [&](int first, int n) {
      backend::KeyframeIndex index;
      for (int id = first; id < first + n; ++id)
        index.add_keyframe(id, sets[static_cast<std::size_t>(id)]);
      return index;
    };
    auto batch = [&](int first, int n) {
      backend::KeyframeIndex index;
      index.add_keyframes(keyframe_batch(sets, first, n));
      return index;
    };

    // A snapshot load's index: one batch of 21 keyframes.
    require_same_ranking(batch(0, 21), one_by_one(0, 21), query,
                         "index built in one batch vs keyframe by keyframe");
    const double build_ms = time_ms(kReps, [&] { (void)batch(0, 21); });
    const double build_one_by_one_ms =
        time_ms(kReps, [&] { (void)one_by_one(0, 21); });
    std::printf("keyframe_index build 21 keyframes: one batch %6.3f ms  "
                "keyframe by keyframe %6.3f ms\n",
                build_ms, build_one_by_one_ms);
    json.number("keyframe_index_build_21_ms", build_ms);
    json.number("keyframe_index_build_21_one_by_one_ms", build_one_by_one_ms);

    // The tracker's keyframe insertion at a full FIFO window: one insert,
    // then eviction of the oldest keyframe.  After the reps the live index
    // must still answer as a fresh batch of its window.
    std::printf("keyframe_index insert + evict:");
    for (const int live_n : kLive) {
      backend::KeyframeIndex live = batch(0, live_n);
      require_same_ranking(live, one_by_one(0, live_n), query,
                           "index built in one batch vs keyframe by keyframe");
      std::vector<double> samples;
      for (int r = 0; r <= kReps; ++r) {
        const int id = live_n + r;
        const WallTimer t;
        live.add_keyframe(id, sets[static_cast<std::size_t>(id)]);
        live.remove_below(id - live_n + 1);
        if (r > 0) samples.push_back(t.elapsed_ms());  // first one warms up
      }
      require_same_ranking(live, batch(kReps + 1, live_n), query,
                           "live inserts and evictions vs a fresh batch");
      std::sort(samples.begin(), samples.end());
      const double ms = samples[samples.size() / 2];
      std::printf("  %d live %6.3f ms", live_n, ms);
      json.number("keyframe_index_insert_evict_" + std::to_string(live_n) +
                      "_ms",
                  ms);
    }
    std::printf("\n");

    // One frame's worth of recognition: a 1024-descriptor query against
    // 100 keyframes.
    const backend::KeyframeIndex index = batch(0, 100);
    const double query_ms =
        time_ms(kReps, [&] { (void)index.query(query, 10); });
    std::printf("keyframe_index query %zu descriptors x 100 keyframes "
                "%6.3f ms\n",
                query.size(), query_ms);
    json.number("keyframe_index_query_ms", query_ms);
  }

  // ---- Legacy scalar micro kernels (continuity with earlier runs) --------
  {
    const ImageU8 img = test_image(640, 480);
    const double fast_ms = time_ms(9, [&] { (void)detect_fast(img, 20, 3); });
    const double smooth_ms =
        time_ms(9, [&] { (void)smooth_gaussian7_u8(img); });
    std::printf("fast_detect vga %.3f ms   smooth7x7 vga %.3f ms\n", fast_ms,
                smooth_ms);
    json.number("fast_detect_vga_ms", fast_ms);
    json.number("smooth7_vga_ms", smooth_ms);
  }

  json.write();
  return 0;
}
