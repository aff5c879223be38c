#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "../test_util.h"
#include "accel/matcher_hw.h"
#include "accel/orb_extractor_hw.h"
#include "core/arena.h"
#include "dataset/scene.h"
#include "features/orb.h"
#include "slam/match_gate.h"

namespace eslam {
namespace {

ImageU8 rendered_frame(std::uint32_t seed = 1) {
  BoxRoomOptions opts;
  opts.texture_seed = seed;
  const BoxRoomScene scene(opts);
  const PinholeCamera cam(260.0, 260.0, 160.0, 120.0, 320, 240);
  return scene.render(cam, SE3{}, 0).gray;
}

TEST(ExtractorHw, ProducesFeaturesWithinBudget) {
  OrbExtractorHw hw;
  const FeatureList f = hw.extract(rendered_frame());
  EXPECT_LE(f.size(), 1024u);
  EXPECT_GT(f.size(), 200u);
  EXPECT_EQ(hw.report().kept, static_cast<int>(f.size()));
  EXPECT_GE(hw.report().detected, hw.report().kept);
}

TEST(ExtractorHw, CycleCountTracksPixelThroughput) {
  OrbExtractorHw hw;
  const ImageU8 img = rendered_frame();
  hw.extract(img);
  const HwExtractorReport& rep = hw.report();
  std::uint64_t pixels = 0;
  for (const LevelCycleReport& l : rep.levels)
    pixels += static_cast<std::uint64_t>(l.width) * l.height;
  // Streaming contract: 1 px/cycle plus bounded overheads (< 25%).
  EXPECT_GE(rep.total_cycles, pixels);
  EXPECT_LE(rep.total_cycles, pixels + pixels / 4);
}

TEST(ExtractorHw, FullVgaFrameLatencyNearPaper) {
  // On the paper's workload shape (640x480, 4 levels, 1024 features) the
  // simulated FE latency must land in the paper's neighbourhood: 9.1 ms
  // reported; our model gives ~8-9 ms (see EXPERIMENTS.md).
  const BoxRoomScene scene;
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  const ImageU8 img = scene.render(cam, SE3{}, 0).gray;
  OrbExtractorHw hw;
  hw.extract(img);
  EXPECT_GT(hw.report().ms(), 7.0);
  EXPECT_LT(hw.report().ms(), 10.5);
}

TEST(ExtractorHw, MatchesSoftwareKeypointsAndDescriptors) {
  // The HW extractor must agree with the software RS-BRIEF pipeline on
  // keypoint locations; descriptors agree wherever the LUT orientation
  // equals the atan2 orientation (they differ only at bin boundaries).
  const ImageU8 img = rendered_frame();
  OrbExtractorHw hw;
  OrbConfig sw_cfg;
  sw_cfg.mode = DescriptorMode::kRsBrief;
  sw_cfg.fast_threshold = hw.config().fast_threshold;
  sw_cfg.n_features = hw.config().n_features;
  sw_cfg.border = hw.config().border;
  OrbExtractor sw(sw_cfg);

  const FeatureList fh = hw.extract(img);
  const FeatureList fs = sw.extract(img);

  std::map<std::tuple<int, int, int>, const Feature*> sw_index;
  for (const Feature& f : fs)
    sw_index[{f.keypoint.level, f.keypoint.x, f.keypoint.y}] = &f;

  int common = 0, descriptor_equal = 0, label_equal = 0;
  for (const Feature& f : fh) {
    const auto it =
        sw_index.find({f.keypoint.level, f.keypoint.x, f.keypoint.y});
    if (it == sw_index.end()) continue;
    ++common;
    if (f.keypoint.orientation_label ==
        it->second->keypoint.orientation_label) {
      ++label_equal;
      descriptor_equal += f.descriptor == it->second->descriptor;
    }
  }
  ASSERT_GT(common, 500);  // same detector, same scores -> same survivors
  // Orientation labels agree except at quantized bin boundaries.
  EXPECT_GT(static_cast<double>(label_equal) / common, 0.98);
  // Where labels agree, descriptors are bit-identical.
  EXPECT_EQ(descriptor_equal, label_equal);
}

TEST(ExtractorHw, DeterministicAcrossRuns) {
  OrbExtractorHw a, b;
  const ImageU8 img = rendered_frame(3);
  const FeatureList fa = a.extract(img);
  const FeatureList fb = b.extract(img);
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i)
    EXPECT_EQ(fa[i].descriptor, fb[i].descriptor);
  EXPECT_EQ(a.report().total_cycles, b.report().total_cycles);
}

TEST(ExtractorHw, RescheduledBeatsOriginalWorkflowLatency) {
  const ImageU8 img = rendered_frame(5);
  HwExtractorConfig resched;
  resched.workflow = HwWorkflow::kRescheduled;
  HwExtractorConfig original;
  original.workflow = HwWorkflow::kOriginal;
  OrbExtractorHw hw_r(resched), hw_o(original);
  hw_r.extract(img);
  hw_o.extract(img);
  // The paper's rescheduling claim: meaningfully lower latency.
  EXPECT_LT(hw_r.report().total_cycles * 110 / 100,
            hw_o.report().total_cycles);
  // And the original workflow needs the full smoothened pyramid buffered
  // (3x the streaming caches even at QVGA; ~10x at VGA).
  EXPECT_GT(hw_o.report().original_workflow_cache_bits,
            3 * hw_r.report().onchip_bits);
}

TEST(ExtractorHw, WorkflowsProduceSameFeatures) {
  // Rescheduling changes *when* descriptors are computed, not *what*.
  const ImageU8 img = rendered_frame(7);
  HwExtractorConfig resched, original;
  original.workflow = HwWorkflow::kOriginal;
  OrbExtractorHw hw_r(resched), hw_o(original);
  FeatureList fr = hw_r.extract(img);
  FeatureList fo = hw_o.extract(img);
  ASSERT_EQ(fr.size(), fo.size());
  auto key = [](const Feature& f) {
    return std::tuple{f.keypoint.level, f.keypoint.x, f.keypoint.y};
  };
  auto by_key = [&](const Feature& a, const Feature& b) {
    return key(a) < key(b);
  };
  std::sort(fr.begin(), fr.end(), by_key);
  std::sort(fo.begin(), fo.end(), by_key);
  for (std::size_t i = 0; i < fr.size(); ++i) {
    EXPECT_EQ(key(fr[i]), key(fo[i]));
    EXPECT_EQ(fr[i].descriptor, fo[i].descriptor);
  }
}

TEST(ExtractorHw, DescribedCountsDifferBetweenWorkflows) {
  // Rescheduled describes all M detected; original describes only the N
  // kept — the M-N overhead the paper accepts to eliminate the idle.
  const ImageU8 img = rendered_frame(9);
  HwExtractorConfig resched, original;
  original.workflow = HwWorkflow::kOriginal;
  OrbExtractorHw hw_r(resched), hw_o(original);
  hw_r.extract(img);
  hw_o.extract(img);
  EXPECT_EQ(hw_r.report().described, hw_r.report().detected);
  EXPECT_EQ(hw_o.report().described, hw_o.report().kept);
  EXPECT_GT(hw_r.report().described, hw_o.report().described);
}

// --- BriefMatcherHw ---------------------------------------------------------

std::vector<Descriptor256> random_set(std::size_t n, std::uint32_t seed) {
  eslam::testing::rng(seed);
  std::vector<Descriptor256> v(n);
  for (auto& d : v) d = eslam::testing::random_descriptor();
  return v;
}

TEST(MatcherHw, ResultsMatchSoftwareReference) {
  const auto queries = random_set(64, 601);
  const auto train = random_set(500, 602);
  BriefMatcherHw hw;
  const auto matches = hw.match(queries, train);
  ASSERT_EQ(matches.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Match ref = match_one(queries[i], train);
    EXPECT_EQ(matches[i].train, ref.train);
    EXPECT_EQ(matches[i].distance, ref.distance);
    EXPECT_EQ(matches[i].second_best, ref.second_best);
    EXPECT_EQ(matches[i].query, static_cast<int>(i));
  }
}

TEST(MatcherHw, CycleFormula) {
  const auto queries = random_set(100, 603);
  const auto train = random_set(1000, 604);
  HwMatcherConfig cfg;
  cfg.parallelism = 8;
  BriefMatcherHw hw(cfg);
  hw.match(queries, train);
  // 100 queries x ceil(1000/8) batches + pipeline depth.
  EXPECT_EQ(hw.report().compute_cycles,
            100u * 125u + static_cast<std::uint64_t>(cfg.pipeline_depth));
}

TEST(MatcherHw, PaperOperatingPointLatency) {
  // 1024 features vs ~3000-point map at P=8 must land near 4 ms (paper).
  const auto queries = random_set(1024, 605);
  const auto train = random_set(3000, 606);
  BriefMatcherHw hw;
  hw.match(queries, train);
  EXPECT_GT(hw.report().ms(), 3.0);
  EXPECT_LT(hw.report().ms(), 4.5);
}

TEST(MatcherHw, ParallelismScalesCompute) {
  const auto queries = random_set(64, 607);
  const auto train = random_set(512, 608);
  HwMatcherConfig p8, p16;
  p8.parallelism = 8;
  p16.parallelism = 16;
  BriefMatcherHw hw8(p8), hw16(p16);
  hw8.match(queries, train);
  hw16.match(queries, train);
  EXPECT_NEAR(static_cast<double>(hw8.report().compute_cycles) /
                  static_cast<double>(hw16.report().compute_cycles),
              2.0, 0.1);
}

TEST(MatcherHw, EmptyMapReturnsNothing) {
  const auto queries = random_set(5, 609);
  BriefMatcherHw hw;
  EXPECT_TRUE(hw.match(queries, {}).empty());
}

TEST(MatcherHw, LoadOverlapsComputeAtPaperScale) {
  // At the paper operating point, descriptor loading (4 cycles/point at
  // 8 B/cycle) is far below compute (128 cycles/point) — fully hidden.
  const auto queries = random_set(1024, 610);
  const auto train = random_set(2000, 611);
  BriefMatcherHw hw;
  hw.match(queries, train);
  EXPECT_LT(hw.report().load_cycles, hw.report().compute_cycles / 10);
  EXPECT_EQ(hw.report().total_cycles,
            hw.report().compute_cycles + hw.report().writeback_cycles);
}

// --- gated mode -------------------------------------------------------------

CandidateSet window_lists(std::size_t queries, std::size_t train,
                          std::size_t per_query) {
  CandidateSet set;
  std::vector<std::int32_t> list(per_query);
  for (std::size_t q = 0; q < queries; ++q) {
    for (std::size_t k = 0; k < per_query; ++k)
      list[k] = static_cast<std::int32_t>((q * 7 + k * 13) % train);
    std::sort(list.begin(), list.end());
    set.add_list(list);
  }
  return set;
}

TEST(MatcherHw, GatedResultsMatchSoftwareReference) {
  const auto queries = random_set(32, 612);
  const auto train = random_set(400, 613);
  const CandidateSet set = window_lists(queries.size(), train.size(), 9);
  BriefMatcherHw hw;
  const auto matches = hw.match_candidates(queries, train, set);
  ASSERT_EQ(matches.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    std::vector<std::int32_t> list;
    set.expand(i, list);
    const Match ref = match_one_candidates(queries[i], train, list);
    EXPECT_EQ(matches[i].train, ref.train);
    EXPECT_EQ(matches[i].distance, ref.distance);
    EXPECT_EQ(matches[i].second_best, ref.second_best);
    EXPECT_EQ(matches[i].query, static_cast<int>(i));
  }
  EXPECT_TRUE(hw.report().gated);
  EXPECT_EQ(hw.report().candidates, set.total_candidates());
}

TEST(MatcherHw, GatedReportOverGateWindowsIsUnchanged) {
  // The tracker's gated path: the fabric model takes each query's list
  // from the hot-path gate's windows.  Its matches and cycle report equal
  // those over the reference builder's lists, and the report equals the
  // values recorded when the gate still emitted explicit lists.
  std::mt19937_64 gen(622);
  const auto uniform = [&gen](double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(gen() >> 11) * 0x1p-53);
  };
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  std::vector<Vec3> positions;
  std::vector<double> xs, ys, zs;
  for (int i = 0; i < 3000; ++i) {
    Vec3 p = cam.unproject(uniform(-40.0, 680.0), uniform(-40.0, 520.0),
                           uniform(0.5, 4.0));
    if (i % 40 == 0) p[2] = -p[2];  // behind the camera
    positions.push_back(p);
    xs.push_back(p[0]);
    ys.push_back(p[1]);
    zs.push_back(p[2]);
  }
  FeatureList features(700);
  std::vector<Descriptor256> queries;
  for (Feature& f : features) {
    f.keypoint.x = static_cast<int>(uniform(0.0, 640.0));
    f.keypoint.y = static_cast<int>(uniform(0.0, 480.0));
    f.keypoint.scale = 1.0;
    for (auto& w : f.descriptor.words()) w = gen();
    queries.push_back(f.descriptor);
  }
  std::vector<Descriptor256> train(positions.size());
  for (Descriptor256& d : train)
    for (auto& w : d.words()) w = gen();
  const MatchPolicy policy;
  Arena arena;
  GateResult gate;
  build_candidate_set_into(xs, ys, zs, SE3{}, cam, features, policy, &arena,
                           gate);
  const GateResult reference =
      build_candidate_set(positions, SE3{}, cam, features, policy);

  BriefMatcherHw hw, hw_reference;
  const auto matches = hw.match_candidates(queries, train, gate.candidates);
  const auto want =
      hw_reference.match_candidates(queries, train, reference.candidates);
  ASSERT_EQ(matches.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(matches[i].train, want[i].train) << i;
    EXPECT_EQ(matches[i].distance, want[i].distance) << i;
    EXPECT_EQ(matches[i].second_best, want[i].second_best) << i;
  }
  const HwMatcherReport& got = hw.report();
  const HwMatcherReport& ref = hw_reference.report();
  EXPECT_EQ(got.candidates, ref.candidates);
  EXPECT_EQ(got.compute_cycles, ref.compute_cycles);
  EXPECT_EQ(got.load_cycles, ref.load_cycles);
  EXPECT_EQ(got.writeback_cycles, ref.writeback_cycles);
  EXPECT_EQ(got.total_cycles, ref.total_cycles);
  // Recorded with the explicit-list gate on this scene.
  EXPECT_EQ(got.candidates, 11752u);
  EXPECT_EQ(got.compute_cycles, 1788u);
  EXPECT_EQ(got.load_cycles, 52900u);
  EXPECT_EQ(got.writeback_cycles, 708u);
  EXPECT_EQ(got.total_cycles, 53608u);
}

TEST(MatcherHw, GatedCyclesTrackCandidateCountNotMapSize) {
  // Same candidate workload against a 10x larger map: compute cycles must
  // not move — simulated FPGA time reflects the gated workload.
  const auto queries = random_set(64, 614);
  const auto small = random_set(500, 615);
  const auto large = random_set(5000, 616);
  const CandidateSet set = window_lists(queries.size(), small.size(), 8);
  BriefMatcherHw hw;
  hw.match_candidates(queries, small, set);
  const std::uint64_t cycles_small = hw.report().total_cycles;
  hw.match_candidates(queries, large, set);
  EXPECT_EQ(hw.report().total_cycles, cycles_small);
}

TEST(MatcherHw, GatedModeIsFasterThanFullScanAtScale) {
  // 1024 queries, 4000-point map, ~24 candidates per query: the gated
  // cycle count must undercut the full scan by well over 3x.
  const auto queries = random_set(1024, 617);
  const auto train = random_set(4000, 618);
  const CandidateSet set = window_lists(queries.size(), train.size(), 24);
  BriefMatcherHw hw;
  hw.match(queries, train);
  const double full_ms = hw.report().ms();
  hw.match_candidates(queries, train, set);
  const double gated_ms = hw.report().ms();
  EXPECT_GT(full_ms, 3.0 * gated_ms);
}

TEST(MatcherHw, GatedEmptyListsAndEmptyMap) {
  const auto queries = random_set(3, 619);
  const auto train = random_set(10, 620);
  CandidateSet set;
  for (int q = 0; q < 3; ++q) set.add_list({});  // every list empty
  BriefMatcherHw hw;
  const auto matches = hw.match_candidates(queries, train, set);
  ASSERT_EQ(matches.size(), queries.size());
  for (const Match& m : matches) EXPECT_EQ(m.train, -1);
  EXPECT_TRUE(hw.match_candidates(queries, {}, set).empty());
}

}  // namespace
}  // namespace eslam
