// The sharded backend lane: the two-class priority queue in isolation,
// the scheduler's multi-job lane under threaded load (concurrent shard
// jobs, drain/remove while jobs are queued and running), and the
// determinism guarantee of the sequential inline path with sharding on.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dataset/sequence.h"
#include "runtime/backend_queue.h"
#include "server/slam_service.h"
#include "slam/tracker.h"

namespace eslam {
namespace {

// ---- BackendJobQueue unit coverage ----------------------------------------

TEST(BackendJobQueue, LoopVerificationPopsBeforeEarlierRoutineBa) {
  BackendJobQueue<int> q(8);
  EXPECT_TRUE(q.push(BackendJobClass::kRoutineBa, 1));
  EXPECT_TRUE(q.push(BackendJobClass::kRoutineBa, 2));
  EXPECT_TRUE(q.push(BackendJobClass::kLoopVerify, 3));
  EXPECT_TRUE(q.push(BackendJobClass::kRoutineBa, 4));
  EXPECT_TRUE(q.push(BackendJobClass::kLoopVerify, 5));
  // Both loop verifications preempt every queued BA job; within a class
  // the order stays FIFO.
  EXPECT_EQ(q.pop().value(), 3);
  EXPECT_EQ(q.pop().value(), 5);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 4);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BackendJobQueue, FifoModeIgnoresClasses) {
  BackendJobQueue<int> q(8, /*priority=*/false);
  q.push(BackendJobClass::kRoutineBa, 1);
  q.push(BackendJobClass::kLoopVerify, 2);
  q.push(BackendJobClass::kRoutineBa, 3);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(BackendJobQueue, CapacityIsSharedAcrossClasses) {
  BackendJobQueue<int> q(2);
  EXPECT_TRUE(q.push(BackendJobClass::kRoutineBa, 1));
  EXPECT_TRUE(q.push(BackendJobClass::kLoopVerify, 2));
  EXPECT_FALSE(q.push(BackendJobClass::kLoopVerify, 3));  // full for both
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_TRUE(q.push(BackendJobClass::kRoutineBa, 4));
}

TEST(BackendJobQueue, RemoveIfDropsMatchesFromBothClasses) {
  BackendJobQueue<int> q(8);
  for (int v = 0; v < 6; ++v)
    q.push(v % 2 ? BackendJobClass::kLoopVerify : BackendJobClass::kRoutineBa,
           v);
  EXPECT_EQ(q.remove_if([](int v) { return v >= 2 && v <= 4; }), 3u);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().value(), 1);  // surviving loop entries first
  EXPECT_EQ(q.pop().value(), 5);
  EXPECT_EQ(q.pop().value(), 0);
}

// ---- threaded lane stress --------------------------------------------------

OrbConfig small_orb() {
  OrbConfig orb;
  orb.n_features = 400;
  return orb;
}

int config_default_max_inflight() {
  return backend::BackendOptions{}.max_inflight_jobs;
}

SessionConfig shard_session(const SyntheticSequence& seq) {
  SessionConfig config;
  config.camera = seq.camera();
  config.backend.platform = Platform::kSoftware;
  config.backend.orb = small_orb();
  config.tracker.backend.enabled = true;
  config.tracker.backend.min_keyframes = 3;
  return config;
}

TEST(BackendShardLane, ConcurrentSessionsKeepEveryInvariantUnderLoad) {
  const SyntheticSequence seq(SequenceId::kFr1Room, [] {
    SequenceOptions o;
    o.frames = 36;
    return o;
  }());
  SlamService service(ServiceOptions{/*arm_workers=*/3});
  SessionHandle a = service.open_session(shard_session(seq));
  SessionHandle b = service.open_session(shard_session(seq));
  SessionHandle c = service.open_session(shard_session(seq));

  // Interleave the feeds so backend jobs of all sessions compete for the
  // same pool, then kill one session mid-load: remove_session must cancel
  // its queued jobs and wait out its running ones without disturbing the
  // others.
  for (int i = 0; i < seq.size(); ++i) {
    a.feed(seq.frame(i));
    b.feed(seq.frame(i));
    if (i < seq.size() / 2) c.feed(seq.frame(i));
    if (i == seq.size() / 2) c.close();
  }
  const std::vector<TrackResult> ra = a.drain();
  const std::vector<TrackResult> rb = b.drain();
  ASSERT_EQ(static_cast<int>(ra.size()), seq.size());
  ASSERT_EQ(static_cast<int>(rb.size()), seq.size());

  for (const SessionHandle* h : {&a, &b}) {
    const PipelineStats stats = h->stats();
    const backend::BackendStats bstats = h->backend_stats();
    // The tracker agrees with the scheduler about volume.
    EXPECT_EQ(bstats.jobs_run, stats.backend_jobs);
    EXPECT_GT(stats.backend_jobs, 0);
    // Freeze accounting: jobs trace to freezes, in-flight never exceeded
    // the tracker's budget.
    EXPECT_LE(bstats.ba_jobs_run, bstats.shard_jobs_frozen);
    EXPECT_GT(bstats.freeze_events, 0);
    EXPECT_LE(bstats.max_inflight_jobs_seen,
              std::max(1, config_default_max_inflight()));
    // Drained means quiescent: no job left in any state.
    EXPECT_FALSE(h->tracker().backend_busy());
  }
  // The pool-wide high-water mark saw at least one backend job running
  // (>= 1 always; >= 2 when shard/session concurrency materialized —
  // asserted at full scale by bench_backend_ate, not here, where tiny
  // sequences make overlap timing-dependent).
  EXPECT_GE(service.stats().backend_concurrent_hwm, 1);
  EXPECT_EQ(service.session_count(), 2);
}

// ---- sequential determinism with sharding ---------------------------------

TEST(BackendShardLane, SequentialShardedRunsAreBitIdentical) {
  const SyntheticSequence seq(SequenceId::kFr1Room, [] {
    SequenceOptions o;
    o.frames = 30;
    return o;
  }());
  const auto run = [&] {
    BackendConfig accel;
    accel.platform = Platform::kSoftware;
    accel.orb = small_orb();
    TrackerOptions options;
    options.backend.enabled = true;
    options.backend.min_keyframes = 3;
    Tracker tracker(seq.camera(), make_feature_backend(accel), options);
    std::vector<SE3> poses;
    for (int i = 0; i < seq.size(); ++i)
      poses.push_back(tracker.process(seq.frame(i)).pose_wc);
    return poses;
  };
  const std::vector<SE3> first = run();
  const std::vector<SE3> second = run();
  ASSERT_EQ(first.size(), second.size());
  // Inline sharded execution drains ready jobs in job-id order each
  // frame, so two identical sequential runs must agree to the last bit.
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(std::memcmp(&first[i], &second[i], sizeof(SE3)), 0)
        << "frame " << i;
}

}  // namespace
}  // namespace eslam
