// The whole point of the per-frame arena + shell recycling + SoA borrow
// work: a steady-state tracked frame performs ZERO heap allocations.
// This test instruments the global allocator and proves it for both
// execution modes — sequential Tracker::process() and the pipelined
// TrackerScheduler — over a window of frames after warm-up.
//
// Exemptions (by design, documented in tracker.cpp): bootstrap, keyframe
// insertion, relocalization and the local-mapping backend may allocate —
// they are rare, off the nominal schedule, and structurally grow the map.
// The test therefore tracks a static scene (no keyframes fire after
// bootstrap, backend disabled) so every windowed frame is a nominal
// tracked frame.
//
// The observability layer rides along: tracing and the metrics histograms
// are ENABLED throughout (the build default), and each window asserts
// that spans/samples were actually recorded during it — so the zero-alloc
// claim covers the instrumented hot path, not a vacuously quiet one.
// (Thread rings and registry entries are created on cold paths: ctor
// registration and each thread's first recorded event, all during
// warm-up.)
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "dataset/sequence.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/tracker_scheduler.h"
#include "slam/localizer.h"
#include "slam/map_snapshot.h"
#include "slam/tracker.h"

namespace {

std::atomic<std::size_t> g_allocs{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size ? size : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

}  // namespace

// Replace the global allocator for the whole test binary (library included
// — these strong definitions win over libstdc++'s).  Deallocation is not
// counted: handing buffers back is fine, asking for new ones is the bug.
void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace eslam {
namespace {

constexpr int kWarmupFrames = 12;
constexpr int kWindowFrames = 20;

std::unique_ptr<Tracker> make_tracker(const PinholeCamera& cam) {
  OrbConfig orb;
  orb.n_features = 600;
  return std::make_unique<Tracker>(cam, std::make_unique<SoftwareBackend>(orb),
                                   TrackerOptions{});
}

// One rendered frame, re-fed every iteration: a static camera never trips
// the keyframe policy, so post-bootstrap frames are all nominal tracking.
SyntheticSequence static_sequence() {
  SequenceOptions opts;
  opts.frames = 2;  // generator minimum; only frame(0) is ever fed
  return SyntheticSequence(SequenceId::kFr1Xyz, opts);
}

TEST(SteadyStateAlloc, SequentialTrackedFrameIsAllocationFree) {
  const SyntheticSequence seq = static_sequence();
  auto tracker = make_tracker(seq.camera());
  const FrameInput frame = seq.frame(0);

  // Warm-up: bootstrap (frame 0, inserts the map) then enough tracked
  // frames to grow every capacity — feature lists, match/correspondence
  // vectors, gate CSR, arena slab chain, frame-shell pool.
  for (int i = 0; i < kWarmupFrames; ++i) {
    const TrackResult r = tracker->process(frame);
    ASSERT_FALSE(r.lost) << "warm-up frame " << i;
    if (i > 0) {
      ASSERT_FALSE(r.keyframe) << "static scene made a keyframe";
    }
  }

  const std::uint64_t events_before = obs::trace_events_recorded_total();
  const std::uint64_t pe_samples_before =
      tracker->observability().stage_pe->count();
  const std::size_t before = g_allocs.load();
  int inliers = 0;
  for (int i = 0; i < kWindowFrames; ++i)
    inliers = tracker->process(frame).n_inliers;
  const std::size_t after = g_allocs.load();

  EXPECT_EQ(after - before, 0u)
      << "sequential steady-state frames allocated";
  // The window really tracked (fed the same scene, so inliers are plenty).
  EXPECT_GT(inliers, 50);
  // ... and the window was really instrumented: every frame recorded its
  // PE stage duration, and (in tracing builds) its spans hit the rings.
  EXPECT_EQ(tracker->observability().stage_pe->count() - pe_samples_before,
            static_cast<std::uint64_t>(kWindowFrames));
#if ESLAM_TRACE_ENABLED
  EXPECT_GT(obs::trace_events_recorded_total(), events_before);
#else
  EXPECT_EQ(obs::trace_events_recorded_total(), events_before);
#endif
}

TEST(SteadyStateAlloc, LocalizationFrameIsAllocationFree) {
  const SyntheticSequence seq = static_sequence();
  const FrameInput frame = seq.frame(0);

  // A mapping run over the static scene produces the frozen map the
  // localizer serves against (backend on, so the snapshot carries a graph).
  std::shared_ptr<const FrozenMap> frozen;
  {
    OrbConfig orb;
    orb.n_features = 600;
    TrackerOptions options;
    options.backend.enabled = true;
    Tracker mapper(seq.camera(), std::make_unique<SoftwareBackend>(orb),
                   options);
    for (int i = 0; i < kWarmupFrames; ++i) mapper.process(frame);
    frozen = FrozenMap::from_snapshot(
        capture_snapshot(mapper.map(), mapper.keyframe_graph(), seq.camera()));
  }

  OrbConfig orb;
  orb.n_features = 600;
  Localizer localizer(frozen, std::make_unique<SoftwareBackend>(orb));

  // Warm-up: the cold-start frame (relocalization is exempt by design —
  // it is the entry path, not the steady state) plus enough tracked frames
  // to grow every recycled capacity.
  for (int i = 0; i < kWarmupFrames; ++i) {
    const TrackResult r = localizer.process(frame);
    ASSERT_FALSE(r.lost) << "warm-up frame " << i;
  }
  ASSERT_TRUE(localizer.tracking());

  const std::uint64_t events_before = obs::trace_events_recorded_total();
  const std::uint64_t frame_samples_before =
      localizer.observability().frame_ms->count();
  const std::uint64_t coldstart_before =
      localizer.observability().coldstart_ms->count();
  const std::size_t before = g_allocs.load();
  int inliers = 0;
  for (int i = 0; i < kWindowFrames; ++i)
    inliers = localizer.process(frame).n_inliers;
  const std::size_t after = g_allocs.load();

  EXPECT_EQ(after - before, 0u)
      << "localization steady-state frames allocated";
  EXPECT_GT(inliers, 50);
  // Still a read-only session: the frozen map was never touched.
  EXPECT_EQ(localizer.map().size(), frozen->size());
  // Instrumented window: one frame-latency sample per frame, none of them
  // a cold start (the tracked path never engaged relocalization).
  EXPECT_EQ(localizer.observability().frame_ms->count() - frame_samples_before,
            static_cast<std::uint64_t>(kWindowFrames));
  EXPECT_EQ(localizer.observability().coldstart_ms->count(), coldstart_before);
#if ESLAM_TRACE_ENABLED
  EXPECT_GT(obs::trace_events_recorded_total(), events_before);
#else
  EXPECT_EQ(obs::trace_events_recorded_total(), events_before);
#endif
}

TEST(SteadyStateAlloc, PipelinedTrackedFrameIsAllocationFree) {
  const SyntheticSequence seq = static_sequence();
  auto tracker = make_tracker(seq.camera());

  TrackerScheduler scheduler;
  const SessionRef session = scheduler.add_session(*tracker);

  // Warm-up in feed/poll lockstep (copies allocate here — that's fine).
  for (int i = 0; i < kWarmupFrames; ++i) {
    scheduler.feed(session, seq.frame(0));
    while (!scheduler.poll(session)) std::this_thread::yield();
  }

  // The window's inputs are built BEFORE measurement and fed by move:
  // frame production is the caller's business; the lanes themselves must
  // not allocate.  Each input moves feed -> input ring -> begin_frame ->
  // recycled shell, displacing (freeing) the shell's previous buffers —
  // deallocations are allowed, allocations are not.
  std::vector<FrameInput> inputs;
  inputs.reserve(kWindowFrames);
  for (int i = 0; i < kWindowFrames; ++i) inputs.push_back(seq.frame(0));

  std::vector<TrackResult> results(kWindowFrames);
  const std::uint64_t events_before = obs::trace_events_recorded_total();
  const std::uint64_t pe_samples_before =
      tracker->observability().stage_pe->count();
  const std::size_t before = g_allocs.load();
  for (int i = 0; i < kWindowFrames; ++i) {
    scheduler.feed(session, std::move(inputs[i]));
    std::optional<TrackResult> r;
    while (!(r = scheduler.poll(session))) std::this_thread::yield();
    results[static_cast<std::size_t>(i)] = *r;
  }
  const std::size_t after = g_allocs.load();

  EXPECT_EQ(after - before, 0u) << "pipelined steady-state frames allocated";
  // The lanes recorded through the same instrumentation while staying
  // allocation-free: per-frame PE samples from the worker thread, spans
  // from both lanes (tracing builds).
  EXPECT_EQ(tracker->observability().stage_pe->count() - pe_samples_before,
            static_cast<std::uint64_t>(kWindowFrames));
#if ESLAM_TRACE_ENABLED
  EXPECT_GT(obs::trace_events_recorded_total(), events_before);
#else
  EXPECT_EQ(obs::trace_events_recorded_total(), events_before);
#endif
  for (int i = 0; i < kWindowFrames; ++i) {
    EXPECT_FALSE(results[static_cast<std::size_t>(i)].lost) << "frame " << i;
    EXPECT_FALSE(results[static_cast<std::size_t>(i)].keyframe)
        << "frame " << i;
  }

  scheduler.remove_session(session);
}

}  // namespace
}  // namespace eslam
