// Multi-session SLAM serving layer.
//
// SlamService owns the shared execution resources of the platform — one
// device lane standing in for the FPGA fabric and a fixed pool of ARM
// worker threads (TrackerScheduler) — and multiplexes N independent
// tracking sessions over them.  Each open_session() builds a private
// Tracker + feature backend from a SessionConfig (per-session camera,
// platform, tracker tuning) and registers it with the scheduler; the
// returned SessionHandle is the client's connection: feed/poll/drain,
// stats, and lifecycle.  Each result a mapping session delivers carries
// where its stages ran (TrackResult::windows).
//
// Sharing model (the paper's, scaled out): the fabric is the scarce
// resource, so FE+FM of *all* sessions serialize on the one device lane
// under round-robin fairness, while PE/PO/MU parallelize across sessions
// up to the worker-pool width — at most one worker per session at a time,
// so every session's results stay bit-identical to running that sequence
// alone through Tracker::process().  Back-pressure is per session: one
// slow or stalled session fills only its own bounded input ring and never
// blocks the lane for the others.  A frame whose gray image is not the
// session camera's size is refused at the door and counted, never run.
//
// Localization tier: a session opened with SessionKind::kLocalization
// serves read-only against a FrozenMap loaded from a map snapshot instead
// of building its own map.  It cold-starts through indexed relocalization
// (the kidnapped-robot path is the entry path), runs match ->
// estimate_pose -> optimize_pose only — no map updating, no keyframes, no
// backend jobs — and is scheduled on the ARM worker pool concurrently
// with everything else rather than serialized behind the device lane, so
// localization throughput scales with cores.  Any number of localization
// sessions share one frozen map through its shared_ptr.
//
// Threading: a SessionHandle must be driven by one thread at a time;
// different handles may be driven from different threads concurrently.
// open_session()/close() may race with other sessions' traffic.  The
// service must outlive every handle it issued.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "accel/backend_factory.h"
#include "geometry/camera.h"
#include "obs/metrics.h"
#include "runtime/tracker_scheduler.h"
#include "slam/localizer.h"
#include "slam/tracker.h"

namespace eslam {

class SlamService;
struct ServiceSession;

// What a session does with its map: build one (the full FE->FM->PE->PO->MU
// pipeline over a private live map) or serve against a frozen one
// (read-only localization; see the file comment).
enum class SessionKind { kMapping, kLocalization };

struct ServiceOptions {
  // ARM worker pool width (how many sessions can be in PE/PO/MU at once).
  int arm_workers = 2;
};

// Everything one session needs: sensor, platform, tracker tuning, and its
// runtime knobs.  Sessions are fully independent — distinct cameras,
// distinct backends, distinct maps.
struct SessionConfig {
  SessionKind kind = SessionKind::kMapping;
  // Mapping sessions only; a localization session projects with the
  // camera stored in its frozen map (the one that built it), so `camera`
  // is ignored there.
  PinholeCamera camera = PinholeCamera::tum_freiburg1();
  BackendConfig backend;
  // Tuning for both kinds: a mapping session's Tracker takes all of it; a
  // localization session's Localizer takes its TrackingOptions part (the
  // same matching, relocalization and pose-estimation knobs) and ignores
  // the map-updating fields.
  TrackerOptions tracker;
  // kLocalization only: the shared immutable map to serve against
  // (required — open_session asserts).
  std::shared_ptr<const FrozenMap> frozen_map;
  int queue_capacity = 4;         // this session's input/handoff ring depth
  StagePacer pacer;               // platform-emulation padding (benches)
  // Overrides make_feature_backend(backend) when set — lets tests and
  // benches inject instrumented/emulated backends per session.
  std::function<std::unique_ptr<FeatureBackend>()> backend_factory;
};

struct ServiceStats {
  int sessions_open = 0;
  int sessions_opened_total = 0;
  // Per-kind split of the two counters above.
  int mapping_sessions_open = 0;
  int localization_sessions_open = 0;
  int mapping_sessions_opened_total = 0;
  int localization_sessions_opened_total = 0;
  std::int64_t device_dispatches = 0;  // across live sessions (fairness)
  // Most backend jobs ever simultaneously running on the pool, across all
  // sessions (shard-BA concurrency witness).
  int backend_concurrent_hwm = 0;
  // Localization-tier cold-start relocalizations, lifetime across all
  // localization sessions (attempts engage the recognition index; a
  // success recovered a pose).
  std::int64_t localization_coldstart_attempts = 0;
  std::int64_t localization_coldstart_successes = 0;
};

// A client's connection to one tracking session.  Move-only; closing (or
// destroying) the handle drains the session and releases its scheduler
// slot and tracker.
class SessionHandle {
 public:
  SessionHandle() = default;
  ~SessionHandle();
  SessionHandle(SessionHandle&& other) noexcept;
  SessionHandle& operator=(SessionHandle&& other) noexcept;
  SessionHandle(const SessionHandle&) = delete;
  SessionHandle& operator=(const SessionHandle&) = delete;

  bool valid() const { return service_ != nullptr; }
  int id() const;
  // kMapping on an invalid handle (the default-constructed state).
  SessionKind kind() const;

  // Non-blocking feed; false on this session's back-pressure (input ring
  // full), on a malformed frame (gray image, or on a mapping session the
  // depth image, not the session camera's size, or a non-finite
  // timestamp; counted in PipelineStats::malformed_feeds) or on an
  // invalid handle.
  bool try_feed(FrameInput frame);
  // Blocking feed (waits for ring space; other sessions are unaffected).
  // False, without waiting, on a malformed frame or an invalid handle.
  bool feed(FrameInput frame);
  // Next result in feed order, if ready.
  std::optional<TrackResult> poll();
  // Blocks until every fed frame is delivered and this session's
  // background BA job (if any) has finished; returns the remainder.
  std::vector<TrackResult> drain();

  int in_flight() const;
  // What only the scheduler sees of this session: frames fed, retired and
  // in flight, feeds bounced or refused, device dispatches, speculative
  // and replayed matches, lane busy time, and background jobs run,
  // rejected and applied.  What the jobs did is backend_stats(), the
  // pool-wide backend high-water mark SlamService::stats(), and per-frame
  // outcomes (keyframes, pruned/culled/fused points, relocalizations,
  // loops) the delivered TrackResults.
  PipelineStats stats() const;
  // The tracker's own local-mapping counters (per-class jobs run, shard
  // freeze accounting, BA iterations/costs, points moved).  Thread-safe
  // at any time — the tracker snapshots them under its backend mutex.
  // Zeros for a localization session (it has no backend lane).
  backend::BackendStats backend_stats() const;

  // The session's tracker (trajectory, map).  Mapping sessions only
  // (asserts); only valid while quiescent — after drain() and before the
  // next feed.
  const Tracker& tracker() const;
  // The session's localizer.  Localization sessions only (asserts); same
  // quiescence rule as tracker().
  const Localizer& localizer() const;
  // use_count of this session's frozen-map handle — how many owners
  // (sessions, caller copies) currently share the map.  0 for mapping
  // sessions and invalid handles.
  long frozen_map_use_count() const;

  // Drains, unregisters and destroys the session; returns the not-yet-
  // polled results.  The handle is invalid afterwards (idempotent).
  std::vector<TrackResult> close();

 private:
  friend class SlamService;
  SessionHandle(SlamService* service, std::shared_ptr<ServiceSession> session);

  SlamService* service_ = nullptr;
  std::shared_ptr<ServiceSession> session_;
};

class SlamService {
 public:
  explicit SlamService(const ServiceOptions& options = {});
  ~SlamService();

  SlamService(const SlamService&) = delete;
  SlamService& operator=(const SlamService&) = delete;

  // Opens a new independent tracking session.
  SessionHandle open_session(const SessionConfig& config = {});

  int session_count() const;
  ServiceStats stats() const;
  const ServiceOptions& options() const { return options_; }

  // Prometheus-style text exposition of the process-wide metrics registry
  // (obs/metrics.h): every counter, gauge and latency histogram the
  // engine's layers registered — tracker stages, scheduler dispatch,
  // backend queue waits, localizer frame latency, plus the service-level
  // session rollups below.  This string is what a wire endpoint would
  // serve; until the protocol lands, callers scrape it directly.
  std::string metrics_exposition() const;

 private:
  friend class SessionHandle;

  ServiceOptions options_;
  TrackerScheduler scheduler_;
  mutable std::mutex mutex_;
  int sessions_opened_ = 0;
  int mapping_opened_ = 0;       // guarded by mutex_
  int localization_opened_ = 0;  // guarded by mutex_

  // Service-level session rollups (resolved once at construction; see
  // obs/metrics.h).  Lifetime/frames are recorded at close — a session
  // that never closes contributes only to the opened counters.
  obs::Counter* opened_mapping_total_ = nullptr;
  obs::Counter* opened_localization_total_ = nullptr;
  obs::Counter* closed_total_ = nullptr;
  obs::Histogram* session_lifetime_ms_ = nullptr;
  obs::Histogram* session_frames_ = nullptr;
};

}  // namespace eslam
