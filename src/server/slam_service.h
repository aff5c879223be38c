// Multi-session SLAM serving layer: the Figure-7 runtime.
//
// SlamService owns the shared execution resources of the platform — one
// device lane thread standing in for the FPGA fabric, a fixed pool of ARM
// worker threads, and the session registry — and multiplexes N independent
// tracking sessions over them.  Each open_session() builds a private
// Tracker (or Localizer) + feature backend from a SessionConfig
// (per-session camera, platform, tracker tuning, ring depth, pacer); the
// returned SessionHandle is the client's connection: feed/poll/drain,
// stats, and lifecycle.  A single stream is one session on a one-worker
// service: the paper's original two-lane pipeline.
//
// Sharing model (the paper's, scaled out): the fabric is the scarce
// resource, so FE+FM of *all* mapping sessions serialize on the one device
// lane, dispatched round-robin from a rotating cursor (per-session turns
// in PipelineStats::device_dispatches), while PE/PO/MU run on the worker
// pool — at most one worker per session at a time, so each session's
// frames retire in feed order.  The paper's key-frame dependency is a
// per-session barrier: the authoritative FM of frame N+1 must see the map
// after MU of frame N.  While the barrier is closed the device lane
// matches speculatively against the map's published read view (wait-free
// against every session's map writer), parks the frame in a per-session
// slot and moves on to other sessions; once frame N retires the match is
// kept, or replayed if a key frame moved the map's epoch.  Every session's
// results are therefore bit-identical to running its sequence alone
// through Tracker::process().  Local-mapping backend jobs ride the same
// pool on a bounded two-class queue (loop verification before routine
// shard BA) that workers serve only when no tracking stage is runnable;
// their deltas re-enter the map at the next keyframe through the tracker's
// own update_map().  Idle lanes park on condition variables: an idle
// service consumes no CPU.
//
// Each result a mapping session delivers carries its measured schedule:
// where its five stages ran (TrackResult::windows), on this service's
// clock with pacer padding included.
//
// Localization tier: a session opened with SessionKind::kLocalization
// serves read-only against a FrozenMap loaded from a map snapshot instead
// of building its own map.  It cold-starts through indexed relocalization
// (the kidnapped-robot path is the entry path) and runs match ->
// estimate_pose -> optimize_pose only — no map updating, no keyframes, no
// backend jobs.  A frozen map needs no key-frame barrier, so the session
// never touches the device lane: each frame (FE through PO) runs whole as
// one unit on the worker pool, concurrently with everything else, and the
// tier's throughput scales with cores.  Its results carry no pacing and
// zero windows.  Any number of localization sessions share one frozen map
// through its shared_ptr.  Opening one without a map returns an invalid
// handle.
//
// Back-pressure and malformed frames: each session has a bounded input
// ring, so one slow or stalled session fills only its own ring (try_feed
// returns false) and never blocks the lanes for the others; delivery is
// unbounded on the user side, so an unpolled session never wedges a
// worker.  A frame tracking cannot use is refused at the door (feed and
// try_feed return false, PipelineStats::malformed_feeds counts it) instead
// of reaching a stage whose bounds assert would abort every session: a
// gray image that is not the session camera's size, a non-finite
// timestamp, or, on a mapping session, a depth image of another size (an
// empty one included).  Localization sessions never read depth.
//
// Threading: a SessionHandle must be driven by one thread at a time;
// different handles may be driven from different threads concurrently.
// open_session() and close() may race with other sessions' traffic.  The
// service must outlive every handle it issued; destroying it stops the
// lanes and abandons in-flight frames.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "accel/backend_factory.h"
#include "geometry/camera.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/backend_queue.h"
#include "runtime/lane.h"
#include "runtime/ring_queue.h"
#include "slam/localizer.h"
#include "slam/tracker.h"

namespace eslam {

class SlamService;
// One session's state: its Tracker or Localizer, rings and counters
// (defined in slam_service.cpp).
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
  // (required — without one, open_session returns an invalid handle).
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
  // Per-kind split of the counters above.
  int mapping_sessions_open = 0;
  int localization_sessions_open = 0;
  int localization_sessions_opened_total = 0;
  std::int64_t device_dispatches = 0;  // across live sessions (fairness)
  // Most backend jobs ever simultaneously running on the pool, across all
  // sessions (shard-BA concurrency witness).
  int backend_concurrent_hwm = 0;
};

// A client's connection to one tracking session.  Move-only; closing (or
// destroying) the handle drains the session, unregisters it and destroys
// its tracker or localizer.
class SessionHandle {
 public:
  SessionHandle() = default;
  ~SessionHandle();
  SessionHandle(SessionHandle&& other) noexcept;
  SessionHandle& operator=(SessionHandle&& other) noexcept;
  SessionHandle(const SessionHandle&) = delete;
  SessionHandle& operator=(const SessionHandle&) = delete;

  bool valid() const { return session_ != nullptr; }
  // kMapping on an invalid handle (the default-constructed state).
  SessionKind kind() const;

  // Non-blocking feed; false on this session's back-pressure (input ring
  // full), on a malformed frame (gray image, or on a mapping session the
  // depth image, not the session camera's size, or a non-finite
  // timestamp; counted in PipelineStats::malformed_feeds) or on an
  // invalid handle.
  bool try_feed(FrameInput frame);
  // Blocking feed: waits for input-ring space (other sessions are
  // unaffected).  Delivery is unbounded on the user side, so waiting here
  // can never deadlock the lanes.  False, without waiting, on a malformed
  // frame or an invalid handle (and on service teardown).
  bool feed(FrameInput frame);
  // Next result in feed order, if ready.
  std::optional<TrackResult> poll();
  // Blocks until every fed frame is delivered and this session's
  // background backend jobs (if any) have finished, so the tracker really
  // is quiescent for inspection; returns the not-yet-polled results in
  // order.  Other sessions keep flowing meanwhile; the session stays
  // usable afterwards.
  std::vector<TrackResult> drain();

  // Frames fed but not yet retired.
  int in_flight() const;
  // What only the runtime sees of this session: frames fed, retired and
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

  // The session's tracker (map, keyframe graph).  Mapping sessions only
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
  // polled results.  Not-yet-started backend jobs are cancelled.  The
  // tracker or localizer is destroyed on the calling thread before this
  // returns.  The handle is invalid afterwards (idempotent).
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
  ~SlamService();  // stops the lanes; in-flight frames are abandoned

  SlamService(const SlamService&) = delete;
  SlamService& operator=(const SlamService&) = delete;

  // Opens a new independent tracking session; an invalid handle for a
  // localization session without a frozen map.
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
  using SessionPtr = std::shared_ptr<ServiceSession>;

  // One frozen backend job awaiting (or holding) a pool worker.
  struct BackendQueueEntry {
    SessionPtr session;
    int job_id = -1;
    BackendJobClass cls = BackendJobClass::kRoutineBa;
    double enqueue_ms = 0;  // for per-class queue-latency stats
  };
  // One session awaiting a pool worker, stamped at push so the pop side
  // can fold "how long did dispatch wait behind a busy pool" into the
  // registry (eslam_scheduler_dispatch_wait_ms).  Frames that arrive
  // while a worker already owns the session never enter this queue — the
  // histogram measures genuine pool contention, not the fast path.
  struct WorkItem {
    SessionPtr session;
    double enqueue_ms = 0;
  };

  // ---- device lane (the shared FPGA fabric) ----
  void device_lane();
  bool device_step(const SessionPtr& session);
  void run_device_stage(ServiceSession& s, FrameState& fs, PipeStage stage,
                        bool speculative);
  void finalize_match(ServiceSession& s, FrameState& fs);

  // ---- ARM worker pool ----
  void arm_worker(int worker_index);
  // Runs the session's backlog, one frame per unit, while this worker owns
  // the session, and delivers each result.
  void run_session_arm(const SessionPtr& session);
  // Frame bodies by session kind: PE, PO and MU of the next handed-off
  // mapping frame (which retires it), or a whole Localizer frame (FE
  // through PO) from the input ring.
  TrackResult run_mapping_frame(const SessionPtr& session);
  TrackResult run_localization_frame(ServiceSession& s);
  void enqueue_arm(const SessionPtr& session);
  // Takes every newly-frozen job ticket from the session's tracker and
  // queues each on the background lane (bounded by
  // kBackendQueueCapacity; overflowing tickets are un-offered back).
  void enqueue_backend(const SessionPtr& session);
  // Executes one background backend job (ARM worker context).
  void run_session_backend(const SessionPtr& session,
                           const BackendQueueEntry& entry);
  // True while the session has no queued or running background job.
  bool backend_quiet(ServiceSession& s);

  // ---- session side ----
  // Push + feed bookkeeping; leaves `frame` intact and returns false when
  // the session's input ring is full.  Routes the new input to the lane
  // that serves the session: device lane for mapping, ARM work queue for
  // localization.
  bool push_input(const SessionPtr& session, FrameInput& frame);
  // Parks a client thread until the session's user signal moves past
  // `seen` or the service stops.
  void park_user(ServiceSession& s, std::uint64_t seen) const;
  // Waits until every fed frame has retired and the background lane has
  // let go of the session, then unregisters it.
  void remove_session(const SessionPtr& session);

  // Wakes the device lane (new input, retirement, or session change).
  void kick_device();
  double now_ms() const;
  // Sleeps out the remainder of the session pacer's modeled stage time.
  void pace(const ServiceSession& s, PipeStage stage, double start_ms) const;
  // Adds [start_ms, now) to the lane's busy time; returns that window.
  StageWindow record(ServiceSession& s, PipeLane lane, double start_ms);

  ServiceOptions options_;
  std::chrono::steady_clock::time_point epoch_;

  // The registry and its open counts.
  mutable std::shared_mutex sessions_mutex_;
  std::vector<SessionPtr> sessions_;
  int sessions_opened_ = 0;
  int localization_opened_ = 0;
  std::atomic<std::uint64_t> sessions_generation_{0};

  // Device-lane parking: the lane sleeps here when a full pass makes no
  // progress; producers bump the signal counter and notify.
  std::mutex device_mutex_;
  std::condition_variable device_cv_;
  std::uint64_t device_signal_ = 0;  // guarded by device_mutex_

  // ARM work queue: sessions with handed-off frames awaiting ARM stages.
  // arm_backlog / arm_queued of every session are guarded by work_mutex_
  // (one short acquisition per frame handoff — the frames themselves move
  // through the preallocated SPSC rings).  backend_q_ is the
  // background-job lane: individual frozen backend jobs awaiting a worker.
  // Several jobs of one session may be queued and running at once (the
  // tracker only freezes covisibility-disjoint shards, so their deltas
  // commute), so bg_queued / bg_running are per-session counters and
  // bg_running_total_ / bg_running_hwm_ track pool-wide backend
  // concurrency (all guarded by work_mutex_).
  mutable std::mutex work_mutex_;
  std::condition_variable work_cv_;
  RingQueue<WorkItem> work_q_{16};
  BackendJobQueue<BackendQueueEntry> backend_q_;
  int bg_running_total_ = 0;
  int bg_running_hwm_ = 0;

  // Observability handles, resolved once at construction (see
  // obs/trace.h): a "scheduler" trace process with the shared device lane
  // and every ARM pool worker as named tracks — the Fig-7 Gantt's resource
  // rows, complementing the per-session rows the trackers/localizers
  // register themselves.  Histograms/counters are registry entries
  // (leaked, process-lifetime); the hot paths only touch these resolved
  // pointers.  Session lifetime/frames are recorded at close — a session
  // that never closes contributes only to the opened counters.
  obs::TrackId device_track_ = obs::kDefaultTrack;
  std::vector<obs::TrackId> worker_tracks_;
  obs::Histogram* dispatch_wait_hist_ = nullptr;
  obs::Counter* device_dispatches_total_ = nullptr;
  obs::Counter* speculative_matches_total_ = nullptr;
  obs::Counter* replayed_matches_total_ = nullptr;
  obs::Counter* backend_jobs_total_ = nullptr;
  obs::Counter* backend_jobs_rejected_total_ = nullptr;
  obs::MaxGauge* backend_concurrent_gauge_ = nullptr;
  obs::Counter* opened_mapping_total_ = nullptr;
  obs::Counter* opened_localization_total_ = nullptr;
  obs::Counter* closed_total_ = nullptr;
  obs::Histogram* session_lifetime_ms_ = nullptr;
  obs::Histogram* session_frames_ = nullptr;

  // Last: the lane threads use every member above.
  std::atomic<bool> stop_{false};
  std::thread device_thread_;
  std::vector<std::thread> arm_threads_;
};

}  // namespace eslam
