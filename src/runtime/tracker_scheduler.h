// Multi-session Figure-7 runtime: one scheduler, N trackers.
//
// The paper's premise is that the FPGA fabric is the scarce resource the
// ARM host schedules work onto.  This scheduler serves N independent
// tracking sessions from exactly that shape: a single shared *device lane*
// thread executes feature extraction + feature matching for every session
// (the one fabric), and a fixed pool of *ARM worker* threads executes pose
// estimation / pose optimization / map updating, at most one worker per
// session at a time.  With one session and one worker this is the
// paper's original two-lane pipeline.  Per-session semantics:
//
//   * bounded SPSC input ring per session — a full ring is back-pressure
//     for that session only;
//   * the key-frame barrier is per-session: the authoritative FM of frame
//     N+1 must see the session's map after MU of frame N.  While the
//     barrier is closed the frame waits in a per-session pending slot
//     (after a speculative FM, replayed if the epoch moved), and the
//     device lane moves on to other sessions instead of blocking.
//     FM itself is wait-free against every session's map writers: match()
//     borrows the map's published MapReadView (slam/map_view.h) rather
//     than locking, so a co-session's mid-flight update_map can never
//     stall the shared lane — the barrier above is the only FM ordering
//     constraint, and it is a scheduling rule, not a lock;
//   * the matching gate's prior pose reaches the device lane through the
//     tracker itself: update_map of frame N publishes the gate prior for
//     frame N+2 before retiring, and the device lane only matches frame
//     N+2 (speculatively or not) after observing frame N+1's handoff —
//     which required N's retirement.  The prior is therefore always
//     available and *frozen* when FM runs, one frame staler than the
//     ARM-side motion model by construction (acceptable: the gate's
//     search window absorbs the extra extrapolation error), and identical
//     to what a sequential run reads — so the epoch check alone still
//     decides whether a speculative match holds;
//   * ARM stages of one session run serially in frame order (ownership is
//     handed to exactly one worker at a time), so each session's results
//     are bit-identical to a solo sequential Tracker::process() run.
//   * the local-mapping backend rides a *background-job lane* on the same
//     ARM pool: when a retirement leaves frozen backend jobs behind, each
//     job is queued individually on a bounded two-class priority queue
//     (runtime/backend_queue.h) that workers only serve when no tracking
//     stage is runnable (strictly lower priority).  Loop-verification
//     jobs outrank routine shard-BA jobs within the lane; jobs of ONE
//     session run concurrently on multiple workers when its tracker froze
//     covisibility-disjoint shards (the tracker's job table serializes
//     per shard, the scheduler does not re-serialize per session).  Every
//     delta re-enters the pipeline through the tracker's own update_map()
//     at the next keyframe under the structural-epoch rules — so the
//     speculative-FM replay protocol above is untouched, and with the
//     backend disabled the schedule is byte-for-byte the old one.
//
// Dispatch is round-robin with fairness counting: each device-lane pass
// starts from a rotating cursor, so no session can monopolize the fabric,
// and per-session dispatch counts are exported through PipelineStats.
// When no session has runnable work the device lane parks on a condition
// variable (kicked by feeds, retirements and session changes) — an idle
// scheduler consumes no CPU.
//
// Frames are validated at the door: a frame whose gray image is not the
// session camera's width x height, whose timestamp is not finite, or, on
// a mapping session, whose depth image is not the camera's size (an empty
// one included) is refused (feed/try_feed return false,
// PipelineStats::malformed_feeds counts it) instead of reaching a stage
// whose bounds assert would abort every session in the process.
// Localization sessions never read depth and accept frames without it.
//
// Threading contract: each session's feed/try_feed/poll/drain must be
// driven by one thread at a time (different sessions may use different
// threads); add_session/remove_session may race with other sessions'
// traffic but not with the removed session's own calls.
//
// Localization sessions (add_localization_session) are the read-only
// tier: a Localizer over a shared FrozenMap instead of a Tracker over a
// live map.  They never touch the device lane — a frozen map needs no
// key-frame barrier, no speculative FM and no gate-prior handshake, so
// the whole frame (FE through PO, no MU) runs as ONE unit on the ARM
// worker pool, scheduled through the same work queue as mapping
// sessions' ARM stages.  N localization sessions therefore run fully
// concurrently on N workers instead of serializing behind the single
// fabric lane — the tier's throughput scales with cores.  Frames of one
// session still run serially in feed order (same ownership protocol), so
// per-session output is bit-identical to a solo sequential
// Localizer::process() run.  Pacing and stage windows do not apply to
// this tier (there is no modeled fabric stage to pad against), so its
// results carry zero TrackResult::windows.
//
// Every result a mapping session delivers carries its measured Figure-7
// schedule: where its five stages ran (TrackResult::windows), on this
// scheduler's clock with pacer padding included.
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
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/backend_queue.h"
#include "runtime/lane.h"
#include "runtime/ring_queue.h"
#include "runtime/spsc_queue.h"
#include "slam/tracker.h"

namespace eslam {

class Localizer;

// Opaque per-session state (defined in tracker_scheduler.cpp).  Holders
// pass the ref back into the scheduler; per-frame calls touch only this
// session's state — no registry lookup, no scheduler-wide lock.
struct SchedulerSession;
using SessionRef = std::shared_ptr<SchedulerSession>;

// Pads an executed stage to a modeled platform duration: after running a
// stage, the owning lane sleeps out `pacer(stage) - measured_ms`.  This is
// the emulation hook that lets a fast host reproduce the paper's
// ARM-Cortex-A9 / 100 MHz-fabric schedule proportions (cf. timing_model's
// arm_from_host): the lane stays *occupied* for the modeled time, exactly
// as the slower platform's unit would be.  Return <= 0 for "no pacing".
using StagePacer = std::function<double(PipeStage)>;

// Bound on the background-job lane (frozen backend jobs awaiting a
// worker, across all sessions and both classes).  An overflowing enqueue
// is skipped and counted — the job is un-offered back to its tracker and
// re-offered at that session's next retirement, so overload degrades to
// "backend laps less often", never to unbounded growth.
inline constexpr int kBackendQueueCapacity = 16;

struct SchedulerOptions {
  // ARM worker pool size (the "ARM cores" serving all sessions).
  int arm_workers = 1;
};

// Per-session knobs.
struct SchedulerSessionOptions {
  int queue_capacity = 4;        // input + handoff ring depth
  StagePacer pacer;              // optional platform-emulation padding
};

class TrackerScheduler {
 public:
  explicit TrackerScheduler(const SchedulerOptions& options = {});
  ~TrackerScheduler();  // stops lanes; in-flight frames are abandoned

  TrackerScheduler(const TrackerScheduler&) = delete;
  TrackerScheduler& operator=(const TrackerScheduler&) = delete;

  // Registers a tracker as a new session.  The tracker must outlive the
  // session and must not be driven through process() meanwhile.
  SessionRef add_session(Tracker& tracker,
                         const SchedulerSessionOptions& options = {});
  // Registers a read-only localization session (see the file comment's
  // localization-tier paragraph).  The localizer must outlive the session
  // and must not be driven through process() meanwhile; the FrozenMap it
  // holds is shared freely across sessions.
  SessionRef add_localization_session(Localizer& localizer,
                                      const SchedulerSessionOptions& options =
                                          {});
  // Blocks until every fed frame of the session has retired and its
  // background backend job (if any) has left the job lane, then removes
  // it.  Results not yet polled are discarded — callers that want them
  // drain() first.  The backend wait is what makes destroying the tracker
  // safe: a BA job references it from a pool worker.
  void remove_session(const SessionRef& session);

  // Non-blocking feed; false when the session's input ring is full (that
  // session's back-pressure) or the frame is malformed.
  bool try_feed(const SessionRef& session, FrameInput frame);
  // Blocking feed: waits for input-ring space.  Result delivery is
  // unbounded on the user side, so waiting here can never deadlock the
  // lanes — back-pressure is governed by the input ring alone.  False,
  // without waiting, for a malformed frame (or on teardown).
  bool feed(const SessionRef& session, FrameInput frame);

  // Next result of this session in feed order, if one is ready.
  std::optional<TrackResult> poll(const SessionRef& session);
  // Blocks until every frame fed to this session has been delivered —
  // and until its background backend job (if any) has finished, so the
  // tracker really is quiescent for inspection — and returns the
  // not-yet-polled results in order.  Other sessions keep flowing
  // meanwhile; the session stays usable afterwards.  (A job the tracker
  // froze but never managed to enqueue stays pending until the next feed;
  // it holds no pool resources.)
  std::vector<TrackResult> drain(const SessionRef& session);

  // Frames fed but not yet retired through map updating.
  int in_flight(const SessionRef& session) const;

  PipelineStats stats(const SessionRef& session) const;

  int session_count() const;
  // Live localization sessions (session_count() includes them).
  int localization_session_count() const;
  // Lifetime cold-start relocalization counters across all localization
  // sessions, past and present (they survive session close — a service
  // wants the tier's totals, not the survivors').
  std::int64_t localization_coldstart_attempts() const {
    return loc_coldstart_attempts_.load();
  }
  std::int64_t localization_coldstart_successes() const {
    return loc_coldstart_successes_.load();
  }
  // Sum of device-lane dispatch turns across live sessions (fairness
  // accounting; compare per-session PipelineStats::device_dispatches).
  std::int64_t total_dispatches() const;
  // Most backend jobs ever simultaneously running on the pool (across all
  // sessions) — the sharding concurrency witness.
  int backend_concurrent_high_water() const;

 private:
  void device_lane();
  bool device_step(const SessionRef& session);
  void finalize_match(SchedulerSession& s, FrameState& fs);
  void arm_worker(int worker_index);
  // Runs the session's backlog, one frame per unit, while this worker owns
  // the session, and delivers each result.
  void run_session_arm(const SessionRef& session);
  // Frame bodies by session kind: PE, PO and MU of the next handed-off
  // mapping frame (which retires it), or a whole Localizer frame (FE
  // through PO) from the input ring.
  TrackResult run_mapping_frame(const SessionRef& session);
  TrackResult run_localization_frame(SchedulerSession& s);
  void enqueue_arm(const SessionRef& session);
  // One frozen backend job awaiting (or holding) a pool worker.
  struct BackendQueueEntry {
    SessionRef session;
    int job_id = -1;
    BackendJobClass cls = BackendJobClass::kRoutineBa;
    double enqueue_ms = 0;  // for per-class queue-latency stats
  };
  // Takes every newly-frozen job ticket from the session's tracker and
  // queues each on the background lane (bounded by
  // kBackendQueueCapacity; overflowing tickets are un-offered back).
  void enqueue_backend(const SessionRef& session);
  // Executes one background backend job (ARM worker context).
  void run_session_backend(const SessionRef& session,
                           const BackendQueueEntry& entry);
  // True while the session has no queued or running background job.
  bool backend_quiet(SchedulerSession& s);
  void run_device_stage(SchedulerSession& s, FrameState& fs, PipeStage stage,
                        bool speculative);
  // Sleeps out the remainder of the session pacer's modeled stage time.
  void pace(const SchedulerSession& s, PipeStage stage, double start_ms) const;
  // Push + feed bookkeeping; leaves `frame` intact and returns false when
  // the session's input ring is full.  Routes the new input to the lane
  // that serves the session: device lane for mapping, ARM work queue for
  // localization.
  bool push_input(const SessionRef& session, FrameInput& frame);
  // Wakes the device lane (new input, retirement, or session change).
  void kick_device();
  double now_ms() const;
  // Adds [start_ms, now) to the lane's busy time; returns that window.
  StageWindow record(SchedulerSession& s, PipeLane lane, double start_ms);
  // Lists a new session and wakes the device lane.
  SessionRef register_session(SessionRef session);

  SchedulerOptions options_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::shared_mutex sessions_mutex_;
  std::vector<SessionRef> sessions_;
  std::atomic<std::uint64_t> sessions_generation_{0};

  // Device-lane parking: the lane sleeps here when a full pass makes no
  // progress; producers bump the signal counter and notify.
  std::mutex device_mutex_;
  std::condition_variable device_cv_;
  std::uint64_t device_signal_ = 0;  // guarded by device_mutex_

  // ARM work queue: sessions with handed-off frames awaiting ARM stages.
  // arm_backlog / arm_queued of every session are guarded by work_mutex_
  // (one short acquisition per frame handoff — the frames themselves move
  // through the preallocated SPSC rings).
  //
  // backend_q_ is the background-job lane: individual frozen backend jobs
  // awaiting a worker, two classes (loop verification pops before routine
  // shard BA).  Workers always serve work_q_
  // (tracking stages) first — backend jobs have strictly lower priority,
  // so they only consume pool slack.  Unlike the old one-slot-per-session
  // lane, several jobs of one session may be queued and running at once:
  // the tracker only freezes covisibility-disjoint shards, so their
  // deltas commute and need no scheduler-side serialization.  bg_queued /
  // bg_running are now per-session *counters*, and bg_running_total_ /
  // bg_running_hwm_ track pool-wide backend concurrency (all guarded by
  // work_mutex_).
  // One session awaiting a pool worker, stamped at push so the pop side
  // can fold "how long did dispatch wait behind a busy pool" into the
  // registry (eslam_scheduler_dispatch_wait_ms).  Frames that arrive
  // while a worker already owns the session never enter this queue — the
  // histogram measures genuine pool contention, not the fast path.
  struct WorkItem {
    SessionRef session;
    double enqueue_ms = 0;
  };

  mutable std::mutex work_mutex_;
  std::condition_variable work_cv_;
  RingQueue<WorkItem> work_q_{16};
  BackendJobQueue<BackendQueueEntry> backend_q_;
  int bg_running_total_ = 0;
  int bg_running_hwm_ = 0;

  // Localization-tier cold-start counters (see the accessors above).
  std::atomic<std::int64_t> loc_coldstart_attempts_{0};
  std::atomic<std::int64_t> loc_coldstart_successes_{0};

  std::atomic<bool> stop_{false};
  std::thread device_thread_;
  std::vector<std::thread> arm_threads_;

  // Observability handles, resolved once at construction (obs/README in
  // src/obs/trace.h): the scheduler owns a "scheduler" trace process with
  // the shared device lane and every ARM pool worker as named tracks —
  // the Fig-7 Gantt's resource rows, complementing the per-session rows
  // the trackers/localizers register themselves.  Histograms/counters are
  // registry entries (leaked, process-lifetime); the hot paths only touch
  // these resolved pointers.
  obs::TrackId device_track_ = obs::kDefaultTrack;
  std::vector<obs::TrackId> worker_tracks_;
  obs::Histogram* dispatch_wait_hist_ = nullptr;
  obs::Counter* device_dispatches_total_ = nullptr;
  obs::Counter* speculative_matches_total_ = nullptr;
  obs::Counter* replayed_matches_total_ = nullptr;
  obs::Counter* backend_jobs_total_ = nullptr;
  obs::Counter* backend_jobs_rejected_total_ = nullptr;
  obs::MaxGauge* backend_concurrent_gauge_ = nullptr;
};

}  // namespace eslam
