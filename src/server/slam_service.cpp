#include "server/slam_service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "geometry/assert.h"
#include "runtime/spsc_queue.h"

namespace eslam {

namespace {

// Bound on the background-job lane (frozen backend jobs awaiting a
// worker, across all sessions and both classes).  An overflowing enqueue
// is skipped and counted — the job is un-offered back to its tracker and
// re-offered at that session's next retirement, so overload degrades to
// "backend laps less often", never to unbounded growth.
constexpr int kBackendQueueCapacity = 16;

std::unique_ptr<FeatureBackend> make_backend(const SessionConfig& config) {
  return config.backend_factory ? config.backend_factory()
                                : make_feature_backend(config.backend);
}

}  // namespace

// The one per-session struct.  The handle and the lanes share it; it owns
// the session's Tracker or Localizer, which close() destroys on the
// caller's thread.  The device lane's registry snapshot (or a worker
// finishing its last unit) may hold the struct a moment past removal, so
// nothing here but the handle may keep the tracker alive, and a lane
// tells the kinds apart by `kind`, never by the pointers.
struct ServiceSession {
  explicit ServiceSession(const SessionConfig& config)
      : kind(config.kind),
        tracker(kind == SessionKind::kMapping
                    ? std::make_unique<Tracker>(config.camera,
                                                make_backend(config),
                                                config.tracker)
                    : nullptr),
        localizer(kind == SessionKind::kLocalization
                      ? std::make_unique<Localizer>(config.frozen_map,
                                                    make_backend(config),
                                                    config.tracker)
                      : nullptr),
        pacer(config.pacer),
        camera(tracker ? tracker->camera() : localizer->camera()),
        input_q(static_cast<std::size_t>(std::max(1, config.queue_capacity))),
        handoff_q(tracker ? input_q.capacity() : 1) {}

  const SessionKind kind;
  // Exactly one is set, per `kind`, until close().  A localization
  // session's frames bypass the device lane entirely and run whole on the
  // ARM pool, so its handoff ring stays unused.
  std::unique_ptr<Tracker> tracker;
  std::unique_ptr<Localizer> localizer;
  const StagePacer pacer;
  // The session camera: its image size is the only one feeds accept.
  const PinholeCamera camera;

  SpscRing<FrameInput> input_q;    // user -> device lane (or ARM pool)
  SpscRing<FrameState> handoff_q;  // device lane -> ARM pool

  // Device-lane-private barrier slot: the frame whose authoritative FM is
  // waiting for the previous frame's retirement (or whose handoff is
  // waiting for ring space).  At most one frame per session sits here, so
  // per-session device order is FIFO by construction.  A frame parked
  // with pending_ready == false carries a speculative FM.
  std::optional<FrameState> pending;
  bool pending_ready = false;  // FM is authoritative; awaiting handoff

  // Guarded by the service-wide work_mutex_: how many handed-off frames
  // await ARM stages, and whether a worker currently owns this session.
  int arm_backlog = 0;
  bool arm_queued = false;
  // Background-job lane state (also guarded by work_mutex_): how many of
  // this session's jobs sit in backend_q_ / are running on workers.
  int bg_queued = 0;
  int bg_running = 0;

  std::atomic<int> frames_fed{0};
  std::atomic<int> frames_retired{0};
  std::atomic<int> frames_delivered{0};
  std::atomic<int> retired_through{-1};  // highest retired mapping frame
  std::atomic<int> malformed_feeds{0};   // refused at the door

  // Finished results awaiting poll().  Unbounded on purpose: ARM workers
  // must never block on one session's poll cadence (that would eat a pool
  // worker and starve other sessions), so back-pressure lives exclusively
  // in the bounded input ring.  RingQueue rather than deque: its buffer
  // stops allocating once it covers the high-water depth, where deque's
  // chunked storage churns a heap node every few dozen cycled results.
  std::mutex results_mutex;
  RingQueue<TrackResult> results{16};

  // Parking for this session's blocked user-side calls (feed() waiting on
  // ring space, drain()/close() waiting on delivery/retirement): producers
  // of those conditions bump the signal and notify, so a blocked client
  // thread sleeps instead of spin-polling.
  std::mutex user_mutex;
  std::condition_variable user_cv;
  std::uint64_t user_signal = 0;  // guarded by user_mutex

  // Everything but frames_fed/retired and malformed_feeds (the atomics).
  mutable std::mutex stats_mutex;
  PipelineStats stats;

  // Open timestamp for the close-time lifetime rollup.
  std::chrono::steady_clock::time_point opened_at =
      std::chrono::steady_clock::now();
};

namespace {

// Wakes a session's parked user-side calls (see ServiceSession).
void kick_user(ServiceSession& s) {
  {
    const std::lock_guard<std::mutex> lock(s.user_mutex);
    ++s.user_signal;
  }
  s.user_cv.notify_all();
}

// Captures the current signal level; a waiter that then finds its
// condition unmet sleeps until the level moves past the snapshot, so a
// kick landing between the condition check and the wait is never lost.
std::uint64_t user_signal_snapshot(ServiceSession& s) {
  const std::lock_guard<std::mutex> lock(s.user_mutex);
  return s.user_signal;
}

// True, and counted, when tracking cannot use the frame: a gray image that
// is not the session camera's size, a non-finite timestamp, or, on a
// mapping session, a depth image that is not the camera's size (the
// localizer never reads depth).  Timestamps may go back: a localization
// client can replay its capture out of order.
bool refuse_malformed(ServiceSession& s, const FrameInput& frame) {
  const auto camera_sized = [&s](const auto& image) {
    return image.width() == s.camera.width() &&
           image.height() == s.camera.height();
  };
  if (camera_sized(frame.gray) && std::isfinite(frame.timestamp) &&
      (s.kind == SessionKind::kLocalization || camera_sized(frame.depth)))
    return false;
  s.malformed_feeds.fetch_add(1);
  return true;
}

std::optional<TrackResult> pop_result(ServiceSession& s) {
  const std::lock_guard<std::mutex> lock(s.results_mutex);
  if (s.results.empty()) return std::nullopt;
  TrackResult result = s.results.pop_front();
  s.frames_delivered.fetch_add(1);
  return result;
}

}  // namespace

// ---- SessionHandle ---------------------------------------------------------

SessionHandle::SessionHandle(SlamService* service,
                             std::shared_ptr<ServiceSession> session)
    : service_(service), session_(std::move(session)) {}

SessionHandle::~SessionHandle() { close(); }

SessionHandle::SessionHandle(SessionHandle&& other) noexcept
    : service_(std::exchange(other.service_, nullptr)),
      session_(std::move(other.session_)) {}

SessionHandle& SessionHandle::operator=(SessionHandle&& other) noexcept {
  if (this != &other) {
    close();
    service_ = std::exchange(other.service_, nullptr);
    session_ = std::move(other.session_);
  }
  return *this;
}

SessionKind SessionHandle::kind() const {
  return session_ ? session_->kind : SessionKind::kMapping;
}

bool SessionHandle::try_feed(FrameInput frame) {
  if (!session_ || refuse_malformed(*session_, frame)) return false;
  if (service_->push_input(session_, frame)) return true;
  const std::lock_guard<std::mutex> lock(session_->stats_mutex);
  ++session_->stats.rejected_feeds;
  return false;
}

bool SessionHandle::feed(FrameInput frame) {
  if (!session_ || refuse_malformed(*session_, frame)) return false;
  ServiceSession& s = *session_;
  for (;;) {
    const std::uint64_t seen = user_signal_snapshot(s);
    if (service_->push_input(session_, frame)) return true;
    if (service_->stop_.load()) return false;  // teardown: drop, not hang
    // Park until the lane that pops this ring frees a slot (it kicks on
    // every input pop) — a blocked feeder costs no CPU.
    service_->park_user(s, seen);
  }
}

std::optional<TrackResult> SessionHandle::poll() {
  if (!session_) return std::nullopt;
  return pop_result(*session_);
}

std::vector<TrackResult> SessionHandle::drain() {
  std::vector<TrackResult> results;
  if (!session_) return results;
  ServiceSession& s = *session_;
  // Wait on delivery, not retirement: retirement is published before the
  // result lands in the delivery queue, so a retired-but-undelivered frame
  // must still hold the drain open.
  while (s.frames_delivered.load() < s.frames_fed.load()) {
    const std::uint64_t seen = user_signal_snapshot(s);
    if (std::optional<TrackResult> r = pop_result(s)) {
      results.push_back(std::move(*r));
      continue;
    }
    if (service_->stop_.load()) break;  // teardown: return what arrived
    // Park until an ARM worker delivers a result (it kicks per frame).
    service_->park_user(s, seen);
  }
  // Then let the background lane finish this session's jobs, so the
  // drained tracker is genuinely quiescent (its stats/graph stable) when
  // the caller inspects it.  Workers kick on job completion.  (A job the
  // tracker froze but never managed to enqueue stays pending until the
  // next feed; it holds no pool resources.)
  for (;;) {
    const std::uint64_t seen = user_signal_snapshot(s);
    if (service_->stop_.load() || service_->backend_quiet(s)) break;
    service_->park_user(s, seen);
  }
  return results;
}

int SessionHandle::in_flight() const {
  if (!session_) return 0;
  return session_->frames_fed.load() - session_->frames_retired.load();
}

PipelineStats SessionHandle::stats() const {
  PipelineStats out;
  if (!session_) return out;
  {
    const std::lock_guard<std::mutex> lock(session_->stats_mutex);
    out = session_->stats;
  }
  out.frames_fed = session_->frames_fed.load();
  out.frames_retired = session_->frames_retired.load();
  out.malformed_feeds = session_->malformed_feeds.load();
  return out;
}

backend::BackendStats SessionHandle::backend_stats() const {
  // Localization sessions have no backend lane: all-zero stats.
  return session_ && session_->tracker ? session_->tracker->backend_stats()
                                       : backend::BackendStats{};
}

const Tracker& SessionHandle::tracker() const {
  ESLAM_ASSERT(session_ != nullptr, "tracker() on a closed session handle");
  ESLAM_ASSERT(session_->tracker != nullptr,
               "tracker() on a localization session");
  return *session_->tracker;
}

const Localizer& SessionHandle::localizer() const {
  ESLAM_ASSERT(session_ != nullptr, "localizer() on a closed session handle");
  ESLAM_ASSERT(session_->localizer != nullptr,
               "localizer() on a mapping session");
  return *session_->localizer;
}

long SessionHandle::frozen_map_use_count() const {
  if (!session_ || !session_->localizer) return 0;
  return session_->localizer->map_ptr().use_count();
}

std::vector<TrackResult> SessionHandle::close() {
  if (!session_) return {};
  std::vector<TrackResult> leftovers = drain();
  service_->remove_session(session_);
  // Rollups: how long the session lived and how many frames it retired
  // (final once removed).
  service_->closed_total_->add();
  service_->session_lifetime_ms_->record(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - session_->opened_at)
          .count());
  service_->session_frames_->record(
      static_cast<double>(session_->frames_retired.load()));
  // Destroy the tracker (and its backend) or localizer here, not wherever
  // the last reference to the struct happens to drop.
  session_->tracker.reset();
  session_->localizer.reset();
  service_ = nullptr;
  session_.reset();
  return leftovers;
}

// ---- SlamService -----------------------------------------------------------

SlamService::SlamService(const ServiceOptions& options)
    : options_(options),
      epoch_(std::chrono::steady_clock::now()),
      backend_q_(kBackendQueueCapacity) {
  const int workers = std::max(1, options_.arm_workers);
  // Resource-row trace tracks (one "scheduler" process: the shared device
  // lane plus each pool worker) and the service-wide metrics.  All cold:
  // one registration per service lifetime, before any lane thread runs.
  const int pid = obs::register_process("scheduler");
  device_track_ = obs::register_track(pid, "device lane");
  worker_tracks_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    worker_tracks_.push_back(
        obs::register_track(pid, "arm worker " + std::to_string(i)));
  obs::MetricsRegistry& reg = obs::metrics();
  dispatch_wait_hist_ = &reg.histogram("eslam_scheduler_dispatch_wait_ms");
  device_dispatches_total_ = &reg.counter("eslam_device_dispatches_total");
  speculative_matches_total_ =
      &reg.counter("eslam_speculative_matches_total");
  replayed_matches_total_ = &reg.counter("eslam_replayed_matches_total");
  backend_jobs_total_ = &reg.counter("eslam_backend_jobs_total");
  backend_jobs_rejected_total_ =
      &reg.counter("eslam_backend_jobs_rejected_total");
  backend_concurrent_gauge_ = &reg.max_gauge("eslam_backend_concurrent_jobs");
  backend_q_.set_latency_histograms(
      &reg.histogram("eslam_backend_queue_wait_ms{class=\"ba\"}"),
      &reg.histogram("eslam_backend_queue_wait_ms{class=\"loop\"}"));
  opened_mapping_total_ =
      &reg.counter("eslam_sessions_opened_total{kind=\"mapping\"}");
  opened_localization_total_ =
      &reg.counter("eslam_sessions_opened_total{kind=\"localization\"}");
  closed_total_ = &reg.counter("eslam_sessions_closed_total");
  session_lifetime_ms_ = &reg.histogram("eslam_session_lifetime_ms");
  session_frames_ = &reg.histogram("eslam_session_frames");

  device_thread_ = std::thread(&SlamService::device_lane, this);
  arm_threads_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    arm_threads_.emplace_back(&SlamService::arm_worker, this, i);
}

SlamService::~SlamService() {
  stop_.store(true);
  kick_device();
  work_cv_.notify_all();
  {
    // Defensive: release any client thread still parked in feed()/drain()
    // (a contract violation, but hanging it would be worse).
    const std::shared_lock<std::shared_mutex> lock(sessions_mutex_);
    for (const SessionPtr& s : sessions_) kick_user(*s);
  }
  device_thread_.join();
  for (std::thread& t : arm_threads_) t.join();
}

SessionHandle SlamService::open_session(const SessionConfig& config) {
  const bool localization = config.kind == SessionKind::kLocalization;
  // A localization session has nothing to serve without a map: refuse the
  // open rather than abort every session in the process.
  if (localization && config.frozen_map == nullptr) return SessionHandle();
  auto session = std::make_shared<ServiceSession>(config);
  {
    const std::unique_lock<std::shared_mutex> lock(sessions_mutex_);
    sessions_.push_back(session);
    sessions_generation_.fetch_add(1);
    ++sessions_opened_;
    if (localization) ++localization_opened_;
  }
  // The device lane skips a localization session, but its snapshot should
  // still refresh promptly (registry bookkeeping, prompt teardown).
  kick_device();
  (localization ? opened_localization_total_ : opened_mapping_total_)->add();
  return SessionHandle(this, std::move(session));
}

int SlamService::session_count() const {
  const std::shared_lock<std::shared_mutex> lock(sessions_mutex_);
  return static_cast<int>(sessions_.size());
}

std::string SlamService::metrics_exposition() const {
  return obs::metrics().exposition();
}

ServiceStats SlamService::stats() const {
  ServiceStats out;
  {
    const std::shared_lock<std::shared_mutex> lock(sessions_mutex_);
    out.sessions_open = static_cast<int>(sessions_.size());
    for (const SessionPtr& s : sessions_) {
      if (s->kind == SessionKind::kLocalization)
        ++out.localization_sessions_open;
      const std::lock_guard<std::mutex> stats_lock(s->stats_mutex);
      out.device_dispatches += s->stats.device_dispatches;
    }
    out.sessions_opened_total = sessions_opened_;
    out.localization_sessions_opened_total = localization_opened_;
  }
  out.mapping_sessions_open =
      out.sessions_open - out.localization_sessions_open;
  {
    const std::lock_guard<std::mutex> lock(work_mutex_);
    out.backend_concurrent_hwm = bg_running_hwm_;
  }
  return out;
}

double SlamService::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void SlamService::kick_device() {
  {
    const std::lock_guard<std::mutex> lock(device_mutex_);
    ++device_signal_;
  }
  device_cv_.notify_one();
}

void SlamService::park_user(ServiceSession& s, std::uint64_t seen) const {
  std::unique_lock<std::mutex> lock(s.user_mutex);
  s.user_cv.wait(lock, [&] { return stop_.load() || s.user_signal != seen; });
}

StageWindow SlamService::record(ServiceSession& s, PipeLane lane,
                                double start_ms) {
  const StageWindow window{start_ms, now_ms()};
  const std::lock_guard<std::mutex> lock(s.stats_mutex);
  (lane == PipeLane::kFpga ? s.stats.fpga_busy_ms : s.stats.arm_busy_ms) +=
      window.end_ms - window.start_ms;
  return window;
}

void SlamService::pace(const ServiceSession& s, PipeStage stage,
                       double start_ms) const {
  if (!s.pacer) return;
  const double remaining = s.pacer(stage) - (now_ms() - start_ms);
  if (remaining > 0)
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(remaining));
}

// ---- session side ----------------------------------------------------------

bool SlamService::backend_quiet(ServiceSession& s) {
  const std::lock_guard<std::mutex> lock(work_mutex_);
  return s.bg_queued == 0 && s.bg_running == 0;
}

void SlamService::remove_session(const SessionPtr& session) {
  // Quiesce: every accepted frame retires (the caller has stopped
  // feeding, so fed is final and the lanes drain it), and the background
  // lane lets go of the tracker.  *Queued* backend jobs are cancelled —
  // they have not started, the tracker is going away, and waiting for
  // pool slots would stall behind other sessions' tracking load.  The
  // cancellation happens only once every frame has retired: jobs are
  // offered to the lane *before* a retirement is published, so at that
  // point no re-enqueue can arrive and the cancel sticks.  *Running* jobs
  // kick the waiter on completion.
  ServiceSession& s = *session;
  for (;;) {
    const std::uint64_t seen = user_signal_snapshot(s);
    if (stop_.load()) break;
    if (s.frames_retired.load() >= s.frames_fed.load()) {
      const std::lock_guard<std::mutex> lock(work_mutex_);
      if (s.bg_queued > 0) {
        backend_q_.remove_if([&](const BackendQueueEntry& e) {
          return e.session == session;
        });
        s.bg_queued = 0;
      }
      if (s.bg_running == 0) break;
    }
    park_user(s, seen);
  }
  {
    const std::unique_lock<std::shared_mutex> lock(sessions_mutex_);
    std::erase(sessions_, session);
    sessions_generation_.fetch_add(1);
  }
  kick_device();  // refresh the device snapshot promptly
}

bool SlamService::push_input(const SessionPtr& session, FrameInput& frame) {
  ServiceSession& s = *session;
  if (!s.input_q.try_push(std::move(frame))) return false;
  const int in_flight =
      s.frames_fed.fetch_add(1) + 1 - s.frames_retired.load();
  {
    const std::lock_guard<std::mutex> lock(s.stats_mutex);
    s.stats.max_in_flight = std::max(s.stats.max_in_flight, in_flight);
  }
  // A mapping frame starts on the device lane; a localization frame goes
  // straight onto the ARM work queue (one backlog unit per frame).
  if (s.kind == SessionKind::kLocalization)
    enqueue_arm(session);
  else
    kick_device();
  return true;
}

// ---- device lane (the shared FPGA fabric) ----------------------------------

void SlamService::device_lane() {
  std::vector<SessionPtr> snapshot;
  std::uint64_t seen_generation = 0;
  bool have_snapshot = false;
  std::size_t cursor = 0;
  while (!stop_.load()) {
    // Capture the signal level before scanning: any kick that lands during
    // the pass keeps the lane awake for another round.
    std::uint64_t signal_at_pass;
    {
      const std::lock_guard<std::mutex> lock(device_mutex_);
      signal_at_pass = device_signal_;
    }
    if (!have_snapshot ||
        sessions_generation_.load() != seen_generation) {
      const std::shared_lock<std::shared_mutex> lock(sessions_mutex_);
      snapshot = sessions_;
      seen_generation = sessions_generation_.load();
      have_snapshot = true;
    }
    // One fairness pass: every session gets exactly one step opportunity,
    // and the starting offset rotates so ties never favor low ids.
    bool progress = false;
    for (std::size_t k = 0; k < snapshot.size(); ++k) {
      if (stop_.load()) return;
      if (device_step(snapshot[(cursor + k) % snapshot.size()]))
        progress = true;
    }
    ++cursor;
    if (!progress) {
      // Nothing runnable: park until a feed, a retirement (barrier may
      // open, handoff slot may free) or a session change kicks the lane.
      std::unique_lock<std::mutex> lock(device_mutex_);
      device_cv_.wait(lock, [&] {
        return stop_.load() || device_signal_ != signal_at_pass;
      });
    }
  }
}

bool SlamService::device_step(const SessionPtr& sp) {
  ServiceSession& s = *sp;
  // Localization sessions never use the fabric: their frames are routed
  // to the ARM pool at feed time.
  if (s.kind == SessionKind::kLocalization) return false;
  // Phase 1: a frame parked at the key-frame barrier (or waiting for
  // handoff-ring space).  Never block here — an unready session just
  // yields its turn to the other sessions.
  if (s.pending) {
    if (!s.pending_ready) {
      if (s.retired_through.load() < s.pending->index - 1) return false;
      finalize_match(s, *s.pending);
      s.pending_ready = true;
    }
    if (!s.handoff_q.try_push(std::move(*s.pending))) return false;
    s.pending.reset();
    s.pending_ready = false;
    enqueue_arm(sp);
    return true;
  }

  // Phase 2: dispatch the session's next fed frame onto the fabric.
  FrameInput input;
  if (!s.input_q.try_pop(input)) return false;
  kick_user(s);  // a ring slot freed: wake a parked feed()
  device_dispatches_total_->add();
  {
    const std::lock_guard<std::mutex> lock(s.stats_mutex);
    ++s.stats.device_dispatches;
  }
  FrameState fs = s.tracker->begin_frame(std::move(input));
  run_device_stage(s, fs, PipeStage::kFeatureExtraction, false);

  // The matching gate's prior pose reaches this lane through the tracker
  // itself: update_map of frame N publishes the prior for frame N+2
  // before retiring, and frame N+2 is only matched (speculatively or not)
  // after frame N+1's handoff, which required N's retirement.  The prior
  // is therefore frozen when FM runs and identical to what a sequential
  // run reads, so the epoch check alone decides whether a speculative
  // match holds.
  if (s.retired_through.load() >= fs.index - 1) {
    // Barrier already open: the match is authoritative immediately.
    run_device_stage(s, fs, PipeStage::kFeatureMatching, false);
    if (s.handoff_q.try_push(std::move(fs))) {
      enqueue_arm(sp);
    } else {
      s.pending = std::move(fs);
      s.pending_ready = true;
    }
  } else {
    // Previous frame still on the ARM side: speculate against the current
    // map (finalize_match() replays if a key frame moves the epoch), then
    // park at the barrier.  The speculative FM is wait-free even while
    // that ARM side is mid-update_map — match() borrows the map's current
    // published view instead of taking a lock — so one session's keyframe
    // insert no longer stalls FM dispatch for every session on this
    // shared lane.
    run_device_stage(s, fs, PipeStage::kFeatureMatching, true);
    s.pending = std::move(fs);
    s.pending_ready = false;
  }
  return true;
}

void SlamService::run_device_stage(ServiceSession& s, FrameState& fs,
                                   PipeStage stage, bool speculative) {
  // Fabric-occupancy span on the shared "device lane" track: includes the
  // pacer padding on purpose — the modeled platform's fabric is occupied
  // for the modeled duration, and that occupancy is what the Gantt's
  // resource row is for.  (to_string(stage) is a string literal, so it
  // satisfies the ring's static-name contract.)  The tracker's own FE/FM
  // spans on its session row cover the measured compute only.
  const double span_t0 = obs::trace_now_us();
  const double t0 = now_ms();
  const bool extract = stage == PipeStage::kFeatureExtraction;
  if (extract) {
    s.tracker->extract(fs);
  } else {
    s.tracker->match(fs);
  }
  pace(s, stage, t0);
#if ESLAM_TRACE_ENABLED
  obs::trace_complete(device_track_, to_string(stage), span_t0,
                      obs::trace_now_us() - span_t0);
#else
  (void)span_t0;
#endif
  // A replayed FM overwrites its speculative run's window.
  (extract ? fs.windows.fe : fs.windows.fm) = record(s, PipeLane::kFpga, t0);
  if (speculative) {
    speculative_matches_total_->add();
    const std::lock_guard<std::mutex> lock(s.stats_mutex);
    ++s.stats.speculative_matches;
  }
}

void SlamService::finalize_match(ServiceSession& s, FrameState& fs) {
  // The barrier is open: frame fs.index - 1 has retired.  The speculative
  // match is authoritative iff no structural map change intervened.
  if (!s.tracker->matches_current(fs)) {
    replayed_matches_total_->add();
    {
      const std::lock_guard<std::mutex> lock(s.stats_mutex);
      ++s.stats.replayed_matches;
    }
    run_device_stage(s, fs, PipeStage::kFeatureMatching, false);
  }
}

// ---- ARM worker pool -------------------------------------------------------

void SlamService::enqueue_arm(const SessionPtr& session) {
  {
    const std::lock_guard<std::mutex> lock(work_mutex_);
    ++session->arm_backlog;
    if (session->arm_queued) return;  // the owning worker sees the backlog
    session->arm_queued = true;
    work_q_.push_back({session, now_ms()});
  }
  work_cv_.notify_one();
}

void SlamService::enqueue_backend(const SessionPtr& session) {
  bool queued_any = false;
  {
    const std::lock_guard<std::mutex> lock(work_mutex_);
    ServiceSession& s = *session;
    // Take every newly-frozen job ticket: the tracker marks each as
    // offered, so a ticket lives in exactly one place (queue or tracker).
    std::vector<Tracker::BackendJobTicket> tickets;
    s.tracker->take_backend_jobs(tickets);
    for (const Tracker::BackendJobTicket& t : tickets) {
      BackendQueueEntry entry;
      entry.session = session;
      entry.job_id = t.job_id;
      entry.cls =
          t.loop ? BackendJobClass::kLoopVerify : BackendJobClass::kRoutineBa;
      entry.enqueue_ms = now_ms();
      if (!backend_q_.push(entry.cls, std::move(entry), entry.enqueue_ms)) {
        // Lane full: hand the ticket back so the tracker re-offers it at
        // this session's next retirement.  Overload degrades to "backend
        // laps less often", never to unbounded queue growth.
        s.tracker->unoffer_backend_job(t.job_id);
        backend_jobs_rejected_total_->add();
        const std::lock_guard<std::mutex> stats_lock(s.stats_mutex);
        ++s.stats.backend_jobs_rejected;
        continue;
      }
      ++s.bg_queued;
      queued_any = true;
    }
  }
  if (queued_any) work_cv_.notify_all();
}

void SlamService::run_session_backend(const SessionPtr& session,
                                      const BackendQueueEntry& entry) {
  ServiceSession& s = *session;
  const double t0 = now_ms();
  s.tracker->run_backend_job(entry.job_id);
  const double elapsed = now_ms() - t0;
  {
    const std::lock_guard<std::mutex> lock(s.stats_mutex);
    ++s.stats.backend_jobs;
    s.stats.backend_busy_ms += elapsed;
  }
  {
    const std::lock_guard<std::mutex> lock(work_mutex_);
    --s.bg_running;
    --bg_running_total_;
  }
  kick_user(s);  // close() / drain() may be waiting on quiescence
}

void SlamService::arm_worker(int worker_index) {
  [[maybe_unused]] const obs::TrackId worker_track =
      worker_tracks_[static_cast<std::size_t>(worker_index)];
  for (;;) {
    SessionPtr session;
    BackendQueueEntry entry;
    bool backend_job = false;
    {
      std::unique_lock<std::mutex> lock(work_mutex_);
      work_cv_.wait(lock, [&] {
        return stop_.load() || !work_q_.empty() || !backend_q_.empty();
      });
      if (stop_.load()) return;
      if (!work_q_.empty()) {
        // Tracking stages always outrank the background lane: backend
        // jobs run on pool slack only.
        WorkItem item = work_q_.pop_front();
        session = std::move(item.session);
        // Dispatch wait: how long the session's first pending frame sat
        // behind a fully-busy pool before any worker picked it up.
        dispatch_wait_hist_->record(now_ms() - item.enqueue_ms);
      } else {
        entry = std::move(*backend_q_.pop(now_ms()));
        session = entry.session;
        ServiceSession& s = *session;
        --s.bg_queued;
        ++s.bg_running;
        ++bg_running_total_;
        bg_running_hwm_ = std::max(bg_running_hwm_, bg_running_total_);
        backend_concurrent_gauge_->update(bg_running_total_);
        backend_jobs_total_->add();
        backend_job = true;
        // A loop verification's queue wait: how long it sat behind
        // tracking work.  (The registry's eslam_backend_queue_wait_ms
        // histograms got every job's wait, per class, inside pop() above.)
        if (entry.cls == BackendJobClass::kLoopVerify) {
          const double waited = now_ms() - entry.enqueue_ms;
          const std::lock_guard<std::mutex> stats_lock(s.stats_mutex);
          s.stats.backend_loop_queue_ms += waited;
        }
      }
    }
    if (backend_job) {
      // Pool-occupancy span on this worker's resource row; the job class
      // detail lives on the session's own backend track (tracker.cpp).
      ESLAM_TRACE_SCOPE(worker_track, "backend-job");
      run_session_backend(session, entry);
    } else {
      ESLAM_TRACE_SCOPE(worker_track, "serve-session");
      run_session_arm(session);
    }
  }
}

void SlamService::run_session_arm(const SessionPtr& session) {
  ServiceSession& s = *session;
  // This worker owns the session (arm_queued == true) until the backlog is
  // empty: frames of one session therefore run serially in feed order
  // (bit-identical to a solo sequential run), while other workers serve
  // other sessions, including other localizers over the same FrozenMap,
  // which read it lock-free.
  for (;;) {
    if (stop_.load()) return;  // abandon like the lanes on shutdown
    {
      const std::lock_guard<std::mutex> lock(work_mutex_);
      if (s.arm_backlog == 0) {
        s.arm_queued = false;
        return;
      }
      --s.arm_backlog;
    }
    TrackResult result = s.kind == SessionKind::kLocalization
                             ? run_localization_frame(s)
                             : run_mapping_frame(session);
    // Nothing past this count may touch the tracker or localizer: close()
    // destroys it once every fed frame has retired.
    s.frames_retired.fetch_add(1);
    {
      const std::lock_guard<std::mutex> lock(s.results_mutex);
      s.results.push_back(std::move(result));
    }
    // A mapping retirement can open this session's barrier or free a
    // handoff slot (device lane); every result wakes a parked drain() or
    // close().
    if (s.kind == SessionKind::kMapping) kick_device();
    kick_user(s);
  }
}

TrackResult SlamService::run_localization_frame(ServiceSession& s) {
  FrameInput input;
  const bool popped = s.input_q.try_pop(input);
  // The input push happens-before the backlog increment (push_input
  // enqueues after the ring push), so a claimed unit finds its frame.
  ESLAM_ASSERT(popped, "localization backlog out of sync with input ring");
  kick_user(s);  // a ring slot freed: wake a parked feed()

  // The whole frame (FE/FM/PE/PO, no MU) as one ARM unit.  No pacer and
  // no stage windows: there is no modeled fabric stage in this tier.
  const double t0 = now_ms();
  TrackResult result = s.localizer->process(input);
  record(s, PipeLane::kArm, t0);
  return result;
}

TrackResult SlamService::run_mapping_frame(const SessionPtr& session) {
  ServiceSession& s = *session;
  FrameState fs;
  const bool popped = s.handoff_q.try_pop(fs);
  // The handoff push happens-before the backlog increment (both sides of
  // work_mutex_), so a claimed backlog unit always finds its frame.
  ESLAM_ASSERT(popped, "ARM backlog out of sync with handoff ring");

  double t0 = now_ms();
  s.tracker->estimate_pose(fs);
  pace(s, PipeStage::kPoseEstimation, t0);
  fs.windows.pe = record(s, PipeLane::kArm, t0);

  t0 = now_ms();
  s.tracker->optimize_pose(fs);
  pace(s, PipeStage::kPoseOptimization, t0);
  fs.windows.po = record(s, PipeLane::kArm, t0);

  t0 = now_ms();
  const int index = fs.index;
  TrackResult result = s.tracker->update_map(fs);
  pace(s, PipeStage::kMapUpdating, t0);
  result.windows = fs.windows;
  result.windows.mu = record(s, PipeLane::kArm, t0);
  // The frame is retired: hand its shell (buffers + arena) back to the
  // tracker so begin_frame() on the device lane reuses the memory.
  s.tracker->recycle_frame(std::move(fs));

  if (result.backend_applied) {
    const std::lock_guard<std::mutex> lock(s.stats_mutex);
    ++s.stats.backend_deltas_applied;
  }

  // A keyframe may have frozen backend jobs (shard BAs and/or a loop
  // verification): offer them to the background lane (no-op when the
  // backend is idle or disabled).  This MUST precede the retirement
  // publication — touching the tracker after the session's last
  // retirement is visible would race close() destroying it, and
  // enqueuing first also makes the bg_queued count visible to any remover
  // that observes the retirement (both sides synchronize on work_mutex_).
  if (s.tracker->backend_job_pending()) enqueue_backend(session);

  // Publish retirement before delivering the result: the device lane's
  // key-frame barrier must not wait on the user's poll cadence.
  s.retired_through.store(index);
  return result;
}

}  // namespace eslam
