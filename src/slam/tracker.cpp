#include "slam/tracker.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <string>

#include "geometry/wall_timer.h"

namespace eslam {

namespace {
// Session ordinal for the trace process row ("mapping-N"): process-wide so
// rows stay distinct across services.
std::atomic<int> g_mapping_session_ordinal{0};
}  // namespace

SoftwareBackend::SoftwareBackend(const OrbConfig& orb,
                                 const MatcherOptions& matcher)
    : extractor_(orb), matcher_options_(matcher) {}

FeatureList SoftwareBackend::extract(const ImageU8& image) {
  const WallTimer timer;
  FeatureList features = extractor_.extract(image);
  extract_ms_.store(timer.elapsed_ms());
  return features;
}

std::vector<Match> SoftwareBackend::match(
    std::span<const Descriptor256> queries,
    std::span<const Descriptor256> train) {
  const WallTimer timer;
  std::vector<Match> matches = match_descriptors(queries, train,
                                                 matcher_options_);
  match_ms_.store(timer.elapsed_ms());
  return matches;
}

std::vector<Match> SoftwareBackend::match_candidates(
    std::span<const Descriptor256> queries,
    std::span<const Descriptor256> train, const CandidateSet& candidates) {
  const WallTimer timer;
  std::vector<Match> matches =
      eslam::match_candidates(queries, train, candidates, matcher_options_);
  match_ms_.store(timer.elapsed_ms());
  return matches;
}

void SoftwareBackend::extract_into(const ImageU8& image, FeatureList& out) {
  const WallTimer timer;
  extractor_.extract_into(image, out);
  extract_ms_.store(timer.elapsed_ms());
}

void SoftwareBackend::match_into(std::span<const Feature> queries,
                                 const TrainView& train, Arena* scratch,
                                 std::vector<Match>& out) {
  const WallTimer timer;
  match_descriptors_into(queries, train, matcher_options_, scratch, out);
  match_ms_.store(timer.elapsed_ms());
}

void SoftwareBackend::match_candidates_into(std::span<const Feature> queries,
                                            const TrainView& train,
                                            const CandidateSet& candidates,
                                            Arena* scratch,
                                            std::vector<Match>& out) {
  const WallTimer timer;
  eslam::match_candidates_into(queries, train, candidates, matcher_options_,
                               scratch, out);
  match_ms_.store(timer.elapsed_ms());
}

Tracker::Tracker(const PinholeCamera& camera,
                 std::unique_ptr<FeatureBackend> backend,
                 const TrackerOptions& options)
    : camera_(camera),
      backend_(std::move(backend)),
      options_(options),
      core_(camera_, backend_.get(), options_),
      keyframe_policy_(options.keyframe),
      kf_graph_(options.backend.graph) {
  // Pre-size the growth-only containers so the steady-state loop never
  // reallocates them (the allocation regression test counts every heap
  // call after warm-up).
  trajectory_.reserve(1024);
  frame_pool_.reserve(kFramePoolCap);

  // Observability registration — the cold half of the obs/ contract: all
  // allocation (track names, registry lookups) happens here, once; stage
  // methods then only touch the resolved handles.
  const int ordinal =
      g_mapping_session_ordinal.fetch_add(1, std::memory_order_relaxed);
  obs_.pid = obs::register_process("mapping-" + std::to_string(ordinal));
  obs_.device_track = obs::register_track(obs_.pid, "device (FE/FM)");
  obs_.arm_track = obs::register_track(obs_.pid, "arm (PE/PO/MU)");
  obs_.ba_track = obs::register_track(obs_.pid, "backend routine-ba");
  obs_.loop_track = obs::register_track(obs_.pid, "backend loop-verify");
  obs::MetricsRegistry& reg = obs::metrics();
  obs_.stage_fe = &reg.histogram("eslam_tracker_stage_ms{stage=\"fe\"}");
  obs_.stage_fm = &reg.histogram("eslam_tracker_stage_ms{stage=\"fm\"}");
  obs_.stage_pe = &reg.histogram("eslam_tracker_stage_ms{stage=\"pe\"}");
  obs_.stage_po = &reg.histogram("eslam_tracker_stage_ms{stage=\"po\"}");
  obs_.stage_mu = &reg.histogram("eslam_tracker_stage_ms{stage=\"mu\"}");
  obs_.backend_freeze = &reg.histogram("eslam_backend_freeze_ms");
  obs_.backend_optimize_ba =
      &reg.histogram("eslam_backend_optimize_ms{class=\"ba\"}");
  obs_.backend_optimize_loop =
      &reg.histogram("eslam_backend_optimize_ms{class=\"loop\"}");
  obs_.backend_apply = &reg.histogram("eslam_backend_apply_ms");
  frames_retired_total_ = &reg.counter("eslam_frames_retired_total");
  keyframes_total_ = &reg.counter("eslam_keyframes_total");
  points_pruned_total_ = &reg.counter("eslam_points_pruned_total");
  points_culled_total_ = &reg.counter("eslam_points_culled_total");
  points_fused_total_ = &reg.counter("eslam_points_fused_total");
  reloc_attempts_total_ = &reg.counter("eslam_reloc_attempts_total");
  reloc_successes_total_ = &reg.counter("eslam_reloc_successes_total");
  loops_closed_total_ = &reg.counter("eslam_loops_closed_total");
  map_reader_stalls_total_ = &reg.counter("eslam_map_reader_stalls_total");
}

std::optional<Vec3> Tracker::camera_point_from_depth(const FrameInput& frame,
                                                     double u, double v) const {
  const int xi = static_cast<int>(std::lround(u));
  const int yi = static_cast<int>(std::lround(v));
  if (!frame.depth.contains(xi, yi)) return std::nullopt;
  const std::uint16_t raw = frame.depth.at(xi, yi);
  if (raw == 0) return std::nullopt;  // invalid depth (sensor hole)
  const double z = raw / options_.depth_factor;
  if (z <= 0.05 || z > 40.0) return std::nullopt;
  return camera_.unproject(u, v, z);
}

void Tracker::bootstrap_map(
    FrameState& fs, std::vector<backend::KeyframeObservation>* observations) {
  const WallTimer timer;
  int added = 0;
  for (const Feature& f : fs.features) {
    const auto p_cam =
        camera_point_from_depth(fs.input, f.keypoint.x0(), f.keypoint.y0());
    if (!p_cam) continue;
    // Bootstrap pose is the identity: world == camera frame.
    const std::int64_t id = map_.add_point(*p_cam, f.descriptor, fs.index);
    if (observations)
      observations->push_back({id, Vec2{f.keypoint.x0(), f.keypoint.y0()},
                               f.descriptor, *p_cam});
    ++added;
  }
  fs.result.keyframe = true;
  fs.result.lost = added == 0;
  fs.result.times.map_updating = timer.elapsed_ms();
  keyframe_policy_.should_insert(SE3{});  // registers the reference pose
}

std::size_t Tracker::insert_map_points(
    const FrameState& fs, std::span<const std::uint8_t> feature_matched,
    const SE3& pose_wc,
    std::vector<backend::KeyframeObservation>* observations) {
  for (std::size_t i = 0; i < fs.features.size(); ++i) {
    if (feature_matched[i]) continue;  // already represented in the map
    const Feature& f = fs.features[i];
    const auto p_cam = camera_point_from_depth(fs.input, f.keypoint.x0(),
                                               f.keypoint.y0());
    if (!p_cam) continue;
    const std::int64_t id =
        map_.add_point(pose_wc * *p_cam, f.descriptor, fs.index);
    if (observations)
      observations->push_back({id, Vec2{f.keypoint.x0(), f.keypoint.y0()},
                               f.descriptor, *p_cam});
  }
  // Retention is the lifecycle policy's call now (age + protection), not a
  // bare map prune; same structural-write/epoch rules either way.
  return backend::run_map_maintenance(map_, fs.index, options_.lifecycle);
}

void Tracker::publish_gate_prior(const FrameState& fs) {
  lost_streak_ = fs.result.lost ? lost_streak_ + 1 : 0;
  const std::int64_t for_frame = fs.index + 2;
  bool valid = false;
  SE3 pose_cw;
  if (!fs.result.lost) {
    valid = true;
    // The target frame is two frames ahead of the pose this publication
    // is based on.
    pose_cw = core_.predicted_pose_cw(/*frames_ahead=*/2);
  }
  // else: no trustworthy pose — published as invalid, which routes the
  // target frame into the relocalization tier.

  // Seqlock write: odd sequence opens, payload stores are relaxed (a
  // speculative device-lane match may genuinely overlap them — it will
  // observe the odd/changed sequence and retry), even sequence closes
  // with release so a reader that sees it also sees the payload.
  GatePriorSlot& slot = gate_prior_[static_cast<std::size_t>(for_frame % 2)];
  const std::uint32_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.for_frame.store(for_frame, std::memory_order_relaxed);
  slot.valid.store(valid ? 1 : 0, std::memory_order_relaxed);
  slot.lost_streak.store(lost_streak_, std::memory_order_relaxed);
  const double* r = pose_cw.rotation().data();
  for (std::size_t k = 0; k < 9; ++k)
    slot.pose_cw[k].store(r[k], std::memory_order_relaxed);
  const double* t = pose_cw.translation().data();
  for (std::size_t k = 0; k < 3; ++k)
    slot.pose_cw[9 + k].store(t[k], std::memory_order_relaxed);
  slot.seq.store(seq + 2, std::memory_order_release);
}

Tracker::GatePrior Tracker::gate_prior_for(int frame_index) const {
  const GatePriorSlot& slot =
      gate_prior_[static_cast<std::size_t>(frame_index % 2)];
  GatePrior out;
  for (;;) {
    const std::uint32_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 & 1u) continue;  // writer mid-publish; retry
    const std::int64_t for_frame =
        slot.for_frame.load(std::memory_order_relaxed);
    const std::int32_t valid = slot.valid.load(std::memory_order_relaxed);
    const std::int32_t streak =
        slot.lost_streak.load(std::memory_order_relaxed);
    Mat3 r;
    for (std::size_t k = 0; k < 9; ++k)
      r.data()[k] = slot.pose_cw[k].load(std::memory_order_relaxed);
    Vec3 t;
    for (std::size_t k = 0; k < 3; ++k)
      t.data()[k] = slot.pose_cw[9 + k].load(std::memory_order_relaxed);
    // The acquire fence orders the payload loads above before the
    // sequence re-check: an unchanged even sequence proves no write
    // overlapped them.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != s1) continue;
    if (for_frame != frame_index) return out;  // nothing published yet
    out.lost_streak = streak;
    if (valid)
      out.pose_cw = SE3{r, t};
    else
      out.lost = true;  // explicitly published as lost: relocalize
    return out;
  }
}

FrameState Tracker::acquire_frame() {
  FrameState fs;
  {
    const std::lock_guard<std::mutex> lock(frame_pool_mutex_);
    if (!frame_pool_.empty()) {
      fs = std::move(frame_pool_.back());
      frame_pool_.pop_back();
    }
  }
  fs.reset();
  return fs;
}

void Tracker::recycle_frame(FrameState&& fs) {
  const std::lock_guard<std::mutex> lock(frame_pool_mutex_);
  if (frame_pool_.size() < kFramePoolCap)
    frame_pool_.push_back(std::move(fs));
}

FrameState Tracker::begin_frame(FrameInput frame) {
  FrameState fs = acquire_frame();
  fs.input = std::move(frame);
  fs.index = next_index_++;
  fs.result.timestamp = fs.input.timestamp;
  return fs;
}

void Tracker::extract(FrameState& fs) {
  // --- Feature extraction (FPGA in the paper) ---------------------------
  ESLAM_TRACE_SCOPE(obs_.device_track, "FE");
  core_.extract(fs, fs.input.gray);
  obs_.stage_fe->record(fs.result.times.feature_extraction);
}

void Tracker::match(FrameState& fs) {
  ESLAM_TRACE_SCOPE(obs_.device_track, "FM");
  // --- Feature matching (FPGA in the paper) ------------------------------
  // Wait-free against update_map()'s structural writes: the matcher
  // borrows the map's current published MapReadView (one atomic refcount
  // acquisition — no lock any writer can hold) and reads only through it
  // for the whole stage.  A concurrent publish leaves the borrowed view
  // frozen; the epoch recorded below detects it, and a replay simply
  // overwrites the previous matches against a fresh borrow.
  fs.view = map_.read_view();
  fs.map_epoch = fs.view->epoch();
  const GatePrior prior = gate_prior_for(fs.index);
  // The publishing frame retired *lost* for long enough: there is no pose
  // to gate with, so recognize where we are instead (see RelocOptions).
  // This is the one read path that still locks (graph_mutex_, shared —
  // the graph/index have no published views), and only on such
  // persistently-lost frames, never in steady state.
  const bool relocalize =
      prior.lost && prior.lost_streak >= options_.reloc.min_lost_frames &&
      options_.backend.enabled && core_.can_relocalize(fs);
  std::shared_lock glock(graph_mutex_, std::defer_lock);
  if (relocalize && !glock.try_lock()) {
    // A keyframe insert / loop rebase holds the graph exclusively right
    // now — the only remaining way a reader waits on a map writer.
    map_reader_stalls_total_->add(1);
    glock.lock();
  }
  const Places places{kf_graph_, kf_index_};
  core_.match(fs, *fs.view, prior.pose_cw, relocalize ? &places : nullptr);
  if (!fs.view->empty())
    obs_.stage_fm->record(fs.result.times.feature_matching);
}

void Tracker::estimate_pose(FrameState& fs) {
  if (fs.view ? fs.view->empty() : map_.empty()) {
    // First (or post-reset) frame: no pose to estimate, update_map() will
    // bootstrap the map at the identity pose.
    fs.bootstrap = true;
    return;
  }
  ESLAM_ASSERT(matches_current(fs),
               "stale matches: match() must be replayed after a key frame");

  // --- Pose estimation: PnP + RANSAC (ARM) -------------------------------
  ESLAM_TRACE_SCOPE(obs_.arm_track, "PE");
  core_.estimate_pose(fs, *fs.view);
  obs_.stage_pe->record(fs.result.times.pose_estimation);
}

void Tracker::optimize_pose(FrameState& fs) {
  if (fs.bootstrap || fs.result.lost) return;

  // --- Pose optimization: LM on inlier reprojection error (ARM) ----------
  ESLAM_TRACE_SCOPE(obs_.arm_track, "PO");
  core_.optimize_pose(fs);
  obs_.stage_po->record(fs.result.times.pose_optimization);
}

TrackResult Tracker::update_map(FrameState& fs) {
  ESLAM_TRACE_SCOPE(obs_.arm_track, "MU");
  const bool backend_on = options_.backend.enabled;
  if (fs.bootstrap) {
    std::vector<backend::KeyframeObservation> observations;
    int new_kf = -1;
    {
      // Graph/index insertion happens under the exclusive graph lock: the
      // device lane's relocalization tier reads both under the shared
      // one.  The map writes themselves (bootstrap_map's add_point loop)
      // need no lock — each publishes a fresh view; concurrent matchers
      // keep reading whichever view they borrowed.
      const std::unique_lock lock(graph_mutex_);
      bootstrap_map(fs, backend_on ? &observations : nullptr);
      core_.motion().last_pose_cw = SE3{};
      if (backend_on && !fs.result.lost)
        new_kf = backend_insert_keyframe(fs, std::move(observations));
    }
    if (new_kf >= 0) backend_freeze_jobs(new_kf, fs);
  } else if (fs.result.lost) {
    // Drop the (now unreliable) velocity estimate; the map is untouched.
    core_.retire(fs.result);
  } else {
    // The keyframe decision only needs the final pose; taking it first
    // lets non-keyframes (the common case) skip the backend observation
    // collection below entirely.
    const bool is_keyframe = keyframe_policy_.should_insert(fs.result.pose_wc);

    // Record which features/map points were matched (for map maintenance).
    // A relocalization match may carry train == -1 — the correspondence
    // came from a keyframe observation whose map point is no longer alive
    // (pruned / culled / fused); it contributed pose evidence, but the
    // feature is treated as unmatched here so a fresh map point remaps
    // the revisited region.
    if (!fs.arena) fs.arena = std::make_unique<Arena>();
    const ArenaScope mask_scope(*fs.arena);
    const std::span<std::uint8_t> feature_matched =
        fs.arena->alloc_span<std::uint8_t>(fs.features.size(),
                                           std::uint8_t{0});
    std::vector<backend::KeyframeObservation> observations;
    for (int idx : fs.ransac.inliers) {
      const Match& m = fs.matches[static_cast<std::size_t>(idx)];
      if (m.train < 0) continue;
      feature_matched[static_cast<std::size_t>(m.query)] = 1;
      map_.note_match(static_cast<std::size_t>(m.train), fs.index);
      if (backend_on && is_keyframe) {
        const Feature& f = fs.features[static_cast<std::size_t>(m.query)];
        const auto p_cam = camera_point_from_depth(fs.input, f.keypoint.x0(),
                                                   f.keypoint.y0());
        observations.push_back(
            {map_.point(static_cast<std::size_t>(m.train)).id,
             Vec2{f.keypoint.x0(), f.keypoint.y0()}, f.descriptor,
             // Prefer the frame's own depth; a sensor hole falls back to
             // the map point seen from this frame's pose.
             p_cam ? *p_cam
                   : fs.result.pose_cw *
                         map_.point(static_cast<std::size_t>(m.train))
                             .position});
      }
    }

    // --- Map updating (key frames only, ARM) ------------------------------
    if (is_keyframe) {
      WallTimer mu_timer;
      int new_kf = -1;
      {
        // The exclusive section guards the keyframe graph + recognition
        // index only (reloc-tier readers take it shared).  The map writes
        // inside — delta application, point insertion, pruning — need no
        // reader arbitration: each mutation publishes an immutable view,
        // and device-lane matchers never wait on this section.  A
        // speculative match that borrowed a mid-update view fails the
        // epoch check at finalize and replays, exactly as before.
        const std::unique_lock lock(graph_mutex_);
        // Completed backend deltas land here — the next keyframe after
        // their completion — each as one more structural map write under
        // the same lock and epoch rules as the insertions below, applied
        // in job-id order.  A loop delta also rebases fs.result.pose_cw/wc
        // and the motion model, so the insertions below land in the
        // corrected frame.
        if (backend_on) apply_pending_backend_deltas(fs);
        fs.result.n_points_pruned = static_cast<int>(insert_map_points(
            fs, feature_matched, fs.result.pose_wc,
            backend_on ? &observations : nullptr));
        if (backend_on)
          new_kf = backend_insert_keyframe(fs, std::move(observations));
      }
      // Job freezing (loop detection + snapshot copies) reads only, so it
      // runs after the lock is released — see backend_freeze_jobs.
      if (new_kf >= 0) backend_freeze_jobs(new_kf, fs);
      fs.result.times.map_updating = mu_timer.elapsed_ms();
      fs.result.keyframe = true;
      obs_.stage_mu->record(fs.result.times.map_updating);
    }

    // A post-loss frame that reached here recovered a pose — that is the
    // relocalization the stats and server events report.  Backend-off
    // runs never set reloc_attempted, so their motion model is the plain
    // constant-velocity one.
    core_.retire(fs.result);
  }

  // Publish the matching gate's prior for frame index + 2 before this
  // frame's retirement becomes visible to the device lane (the scheduler
  // stores retired_through *after* update_map returns, so a match that
  // observed the retirement also observes this publication).
  publish_gate_prior(fs);

  // Retirement rollups: cross-thread-folded quantities go through the
  // registry's atomics (many trackers, one set of process-wide totals).
  frames_retired_total_->add(1);
  if (fs.result.keyframe) keyframes_total_->add(1);
  if (fs.result.n_points_pruned > 0)
    points_pruned_total_->add(fs.result.n_points_pruned);
  if (fs.result.n_points_culled > 0)
    points_culled_total_->add(fs.result.n_points_culled);
  if (fs.result.n_points_fused > 0)
    points_fused_total_->add(fs.result.n_points_fused);
  if (fs.result.reloc_attempted) reloc_attempts_total_->add(1);
  if (fs.result.relocalized) reloc_successes_total_->add(1);
  if (fs.result.loop_closed) loops_closed_total_->add(1);

  trajectory_.push_back(fs.result);
  frame_index_ = fs.index + 1;
  return fs.result;
}

TrackResult Tracker::process(const FrameInput& frame) {
  // Copy-assign the input into a recycled frame shell instead of routing
  // through begin_frame(FrameInput) — the shell's image buffers keep their
  // capacity across frames, so the sequential platform's steady state
  // allocates nothing per frame either.
  FrameState fs = acquire_frame();
  fs.input.gray = frame.gray;
  fs.input.depth = frame.depth;
  fs.input.timestamp = frame.timestamp;
  fs.index = next_index_++;
  fs.result.timestamp = frame.timestamp;
  extract(fs);
  match(fs);
  estimate_pose(fs);
  optimize_pose(fs);
  TrackResult result = update_map(fs);
  recycle_frame(std::move(fs));
  // Sequential platform: no worker pool, so every job frozen at this
  // keyframe runs inline right here, in job-id order (deltas apply at the
  // next keyframe, the same protocol the asynchronous lane follows) —
  // deterministic by construction, sharding included.
  if (backend_job_pending()) run_backend_job();
  return result;
}

// ---- local-mapping backend --------------------------------------------------

bool Tracker::backend_job_pending() const {
  const std::lock_guard<std::mutex> lock(backend_mutex_);
  for (const BackendJob& job : backend_jobs_)
    if (job.state == BackendJob::State::kReady && !job.offered) return true;
  return false;
}

bool Tracker::backend_busy() const {
  const std::lock_guard<std::mutex> lock(backend_mutex_);
  for (const BackendJob& job : backend_jobs_)
    if (job.state == BackendJob::State::kRunning) return true;
  return false;
}

void Tracker::take_backend_jobs(std::vector<BackendJobTicket>& out) {
  const std::lock_guard<std::mutex> lock(backend_mutex_);
  for (BackendJob& job : backend_jobs_) {
    if (job.state != BackendJob::State::kReady || job.offered) continue;
    job.offered = true;
    out.push_back({job.id, job.loop});
  }
}

void Tracker::unoffer_backend_job(int job_id) {
  const std::lock_guard<std::mutex> lock(backend_mutex_);
  for (BackendJob& job : backend_jobs_)
    if (job.id == job_id && job.state == BackendJob::State::kReady)
      job.offered = false;
}

backend::BackendStats Tracker::backend_stats() const {
  const std::lock_guard<std::mutex> lock(backend_mutex_);
  return backend_stats_;
}

int Tracker::backend_insert_keyframe(
    const FrameState& fs,
    std::vector<backend::KeyframeObservation> observations) {
  // Caller holds the exclusive graph lock: graph + index mutations here
  // are what the device lane's relocalization tier reads under the shared
  // one.
  const int kf_id = kf_graph_.add_keyframe(fs.index, fs.result.pose_cw,
                                           std::move(observations));
  kf_index_.add_keyframe(kf_id, kf_graph_.keyframe(kf_id).observations);
  // The graph's FIFO bound may have evicted; the index follows it.
  kf_index_.remove_below(kf_graph_.first_live_id());
  const std::lock_guard<std::mutex> lock(backend_mutex_);
  ++backend_stats_.keyframes_inserted;
  return kf_id;
}

void Tracker::backend_freeze_jobs(int kf_id, const FrameState& fs) {
  ESLAM_TRACE_SCOPE(obs_.arm_track, "freeze");
  // Records the freeze duration on every exit path (the function returns
  // early from several budget/conflict gates).
  struct FreezeTimecard {
    obs::Histogram* h;
    WallTimer timer;
    ~FreezeTimecard() { h->record(timer.elapsed_ms()); }
  } freeze_timecard{obs_.backend_freeze, {}};
  // Runs OUTSIDE the exclusive graph lock: detection and snapshot
  // building only *read* the graph/index/map, and this stage is their one
  // writer — concurrent reloc-tier readers (shared graph lock) are
  // unaffected, and keeping this work out of the exclusive section keeps
  // a keyframe from stalling a lost session's recovery.
  //
  // First, gather the in-flight jobs' claim sets.  Workers may transition
  // job *states* concurrently, but jobs only enter or leave the table on
  // this stage's own thread (freeze/apply) or — for discarded jobs — on a
  // worker, which can only shrink the claim set; reading it once here is
  // therefore conservative.
  std::vector<int> claimed_kfs;
  std::vector<std::int64_t> claimed_points;
  bool loop_in_flight = false;
  int inflight = 0;
  {
    const std::lock_guard<std::mutex> lock(backend_mutex_);
    for (const BackendJob& job : backend_jobs_) {
      ++inflight;
      if (job.loop) loop_in_flight = true;
      claimed_kfs.insert(claimed_kfs.end(), job.claimed_kfs.begin(),
                         job.claimed_kfs.end());
      claimed_points.insert(claimed_points.end(), job.owned_points.begin(),
                            job.owned_points.end());
    }
  }
  // A loop job owns everything (its correction rewrites every pose and
  // point): while one is in flight nothing else freezes, and nothing
  // freezes beside it — whatever we froze now would be discarded the
  // moment the correction applies.
  if (loop_in_flight) return;
  const int budget = std::max(1, options_.backend.max_inflight_jobs) - inflight;
  if (budget <= 0) return;

  // Loop detection first: a recognized revisit freezes ONE loop-
  // verification job — the high-priority class — and skips BA freezing at
  // this keyframe (windowed BA resumes at the next one).
  if (options_.backend.loop.enabled && fs.index >= loop_cooldown_until_) {
    const int candidate = backend::detect_loop_candidate(
        kf_graph_, kf_index_, kf_id, options_.backend.loop);
    backend::BackendSnapshot snapshot;
    if (candidate >= 0 &&
        backend::build_loop_snapshot(kf_graph_, map_, camera_,
                                     options_.backend, kf_id, candidate,
                                     fs.index, snapshot)) {
      const std::lock_guard<std::mutex> lock(backend_mutex_);
      ++backend_stats_.loops_detected;
      BackendJob job;
      job.id = next_backend_job_id_++;
      job.loop = true;
      job.snapshot = std::move(snapshot);
      backend_jobs_.push_back(std::move(job));
      backend_stats_.max_inflight_jobs_seen =
          std::max(backend_stats_.max_inflight_jobs_seen,
                   static_cast<int>(backend_jobs_.size()));
      return;
    }
  }

  // Routine BA: decompose into covisibility-disjoint shards and freeze
  // each one as an independent job, up to the in-flight budget.
  const std::vector<backend::BackendShard> shards =
      backend::compute_shards(kf_graph_, options_.backend);
  if (shards.empty()) return;
  std::sort(claimed_points.begin(), claimed_points.end());
  claimed_points.erase(
      std::unique(claimed_points.begin(), claimed_points.end()),
      claimed_points.end());
  int frozen = 0;
  for (std::size_t sid = 0; sid < shards.size(); ++sid) {
    if (frozen >= budget) break;
    const backend::BackendShard& shard = shards[sid];
    // Per-shard serialization across freezes: a shard whose free window
    // intersects an in-flight job's free window waits for that job's
    // delta (shard 0 usually overlaps the previous freeze's shard 0 —
    // exactly the old one-job-at-a-time skip, now per shard).
    bool conflict = false;
    for (const int id : shard.window_kfs)
      if (std::find(claimed_kfs.begin(), claimed_kfs.end(), id) !=
          claimed_kfs.end()) {
        conflict = true;
        break;
      }
    if (conflict) continue;
    backend::BackendSnapshot snapshot;
    if (!backend::build_shard_snapshot(kf_graph_, map_, camera_,
                                       options_.backend, shard,
                                       static_cast<int>(sid), fs.index,
                                       claimed_points, snapshot))
      continue;
    BackendJob job;
    job.shard = static_cast<int>(sid);
    job.claimed_kfs = snapshot.window_kfs;  // post-demote free set
    job.owned_points.reserve(snapshot.point_ids.size());
    for (std::size_t j = 0; j < snapshot.point_ids.size(); ++j)
      if (snapshot.point_owned.empty() || snapshot.point_owned[j] != 0)
        job.owned_points.push_back(snapshot.point_ids[j]);
    // Later shards this freeze (and later freezes) must treat this job's
    // points as claimed.
    claimed_points.insert(claimed_points.end(), job.owned_points.begin(),
                          job.owned_points.end());
    std::sort(claimed_points.begin(), claimed_points.end());
    job.snapshot = std::move(snapshot);
    {
      const std::lock_guard<std::mutex> lock(backend_mutex_);
      job.id = next_backend_job_id_++;
      backend_jobs_.push_back(std::move(job));
      backend_stats_.max_inflight_jobs_seen =
          std::max(backend_stats_.max_inflight_jobs_seen,
                   static_cast<int>(backend_jobs_.size()));
    }
    ++frozen;
  }
  const std::lock_guard<std::mutex> lock(backend_mutex_);
  ++backend_stats_.freeze_events;
  backend_stats_.shard_jobs_frozen += frozen;
  backend_stats_.last_freeze_shards = static_cast<int>(shards.size());
  backend_stats_.max_shards_seen = std::max(
      backend_stats_.max_shards_seen, static_cast<int>(shards.size()));
}

void Tracker::run_backend_job(int job_id) {
  backend::BackendSnapshot snapshot;
  bool loop_job = false;
  {
    const std::lock_guard<std::mutex> lock(backend_mutex_);
    const auto it =
        std::find_if(backend_jobs_.begin(), backend_jobs_.end(),
                     [&](const BackendJob& j) { return j.id == job_id; });
    // The job may have been discarded and erased (loop correction) after
    // its ticket was queued; a vanished id is a silent no-op.
    if (it == backend_jobs_.end() || it->state != BackendJob::State::kReady)
      return;
    snapshot = std::move(it->snapshot);
    it->state = BackendJob::State::kRunning;
    loop_job = it->loop;
  }
  // The expensive part — windowed BA (or loop verification) on the frozen
  // copy.  No tracker lock is held: tracking stages proceed concurrently,
  // and so do other shards' jobs on other workers.
  ESLAM_TRACE_SCOPE(loop_job ? obs_.loop_track : obs_.ba_track,
                    loop_job ? "loop-verify" : "ba-job");
  backend::BackendDelta delta = backend::optimize_snapshot(
      std::move(snapshot), options_.backend, options_.lifecycle);
  (loop_job ? obs_.backend_optimize_loop : obs_.backend_optimize_ba)
      ->record(delta.optimize_ms);
  const std::lock_guard<std::mutex> lock(backend_mutex_);
  ++backend_stats_.jobs_run;
  backend_stats_.total_optimize_ms += delta.optimize_ms;
  if (delta.loop_job) {
    ++backend_stats_.loop_jobs_run;
    if (delta.loop_closed) {
      ++backend_stats_.loops_verified;
    } else {
      ++backend_stats_.loops_rejected;
    }
    backend_stats_.last_loop_inliers = delta.loop_inliers;
    backend_stats_.total_pose_graph_iterations += delta.pose_graph.iterations;
  } else {
    ++backend_stats_.ba_jobs_run;
    backend_stats_.total_ba_iterations += delta.ba.iterations;
    backend_stats_.last_ba_initial_cost = delta.ba.initial_cost;
    backend_stats_.last_ba_final_cost = delta.ba.final_cost;
  }
  const auto it =
      std::find_if(backend_jobs_.begin(), backend_jobs_.end(),
                   [&](const BackendJob& j) { return j.id == job_id; });
  if (it == backend_jobs_.end()) return;
  if (it->discarded) {
    // A loop correction applied while this job ran: its snapshot predates
    // the corrected map, so the delta is dropped unapplied.
    ++backend_stats_.jobs_discarded;
    backend_jobs_.erase(it);
    return;
  }
  it->delta = std::move(delta);
  it->state = BackendJob::State::kDone;
}

void Tracker::run_backend_job() {
  // Sequential drain: run every ready job in ascending id order (loop
  // jobs freeze before BA jobs at the same keyframe, so they also run
  // first here — the inline analogue of the scheduler's priority pop).
  for (;;) {
    int next = -1;
    {
      const std::lock_guard<std::mutex> lock(backend_mutex_);
      for (const BackendJob& job : backend_jobs_)
        if (job.state == BackendJob::State::kReady &&
            (next < 0 || job.id < next))
          next = job.id;
    }
    if (next < 0) return;
    run_backend_job(next);
  }
}

void Tracker::apply_pending_backend_deltas(FrameState& fs) {
  // Applies every completed delta, smallest job id first — the order jobs
  // were frozen in, identical in sequential and threaded runs regardless
  // of worker completion order.  Concurrent jobs write disjoint keyframe
  // and owned-point sets (checked below), so this order is one valid
  // serialization of writes that commute anyway.
  for (;;) {
    backend::BackendDelta delta;
    std::vector<std::int64_t> owned;
    {
      const std::lock_guard<std::mutex> lock(backend_mutex_);
      const auto it =
          std::find_if(backend_jobs_.begin(), backend_jobs_.end(),
                       [](const BackendJob& j) {
                         return j.state == BackendJob::State::kDone;
                       });
      if (it == backend_jobs_.end()) return;
      delta = std::move(it->delta);
      owned = std::move(it->owned_points);
      backend_jobs_.erase(it);
    }
    // Per-delta ownership check: a shard delta may only write the points
    // its job owned at freeze time (what makes concurrent deltas commute).
    // Loop deltas are exempt — a correction legitimately rewrites the
    // whole map, and discards every other job below.
    if (!delta.loop_job) {
      const auto owns = [&](std::int64_t id) {
        return std::binary_search(owned.begin(), owned.end(), id);
      };
      for (const auto& [id, position] : delta.point_positions)
        ESLAM_ASSERT(owns(id), "shard delta moved a point it does not own");
      for (const std::int64_t id : delta.culled_ids)
        ESLAM_ASSERT(owns(id), "shard delta culled a point it does not own");
      for (const std::int64_t id : delta.fused_ids)
        ESLAM_ASSERT(owns(id), "shard delta fused a point it does not own");
    }
    const WallTimer apply_timer;
    ESLAM_TRACE_SCOPE(obs_.arm_track, "apply");
    const backend::ApplyOutcome outcome =
        backend::apply_delta(delta, map_, kf_graph_);
    obs_.backend_apply->record(apply_timer.elapsed_ms());
    fs.result.n_points_culled += outcome.points_culled;
    fs.result.n_points_fused += outcome.points_fused;
    fs.result.backend_applied = true;
    if (outcome.loop_applied) {
      // The world moved under the camera: rebase every piece of tracker
      // state expressed in world coordinates by the same correction the
      // live end of the map received, so the very next projection of the
      // corrected map is unchanged.  For a camera pose (world-to-camera)
      // the rebase is pose_cw' = pose_cw * adjust^{-1}; for a camera-in-
      // world reference it is pose_wc' = adjust * pose_wc.  The velocity
      // last * prev^{-1} is invariant (the adjusts cancel), so the motion
      // model carries straight through the correction.
      const SE3 adjust_inv = outcome.loop_adjust.inverse();
      fs.result.pose_cw = fs.result.pose_cw * adjust_inv;
      fs.result.pose_wc = fs.result.pose_cw.inverse();
      MotionModel& motion = core_.motion();
      motion.last_pose_cw = motion.last_pose_cw * adjust_inv;
      motion.prev_pose_cw = motion.prev_pose_cw * adjust_inv;
      keyframe_policy_.rebase(outcome.loop_adjust);
      fs.result.loop_closed = true;
      loop_cooldown_until_ = fs.index + options_.backend.loop.cooldown_frames;
      // Every other in-flight job froze against the pre-correction map:
      // discard them all.  Ready/done jobs go now; a running job is
      // flagged and erased by its own worker on completion.
      const std::lock_guard<std::mutex> lock(backend_mutex_);
      std::erase_if(backend_jobs_, [&](BackendJob& job) {
        if (job.state == BackendJob::State::kRunning) {
          job.discarded = true;
          return false;
        }
        ++backend_stats_.jobs_discarded;
        return true;
      });
    } else if (delta.loop_job) {
      // Verification rejected the candidate: back off briefly so the same
      // false pair does not immediately re-freeze a loop job and starve
      // the BA lane.
      loop_cooldown_until_ =
          fs.index + std::max(1, options_.backend.loop.cooldown_frames / 4);
    }
    const std::lock_guard<std::mutex> lock(backend_mutex_);
    ++backend_stats_.deltas_applied;
    backend_stats_.points_moved += outcome.points_moved;
    backend_stats_.points_culled += outcome.points_culled;
    backend_stats_.points_fused += outcome.points_fused;
    if (outcome.loop_applied) {
      ++backend_stats_.loops_applied;
      backend_stats_.last_loop_correction_m =
          outcome.loop_adjust.translation().norm();
    }
  }
}

}  // namespace eslam
