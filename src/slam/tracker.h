// The full RGB-D ORB-SLAM frontend of Figure 1: feature extraction ->
// feature matching -> pose estimation -> pose optimization -> (key frames
// only) map updating.
//
// Feature extraction and matching are delegated to a FeatureBackend so the
// same tracker runs with the software ORB pipeline or with the simulated
// FPGA accelerator (accel/), mirroring the paper's hardware/software split.
// The first four stages are the TrackingCore (slam/tracking_core.h) the
// Localizer shares; the Tracker adds map updating, the gate-prior
// publication that lets the device lane match ahead, the keyframe-graph
// lock and the local-mapping backend.
//
// The five stages are exposed individually (extract / match /
// estimate_pose / optimize_pose / update_map) operating on an explicit
// per-frame FrameState, so a pipeline runtime (runtime/) can keep stages
// of *different* frames in flight simultaneously as in the paper's
// Figure 7; process() is the synchronous composition of the five.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <vector>

#include "backend/local_mapper.h"
#include "backend/map_lifecycle.h"
#include "core/arena.h"
#include "features/matcher.h"
#include "features/orb.h"
#include "geometry/camera.h"
#include "geometry/se3.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "slam/keyframe.h"
#include "slam/map.h"
#include "slam/tracking_core.h"

namespace eslam {

// Software backend: OrbExtractor + Hamming matching kernels, timed by wall
// clock.  The timing caches are atomics so the last-stage times can be
// read from a different thread than the one driving extract()/match() (the
// pipeline runtime runs both on its FPGA-model lane while stats readers
// poll).
class SoftwareBackend final : public FeatureBackend {
 public:
  explicit SoftwareBackend(const OrbConfig& orb = {},
                           const MatcherOptions& matcher = {});
  FeatureList extract(const ImageU8& image) override;
  std::vector<Match> match(std::span<const Descriptor256> queries,
                           std::span<const Descriptor256> train) override;
  std::vector<Match> match_candidates(std::span<const Descriptor256> queries,
                                      std::span<const Descriptor256> train,
                                      const CandidateSet& candidates) override;
  void extract_into(const ImageU8& image, FeatureList& out) override;
  void match_into(std::span<const Feature> queries, const TrainView& train,
                  Arena* scratch, std::vector<Match>& out) override;
  void match_candidates_into(std::span<const Feature> queries,
                             const TrainView& train,
                             const CandidateSet& candidates, Arena* scratch,
                             std::vector<Match>& out) override;
  double last_extract_time_ms() const override { return extract_ms_.load(); }
  double last_match_time_ms() const override { return match_ms_.load(); }
  const char* name() const override { return "software"; }

  OrbExtractor& extractor() { return extractor_; }

 private:
  OrbExtractor extractor_;
  MatcherOptions matcher_options_;
  std::atomic<double> extract_ms_{0.0};
  std::atomic<double> match_ms_{0.0};
};

// Tracking tuning (TrackingOptions, shared with the Localizer) plus the
// fields only map updating reads.
struct TrackerOptions : TrackingOptions {
  KeyframeOptions keyframe;
  // Asynchronous local-mapping backend (keyframe graph + windowed BA);
  // disabled by default — the frontend is then bit-identical to a
  // backend-less build.  Per-session when threaded through
  // server/SessionConfig::tracker.
  backend::BackendOptions backend;
  // Unified map-point lifecycle policy (age prune + BA cull/fuse); the one
  // owner of every point-removal decision.  Active regardless of the
  // backend switch (age pruning predates the backend); the BA evidence
  // passes only run when backend jobs run.  See backend/map_lifecycle.h.
  backend::MapLifecycleOptions lifecycle;
  double depth_factor = 5000.0;  // TUM: depth_png / 5000 = metres
};

// Stage-decomposed tracker.  Threading contract (matching the paper's
// hardware split): extract() and match() form the FPGA lane; the three
// estimate_pose() / optimize_pose() / update_map() stages form the ARM
// lane and must run serially in frame order.  begin_frame() must be
// called from the lane that feeds extract().  match() of frame N+1 may
// run concurrently with ARM stages of frame N — it borrows the map's
// current published MapReadView wait-free (no lock shared with
// update_map()'s structural writes; see slam/map_view.h) and records the
// view's epoch so the caller can detect and replay a match invalidated by
// a key frame.  Only a frame the relocalization tier can engage takes a
// lock (graph_mutex_, shared, for its whole match) — that tier reads the
// keyframe graph + recognition index, which have no published-view
// equivalent.
class Tracker {
 public:
  Tracker(const PinholeCamera& camera, std::unique_ptr<FeatureBackend> backend,
          const TrackerOptions& options = {});

  // Synchronous composition of the five stages (the sequential platform):
  // the library's sequential entry point,
  //   Tracker tracker(camera, make_feature_backend(config), options);
  //   for (const FrameInput& f : frames) results.push_back(tracker.process(f));
  // with make_feature_backend() from accel/backend_factory.h.
  TrackResult process(const FrameInput& frame);

  // --- pipeline stage API -------------------------------------------------
  // Assigns the next frame index and wraps the input.  The returned shell
  // comes from the recycling pool when one is available: its vectors keep
  // their capacity and its arena is reset, so a steady-state frame reuses
  // last frame's memory instead of allocating.
  FrameState begin_frame(FrameInput frame);
  // Returns a retired frame's shell to the pool (capacities intact) for
  // begin_frame() to hand out again.  Optional — a dropped FrameState just
  // frees its memory — but required for the zero-allocation steady state.
  void recycle_frame(FrameState&& fs);
  // Feature extraction (FPGA in the paper).  No tracker state touched.
  void extract(FrameState& fs);
  // Feature matching against the current map (FPGA in the paper).  Safe to
  // call concurrently with ARM stages of an earlier frame; re-entrant for
  // the same frame (a replay discards the previous matches).
  //
  // TrackingCore::match()'s tier ladder, fed with what this tracker
  // publishes: the projection gate's prior is the slot update_map of frame
  // N-2 published for frame N — deliberately one frame staler than the
  // motion model so it exists before the device lane matches frame N
  // speculatively, and identical in sequential and pipelined execution —
  // and the recognition tier may engage only once that slot reports
  // RelocOptions::min_lost_frames consecutive lost retirements with the
  // backend on (the keyframe graph is its data).
  void match(FrameState& fs);
  // PnP + RANSAC from the motion prior (ARM).  Decides bootstrap/lost.
  void estimate_pose(FrameState& fs);
  // LM refinement on the RANSAC inliers (ARM).
  void optimize_pose(FrameState& fs);
  // Map bookkeeping + key-frame map update + commit: advances the motion
  // model and returns the final result.  The tracker keeps no per-frame
  // record; the caller owns what it returns.  This is the only stage that
  // structurally mutates the map.
  TrackResult update_map(FrameState& fs);

  // True while fs.matches are still valid against the current map (no
  // structural map change since match(fs) ran).  Only meaningful when no
  // update_map() is concurrently in flight.
  bool matches_current(const FrameState& fs) const {
    return fs.map_epoch == map_.epoch();
  }

  const Map& map() const { return map_; }
  FeatureBackend& backend() { return *backend_; }
  const PinholeCamera& camera() const { return camera_; }

  // --- local-mapping backend ---------------------------------------------
  // update_map() freezes backend jobs at a keyframe: either ONE high-
  // priority loop-verification job, or up to max_inflight_jobs routine BA
  // jobs over the covisibility-disjoint shards compute_shards() yields.
  // Jobs are independent — each owns a disjoint set of free keyframes and
  // map points (per-shard serialization across freezes: a shard whose
  // window intersects an in-flight job's is skipped until that job's
  // delta lands) — so workers may run them concurrently.  Completed
  // deltas apply at the next keyframe in job-id order; applying a loop
  // correction discards every other in-flight job (their snapshots
  // predate the correction).  See backend/local_mapper.h for the
  // protocol.
  bool backend_enabled() const { return options_.backend.enabled; }
  // What the scheduler needs to know about a frozen job to queue it: its
  // handle, and whether it is loop verification (the high-priority class).
  struct BackendJobTicket {
    int job_id = -1;
    bool loop = false;
  };
  // At least one frozen job has not been offered to a worker yet.
  bool backend_job_pending() const;
  // A worker is inside run_backend_job() right now.  The tracker must not
  // be destroyed while true (SessionHandle::close() waits).
  bool backend_busy() const;
  // Marks every unoffered ready job offered and appends its ticket —
  // the scheduler's claim step (each ticket is then queued exactly once).
  void take_backend_jobs(std::vector<BackendJobTicket>& out);
  // Returns an offered-but-unrun job to the pending pool (queue overflow:
  // the scheduler could not enqueue the ticket it took).
  void unoffer_backend_job(int job_id);
  // Executes one frozen job by id (no-op if it no longer exists).
  // Thread-safe; takes no map lock — the job runs entirely on the frozen
  // snapshot, and distinct jobs may run concurrently on distinct workers.
  void run_backend_job(int job_id);
  // Executes every ready job inline, in job-id order (the sequential
  // platform's deterministic drain).
  void run_backend_job();
  // Keyframe database + covisibility graph.  Only valid while quiescent
  // (no update_map in flight).
  const backend::KeyframeGraph& keyframe_graph() const { return kf_graph_; }
  backend::BackendStats backend_stats() const;

  // --- observability -------------------------------------------------------
  // Trace topology + resolved metric handles (obs/): registered once at
  // construction (cold), recorded into on the hot path — pure atomics and
  // preallocated-ring stores, so the zero-allocation steady-state contract
  // holds with instrumentation live.  The stage spans land on this
  // session's own trace process row ("mapping-N"), lanes split the way the
  // paper splits the hardware: device (FE/FM), ARM (PE/PO/MU), and one
  // track per backend job class.
  struct TrackerObs {
    int pid = 0;
    obs::TrackId device_track = obs::kDefaultTrack;  // FE/FM
    obs::TrackId arm_track = obs::kDefaultTrack;     // PE/PO/MU + apply
    obs::TrackId ba_track = obs::kDefaultTrack;      // routine-BA jobs
    obs::TrackId loop_track = obs::kDefaultTrack;    // loop-verify jobs
    obs::Histogram* stage_fe = nullptr;
    obs::Histogram* stage_fm = nullptr;
    obs::Histogram* stage_pe = nullptr;
    obs::Histogram* stage_po = nullptr;
    obs::Histogram* stage_mu = nullptr;  // keyframes only (others are ~0)
    obs::Histogram* backend_freeze = nullptr;
    obs::Histogram* backend_optimize_ba = nullptr;
    obs::Histogram* backend_optimize_loop = nullptr;
    obs::Histogram* backend_apply = nullptr;
  };
  const TrackerObs& observability() const { return obs_; }

 private:
  void bootstrap_map(FrameState& fs,
                     std::vector<backend::KeyframeObservation>* observations);
  // Inserts unmatched features as new map points (recording their backend
  // observations when requested), then age-prunes; returns the prune count.
  // feature_matched is a 0/1 mask over fs.features (arena-backed on the
  // hot path, hence span rather than vector<bool>).
  std::size_t insert_map_points(
      const FrameState& fs, std::span<const std::uint8_t> feature_matched,
      const SE3& pose_wc,
      std::vector<backend::KeyframeObservation>* observations);
  // Pops a recycled frame shell (or default-constructs one) and resets its
  // per-frame state: vectors cleared capacity-intact, arena reset.
  FrameState acquire_frame();
  // Applies every completed backend delta in job-id order (one structural
  // map write + view publish + epoch bump each; loop corrections also
  // rebase the keyframe graph).  Caller holds the exclusive graph lock.
  void apply_pending_backend_deltas(FrameState& fs);
  // Graph + recognition-index insertion for a retired keyframe (caller
  // holds the exclusive graph lock — the device lane's reloc tier reads
  // both under the shared one).  Returns the new keyframe's graph id.
  int backend_insert_keyframe(
      const FrameState& fs,
      std::vector<backend::KeyframeObservation> observations);
  // Loop detection + job-snapshot freezing for the keyframe just
  // inserted: one loop job, or the shard decomposition's BA jobs up to
  // the in-flight budget.  Read-only over map/graph/index, so it runs
  // *outside* the exclusive lock (this stage is their sole writer) — a
  // keyframe must not stall every session's matching on the shared device
  // lane.
  void backend_freeze_jobs(int kf_id, const FrameState& fs);
  // Depth unprojection at pixel (u, v): camera-frame 3D, or nullopt on a
  // sensor hole / out-of-range depth.  World position = pose_wc * result.
  std::optional<Vec3> camera_point_from_depth(const FrameInput& frame,
                                              double u, double v) const;

  // --- gate prior publication --------------------------------------------
  // update_map() of frame N publishes the matching gate's prior pose for
  // frame N+2 (a double-step constant-velocity extrapolation, or invalid
  // after a loss).  Keying the prior of frame N to the retirement of
  // frame N-2 makes it available before the pipeline runtime's
  // *speculative* match of frame N (frame N-2 has always retired by then)
  // and makes sequential and pipelined matching read the identical value,
  // at the cost of a one-frame-staler prediction — which the gate's
  // search window absorbs.
  void publish_gate_prior(const FrameState& fs);
  // What the slot says about this frame: a usable prior pose, or the
  // explicit "the publishing frame was lost" signal that routes match()
  // into the relocalization tier.
  struct GatePrior {
    std::optional<SE3> pose_cw;
    bool lost = false;
    int lost_streak = 0;  // consecutive lost retirements at publication
  };
  GatePrior gate_prior_for(int frame_index) const;

  PinholeCamera camera_;
  std::unique_ptr<FeatureBackend> backend_;
  TrackerOptions options_;
  // FE/FM/PE/PO and the motion model.  Its match() reads only the gate
  // prior handed to it, never the motion state update_map() advances.
  TrackingCore core_;
  Map map_;
  KeyframePolicy keyframe_policy_;
  int lost_streak_ = 0;     // consecutive lost retirements (reloc gating)
  int next_index_ = 0;      // assigned by begin_frame (feed order)
  // Retired frame shells awaiting reuse (begin_frame pops, recycle_frame
  // pushes).  Own mutex: the pipeline runtime recycles from the ARM lane
  // while the device lane begins the next frame.
  std::vector<FrameState> frame_pool_;
  std::mutex frame_pool_mutex_;
  static constexpr std::size_t kFramePoolCap = 16;
  // Guards the keyframe graph + recognition index ONLY.  The map itself
  // needs no reader lock anymore — match() borrows an immutable published
  // MapReadView — but the graph/index pair has no versioned-view
  // equivalent, so a frame the relocalization tier can engage (rare:
  // persistently lost) still takes this shared against update_map()'s
  // keyframe insertion and loop-rebase writes.  Steady-state tracked
  // frames never touch it.
  mutable std::shared_mutex graph_mutex_;

  // Gate prior slots (see publish_gate_prior): a two-deep ring keyed by
  // target frame index, written by update_map() (ARM lane) and read by
  // match() (device lane).  Published as a seqlock so the device lane's
  // per-frame read is wait-free against the writer: the writer makes the
  // sequence odd, stores the payload (all relaxed atomics — a speculative
  // match CAN overlap the store, e.g. match(f+2) racing update_map(f)
  // before the device lane observes the new retired_through), and closes
  // with an even sequence; a reader retries until it gets a stable even
  // sequence around its loads.  Same frozen-prior semantics and values as
  // the old mutex'd slot — covered by the bit-identity tests.
  struct GatePriorSlot {
    std::atomic<std::uint32_t> seq{0};  // odd = write in progress
    std::atomic<std::int64_t> for_frame{-1};
    // SE3 payload: rotation (9, Mat3::data() order) then translation (3).
    std::array<std::atomic<double>, 12> pose_cw{};
    std::atomic<std::int32_t> valid{0};
    std::atomic<std::int32_t> lost_streak{0};  // see GatePrior
  };
  GatePriorSlot gate_prior_[2];

  // --- local-mapping backend state ---------------------------------------
  // The graph and recognition index are mutated only by update_map() (the
  // single map-writing stage) *inside the exclusive graph lock*, and read
  // by match()'s relocalization tier on the device lane under the shared
  // one — graph_mutex_ is their reader/writer guard (the map itself is
  // read through published views and needs none).  The job table below is
  // the tracker/worker handshake and lives under backend_mutex_.
  backend::KeyframeGraph kf_graph_;
  backend::KeyframeIndex kf_index_;
  // Loop-closure detection cooldown: suppressed until this frame index
  // (set when a correction applies; the corrected map needs new keyframes
  // before a second detection means anything).
  int loop_cooldown_until_ = 0;
  // One frozen backend job.  Lifecycle: kReady (snapshot frozen, maybe
  // offered to a scheduler queue) -> kRunning (a worker owns the moved-out
  // snapshot) -> kDone (delta ready; applied + erased at the next
  // keyframe, in id order).  `claimed_kfs` / `owned_points` are the job's
  // exclusive write set — what later freezes must not hand to another
  // concurrent job, and what the applied delta is checked against.
  // `discarded` flags a running job invalidated by an applied loop
  // correction; its worker erases it on completion instead of publishing
  // the delta.
  struct BackendJob {
    int id = 0;
    bool loop = false;
    int shard = 0;
    enum class State { kReady, kRunning, kDone };
    State state = State::kReady;
    bool offered = false;
    bool discarded = false;
    backend::BackendSnapshot snapshot;  // valid in kReady
    backend::BackendDelta delta;        // valid in kDone
    std::vector<int> claimed_kfs;             // free keyframes (post-demote)
    std::vector<std::int64_t> owned_points;   // sorted ascending
  };
  mutable std::mutex backend_mutex_;
  std::vector<BackendJob> backend_jobs_;  // ascending id
  int next_backend_job_id_ = 0;
  backend::BackendStats backend_stats_;

  // --- observability handles (see TrackerObs) ------------------------------
  TrackerObs obs_;
  // Cross-thread-folded rollups, registry atomics (see obs/metrics.h).
  obs::Counter* frames_retired_total_ = nullptr;
  obs::Counter* keyframes_total_ = nullptr;
  obs::Counter* points_pruned_total_ = nullptr;
  obs::Counter* points_culled_total_ = nullptr;
  obs::Counter* points_fused_total_ = nullptr;
  obs::Counter* reloc_attempts_total_ = nullptr;
  obs::Counter* reloc_successes_total_ = nullptr;
  obs::Counter* loops_closed_total_ = nullptr;
  // Times a device-lane read path had to *wait* on a lock a map writer
  // could hold.  With the view read path this only counts reloc-tier
  // graph-lock contention — ~0 in steady state, gated in the
  // multi-session bench.
  obs::Counter* map_reader_stalls_total_ = nullptr;
};

}  // namespace eslam
