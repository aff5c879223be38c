// Asynchronous local-mapping backend: snapshot -> optimize -> delta ->
// apply, sharded.
//
// The backend never touches live tracker state while optimizing.  At a
// key frame, the tracker (inside update_map, the one map-writing stage)
// decomposes the optimization work into **shards** — covisibility-
// disjoint keyframe windows computed from the KeyframeGraph — and
// freezes each eligible shard as an independent BackendSnapshot: a
// frozen copy of that window plus the map points it observes.  Workers
// (the scheduler's background lane, or inline in sequential mode) run
// each job via optimize_snapshot(), which performs windowed bundle
// adjustment (local_ba.h) on the copy and derives a BackendDelta:
// refined keyframe poses, refined point positions, and the ids of points
// to cull or fuse (the lifecycle policy's evidence passes, see
// backend/map_lifecycle.h).  The tracker applies every completed delta
// at the *next* key frame under the map's structural-epoch rules:
// apply_delta() mutates the map in one step and bumps its epoch exactly
// once per delta, so a speculative feature match that read the pre-apply
// map replays by the existing rule — pipelined semantics need no new
// invariants.  Points matched after the snapshot was taken are never
// removed by a stale delta (fresh evidence wins); position refinements
// still apply (they carry their own, newer, evidence).
//
// Why concurrent shard deltas compose: two shards from one decomposition
// have disjoint free-keyframe sets with no covisibility edge between
// them (compute_shards), and every map point is *owned* by at most one
// in-flight job — a point an earlier shard (or an in-flight job) already
// claimed enters a later snapshot as a fixed landmark (it still
// constrains the window poses) but is excluded from that job's moves,
// culls and fuses.  Deltas from concurrently running jobs therefore
// write disjoint keyframe-pose and point-id sets, so applying them in
// any order yields the same map — Map::apply_update needs no new
// synchronization, just one structural write per delta.
//
// Job classes: routine shard BA is throughput work; loop-verification
// jobs (detect_loop_candidate + build_loop_snapshot) are a distinct
// high-priority class — the scheduler's background lane pops them first
// (runtime/backend_queue.h) because every frame a verified-able loop
// waits, the session tracks on — and extends — a drifted map.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "backend/keyframe_graph.h"
#include "backend/keyframe_index.h"
#include "backend/local_ba.h"
#include "backend/map_lifecycle.h"
#include "backend/pose_graph.h"
#include "features/descriptor.h"
#include "features/matcher.h"
#include "geometry/camera.h"
#include "slam/map.h"
#include "slam/ransac.h"

namespace eslam::backend {

// Loop-closure policy: detection thresholds (over the keyframe-recognition
// index), geometric verification (the tracker's own RANSAC/P3P machinery)
// and the pose-graph correction.  Rides the same per-session backend job
// slot as windowed BA — a detected loop freezes a loop job instead of a BA
// job at that keyframe, and its delta applies through the identical
// snapshot -> delta -> epoch-bump protocol.
struct LoopOptions {
  LoopOptions() {
    // Verification is prior-free P3P over a revisit candidate: spend real
    // RANSAC budget (adaptive termination exits early on true revisits)
    // and tolerate the pixel quantization of wide-baseline re-detections.
    ransac.max_iterations = 512;
    ransac.inlier_threshold_px = 5.0;
  }

  // Master switch.  Off, keyframes are still indexed (relocalization uses
  // the index) but no loop jobs are ever frozen.
  bool enabled = false;
  // Detection engages only once the graph holds this many keyframes.
  int min_keyframes = 10;
  // A candidate must be at least this many *frames* (not keyframes) older
  // than the querying keyframe: revisits are loop closures, the recent
  // past is just tracking.
  int min_frame_gap = 90;
  // Frames to wait after an applied correction before detecting again
  // (the corrected map needs fresh keyframes before a second loop means
  // anything).
  int cooldown_frames = 120;
  // Ranked index hits to consider per keyframe.
  int max_candidates = 3;
  // Index-score floor (scores are query-relative; this only rejects
  // near-zero noise), and the self-calibrating relative gate: a candidate
  // must score at least this ratio of the best *recent-view* score in the
  // same query.  While tracking, recent keyframes always top the ranking
  // and — on repetitive texture — unrelated old keyframes trail them by
  // only a few percent, so the ratio sits above 1: a candidate must
  // strictly OUTRANK every recent view, which is the one thing only a
  // genuine revisit does (observed margins ~1.2-1.3x at true revisits,
  // ~0.95x for aliased false hits).
  double min_score = 0.02;
  double covis_score_ratio = 1.05;
  // Candidate keyframe + its top covisible neighbours form the 3D side of
  // the verification match.
  int neighbourhood = 5;
  // P3P/RANSAC consensus required to accept the revisit.  High on
  // purpose: a false loop deforms the whole map, and genuine revisits on
  // the workloads this runs on produce hundreds of inliers.
  int min_inliers = 50;
  // Plausibility bound on the correction: the live end may not move
  // farther than the drift a session can plausibly accumulate.  On
  // repetitive texture a wrong-place P3P consensus can be large; a
  // correction bigger than this is treated as failed verification.
  double max_correction_m = 2.0;
  // Pose-graph edge weights: covisibility edges carry their shared-point
  // count, consecutive keyframes without one get this odometry weight,
  // and the loop edge carries scale * inliers.
  double odometry_edge_weight = 20.0;
  double loop_edge_weight_scale = 1.0;
  // Verification matching is stricter than tracking: the cost of a false
  // loop (a map-wide deformation) dwarfs the cost of a missed one.
  MatcherOptions matcher{/*max_distance=*/64, /*ratio=*/0.85,
                         /*cross_check=*/true};
  RansacOptions ransac;  // use_p3p is forced on; min_inliers from above
  PnpOptions refine{/*max_iterations=*/15, /*initial_lambda=*/1e-4,
                    /*huber_delta=*/2.5, /*convergence_step=*/1e-8};
  PoseGraphOptions pose_graph;
};

struct BackendOptions {
  // Master switch.  Disabled, the tracker maintains no graph, schedules
  // no jobs, and its output is bit-identical to a backend-less build.
  bool enabled = false;
  // Free keyframes in the BA window (latest + top covisible).
  int window_size = 5;
  // Out-of-window keyframes held fixed to anchor the gauge (at least two
  // poses are always fixed — see local_ba.h).
  int max_fixed_anchors = 4;
  // Points observed fewer times than this in the problem keep their
  // position (their residuals still constrain the window poses).
  int min_observations = 2;
  // Run the first BA only once the graph holds this many keyframes.
  int min_keyframes = 3;
  BaOptions ba;
  KeyframeGraphOptions graph;
  // --- sharded execution --------------------------------------------------
  // Upper bound on covisibility-disjoint shards per decomposition (shard 0
  // is always the local window around the latest keyframe; further shards
  // are disconnected covisibility components, newest first).  1 restores
  // the old single-window backend.
  int max_shards = 4;
  // Upper bound on jobs in flight per tracker (frozen, queued, running or
  // delta-ready).  A keyframe whose decomposition would exceed this skips
  // the excess shards; they get their turn at a later keyframe.
  int max_inflight_jobs = 3;
  // NOTE: the map-maintenance passes (age prune, BA cull/fuse) that used
  // to be split between Map::prune and fields here now live in ONE place:
  // MapLifecycleOptions (backend/map_lifecycle.h), owned by the tracker
  // and threaded into optimize_snapshot() explicitly.
  // --- loop closure (opt-in) ----------------------------------------------
  LoopOptions loop;
};

// One backend work shard: a covisibility-disjoint window of free
// keyframes plus the fixed anchors that pin its gauge.  Shards from one
// compute_shards() call never share a free keyframe and never have a
// covisibility edge between their free sets (anchors may be shared —
// they are read-only poses).
struct BackendShard {
  std::vector<int> window_kfs;  // free keyframes, newest first
  std::vector<int> fixed_kfs;   // gauge anchors (poses held fixed)
};

// Frozen input of one loop-closure job: the 2D side (the querying
// keyframe's observations), the 3D side (the candidate neighbourhood's
// live map points), the full pose graph, and the point-ownership table the
// correction retransforms points with.  Everything is copied at freeze
// time — like the BA snapshot, the job never touches live tracker state.
struct LoopJobSnapshot {
  int query_kf = -1;      // graph id of the keyframe that queried (latest)
  int candidate_kf = -1;  // recognized revisit candidate
  // 2D: pixels + frame-side descriptors of the query keyframe.
  std::vector<Vec2> query_pixels;
  std::vector<Descriptor256> query_descriptors;
  // 3D: the candidate neighbourhood's own observations — frame-side
  // descriptors, and positions lifted from each observation's depth
  // unprojection (pose_wc * point_cam), deliberately NOT the live map:
  // verification must survive pruning and must see the drift-consistent
  // old geometry.
  std::vector<Vec3> candidate_positions;
  std::vector<Descriptor256> candidate_descriptors;
  // Pose graph over every stored keyframe, ascending graph id.
  std::vector<int> kf_ids;
  std::vector<SE3> kf_poses;           // pose_cw at freeze
  std::vector<PoseGraphEdge> edges;    // covisibility + odometry edges
  // Point ownership: each live map point observed by a stored keyframe,
  // owned by its *newest* observer — the correction moves the point with
  // its owner's frame.  Points nobody stored observes (owner evicted) stay
  // put, which is right: they belong to the old, gauge-fixed end.
  std::vector<std::int64_t> owned_point_ids;
  std::vector<int> owner_kf_index;     // index into kf_ids
  std::vector<Vec3> owned_positions;   // position at freeze
  // Points with id > this were created after the freeze and ride the
  // live-end correction (loop_adjust) at apply time.
  std::int64_t max_point_id = -1;
};

// Frozen input of one backend job.
struct BackendSnapshot {
  std::uint64_t map_epoch = 0;  // epoch the copy was taken under
  int snapshot_frame = 0;       // frame index of the triggering keyframe
  int shard_id = 0;             // ordinal within its decomposition
  std::vector<int> window_kfs;  // free keyframe ids (graph ids)
  std::vector<int> fixed_kfs;   // anchor keyframe ids
  BaProblem problem;            // poses = window_kfs ++ fixed_kfs order
  // Aligned with problem.points:
  std::vector<std::int64_t> point_ids;
  std::vector<Descriptor256> point_descriptors;
  std::vector<int> point_match_counts;  // fusion keeps the proven member
  // Ownership mask aligned with point_ids: 1 = this job may move / cull /
  // fuse the point, 0 = another in-flight job owns it (the point is a
  // fixed landmark here).  Empty = the job owns every point (a lone
  // un-sharded snapshot).  This is what makes concurrent shard deltas
  // commute at apply time.
  std::vector<std::uint8_t> point_owned;
  // Set for loop-closure jobs (the BA fields above are then unused): the
  // job verifies the revisit and solves the pose graph instead of running
  // windowed BA.  One job slot serves both kinds, so the per-session
  // serialization and the apply protocol are shared by construction.
  std::optional<LoopJobSnapshot> loop;
};

// Output of one backend job, applied at the next keyframe.
struct BackendDelta {
  std::uint64_t map_epoch = 0;  // snapshot epoch (diagnostic)
  int snapshot_frame = 0;
  int shard_id = 0;             // the producing snapshot's shard ordinal
  std::vector<std::pair<int, SE3>> keyframe_poses;  // graph id -> refined
  std::vector<std::pair<std::int64_t, Vec3>> point_positions;
  std::vector<std::int64_t> culled_ids;  // bad geometry (sorted)
  std::vector<std::int64_t> fused_ids;   // redundant duplicates (sorted)
  BaResult ba;
  double optimize_ms = 0;  // whole-job wall time on the worker
  // --- loop closure ------------------------------------------------------
  bool loop_job = false;      // the delta came from a loop-detection job
  bool loop_closed = false;   // verification + pose graph succeeded
  int loop_query_kf = -1;
  int loop_match_kf = -1;
  int loop_inliers = 0;
  // World-frame correction at the live end (the query keyframe):
  // p_new = loop_adjust * p_old for everything riding the newest pose —
  // post-freeze points at apply time, and the tracker's own pose state.
  SE3 loop_adjust;
  std::int64_t loop_max_point_id = -1;
  PoseGraphResult pose_graph;
};

// What applying a delta actually changed (stale entries are skipped).
struct ApplyOutcome {
  int points_moved = 0;
  int points_culled = 0;
  int points_fused = 0;
  int keyframes_updated = 0;
  bool map_changed = false;  // epoch was bumped
  // A loop correction landed: the caller must rebase its own pose state
  // (motion model, keyframe-policy reference) by loop_adjust too, or the
  // next frames track against a map that moved out from under them.
  bool loop_applied = false;
  SE3 loop_adjust;
};

// Cumulative per-tracker backend counters (exported via Tracker and, per
// session, via server/SlamService).
struct BackendStats {
  int keyframes_inserted = 0;
  int jobs_run = 0;
  int deltas_applied = 0;
  // --- sharded execution (per-class / per-shard visibility) --------------
  int ba_jobs_run = 0;        // routine shard-BA jobs (jobs_run minus loop)
  int loop_jobs_run = 0;      // loop-verification jobs
  int freeze_events = 0;      // keyframes that computed a decomposition
  long long shard_jobs_frozen = 0;  // BA jobs frozen across all freezes
  int max_shards_seen = 0;     // largest decomposition observed
  int max_inflight_jobs_seen = 0;  // high-water of jobs in flight at once
  long long points_moved = 0;
  long long points_culled = 0;
  long long points_fused = 0;
  int total_ba_iterations = 0;
  double total_optimize_ms = 0;
  double last_ba_initial_cost = 0;
  double last_ba_final_cost = 0;
  // --- loop closure ------------------------------------------------------
  int loops_detected = 0;   // index candidates that froze a loop job
  int loops_verified = 0;   // ...that survived P3P + pose-graph
  int loops_rejected = 0;   // ...that did not (no map change)
  int loops_applied = 0;    // corrections folded into the live map
  int last_loop_inliers = 0;
  double last_loop_correction_m = 0;  // |translation| of loop_adjust
  int total_pose_graph_iterations = 0;
};

// Decomposes the stored keyframes into covisibility-disjoint BA shards.
// Shard 0 is the local window around the latest keyframe (plus its
// anchors); every keyframe covisible with that window is then off-limits,
// and the remaining keyframes split into connected covisibility
// components, newest seed first, each yielding one shard (free window =
// its newest window_size members, the rest become anchors).  Components
// too small to pin a gauge (< 3 keyframes) are skipped.  Deterministic:
// same graph, same shards.  Returns an empty vector while the graph is
// below min_keyframes.
std::vector<BackendShard> compute_shards(const KeyframeGraph& graph,
                                         const BackendOptions& options);

// Builds the frozen BA problem for one shard.  `claimed_points` (sorted
// ascending) lists map points already owned by other in-flight jobs —
// they enter the problem as fixed landmarks with point_owned = 0.  Must
// be called from the map-writing stage (no structural map mutation may
// run concurrently).  Returns false when the shard cannot form a
// well-anchored problem.
bool build_shard_snapshot(const KeyframeGraph& graph, const Map& map,
                          const PinholeCamera& camera,
                          const BackendOptions& options,
                          const BackendShard& shard, int shard_id,
                          int snapshot_frame,
                          std::span<const std::int64_t> claimed_points,
                          BackendSnapshot& out);

// Single-window convenience used by tests and the sequential examples:
// shard 0 of the decomposition with every point owned.  Returns false
// when the graph is still too small.
bool build_snapshot(const KeyframeGraph& graph, const Map& map,
                    const PinholeCamera& camera, const BackendOptions& options,
                    int snapshot_frame, BackendSnapshot& out);

// Detection: ranks the querying keyframe's index hits and applies the
// LoopOptions gates (frame gap, covisibility exclusion, absolute + covis-
// relative score).  Returns the accepted candidate's graph id, or -1.
// Must run from the map-writing stage (reads graph + index).
int detect_loop_candidate(const KeyframeGraph& graph,
                          const KeyframeIndex& index, int query_kf,
                          const LoopOptions& options);

// Builds the frozen loop-closure job for query_kf (the latest keyframe)
// against candidate_kf.  Same calling context as build_snapshot.  Returns
// false when the candidate neighbourhood holds no live points.
bool build_loop_snapshot(const KeyframeGraph& graph, const Map& map,
                         const PinholeCamera& camera,
                         const BackendOptions& options, int query_kf,
                         int candidate_kf, int snapshot_frame,
                         BackendSnapshot& out);

// Pure function of the snapshot — safe on any thread, takes no locks.
// `lifecycle` supplies the post-BA evidence passes (cull / fuse / trust
// region); pass a default-constructed MapLifecycleOptions with
// enabled=false to optimize without removing anything.
BackendDelta optimize_snapshot(BackendSnapshot snapshot,
                               const BackendOptions& options,
                               const MapLifecycleOptions& lifecycle);

// Applies a delta to the live map + graph: one structural map update, one
// epoch bump, one published MapReadView (when anything changed — moves
// clone only the position block, removals rebuild; see slam/map_view.h).
// Must be called from the map-writing stage; graph mutations (loop
// rebases) additionally require the tracker's exclusive graph lock, while
// device-lane map readers continue wait-free on their borrowed views.
ApplyOutcome apply_delta(const BackendDelta& delta, Map& map,
                         KeyframeGraph& graph);

}  // namespace eslam::backend
