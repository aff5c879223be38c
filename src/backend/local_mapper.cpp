#include "backend/local_mapper.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "geometry/assert.h"
#include "geometry/wall_timer.h"

namespace eslam::backend {

int detect_loop_candidate(const KeyframeGraph& graph,
                          const KeyframeIndex& index, int query_kf,
                          const LoopOptions& options) {
  if (static_cast<int>(graph.size()) < options.min_keyframes) return -1;
  const Keyframe& query = graph.keyframe(query_kf);
  if (query.observations.empty()) return -1;

  std::vector<Descriptor256> descriptors;
  descriptors.reserve(query.observations.size());
  for (const KeyframeObservation& obs : query.observations)
    descriptors.push_back(obs.descriptor);
  // Rank enough hits to see past the query itself and its recent
  // neighbours (which legitimately dominate the scores while tracking).
  const int depth = options.max_candidates + 2 +
                    static_cast<int>(graph.neighbors(query_kf).size());
  const std::vector<KeyframeScore> ranked = index.query(descriptors, depth);

  // Self-calibrating gate: while tracking normally, the best-scoring
  // keyframes are always the *recent* ones (they share the current view).
  // A genuine revisit is the one situation where an OLD, non-covisible
  // keyframe climbs to the top of the ranking — so a candidate must score
  // at least covis_score_ratio of the best recent-view score in the same
  // query.  Index scores are only comparable within one query, which is
  // exactly what this uses.
  double best_recent = -1.0;
  for (const KeyframeScore& s : ranked) {
    if (s.keyframe_id == query_kf) continue;
    const bool recent =
        graph.covisibility_weight(query_kf, s.keyframe_id) > 0 ||
        query.frame_index - graph.keyframe(s.keyframe_id).frame_index <
            options.min_frame_gap;
    if (recent && s.score > best_recent) best_recent = s.score;
  }

  int considered = 0;
  for (const KeyframeScore& s : ranked) {
    if (s.keyframe_id == query_kf) continue;
    if (graph.covisibility_weight(query_kf, s.keyframe_id) > 0) continue;
    const Keyframe& candidate = graph.keyframe(s.keyframe_id);
    if (query.frame_index - candidate.frame_index < options.min_frame_gap)
      continue;
    if (considered++ >= options.max_candidates) break;
    if (s.score < options.min_score) continue;
    if (best_recent > 0 && s.score < options.covis_score_ratio * best_recent)
      continue;
    // Appearance says "same place, long ago".  Geometry (P3P/RANSAC in
    // the loop job) has the final word — this gate only has to keep the
    // candidate rate low enough that wasted verification jobs are rare.
    return s.keyframe_id;
  }
  return -1;
}

bool build_loop_snapshot(const KeyframeGraph& graph, const Map& map,
                         const PinholeCamera& camera,
                         const BackendOptions& options, int query_kf,
                         int candidate_kf, int snapshot_frame,
                         BackendSnapshot& out) {
  out = BackendSnapshot{};
  out.map_epoch = map.epoch();
  out.snapshot_frame = snapshot_frame;
  out.problem.camera = camera;
  LoopJobSnapshot loop;
  loop.query_kf = query_kf;
  loop.candidate_kf = candidate_kf;

  // 2D side: the query keyframe's own observations.
  const Keyframe& query = graph.keyframe(query_kf);
  loop.query_pixels.reserve(query.observations.size());
  loop.query_descriptors.reserve(query.observations.size());
  for (const KeyframeObservation& obs : query.observations) {
    loop.query_pixels.push_back(obs.pixel);
    loop.query_descriptors.push_back(obs.descriptor);
  }

  // 3D side: the candidate's local place (itself + top covisible
  // neighbours — the same neighbourhood relocalization matches against).
  const std::vector<int> hood =
      graph.neighbourhood(candidate_kf, options.loop.neighbourhood);
  // The 3D side comes from the keyframes' own depth observations
  // (pose_wc * point_cam), not the live map: verification must work even
  // after the revisited region's points were pruned from the active map,
  // and must see the *drift-consistent* old geometry, not positions a
  // later BA delta may have dragged.  Same substrate relocalization
  // matches against (KeyframeGraph::place_observations).
  for (const KeyframeGraph::PlaceObservation& obs :
       graph.place_observations(hood)) {
    loop.candidate_positions.push_back(obs.position_w);
    loop.candidate_descriptors.push_back(obs.descriptor);
  }
  if (loop.candidate_positions.empty()) return false;

  // Pose graph over every stored keyframe, ascending id.
  const int first = graph.first_live_id();
  const int count = static_cast<int>(graph.size());
  loop.kf_ids.reserve(static_cast<std::size_t>(count));
  loop.kf_poses.reserve(static_cast<std::size_t>(count));
  for (int id = first; id < first + count; ++id) {
    loop.kf_ids.push_back(id);
    loop.kf_poses.push_back(graph.keyframe(id).pose_cw);
  }
  const auto kf_index = [&](int id) { return id - first; };
  // Covisibility edges (each pair once), measured from the freeze poses —
  // PGO then preserves the locally-consistent shape while the loop edge
  // pulls the global arrangement closed.
  for (int id = first; id < first + count; ++id) {
    for (const CovisEdge& e : graph.neighbors(id)) {
      if (e.keyframe_id <= id) continue;
      loop.edges.push_back(
          {kf_index(id), kf_index(e.keyframe_id),
           loop.kf_poses[static_cast<std::size_t>(kf_index(id))] *
               loop.kf_poses[static_cast<std::size_t>(kf_index(e.keyframe_id))]
                   .inverse(),
           static_cast<double>(e.weight)});
    }
    // Consecutive keyframes always share an odometry edge, so sparsely
    // covisible stretches cannot disconnect the graph from its anchor.
    if (id + 1 < first + count &&
        graph.covisibility_weight(id, id + 1) <= 0) {
      loop.edges.push_back(
          {kf_index(id), kf_index(id + 1),
           loop.kf_poses[static_cast<std::size_t>(kf_index(id))] *
               loop.kf_poses[static_cast<std::size_t>(kf_index(id + 1))]
                   .inverse(),
           options.loop.odometry_edge_weight});
    }
  }

  // Ownership: newest stored observer wins (ascending scan overwrites).
  std::unordered_map<std::int64_t, int> owner;
  for (int id = first; id < first + count; ++id)
    for (const KeyframeObservation& obs : graph.keyframe(id).observations)
      owner[obs.point_id] = kf_index(id);
  std::vector<std::int64_t> owned;
  owned.reserve(owner.size());
  for (const auto& [pid, kf] : owner) owned.push_back(pid);
  std::sort(owned.begin(), owned.end());
  for (const std::int64_t pid : owned) {
    const auto idx = map.index_of(pid);
    if (!idx) continue;
    loop.owned_point_ids.push_back(pid);
    loop.owner_kf_index.push_back(owner[pid]);
    loop.owned_positions.push_back(map.point(*idx).position);
  }
  loop.max_point_id = map.empty() ? -1 : map.points().back().id;

  out.loop = std::move(loop);
  return true;
}

namespace {

// The loop-closure job: verify the revisit with prior-free P3P/RANSAC,
// close the pose graph, and derive the correction delta (corrected
// keyframe poses + retransformed points).  Pure function of the snapshot,
// like the BA path.
void optimize_loop(const BackendSnapshot& snapshot,
                   const BackendOptions& options, BackendDelta& delta) {
  const LoopJobSnapshot& loop = *snapshot.loop;
  delta.loop_job = true;
  delta.loop_query_kf = loop.query_kf;
  delta.loop_match_kf = loop.candidate_kf;
  delta.loop_max_point_id = loop.max_point_id;

  // 1. Appearance: match the query keyframe's frame-side descriptors
  //    against the candidate neighbourhood's map points.
  std::vector<Match> matches;
  match_descriptors_into(loop.query_descriptors,
                         TrainView{loop.candidate_descriptors, nullptr},
                         options.loop.matcher, nullptr, matches);
  if (static_cast<int>(matches.size()) < options.loop.min_inliers) return;

  // 2. Geometry: prior-free P3P RANSAC — the same machinery tracking uses
  //    for relocalization, so a verified loop is exactly "this keyframe
  //    relocalizes against the candidate's neighbourhood".
  std::vector<Correspondence> correspondences;
  correspondences.reserve(matches.size());
  for (const Match& m : matches)
    correspondences.push_back(
        {loop.candidate_positions[static_cast<std::size_t>(m.train)],
         loop.query_pixels[static_cast<std::size_t>(m.query)]});
  RansacOptions ransac = options.loop.ransac;
  ransac.use_p3p = true;
  ransac.min_inliers = options.loop.min_inliers;
  const RansacResult consensus = ransac_pnp(
      correspondences, snapshot.problem.camera, SE3{}, ransac);
  delta.loop_inliers = static_cast<int>(consensus.inliers.size());
  if (!consensus.success || delta.loop_inliers < options.loop.min_inliers)
    return;
  std::vector<Correspondence> inlier_set;
  inlier_set.reserve(consensus.inliers.size());
  for (const int idx : consensus.inliers)
    inlier_set.push_back(correspondences[static_cast<std::size_t>(idx)]);
  const PnpResult polished = solve_pnp(inlier_set, snapshot.problem.camera,
                                       consensus.pose, options.loop.refine);
  const auto index_of_kf = [&](int id) {
    return static_cast<int>(
        std::lower_bound(loop.kf_ids.begin(), loop.kf_ids.end(), id) -
        loop.kf_ids.begin());
  };
  // Correction plausibility (see LoopOptions::max_correction_m): the
  // verified pose implies the live end moves by this much; a jump beyond
  // plausible drift is an aliased consensus, not a loop.
  const Vec3 implied_centre = polished.pose.inverse().translation();
  const Vec3 stored_centre =
      loop.kf_poses[static_cast<std::size_t>(index_of_kf(loop.query_kf))]
          .inverse()
          .translation();
  const double correction = (implied_centre - stored_centre).norm();
  // Accept only when provably plausible: a NaN pose must fail this gate.
  if (options.loop.max_correction_m > 0 &&
      !(correction <= options.loop.max_correction_m))
    return;

  // 3. Pose graph: covisibility + odometry edges from the snapshot, plus
  //    the verified loop edge; gauge fixed at the oldest stored keyframe
  //    so drift is pushed out of the live end, not into the old map.
  PoseGraphProblem pg;
  pg.poses = loop.kf_poses;
  pg.fixed.assign(pg.poses.size(), false);
  pg.fixed.front() = true;
  pg.edges = loop.edges;
  const int qi = index_of_kf(loop.query_kf);
  const int ci = index_of_kf(loop.candidate_kf);
  pg.edges.push_back(
      {qi, ci,
       polished.pose * loop.kf_poses[static_cast<std::size_t>(ci)].inverse(),
       options.loop.loop_edge_weight_scale * delta.loop_inliers});
  delta.pose_graph = solve_pose_graph(pg, options.loop.pose_graph);
  if (!delta.pose_graph.converged) return;

  // 4. Correction delta: corrected poses, and every owned point moved
  //    with its owner's frame (p' = T_new_wc * T_old_cw * p).  No trust
  //    region here — a loop correction is *supposed* to move the live end
  //    a long way; its safety gate is the verification above.
  std::vector<SE3> world_correction;
  world_correction.reserve(pg.poses.size());
  for (std::size_t i = 0; i < pg.poses.size(); ++i) {
    delta.keyframe_poses.push_back({loop.kf_ids[i], pg.poses[i]});
    world_correction.push_back(pg.poses[i].inverse() * loop.kf_poses[i]);
  }
  for (std::size_t j = 0; j < loop.owned_point_ids.size(); ++j) {
    const SE3& c =
        world_correction[static_cast<std::size_t>(loop.owner_kf_index[j])];
    delta.point_positions.push_back(
        {loop.owned_point_ids[j], c * loop.owned_positions[j]});
  }
  delta.loop_adjust = world_correction[static_cast<std::size_t>(qi)];
  delta.loop_closed = true;
}

}  // namespace

std::vector<BackendShard> compute_shards(const KeyframeGraph& graph,
                                         const BackendOptions& options) {
  std::vector<BackendShard> shards;
  if (static_cast<int>(graph.size()) < std::max(2, options.min_keyframes))
    return shards;

  // Shard 0 is exactly the old single-window problem: the local window
  // around the latest keyframe plus its strongest-covisibility anchors.
  BackendShard primary;
  primary.window_kfs = graph.local_window(options.window_size);
  primary.fixed_kfs =
      graph.anchors(primary.window_kfs, options.max_fixed_anchors);

  // Claim the primary window AND everything covisible with it.  Claiming
  // the whole neighbourhood — not just the window — is what guarantees no
  // covisibility edge between free sets of different shards: covisibility
  // is symmetric, so any keyframe with an edge into the primary window is
  // flagged here and can never seed or join a secondary component.
  const int first = graph.first_live_id();
  std::vector<std::uint8_t> claimed(graph.size(), 0);
  const auto claim = [&](int id) {
    claimed[static_cast<std::size_t>(id - first)] = 1;
  };
  for (const int id : primary.window_kfs) {
    claim(id);
    for (const CovisEdge& e : graph.neighbors(id)) claim(e.keyframe_id);
  }
  shards.push_back(std::move(primary));

  // Secondary shards: connected covisibility components of the unclaimed
  // remainder, newest seed first (the most recently revisited region is
  // the one whose optimization pays off soonest).  Each component claims
  // itself wholesale, so free sets stay pairwise disjoint and edge-free
  // across shards; an anchor picked from a claimed node is fine — anchors
  // are read-only poses.
  const int count = static_cast<int>(graph.size());
  for (int id = first + count - 1; id >= first; --id) {
    if (static_cast<int>(shards.size()) >= std::max(1, options.max_shards))
      break;
    if (claimed[static_cast<std::size_t>(id - first)]) continue;
    const std::vector<int> component = graph.covisible_component(id, claimed);
    // A shard needs at least one free pose and two gauge anchors.
    if (static_cast<int>(component.size()) < 3) continue;
    BackendShard shard;
    const std::size_t w = std::min(
        component.size(),
        static_cast<std::size_t>(std::max(1, options.window_size)));
    shard.window_kfs.assign(component.begin(), component.begin() + w);
    shard.fixed_kfs =
        graph.anchors(shard.window_kfs, options.max_fixed_anchors);
    // Sparse components may lack min_weight covisibility edges; pad the
    // anchor set with the component's own older members.
    for (std::size_t i = w; i < component.size(); ++i) {
      if (static_cast<int>(shard.fixed_kfs.size()) >=
          std::max(2, options.max_fixed_anchors))
        break;
      if (std::find(shard.fixed_kfs.begin(), shard.fixed_kfs.end(),
                    component[i]) == shard.fixed_kfs.end())
        shard.fixed_kfs.push_back(component[i]);
    }
    shards.push_back(std::move(shard));
  }
  return shards;
}

bool build_shard_snapshot(const KeyframeGraph& graph, const Map& map,
                          const PinholeCamera& camera,
                          const BackendOptions& options,
                          const BackendShard& shard, int shard_id,
                          int snapshot_frame,
                          std::span<const std::int64_t> claimed_points,
                          BackendSnapshot& out) {
  out = BackendSnapshot{};
  out.map_epoch = map.epoch();
  out.snapshot_frame = snapshot_frame;
  out.shard_id = shard_id;
  out.window_kfs = shard.window_kfs;
  out.fixed_kfs = shard.fixed_kfs;

  // The gauge needs at least two fixed poses (see local_ba.h: one fixed
  // pose still leaves the global scale free).  When the anchor set is
  // thin (early session, small component), the oldest window members —
  // the tail of the newest-first window list — become the anchors; if
  // even that cannot produce two, the problem is refused rather than
  // solved gauge-free.
  while (static_cast<int>(out.fixed_kfs.size()) < 2 &&
         out.window_kfs.size() > 1) {
    out.fixed_kfs.push_back(out.window_kfs.back());
    out.window_kfs.pop_back();
  }
  if (out.window_kfs.empty() || out.fixed_kfs.size() < 2) return false;

  // Point set: union of the window keyframes' observed ids, restricted to
  // points still alive in the map.
  std::vector<std::int64_t> ids;
  for (const int kf_id : out.window_kfs)
    for (const KeyframeObservation& obs : graph.keyframe(kf_id).observations)
      ids.push_back(obs.point_id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  out.problem.camera = camera;
  for (const std::int64_t id : ids) {
    const auto index = map.index_of(id);
    if (!index) continue;
    const MapPoint& p = map.point(*index);
    out.point_ids.push_back(id);
    out.point_descriptors.push_back(p.descriptor);
    out.point_match_counts.push_back(p.match_count);
    out.problem.points.push_back(p.position);
  }
  if (out.point_ids.empty()) return false;

  const auto point_index_of = [&](std::int64_t id) -> int {
    const auto it = std::lower_bound(out.point_ids.begin(),
                                     out.point_ids.end(), id);
    if (it == out.point_ids.end() || *it != id) return -1;
    return static_cast<int>(it - out.point_ids.begin());
  };

  // Ownership: a point already claimed by another in-flight job enters
  // this problem as a fixed landmark — its residuals still constrain the
  // window poses, but this job may not move, cull, or fuse it.  Left
  // empty (all-owned) when nothing is claimed, so the lone-snapshot path
  // costs nothing.
  if (!claimed_points.empty()) {
    out.point_owned.resize(out.point_ids.size(), 1);
    for (std::size_t j = 0; j < out.point_ids.size(); ++j)
      if (std::binary_search(claimed_points.begin(), claimed_points.end(),
                             out.point_ids[j]))
        out.point_owned[j] = 0;
  }

  // Poses: free window first, fixed anchors after.
  std::vector<int> all_kfs = out.window_kfs;
  all_kfs.insert(all_kfs.end(), out.fixed_kfs.begin(), out.fixed_kfs.end());
  std::vector<int> obs_count(out.point_ids.size(), 0);
  for (std::size_t pi = 0; pi < all_kfs.size(); ++pi) {
    const Keyframe& kf = graph.keyframe(all_kfs[pi]);
    out.problem.poses.push_back(kf.pose_cw);
    out.problem.pose_fixed.push_back(pi >= out.window_kfs.size());
    for (const KeyframeObservation& obs : kf.observations) {
      const int pj = point_index_of(obs.point_id);
      if (pj < 0) continue;
      out.problem.observations.push_back(
          {static_cast<int>(pi), pj, obs.pixel});
      ++obs_count[static_cast<std::size_t>(pj)];
    }
  }
  out.problem.point_fixed.resize(out.point_ids.size());
  for (std::size_t j = 0; j < out.point_ids.size(); ++j)
    out.problem.point_fixed[j] =
        obs_count[j] < options.min_observations ||
        (!out.point_owned.empty() && out.point_owned[j] == 0);
  return true;
}

bool build_snapshot(const KeyframeGraph& graph, const Map& map,
                    const PinholeCamera& camera, const BackendOptions& options,
                    int snapshot_frame, BackendSnapshot& out) {
  if (static_cast<int>(graph.size()) < std::max(2, options.min_keyframes))
    return false;
  BackendShard shard;
  shard.window_kfs = graph.local_window(options.window_size);
  shard.fixed_kfs = graph.anchors(shard.window_kfs, options.max_fixed_anchors);
  return build_shard_snapshot(graph, map, camera, options, shard,
                              /*shard_id=*/0, snapshot_frame, {}, out);
}

BackendDelta optimize_snapshot(BackendSnapshot snapshot,
                               const BackendOptions& options,
                               const MapLifecycleOptions& lifecycle) {
  const WallTimer timer;
  BackendDelta delta;
  delta.map_epoch = snapshot.map_epoch;
  delta.snapshot_frame = snapshot.snapshot_frame;
  delta.shard_id = snapshot.shard_id;

  if (snapshot.loop) {
    optimize_loop(snapshot, options, delta);
    delta.optimize_ms = timer.elapsed_ms();
    return delta;
  }

  const std::vector<Vec3> original_points = snapshot.problem.points;
  delta.ba = solve_local_ba(snapshot.problem, options.ba);

  // Refined keyframe poses (free poses only — anchors never move).
  for (std::size_t pi = 0; pi < snapshot.window_kfs.size(); ++pi)
    delta.keyframe_poses.push_back(
        {snapshot.window_kfs[pi], snapshot.problem.poses[pi]});

  // Evidence passes (cull + fuse) are the lifecycle policy's, not the
  // optimizer's: plan_point_fates judges the post-BA problem and never
  // touches a point another in-flight shard owns.
  const BaProblem& problem = snapshot.problem;
  std::vector<PointFate> fate;
  plan_point_fates(problem, snapshot.point_ids, snapshot.point_descriptors,
                   snapshot.point_match_counts, snapshot.point_owned,
                   lifecycle, fate);

  for (std::size_t j = 0; j < problem.points.size(); ++j) {
    const std::int64_t id = snapshot.point_ids[j];
    switch (fate[j]) {
      case PointFate::kCull:
        delta.culled_ids.push_back(id);
        break;
      case PointFate::kFuse:
        delta.fused_ids.push_back(id);
        break;
      case PointFate::kKeep: {
        // point_fixed covers both thin evidence and not-owned-here; a
        // fixed point cannot have moved, but the guard keeps the delta's
        // ownership contract explicit.
        if (problem.point_fixed[j]) break;
        const Vec3 move = problem.points[j] - original_points[j];
        if (move.max_abs() <= 1e-12) break;
        // Trust region: a runaway estimate is not a refinement.
        if (lifecycle.max_point_move_m > 0 &&
            move.norm() > lifecycle.max_point_move_m)
          break;
        delta.point_positions.push_back({id, problem.points[j]});
        break;
      }
    }
  }
  delta.optimize_ms = timer.elapsed_ms();
  return delta;
}

ApplyOutcome apply_delta(const BackendDelta& delta, Map& map,
                         KeyframeGraph& graph) {
  ApplyOutcome outcome;

  // Stale-evidence guard: a point matched after the snapshot was frozen
  // has newer evidence than the delta — never remove it.
  std::vector<std::int64_t> removals;
  const auto eligible = [&](std::int64_t id) {
    const auto index = map.index_of(id);
    return index &&
           map.point(*index).last_matched_frame <= delta.snapshot_frame;
  };
  for (const std::int64_t id : delta.culled_ids)
    if (eligible(id)) {
      removals.push_back(id);
      ++outcome.points_culled;
    }
  for (const std::int64_t id : delta.fused_ids)
    if (eligible(id)) {
      removals.push_back(id);
      ++outcome.points_fused;
    }
  std::sort(removals.begin(), removals.end());

  // A loop correction rebases the live end of the map: everything the
  // snapshot could not know about — points created and keyframes inserted
  // after the freeze — rides the live-end correction (loop_adjust), so
  // the whole recent neighbourhood moves as one rigid piece and the
  // camera's next projection of it is unchanged.
  std::span<const std::pair<std::int64_t, Vec3>> moves =
      delta.point_positions;
  std::vector<std::pair<std::int64_t, Vec3>> combined;
  if (delta.loop_closed) {
    combined.assign(delta.point_positions.begin(),
                    delta.point_positions.end());
    for (const MapPoint& p : map.points())
      if (p.id > delta.loop_max_point_id)
        combined.push_back({p.id, delta.loop_adjust * p.position});
    moves = combined;
  }

  const MapApplyStats stats = map.apply_update(moves, removals);
  outcome.points_moved = static_cast<int>(stats.moved);
  outcome.map_changed = stats.moved > 0 || stats.removed > 0;

  int max_delta_kf = -1;
  for (const auto& [kf_id, pose] : delta.keyframe_poses) {
    max_delta_kf = std::max(max_delta_kf, kf_id);
    if (!graph.contains(kf_id)) continue;  // evicted since the snapshot
    graph.set_pose(kf_id, pose);
    ++outcome.keyframes_updated;
  }
  if (delta.loop_closed) {
    // Post-freeze keyframes: same live-end rebase as their points.
    // pose_cw_new = pose_cw_old * adjust^{-1} (projection-invariant
    // against the rebased points).
    const SE3 adjust_inv = delta.loop_adjust.inverse();
    for (int id = max_delta_kf + 1; id <= graph.latest_id(); ++id) {
      if (!graph.contains(id)) continue;
      graph.set_pose(id, graph.keyframe(id).pose_cw * adjust_inv);
      ++outcome.keyframes_updated;
    }
    outcome.loop_applied = true;
    outcome.loop_adjust = delta.loop_adjust;
  }
  graph.remove_point_observations(removals);
  return outcome;
}

}  // namespace eslam::backend
