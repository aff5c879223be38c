#include "backend/graph_serialization.h"

#include <cmath>
#include <limits>

namespace eslam::backend {

namespace {

// Fixed record sizes, used to bound counts against the remaining bytes
// BEFORE reserving storage (a hostile count must not drive an OOM-sized
// reserve).
constexpr std::size_t kKeyframeHeaderBytes =
    4 +            // frame_index
    12 * 8 +       // pose: 9 rotation + 3 translation doubles
    8;             // observation count
constexpr std::size_t kObservationBytes =
    8 +            // point_id
    2 * 8 +        // pixel
    4 * 8 +        // descriptor words
    3 * 8;         // point_cam

bool finite(double v) { return std::isfinite(v); }

void write_pose(const SE3& pose, ByteWriter& out) {
  const Mat3& r = pose.rotation();
  for (int row = 0; row < 3; ++row)
    for (int col = 0; col < 3; ++col) out.f64(r(row, col));
  for (int i = 0; i < 3; ++i) out.f64(pose.translation()[i]);
}

bool read_pose(ByteReader& in, SE3& pose) {
  Mat3 r;
  Vec3 t;
  bool all_finite = true;
  for (int row = 0; row < 3; ++row)
    for (int col = 0; col < 3; ++col) {
      r(row, col) = in.f64();
      all_finite = all_finite && finite(r(row, col));
    }
  for (int i = 0; i < 3; ++i) {
    t[i] = in.f64();
    all_finite = all_finite && finite(t[i]);
  }
  pose = SE3{r, t};
  return in.ok() && all_finite;
}

}  // namespace

std::vector<Keyframe> collect_keyframes(const KeyframeGraph& graph) {
  std::vector<Keyframe> out;
  out.reserve(graph.size());
  const int first = graph.first_live_id();
  for (int id = first; id < first + static_cast<int>(graph.size()); ++id)
    out.push_back(graph.keyframe(id));
  return out;
}

void write_graph_section(const KeyframeGraphOptions& options,
                         std::span<const Keyframe> keyframes, ByteWriter& out) {
  out.i32(options.min_weight);
  out.i32(options.max_keyframes);
  out.u64(keyframes.size());
  for (const Keyframe& kf : keyframes) {
    out.i32(kf.frame_index);
    write_pose(kf.pose_cw, out);
    out.u64(kf.observations.size());
    for (const KeyframeObservation& obs : kf.observations) {
      out.i64(obs.point_id);
      out.f64(obs.pixel[0]);
      out.f64(obs.pixel[1]);
      for (int w = 0; w < Descriptor256::kWords; ++w)
        out.u64(obs.descriptor.words()[w]);
      for (int i = 0; i < 3; ++i) out.f64(obs.point_cam[i]);
    }
  }
}

bool read_graph_section(ByteReader& in, std::int64_t next_point_id,
                        KeyframeGraphOptions& options,
                        std::vector<Keyframe>& keyframes, std::string* error) {
  const auto reject = [&](const std::string& why) {
    in.fail(why);
    if (error) *error = in.error();
    return false;
  };

  options.min_weight = in.i32();
  options.max_keyframes = in.i32();
  if (!in.ok()) return reject(in.error());
  if (options.min_weight < 0 || options.min_weight > (1 << 20))
    return reject("graph min_weight out of range");
  if (options.max_keyframes < 0 || options.max_keyframes > (1 << 20))
    return reject("graph max_keyframes out of range");

  const std::uint64_t n_keyframes = in.u64();
  if (!in.ok()) return reject(in.error());
  if (n_keyframes > in.remaining() / kKeyframeHeaderBytes)
    return reject("keyframe count exceeds stream size");

  keyframes.clear();
  keyframes.reserve(static_cast<std::size_t>(n_keyframes));
  for (std::uint64_t k = 0; k < n_keyframes; ++k) {
    Keyframe kf;
    kf.frame_index = in.i32();
    if (!read_pose(in, kf.pose_cw))
      return reject(in.ok() ? "non-finite keyframe pose" : in.error());
    if (kf.frame_index < 0) return reject("negative keyframe frame index");
    const std::uint64_t n_obs = in.u64();
    if (!in.ok()) return reject(in.error());
    if (n_obs > in.remaining() / kObservationBytes)
      return reject("observation count exceeds stream size");
    kf.observations.reserve(static_cast<std::size_t>(n_obs));
    for (std::uint64_t o = 0; o < n_obs; ++o) {
      KeyframeObservation obs;
      obs.point_id = in.i64();
      obs.pixel[0] = in.f64();
      obs.pixel[1] = in.f64();
      for (int w = 0; w < Descriptor256::kWords; ++w)
        obs.descriptor.words()[w] = in.u64();
      for (int i = 0; i < 3; ++i) obs.point_cam[i] = in.f64();
      if (!in.ok()) return reject(in.error());
      // The out-of-range check: a keyframe may observe a point the map has
      // since pruned (that is the recovery substrate's whole value), but
      // never an id the map has not issued yet.
      if (obs.point_id < 0 || obs.point_id >= next_point_id)
        return reject("keyframe observation references an unissued point id");
      if (!finite(obs.pixel[0]) || !finite(obs.pixel[1]) ||
          !finite(obs.point_cam[0]) || !finite(obs.point_cam[1]) ||
          !finite(obs.point_cam[2]))
        return reject("non-finite keyframe observation");
      kf.observations.push_back(obs);
    }
    keyframes.push_back(std::move(kf));
  }
  return true;
}

KeyframeGraph rebuild_graph(const KeyframeGraphOptions& options,
                            std::span<const Keyframe> keyframes) {
  KeyframeGraph graph(options);
  for (const Keyframe& kf : keyframes)
    graph.add_keyframe(kf.frame_index, kf.pose_cw, kf.observations);
  return graph;
}

void rebuild_index(const KeyframeGraph& graph, KeyframeIndex& index) {
  const int first = graph.first_live_id();
  std::vector<IndexedKeyframe> keyframes;
  keyframes.reserve(graph.size());
  for (int id = first; id < first + static_cast<int>(graph.size()); ++id)
    keyframes.push_back({id, graph.keyframe(id).observations});
  index.add_keyframes(keyframes);
}

}  // namespace eslam::backend
