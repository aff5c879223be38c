// Keyframe-graph section of the map snapshot format (slam/map_snapshot):
// flat little-endian encode/decode of the keyframe database, plus the
// deterministic rebuild of the derived structures — covisibility edges and
// the recognition index — that are NOT serialized.
//
// What is stored per keyframe is exactly what add_keyframe() consumes
// (frame index, pose, observations); edges, eviction bookkeeping and the
// inverted recognition file are recomputed by re-inserting the keyframes
// in their stored order.  Rebuilding rather than serializing the derived
// state keeps the format small and makes the round-trip guarantee trivial:
// save -> load -> save re-serializes the same insertion-order inputs, so
// the bytes cannot drift even if the edge or index internals change.
//
// Graph ids are deliberately not stored: a rebuilt graph assigns them
// densely from 0 in insertion order, which preserves every relative
// relation (covisibility, recency ties, index ranking) the relocalization
// path depends on.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "backend/keyframe_graph.h"
#include "backend/keyframe_index.h"
#include "core/byte_io.h"

namespace eslam::backend {

// The live graph's keyframes in insertion (id) order — the capture side.
std::vector<Keyframe> collect_keyframes(const KeyframeGraph& graph);

// Appends the graph section: options, keyframe count, then each keyframe's
// frame index, pose and observations.
void write_graph_section(const KeyframeGraphOptions& options,
                         std::span<const Keyframe> keyframes, ByteWriter& out);

// Parses the graph section with strict validation: counts are checked
// against the remaining bytes before any reserve, every pose/pixel/point
// value must be finite, and observation point ids must lie inside
// [0, next_point_id) — an id the map never issued is corruption, not data.
// Returns false (with reader marked failed and *error set when non-null)
// on any violation; `keyframes` ids are left unassigned (-1).
bool read_graph_section(ByteReader& in, std::int64_t next_point_id,
                        KeyframeGraphOptions& options,
                        std::vector<Keyframe>& keyframes, std::string* error);

// Re-inserts the stored keyframes in order, recomputing covisibility edges
// (ids come out dense from 0).  Deterministic: same inputs, same graph.
KeyframeGraph rebuild_graph(const KeyframeGraphOptions& options,
                            std::span<const Keyframe> keyframes);

// Rebuilds the recognition index over a (rebuilt) graph's live keyframes
// in one batch; the index answers exactly as if they had been inserted one
// by one, so query rankings match a never-serialized session's.
void rebuild_index(const KeyframeGraph& graph, KeyframeIndex& index);

}  // namespace eslam::backend
