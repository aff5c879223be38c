// The workloads: their generated inputs, the served (end-to-end) pass
// through SlamService, and the sequential traced pass through each layer's
// public functions.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "server/slam_service.h"

namespace slambench {

// One session's input stream, in feed order.
struct SessionInput {
  eslam::PinholeCamera camera = eslam::PinholeCamera::tum_freiburg1();
  std::vector<const FrameInput*> frames;
  std::vector<const FeatureList*> features;  // replayed FE, one per frame
  std::vector<eslam::SE3> ground_truth;      // of each fed frame
  double offset_ms = 0;  // when the client starts: its first feed (closed
                         // loop) or the due time of frame 0 (open loop)
};

// Everything generated from the seed before any timing starts.  The
// program receives only these inputs.
struct Workload {
  std::string name;
  eslam::SessionKind kind = eslam::SessionKind::kMapping;
  int arm_workers = 2;
  int queue_capacity = 4;
  double rate_fps = 0;     // per session; 0 = closed loop
  double fe_hold_ms = 0;   // replayed-FE device occupancy per frame
  double ate_ceiling_cm = 0;
  // loc_serve: the mapping run (backend on) that built the served map,
  // and the file it was saved to.
  SessionInput map_build;
  std::string snapshot_path;

  std::vector<std::vector<FrameInput>> frames;     // per source sequence
  std::vector<std::vector<FeatureList>> features;  // per source sequence
  std::vector<SessionInput> sessions;
  // Solo sequential reference per session (bit-identity oracle); empty
  // when the workload's schedule is not bit-identical by construction.
  std::vector<std::vector<eslam::TrackResult>> solo;
};

// Builds the named workload's inputs from the seed; empty name on an
// unknown workload.  `scratch_dir` receives loc_serve's saved map.
Workload generate(const std::string& name, std::uint32_t seed,
                  const std::string& scratch_dir);

bool known_workload(const std::string& name);

// Runs a mapping session's frames through the tracker's stage functions one
// call at a time, in Tracker::process's order with backend jobs run inline
// after each map update (the sequential reference schedule), with FE
// replayed at `fe_hold_ms`.  With `rec` set, records a span around each
// call; `results`, when set, receives each frame's result.
std::unique_ptr<eslam::Tracker> run_mapping(
    const SessionInput& in, double fe_hold_ms, bool backend, SpanRecorder* rec,
    int session, std::vector<eslam::TrackResult>* results);

// A constructed service with the workload's sessions open.  Members are
// destroyed sessions first, then the service, then the map they share.
struct Served {
  std::shared_ptr<const eslam::FrozenMap> frozen;
  std::unique_ptr<eslam::SlamService> service;
  std::vector<eslam::SessionHandle> sessions;
  double setup_ms = 0;  // construction + opens (+ snapshot load and build)
};

// Set-up through the public API; when `rec` is set, records spans around
// load_snapshot, FrozenMap::from_snapshot and SlamService::open_session.
Served setup(const Workload& w, SpanRecorder* rec);

// The work one pass did, independent of how fast it ran.  Two passes over
// the same inputs must agree; a difference is a change in work, not noise.
struct WorkCounts {
  long long keyframes = 0;
  long long map_points = 0;  // final, summed over sessions
  long long matches = 0;
  long long backend_jobs = 0;
  long long deltas_applied = 0;
  long long coldstart_frames = 0;
  bool operator==(const WorkCounts&) const = default;
};

struct PassResult {
  std::vector<std::vector<eslam::TrackResult>> results;  // per session
  std::vector<std::vector<std::size_t>> fed;  // input index of each result
  std::vector<double> latencies_ms;
  std::vector<eslam::PipelineStats> stats;
  long long attempted = 0, dropped = 0, lost = 0;
  double wall_ms = 0;          // first feed (or due time) to last result
  double cpu_ms = 0;           // process CPU minus the client thread's
  double mem_growth_mb = 0;    // peak RSS over the pass minus before set-up
  // At each delivery: its time and the CPU used so far (process minus
  // client thread), both relative to the first feed — the windows that
  // throughput and CPU per frame are taken over.
  std::vector<double> delivery_ms, delivery_cpu_ms;
  double lateness_mean_ms = 0, lateness_max_ms = 0;  // open-loop generator
  WorkCounts work;
  long long delivered() const;
};

// One pass of every session's input through SlamService from the single
// client thread: closed loop keeps queue_capacity frames outstanding per
// session, open loop feeds each frame at its due time.  `rss_before_mb`
// is the resident set measured before `served` was set up.
PassResult run_pass(const Workload& w, Served& served, double rss_before_mb);

// Output checks on one pass: frame accounting, bit-identity to the solo
// references (where the workload has them) and the ATE ceiling.
void check_pass(const Workload& w, const PassResult& pass, int index,
                RunReport& report);
double ate_cm(const Workload& w, const PassResult& pass);

// Runs the end-to-end measurement (trace off) for about `seconds`.
void run_end_to_end(const Workload& w, double seconds, RunReport& report);

// Runs one served pass for the scheduler's counters and the end-to-end
// per-frame latency, then the sequential traced pass, and reports the
// per-layer metrics.  Writes the spans to `trace_path`.
void run_traced(const Workload& w, const std::string& trace_path,
                RunReport& report);

}  // namespace slambench
