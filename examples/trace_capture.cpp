// Observability demo and CI artifact: runs a short multi-session workload
// (two mapping sessions + one localization session over a shared frozen
// map) through SlamService, then exports the span trace as Chrome
// trace-event JSON — load it at https://ui.perfetto.dev or
// chrome://tracing to see the paper's Fig-7 Gantt as process rows
// ("mapping-N", "localization-N", "scheduler") with named lane tracks —
// and dumps the Prometheus-style metrics exposition.
//
// Self-validating: exits non-zero unless the trace carries every expected
// process/track row and the exposition reports quantiles for the core
// instrumented sites, so CI can run it as a smoke gate and upload the
// artifacts.
//
//   ./examples/trace_capture [--trace out.json] [--metrics out.prom]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "accel/backend_factory.h"
#include "dataset/sequence.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "server/slam_service.h"
#include "slam/map_snapshot.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
  if (!ok) ++failures;
}

void contains(const std::string& text, const char* needle, const char* what) {
  check(text.find(needle) != std::string::npos, what);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eslam;
  std::string trace_path = "eslam_trace.json";
  std::string metrics_path = "eslam_metrics.prom";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
      trace_path = argv[++i];
    else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc)
      metrics_path = argv[++i];
  }

  SequenceOptions opts;
  opts.frames = 20;
  const SyntheticSequence xyz(SequenceId::kFr1Xyz, opts);
  const SyntheticSequence desk(SequenceId::kFr1Desk, opts);

  // A frozen map for the localization tier, built by a quick solo run.
  std::shared_ptr<const FrozenMap> frozen;
  {
    BackendConfig backend;
    backend.platform = Platform::kSoftware;
    backend.orb.n_features = 400;
    TrackerOptions topts;
    topts.backend.enabled = true;
    Tracker mapper(xyz.camera(), make_feature_backend(backend), topts);
    for (int i = 0; i < xyz.size(); ++i) mapper.process(xyz.frame(i));
    frozen = FrozenMap::from_snapshot(
        capture_snapshot(mapper.map(), mapper.keyframe_graph(), xyz.camera()));
  }

  // The served workload: everything below lands in the trace rings.
  ServiceOptions service_opts;
  service_opts.arm_workers = 2;
  SlamService service(service_opts);

  SessionConfig mapping;
  mapping.backend.platform = Platform::kSoftware;
  mapping.backend.orb.n_features = 400;
  mapping.tracker.backend.enabled = true;

  SessionConfig localization;
  localization.kind = SessionKind::kLocalization;
  localization.backend.platform = Platform::kSoftware;
  localization.backend.orb.n_features = 400;
  localization.frozen_map = frozen;

  mapping.camera = xyz.camera();
  SessionHandle a = service.open_session(mapping);
  mapping.camera = desk.camera();
  SessionHandle b = service.open_session(mapping);
  SessionHandle c = service.open_session(localization);

  // Interleaved feeds: the sessions genuinely share the device lane and
  // the worker pool, so the capture shows real multiplexing.
  for (int i = 0; i < opts.frames; ++i) {
    a.feed(xyz.frame(i));
    b.feed(desk.frame(i));
    c.feed(xyz.frame(i));
  }
  a.drain();
  b.drain();
  c.drain();

  std::printf("trace_capture: 3 sessions x %d frames served; %llu events "
              "recorded, %llu dropped\n\n",
              opts.frames,
              static_cast<unsigned long long>(
                  obs::trace_events_recorded_total()),
              static_cast<unsigned long long>(
                  obs::trace_events_dropped_total()));

  // Sessions are drained (writers quiescent on their frames), so the
  // snapshot in the export is exact.
  const std::string json = obs::chrome_trace_json();
  const bool trace_written = obs::write_chrome_trace(trace_path);
  const std::string expo = service.metrics_exposition();
  bool metrics_written = false;
  if (std::FILE* f = std::fopen(metrics_path.c_str(), "w")) {
    metrics_written = std::fwrite(expo.data(), 1, expo.size(), f) ==
                      expo.size();
    std::fclose(f);
  }

  std::printf("checks:\n");
  check(trace_written, "trace JSON written");
  check(metrics_written, "metrics exposition written");
#if ESLAM_TRACE_ENABLED
  // Per-session process rows plus the scheduler's resource rows — the
  // multi-session Gantt structure.
  contains(json, "\"mapping-0\"", "trace has mapping session 0 row");
  contains(json, "\"mapping-1\"", "trace has mapping session 1 row");
  contains(json, "\"localization-0\"", "trace has localization session row");
  contains(json, "\"scheduler\"", "trace has scheduler process row");
  contains(json, "\"device lane\"", "trace has shared device-lane track");
  contains(json, "\"arm worker 0\"", "trace has ARM worker tracks");
  contains(json, "device (FE/FM)", "trace has per-session device track");
  contains(json, "backend routine-ba", "trace has backend job-class track");
  contains(json, "\"ph\":\"B\"", "trace has span events");
  contains(json, "dropped_events", "trace carries drop accounting");
#endif
  // The exposition reports quantile bounds for every core site.
  contains(expo, "eslam_tracker_stage_ms_p99{stage=\"fe\"}",
           "exposition: tracker stage p99");
  contains(expo, "eslam_tracker_stage_ms_p999{stage=\"mu\"}",
           "exposition: tracker stage p999");
  contains(expo, "eslam_localizer_frame_ms_p50", "exposition: localizer p50");
  contains(expo, "eslam_scheduler_dispatch_wait_ms_p99",
           "exposition: scheduler dispatch wait p99");
  contains(expo, "eslam_backend_queue_wait_ms_p99{class=\"ba\"}",
           "exposition: backend queue wait p99");
  contains(expo, "eslam_backend_freeze_ms_p99",
           "exposition: backend freeze p99");
  contains(expo, "eslam_sessions_opened_total{kind=\"mapping\"} 2",
           "exposition: session rollup counters");
  // The projection gate's build time, split out of FM (the rest of FM is
  // the candidate Hamming work).
  contains(expo, "eslam_match_gate_build_ms_p99",
           "exposition: match gate build p99");
  check(expo.find("eslam_match_gate_build_ms_count 0\n") == std::string::npos,
        "exposition: match gate builds recorded");
  // RANSAC hypotheses drawn by every run: both session kinds and loop
  // verification (what pose estimation's per-frame cost scales with).
  contains(expo, "eslam_ransac_hypotheses_total ",
           "exposition: RANSAC hypothesis counter");
  check(expo.find("eslam_ransac_hypotheses_total 0\n") == std::string::npos,
        "exposition: RANSAC hypotheses counted");

  a.close();
  b.close();
  c.close();

  if (failures == 0)
    std::printf("\ncapture validated: %s + %s\n", trace_path.c_str(),
                metrics_path.c_str());
  else
    std::printf("\n%d capture check(s) failed.\n", failures);
  return failures == 0 ? 0 : 1;
}
