#include "server/slam_service.h"

#include <chrono>
#include <utility>

#include "geometry/assert.h"

namespace eslam {

// The service-side body of one session: the tracker (which owns the
// backend) plus its scheduler slot.  Held by shared_ptr from the handle so
// a moved-from handle stays cheap and the body dies exactly once.
struct ServiceSession {
  int id = -1;           // service-assigned, stable across the lifetime
  SessionKind kind = SessionKind::kMapping;
  SessionRef slot;       // per-session scheduler state (no lookups)
  // Exactly one of the two is set, per `kind`.
  std::unique_ptr<Tracker> tracker;
  std::unique_ptr<Localizer> localizer;
  // Open timestamp for the close-time lifetime rollup.
  std::chrono::steady_clock::time_point opened_at;
};

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

int SessionHandle::id() const { return session_ ? session_->id : -1; }

SessionKind SessionHandle::kind() const {
  return session_ ? session_->kind : SessionKind::kMapping;
}

bool SessionHandle::try_feed(FrameInput frame) {
  if (!service_) return false;
  return service_->scheduler_.try_feed(session_->slot, std::move(frame));
}

bool SessionHandle::feed(FrameInput frame) {
  if (!service_) return false;
  return service_->scheduler_.feed(session_->slot, std::move(frame));
}

std::optional<TrackResult> SessionHandle::poll() {
  if (!service_) return std::nullopt;
  return service_->scheduler_.poll(session_->slot);
}

std::vector<TrackResult> SessionHandle::drain() {
  if (!service_) return {};
  return service_->scheduler_.drain(session_->slot);
}

int SessionHandle::in_flight() const {
  return service_ ? service_->scheduler_.in_flight(session_->slot) : 0;
}

PipelineStats SessionHandle::stats() const {
  return service_ ? service_->scheduler_.stats(session_->slot) : PipelineStats{};
}

backend::BackendStats SessionHandle::backend_stats() const {
  // Localization sessions have no backend lane: all-zero stats.
  return service_ && session_->tracker ? session_->tracker->backend_stats()
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
  if (!service_) return {};
  std::vector<TrackResult> leftovers =
      service_->scheduler_.drain(session_->slot);
  // Rollups before the slot goes away: how long the session lived and how
  // many frames it retired (frames_retired is final after the drain).
  const PipelineStats final_stats = service_->scheduler_.stats(session_->slot);
  service_->scheduler_.remove_session(session_->slot);
  service_->closed_total_->add();
  service_->session_lifetime_ms_->record(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - session_->opened_at)
          .count());
  service_->session_frames_->record(
      static_cast<double>(final_stats.frames_retired));
  service_ = nullptr;
  session_.reset();  // destroys the tracker + backend
  return leftovers;
}

// ---- SlamService -----------------------------------------------------------

SlamService::SlamService(const ServiceOptions& options)
    : options_(options),
      scheduler_(SchedulerOptions{std::max(1, options.arm_workers)}) {
  obs::MetricsRegistry& reg = obs::metrics();
  opened_mapping_total_ =
      &reg.counter("eslam_sessions_opened_total{kind=\"mapping\"}");
  opened_localization_total_ =
      &reg.counter("eslam_sessions_opened_total{kind=\"localization\"}");
  closed_total_ = &reg.counter("eslam_sessions_closed_total");
  session_lifetime_ms_ = &reg.histogram("eslam_session_lifetime_ms");
  session_frames_ = &reg.histogram("eslam_session_frames");
}

SlamService::~SlamService() = default;

SessionHandle SlamService::open_session(const SessionConfig& config) {
  auto session = std::make_shared<ServiceSession>();
  session->kind = config.kind;

  SchedulerSessionOptions scheduler_options;
  scheduler_options.queue_capacity = config.queue_capacity;
  scheduler_options.pacer = config.pacer;

  if (config.kind == SessionKind::kLocalization) {
    ESLAM_ASSERT(config.frozen_map != nullptr,
                 "a localization session needs a frozen map");
    session->localizer = std::make_unique<Localizer>(
        config.frozen_map,
        config.backend_factory ? config.backend_factory()
                               : make_feature_backend(config.backend),
        config.tracker);
    session->slot = scheduler_.add_localization_session(*session->localizer,
                                                        scheduler_options);
  } else {
    session->tracker = std::make_unique<Tracker>(
        config.camera,
        config.backend_factory ? config.backend_factory()
                               : make_feature_backend(config.backend),
        config.tracker);
    session->slot = scheduler_.add_session(*session->tracker,
                                           scheduler_options);
  }
  session->opened_at = std::chrono::steady_clock::now();
  (config.kind == SessionKind::kLocalization ? opened_localization_total_
                                             : opened_mapping_total_)
      ->add();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    session->id = sessions_opened_++;
    if (config.kind == SessionKind::kLocalization)
      ++localization_opened_;
    else
      ++mapping_opened_;
  }
  return SessionHandle(this, std::move(session));
}

int SlamService::session_count() const { return scheduler_.session_count(); }

std::string SlamService::metrics_exposition() const {
  return obs::metrics().exposition();
}

ServiceStats SlamService::stats() const {
  ServiceStats s;
  s.sessions_open = scheduler_.session_count();
  s.localization_sessions_open = scheduler_.localization_session_count();
  s.mapping_sessions_open = s.sessions_open - s.localization_sessions_open;
  s.device_dispatches = scheduler_.total_dispatches();
  s.backend_concurrent_hwm = scheduler_.backend_concurrent_high_water();
  s.localization_coldstart_attempts =
      scheduler_.localization_coldstart_attempts();
  s.localization_coldstart_successes =
      scheduler_.localization_coldstart_successes();
  const std::lock_guard<std::mutex> lock(mutex_);
  s.sessions_opened_total = sessions_opened_;
  s.mapping_sessions_opened_total = mapping_opened_;
  s.localization_sessions_opened_total = localization_opened_;
  return s;
}

}  // namespace eslam
