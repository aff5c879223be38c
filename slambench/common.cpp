#include "common.h"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <thread>

namespace slambench {

namespace {

double clock_ms(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

// Poll interval of the client thread: short against every latency the
// benchmark reports (the smallest, loc_serve's p50, is several ms).
constexpr double kParkMs = 0.25;

}  // namespace

double process_cpu_ms() { return clock_ms(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_ms() { return clock_ms(CLOCK_THREAD_CPUTIME_ID); }

double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0;
  long pages_total = 0, pages_resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void release_free_heap() { malloc_trim(0); }

void park_until(double deadline_ms) {
  const double wait = std::min(kParkMs, deadline_ms - now_ms());
  if (wait > 0)
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(wait));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size());
  std::size_t i = static_cast<std::size_t>(rank);
  if (static_cast<double>(i) == rank && i > 0) --i;  // nearest rank
  return v[std::min(i, v.size() - 1)];
}

HostProbe run_host_probe() {
  HostProbe probe;
  {
    // Strided read-modify-write over 64 MiB: one touch per cache line, so
    // the loop is bound by memory bandwidth, not arithmetic.
    constexpr std::size_t kWords = (64u << 20) / sizeof(std::uint64_t);
    std::vector<std::uint64_t> buf(kWords, 1);
    const double t0 = now_ms();
    std::uint64_t acc = 0;
    for (int rep = 0; rep < 4; ++rep)
      for (std::size_t i = 0; i < kWords; i += 8) {
        acc += buf[i];
        buf[i] = acc;
      }
    probe.mem_ms = now_ms() - t0;
    if (acc == 42) std::fputs("", stderr);  // keep the loop observable
  }
  {
    // Seeded through a volatile so the chain cannot be folded at compile
    // time.
    volatile std::uint64_t seed = 0x9e3779b97f4a7c15ull;
    const double t0 = now_ms();
    std::uint64_t x = seed;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x >> 31;
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 27;
    }
    seed = x;
    probe.alu_ms = now_ms() - t0;
  }
  return probe;
}

int generation_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

void parallel_for(int n, const std::function<void(int, int)>& job) {
  const int workers = std::min(n, generation_threads());
  std::atomic<int> next{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w)
    threads.emplace_back([&, w] {
      for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) job(i, w);
    });
  for (std::thread& t : threads) t.join();
}

// ---- ReplayBackend -----------------------------------------------------------

ReplayBackend::ReplayBackend(std::vector<const FeatureList*> stream,
                             double hold_ms)
    : stream_(std::move(stream)), hold_ms_(hold_ms) {}

const FeatureList& ReplayBackend::next() {
  const FeatureList& f = *stream_[next_ % stream_.size()];
  ++next_;
  return f;
}

FeatureList ReplayBackend::extract(const eslam::ImageU8& image) {
  FeatureList out;
  extract_into(image, out);
  return out;
}

void ReplayBackend::extract_into(const eslam::ImageU8&, FeatureList& out) {
  const double t0 = now_ms();
  out = next();
  if (hold_ms_ > 0) {
    const double remaining = hold_ms_ - (now_ms() - t0);
    if (remaining > 0)
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(remaining));
  }
  extract_ms_ = now_ms() - t0;
}

std::vector<eslam::Match> ReplayBackend::match(
    std::span<const eslam::Descriptor256> queries,
    std::span<const eslam::Descriptor256> train) {
  return host_.match(queries, train);
}

std::vector<eslam::Match> ReplayBackend::match_candidates(
    std::span<const eslam::Descriptor256> queries,
    std::span<const eslam::Descriptor256> train,
    const eslam::CandidateSet& candidates) {
  return host_.match_candidates(queries, train, candidates);
}

void ReplayBackend::match_into(std::span<const eslam::Feature> queries,
                               const eslam::TrainView& train,
                               eslam::Arena* scratch,
                               std::vector<eslam::Match>& out) {
  host_.match_into(queries, train, scratch, out);
}

void ReplayBackend::match_candidates_into(
    std::span<const eslam::Feature> queries, const eslam::TrainView& train,
    const eslam::CandidateSet& candidates, eslam::Arena* scratch,
    std::vector<eslam::Match>& out) {
  host_.match_candidates_into(queries, train, candidates, scratch, out);
}

// ---- spans ------------------------------------------------------------------

int SpanRecorder::begin(const char* name, int session, int frame) {
  Span s;
  s.name = name;
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.session = session;
  s.frame = frame;
  s.start_ms = now_ms();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ms = now_ms();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  if (s.parent >= 0)
    spans_[static_cast<std::size_t>(s.parent)].child_ms += s.duration_ms();
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  // One process row per session, named so Perfetto labels the tracks.
  std::vector<int> sessions;
  for (const Span& s : spans_)
    if (std::find(sessions.begin(), sessions.end(), s.session) ==
        sessions.end())
      sessions.push_back(s.session);
  for (const int session : sessions) {
    std::fprintf(f,
                 "%s{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": %d, "
                 "\"tid\": 0, \"args\": {\"name\": \"session-%d\"}}",
                 first ? "" : ",\n", session + 1, session);
    first = false;
  }
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "%s{\"ph\": \"X\", \"name\": \"%s\", \"pid\": %d, \"tid\": 0, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, "
                 "\"parent\": %d, \"frame\": %d, \"self_ms\": %.4f}}",
                 first ? "" : ",\n", s.name.c_str(), s.session + 1,
                 (s.start_ms - origin_ms_) * 1e3, s.duration_ms() * 1e3, s.id,
                 s.parent, s.frame, s.self_ms());
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

FeatureList TracingBackend::extract(const eslam::ImageU8& image) {
  const ScopedSpan span(rec_, "FeatureBackend::extract", session_, frame_);
  return inner_->extract(image);
}

void TracingBackend::extract_into(const eslam::ImageU8& image,
                                  FeatureList& out) {
  const ScopedSpan span(rec_, "FeatureBackend::extract", session_, frame_);
  inner_->extract_into(image, out);
}

void RunReport::check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) {
    correct = false;
    failures.push_back(what);
  }
}

}  // namespace slambench
