// Counters, max-gauges and fixed-bucket log-scale latency histograms
// behind one process-wide registry, with a Prometheus-style text
// exposition dump.
//
// The contract mirrors obs/trace.h: everything that allocates (name
// lookup, instrument creation) happens once, on a cold path — call sites
// resolve a Counter*/Histogram* at construction time and the hot path is
// then pure relaxed atomics, so instrumented steady-state frames stay
// zero-heap-allocation.
//
// Histograms store no samples.  Buckets are log-spaced — kSubBuckets per
// octave (×2) starting at kMinMs = 1 µs — so the same 114 fixed buckets
// cover one microsecond to ~4.5 minutes at ≤ 19% relative bucket width.
// Quantiles come from bucket edges: quantile_upper_ms(q) /
// quantile_lower_ms(q) are *exact bounds* on the true q-quantile of the
// recorded samples (the value lies inside the bucket where the cumulative
// count crosses rank q), which is the honest way to report p50/p99/p999
// without sample storage.
//
// Instruments are keyed by their full exposition name including labels,
// e.g. `eslam_tracker_stage_ms{stage="fe"}` — exposition() splits the
// base name from the label set when formatting `_bucket{...,le="..."}`
// lines.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace eslam::obs {

class Counter {
 public:
  void add(std::int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Monotonic high-water mark, foldable from any number of threads — the
// registry-atomic replacement for the mutex-guarded ad-hoc hwm fields.
class MaxGauge {
 public:
  void update(std::int64_t x) {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (x > cur &&
           !v_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

class Histogram {
 public:
  static constexpr int kSubBuckets = 4;   // buckets per ×2 octave
  static constexpr int kOctaves = 28;     // 1 µs … ~4.5 min
  static constexpr double kMinMs = 1e-3;  // first bucket: (0, 1 µs]
  // [0] underflow (≤ kMinMs), [1..kOctaves*kSubBuckets] log-spaced,
  // [last] overflow (> max edge).
  static constexpr int kBuckets = kOctaves * kSubBuckets + 2;

  // Inclusive upper edge of `bucket` in ms; +inf for the overflow bucket.
  static double bucket_upper_ms(int bucket);
  static int bucket_index(double ms);

  void record(double ms) {
    buckets_[static_cast<std::size_t>(bucket_index(ms))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ms_.fetch_add(ms, std::memory_order_relaxed);  // C++20 atomic<double>
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum_ms() const { return sum_ms_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_count(int bucket) const {
    return buckets_[static_cast<std::size_t>(bucket)].load(
        std::memory_order_relaxed);
  }

  // Exact bounds on the q-quantile (q in [0, 1]) of the recorded samples:
  // the edges of the bucket where the cumulative count reaches
  // ceil(q * count).  Zero/ +inf at the extremes; 0 when empty.
  double quantile_upper_ms(double q) const;
  double quantile_lower_ms(double q) const;

  // Folds `other` into this histogram (concurrent-safe on both sides; the
  // result is exact once writers are quiescent).
  void merge_from(const Histogram& other);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_ms_{0.0};
};

// Find-or-create registry.  Lookup takes a lock and may allocate — resolve
// pointers once at construction; returned references stay valid for the
// process lifetime.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  MaxGauge& max_gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // nullptr when the instrument does not exist (never creates).
  const Counter* find_counter(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  // Prometheus-style text exposition: counters and gauges as single
  // samples, histograms as cumulative `_bucket{le="..."}` series plus
  // `_sum`/`_count` and derived `_p50/_p90/_p99/_p999` quantile-bound
  // gauges.  Safe to call while writers are live (each atomic is read
  // once).
  std::string exposition() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<MaxGauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// The process-wide registry every instrumented site uses.
MetricsRegistry& metrics();

}  // namespace eslam::obs
