#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <limits>

namespace eslam::obs {

// ---- Histogram --------------------------------------------------------------

double Histogram::bucket_upper_ms(int bucket) {
  if (bucket <= 0) return kMinMs;
  if (bucket >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return kMinMs * std::exp2(static_cast<double>(bucket) / kSubBuckets);
}

int Histogram::bucket_index(double ms) {
  // NaN and everything ≤ the first edge land in the underflow bucket.
  if (!(ms > kMinMs)) return 0;
  // Upper edges are inclusive (Prometheus `le` semantics): the bucket is
  // the smallest b with ms ≤ upper(b), i.e. ceil of the sub-octave
  // position.  The epsilon absorbs log2/exp2 round-trip noise so a value
  // equal to a computed edge stays in that edge's bucket.
  const double octaves = std::log2(ms / kMinMs);  // > 0
  int idx = static_cast<int>(std::ceil(octaves * kSubBuckets - 1e-9));
  if (idx < 1) idx = 1;
  return idx >= kBuckets - 1 ? kBuckets - 1 : idx;
}

double Histogram::quantile_upper_ms(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank < 1) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += bucket_count(i);
    if (cum >= rank) return bucket_upper_ms(i);
  }
  return bucket_upper_ms(kBuckets - 1);
}

double Histogram::quantile_lower_ms(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank < 1) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += bucket_count(i);
    if (cum >= rank) return i == 0 ? 0.0 : bucket_upper_ms(i - 1);
  }
  return bucket_upper_ms(kBuckets - 2);
}

void Histogram::merge_from(const Histogram& other) {
  std::uint64_t moved = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = other.bucket_count(i);
    if (n == 0) continue;
    buckets_[static_cast<std::size_t>(i)].fetch_add(n,
                                                    std::memory_order_relaxed);
    moved += n;
  }
  count_.fetch_add(moved, std::memory_order_relaxed);
  sum_ms_.fetch_add(other.sum_ms(), std::memory_order_relaxed);
}

// ---- MetricsRegistry --------------------------------------------------------

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

MaxGauge& MetricsRegistry::max_gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<MaxGauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

namespace {

// Splits `eslam_foo_ms{stage="fe"}` into base `eslam_foo_ms` and label
// body `stage="fe"` (empty when unlabelled).
void split_name(const std::string& name, std::string& base,
                std::string& labels) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos) {
    base = name;
    labels.clear();
    return;
  }
  base = name.substr(0, brace);
  const std::size_t close = name.rfind('}');
  labels = name.substr(brace + 1,
                       close == std::string::npos ? std::string::npos
                                                  : close - brace - 1);
}

std::string fmt_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// `suffix` appends to the base name, `extra_label` (e.g. le="...") joins
// the instrument's own labels.
std::string sample_line(const std::string& base, const std::string& suffix,
                        const std::string& labels,
                        const std::string& extra_label,
                        const std::string& value) {
  std::string line = base + suffix;
  std::string body = labels;
  if (!extra_label.empty()) {
    if (!body.empty()) body += ",";
    body += extra_label;
  }
  if (!body.empty()) line += "{" + body + "}";
  line += " " + value + "\n";
  return line;
}

}  // namespace

std::string MetricsRegistry::exposition() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  std::string base, labels, last_typed;

  const auto type_line = [&](const std::string& b, const char* type) {
    // One TYPE line per base name (labelled variants share it).
    if (b == last_typed) return;
    out += "# TYPE " + b + " " + type + "\n";
    last_typed = b;
  };

  for (const auto& [name, c] : counters_) {
    split_name(name, base, labels);
    type_line(base, "counter");
    out += sample_line(base, "", labels, "",
                       std::to_string(c->value()));
  }
  for (const auto& [name, g] : gauges_) {
    split_name(name, base, labels);
    type_line(base, "gauge");
    out += sample_line(base, "", labels, "",
                       std::to_string(g->value()));
  }
  for (const auto& [name, h] : histograms_) {
    split_name(name, base, labels);
    type_line(base, "histogram");
    // Cumulative buckets, trimmed: start at the first occupied bucket and
    // stop once the cumulative count reaches the total (every omitted
    // line repeats a neighbour's cumulative value).
    const std::uint64_t total = h->count();
    std::uint64_t cum = 0;
    for (int i = 0; i < Histogram::kBuckets - 1; ++i) {
      const std::uint64_t n = h->bucket_count(i);
      if (cum == 0 && n == 0) continue;
      cum += n;
      out += sample_line(base, "_bucket", labels,
                         "le=\"" + fmt_double(Histogram::bucket_upper_ms(i)) +
                             "\"",
                         std::to_string(cum));
      if (cum >= total) break;
    }
    out += sample_line(base, "_bucket", labels, "le=\"+Inf\"",
                       std::to_string(total));
    out += sample_line(base, "_sum", labels, "", fmt_double(h->sum_ms()));
    out += sample_line(base, "_count", labels, "", std::to_string(total));
    // Quantile upper bounds from the bucket edges (exact bounds, not
    // estimates — see the Histogram contract).
    static constexpr struct {
      const char* suffix;
      double q;
    } kQuantiles[] = {{"_p50", 0.50}, {"_p90", 0.90}, {"_p99", 0.99},
                      {"_p999", 0.999}};
    for (const auto& [suffix, q] : kQuantiles)
      out += sample_line(base, suffix, labels, "",
                         fmt_double(h->quantile_upper_ms(q)));
  }
  return out;
}

MetricsRegistry& metrics() {
  static MetricsRegistry* r = new MetricsRegistry();  // never destroyed
  return *r;
}

}  // namespace eslam::obs
