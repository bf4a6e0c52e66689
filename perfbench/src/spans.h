// Span recording for the traced run: the benchmark wraps each call into a
// library layer in a named span (start, end, parent span, round id), kept
// in memory and summarized when the run ends. A span's self time is its
// duration minus the union of the intervals its child spans cover, so
// concurrent children (store ingest on the async sink's worker, beside the
// simulated job) are never subtracted twice.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
  int round = -1;
  [[nodiscard]] double ms() const { return static_cast<double>(end - start) / 1e6; }
};

/// Thread-safe span log. Spans opened on a thread nest under that thread's
/// innermost open span; a thread with none open (a sink worker) nests under
/// the span set by set_fallback_parent (the stage that started the work).
class SpanLog {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  void set_round(int round) { round_ = round; }
  void set_fallback_parent(int id) {
    const std::lock_guard<std::mutex> lock(mu_);
    fallback_parent_ = id;
  }

  /// Returns the span id, or -1 when disabled.
  int open(std::string name) {
    if (!enabled_) {
      return -1;
    }
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<int>& stack = stacks_[tid()];
    const int parent = stack.empty() ? fallback_parent_ : stack.back();
    spans_.push_back({std::move(name), t, 0, parent, round_});
    const int id = static_cast<int>(spans_.size()) - 1;
    stack.push_back(id);
    return id;
  }

  void close(int id) {
    if (id < 0) {
      return;
    }
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
    std::vector<int>& stack = stacks_[tid()];
    if (!stack.empty() && stack.back() == id) {
      stack.pop_back();
    }
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, in ms (index-aligned with spans()).
  [[nodiscard]] std::vector<double> self_ms() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
      }
    }
    std::vector<double> out(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[i] = static_cast<double>(s.end - s.start -
                                   covered(kids[i], s.start, s.end)) /
               1e6;
    }
    return out;
  }

  /// Length of the union of `iv` clipped to [lo, hi).
  [[nodiscard]] static std::int64_t covered(
      std::vector<std::pair<std::int64_t, std::int64_t>> iv, std::int64_t lo,
      std::int64_t hi) {
    std::sort(iv.begin(), iv.end());
    std::int64_t total = 0;
    std::int64_t cursor = lo;
    for (auto [a, b] : iv) {
      a = std::max(a, cursor);
      b = std::min(b, hi);
      if (b > a) {
        total += b - a;
        cursor = b;
      }
    }
    return total;
  }

 private:
  [[nodiscard]] static std::uintptr_t tid() {
    static thread_local const char marker = 0;
    return reinterpret_cast<std::uintptr_t>(&marker);
  }

  bool enabled_ = false;
  int round_ = -1;
  std::mutex mu_;  // guards everything below
  int fallback_parent_ = -1;
  std::vector<Span> spans_;
  std::map<std::uintptr_t, std::vector<int>> stacks_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name)
      : log_(log), id_(log.open(std::move(name))) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile (p in (0, 1]).
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(p * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

}  // namespace perfbench
