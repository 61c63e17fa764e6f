// In-memory span recorder for the benchmark's traced run.
//
// A span is (name, start, end, parent).  Spans are opened and closed from
// the benchmark's main thread around calls into one layer's public
// functions; the open-span stack supplies each span's parent.  Nothing is
// written until the run ends (write_json), so recording costs two clock
// reads and one vector append per span.  A disabled Tracer records
// nothing, which is how the untraced run measures.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into Tracer::spans(), -1 for a root
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its index (-1 when disabled).
  int begin(const char* name) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = now_ns();
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Adds a closed span timed elsewhere (by another thread, or before it
  /// was known to count) under `parent`, or under the current open span
  /// when `parent` is kOpen.  Returns its index (-1 when disabled).
  static constexpr int kOpen = -2;
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent = kOpen) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = parent != kOpen ? parent : open_.empty() ? -1 : open_.back();
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(s);
    return static_cast<int>(spans_.size()) - 1;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ms) of every span called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back((s.end_ns - s.start_ns) / 1e6);
    }
    return out;
  }

  /// Self time (ms) of every span: its duration minus the part of that
  /// interval its direct children cover.  Children may overlap (batch spans
  /// from concurrent clients), so the covered part is their union.
  [[nodiscard]] std::vector<double> self_ms() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent < 0) continue;
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      kids[static_cast<std::size_t>(s.parent)].emplace_back(
          std::max(s.start_ns, p.start_ns), std::min(s.end_ns, p.end_ns));
    }
    std::vector<double> out(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      std::int64_t covered = 0;
      std::int64_t reach = spans_[i].start_ns;
      for (const auto& [lo, hi] : iv) {
        const std::int64_t from = std::max(lo, reach);
        if (hi > from) covered += hi - from;
        reach = std::max(reach, hi);
      }
      out[i] = (spans_[i].end_ns - spans_[i].start_ns - covered) / 1e6;
    }
    return out;
  }

  /// Share of each span called `name` that its direct children cover
  /// (1 - self / duration), in recording order.
  [[nodiscard]] std::vector<double> coverage(const std::string& name) const {
    const std::vector<double> self = self_ms();
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (name != spans_[i].name) continue;
      const double total = (spans_[i].end_ns - spans_[i].start_ns) / 1e6;
      out.push_back(total > 0 ? 1.0 - self[i] / total : 1.0);
    }
    return out;
  }

  /// Writes every span plus a per-name summary (count, total, self).
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    struct Sum {
      std::size_t count = 0;
      double total_ms = 0;
      double self_ms = 0;
    };
    std::map<std::string, Sum> sums;
    const std::vector<double> self = self_ms();
    std::fprintf(f, "{\"spans\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d}",
                   i == 0 ? "" : ",", i, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent);
      Sum& sum = sums[s.name];
      ++sum.count;
      sum.total_ms += (s.end_ns - s.start_ns) / 1e6;
      sum.self_ms += self[i];
    }
    std::fprintf(f, "\n],\n\"summary\": {");
    bool first = true;
    for (const auto& [name, sum] : sums) {
      std::fprintf(f, "%s\n  \"%s\": {\"count\": %zu, \"total_ms\": %.6f, "
                   "\"self_ms\": %.6f}",
                   first ? "" : ",", name.c_str(), sum.count, sum.total_ms,
                   sum.self_ms);
      first = false;
    }
    std::fprintf(f, "\n}}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

}  // namespace perfbench
