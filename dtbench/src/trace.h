/// \file trace.h
/// \brief In-memory spans recorded around the benchmark's own calls
/// into each layer. Each span has a name, start, end, parent and the
/// counts observed at that boundary; per-layer metrics are derived
/// from them after the run, and the spans are written out as JSON
/// lines when the run ends.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dtbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<std::pair<std::string, int64_t>> counts;

  double DurationUs() const {
    return static_cast<double>(end_ns - start_ns) * 1e-3;
  }
  /// The named count, 0 when absent.
  int64_t CountOf(const std::string& key) const;
};

/// Thread-safe span recorder; every call is a no-op when disabled.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when disabled).
  uint64_t Begin(std::string name, uint64_t parent = 0);
  /// Closes span `id`, attaching `counts`.
  void End(uint64_t id,
           std::vector<std::pair<std::string, int64_t>> counts = {});

  /// Closed spans named `name`, in start order.
  std::vector<Span> Named(const std::string& name) const;

  /// Median duration in microseconds of the spans named `name` (0 when
  /// there are none).
  double MedianUs(const std::string& name) const;
  /// Sum of durations (microseconds).
  double TotalUs(const std::string& name) const;
  /// Sum over the spans named `name` of their `key` count.
  int64_t SumCount(const std::string& name, const std::string& key) const;
  size_t NumSpans(const std::string& name) const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // index = id - 1
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, uint64_t parent = 0)
      : tracer_(tracer), id_(tracer->Begin(std::move(name), parent)) {}
  ~ScopedSpan() { tracer_->End(id_, std::move(counts_)); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Count(std::string key, int64_t value) {
    if (id_ != 0) counts_.emplace_back(std::move(key), value);
  }
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
  std::vector<std::pair<std::string, int64_t>> counts_;
};

}  // namespace dtbench
