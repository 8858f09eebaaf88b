#include "trace.h"

#include <cstdio>

#include "bench.h"

namespace dtbench {

int64_t Span::CountOf(const std::string& key) const {
  for (const auto& [k, v] : counts) {
    if (k == key) return v;
  }
  return 0;
}

uint64_t Tracer::Begin(std::string name, uint64_t parent) {
  if (!enabled_) return 0;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.name = std::move(name);
  s.start_ns = now;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::End(uint64_t id,
                 std::vector<std::pair<std::string, int64_t>> counts) {
  if (!enabled_ || id == 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[id - 1];
  s.end_ns = now;
  s.counts = std::move(counts);
}

std::vector<Span> Tracer::Named(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.end_ns != 0 && s.name == name) out.push_back(s);
  }
  return out;
}

double Tracer::MedianUs(const std::string& name) const {
  std::vector<double> d;
  for (const Span& s : Named(name)) d.push_back(s.DurationUs());
  return Median(std::move(d));
}

double Tracer::TotalUs(const std::string& name) const {
  double total = 0;
  for (const Span& s : Named(name)) total += s.DurationUs();
  return total;
}

int64_t Tracer::SumCount(const std::string& name,
                         const std::string& key) const {
  int64_t total = 0;
  for (const Span& s : Named(name)) total += s.CountOf(key);
  return total;
}

size_t Tracer::NumSpans(const std::string& name) const {
  return Named(name).size();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"counts\":{",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    for (size_t i = 0; i < s.counts.size(); ++i) {
      std::fprintf(f, "%s\"%s\":%lld", i == 0 ? "" : ",",
                   s.counts[i].first.c_str(),
                   static_cast<long long>(s.counts[i].second));
    }
    std::fprintf(f, "}}\n");
  }
  return std::fclose(f) == 0;
}

}  // namespace dtbench
