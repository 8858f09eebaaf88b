#include "host_speed.h"

#include <algorithm>
#include <cstdint>
#include <map>

#include "bench.h"

namespace dtbench {

namespace {

constexpr size_t kWords = 16384;
/// Arena sizes: the fixed strings take about 1.4 MB, one sample's
/// copies and map about 3 MB.
constexpr size_t kSourceArenaBytes = 4u << 20;
constexpr size_t kWorkArenaBytes = 8u << 20;

}  // namespace

HostSpeed::HostSpeed()
    : source_arena_(kSourceArenaBytes),
      work_arena_(kWorkArenaBytes),
      source_pool_(std::make_unique<std::pmr::monotonic_buffer_resource>(
          source_arena_.data(), source_arena_.size())),
      words_(source_pool_.get()) {
  // Fixed data: 16 to 39 letters, past the small-string buffer, so
  // every copy allocates.
  uint64_t state = 12345;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  words_.reserve(kWords);
  for (size_t i = 0; i < kWords; ++i) {
    std::pmr::string w(16 + next() % 24, 'a', source_pool_.get());
    for (char& c : w) c = static_cast<char>('a' + next() % 26);
    words_.push_back(std::move(w));
  }
}

void HostSpeed::Sample(size_t next_op) {
  const int64_t start = ThreadCpuNs();
  {
    std::pmr::monotonic_buffer_resource pool(work_arena_.data(),
                                             work_arena_.size());
    std::pmr::vector<std::pmr::string> sorted(words_.begin(), words_.end(),
                                              &pool);
    std::sort(sorted.begin(), sorted.end());
    std::pmr::map<std::pmr::string, int> counts(&pool);
    for (const std::pmr::string& w : sorted) ++counts[w];
    sink_ += counts.size();
  }
  samples_.emplace_back(next_op,
                        static_cast<double>(ThreadCpuNs() - start) * 1e-6);
}

double HostSpeed::FactorAt(size_t op) const {
  if (samples_.empty()) return 1.0;
  // The sample filed last at or before `op`, and its neighbours.
  size_t hit = 0;
  while (hit + 1 < samples_.size() && samples_[hit + 1].first <= op) ++hit;
  const size_t half = kWindow / 2;
  size_t lo = hit > half ? hit - half : 0;
  const size_t hi = std::min(samples_.size(), lo + kWindow);
  lo = hi > kWindow ? hi - kWindow : 0;
  std::vector<double> near;
  for (size_t i = lo; i < hi; ++i) near.push_back(samples_[i].second);
  return kReferenceMs / Median(std::move(near));
}

std::vector<double> HostSpeed::Scale(const std::vector<double>& cpu_ms) const {
  std::vector<double> out(cpu_ms.size());
  for (size_t i = 0; i < cpu_ms.size(); ++i) out[i] = cpu_ms[i] * FactorAt(i);
  return out;
}

double HostSpeed::MedianMs() const {
  std::vector<double> all;
  for (const auto& s : samples_) all.push_back(s.second);
  return Median(std::move(all));
}

}  // namespace dtbench
