/// \file host_speed.h
/// \brief Scales the program's CPU times to a reference host speed.
///
/// A VM shares its host's caches and memory with other VMs, and while
/// they load them a CPU second of the program does less work: over one
/// 90 s serve-read run on a 4-vCPU Xeon VM, 2.5 s chunks ranged from
/// 178 to 291 requests per CPU second, with no steal, while a pure
/// arithmetic loop kept its speed within 3%. A yardstick of the benchmark's own,
/// timed between the program's operations on the same CPU, slows with
/// the program: it copies, sorts and counts into an ordered map 16,384
/// strings, about 3 MB of nodes, more than a core's L2. It allocates
/// from arenas of its own, so the program's heap does not change its
/// allocation path. Over ten 30 s serve-read runs, dividing by it cut
/// the spread (IQR over median) of requests per CPU second from 18%
/// to 3.2% and of the p95 from 16% to 2.3%. The yardstick never calls
/// the program's code and uses fixed data, so a change to the program
/// leaves it alone.

#pragma once

#include <cstddef>
#include <memory>
#include <memory_resource>
#include <string>
#include <utility>
#include <vector>

namespace dtbench {

class HostSpeed {
 public:
  /// Builds the yardstick's fixed strings.
  HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Times the yardstick once (thread CPU time, about 10 ms) and files
  /// the sample under operation `next_op`, the index of the operation
  /// that runs next.
  void Sample(size_t next_op);

  /// Factor that scales the CPU time of operation `op` to the
  /// reference speed: kReferenceMs over the median yardstick time of
  /// the kWindow samples nearest to it (1 with no samples).
  double FactorAt(size_t op) const;

  /// `cpu_ms[i] * FactorAt(i)` for every operation.
  std::vector<double> Scale(const std::vector<double>& cpu_ms) const;

  /// Median yardstick time of the run, in ms (for the stderr line).
  double MedianMs() const;

  /// The reference speed: the yardstick time, in ms, of a 4-vCPU Xeon
  /// VM in its host's quieter periods (7.0-7.7 ms; 10 ms is typical
  /// under load). Scaled figures read as if every sample had taken
  /// this long.
  static constexpr double kReferenceMs = 7.0;
  /// Samples behind each factor.
  static constexpr size_t kWindow = 15;

 private:
  /// The fixed strings live in `source_arena_`; each sample allocates
  /// its copies, sort and map in `work_arena_` and releases them.
  std::vector<std::byte> source_arena_;
  std::vector<std::byte> work_arena_;
  std::unique_ptr<std::pmr::monotonic_buffer_resource> source_pool_;
  std::pmr::vector<std::pmr::string> words_;
  size_t sink_ = 0;
  /// (operation index, yardstick ms), in sample order.
  std::vector<std::pair<size_t, double>> samples_;
};

}  // namespace dtbench
