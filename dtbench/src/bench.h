/// \file bench.h
/// \brief Shared pieces of the benchmark program: run arguments, the
/// result report, clocks and order statistics.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dt {
namespace datagen {}
namespace dedup {}
namespace fusion {}
namespace query {}
namespace relational {}
namespace server {}
namespace storage {}
namespace textparse {}
}  // namespace dt

namespace dtbench {

namespace datagen = dt::datagen;
namespace dedup = dt::dedup;
namespace fusion = dt::fusion;
namespace query = dt::query;
namespace relational = dt::relational;
namespace server = dt::server;
namespace storage = dt::storage;
namespace textparse = dt::textparse;
using dt::Result;
using dt::Status;

class HostSpeed;
class Tracer;

/// One run as the command line asks for it.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  /// Scratch directory for WAL directories and trace files.
  std::string work_dir;
};

/// Monotonic nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds since `start_ns`.
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// CPU time of the whole process (every thread), in nanoseconds. The
/// kernel leaves out time the hypervisor stole from the VM, so on a
/// shared host it reads the same work as the same time.
int64_t ProcessCpuNs();

/// CPU time of the calling thread, in nanoseconds (steal left out too).
int64_t ThreadCpuNs();

/// \brief Confines this thread, and every thread it starts later, to
/// the lowest CPU it may run on. The serve workloads call it before
/// they start a thread: with the client, the event loop and the
/// workers on one CPU, no other thread of the process runs while the
/// client reads `ProcessCpuNs`, so the CPU time between a request and
/// its answer is that request's alone.
Status PinToOneCpu();

/// Gives the calling thread back the CPUs it had before `PinToOneCpu`,
/// so threads it starts later (the probes' pools) run in parallel.
Status UnpinCpus();

/// Nearest-rank percentile (`q` in [0, 1]) of `v`; 0 for an empty set.
double Percentile(std::vector<double> v, double q);

inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}

inline double Sum(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return sum;
}

/// Peak resident set of this process in MB (getrusage).
double PeakRssMb();

/// CPU time the hypervisor took from the VM since boot, all CPUs, in
/// seconds (the steal column of /proc/stat; 0 where absent). Printed
/// with each run's figures: a run that lost much of it reads slow.
double StealSeconds();

/// \brief What one run prints: the operation counts, whether every
/// checked output was right, and the metrics in insertion order.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }

  /// Counts one operation; a non-empty `error` marks it failed. A
  /// wrong answer (`wrong`) also clears `correct`. The first few
  /// failures are described on stderr.
  void Op(const std::string& what, const std::string& error, bool wrong);

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string ToJson() const;
};

/// The end-to-end metrics every workload reports (see README.md).
struct EndToEnd {
  double setup_s = 0;
  /// Operations per second of the CPU time they took, and the CPU time
  /// of one operation (median, 95th percentile), each CPU time scaled
  /// to the reference host speed (`HostSpeed`).
  double ops_per_cpu_s = 0;
  double op_cpu_p50_ms = 0;
  double op_cpu_p95_ms = 0;
  /// Operations behind the percentiles (p95 needs >= 200 for ten
  /// beyond it).
  int64_t op_samples = 0;
  /// The same three figures from unscaled CPU time, and from wall
  /// time, printed on stderr only.
  double raw_ops_per_cpu_s = 0;
  double raw_op_cpu_p50_ms = 0;
  double raw_op_cpu_p95_ms = 0;
  double ops_per_wall_s = 0;
  double op_wall_p50_ms = 0;
  double op_wall_p95_ms = 0;
  /// Median yardstick time of the window (`HostSpeed::MedianMs`).
  double yardstick_ms = 0;
  /// `PeakRssMb()` when the window closed, before the final-state
  /// checks load copies of the program's state.
  double peak_rss_mb = 0;
  /// `StealSeconds()` when the process started (for `Print`).
  double steal_at_start_s = 0;

  /// Every figure from per-operation CPU and wall times in the order
  /// the operations ran: a rate is the operation count over the sum of
  /// their times (1/mean), the percentiles are over all operations of
  /// the window.
  void FromOps(const std::vector<double>& cpu_ms,
               const std::vector<double>& wall_ms, const HostSpeed& speed);

  void AddTo(Report* report) const;
  /// One human-readable line on stderr (also in traced runs, where
  /// the report carries the per-layer metrics instead).
  void Print(const RunArgs& args) const;
};

/// \brief A scratch directory of the run (a WAL directory): cleared
/// on construction and removed on every exit path. Declare it before
/// the objects that keep files open in it.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Reports a run that could not be carried out; returns exit code 1.
int FailRun(const RunArgs& args, const char* stage, const Status& st);

// Workload entry points. Each fills `report` and returns a process
// exit code (0 unless the run could not be carried out at all). With
// `args.trace` the report carries the per-layer metrics instead of
// the end-to-end ones.
int RunServeRead(const RunArgs& args, int64_t process_start_ns,
                 Report* report);
int RunServeIngest(const RunArgs& args, int64_t process_start_ns,
                   Report* report);
int RunBulkLoad(const RunArgs& args, int64_t process_start_ns,
                Report* report);

}  // namespace dtbench
