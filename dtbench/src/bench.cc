#include "bench.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <utility>

#include "host_speed.h"

namespace dtbench {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the set at or
  // below it.
  const double n = static_cast<double>(v.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

namespace {

int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

int64_t ProcessCpuNs() { return CpuNs(CLOCK_PROCESS_CPUTIME_ID); }

int64_t ThreadCpuNs() { return CpuNs(CLOCK_THREAD_CPUTIME_ID); }

namespace {

/// The CPUs the process had before `PinToOneCpu`.
cpu_set_t g_allowed_cpus;

}  // namespace

Status PinToOneCpu() {
  cpu_set_t& allowed = g_allowed_cpus;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    return Status::IOError("sched_getaffinity failed");
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) {
      return Status::IOError("sched_setaffinity failed");
    }
    return Status::OK();
  }
  return Status::IOError("no CPU to run on");
}

Status UnpinCpus() {
  if (sched_setaffinity(0, sizeof g_allowed_cpus, &g_allowed_cpus) != 0) {
    return Status::IOError("sched_setaffinity failed");
  }
  return Status::OK();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) / 100.0 : 0.0;  // USER_HZ
}

void Report::Op(const std::string& what, const std::string& error,
                bool wrong) {
  ++attempted;
  if (error.empty()) return;
  ++failed;
  if (wrong) correct = false;
  if (failed <= 5) {
    std::fprintf(stderr, "dtbench: %s %s: %s\n",
                 wrong ? "WRONG" : "FAILED", what.c_str(), error.c_str());
  }
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string Report::ToJson() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    os << (first ? "" : ", ") << JsonString(m.name) << ": {\"value\": "
       << value << ", \"unit\": " << JsonString(m.unit) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

ScratchDir::ScratchDir(std::string path) : path_(std::move(path)) {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

int FailRun(const RunArgs& args, const char* stage, const Status& st) {
  std::fprintf(stderr, "dtbench: %s %s: %s\n", args.workload.c_str(), stage,
               st.ToString().c_str());
  return 1;
}

void EndToEnd::AddTo(Report* report) const {
  report->Add("setup_s", setup_s, "s");
  report->Add("peak_rss_mb", peak_rss_mb, "MB");
  report->Add("scaled_ops_per_cpu_s", ops_per_cpu_s, "1/s");
  report->Add("scaled_op_cpu_p50_ms", op_cpu_p50_ms, "ms");
  report->Add("scaled_op_cpu_p95_ms", op_cpu_p95_ms, "ms");
}

void EndToEnd::FromOps(const std::vector<double>& cpu_ms,
                       const std::vector<double>& wall_ms,
                       const HostSpeed& speed) {
  const std::vector<double> scaled = speed.Scale(cpu_ms);
  const double n = static_cast<double>(cpu_ms.size());
  op_samples = static_cast<int64_t>(cpu_ms.size());
  ops_per_cpu_s = 1e3 * n / Sum(scaled);
  op_cpu_p50_ms = Percentile(scaled, 0.5);
  op_cpu_p95_ms = Percentile(scaled, 0.95);
  raw_ops_per_cpu_s = 1e3 * n / Sum(cpu_ms);
  raw_op_cpu_p50_ms = Percentile(cpu_ms, 0.5);
  raw_op_cpu_p95_ms = Percentile(cpu_ms, 0.95);
  ops_per_wall_s = 1e3 * static_cast<double>(wall_ms.size()) / Sum(wall_ms);
  op_wall_p50_ms = Percentile(wall_ms, 0.5);
  op_wall_p95_ms = Percentile(wall_ms, 0.95);
  yardstick_ms = speed.MedianMs();
}

void EndToEnd::Print(const RunArgs& args) const {
  std::fprintf(stderr,
               "dtbench: %s seed=%llu trace=%d setup_s=%.3f "
               "scaled_ops_per_cpu_s=%.2f scaled_op_cpu_p50_ms=%.4f "
               "scaled_op_cpu_p95_ms=%.4f ops=%lld peak_rss_mb=%.1f | "
               "cpu: ops_per_s=%.2f p50_ms=%.4f p95_ms=%.4f | wall: "
               "ops_per_s=%.2f p50_ms=%.4f p95_ms=%.4f | yardstick_ms=%.4f "
               "steal_s=%.2f\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
               setup_s, ops_per_cpu_s, op_cpu_p50_ms, op_cpu_p95_ms,
               static_cast<long long>(op_samples), peak_rss_mb,
               raw_ops_per_cpu_s, raw_op_cpu_p50_ms, raw_op_cpu_p95_ms,
               ops_per_wall_s, op_wall_p50_ms, op_wall_p95_ms, yardstick_ms,
               StealSeconds() - steal_at_start_s);
}

}  // namespace dtbench
