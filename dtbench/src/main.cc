// dtbench: one named workload of the Data Tamer end-to-end benchmark.
//
//   dtbench --workload <serve-read|serve-ingest|bulk-load> --seed <n>
//           --seconds <s> --trace <0|1> --work-dir <dir>
//
// The last line of standard output is the run's JSON result; progress
// and the human-readable figures go to standard error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

bool ParseArgs(int argc, char** argv, dtbench::RunArgs* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value, &end, 10));
      if (*end != '\0' || args->seconds < 1) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t start_ns = dtbench::NowNs();
  dtbench::RunArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dtbench --workload <serve-read|serve-ingest|"
                 "bulk-load> --seed <n> --seconds <s> --trace <0|1> "
                 "--work-dir <dir>\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "dtbench: cannot create %s\n", args.work_dir.c_str());
    return 1;
  }
  dtbench::Report report;
  int rc = 0;
  if (args.workload == "serve-read") {
    rc = dtbench::RunServeRead(args, start_ns, &report);
  } else if (args.workload == "serve-ingest") {
    rc = dtbench::RunServeIngest(args, start_ns, &report);
  } else if (args.workload == "bulk-load") {
    rc = dtbench::RunBulkLoad(args, start_ns, &report);
  } else {
    std::fprintf(stderr, "dtbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  if (report.attempted < 1) {
    std::fprintf(stderr, "dtbench: no operation was attempted\n");
    return 1;
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
