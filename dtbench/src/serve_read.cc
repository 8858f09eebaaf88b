// serve-read: the loaded, indexed corpus served read-only over
// loopback by a 2-worker DtServer; one connection keeps one request of
// the read mix in flight. The process runs on one CPU (PinToOneCpu),
// so each request's CPU time is measured whole.

#include "bench.h"
#include "corpus.h"
#include "fusion/data_tamer.h"
#include "host_speed.h"
#include "probes.h"
#include "read_mix.h"
#include "server/server.h"
#include "trace.h"

namespace dtbench {

namespace {

constexpr int kWorkers = 2;
/// Warm-up replays the whole mix this many times.
constexpr int64_t kWarmupCycles = 2;

}  // namespace

int RunServeRead(const RunArgs& args, int64_t process_start_ns,
                 Report* report) {
  const double steal_at_start_s = StealSeconds();
  Status st = PinToOneCpu();
  if (!st.ok()) return FailRun(args, "pin", st);
  Tracer tracer(args.trace);
  TextCorpus corpus = MakeTextCorpus(args.seed, kServeFragments);
  fusion::DataTamer tamer(FacadeOptions(1));
  LoadTimes load;
  st = LoadCorpus(&tamer, corpus, MakeStructuredSources(args.seed),
                         &tracer, &load);
  if (!st.ok()) return FailRun(args, "load", st);
  const ReadMix mix = BuildReadMix(tamer, corpus, args.seed);

  server::ServerOptions sopts;
  sopts.num_workers = kWorkers;
  server::DtServer srv(static_cast<const fusion::DataTamer*>(&tamer), sopts);
  st = srv.Start();
  if (!st.ok()) return FailRun(args, "server start", st);

  HostSpeed speed;
  // Warm-up: every lazy structure (the fragment text index, planner
  // statistics, allocator pools) exists before the window opens.
  LoopStats warm;
  Tracer off(false);
  st = RunReads(srv.port(), mix, 0, kWarmupCycles * RequestsPerCycle(mix),
                report, &warm, &off);
  if (!st.ok()) return FailRun(args, "warm-up", st);

  EndToEnd e2e;
  e2e.steal_at_start_s = steal_at_start_s;
  e2e.setup_s = SecondsSince(process_start_ns);
  LoopStats loop;
  const int64_t window_end =
      NowNs() + static_cast<int64_t>(args.seconds) * 1000000000;
  st = RunReads(srv.port(), mix, window_end, 0, report, &loop, &tracer,
                &speed);
  if (!st.ok()) return FailRun(args, "window", st);
  e2e.peak_rss_mb = PeakRssMb();
  srv.Stop();

  e2e.FromOps(loop.cpu_ms, loop.wall_ms, speed);
  e2e.Print(args);
  PrintClassLatencies(loop);

  if (!args.trace) {
    e2e.AddTo(report);
    return 0;
  }
  st = UnpinCpus();
  if (!st.ok()) return FailRun(args, "unpin", st);
  st = RunLayerProbes(tamer, corpus, mix, args.seed, args.work_dir, &tracer);
  if (!st.ok()) return FailRun(args, "probes", st);
  AddLayerMetrics(tracer, report);
  WriteTrace(tracer, args);
  return 0;
}

}  // namespace dtbench
