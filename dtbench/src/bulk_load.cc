// bulk-load: the Fig. 1 pipeline in-process, no server. Each pass runs
// on a fresh facade: every fragment through IngestTextFragment, the
// standard indexes, every FTABLES source through IngestStructuredTable,
// then ConsolidateAll over each consolidated type on the facade's
// 4-thread pool. The first pass is warm-up; the figures are over all
// the passes that follow.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "corpus.h"
#include "fusion/data_tamer.h"
#include "host_speed.h"
#include "oracle.h"
#include "probes.h"
#include "read_mix.h"
#include "server/server.h"
#include "trace.h"

namespace dtbench {

namespace {

constexpr int kPoolThreads = 4;
constexpr int kMinTimedPasses = 3;
/// Yardstick samples before every timed pass and after the last.
constexpr int kSamplesPerPass = 2;
/// Recall floor of extracted mentions against the planted ones.
constexpr double kRecallFloor = 0.90;

using Composites = std::map<std::string, std::vector<dedup::CompositeEntity>>;

struct Pass {
  double total_s = 0;
  /// Process CPU time of the pass, every pool thread included.
  double cpu_s = 0;
  double consolidate_s = 0;
  LoadTimes load;
  Composites composites;
  std::unique_ptr<fusion::DataTamer> tamer;
};

Status RunPass(const TextCorpus& corpus,
               const std::vector<relational::Table>& sources, int threads,
               Report* report, Tracer* tracer, Pass* pass) {
  pass->tamer = std::make_unique<fusion::DataTamer>(FacadeOptions(threads));
  std::vector<relational::Table> tables = sources;
  ScopedSpan pass_span(tracer, "bulk.pass");
  const int64_t start = NowNs();
  const int64_t cpu_start = ProcessCpuNs();
  DT_RETURN_NOT_OK(LoadCorpus(pass->tamer.get(), corpus, std::move(tables),
                              tracer, &pass->load, pass_span.id()));
  const int64_t consolidate_start = NowNs();
  for (const std::string& type : ConsolidatedTypes()) {
    ScopedSpan span(tracer, "fusion.consolidate_all", pass_span.id());
    auto entities = pass->tamer->ConsolidateAll(type);
    if (!entities.ok()) return entities.status();
    span.Count("entities", static_cast<int64_t>(entities->size()));
    pass->composites[type] = std::move(*entities);
  }
  pass->consolidate_s = SecondsSince(consolidate_start);
  pass->total_s = SecondsSince(start);
  pass->cpu_s = static_cast<double>(ProcessCpuNs() - cpu_start) * 1e-9;
  // Every call of the pass was one operation.
  report->attempted += static_cast<int64_t>(corpus.fragments.size()) +
                       static_cast<int64_t>(sources.size()) +
                       static_cast<int64_t>(ConsolidatedTypes().size()) + 1;
  return Status::OK();
}

/// dt.instance holds one doc per fragment sent.
std::string CheckInstances(const Pass& pass, const TextCorpus& corpus) {
  std::vector<storage::DocId> ids = OracleFind(
      pass.tamer->instance_collection()->GetView(), nullptr, "", -1);
  if (ids.size() != corpus.fragments.size()) {
    return std::to_string(ids.size()) + " instance docs for " +
           std::to_string(corpus.fragments.size()) + " fragments";
  }
  return CheckIds(ids, pass.load.instance_ids);
}

/// Share of planted (type, name) mentions the parser extracted into
/// the fragment's instance doc.
double MentionRecall(const Pass& pass, const TextCorpus& corpus) {
  const storage::CollectionView view =
      pass.tamer->instance_collection()->GetView();
  std::map<storage::DocId, size_t> fragment_of;
  for (size_t i = 0; i < pass.load.instance_ids.size(); ++i) {
    fragment_of[pass.load.instance_ids[i]] = i;
  }
  int64_t planted = 0, found = 0;
  view.ForEach([&](storage::DocId id, const storage::DocValue& doc) {
    auto it = fragment_of.find(id);
    if (it == fragment_of.end()) return;
    std::multiset<std::pair<std::string, std::string>> extracted;
    const storage::DocValue* ents = doc.Find("entities");
    if (ents != nullptr && ents->is_array()) {
      for (const storage::DocValue& e : ents->array_items()) {
        const storage::DocValue* type = e.Find("type");
        const storage::DocValue* name = e.Find("name");
        if (type != nullptr && name != nullptr && type->is_string() &&
            name->is_string()) {
          extracted.emplace(type->string_value(), name->string_value());
        }
      }
    }
    const auto& truth = corpus.fragments[it->second].truth_mentions;
    for (const auto& [type, name] : truth) {
      ++planted;
      auto hit = extracted.find({textparse::EntityTypeName(type), name});
      if (hit != extracted.end()) {
        ++found;
        extracted.erase(hit);
      }
    }
  });
  return planted == 0 ? 0.0 : static_cast<double>(found) / planted;
}

/// The composites of every type partition the records numbered 1..N,
/// with N counted apart from the program (see OracleRecordCount).
std::string CheckComposites(const Pass& pass, int64_t named_rows) {
  const storage::CollectionView entity =
      pass.tamer->entity_collection()->GetView();
  for (const auto& [type, entities] : pass.composites) {
    std::string err =
        CheckCovers(entities, OracleRecordCount(entity, type, named_rows));
    if (!err.empty()) return type + ": " + err;
  }
  return "";
}

}  // namespace

int RunBulkLoad(const RunArgs& args, int64_t process_start_ns,
                Report* report) {
  const double steal_at_start_s = StealSeconds();
  Tracer tracer(args.trace);
  const TextCorpus corpus = MakeTextCorpus(args.seed, kBulkFragments);
  int64_t named_rows = 0;
  const std::vector<relational::Table> sources =
      MakeStructuredSources(args.seed, &named_rows);

  // Warm-up pass (part of set-up), then timed passes until the window
  // is used up.
  Pass pass;
  Tracer off(false);
  Status st = RunPass(corpus, sources, kPoolThreads, report, &off, &pass);
  if (!st.ok()) return FailRun(args, "warm-up pass", st);
  HostSpeed speed;
  EndToEnd e2e;
  e2e.steal_at_start_s = steal_at_start_s;
  e2e.setup_s = SecondsSince(process_start_ns);
  std::vector<double> pass_s, pass_cpu_s, fragment_cpu_ms, fragment_ms, stage_fragments_s, stage_index_s, stage_integrate_s,
      stage_consolidate_s;
  const double fragments = static_cast<double>(corpus.fragments.size());
  const int64_t window_start = NowNs();
  while (pass_s.size() < kMinTimedPasses ||
         SecondsSince(window_start) < args.seconds) {
    for (int i = 0; i < kSamplesPerPass; ++i) {
      speed.Sample(fragment_cpu_ms.size());
    }
    pass = Pass();
    st = RunPass(corpus, sources, kPoolThreads, report, &tracer, &pass);
    if (!st.ok()) return FailRun(args, "pass", st);
    pass_s.push_back(pass.total_s);
    pass_cpu_s.push_back(pass.cpu_s);
    fragment_cpu_ms.insert(fragment_cpu_ms.end(),
                           pass.load.fragment_cpu_ms.begin(),
                           pass.load.fragment_cpu_ms.end());
    fragment_ms.insert(fragment_ms.end(), pass.load.fragment_ms.begin(),
                       pass.load.fragment_ms.end());
    stage_fragments_s.push_back(pass.load.fragments_s);
    stage_index_s.push_back(pass.load.index_build_s);
    stage_integrate_s.push_back(pass.load.integrate_s);
    stage_consolidate_s.push_back(pass.consolidate_s);
    report->Op("instances", CheckInstances(pass, corpus), true);
    report->Op("partition", CheckComposites(pass, named_rows), true);
  }
  for (int i = 0; i < kSamplesPerPass; ++i) {
    speed.Sample(fragment_cpu_ms.size());
  }
  e2e.peak_rss_mb = PeakRssMb();
  // An operation is one fragment through the whole pipeline: a rate is
  // fragments over the CPU (or wall) time of all timed passes, the
  // percentiles are of the IngestTextFragment call.
  e2e.FromOps(fragment_cpu_ms, fragment_ms, speed);
  double scaled_cpu_s = 0;
  for (size_t p = 0; p < pass_cpu_s.size(); ++p) {
    const size_t first_fragment =
        p * static_cast<size_t>(corpus.fragments.size());
    scaled_cpu_s += pass_cpu_s[p] * speed.FactorAt(first_fragment);
  }
  const double timed = static_cast<double>(pass_s.size()) * fragments;
  e2e.ops_per_cpu_s = timed / scaled_cpu_s;
  e2e.raw_ops_per_cpu_s = timed / Sum(pass_cpu_s);
  e2e.ops_per_wall_s = timed / Sum(pass_s);

  // Outside the window: planted-mention recall, and the same pipeline
  // on one thread must give byte-identical composites.
  const double recall = MentionRecall(pass, corpus);
  report->Op("recall",
             recall >= kRecallFloor
                 ? ""
                 : "recall " + std::to_string(recall) + " under the floor",
             true);
  {
    Pass serial;
    st = RunPass(corpus, sources, 1, report, &off, &serial);
    if (!st.ok()) return FailRun(args, "1-thread pass", st);
    for (const std::string& type : ConsolidatedTypes()) {
      report->Op("threads_" + type,
                 CheckEntities(pass.composites[type], serial.composites[type]),
                 true);
    }
  }
  e2e.Print(args);
  std::fprintf(stderr,
               "dtbench:   passes=%zu pass_s=%.3f load_fragments_per_s=%.1f "
               "index_build_s=%.4f integrate_rows_per_s=%.1f "
               "consolidate_s=%.4f recall=%.4f\n",
               pass_s.size(), Median(pass_s),
               static_cast<double>(corpus.fragments.size()) /
                   Median(stage_fragments_s),
               Median(stage_index_s),
               static_cast<double>(pass.load.structured_rows) /
                   Median(stage_integrate_s),
               Median(stage_consolidate_s), recall);

  if (!args.trace) {
    e2e.AddTo(report);
    return 0;
  }
  // The layer probes, plus a short loopback replay of the read mix
  // over the last pass's facade for the server overhead.
  const ReadMix mix = BuildReadMix(*pass.tamer, corpus, args.seed);
  {
    server::ServerOptions sopts;
    sopts.num_workers = 2;
    const fusion::DataTamer* served = pass.tamer.get();
    server::DtServer srv(served, sopts);
    st = srv.Start();
    if (!st.ok()) return FailRun(args, "server start", st);
    LoopStats loop;
    st = RunReads(srv.port(), mix, 0, 4 * RequestsPerCycle(mix), report,
                  &loop, &tracer);
    if (!st.ok()) return FailRun(args, "loopback probe", st);
    srv.Stop();
  }
  st = RunLayerProbes(*pass.tamer, corpus, mix, args.seed, args.work_dir,
                      &tracer);
  if (!st.ok()) return FailRun(args, "probes", st);
  AddLayerMetrics(tracer, report);
  WriteTrace(tracer, args);
  return 0;
}

}  // namespace dtbench
