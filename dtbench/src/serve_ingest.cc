// serve-ingest: a durable facade (WAL in group mode, manual
// checkpoints only) loaded with the serving corpus. One connection
// pushes the seeded record stream through kIngest in fixed batches and
// sends the next request of the read mix (plus a find on dt.fused)
// after each acknowledged batch, one request in flight. The process
// runs on one CPU (PinToOneCpu), so each request's CPU time is
// measured whole.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "corpus.h"
#include "dedup/consolidation.h"
#include "fusion/data_tamer.h"
#include "host_speed.h"
#include "oracle.h"
#include "probes.h"
#include "read_mix.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/recovery.h"
#include "trace.h"

namespace dtbench {

namespace {

constexpr int kWorkers = 2;
constexpr int64_t kFusedFindLimit = 25;
/// Timed ingest rounds per second of --seconds (a round with its reads
/// takes 0.4-0.5 s on one CPU, so the stream fills about the asked
/// window).
constexpr int kRoundsPerSecond = 2;

/// The yardstick is sampled before every this many batches (60
/// requests with their reads, against one 10 ms sample).
constexpr size_t kBatchesPerSample = 30;

/// Sends `records` as one kIngest batch and waits for its
/// acknowledgement; appends the records to `acked` when all of them
/// were acknowledged. Its times go to `batch_stats` and `op_stats`.
Status SendBatch(server::DtClient* client,
                 std::vector<dedup::DedupRecord> records, Report* report,
                 LoopStats* batch_stats, LoopStats* op_stats,
                 std::vector<dedup::DedupRecord>* acked, Tracer* tracer) {
  query::QueryRequest req;
  req.op = query::QueryOp::kIngest;
  req.ingest_records = std::move(records);
  ScopedSpan span(tracer, "client.ingest_batch");
  const int64_t t0 = NowNs();
  const int64_t cpu0 = ProcessCpuNs();
  Result<query::QueryResponse> resp = client->Call(req);
  const double cpu = static_cast<double>(ProcessCpuNs() - cpu0) * 1e-6;
  const double wall = static_cast<double>(NowNs() - t0) * 1e-6;
  batch_stats->AddOther(wall, cpu);
  op_stats->AddOther(wall, cpu);
  if (!resp.ok()) {
    report->Op("ingest", resp.status().ToString(), /*wrong=*/false);
    return Status::OK();
  }
  const bool all =
      resp->ingested == static_cast<int64_t>(req.ingest_records.size());
  report->Op("ingest", all ? "" : "acknowledged a partial batch", !all);
  if (all) {
    for (auto& r : req.ingest_records) acked->push_back(std::move(r));
  }
  return Status::OK();
}

/// Sends round `round` of the stream in kIngestBatch-record batches,
/// each after the previous acknowledgement. With `reads` set, one
/// request of the read mix follows every batch; with `speed` set, the
/// yardstick is sampled before every kBatchesPerSample batches.
/// `ops` receives every request's times in the order they ran.
Status SendRound(server::DtClient* client, int round, uint64_t seed,
                 ReadLoop* reads, HostSpeed* speed, Report* report,
                 LoopStats* batches, LoopStats* ops,
                 std::vector<dedup::DedupRecord>* acked, Tracer* tracer) {
  std::vector<dedup::DedupRecord> records = MakeIngestRound(
      seed, round, static_cast<int64_t>(round) * kIngestRoundRecords);
  for (size_t b = 0; b < records.size(); b += kIngestBatch) {
    std::vector<dedup::DedupRecord> batch(
        records.begin() + b,
        records.begin() + std::min(records.size(), b + kIngestBatch));
    if (speed != nullptr &&
        batches->cpu_ms.size() % kBatchesPerSample == 0) {
      speed->Sample(ops->cpu_ms.size());
    }
    DT_RETURN_NOT_OK(SendBatch(client, std::move(batch), report, batches,
                               ops, acked, tracer));
    if (reads != nullptr) {
      DT_RETURN_NOT_OK(reads->Step(report, ops, tracer));
    }
  }
  return Status::OK();
}

/// The stable key of every entity: its smallest member id, which is
/// the record's arrival index (ids count up from 0 in arrival order).
std::vector<std::string> StableKeys(
    const std::vector<dedup::CompositeEntity>& entities) {
  std::vector<std::string> keys;
  for (const auto& e : entities) {
    int64_t low = e.member_record_ids.empty() ? -1 : e.member_record_ids[0];
    for (int64_t id : e.member_record_ids) low = std::min(low, id);
    keys.push_back(std::to_string(low));
  }
  return keys;
}

/// The cluster_id group keys of a count over dt.fused, as integers.
std::vector<std::string> GroupKeys(const std::vector<query::CountRow>& rows) {
  std::vector<std::string> keys;
  for (const auto& row : rows) {
    keys.push_back(
        std::to_string(static_cast<int64_t>(std::strtod(row.key.c_str(),
                                                        nullptr))));
  }
  return keys;
}

/// Clusters per entity type, count-desc/key-asc.
std::vector<query::CountRow> TypeCounts(
    const std::vector<dedup::CompositeEntity>& entities) {
  std::map<std::string, int64_t> counts;
  for (const auto& e : entities) ++counts[e.entity_type];
  return RankGroups(counts, -1);
}

/// Clusters per merged name, count-desc/key-asc.
std::vector<query::CountRow> NameCounts(
    const std::vector<dedup::CompositeEntity>& entities) {
  std::map<std::string, int64_t> counts;
  for (const auto& e : entities) {
    auto it = e.fields.find("name");
    if (it != e.fields.end()) ++counts[it->second];
  }
  return RankGroups(counts, -1);
}

/// The documents of dt.fused as the closed WAL directory `dopts.dir`
/// holds them: the store recovered by `storage::WalManager::Open`, the
/// path `DataTamer::Open` takes, without the facade's reconcile of
/// dt.fused against the record log (the facade hands out no handle on
/// dt.fused).
Result<std::vector<storage::DocValue>> DurableFusedDocs(
    const storage::DurabilityOptions& dopts) {
  std::unique_ptr<storage::DocumentStore> store;
  DT_ASSIGN_OR_RETURN(std::unique_ptr<storage::WalManager> wal,
                      storage::WalManager::Open(dopts, "dt", &store));
  if (store == nullptr) return Status::NotFound("empty WAL directory");
  DT_ASSIGN_OR_RETURN(storage::Collection * fused,
                      store->GetCollection("fused"));
  std::vector<storage::DocValue> docs;
  fused->ForEach([&](storage::DocId, const storage::DocValue& doc) {
    docs.push_back(doc);
  });
  return docs;
}

query::QueryRequest CountFused(const char* path) {
  query::QueryRequest req;
  req.op = query::QueryOp::kCount;
  req.collection = "fused";
  req.group_path = path;
  return req;
}

}  // namespace

int RunServeIngest(const RunArgs& args, int64_t process_start_ns,
                   Report* report) {
  const double steal_at_start_s = StealSeconds();
  Status st = PinToOneCpu();
  if (!st.ok()) return FailRun(args, "pin", st);
  Tracer tracer(args.trace);
  const ScratchDir dir(args.work_dir + "/ingest-wal-" +
                       std::to_string(static_cast<long>(getpid())));
  fusion::DataTamerOptions opts = FacadeOptions(1);
  opts.durability.dir = dir.path();
  opts.durability.durability = storage::Durability::kGroup;
  // Manual checkpoints only: none runs inside the window.
  opts.durability.checkpoint_wal_bytes = 0;

  TextCorpus corpus = MakeTextCorpus(args.seed, kServeFragments);
  {
    // The corpus goes in with the WAL in async mode, then folds into a
    // checkpoint: a group-mode load waits on one fsync per insert, and
    // the disk's fsync times spread set-up by a third from run to run.
    fusion::DataTamerOptions load_opts = opts;
    load_opts.durability.durability = storage::Durability::kAsync;
    auto loading = fusion::DataTamer::Open(load_opts);
    if (!loading.ok()) return FailRun(args, "open", loading.status());
    LoadTimes load;
    st = LoadCorpus(loading->get(), corpus, MakeStructuredSources(args.seed),
                    &tracer, &load);
    if (!st.ok()) return FailRun(args, "load", st);
    st = (*loading)->Checkpoint();
    if (!st.ok()) return FailRun(args, "checkpoint", st);
  }
  // Reopened in group mode: the window's WAL carries only the ingest
  // stream, and the final reopen replays just that.
  auto opened = fusion::DataTamer::Open(opts);
  if (!opened.ok()) return FailRun(args, "open", opened.status());
  std::unique_ptr<fusion::DataTamer> tamer = std::move(*opened);
  ReadMix mix = BuildReadMix(*tamer, corpus, args.seed);

  server::ServerOptions sopts;
  sopts.num_workers = kWorkers;
  auto srv = std::make_unique<server::DtServer>(tamer.get(), sopts);
  st = srv->Start();
  if (!st.ok()) return FailRun(args, "server start", st);
  auto ingest_client = server::DtClient::Connect("127.0.0.1", srv->port());
  if (!ingest_client.ok()) {
    return FailRun(args, "connect", ingest_client.status());
  }

  // Warm-up: round 0 creates the streaming state, the fused collection
  // and the WAL segment's tail; one pass of reads builds the text index.
  std::vector<dedup::DedupRecord> acked;
  Tracer off(false);
  LoopStats warm;
  st = SendRound(ingest_client->get(), 0, args.seed, nullptr, nullptr, report,
                 &warm, &warm, &acked, &off);
  if (!st.ok()) return FailRun(args, "warm-up ingest", st);
  {
    // Round 0's fused docs never change again: the fused find reads
    // them beside the writes and must return a prefix of this set.
    ReadItem fused;
    fused.cls = ReadClass::kFusedFind;
    fused.req.op = query::QueryOp::kFind;
    fused.req.collection = "fused";
    fused.req.predicate = query::Predicate::Eq(
        "entity_type", storage::DocValue::Str("Person-r0"));
    Result<query::QueryResponse> all = (*ingest_client)->Call(fused.req);
    if (!all.ok()) return FailRun(args, "fused baseline", all.status());
    auto round0 = dedup::Consolidate(acked, dedup::ConsolidationOptions{});
    if (!round0.ok()) return FailRun(args, "round 0 oracle", round0.status());
    const bool same = all->ids.size() == round0->size();
    report->Op("fused_baseline",
               same ? "" : std::to_string(all->ids.size()) +
                               " fused docs for round 0, expected " +
                               std::to_string(round0->size()),
               !same);
    fused.allowed_ids = all->ids;
    std::sort(fused.allowed_ids.begin(), fused.allowed_ids.end());
    fused.req.limit = kFusedFindLimit;
    mix.items.push_back(std::move(fused));
    mix.cycle.push_back(static_cast<int>(mix.items.size()) - 1);
  }
  ReadLoop reads((*ingest_client).get(), mix, mix.seed * 1009 + 11);
  for (int64_t i = 0; i < 2 * RequestsPerCycle(mix); ++i) {
    st = reads.Step(report, &warm, &off);
    if (!st.ok()) return FailRun(args, "warm-up reads", st);
  }
  const size_t resident_at_start = acked.size();

  HostSpeed speed;
  EndToEnd e2e;
  e2e.steal_at_start_s = steal_at_start_s;
  e2e.setup_s = SecondsSince(process_start_ns);
  const int64_t window_start = NowNs();
  // Fixed work: the same rounds every run, whatever the box's speed,
  // so the final state and the residency path repeat exactly.
  const int rounds = kRoundsPerSecond * args.seconds;
  LoopStats batches, loop;
  for (int round = 1; round <= rounds; ++round) {
    st = SendRound(ingest_client->get(), round, args.seed, &reads, &speed,
                   report, &batches, &loop, &acked, &tracer);
    if (!st.ok()) return FailRun(args, "window", st);
  }
  const double window_s = SecondsSince(window_start);
  e2e.peak_rss_mb = PeakRssMb();

  // Every request of the window is one operation: the batches and the
  // reads between them.
  e2e.FromOps(loop.cpu_ms, loop.wall_ms, speed);
  e2e.Print(args);
  PrintClassLatencies(loop);
  const size_t timed_records = acked.size() - resident_at_start;
  std::fprintf(stderr,
               "dtbench:   ingest rounds=%d records=%zu (resident %zu -> %zu) "
               "window_s=%.2f batch_cpu_p50_ms=%.4f batch_wall_p50_ms=%.4f "
               "records_per_cpu_s=%.1f\n",
               rounds, timed_records, resident_at_start, acked.size(),
               window_s, Percentile(batches.cpu_ms, 0.5),
               Percentile(batches.wall_ms, 0.5),
               1e3 * static_cast<double>(timed_records) /
                   Sum(batches.cpu_ms));

  // ---- final state: dt.fused vs the batch oracle ----
  auto oracle = dedup::Consolidate(acked, dedup::ConsolidationOptions{});
  if (!oracle.ok()) return FailRun(args, "oracle", oracle.status());
  std::vector<int64_t> acked_ids;
  for (const auto& r : acked) acked_ids.push_back(r.id);
  {
    // Over the wire: clusters per type, their keys and merged names.
    auto types = (*ingest_client)->Call(CountFused("entity_type"));
    if (!types.ok()) return FailRun(args, "fused types", types.status());
    report->Op("fused_types", CheckGroups(types->groups, TypeCounts(*oracle)),
               true);
    auto keys = (*ingest_client)->Call(CountFused("cluster_id"));
    if (!keys.ok()) return FailRun(args, "fused keys", keys.status());
    report->Op("fused_keys",
               CheckSameKeys(GroupKeys(keys->groups), StableKeys(*oracle)),
               true);
    auto names = (*ingest_client)->Call(CountFused("fields.name"));
    if (!names.ok()) return FailRun(args, "fused names", names.status());
    report->Op("fused_names", CheckGroups(names->groups, NameCounts(*oracle)),
               true);
  }
  (*ingest_client)->Close();
  srv->Stop();
  srv.reset();

  // Traced runs probe the layers on the live facade before it closes.
  if (args.trace) {
    st = UnpinCpus();
    if (!st.ok()) return FailRun(args, "unpin", st);
    st = RunLayerProbes(*tamer, corpus, mix, args.seed, args.work_dir,
                        &tracer);
    if (!st.ok()) return FailRun(args, "probes", st);
  }
  tamer.reset();

  // ---- dt.fused field for field, as the stream left it on disk ----
  {
    auto docs = DurableFusedDocs(opts.durability);
    if (!docs.ok()) return FailRun(args, "fused docs", docs.status());
    report->Op("fused_docs", CheckFusedDocs(*docs, *oracle, acked_ids), true);
  }

  // ---- recovery: the facade reopens the WAL directory ----
  {
    auto reopened = fusion::DataTamer::Open(opts);
    if (!reopened.ok()) return FailRun(args, "reopen", reopened.status());
    auto entities = (*reopened)->IngestedEntities();
    if (!entities.ok()) {
      return FailRun(args, "recovered entities", entities.status());
    }
    report->Op("recovered_partition", CheckPartition(*entities, acked_ids),
               true);
    report->Op("recovered_entities", CheckEntities(*entities, *oracle), true);
    auto keys = (*reopened)->Execute(CountFused("cluster_id"));
    if (!keys.ok()) return FailRun(args, "recovered keys", keys.status());
    report->Op("recovered_fused",
               CheckSameKeys(GroupKeys(keys->groups), StableKeys(*oracle)),
               true);
  }

  if (!args.trace) {
    e2e.AddTo(report);
    return 0;
  }
  AddLayerMetrics(tracer, report);
  WriteTrace(tracer, args);
  return 0;
}

}  // namespace dtbench
