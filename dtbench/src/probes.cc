#include "probes.h"

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "dedup/blocking.h"
#include "dedup/clustering.h"
#include "dedup/consolidation.h"
#include "dedup/streaming.h"
#include "fusion/data_tamer.h"
#include "textparse/domain_parser.h"
#include "trace.h"

namespace dtbench {

namespace {

constexpr int kReadReps = 10;
constexpr int kDedupReps = 3;
constexpr size_t kParseFragments = 1000;

/// One record per distinct (type, name) of dt.entity, for the
/// consolidated types, in first-seen order.
std::vector<dedup::DedupRecord> EntityRecords(const fusion::DataTamer& tamer) {
  std::set<std::string> types(ConsolidatedTypes().begin(),
                              ConsolidatedTypes().end());
  std::set<std::pair<std::string, std::string>> seen;
  std::vector<dedup::DedupRecord> records;
  tamer.entity_collection()->GetView().ForEach(
      [&](storage::DocId, const storage::DocValue& doc) {
        const storage::DocValue* type = doc.Find("type");
        const storage::DocValue* name = doc.Find("name");
        if (type == nullptr || name == nullptr || !type->is_string() ||
            !name->is_string() || types.count(type->string_value()) == 0) {
          return;
        }
        if (!seen.emplace(type->string_value(), name->string_value()).second) {
          return;
        }
        dedup::DedupRecord rec;
        rec.id = static_cast<int64_t>(records.size());
        rec.entity_type = type->string_value();
        rec.fields["name"] = name->string_value();
        rec.source_id = "webtext";
        records.push_back(std::move(rec));
      });
  return records;
}

void ProbeParse(const TextCorpus& corpus, Tracer* tracer) {
  textparse::DomainParser parser(&corpus.gazetteer);
  const size_t n = std::min(kParseFragments, corpus.fragments.size());
  for (size_t i = 0; i < n; ++i) {
    const auto& frag = corpus.fragments[i];
    ScopedSpan span(tracer, "textparse.parse");
    textparse::ParsedFragment parsed =
        parser.Parse(frag.text, frag.feed, frag.timestamp);
    span.Count("mentions", static_cast<int64_t>(parsed.mentions.size()));
  }
}

Status ProbeBatchDedup(const fusion::DataTamer& tamer, Tracer* tracer) {
  const std::vector<dedup::DedupRecord> records = EntityRecords(tamer);
  dedup::ConsolidationOptions opts;
  for (int r = 0; r < kDedupReps; ++r) {
    std::vector<std::pair<size_t, size_t>> candidates;
    {
      ScopedSpan span(tracer, "dedup.blocking");
      dedup::BlockingStats bs;
      candidates = dedup::GenerateCandidatePairs(records, opts.blocking, &bs);
      span.Count("candidate_pairs", bs.candidate_pairs);
    }
    std::vector<std::pair<size_t, size_t>> matches;
    {
      ScopedSpan span(tracer, "dedup.scoring");
      DT_RETURN_NOT_OK(dedup::ScoreCandidatePairs(records, candidates, opts,
                                                  nullptr, &matches));
      span.Count("scored", static_cast<int64_t>(candidates.size()));
      span.Count("matched", static_cast<int64_t>(matches.size()));
    }
    std::vector<std::vector<size_t>> clusters;
    {
      ScopedSpan span(tracer, "dedup.clustering");
      clusters = dedup::ClusterPairs(records.size(), matches);
    }
    {
      ScopedSpan span(tracer, "dedup.merge");
      for (size_t c = 0; c < clusters.size(); ++c) {
        (void)dedup::MergeCluster(records, clusters[c],
                                  static_cast<int64_t>(c), opts.merge_policy);
      }
    }
  }
  dt::ThreadPool pool(4);
  for (int r = 0; r < kDedupReps; ++r) {
    for (int threads : {1, 4}) {
      dedup::ConsolidationOptions o;
      o.num_threads = threads;
      o.pool = threads > 1 ? &pool : nullptr;
      ScopedSpan span(tracer, "dedup.consolidate.t" + std::to_string(threads));
      DT_RETURN_NOT_OK(dedup::Consolidate(records, o).status());
    }
  }
  return Status::OK();
}

Status ProbeStreaming(uint64_t seed, Tracer* tracer) {
  ScopedSpan round(tracer, "dedup.streaming.round");
  dedup::StreamingConsolidator engine{dedup::ConsolidationOptions{}};
  for (dedup::DedupRecord& rec : MakeIngestRound(seed, 0, 0)) {
    const dedup::StreamingStats before = engine.stats();
    ScopedSpan span(tracer, "dedup.streaming.ingest", round.id());
    DT_ASSIGN_OR_RETURN(dedup::StreamingConsolidator::IngestDelta delta,
                        engine.Ingest(std::move(rec)));
    span.Count("candidates", engine.stats().candidates_generated -
                                 before.candidates_generated);
    span.Count("pairs", delta.pairs_scored);
    span.Count("matched", delta.pairs_matched);
  }
  round.Count("retired_blocks", engine.stats().retired_blocks);
  return Status::OK();
}

Status ProbeFacadeIngest(uint64_t seed, const std::string& work_dir,
                         Tracer* tracer) {
  const ScratchDir dir(work_dir + "/probe-wal-" +
                       std::to_string(static_cast<long>(getpid())));
  fusion::DataTamerOptions opts = FacadeOptions(1);
  opts.durability.dir = dir.path();
  opts.durability.durability = storage::Durability::kGroup;
  opts.durability.checkpoint_wal_bytes = 0;
  DT_ASSIGN_OR_RETURN(std::unique_ptr<fusion::DataTamer> tamer,
                      fusion::DataTamer::Open(opts));
  std::vector<dedup::DedupRecord> records = MakeIngestRound(seed, 0, 0);
  for (size_t b = 0; b < records.size(); b += kIngestBatch) {
    std::vector<dedup::DedupRecord> batch(
        records.begin() + b,
        records.begin() + std::min(records.size(), b + kIngestBatch));
    const int64_t n = static_cast<int64_t>(batch.size());
    const storage::DurabilityStats before = tamer->durability_stats();
    ScopedSpan span(tracer, "fusion.ingest");
    DT_ASSIGN_OR_RETURN(fusion::IngestResult r,
                        tamer->IngestRecords(std::move(batch)));
    const storage::DurabilityStats after = tamer->durability_stats();
    span.Count("records", n);
    span.Count("upserts", r.clusters_upserted);
    span.Count("wal_appends",
               static_cast<int64_t>(after.wal_appends - before.wal_appends));
    span.Count("wal_bytes",
               static_cast<int64_t>(after.wal_bytes - before.wal_bytes));
    span.Count("wal_syncs",
               static_cast<int64_t>(after.wal_syncs - before.wal_syncs));
    span.Count("wal_group_batches",
               static_cast<int64_t>(after.wal_group_batches -
                                    before.wal_group_batches));
  }
  return Status::OK();
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

Status RunLayerProbes(const fusion::DataTamer& tamer, const TextCorpus& corpus,
                      const ReadMix& mix, uint64_t seed,
                      const std::string& work_dir, Tracer* tracer) {
  ProbeReads(tamer, mix, kReadReps, tracer);
  ProbeParse(corpus, tracer);
  DT_RETURN_NOT_OK(ProbeBatchDedup(tamer, tracer));
  DT_RETURN_NOT_OK(ProbeStreaming(seed, tracer));
  return ProbeFacadeIngest(seed, work_dir, tracer);
}

void AddLayerMetrics(const Tracer& t, Report* report) {
  AddReadLayerMetrics(t, report);

  const std::string ingest = "dedup.streaming.ingest";
  const double records = static_cast<double>(t.NumSpans(ingest));
  report->Add("dedup.streaming.ingest_us", t.MedianUs(ingest), "us");
  report->Add("dedup.streaming.candidates_per_record",
              Ratio(t.SumCount(ingest, "candidates"), records), "count");
  report->Add("dedup.streaming.pairs_per_record",
              Ratio(t.SumCount(ingest, "pairs"), records), "count");
  report->Add("dedup.streaming.match_rate",
              Ratio(t.SumCount(ingest, "matched"), t.SumCount(ingest, "pairs")),
              "ratio");
  report->Add("dedup.streaming.retired_blocks",
              t.SumCount("dedup.streaming.round", "retired_blocks"), "count");

  const std::string facade = "fusion.ingest";
  const double facade_records = t.SumCount(facade, "records");
  report->Add("fusion.ingest_us",
              Ratio(t.TotalUs(facade), facade_records), "us");
  report->Add("fusion.upserts_per_record",
              Ratio(t.SumCount(facade, "upserts"), facade_records), "count");
  report->Add("storage.wal.appends_per_record",
              Ratio(t.SumCount(facade, "wal_appends"), facade_records),
              "count");
  report->Add("storage.wal.bytes_per_record",
              Ratio(t.SumCount(facade, "wal_bytes"), facade_records), "bytes");
  report->Add("storage.wal.syncs_per_record",
              Ratio(t.SumCount(facade, "wal_syncs"), facade_records), "count");
  report->Add("storage.wal.group_batches",
              t.SumCount(facade, "wal_group_batches"), "count");

  report->Add("textparse.parse_us", t.MedianUs("textparse.parse"), "us");
  report->Add("textparse.mentions_per_fragment",
              Ratio(t.SumCount("textparse.parse", "mentions"),
                    t.NumSpans("textparse.parse")),
              "count");
  report->Add("fusion.ingest_fragment_us",
              t.MedianUs("fusion.ingest_fragment"), "us");
  for (const std::string& path : StandardIndexPaths()) {
    report->Add("storage.index.build_s." + path,
                t.MedianUs("storage.index.build." + path) * 1e-6, "s");
  }
  report->Add("match.integrate_ms_per_table",
              t.MedianUs("match.integrate") * 1e-3, "ms");

  report->Add("dedup.blocking_s", t.MedianUs("dedup.blocking") * 1e-6, "s");
  report->Add("dedup.candidate_pairs",
              Ratio(t.SumCount("dedup.blocking", "candidate_pairs"),
                    t.NumSpans("dedup.blocking")),
              "count");
  report->Add("dedup.scoring_s", t.MedianUs("dedup.scoring") * 1e-6, "s");
  report->Add("dedup.match_rate",
              Ratio(t.SumCount("dedup.scoring", "matched"),
                    t.SumCount("dedup.scoring", "scored")),
              "ratio");
  report->Add("dedup.clustering_s", t.MedianUs("dedup.clustering") * 1e-6,
              "s");
  report->Add("dedup.merge_s", t.MedianUs("dedup.merge") * 1e-6, "s");

  const double one = t.MedianUs("dedup.consolidate.t1") * 1e-6;
  const double four = t.MedianUs("dedup.consolidate.t4") * 1e-6;
  report->Add("common.thread_pool.consolidate_1t_s", one, "s");
  report->Add("common.thread_pool.consolidate_4t_s", four, "s");
  report->Add("common.thread_pool.speedup", Ratio(one, four), "x");
}

void WriteTrace(const Tracer& tracer, const RunArgs& args) {
  const std::string path = args.work_dir + "/trace-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".jsonl";
  if (tracer.WriteJsonLines(path)) {
    std::fprintf(stderr, "dtbench: spans written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "dtbench: could not write %s\n", path.c_str());
  }
}

}  // namespace dtbench
