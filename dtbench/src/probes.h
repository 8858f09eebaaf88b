/// \file probes.h
/// \brief Traced runs only: in-process probes of every layer, run after
/// the timed window on the workload's own state and inputs, and the
/// per-layer metrics derived from all spans of the run.

#pragma once

#include <cstdint>
#include <string>

#include "bench.h"
#include "corpus.h"
#include "read_mix.h"

namespace dtbench {

class Tracer;

/// \brief Runs every layer probe:
///  * the read split of `ProbeReads` over `tamer` and `mix`;
///  * `DomainParser::Parse` over the corpus fragments;
///  * the batch consolidation stages (`GenerateCandidatePairs`,
///    `ScoreCandidatePairs`, `ClusterPairs`, `MergeCluster`) and
///    `Consolidate` at 1 vs 4 threads, on one record per distinct
///    (type, name) of dt.entity for the consolidated types;
///  * `StreamingConsolidator::Ingest` over one round of the seeded
///    ingest stream;
///  * `DataTamer::IngestRecords` on a fresh durable facade under
///    `work_dir` (removed afterwards), with its WAL counters.
Status RunLayerProbes(const fusion::DataTamer& tamer, const TextCorpus& corpus,
                      const ReadMix& mix, uint64_t seed,
                      const std::string& work_dir, Tracer* tracer);

/// Adds every per-layer metric, derived from the run's spans.
void AddLayerMetrics(const Tracer& tracer, Report* report);

/// Writes the spans to `<work_dir>/trace-<workload>-seed<seed>.jsonl`
/// and names the file on stderr.
void WriteTrace(const Tracer& tracer, const RunArgs& args);

}  // namespace dtbench
