/// \file corpus.h
/// \brief The benchmark's inputs, all derived from the run's seed: the
/// web-text corpus, the FTABLES structured sources and the dedup
/// record stream, plus the loader that takes a facade through the
/// Fig. 1 pipeline.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "common/status.h"
#include "datagen/webtext_gen.h"
#include "dedup/record.h"
#include "fusion/data_tamer.h"
#include "relational/table.h"
#include "storage/index_key.h"
#include "textparse/gazetteer.h"

namespace dtbench {

class Tracer;

/// Fragments in the corpus the serving workloads load.
inline constexpr int64_t kServeFragments = 4000;
/// Fragments one bulk-load pass carries through the pipeline.
inline constexpr int64_t kBulkFragments = 2000;
/// FTABLES sources integrated by every load, each with this many rows
/// and attributes.
inline constexpr int kStructuredSources = 20;
inline constexpr int kStructuredRows = 60;
inline constexpr int kStructuredAttrs = 12;
/// Entity types `ConsolidateAll` runs over in a bulk-load pass.
const std::vector<std::string>& ConsolidatedTypes();
/// The standard index paths of dt.entity, in `CreateStandardIndexes`
/// order.
const std::vector<std::string>& StandardIndexPaths();

/// \brief Seeded web-text corpus. The gazetteer must outlive every
/// facade it is installed into.
struct TextCorpus {
  std::vector<datagen::GeneratedFragment> fragments;
  textparse::Gazetteer gazetteer;
  /// Movie/show titles, most discussed first.
  std::vector<std::string> titles;
};

TextCorpus MakeTextCorpus(uint64_t seed, int64_t num_fragments);

/// Seeded FTABLES sources (one table each). `named_rows`, when given,
/// receives the number of rows whose show-name cell holds a name: by
/// the generator's own truth, neither empty nor its "N/A" null marker.
std::vector<relational::Table> MakeStructuredSources(
    uint64_t seed, int64_t* named_rows = nullptr);

/// \brief One round of the ingest stream: `kIngestRoundRecords` dedup
/// records about a seeded set of people, each appearing one to three
/// times under dirty name variants, in seeded order. Every round
/// replays the same records under its own entity type
/// ("Person-r<round>"): blocking is type-scoped, so each round walks
/// the same residency path 0 -> kIngestRoundRecords. Ids and ingest
/// sequence numbers continue from `first_id`.
inline constexpr int kIngestRoundRecords = 500;
inline constexpr int kIngestBatch = 10;
std::vector<dedup::DedupRecord> MakeIngestRound(uint64_t seed, int round,
                                                int64_t first_id);

/// Facade options shared by every workload (extent sizing as the
/// repo's benches use; `num_threads` for the consolidation pool).
fusion::DataTamerOptions FacadeOptions(int num_threads);

/// \brief Fig. 1 load: every fragment through `IngestTextFragment`,
/// `CreateStandardIndexes`, then every source through
/// `IngestStructuredTable`. With tracing on, each call gets a span, all
/// children of one `fusion.load_corpus` span under `parent_span`, and
/// the index build is split into one `Collection::CreateIndex` per
/// standard path (the same work, timed per path). Stage wall times
/// land in `times`; `fragment_ms` and `fragment_cpu_ms` receive the
/// wall and thread CPU time of each `IngestTextFragment` call.
struct LoadTimes {
  double fragments_s = 0;
  double index_build_s = 0;
  double integrate_s = 0;
  int64_t structured_rows = 0;
  std::vector<double> fragment_ms;
  std::vector<double> fragment_cpu_ms;
  /// dt.instance id returned for each fragment, in corpus order.
  std::vector<storage::DocId> instance_ids;
};
Status LoadCorpus(fusion::DataTamer* tamer, const TextCorpus& corpus,
                  std::vector<relational::Table> sources, Tracer* tracer,
                  LoadTimes* times, uint64_t parent_span = 0);

}  // namespace dtbench
