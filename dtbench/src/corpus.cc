#include "corpus.h"

#include <utility>

#include "common/rng.h"
#include "datagen/dedup_labels.h"
#include "datagen/ftables_gen.h"
#include "datagen/vocab.h"
#include "trace.h"

namespace dtbench {

const std::vector<std::string>& ConsolidatedTypes() {
  static const std::vector<std::string> kTypes = {"Movie", "Person",
                                                  "OrgEntity"};
  return kTypes;
}

const std::vector<std::string>& StandardIndexPaths() {
  static const std::vector<std::string> kPaths = {
      "type", "name", "surface", "confidence", "instance_id",
      "award_winning", "source"};
  return kPaths;
}

TextCorpus MakeTextCorpus(uint64_t seed, int64_t num_fragments) {
  datagen::WebTextGenOptions opts;
  opts.num_fragments = num_fragments;
  opts.seed = seed;
  datagen::WebTextGenerator gen(opts);
  TextCorpus corpus;
  corpus.gazetteer = gen.BuildGazetteer();
  corpus.titles = gen.titles();
  corpus.fragments = gen.Generate();
  return corpus;
}

std::vector<relational::Table> MakeStructuredSources(uint64_t seed,
                                                     int64_t* named_rows) {
  datagen::FTablesGenOptions opts;
  opts.num_sources = kStructuredSources;
  opts.seed = seed;
  // Fixed volume, seeded content: the row and attribute counts would
  // otherwise swing consolidation cost by a third from seed to seed.
  opts.min_rows = opts.max_rows = kStructuredRows;
  opts.min_attrs = opts.max_attrs = kStructuredAttrs;
  datagen::FusionTablesGenerator gen(opts);
  std::vector<relational::Table> tables;
  if (named_rows != nullptr) *named_rows = 0;
  for (auto& src : gen.Generate()) {
    const relational::Schema& schema = src.table.schema();
    for (int c = 0; c < schema.num_attributes(); ++c) {
      if (named_rows == nullptr ||
          src.attr_concept[schema.attribute(c).name] !=
              datagen::kConceptShowName) {
        continue;
      }
      for (int64_t r = 0; r < src.table.num_rows(); ++r) {
        const relational::Value& v = src.table.row(r)[c];
        if (v.is_null()) continue;
        const std::string text = v.ToString();
        const size_t first = text.find_first_not_of(" \t");
        if (first == std::string::npos) continue;
        const size_t last = text.find_last_not_of(" \t");
        if (text.substr(first, last - first + 1) == "N/A") continue;
        ++*named_rows;
      }
    }
    tables.push_back(std::move(src.table));
  }
  return tables;
}

std::vector<dedup::DedupRecord> MakeIngestRound(uint64_t seed, int round,
                                                int64_t first_id) {
  // The record stream is the same for every round of one seed; only
  // the type namespace and the ids move.
  dt::Rng rng(seed * 7919 + 17);
  const auto& first = datagen::FirstNames();
  const auto& last = datagen::LastNames();
  const auto& cities = datagen::Cities();
  std::vector<dedup::DedupRecord> records;
  while (static_cast<int>(records.size()) < kIngestRoundRecords) {
    const std::string name = rng.Pick(first) + " " + rng.Pick(last);
    const std::string city = rng.Pick(cities);
    const int copies = 1 + static_cast<int>(rng.Uniform(3));
    for (int c = 0; c < copies; ++c) {
      dedup::DedupRecord rec;
      rec.fields["name"] = c == 0 ? name : datagen::CorruptName(name, &rng);
      rec.fields["city"] = city;
      rec.source_id = "stream/" + std::to_string(rng.Uniform(4));
      rec.trust_priority = 1;
      records.push_back(std::move(rec));
    }
  }
  records.resize(kIngestRoundRecords);
  rng.Shuffle(&records);
  const std::string type = "Person-r" + std::to_string(round);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].entity_type = type;
    records[i].id = first_id + static_cast<int64_t>(i);
    // Non-zero, so the facade keeps it and the batch oracle sees the
    // same merge recency.
    records[i].ingest_seq = records[i].id + 1;
  }
  return records;
}

fusion::DataTamerOptions FacadeOptions(int num_threads) {
  fusion::DataTamerOptions opts;
  opts.collection_options.num_shards = 8;
  opts.collection_options.initial_extent_size_bytes = 1 << 14;
  opts.collection_options.max_extent_size_bytes = 1 << 20;
  opts.num_threads = num_threads;
  return opts;
}

Status LoadCorpus(fusion::DataTamer* tamer, const TextCorpus& corpus,
                  std::vector<relational::Table> sources, Tracer* tracer,
                  LoadTimes* times, uint64_t parent_span) {
  ScopedSpan load(tracer, "fusion.load_corpus", parent_span);
  tamer->SetGazetteer(&corpus.gazetteer);
  times->fragment_ms.reserve(corpus.fragments.size());
  times->fragment_cpu_ms.reserve(corpus.fragments.size());
  const int64_t load_start = NowNs();
  for (const auto& frag : corpus.fragments) {
    ScopedSpan span(tracer, "fusion.ingest_fragment", load.id());
    const int64_t t0 = NowNs();
    const int64_t cpu0 = ThreadCpuNs();
    Result<storage::DocId> id =
        tamer->IngestTextFragment(frag.text, frag.feed, frag.timestamp);
    times->fragment_cpu_ms.push_back(
        static_cast<double>(ThreadCpuNs() - cpu0) * 1e-6);
    times->fragment_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    if (!id.ok()) return id.status();
    times->instance_ids.push_back(*id);
  }
  times->fragments_s = SecondsSince(load_start);

  const int64_t index_start = NowNs();
  if (tracer->enabled()) {
    for (const std::string& path : StandardIndexPaths()) {
      ScopedSpan span(tracer, "storage.index.build." + path, load.id());
      DT_RETURN_NOT_OK(tamer->entity_collection()->CreateIndex(path.c_str()));
    }
  } else {
    DT_RETURN_NOT_OK(tamer->CreateStandardIndexes());
  }
  times->index_build_s = SecondsSince(index_start);

  const int64_t integrate_start = NowNs();
  for (auto& table : sources) {
    ScopedSpan span(tracer, "match.integrate", load.id());
    times->structured_rows += table.num_rows();
    span.Count("rows", table.num_rows());
    DT_RETURN_NOT_OK(tamer->IngestStructuredTable(std::move(table)).status());
  }
  times->integrate_s = SecondsSince(integrate_start);
  return Status::OK();
}

}  // namespace dtbench
