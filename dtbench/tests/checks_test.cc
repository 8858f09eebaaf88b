// Shows that every correctness check of the benchmark can fail: each
// check gets the right answer (must pass) and one corrupted answer
// (must count a failed, wrong operation). Also replays the read mix
// in-process over a small corpus so the oracles are seen agreeing with
// the program before any corruption.
//
//   python3 dtbench/run.py --self-test

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "corpus.h"
#include "fusion/data_tamer.h"
#include "oracle.h"
#include "read_mix.h"
#include "trace.h"

namespace {

using dtbench::Report;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

/// The right answer passes; the corrupted one is one failed, wrong op.
void ExpectCatches(const std::string& what, const std::string& on_right,
                   const std::string& on_corrupt) {
  Expect(on_right.empty(), what + ": right answer rejected: " + on_right);
  Report report;
  report.Op(what, on_corrupt, /*wrong=*/true);
  Expect(report.attempted == 1 && report.failed == 1 && !report.correct,
         what + ": corrupted answer accepted");
}

dt::dedup::CompositeEntity Entity(int64_t cluster,
                                  std::vector<int64_t> members) {
  dt::dedup::CompositeEntity e;
  e.cluster_id = cluster;
  e.entity_type = "Person-r0";
  e.fields["name"] = "name" + std::to_string(cluster);
  e.member_record_ids = std::move(members);
  e.contributing_sources = {"stream/0"};
  return e;
}

void CheckPrimitives() {
  const std::vector<dt::storage::DocId> ids = {3, 7, 9, 12, 20};

  std::vector<dt::storage::DocId> dropped = ids;
  dropped.erase(dropped.begin() + 2);
  ExpectCatches("dropped id", dtbench::CheckIds(ids, ids),
                dtbench::CheckIds(dropped, ids));

  std::vector<dt::storage::DocId> swapped = ids;
  std::swap(swapped[1], swapped[3]);
  ExpectCatches("swapped ids", dtbench::CheckIds(ids, ids),
                dtbench::CheckIds(swapped, ids));

  const std::vector<dt::query::CountRow> groups = {{"Matilda", 9},
                                                   {"Wicked", 4}};
  std::vector<dt::query::CountRow> miscounted = groups;
  miscounted[1].count += 1;
  ExpectCatches("wrong group count", dtbench::CheckGroups(groups, groups),
                dtbench::CheckGroups(miscounted, groups));

  // Pages of 2 over the 5-id stream: page 1 is {9, 12} with a token.
  ExpectCatches("page dropped id",
                dtbench::CheckPage({9, 12}, true, ids, 1, 2),
                dtbench::CheckPage({9}, true, ids, 1, 2));
  ExpectCatches("page without token",
                dtbench::CheckPage({9, 12}, true, ids, 1, 2),
                dtbench::CheckPage({9, 12}, false, ids, 1, 2));
  ExpectCatches("token after last page",
                dtbench::CheckPage({20}, false, ids, 2, 2),
                dtbench::CheckPage({20}, true, ids, 2, 2));

  ExpectCatches("fused id twice", dtbench::CheckFoundWithin({3, 7}, 2, ids),
                dtbench::CheckFoundWithin({3, 3}, 2, ids));
  ExpectCatches("fused over limit", dtbench::CheckFoundWithin({3, 7}, 2, ids),
                dtbench::CheckFoundWithin({3, 7, 9}, 2, ids));
  ExpectCatches("fused id fails predicate",
                dtbench::CheckFoundWithin({3, 7}, 2, ids),
                dtbench::CheckFoundWithin({3, 8}, 2, ids));

  const std::vector<std::string> keys = {"0", "4", "17"};
  ExpectCatches("recovered set missing one doc",
                dtbench::CheckSameKeys({"17", "0", "4"}, keys),
                dtbench::CheckSameKeys({"0", "17"}, keys));

  const std::vector<dt::dedup::CompositeEntity> want = {Entity(0, {0, 2}),
                                                        Entity(1, {1, 3})};
  std::vector<dt::dedup::CompositeEntity> moved = want;
  moved[0].member_record_ids = {0};
  moved[1].member_record_ids = {1, 2, 3};
  ExpectCatches("record moved to another cluster",
                dtbench::CheckEntities(want, want),
                dtbench::CheckEntities(moved, want));
  std::vector<dt::dedup::CompositeEntity> doubled = want;
  doubled[1].member_record_ids = {1, 2, 3};
  ExpectCatches("record in two clusters",
                dtbench::CheckPartition(want, {0, 1, 2, 3}),
                dtbench::CheckPartition(doubled, {0, 1, 2, 3}));
  ExpectCatches("record in no cluster",
                dtbench::CheckPartition(want, {0, 1, 2, 3}),
                dtbench::CheckPartition(want, {0, 1, 2, 3, 4}));

  // Batch composites over records 1..4.
  const std::vector<dt::dedup::CompositeEntity> batch = {Entity(0, {1, 3}),
                                                         Entity(1, {2, 4})};
  std::vector<dt::dedup::CompositeEntity> no_last = batch;
  no_last[1].member_record_ids = {2};
  ExpectCatches("composites drop the last record",
                dtbench::CheckCovers(batch, 4),
                dtbench::CheckCovers(no_last, 4));
  std::vector<dt::dedup::CompositeEntity> no_first = batch;
  no_first[0].member_record_ids = {3};
  ExpectCatches("composites drop the first record",
                dtbench::CheckCovers(batch, 4),
                dtbench::CheckCovers(no_first, 4));
}

/// dt.fused docs as the facade writes them: cluster_id is the stable
/// key (smallest member), not the dense batch id.
std::vector<dt::storage::DocValue> FusedDocsOf(
    std::vector<dt::dedup::CompositeEntity> entities) {
  std::vector<dt::storage::DocValue> docs;
  for (auto& e : entities) {
    e.cluster_id = e.member_record_ids.front();
    docs.push_back(dt::dedup::CompositeEntityToDoc(e));
  }
  return docs;
}

void CheckFused() {
  // Oracle: batch ids 0, 1 over records 0..3; stable keys 0 and 1.
  const std::vector<dt::dedup::CompositeEntity> want = {Entity(0, {0, 2}),
                                                        Entity(1, {1, 3})};
  const std::vector<int64_t> ids = {0, 1, 2, 3};
  const std::string right = dtbench::CheckFusedDocs(FusedDocsOf(want), want,
                                                    ids);

  std::vector<dt::dedup::CompositeEntity> moved = want;
  moved[0].member_record_ids = {0};
  moved[1].member_record_ids = {1, 2, 3};
  ExpectCatches("fused record moved, keys kept", right,
                dtbench::CheckFusedDocs(FusedDocsOf(moved), want, ids));

  std::vector<dt::dedup::CompositeEntity> stale = want;
  stale[1].fields["name"] = "stale name";
  ExpectCatches("fused stale field merge", right,
                dtbench::CheckFusedDocs(FusedDocsOf(stale), want, ids));

  std::vector<dt::storage::DocValue> missing = FusedDocsOf(want);
  missing.pop_back();
  ExpectCatches("fused set missing one doc", right,
                dtbench::CheckFusedDocs(missing, want, ids));

  std::vector<dt::storage::DocValue> wrong_key = FusedDocsOf(want);
  wrong_key[1] = dt::dedup::CompositeEntityToDoc(Entity(3, {1, 3}));
  ExpectCatches("fused key is not the smallest member", right,
                dtbench::CheckFusedDocs(wrong_key, want, ids));
}

/// The read mix over a small corpus: every program answer matches its
/// oracle, and a corrupted copy of each is caught.
void CheckReadMix() {
  const dtbench::TextCorpus corpus = dtbench::MakeTextCorpus(7, 300);
  dt::fusion::DataTamer tamer(dtbench::FacadeOptions(1));
  dtbench::Tracer off(false);
  dtbench::LoadTimes load;
  dt::Status st = dtbench::LoadCorpus(
      &tamer, corpus, dtbench::MakeStructuredSources(7), &off, &load);
  Expect(st.ok(), "load: " + st.ToString());

  // Batch consolidation partitions exactly the records the benchmark
  // counts on its own; a copy without the last record is caught.
  int64_t named_rows = 0;
  (void)dtbench::MakeStructuredSources(7, &named_rows);
  for (const std::string& type : dtbench::ConsolidatedTypes()) {
    auto entities = tamer.ConsolidateAll(type);
    Expect(entities.ok(), type + ": " + entities.status().ToString());
    if (!entities.ok()) continue;
    const int64_t n = dtbench::OracleRecordCount(
        tamer.entity_collection()->GetView(), type, named_rows);
    std::vector<dt::dedup::CompositeEntity> dropped = *entities;
    for (auto& e : dropped) {
      auto& m = e.member_record_ids;
      m.erase(std::remove(m.begin(), m.end(), n), m.end());
    }
    ExpectCatches(type + " composites", dtbench::CheckCovers(*entities, n),
                  dtbench::CheckCovers(dropped, n));
  }

  const dtbench::ReadMix mix = dtbench::BuildReadMix(tamer, corpus, 7);
  Expect(mix.items.size() >= 12, "read mix is missing classes");
  for (const dtbench::ReadItem& item : mix.items) {
    const std::string cls = dtbench::ReadClassName(item.cls);
    dt::query::QueryRequest req = item.req;
    for (int page = 0; page < std::max(1, item.pages); ++page) {
      auto resp = tamer.Execute(req);
      Expect(resp.ok(), cls + ": " + resp.status().ToString());
      if (!resp.ok()) break;
      dt::query::QueryResponse bad = *resp;
      if (!bad.ids.empty()) {
        bad.ids.pop_back();
      } else if (!bad.groups.empty()) {
        bad.groups.back().count += 1;
      } else {
        bad.ids.push_back(1);
      }
      ExpectCatches(cls + " page " + std::to_string(page),
                    dtbench::CheckResponse(item, page, *resp),
                    dtbench::CheckResponse(item, page, bad));
      req.resume_token = resp->next_token;
      if (req.resume_token.empty()) break;
    }
  }
}

}  // namespace

int main() {
  CheckPrimitives();
  CheckFused();
  CheckReadMix();
  if (failures == 0) std::printf("dtbench checks: all caught\n");
  return failures == 0 ? 0 : 1;
}
