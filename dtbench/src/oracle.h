/// \file oracle.h
/// \brief Answers computed apart from the program, and the checks that
/// compare the program's outputs against them.
///
/// The oracles walk the documents themselves (`CollectionView::ForEach`,
/// their own field tests, a (key, id) sort, count-desc/key-asc
/// grouping and their own lower-case alphanumeric tokenizer); they
/// never go through the planner, an index or `Execute`. Every check
/// returns an empty string on success, else what differs.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "dedup/record.h"
#include "query/query.h"
#include "storage/collection.h"

namespace dtbench {

/// A document test built by the benchmark (not a query predicate).
using DocTest = std::function<bool(const storage::DocValue&)>;

/// Top-level string field equals `value`.
DocTest FieldEquals(std::string field, std::string value);
DocTest BothOf(DocTest a, DocTest b);
/// The string field holds every keyword token.
DocTest TextHasAll(std::string field, std::string_view keywords);

/// Lower-case ASCII-alphanumeric runs.
std::vector<std::string> OracleTokens(std::string_view text);

/// Ids of the documents passing `test`, sorted by (string at
/// `order_field`, id) — absent or non-string fields first — or by id
/// when `order_field` is empty, cut to `limit` (-1 = all).
std::vector<storage::DocId> OracleFind(const storage::CollectionView& view,
                                       const DocTest& test,
                                       const std::string& order_field,
                                       int64_t limit);

/// Counts of the string values at `field` over the documents passing
/// `test` (null = all), by descending count then ascending key, cut to
/// `k` (-1 = all).
std::vector<query::CountRow> OracleCount(const storage::CollectionView& view,
                                         const DocTest& test,
                                         const std::string& field,
                                         int64_t k);

/// \brief Records `ConsolidateAll(type)` should partition: one per
/// distinct name of `type` in dt.entity — names compared lower-cased
/// with whitespace runs folded to one space and trimmed — plus
/// `named_rows`, the structured rows that carry a name.
int64_t OracleRecordCount(const storage::CollectionView& entity,
                          const std::string& type, int64_t named_rows);

/// Group rows by descending count then ascending key, cut to `k`
/// (-1 = all).
std::vector<query::CountRow> RankGroups(
    const std::map<std::string, int64_t>& counts, int64_t k);

// ---- checks ---------------------------------------------------------

/// Same ids in the same order.
std::string CheckIds(const std::vector<storage::DocId>& got,
                     const std::vector<storage::DocId>& want);

/// Same (key, count) rows in the same order.
std::string CheckGroups(const std::vector<query::CountRow>& got,
                        const std::vector<query::CountRow>& want);

/// Page `page` of a resumable stream equals its slice of the one-shot
/// order `stream`, and a continuation token is present exactly when
/// more ids remain.
std::string CheckPage(const std::vector<storage::DocId>& got, bool has_token,
                      const std::vector<storage::DocId>& stream, int page,
                      int64_t page_size);

/// Unique ids, no more than `limit`, each drawn from `allowed`
/// (ascending).
std::string CheckFoundWithin(const std::vector<storage::DocId>& got,
                             int64_t limit,
                             const std::vector<storage::DocId>& allowed);

/// Same set of keys, whatever the order (e.g. recovered docs).
std::string CheckSameKeys(std::vector<std::string> got,
                          std::vector<std::string> want);

/// Equal composite entities: cluster ids, types, fields, members and
/// sources.
std::string CheckEntities(const std::vector<dedup::CompositeEntity>& got,
                          const std::vector<dedup::CompositeEntity>& want);

/// Every record id lies in exactly one entity and no entity names a
/// record outside `record_ids`.
std::string CheckPartition(const std::vector<dedup::CompositeEntity>& entities,
                           const std::vector<int64_t>& record_ids);

/// Batch composites partition the records numbered 1..`n`.
std::string CheckCovers(const std::vector<dedup::CompositeEntity>& entities,
                        int64_t n);

/// \brief The documents of dt.fused equal the batch composites `want`
/// field for field. Each doc must decode as a composite whose
/// cluster_id is its stable key, the smallest member id (ids are
/// arrival indexes); renumbered densely in key order, the docs must
/// equal `want` and partition `record_ids`.
std::string CheckFusedDocs(const std::vector<storage::DocValue>& docs,
                           const std::vector<dedup::CompositeEntity>& want,
                           const std::vector<int64_t>& record_ids);

}  // namespace dtbench
