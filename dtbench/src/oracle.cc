#include "oracle.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <utility>

namespace dtbench {

namespace {

const std::string* StringField(const storage::DocValue& doc,
                               const std::string& field) {
  const storage::DocValue* v = doc.Find(field);
  return v != nullptr && v->is_string() ? &v->string_value() : nullptr;
}

std::string IdAt(const std::vector<storage::DocId>& ids, size_t i) {
  return i < ids.size() ? std::to_string(ids[i]) : std::string("<none>");
}

}  // namespace

DocTest FieldEquals(std::string field, std::string value) {
  return [field = std::move(field),
          value = std::move(value)](const storage::DocValue& doc) {
    const std::string* s = StringField(doc, field);
    return s != nullptr && *s == value;
  };
}

DocTest BothOf(DocTest a, DocTest b) {
  return [a = std::move(a), b = std::move(b)](const storage::DocValue& doc) {
    return a(doc) && b(doc);
  };
}

std::vector<std::string> OracleTokens(std::string_view text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    const bool lower = c >= 'a' && c <= 'z';
    const bool upper = c >= 'A' && c <= 'Z';
    const bool digit = c >= '0' && c <= '9';
    if (lower || digit) {
      cur += c;
    } else if (upper) {
      cur += static_cast<char>(c - 'A' + 'a');
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

DocTest TextHasAll(std::string field, std::string_view keywords) {
  std::vector<std::string> want = OracleTokens(keywords);
  return [field = std::move(field),
          want = std::move(want)](const storage::DocValue& doc) {
    const std::string* s = StringField(doc, field);
    if (s == nullptr) return false;
    std::vector<std::string> have = OracleTokens(*s);
    std::sort(have.begin(), have.end());
    for (const std::string& w : want) {
      if (!std::binary_search(have.begin(), have.end(), w)) return false;
    }
    return true;
  };
}

std::vector<storage::DocId> OracleFind(const storage::CollectionView& view,
                                       const DocTest& test,
                                       const std::string& order_field,
                                       int64_t limit) {
  // (has key, key, id): absent keys sort first, ties by id.
  std::vector<std::tuple<bool, std::string, storage::DocId>> rows;
  view.ForEach([&](storage::DocId id, const storage::DocValue& doc) {
    if (test && !test(doc)) return;
    const std::string* key =
        order_field.empty() ? nullptr : StringField(doc, order_field);
    rows.emplace_back(key != nullptr, key != nullptr ? *key : std::string(),
                      id);
  });
  std::sort(rows.begin(), rows.end());
  std::vector<storage::DocId> ids;
  for (const auto& row : rows) {
    if (limit >= 0 && static_cast<int64_t>(ids.size()) >= limit) break;
    ids.push_back(std::get<2>(row));
  }
  return ids;
}

std::vector<query::CountRow> OracleCount(const storage::CollectionView& view,
                                         const DocTest& test,
                                         const std::string& field,
                                         int64_t k) {
  std::map<std::string, int64_t> counts;
  view.ForEach([&](storage::DocId, const storage::DocValue& doc) {
    if (test && !test(doc)) return;
    if (const std::string* s = StringField(doc, field)) ++counts[*s];
  });
  return RankGroups(counts, k);
}

int64_t OracleRecordCount(const storage::CollectionView& entity,
                          const std::string& type, int64_t named_rows) {
  std::set<std::string> names;
  entity.ForEach([&](storage::DocId, const storage::DocValue& doc) {
    const std::string* t = StringField(doc, "type");
    const std::string* name = StringField(doc, "name");
    if (t == nullptr || *t != type || name == nullptr) return;
    std::string folded;
    bool space = false;
    for (char c : *name) {
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
          c == '\v') {
        space = !folded.empty();
        continue;
      }
      if (space) folded += ' ';
      space = false;
      folded += c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
    }
    names.insert(std::move(folded));
  });
  return static_cast<int64_t>(names.size()) + named_rows;
}

std::vector<query::CountRow> RankGroups(
    const std::map<std::string, int64_t>& counts, int64_t k) {
  // The map is key-ascending; a stable sort by count keeps that order
  // among equal counts.
  std::vector<query::CountRow> rows;
  for (const auto& [key, n] : counts) rows.push_back({key, n});
  std::stable_sort(rows.begin(), rows.end(),
                   [](const query::CountRow& a, const query::CountRow& b) {
                     return a.count > b.count;
                   });
  if (k >= 0 && static_cast<int64_t>(rows.size()) > k) {
    rows.resize(static_cast<size_t>(k));
  }
  return rows;
}

std::string CheckIds(const std::vector<storage::DocId>& got,
                     const std::vector<storage::DocId>& want) {
  const size_t n = std::max(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if (i >= got.size() || i >= want.size() || got[i] != want[i]) {
      return "id " + std::to_string(i) + " is " + IdAt(got, i) +
             ", expected " + IdAt(want, i) + " (" +
             std::to_string(got.size()) + " vs " +
             std::to_string(want.size()) + " ids)";
    }
  }
  return "";
}

std::string CheckGroups(const std::vector<query::CountRow>& got,
                        const std::vector<query::CountRow>& want) {
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " groups, expected " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].key != want[i].key || got[i].count != want[i].count) {
      return "group " + std::to_string(i) + " is (" + got[i].key + ", " +
             std::to_string(got[i].count) + "), expected (" + want[i].key +
             ", " + std::to_string(want[i].count) + ")";
    }
  }
  return "";
}

std::string CheckPage(const std::vector<storage::DocId>& got, bool has_token,
                      const std::vector<storage::DocId>& stream, int page,
                      int64_t page_size) {
  const size_t begin = static_cast<size_t>(page * page_size);
  const size_t end =
      std::min(stream.size(), begin + static_cast<size_t>(page_size));
  std::vector<storage::DocId> want;
  if (begin < end) want.assign(stream.begin() + begin, stream.begin() + end);
  std::string err = CheckIds(got, want);
  if (!err.empty()) return "page " + std::to_string(page) + ": " + err;
  if (has_token != (end < stream.size())) {
    return "page " + std::to_string(page) +
           (has_token ? ": token after the last page" : ": token missing");
  }
  return "";
}

std::string CheckFoundWithin(const std::vector<storage::DocId>& got,
                             int64_t limit,
                             const std::vector<storage::DocId>& allowed) {
  if (static_cast<int64_t>(got.size()) > limit) {
    return std::to_string(got.size()) + " ids over the limit " +
           std::to_string(limit);
  }
  std::set<storage::DocId> seen;
  for (storage::DocId id : got) {
    if (!seen.insert(id).second) return "id " + std::to_string(id) + " twice";
    if (!std::binary_search(allowed.begin(), allowed.end(), id)) {
      return "id " + std::to_string(id) + " fails the predicate";
    }
  }
  return "";
}

std::string CheckSameKeys(std::vector<std::string> got,
                          std::vector<std::string> want) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got == want) return "";
  std::vector<std::string> missing, extra;
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  return std::to_string(missing.size()) + " missing (first: " +
         (missing.empty() ? "-" : missing[0]) + "), " +
         std::to_string(extra.size()) + " extra (first: " +
         (extra.empty() ? "-" : extra[0]) + ")";
}

std::string CheckEntities(const std::vector<dedup::CompositeEntity>& got,
                          const std::vector<dedup::CompositeEntity>& want) {
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " entities, expected " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const auto& g = got[i];
    const auto& w = want[i];
    if (g.cluster_id != w.cluster_id || g.entity_type != w.entity_type ||
        g.fields != w.fields || g.member_record_ids != w.member_record_ids ||
        g.contributing_sources != w.contributing_sources) {
      return "entity " + std::to_string(i) + " differs (cluster " +
             std::to_string(g.cluster_id) + ", " +
             std::to_string(g.member_record_ids.size()) + " members vs " +
             std::to_string(w.member_record_ids.size()) + ")";
    }
  }
  return "";
}

std::string CheckPartition(const std::vector<dedup::CompositeEntity>& entities,
                           const std::vector<int64_t>& record_ids) {
  std::map<int64_t, int> seen;
  for (int64_t id : record_ids) seen[id] = 0;
  for (const auto& e : entities) {
    for (int64_t id : e.member_record_ids) {
      auto it = seen.find(id);
      if (it == seen.end()) {
        return "record " + std::to_string(id) + " was never sent";
      }
      if (++it->second > 1) {
        return "record " + std::to_string(id) + " in two entities";
      }
    }
  }
  for (const auto& [id, n] : seen) {
    if (n == 0) return "record " + std::to_string(id) + " in no entity";
  }
  return "";
}

std::string CheckCovers(const std::vector<dedup::CompositeEntity>& entities,
                        int64_t n) {
  std::vector<int64_t> ids;
  for (int64_t id = 1; id <= n; ++id) ids.push_back(id);
  return CheckPartition(entities, ids);
}

std::string CheckFusedDocs(const std::vector<storage::DocValue>& docs,
                           const std::vector<dedup::CompositeEntity>& want,
                           const std::vector<int64_t>& record_ids) {
  std::vector<dedup::CompositeEntity> got;
  for (const storage::DocValue& doc : docs) {
    Result<dedup::CompositeEntity> e = dedup::CompositeEntityFromDoc(doc);
    if (!e.ok()) return "undecodable fused doc: " + e.status().ToString();
    if (e->member_record_ids.empty()) {
      return "fused cluster " + std::to_string(e->cluster_id) +
             " has no members";
    }
    const int64_t low = *std::min_element(e->member_record_ids.begin(),
                                          e->member_record_ids.end());
    if (e->cluster_id != low) {
      return "fused cluster " + std::to_string(e->cluster_id) +
             " has smallest member " + std::to_string(low);
    }
    got.push_back(std::move(*e));
  }
  std::sort(got.begin(), got.end(),
            [](const dedup::CompositeEntity& a,
               const dedup::CompositeEntity& b) {
              return a.cluster_id < b.cluster_id;
            });
  for (size_t i = 0; i < got.size(); ++i) {
    got[i].cluster_id = static_cast<int64_t>(i);
  }
  std::string err = CheckPartition(got, record_ids);
  if (!err.empty()) return err;
  return CheckEntities(got, want);
}

}  // namespace dtbench
