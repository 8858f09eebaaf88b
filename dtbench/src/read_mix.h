/// \file read_mix.h
/// \brief The §V read mix: its requests with their oracle answers, the
/// closed-loop load generator that replays it over one connection, and the
/// in-process probes that split one request into its layers.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "corpus.h"
#include "query/request.h"
#include "server/client.h"

namespace dtbench {

class HostSpeed;
class Tracer;

/// Request classes of the mix. kFusedFind only runs beside ingest.
enum class ReadClass : int {
  kFindTop50 = 0,
  kTopDiscussed,
  kTopDiscussedAward,
  kCountType,
  kTopKType,
  kTextFind,
  kFindPage,
  kFusedFind,
};
inline constexpr int kNumReadClasses = 8;
/// The classes every workload probes (all but kFusedFind).
inline constexpr int kNumProbedClasses = 7;

/// Stable metric name of a class ("find_top50", ...).
const char* ReadClassName(ReadClass c);

/// One distinct request of the mix and its expected answer.
struct ReadItem {
  ReadClass cls = ReadClass::kFindTop50;
  /// kFindPage: the first page's request; later pages add the token.
  query::QueryRequest req;
  std::vector<storage::DocId> want_ids;
  std::vector<query::CountRow> want_groups;
  /// kFindPage: pages fetched per stream (the oracle `want_ids` is the
  /// whole one-shot order).
  int pages = 0;
  /// kFusedFind: ids allowed to come back (ascending).
  std::vector<storage::DocId> allowed_ids;
};

/// Distinct requests plus the cycle that fixes their weights.
struct ReadMix {
  std::vector<ReadItem> items;
  /// Item indexes, each distinct request once; a kFindPage entry is
  /// one stream. Each connection replays the cycle in its own seeded
  /// order, drawn anew for every replay.
  std::vector<int> cycle;
  /// The run's seed, from which the replay orders are drawn.
  uint64_t seed = 0;
};

/// \brief The mix over a loaded facade (text corpus + standard
/// indexes), with every answer computed by the oracles. `seed` picks
/// the text keywords and the replay orders.
ReadMix BuildReadMix(const fusion::DataTamer& tamer, const TextCorpus& corpus,
                     uint64_t seed);

/// Requests in one replay of the cycle (a find_page stream counts its
/// pages).
int64_t RequestsPerCycle(const ReadMix& mix);

/// Checks the response to page `page` of `item` ("" = correct).
std::string CheckResponse(const ReadItem& item, int page,
                          const query::QueryResponse& resp);

/// Per-request times of closed-loop replays.
struct LoopStats {
  /// Client-observed wall time, send to answer, of every request, in
  /// the order they ran.
  std::vector<double> wall_ms;
  /// Process CPU time over the same span (see `PinToOneCpu`).
  std::vector<double> cpu_ms;
  std::array<std::vector<double>, kNumReadClasses> class_wall_ms;
  std::array<std::vector<double>, kNumReadClasses> class_cpu_ms;

  /// A read of class `c`.
  void Add(ReadClass c, double wall, double cpu);
  /// A request outside the read mix (an ingest batch).
  void AddOther(double wall, double cpu);
};

/// \brief Replays the mix on one connection, one request in flight:
/// walks whole cycles, each in a fresh order drawn from `order_seed`,
/// and streams a find_page item's pages one request at a time. Every
/// response is checked and counted in the report. With tracing on,
/// each request gets a `client.read.<class>` span.
class ReadLoop {
 public:
  ReadLoop(server::DtClient* client, const ReadMix& mix, uint64_t order_seed);

  /// Sends the next request, waits for its answer and checks it.
  Status Step(Report* report, LoopStats* stats, Tracer* tracer);

  /// True before the first request of a cycle.
  bool AtCycleStart() const { return pos_ == 0 && page_ == 0; }

 private:
  server::DtClient* client_;
  const ReadMix& mix_;
  dt::Rng rng_;
  std::vector<int> order_;
  size_t pos_ = 0;
  int page_ = 0;
  std::string token_;
};

/// \brief `ReadLoop` on a new connection to 127.0.0.1:`port`: whole
/// cycles until `deadline_ns` (a `NowNs` time) has passed or, with
/// `deadline_ns` = 0, `max_requests` requests. With `speed` set, the
/// yardstick is sampled before every fourth cycle.
Status RunReads(uint16_t port, const ReadMix& mix, int64_t deadline_ns,
                int64_t max_requests, Report* report, LoopStats* stats,
                Tracer* tracer, HostSpeed* speed = nullptr);

/// Per-class request counts, CPU and wall p50 on stderr.
void PrintClassLatencies(const LoopStats& stats);

/// \brief In-process split of every probed class (tracing runs only):
/// `DataTamer::Execute` (with its ExecStats), the view-based
/// `query::PlanFind`, and the request/response codec and frame path,
/// each `reps` times per distinct request.
void ProbeReads(const fusion::DataTamer& tamer, const ReadMix& mix, int reps,
                Tracer* tracer);

/// Per-class and codec layer metrics from the spans of `ReadLoop`
/// and `ProbeReads`.
void AddReadLayerMetrics(const Tracer& tracer, Report* report);

}  // namespace dtbench
