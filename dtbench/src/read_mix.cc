#include "read_mix.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "fusion/data_tamer.h"
#include "host_speed.h"
#include "oracle.h"
#include "query/planner.h"
#include "server/frame.h"
#include "storage/codec.h"
#include "trace.h"

namespace dtbench {

namespace {

using query::Predicate;
using query::QueryOp;
using storage::DocValue;

constexpr int64_t kPageSize = 100;
constexpr int kPagesPerStream = 3;
/// `RunReads` samples the yardstick before every this many cycles
/// (about 60 requests against one 10 ms sample).
constexpr int64_t kCyclesPerSample = 4;

const std::vector<std::string>& FindTypes() {
  static const std::vector<std::string> kTypes = {"Movie", "Person",
                                                  "Company", "City"};
  return kTypes;
}

std::string ClassSpan(const char* layer, ReadClass c) {
  return std::string(layer) + "." + ReadClassName(c);
}

double PerSpan(const Tracer& t, const std::string& name,
               const std::string& key) {
  const size_t n = t.NumSpans(name);
  return n == 0 ? 0.0 : static_cast<double>(t.SumCount(name, key)) / n;
}

double PerRow(const Tracer& t, const std::string& name,
              const std::string& key) {
  const int64_t rows = std::max<int64_t>(1, t.SumCount(name, "rows"));
  return static_cast<double>(t.SumCount(name, key)) / rows;
}

/// Median over the spans of several names together.
double MedianUsOf(const Tracer& t, const std::vector<std::string>& names) {
  std::vector<double> d;
  for (const std::string& name : names) {
    for (const Span& s : t.Named(name)) d.push_back(s.DurationUs());
  }
  return Median(std::move(d));
}

}  // namespace

const char* ReadClassName(ReadClass c) {
  switch (c) {
    case ReadClass::kFindTop50:
      return "find_top50";
    case ReadClass::kTopDiscussed:
      return "top_discussed";
    case ReadClass::kTopDiscussedAward:
      return "top_discussed_award";
    case ReadClass::kCountType:
      return "count_type";
    case ReadClass::kTopKType:
      return "topk_type";
    case ReadClass::kTextFind:
      return "text_find";
    case ReadClass::kFindPage:
      return "find_page";
    case ReadClass::kFusedFind:
      return "fused_find";
  }
  return "?";
}

ReadMix BuildReadMix(const fusion::DataTamer& tamer, const TextCorpus& corpus,
                     uint64_t seed) {
  const storage::CollectionView entity = tamer.entity_collection()->GetView();
  const storage::CollectionView instance =
      tamer.instance_collection()->GetView();
  ReadMix mix;
  auto add = [&](ReadItem item) { mix.items.push_back(std::move(item)); };

  for (const std::string& type : FindTypes()) {
    ReadItem it;
    it.cls = ReadClass::kFindTop50;
    it.req.op = QueryOp::kFind;
    it.req.collection = "entity";
    it.req.predicate = Predicate::Eq("type", DocValue::Str(type));
    it.req.order_by = "name";
    it.req.limit = 50;
    it.want_ids = OracleFind(entity, FieldEquals("type", type), "name", 50);
    add(std::move(it));
  }
  for (const char* type : {"Movie", "Person"}) {
    ReadItem it;
    it.cls = ReadClass::kTopDiscussed;
    it.req.op = QueryOp::kTopDiscussed;
    it.req.entity_type = type;
    it.req.k = 10;
    it.want_groups = OracleCount(entity, FieldEquals("type", type), "name", 10);
    add(std::move(it));
  }
  {
    ReadItem it;
    it.cls = ReadClass::kTopDiscussedAward;
    it.req.op = QueryOp::kTopDiscussed;
    it.req.entity_type = "Movie";
    it.req.k = 10;
    it.req.award_winning_only = true;
    it.want_groups = OracleCount(
        entity,
        BothOf(FieldEquals("type", "Movie"),
               FieldEquals("award_winning", "true")),
        "name", 10);
    add(std::move(it));
  }
  {
    ReadItem it;
    it.cls = ReadClass::kCountType;
    it.req.op = QueryOp::kCount;
    it.req.collection = "entity";
    it.req.group_path = "type";
    it.want_groups = OracleCount(entity, nullptr, "type", -1);
    add(std::move(it));
  }
  for (const char* type : {"Person", "Company"}) {
    ReadItem it;
    it.cls = ReadClass::kTopKType;
    it.req.op = QueryOp::kTopK;
    it.req.collection = "entity";
    it.req.group_path = "surface";
    it.req.k = 20;
    it.req.predicate = Predicate::Eq("type", DocValue::Str(type));
    it.want_groups =
        OracleCount(entity, FieldEquals("type", type), "surface", 20);
    add(std::move(it));
  }
  // Two titles among the 20 most discussed, picked by the seed.
  dt::Rng rng(seed * 104729 + 3);
  std::vector<std::string> titles(
      corpus.titles.begin(),
      corpus.titles.begin() + std::min<size_t>(20, corpus.titles.size()));
  rng.Shuffle(&titles);
  for (size_t t = 0, added = 0; t < titles.size() && added < 2; ++t) {
    ReadItem it;
    it.cls = ReadClass::kTextFind;
    it.req.op = QueryOp::kFind;
    it.req.collection = "instance";
    it.req.predicate = Predicate::TextContains("text", titles[t]);
    it.req.limit = 100;
    it.want_ids = OracleFind(instance, TextHasAll("text", titles[t]), "", 100);
    if (it.want_ids.empty()) continue;
    add(std::move(it));
    ++added;
  }
  {
    ReadItem it;
    it.cls = ReadClass::kFindPage;
    it.req.op = QueryOp::kFindPage;
    it.req.collection = "entity";
    it.req.predicate = Predicate::Eq("type", DocValue::Str("Person"));
    it.req.order_by = "name";
    it.req.page_size = kPageSize;
    it.pages = kPagesPerStream;
    it.want_ids =
        OracleFind(entity, FieldEquals("type", "Person"), "name", -1);
    add(std::move(it));
  }
  for (size_t i = 0; i < mix.items.size(); ++i) {
    mix.cycle.push_back(static_cast<int>(i));
  }
  mix.seed = seed;
  return mix;
}

int64_t RequestsPerCycle(const ReadMix& mix) {
  int64_t n = 0;
  for (int i : mix.cycle) {
    n += std::max(1, mix.items[static_cast<size_t>(i)].pages);
  }
  return n;
}

std::string CheckResponse(const ReadItem& item, int page,
                          const query::QueryResponse& resp) {
  switch (item.cls) {
    case ReadClass::kFindTop50:
    case ReadClass::kTextFind:
      return CheckIds(resp.ids, item.want_ids);
    case ReadClass::kTopDiscussed:
    case ReadClass::kTopDiscussedAward:
    case ReadClass::kCountType:
    case ReadClass::kTopKType:
      return CheckGroups(resp.groups, item.want_groups);
    case ReadClass::kFindPage:
      return CheckPage(resp.ids, !resp.next_token.empty(), item.want_ids, page,
                       item.req.page_size);
    case ReadClass::kFusedFind:
      return CheckFoundWithin(resp.ids, item.req.limit, item.allowed_ids);
  }
  return "unknown class";
}

void LoopStats::Add(ReadClass c, double wall, double cpu) {
  AddOther(wall, cpu);
  class_wall_ms[static_cast<size_t>(c)].push_back(wall);
  class_cpu_ms[static_cast<size_t>(c)].push_back(cpu);
}

void LoopStats::AddOther(double wall, double cpu) {
  wall_ms.push_back(wall);
  cpu_ms.push_back(cpu);
}

ReadLoop::ReadLoop(server::DtClient* client, const ReadMix& mix,
                   uint64_t order_seed)
    : client_(client), mix_(mix), rng_(order_seed), order_(mix.cycle) {
  rng_.Shuffle(&order_);
}

Status ReadLoop::Step(Report* report, LoopStats* stats, Tracer* tracer) {
  const ReadItem& item = mix_.items[static_cast<size_t>(order_[pos_])];
  query::QueryRequest req = item.req;
  req.resume_token = token_;
  const uint64_t span = tracer->Begin(ClassSpan("client.read", item.cls));
  const int64_t sent = NowNs();
  const int64_t cpu_at_send = ProcessCpuNs();
  DT_RETURN_NOT_OK(client_->Send(req).status());
  DT_ASSIGN_OR_RETURN(server::ResponseEnvelope env, client_->Receive());
  const int64_t cpu = ProcessCpuNs() - cpu_at_send;
  const int64_t done = NowNs();
  tracer->End(span);
  stats->Add(item.cls, static_cast<double>(done - sent) * 1e-6,
             static_cast<double>(cpu) * 1e-6);
  const std::string what = ReadClassName(item.cls);
  bool stream_goes_on = false;
  if (!env.status.ok()) {
    report->Op(what, env.status.ToString(), /*wrong=*/false);
  } else {
    const std::string err = CheckResponse(item, page_, env.response);
    report->Op(what, err, /*wrong=*/true);
    stream_goes_on = err.empty() && item.cls == ReadClass::kFindPage &&
                     page_ + 1 < item.pages && !env.response.next_token.empty();
    if (stream_goes_on) {
      ++page_;
      token_ = std::move(env.response.next_token);
    }
  }
  if (!stream_goes_on) {
    page_ = 0;
    token_.clear();
    pos_ = (pos_ + 1) % order_.size();
    if (pos_ == 0) rng_.Shuffle(&order_);
  }
  return Status::OK();
}

Status RunReads(uint16_t port, const ReadMix& mix, int64_t deadline_ns,
                int64_t max_requests, Report* report, LoopStats* stats,
                Tracer* tracer, HostSpeed* speed) {
  DT_ASSIGN_OR_RETURN(std::unique_ptr<server::DtClient> client,
                      server::DtClient::Connect("127.0.0.1", port));
  ReadLoop loop(client.get(), mix, mix.seed * 1009 + 11);
  int64_t cycles = 0;
  for (int64_t sent = 0;; ++sent) {
    const bool done = deadline_ns != 0
                          ? loop.AtCycleStart() && NowNs() >= deadline_ns
                          : sent >= max_requests;
    if (done) break;
    if (speed != nullptr && loop.AtCycleStart() &&
        cycles++ % kCyclesPerSample == 0) {
      speed->Sample(stats->cpu_ms.size());
    }
    DT_RETURN_NOT_OK(loop.Step(report, stats, tracer));
  }
  client->Close();
  return Status::OK();
}

void PrintClassLatencies(const LoopStats& stats) {
  for (int i = 0; i < kNumReadClasses; ++i) {
    const size_t c = static_cast<size_t>(i);
    if (stats.class_cpu_ms[c].empty()) continue;
    std::fprintf(stderr,
                 "dtbench:   %-20s n=%-7zu cpu_p50_ms=%.4f wall_p50_ms=%.4f "
                 "wall_p90_ms=%.4f\n",
                 ReadClassName(static_cast<ReadClass>(i)),
                 stats.class_cpu_ms[c].size(),
                 Percentile(stats.class_cpu_ms[c], 0.5),
                 Percentile(stats.class_wall_ms[c], 0.5),
                 Percentile(stats.class_wall_ms[c], 0.9));
  }
}

void ProbeReads(const fusion::DataTamer& tamer, const ReadMix& mix, int reps,
                Tracer* tracer) {
  for (const ReadItem& item : mix.items) {
    if (item.cls == ReadClass::kFusedFind) continue;
    ScopedSpan probe(tracer, ClassSpan("probe", item.cls));
    const std::string execute = ClassSpan("fusion.execute", item.cls);
    query::QueryResponse last;
    for (int r = 0; r < reps; ++r) {
      query::QueryRequest req = item.req;
      for (int page = 0; page < std::max(1, item.pages); ++page) {
        ScopedSpan span(tracer, execute, probe.id());
        Result<query::QueryResponse> resp = tamer.Execute(req);
        if (!resp.ok()) break;
        span.Count("docs", resp->stats.docs_examined);
        span.Count("entries", resp->stats.index_entries_examined);
        span.Count("rows", static_cast<int64_t>(resp->ids.size() +
                                                resp->groups.size()));
        req.resume_token = resp->next_token;
        last = std::move(*resp);
        if (req.resume_token.empty()) break;
      }
    }

    // The planner alone, over the view the executor would read.
    const bool on_instance = item.req.collection == "instance";
    const storage::CollectionView view =
        on_instance ? tamer.instance_collection()->GetView()
                    : tamer.entity_collection()->GetView();
    query::PredicatePtr pred = item.req.predicate;
    if (item.cls == ReadClass::kTopDiscussed ||
        item.cls == ReadClass::kTopDiscussedAward) {
      pred = Predicate::Eq("type", DocValue::Str(item.req.entity_type));
      if (item.req.award_winning_only) {
        pred = Predicate::And(
            {pred, Predicate::Eq("award_winning", DocValue::Str("true"))});
      }
    }
    for (int r = 0; r < reps; ++r) {
      query::ExecStats st;
      query::FindOptions opts;
      opts.order_by = item.req.order_by;
      opts.limit = item.req.limit;
      opts.stats = &st;
      ScopedSpan span(tracer, ClassSpan("query.planner.plan", item.cls),
                      probe.id());
      query::QueryPlan plan = query::PlanFind(view, pred, opts);
      span.Count("entries_counted", st.plan_entries_counted);
    }

    // The mix's own envelopes through the codec and frame layers.
    server::RequestEnvelope req_env{1, item.req};
    server::ResponseEnvelope resp_env;
    resp_env.id = 1;
    resp_env.response = last;
    for (int r = 0; r < reps; ++r) {
      DocValue req_doc, resp_doc;
      {
        ScopedSpan span(tracer, ClassSpan("query.request.codec", item.cls),
                        probe.id());
        DocValue rq = item.req.ToDocValue();
        (void)query::QueryRequest::FromDocValue(rq);
        DocValue rs = last.ToDocValue();
        (void)query::QueryResponse::FromDocValue(rs);
      }
      req_doc = server::EncodeRequestEnvelope(req_env);
      resp_doc = server::EncodeResponseEnvelope(resp_env);
      {
        ScopedSpan span(tracer, ClassSpan("storage.codec", item.cls),
                        probe.id());
        for (const DocValue* d : {&req_doc, &resp_doc}) {
          std::string buf;
          (void)storage::EncodeDocValue(*d, &buf);
          DocValue back;
          (void)storage::DecodeDocValue(std::string_view(buf), &back);
        }
      }
      {
        ScopedSpan span(tracer, ClassSpan("server.frame", item.cls),
                        probe.id());
        int64_t response_bytes = 0;
        for (const DocValue* d : {&req_doc, &resp_doc}) {
          std::string frame;
          (void)server::EncodeFrame(*d, server::kDefaultMaxFrameSize, &frame);
          DocValue payload;
          size_t consumed = 0;
          (void)server::TryDecodeFrame(frame, server::kDefaultMaxFrameSize,
                                       &payload, &consumed);
          response_bytes = static_cast<int64_t>(frame.size());
        }
        span.Count("response_bytes", response_bytes);
      }
    }
  }
}

void AddReadLayerMetrics(const Tracer& t, Report* report) {
  std::vector<std::string> codec, storage_codec, frame;
  for (int i = 0; i < kNumProbedClasses; ++i) {
    const ReadClass c = static_cast<ReadClass>(i);
    const std::string cls = ReadClassName(c);
    const std::string execute = ClassSpan("fusion.execute", c);
    const std::string plan = ClassSpan("query.planner.plan", c);
    const double execute_us = t.MedianUs(execute);
    report->Add("fusion.execute_us." + cls, execute_us, "us");
    report->Add("query.planner.plan_us." + cls, t.MedianUs(plan), "us");
    report->Add("query.planner.entries_counted." + cls,
                PerSpan(t, plan, "entries_counted"), "count");
    report->Add("query.executor.docs_per_row." + cls,
                PerRow(t, execute, "docs"), "docs/row");
    report->Add("query.executor.entries_per_row." + cls,
                PerRow(t, execute, "entries"), "entries/row");
    report->Add("server.frame.response_bytes." + cls,
                PerSpan(t, ClassSpan("server.frame", c), "response_bytes"),
                "bytes");
    report->Add("server.overhead_us." + cls,
                t.MedianUs(ClassSpan("client.read", c)) - execute_us, "us");
    codec.push_back(ClassSpan("query.request.codec", c));
    storage_codec.push_back(ClassSpan("storage.codec", c));
    frame.push_back(ClassSpan("server.frame", c));
  }
  report->Add("query.request.codec_us", MedianUsOf(t, codec), "us");
  report->Add("storage.codec.us", MedianUsOf(t, storage_codec), "us");
  report->Add("server.frame.us", MedianUsOf(t, frame), "us");
}

}  // namespace dtbench
