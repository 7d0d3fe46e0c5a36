// The traced run: per-layer metrics, measured from outside the program.
//
// 1. Loaded phase. The workload's own topology and load, once untraced
//    and once with a span per op; counters are read around the traced
//    half (/metrics, POST /admin/drain-report, gateway stats, /proc, and
//    durability file sizes polled every 10 ms). The difference between
//    the halves is the tracing overhead. Then one node is restarted over
//    its directory (durability.recover_s).
// 2. Depth replay. The first trace_ops ops of the seeded stream, plus a
//    fixed probe set (every query template and a few modifies), replayed
//    on one connection with explicit timestamps at four successively
//    deeper public entry points, each on a fresh system:
//      G  gateway HTTP        (GatewayServer over forked nodes)
//      N  node HTTP           (one forked NodeProcess)
//      C  in-process cluster  (WarehouseCluster::TryServePage/TryServeQuery/
//                              TryDispatch)
//      W  warehouses          (Warehouse::Tick/RequestPage/ExecuteQuery/
//                              OnOriginModified, one standalone warehouse
//                              per shard; a query's time is the slowest
//                              shard's, a page's its owner's)
//    A layer's self time is the median, over ops of one class, of the
//    difference between adjacent depths for the same op index. N and C
//    see identical event streams, so their query answers must be equal
//    byte for byte — that is checked here too.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <thread>

#include <unistd.h>

#include "core/warehouse.h"
#include "net/origin_server.h"
#include "perf_run.h"
#include "server/wire_format.h"
#include "trace/workload.h"
#include "util/hash.h"
#include "util/strings.h"

namespace cbfww::perfbench {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr int kProbesPerTemplate = 3;
constexpr int kProbeModifies = 5;

/// Counters of the whole fleet at one instant (nodes quiesced first).
struct Snapshot {
  std::vector<std::map<std::string, double>> metrics;  // Per node.
  std::vector<std::map<std::string, double>> report;   // Per node.
  uint64_t self_cpu_ns = 0;
  std::map<std::string, double> gateway;
};

Snapshot Take(Fleet& fleet) {
  Snapshot s;
  for (size_t i = 0; i < fleet.num_nodes(); ++i) {
    s.report.push_back(DrainReport(fleet.node_port(i)));
    s.metrics.push_back(ScrapeMetrics(fleet.node_port(i)));
  }
  s.self_cpu_ns = SelfCpuNs();
  if (fleet.gateway() != nullptr) s.gateway = ScrapeMetrics(fleet.front_port());
  return s;
}

double NodeDelta(const Snapshot& a, const Snapshot& b, bool report,
                 std::string_view prefix) {
  double sum = 0.0;
  const auto& from = report ? a.report : a.metrics;
  const auto& to = report ? b.report : b.metrics;
  for (size_t i = 0; i < from.size() && i < to.size(); ++i) {
    sum += SumSeries(to[i], prefix) - SumSeries(from[i], prefix);
  }
  return sum;
}

double GatewayDelta(const Snapshot& a, const Snapshot& b,
                    std::string_view prefix) {
  return SumSeries(b.gateway, prefix) - SumSeries(a.gateway, prefix);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Polls the WAL and checkpoint files of a durability tree every 10 ms:
/// WALs rotate (and old ones are deleted) at each checkpoint, so bytes
/// appended are the last size seen of every WAL file.
class DurabilityMonitor {
 public:
  explicit DurabilityMonitor(std::string dir) : dir_(std::move(dir)) {
    initial_wal_ = ListFiles(dir_, ".wal.");
    for (const auto& [path, size] : ListFiles(dir_, ".ckpt.")) {
      initial_ckpt_.insert(path);
    }
    for (const auto& [path, size] : ListFiles(dir_, ".seg.")) {
      initial_ckpt_.insert(path);
    }
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        Poll();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      Poll();
    });
  }
  ~DurabilityMonitor() { Finish(); }

  void Finish() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
  }
  double wal_bytes() const {
    double sum = 0;
    for (const auto& [path, size] : wal_max_) {
      auto it = initial_wal_.find(path);
      sum += static_cast<double>(size) -
             (it == initial_wal_.end() ? 0.0 : static_cast<double>(it->second));
    }
    return sum;
  }
  double checkpoints() const {
    return static_cast<double>(ckpt_seen_.size());
  }

 private:
  void Poll() {
    for (const auto& [path, size] : ListFiles(dir_, ".wal.")) {
      uint64_t& best = wal_max_[path];
      best = std::max(best, size);
    }
    for (const char* part : {".ckpt.", ".seg."}) {
      for (const auto& [path, size] : ListFiles(dir_, part)) {
        if (initial_ckpt_.count(path) == 0) ckpt_seen_.insert(path);
      }
    }
  }

  std::string dir_;
  std::map<std::string, uint64_t> initial_wal_;
  std::set<std::string> initial_ckpt_;
  std::map<std::string, uint64_t> wal_max_;
  std::set<std::string> ckpt_seen_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// The replayed op list: an untimed state-building prefix, the stream's
/// first ops, then the probes. Indices are positions in `ops`; times are
/// re-based so they never decrease.
struct Replay {
  std::vector<PerfOp> ops;
  uint64_t first_timed = 0;
  uint64_t first_probe = 0;

  bool Timed(const PerfOp& op) const { return op.index >= first_timed; }
  bool Probe(const PerfOp& op) const { return op.index >= first_probe; }
};

Replay ReplayOps(const WorkloadDef& def, const Local& local, uint64_t seed) {
  Replay r;
  SimTime t = kMillisecond;
  auto append = [&](PerfOp op, SimTime* shift) {
    if (r.ops.empty() || op.time + *shift <= t) *shift = t + kMillisecond - op.time;
    op.time += *shift;
    t = op.time;
    op.index = r.ops.size();
    r.ops.push_back(std::move(op));
  };
  OpSource prefix(def, &local.corpus, &local.params, seed, kWarmupStream);
  SimTime shift = 0;
  while (r.ops.size() < def.trace_prefix_ops) {
    PerfOp op = prefix.Next();
    if (op.cls != Cls::kQuery) append(std::move(op), &shift);
  }
  r.first_timed = r.ops.size();
  OpSource source(def, &local.corpus, &local.params, seed, kMeasureStream);
  shift = 0;
  for (uint64_t i = 0; i < def.trace_ops; ++i) append(source.Next(), &shift);
  r.first_probe = r.ops.size();
  Pcg32 rng(HashCombine(seed, kProbeStream), 0x7ace);
  for (int tmpl = 0; tmpl < kNumTemplates; ++tmpl) {
    for (int k = 0; k < kProbesPerTemplate; ++k) {
      PerfOp op;
      op.cls = Cls::kQuery;
      op.tmpl = static_cast<Template>(tmpl);
      op.query = local.params.Render(op.tmpl, rng);
      op.use_index = op.tmpl != Template::kScan;
      op.time = t;
      op.index = r.ops.size();
      r.ops.push_back(op);
    }
  }
  for (int k = 0; k < kProbeModifies; ++k) {
    PerfOp op;
    op.cls = Cls::kModify;
    op.raw = rng.NextBounded(static_cast<uint32_t>(local.corpus.num_raw_objects()));
    t += kMillisecond;
    op.time = t;
    op.index = r.ops.size();
    r.ops.push_back(op);
  }
  return r;
}

struct Depth {
  std::string name;
  std::vector<double> ms;  // Per op index; NaN when not run here.
  std::vector<Span> spans;
};

/// Replays `ops` over one connection at `port` (gateway or node).
Depth ReplayWire(const std::string& name, const WorkloadDef& def,
                 const Replay& r, uint16_t port,
                 bool via_gateway, Local& local,
                 std::vector<std::string>* problems,
                 std::vector<std::string>* bodies) {
  Depth d;
  d.name = name;
  d.ms.assign(r.ops.size(), kNaN);
  if (bodies != nullptr) bodies->assign(r.ops.size(), std::string());
  ResponseChecker checker{&def, &local.corpus, &local.bodies, via_gateway};
  server::ClientOptions copts;
  copts.connect_timeout_ms = 5000;
  copts.read_timeout_ms = 120000;
  server::SimpleHttpClient client(copts);
  if (!client.Connect("127.0.0.1", port).ok()) {
    problems->push_back(name + ": cannot connect");
    return d;
  }
  for (const PerfOp& op : r.ops) {
    WireRequest w = RenderRequest(def, op, /*explicit_time=*/true);
    if (r.Probe(op) && op.cls == Cls::kQuery) w.target += w.target.find('?') == std::string::npos
                                               ? "?with_cost=1"
                                               : "&with_cost=1";
    const uint64_t t0 = NowNs();
    auto response = client.RoundTrip(w.method, w.target, w.body);
    const uint64_t t1 = NowNs();
    std::string why;
    if (!response.ok()) {
      problems->push_back(name + ": " + response.status().ToString());
      client.Close();
      client.Connect("127.0.0.1", port);
      continue;
    }
    if (checker.Check(op, *response, /*compare_bytes=*/true, &why) !=
        Outcome::kOk) {
      problems->push_back(StrFormat("%s: %s %s: %s", name.c_str(),
                                    w.method.c_str(), w.target.c_str(),
                                    why.c_str()));
      continue;
    }
    if (!r.Timed(op)) continue;
    d.ms[op.index] = static_cast<double>(t1 - t0) / 1e6;
    d.spans.push_back(Span{op.index, op.cls, t0, t1});
    if (bodies != nullptr && (op.cls == Cls::kQuery || !def.body_reads)) {
      (*bodies)[op.index] = std::move(response->body);
    }
  }
  return d;
}

/// Arms `ticket` to wake a blocked waiter (as a node's IO thread is woken
/// through its pipe) instead of spinning against the shard workers.
std::shared_ptr<std::atomic<bool>> ArmTicket(cluster::ServeTicket& ticket) {
  auto done = std::make_shared<std::atomic<bool>>(false);
  ticket.on_complete = [done] {
    done->store(true);
    done->notify_one();
  };
  return done;
}

void AwaitTicket(const cluster::ServeTicket& ticket,
                 const std::atomic<bool>& done) {
  done.wait(false);
  while (!ticket.done()) std::this_thread::yield();
}

/// Replays `ops` into an in-process cluster shaped like one node, and
/// compares its answers with the node's (`node_bodies`, from depth N).
Depth ReplayCluster(const WorkloadDef& def, const Replay& r,
                    const std::string& durability_dir,
                    const std::vector<std::string>& node_bodies,
                    std::vector<std::string>* problems) {
  Depth d;
  d.name = "cluster";
  d.ms.assign(r.ops.size(), kNaN);
  cluster::WarehouseCluster cluster(BenchCorpusOptions(), std::nullopt,
                                    BenchClusterOptions(def, durability_dir));
  uint64_t mismatches = 0;
  for (const PerfOp& op : r.ops) {
    auto ticket = std::make_shared<cluster::ServeTicket>();
    auto done = ArmTicket(*ticket);
    const uint64_t t0 = NowNs();
    Status status = Status::Ok();
    switch (op.cls) {
      case Cls::kPage:
        status = cluster.TryServePage(
            core::PageRequest{.page = op.page,
                              .user = op.user,
                              .session = op.session,
                              .via_link = op.via_link,
                              .now = op.time},
            ticket);
        if (status.ok()) AwaitTicket(*ticket, *done);
        break;
      case Cls::kQuery:
        status = cluster.TryServeQuery(
            op.query,
            core::QueryRunOptions{.use_index = op.use_index,
                                  .with_cost = r.Probe(op)},
            ticket);
        if (status.ok()) AwaitTicket(*ticket, *done);
        break;
      case Cls::kModify: {
        trace::TraceEvent event;
        event.type = trace::TraceEventType::kModify;
        event.modified = op.raw;
        event.time = op.time;
        status = cluster.TryDispatch(event);
        break;
      }
    }
    const uint64_t t1 = NowNs();
    if (!status.ok()) {
      problems->push_back("cluster: " + status.ToString());
      continue;
    }
    if (!r.Timed(op)) continue;
    d.ms[op.index] = static_cast<double>(t1 - t0) / 1e6;
    d.spans.push_back(Span{op.index, op.cls, t0, t1});
    // Wire answers must be exactly the direct call's on an identical
    // cluster (the node's JSON emitters over the same results).
    const std::string& wire = node_bodies[op.index];
    if (wire.empty()) continue;
    std::string direct;
    if (op.cls == Cls::kQuery) direct = server::QueryTicketToJson(*ticket);
    if (op.cls == Cls::kPage) direct = server::PageVisitToJson(ticket->visit, "");
    if (!direct.empty() && direct != wire && ++mismatches <= 3) {
      problems->push_back(StrFormat(
          "op %llu (%s%s%s): node answer differs from the direct cluster call",
          static_cast<unsigned long long>(op.index), ClsName(op.cls),
          op.cls == Cls::kQuery ? " " : "",
          op.cls == Cls::kQuery ? TemplateName(op.tmpl) : ""));
    }
  }
  cluster.Drain();
  if (mismatches > 3) {
    problems->push_back(StrFormat("%llu node answers differ in total",
                                  static_cast<unsigned long long>(mismatches)));
  }
  return d;
}

struct WarehouseTimes {
  Depth depth;
  std::vector<double> tick_us, request_page_us, modify_us, model_ms;
  double candidates = 0, rows = 0, queries = 0, indexed = 0;
  /// Per op index (NaN unless a MENTION probe): candidates evaluated with
  /// the index and, for the same text, without it.
  std::vector<double> mention_indexed, mention_scan;
};

/// Replays shard `shard`'s share of `ops` (its pages, every modify and
/// query) into one standalone Warehouse built like that shard.
WarehouseTimes ReplayWarehouse(const WorkloadDef& def, const Replay& r,
                               uint64_t seed, uint32_t shard) {
  WarehouseTimes w;
  w.depth.name = StrFormat("warehouse-%u", shard);
  w.depth.ms.assign(r.ops.size(), kNaN);
  w.mention_indexed.assign(r.ops.size(), kNaN);
  w.mention_scan.assign(r.ops.size(), kNaN);
  corpus::WebCorpus corpus(BenchCorpusOptions());
  net::OriginServer origin(&corpus, net::NetworkModel());
  core::WarehouseOptions wopts = BenchClusterOptions(def, "").warehouse;
  wopts.seed = HashCombine(wopts.seed, shard);  // As WarehouseCluster seeds it.
  core::Warehouse warehouse(&corpus, &origin, nullptr, wopts);
  Pcg32 modify_rng(HashCombine(seed, 0x3d1f), shard);
  for (const PerfOp& op : r.ops) {
    if (op.cls == Cls::kPage && trace::ShardOfPage(op.page, def.shards) != shard) {
      continue;
    }
    const bool timed = r.Timed(op);
    const uint64_t t0 = NowNs();
    switch (op.cls) {
      case Cls::kPage: {
        warehouse.Tick(op.time);
        const uint64_t t1 = NowNs();
        core::PageVisit visit = warehouse.RequestPage(
            core::PageRequest{.page = op.page,
                              .user = op.user,
                              .session = op.session,
                              .via_link = op.via_link,
                              .now = op.time});
        const uint64_t t2 = NowNs();
        if (!timed) continue;
        w.tick_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        w.request_page_us.push_back(static_cast<double>(t2 - t1) / 1e3);
        w.model_ms.push_back(static_cast<double>(visit.latency) /
                             static_cast<double>(kMillisecond));
        break;
      }
      case Cls::kModify:
        corpus.ModifyObject(op.raw, op.time, modify_rng);
        warehouse.OnOriginModified(op.raw, op.time);
        if (!timed) continue;
        w.modify_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
        break;
      case Cls::kQuery: {
        if (!timed) continue;  // Queries build no state.
        const bool probe = r.Probe(op);
        auto result = warehouse.ExecuteQuery(
            op.query, core::QueryRunOptions{.use_index = op.use_index,
                                            .with_cost = probe});
        if (!result.ok()) continue;
        w.queries += 1;
        w.candidates += static_cast<double>(result->result.candidates_evaluated);
        w.rows += static_cast<double>(result->result.rows.size());
        if (result->result.used_index) w.indexed += 1;
        if (op.tmpl == Template::kMention && probe) {
          const uint64_t t1 = NowNs();
          w.mention_indexed[op.index] =
              static_cast<double>(result->result.candidates_evaluated);
          auto scan = warehouse.ExecuteQuery(
              op.query,
              core::QueryRunOptions{.use_index = false, .with_cost = true});
          if (scan.ok()) {
            w.mention_scan[op.index] =
                static_cast<double>(scan->result.candidates_evaluated);
          }
          // The comparison scan is not part of the op.
          w.depth.ms[op.index] = static_cast<double>(t1 - t0) / 1e6;
          w.depth.spans.push_back(Span{op.index, op.cls, t0, t1});
          continue;
        }
        break;
      }
    }
    const uint64_t t_end = NowNs();
    w.depth.ms[op.index] = static_cast<double>(t_end - t0) / 1e6;
    w.depth.spans.push_back(Span{op.index, op.cls, t0, t_end});
  }
  return w;
}

/// The warehouse depth of a whole cluster: every shard replayed on its
/// own warehouse. A page op's time is its owner's; a query's or modify's
/// is the slowest shard's, as the cluster call waits for all of them.
WarehouseTimes ReplayWarehouses(const WorkloadDef& def, const Replay& r,
                                uint64_t seed, std::vector<Depth>* shard_depths) {
  WarehouseTimes all;
  all.depth.name = "warehouse";
  all.depth.ms.assign(r.ops.size(), kNaN);
  all.mention_indexed.assign(r.ops.size(), kNaN);
  all.mention_scan.assign(r.ops.size(), kNaN);
  for (uint32_t shard = 0; shard < def.shards; ++shard) {
    WarehouseTimes w = ReplayWarehouse(def, r, seed, shard);
    for (size_t i = 0; i < r.ops.size(); ++i) {
      auto fold = [](double* into, double v, bool sum) {
        if (std::isnan(v)) return;
        *into = std::isnan(*into) ? v : (sum ? *into + v : std::max(*into, v));
      };
      fold(&all.depth.ms[i], w.depth.ms[i], false);
      fold(&all.mention_indexed[i], w.mention_indexed[i], true);
      fold(&all.mention_scan[i], w.mention_scan[i], true);
    }
    auto append = [](std::vector<double>* into, const std::vector<double>& v) {
      into->insert(into->end(), v.begin(), v.end());
    };
    append(&all.tick_us, w.tick_us);
    append(&all.request_page_us, w.request_page_us);
    append(&all.modify_us, w.modify_us);
    append(&all.model_ms, w.model_ms);
    all.candidates += w.candidates;
    all.rows += w.rows;
    all.queries += w.queries;
    all.indexed += w.indexed;
    shard_depths->push_back(std::move(w.depth));
  }
  return all;
}

/// Median over ops of class `cls` of upper[i] - lower[i].
double SelfMs(const Replay& r, const Depth& upper, const Depth& lower,
              Cls cls) {
  std::vector<double> diffs;
  for (const PerfOp& op : r.ops) {
    if (op.cls != cls) continue;
    double a = upper.ms[op.index], b = lower.ms[op.index];
    if (std::isnan(a) || std::isnan(b)) continue;
    diffs.push_back(a - b);
  }
  return Median(diffs);
}

void WriteSpans(const std::string& path, const std::vector<Depth>& depths,
                const std::vector<Span>& loaded) {
  std::ofstream out(path);
  out << "depth,op,class,start_ns,end_ns\n";
  for (const Span& s : loaded) {
    out << "loaded," << s.op << "," << ClsName(s.cls) << "," << s.start_ns
        << "," << s.end_ns << "\n";
  }
  for (const Depth& d : depths) {
    for (const Span& s : d.spans) {
      out << d.name << "," << s.op << "," << ClsName(s.cls) << ","
          << s.start_ns << "," << s.end_ns << "\n";
    }
  }
}

}  // namespace

RunOutput TracedRun(const WorkloadDef& def, const Args& args,
                    const std::string& run_dir) {
  RunOutput out;
  std::vector<Metric>& m = out.metrics;
  auto add = [&m](const std::string& name, double value, const char* unit) {
    m.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit});
  };
  const double quarter_s = std::max(0.5, args.seconds / 4);
  uint64_t phase_start = NowNs();
  auto phase_done = [&](const char* phase) {
    const uint64_t now = NowNs();
    out.extras.push_back(Metric{std::string("phase seconds: ") + phase,
                                static_cast<double>(now - phase_start) / 1e9,
                                "s"});
    phase_start = now;
  };

  // ---- 1. Loaded phase ----
  const std::string loaded_dir = run_dir + "/loaded";
  MakeDirs(loaded_dir);
  auto started = Fleet::Start(def, loaded_dir, def.gateway);
  if (!started.ok()) {
    out.error = started.status().ToString();
    return out;
  }
  std::unique_ptr<Fleet> fleet = std::move(*started);
  auto local = std::make_unique<Local>();
  LoadOptions opts;
  opts.seconds = 600;
  opts.max_ops = def.warmup_ops;
  opts.stream = kWarmupStream;
  opts.skip_queries = true;
  RunLoad(def, *local, fleet->front_port(), def.gateway, args.seed, opts);

  // Untraced and traced quarters in the order U T T U, so that state
  // drift over the run cancels out of the tracing overhead.
  int quarters = 0;
  auto quarter = [&](uint64_t stream, bool spans) {
    LoadOptions q;
    q.seconds = quarter_s;
    q.rate_rps = def.rate_rps;
    q.stream = stream;
    q.record_spans = spans;
    LoadResult r =
        RunLoad(def, *local, fleet->front_port(), def.gateway, args.seed, q);
    out.extras.push_back(Metric{
        StrFormat("quarter %d (%s): late_p99_ms", ++quarters,
                  spans ? "traced" : "untraced"),
        Percentile(r.late_ms, 99), "ms"});
    return r;
  };
  LoadResult plain = quarter(kMeasureStream, false);

  Snapshot before = Take(*fleet);
  const size_t pool_rtts0 =
      fleet->gateway() ? fleet->gateway()->pool().stats().round_trips.load() : 0;
  const size_t pool_err0 =
      fleet->gateway() ? fleet->gateway()->pool().stats().transport_errors.load()
                       : 0;
  auto monitor = std::make_unique<DurabilityMonitor>(loaded_dir);
  LoadResult traced = quarter(kMeasureStream + 100, true);
  MergeLoad(&traced, quarter(kMeasureStream + 101, true));
  const uint64_t self_cpu = SelfCpuNs() - before.self_cpu_ns;
  const double threads_after =
      static_cast<double>(ProcStatusField(getpid(), "Threads"));
  monitor->Finish();
  Snapshot after = Take(*fleet);
  MergeLoad(&plain, quarter(kMeasureStream + 102, false));
  for (const LoadResult* phase : {&plain, &traced}) {
    std::vector<std::string>& sink =
        phase->Wrong() > 0 ? out.problems : out.notes;
    for (const std::string& p : phase->problems) sink.push_back("loaded: " + p);
  }
  out.attempted = plain.Attempted() + traced.Attempted();
  out.failed = plain.Failed() + plain.Wrong() + traced.Failed() + traced.Wrong();

  const double ops = static_cast<double>(std::max<uint64_t>(1, traced.Ok()));
  const double wall = traced.wall_s;
  const ClassStats& traced_page = traced.cls[static_cast<size_t>(Cls::kPage)];
  const double pages = static_cast<double>(traced_page.ok);
  const double modifies =
      static_cast<double>(traced.cls[static_cast<size_t>(Cls::kModify)].ok);

  // Gateway counters: from the loaded phase when the workload has a
  // gateway; single-node workloads get them from the depth replay below.
  const bool gw = fleet->gateway() != nullptr;
  double gw_rtts = 0, gw_errors = 0, gw_cpu = 0;
  double gw_primary = 0, gw_peer = 0, gw_origin = 0, gw_unacked = 0,
         gw_hints = 0, gw_scatter_errors = 0, gw_threads = 0;
  if (gw) {
    gw_rtts = static_cast<double>(
        fleet->gateway()->pool().stats().round_trips.load() - pool_rtts0);
    gw_errors = static_cast<double>(
        fleet->gateway()->pool().stats().transport_errors.load() - pool_err0);
    gw_cpu = static_cast<double>(self_cpu > traced.client_cpu_ns
                                     ? self_cpu - traced.client_cpu_ns
                                     : 0);
    gw_primary = GatewayDelta(before, after,
                              "cbfww_gateway_read_rung_total{rung=\"primary\"}");
    gw_peer = GatewayDelta(before, after,
                           "cbfww_gateway_read_rung_total{rung=\"peer\"}");
    gw_origin = GatewayDelta(before, after,
                             "cbfww_gateway_read_rung_total{rung=\"origin\"}");
    gw_unacked = GatewayDelta(before, after,
                              "cbfww_gateway_writes_total{result=\"unacked\"}");
    gw_hints = GatewayDelta(before, after,
                            "cbfww_gateway_hints_total{event=\"queued\"}");
    gw_scatter_errors =
        GatewayDelta(before, after, "cbfww_gateway_scatter_node_errors_total");
    gw_threads = threads_after;
  }

  // Node counters.
  const double io_busy = NodeDelta(before, after, false, "cbfww_io_busy_ns");
  const double zero_copy =
      NodeDelta(before, after, false, "cbfww_body_bytes_total{path=\"zero_copy\"}");
  const double copied =
      NodeDelta(before, after, false, "cbfww_body_bytes_total{path=\"copied\"}");
  double busy_max = 0, imbalance = 0, high_water = 0, rendered = 0;
  for (size_t i = 0; i < after.metrics.size(); ++i) {
    std::vector<double> submitted;
    for (uint32_t s = 0; s < def.shards; ++s) {
      std::string shard = StrFormat("{shard=\"%u\"}", s);
      busy_max = std::max(
          busy_max, after.metrics[i]["cbfww_shard_busy_ns" + shard] -
                        before.metrics[i]["cbfww_shard_busy_ns" + shard]);
      submitted.push_back(after.metrics[i]["cbfww_shard_submitted_total" + shard] -
                          before.metrics[i]["cbfww_shard_submitted_total" + shard]);
    }
    double mean = 0;
    for (double v : submitted) mean += v / static_cast<double>(submitted.size());
    imbalance = std::max(
        imbalance, Ratio(*std::max_element(submitted.begin(), submitted.end()), mean));
    high_water = std::max(
        high_water, MaxSeries(after.metrics[i], "cbfww_shard_queue_depth_high_water"));
    rendered += SumSeries(after.metrics[i], "cbfww_body_store_rendered_bytes");
  }
  auto served = [&](const char* source) {
    return NodeDelta(before, after, true,
                     StrFormat("cbfww_served_from_total{source=\"%s\"}", source));
  };
  const double served_total =
      served("memory") + served("disk") + served("tertiary") + served("origin");
  const double requests =
      NodeDelta(before, after, true, "cbfww_warehouse_requests_total");
  auto per_kop = [&](const char* counter) {
    return 1000.0 * NodeDelta(before, after, true, counter) / ops;
  };
  const double cache_hits =
      NodeDelta(before, after, true, "cbfww_warehouse_query_cache_hits_total");
  const double cache_misses =
      NodeDelta(before, after, true, "cbfww_warehouse_query_cache_misses_total");

  // Recovery: restart node 0 over its directory.
  phase_done("loaded");
  auto recovered = fleet->RestartNode(0);
  const double recover_s = recovered.ok() ? *recovered : kNaN;
  if (!recovered.ok()) out.problems.push_back("restart: " + recovered.status().ToString());
  fleet.reset();

  // ---- 2. Depth replay ----
  Replay replay = ReplayOps(def, *local, args.seed);
  WorkloadDef gateway_def = def;  // Single-node workloads: a gateway over
  gateway_def.gateway = true;     // their one node, R = 1.
  WorkloadDef node_def = def;
  node_def.nodes = 1;
  node_def.gateway = false;
  node_def.replication = 1;

  Depth g, n;
  double replay_gw_rtts = 0, replay_gw_errors = 0, replay_gw_cpu = 0;
  {
    const std::string dir = run_dir + "/replay-gateway";
    MakeDirs(dir);
    auto f = Fleet::Start(gateway_def, dir, true);
    if (!f.ok()) {
      out.error = f.status().ToString();
      return out;
    }
    const uint64_t self0 = SelfCpuNs(), main0 = ThreadCpuNs();
    g = ReplayWire("gateway", gateway_def, replay, (*f)->front_port(), true,
                   *local, &out.problems, nullptr);
    const uint64_t self1 = SelfCpuNs(), main1 = ThreadCpuNs();
    replay_gw_cpu = static_cast<double>((self1 - self0) - (main1 - main0));
    replay_gw_rtts =
        static_cast<double>((*f)->gateway()->pool().stats().round_trips.load());
    replay_gw_errors = static_cast<double>(
        (*f)->gateway()->pool().stats().transport_errors.load());
    if (!gw) {
      std::map<std::string, double> gm = ScrapeMetrics((*f)->front_port());
      gw_primary = SumSeries(gm, "cbfww_gateway_read_rung_total{rung=\"primary\"}");
      gw_peer = SumSeries(gm, "cbfww_gateway_read_rung_total{rung=\"peer\"}");
      gw_origin = SumSeries(gm, "cbfww_gateway_read_rung_total{rung=\"origin\"}");
      gw_unacked = SumSeries(gm, "cbfww_gateway_writes_total{result=\"unacked\"}");
      gw_hints = SumSeries(gm, "cbfww_gateway_hints_total{event=\"queued\"}");
      gw_scatter_errors = SumSeries(gm, "cbfww_gateway_scatter_node_errors_total");
      gw_threads = static_cast<double>(ProcStatusField(getpid(), "Threads"));
    }
  }
  std::vector<std::string> node_bodies;
  {
    const std::string node_dir = run_dir + "/replay-node";
    MakeDirs(node_dir);
    auto f = Fleet::Start(node_def, node_dir, false);
    if (!f.ok()) {
      out.error = f.status().ToString();
      return out;
    }
    n = ReplayWire("node", node_def, replay, (*f)->front_port(), false,
                   *local, &out.problems, &node_bodies);
  }
  std::string cluster_dir;
  if (def.durability) {
    cluster_dir = run_dir + "/replay-cluster";
    MakeDirs(cluster_dir);
  }
  phase_done("replay gateway + node");
  Depth c = ReplayCluster(node_def, replay, cluster_dir, node_bodies,
                          &out.problems);
  std::vector<Depth> shard_depths;
  phase_done("replay cluster");
  WarehouseTimes w = ReplayWarehouses(node_def, replay, args.seed, &shard_depths);
  phase_done("replay warehouses");
  std::vector<Depth> depths = {g, n, c};
  for (Depth& d : shard_depths) depths.push_back(std::move(d));

  const std::string spans_path = StrFormat(
      "%s/spans-%s-%llu.csv", args.workdir.c_str(), def.name.c_str(),
      static_cast<unsigned long long>(args.seed));
  WriteSpans(spans_path, depths, traced.spans);

  // The gateway carried the whole replay, prefix included.
  const double replay_ops = static_cast<double>(replay.ops.size());
  const double gw_ops = gw ? ops : replay_ops;
  if (!gw) {
    gw_rtts = replay_gw_rtts;
    gw_errors = replay_gw_errors;
    gw_cpu = replay_gw_cpu;
  }
  const double reads = gw_primary + gw_peer + gw_origin;

  // ---- Metrics ----
  add("gateway.hop_ms", SelfMs(replay, g, n, Cls::kPage), "ms");
  add("gateway.upstream_rtts_per_op", Ratio(gw_rtts, gw_ops), "ratio");
  add("gateway.read_rung_primary_frac", Ratio(gw_primary, reads), "ratio");
  add("gateway.read_rung_peer_frac", Ratio(gw_peer, reads), "ratio");
  add("gateway.read_rung_origin_frac", Ratio(gw_origin, reads), "ratio");
  add("gateway.unacked_writes", gw_unacked, "count");
  add("gateway.hints", gw_hints, "count");
  add("gateway.transport_errors", gw_errors, "count");
  add("gateway.threads", gw_threads, "count");
  add("gateway.cpu_us_per_op", gw_cpu / 1e3 / gw_ops, "us");

  add("server.wire_ms.page", SelfMs(replay, n, c, Cls::kPage), "ms");
  add("server.wire_ms.query", SelfMs(replay, n, c, Cls::kQuery), "ms");
  add("server.wire_ms.modify", SelfMs(replay, n, c, Cls::kModify), "ms");
  add("server.io_busy_frac",
      Ratio(io_busy, wall * 1e9 * def.io_threads * def.nodes), "ratio");
  add("server.body_copied_frac", Ratio(copied, copied + zero_copy), "ratio");
  add("server.shed", NodeDelta(before, after, false, "cbfww_route_shed_total"),
      "count");
  add("server.conn_timeouts",
      NodeDelta(before, after, false, "cbfww_conn_timeouts_total"), "count");
  add("server.client_reconnects", static_cast<double>(traced.reconnects),
      "count");

  add("cluster.dispatch_ms.page", SelfMs(replay, c, w.depth, Cls::kPage), "ms");
  add("cluster.shard_busy_max_frac", Ratio(busy_max, wall * 1e9), "ratio");
  add("cluster.shard_imbalance", imbalance, "ratio");
  add("cluster.queue_depth_high_water", high_water, "count");

  add("core.request_page_us", Median(w.request_page_us), "us");
  add("core.modify_us", Median(w.modify_us), "us");
  add("core.tick_us", Median(w.tick_us), "us");
  add("core.served_memory_frac", Ratio(served("memory"), served_total), "ratio");
  add("core.served_disk_frac", Ratio(served("disk"), served_total), "ratio");
  add("core.served_origin_frac", Ratio(served("origin"), served_total), "ratio");
  add("core.origin_fetches_per_visit",
      Ratio(NodeDelta(before, after, true, "cbfww_warehouse_origin_fetches_total"),
            requests),
      "ratio");
  add("core.prediction_cache_hit_frac",
      Ratio(NodeDelta(before, after, true,
                      "cbfww_warehouse_prediction_cache_hits_total"),
            requests),
      "ratio");
  add("core.consistency_polls_per_kop",
      per_kop("cbfww_warehouse_consistency_polls_total"), "count");
  add("core.consistency_refreshes_per_kop",
      per_kop("cbfww_warehouse_consistency_refreshes_total"), "count");
  add("core.prefetches_per_kop", per_kop("cbfww_warehouse_prefetches_total"),
      "count");
  add("core.degraded_serves",
      NodeDelta(before, after, true, "cbfww_warehouse_degraded_serves_total"),
      "count");
  add("core.model_latency_ms", Median(w.model_ms), "ms");

  std::vector<double> exec_ms[kNumTemplates];
  for (const PerfOp& op : replay.ops) {
    if (op.cls == Cls::kQuery && !std::isnan(w.depth.ms[op.index])) {
      exec_ms[static_cast<int>(op.tmpl)].push_back(w.depth.ms[op.index]);
    }
  }
  for (int t = 0; t < kNumTemplates; ++t) {
    add(std::string("query.exec_ms.") + TemplateName(static_cast<Template>(t)),
        Median(exec_ms[t]), "ms");
  }
  add("query.candidates_per_row", Ratio(w.candidates, w.rows), "ratio");
  add("query.cache_hit_frac", Ratio(cache_hits, cache_hits + cache_misses),
      "ratio");
  add("query.scatter_node_errors", gw_scatter_errors, "count");

  std::vector<double> with_index, without_index;
  for (size_t i = 0; i < replay.ops.size(); ++i) {
    if (!std::isnan(w.mention_indexed[i])) with_index.push_back(w.mention_indexed[i]);
    if (!std::isnan(w.mention_scan[i])) without_index.push_back(w.mention_scan[i]);
  }
  add("index.mention_candidates", Median(with_index), "count");
  add("index.mention_candidates_noindex", Median(without_index), "count");
  add("index.indexed_frac", Ratio(w.indexed, w.queries), "ratio");

  add("segment.rendered_mb", rendered / (1024.0 * 1024.0), "MiB");
  add("segment.body_bytes_per_visit",
      def.body_reads ? Ratio(zero_copy + copied, pages) : 0.0, "bytes");

  add("durability.wal_bytes_per_modify", Ratio(monitor->wal_bytes(), modifies),
      "bytes");
  add("durability.checkpoints", monitor->checkpoints(), "count");
  add("durability.recover_s", recover_s, "s");

  add("loadgen.late_p99_ms", Percentile(traced.late_ms, 99), "ms");
  add("loadgen.cpu_us_per_op",
      static_cast<double>(traced.client_cpu_ns) / 1e3 / ops, "us");

  const ClassStats& plain_page = plain.cls[static_cast<size_t>(Cls::kPage)];
  const double plain_p50 = Percentile(plain_page.lat_ms, 50);
  const double plain_thr = static_cast<double>(plain.Ok()) / plain.wall_s;
  add("trace.overhead_page_p50_frac",
      Ratio(Percentile(traced_page.lat_ms, 50) - plain_p50, plain_p50), "ratio");
  add("trace.overhead_throughput_frac",
      Ratio(plain_thr - static_cast<double>(traced.Ok()) / wall, plain_thr),
      "ratio");

  // Stress attribution: does each workload load the layers it claims to?
  // Shares are medians over ops of one class of a layer's self time over
  // the op's latency at depth `top`.
  auto share = [&](const Depth& upper, const Depth* lower, const Depth& top,
                   Cls cls) {
    std::vector<double> shares;
    for (const PerfOp& op : replay.ops) {
      if (op.cls != cls) continue;
      const double a = upper.ms[op.index];
      const double b = lower != nullptr ? lower->ms[op.index] : 0.0;
      const double d = top.ms[op.index];
      if (std::isnan(a) || std::isnan(b) || std::isnan(d) || d <= 0) continue;
      shares.push_back((a - b) / d);
    }
    return Median(shares);
  };
  double query_w = 0, all_n = 0;
  for (const PerfOp& op : replay.ops) {
    if (!replay.Timed(op) || replay.Probe(op)) continue;  // Stream ops.
    if (!std::isnan(n.ms[op.index])) all_n += n.ms[op.index];
    if (op.cls == Cls::kQuery && !std::isnan(w.depth.ms[op.index])) {
      query_w += w.depth.ms[op.index];
    }
  }
  // Queries and pages against the node (the workload's own front for
  // browse and analyst); modifies against the gateway (replicated_churn's).
  const double q_exec = share(w.depth, nullptr, n, Cls::kQuery);
  const double q_dispatch = share(c, &w.depth, n, Cls::kQuery);
  const double q_wire = share(n, &c, n, Cls::kQuery);
  const double page_server_cluster = share(n, &w.depth, n, Cls::kPage);
  const double modify_gateway_wire = share(g, &c, g, Cls::kModify);
  add("attr.query_exec_share", q_exec, "ratio");
  add("attr.query_dispatch_share", q_dispatch, "ratio");
  add("attr.query_wire_share", q_wire, "ratio");
  add("attr.query_self_share", Ratio(query_w, all_n), "ratio");
  add("attr.page_server_cluster_share", page_server_cluster, "ratio");
  add("attr.modify_gateway_wire_share", modify_gateway_wire, "ratio");
  auto claim = [&out](const std::string& text, bool holds) {
    out.notes.push_back(
        std::string(holds ? "[stress holds] " : "[stress does not hold] ") + text);
  };
  if (def.name == "analyst") {
    claim("analyst: query exec is the largest share of query latency",
          q_exec > q_dispatch && q_exec > q_wire);
  } else if (def.name == "browse") {
    claim("browse: query self time negligible, server+cluster carry most of "
          "page latency",
          Ratio(query_w, all_n) < 0.01 && page_server_cluster > 0.5);
  } else {
    claim("replicated_churn: gateway + node wire the largest share of modify "
          "latency",
          modify_gateway_wire > 0.5);
  }
  out.notes.push_back("spans written to " + spans_path);
  if (def.rate_rps > 0 && Percentile(traced.late_ms, 99) > kLateFlagMs) {
    out.notes.push_back(StrFormat(
        "FLAG open-loop generator fell behind: late_p99_ms %.3f > %.0f",
        Percentile(traced.late_ms, 99), kLateFlagMs));
  }
  out.correct = out.problems.empty();
  out.ran = true;
  return out;
}

}  // namespace cbfww::perfbench
