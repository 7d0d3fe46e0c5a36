#include "perf_run.h"

#include <dirent.h>
#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>

#include "util/hash.h"
#include "util/strings.h"

namespace cbfww::perfbench {

Local::Local()
    : corpus(BenchCorpusOptions()), params(corpus), bodies(corpus) {}

uint64_t LoadResult::Ok() const {
  uint64_t n = 0;
  for (const ClassStats& c : cls) n += c.ok;
  return n;
}
uint64_t LoadResult::Attempted() const {
  uint64_t n = 0;
  for (const ClassStats& c : cls) n += c.attempted;
  return n;
}
uint64_t LoadResult::Failed() const {
  uint64_t n = 0;
  for (const ClassStats& c : cls) n += c.failed;
  return n;
}
uint64_t LoadResult::Wrong() const {
  uint64_t n = 0;
  for (const ClassStats& c : cls) n += c.wrong;
  return n;
}
namespace {

constexpr size_t kMaxProblems = 8;


server::ClientOptions LoadClientOptions() {
  server::ClientOptions copts;
  copts.connect_timeout_ms = 5000;
  copts.read_timeout_ms = 60000;
  copts.write_timeout_ms = 10000;
  return copts;
}

void Note(std::mutex& mu, std::vector<std::string>* problems,
          const std::string& text) {
  std::lock_guard<std::mutex> lock(mu);
  if (problems->size() < kMaxProblems) problems->push_back(text);
}

}  // namespace

void MergeLoad(LoadResult* into, const LoadResult& from) {
  for (size_t c = 0; c < kNumCls; ++c) {
    ClassStats& to = into->cls[c];
    const ClassStats& add = from.cls[c];
    to.lat_ms.insert(to.lat_ms.end(), add.lat_ms.begin(), add.lat_ms.end());
    to.at_s.insert(to.at_s.end(), add.at_s.begin(), add.at_s.end());
    to.done_s.insert(to.done_s.end(), add.done_s.begin(), add.done_s.end());
    to.attempted += add.attempted;
    to.ok += add.ok;
    to.failed += add.failed;
    to.wrong += add.wrong;
  }
  into->late_ms.insert(into->late_ms.end(), from.late_ms.begin(),
                       from.late_ms.end());
  into->wall_s += from.wall_s;
  into->client_cpu_ns += from.client_cpu_ns;
  into->reconnects += from.reconnects;
  into->spans.insert(into->spans.end(), from.spans.begin(), from.spans.end());
  into->problems.insert(into->problems.end(), from.problems.begin(),
                        from.problems.end());
}

LoadResult RunLoad(const WorkloadDef& def, Local& local, uint16_t port,
                   bool via_gateway, uint64_t seed,
                   const LoadOptions& options) {
  ResponseChecker checker{&def, &local.corpus, &local.bodies, via_gateway};
  OpSource source(def, &local.corpus, &local.params, seed, options.stream);
  const bool open = options.rate_rps > 0.0;
  const uint32_t conns = std::max<uint32_t>(1, def.connections);

  // The open loop's schedule is fixed before the clock starts.
  std::vector<PerfOp> schedule;
  if (open) {
    uint64_t n = static_cast<uint64_t>(options.rate_rps * options.seconds);
    if (options.max_ops > 0) n = std::min(n, options.max_ops);
    schedule.reserve(n);
    for (uint64_t i = 0; i < n; ++i) schedule.push_back(source.Next());
  }
  const double gap_ns = open ? 1e9 / options.rate_rps : 0.0;

  std::mutex mu;  // Guards `source`, `issued` and problem notes.
  uint64_t issued = 0;
  LoadResult result;
  std::vector<LoadResult> per_thread(conns);
  const uint64_t start_ns = NowNs();
  const uint64_t end_ns =
      start_ns + static_cast<uint64_t>(options.seconds * 1e9);

  // Each client publishes its thread CPU after every op, for the sampler.
  std::vector<std::atomic<uint64_t>> client_cpu(conns);
  std::atomic<uint32_t> finished{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < conns; ++t) {
    threads.emplace_back([&, t] {
      LoadResult& mine = per_thread[t];
      const uint64_t cpu0 = ThreadCpuNs();
      client_cpu[t].store(cpu0);
      struct Finish {
        std::atomic<uint32_t>* finished;
        ~Finish() { finished->fetch_add(1); }
      } finish{&finished};
      server::SimpleHttpClient client(LoadClientOptions());
      if (!client.Connect("127.0.0.1", port).ok()) {
        Note(mu, &result.problems, "load client could not connect");
        return;
      }
      uint64_t prev_done = NowNs();
      for (uint64_t k = 0;; ++k) {
        PerfOp op;
        uint64_t scheduled = 0;
        if (open) {
          uint64_t i = t + k * conns;
          if (i >= schedule.size()) break;
          op = schedule[i];
          scheduled = start_ns + static_cast<uint64_t>(static_cast<double>(i) *
                                                       gap_ns);
          uint64_t now = NowNs();
          if (now < scheduled) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(scheduled - now));
          }
        } else {
          if (NowNs() >= end_ns) break;
          std::lock_guard<std::mutex> lock(mu);
          if (options.max_ops > 0 && issued >= options.max_ops) break;
          do {
            op = source.Next();
          } while (options.skip_queries && op.cls == Cls::kQuery);
          ++issued;
        }
        WireRequest w = RenderRequest(def, op, /*explicit_time=*/false);
        const uint64_t send_ns = NowNs();
        auto response = client.RoundTrip(w.method, w.target, w.body);
        const uint64_t done_ns = NowNs();
        mine.late_ms.push_back(
            static_cast<double>(send_ns - (open ? scheduled : prev_done)) / 1e6);
        prev_done = done_ns;
        if (options.sample_every_s > 0) client_cpu[t].store(ThreadCpuNs());
        ClassStats& cs = mine.cls[static_cast<size_t>(op.cls)];
        cs.attempted++;
        if (!response.ok()) {
          cs.failed++;
          Note(mu, &result.problems,
               StrFormat("%s %s: %s", w.method.c_str(), w.target.c_str(),
                         response.status().ToString().c_str()));
          client.Close();
          if (client.Connect("127.0.0.1", port).ok()) mine.reconnects++;
          continue;
        }
        std::string why;
        // Every body's size is checked here; a seeded sample of bodies is
        // compared byte for byte after the run (CheckBodies), so the
        // expected bytes never grow this process's memory mid-run.
        Outcome outcome =
            checker.Check(op, *response, /*compare_bytes=*/false, &why);
        if (outcome == Outcome::kOk) {
          cs.ok++;
          cs.lat_ms.push_back(
              static_cast<double>(done_ns - (open ? scheduled : send_ns)) / 1e6);
          cs.at_s.push_back(
              static_cast<double>((open ? scheduled : done_ns) - start_ns) / 1e9);
          cs.done_s.push_back(static_cast<double>(done_ns - start_ns) / 1e9);
          if (options.record_spans) {
            mine.spans.push_back(Span{op.index, op.cls, send_ns, done_ns});
          }
        } else {
          (outcome == Outcome::kFailed ? cs.failed : cs.wrong)++;
          Note(mu, &result.problems,
               StrFormat("%s %s: %s", w.method.c_str(), w.target.c_str(),
                         why.c_str()));
        }
        if (!response->keep_alive) {
          client.Close();
          if (client.Connect("127.0.0.1", port).ok()) mine.reconnects++;
        }
      }
      client_cpu[t].store(ThreadCpuNs());
      mine.client_cpu_ns = client_cpu[t].load() - cpu0;
    });
  }
  if (options.sample_every_s > 0) {
    // CPU samples at fixed offsets from the start.
    auto sample = [&](double at_s) {
      CpuSample cs;
      cs.at_s = at_s;
      for (pid_t pid : options.cpu_pids) cs.pids_ns += ProcCpuNs(pid);
      cs.self_ns = SelfCpuNs();
      for (uint32_t t = 0; t < conns; ++t) cs.clients_ns += client_cpu[t].load();
      result.cpu.push_back(cs);
    };
    sample(0.0);
    for (int k = 1; finished.load() < conns; ++k) {
      const uint64_t at = start_ns + static_cast<uint64_t>(
                                         k * options.sample_every_s * 1e9);
      while (NowNs() < at && finished.load() < conns) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (finished.load() < conns) sample(k * options.sample_every_s);
    }
  }
  for (std::thread& th : threads) th.join();
  for (const LoadResult& mine : per_thread) {
    std::vector<std::string> problems = std::move(result.problems);
    MergeLoad(&result, mine);
    result.problems = std::move(problems);
  }
  result.wall_s = static_cast<double>(NowNs() - start_ns) / 1e9;
  return result;
}

namespace {

std::string RowsOf(const std::string& body) {
  size_t begin = body.find("\"rows\":[");
  size_t end = body.find("],\"candidates_evaluated\"");
  if (begin == std::string::npos || end == std::string::npos || end < begin) {
    return "<malformed>";
  }
  return body.substr(begin, end - begin);
}

std::string WithParam(std::string target, const char* param) {
  target += target.find('?') == std::string::npos ? '?' : '&';
  return target + param;
}

}  // namespace

void CheckQueries(Fleet& fleet, const Local& local, uint64_t seed,
                  std::vector<std::string>* problems) {
  Pcg32 rng(HashCombine(seed, kProbeStream), 0x9e);
  for (int t = 0; t < kNumTemplates; ++t) {
    const Template tmpl = static_cast<Template>(t);
    const std::string text = local.params.Render(tmpl, rng);
    const std::string target =
        tmpl == Template::kScan ? "/query?use_index=0" : "/query";
    const char* name = TemplateName(tmpl);
    if (fleet.gateway() != nullptr) {
      // Behind the gateway: every node's scatter slot must be exactly what
      // that node answers to a direct request.
      auto scatter = OneShot(fleet.front_port(), "POST", target, text);
      if (!scatter.ok() || scatter->status != 200) {
        problems->push_back(StrFormat("%s: scatter query failed", name));
        continue;
      }
      for (size_t n = 0; n < fleet.num_nodes(); ++n) {
        auto direct = OneShot(fleet.node_port(n), "POST", target, text);
        if (!direct.ok() || direct->status != 200 ||
            scatter->body.find("\"result\":" + direct->body) ==
                std::string::npos) {
          problems->push_back(StrFormat(
              "%s: node-%zu scatter slot differs from a direct request", name,
              n));
        }
      }
      continue;
    }
    // One node: the served answer (possibly from the result cache) must
    // equal a fresh execution, and MENTION must agree with and without the
    // index.
    auto served = OneShot(fleet.front_port(), "POST", target, text);
    auto fresh =
        OneShot(fleet.front_port(), "POST", WithParam(target, "with_cost=1"), text);
    if (!served.ok() || !fresh.ok() || served->status != 200 ||
        fresh->status != 200) {
      problems->push_back(StrFormat("%s: query failed at quiescence", name));
      continue;
    }
    if (RowsOf(served->body) != RowsOf(fresh->body)) {
      problems->push_back(
          StrFormat("%s: served rows differ from a fresh execution", name));
    }
    if (tmpl == Template::kMention) {
      auto scan = OneShot(fleet.front_port(), "POST",
                          "/query?use_index=0&with_cost=1", text);
      if (!scan.ok() || scan->status != 200 ||
          RowsOf(scan->body) != RowsOf(fresh->body)) {
        problems->push_back("mention: indexed rows differ from a scan");
      }
    }
  }
}

void CheckBodies(const WorkloadDef& def, Fleet& fleet, Local& local,
                 uint64_t seed, std::vector<std::string>* problems) {
  if (!def.body_reads) return;
  // The pages of the measured stream's first page ops: pages the run
  // really served.
  OpSource source(def, &local.corpus, &local.params, seed, kMeasureStream);
  ResponseChecker checker{&def, &local.corpus, &local.bodies,
                          fleet.gateway() != nullptr};
  int checked = 0;
  for (int i = 0; i < 10000 && checked < kBodySample; ++i) {
    PerfOp op = source.Next();
    if (op.cls != Cls::kPage) continue;
    ++checked;
    WireRequest w = RenderRequest(def, op, /*explicit_time=*/false);
    auto response = OneShot(fleet.front_port(), w.method, w.target);
    std::string why;
    if (!response.ok()) {
      problems->push_back("body sample: " + response.status().ToString());
    } else if (checker.Check(op, *response, /*compare_bytes=*/true, &why) !=
               Outcome::kOk) {
      problems->push_back("body sample: " + why);
    }
  }
}

namespace {

/// Modify-route requests a node has received (its /metrics counter).
double ModifyCount(const std::map<std::string, double>& metrics) {
  return SumSeries(metrics, "cbfww_route_requests_total{route=\"modify\"}");
}

void AddMetric(std::vector<Metric>* out, const std::string& name, double value,
               const std::string& unit) {
  out->push_back(Metric{name, value, unit});
}

/// p99 needs this many samples to have ten beyond it.
constexpr size_t kP99Samples = 1000;

}  // namespace

RunOutput MeasuredRun(const WorkloadDef& def, const Args& args,
                      const std::string& run_dir) {
  RunOutput out;
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<Local> local;
  for (int k = 0; k < args.setups; ++k) {
    if (fleet) {
      // Tear the previous set-up down completely: the next fork must see
      // a process with no threads and no leftover corpus.
      fleet.reset();
      local.reset();
      malloc_trim(0);
      RemoveTree(run_dir);
      MakeDirs(run_dir);
    }
    const uint64_t t0 = NowNs();
    auto started = Fleet::Start(def, run_dir, def.gateway);
    if (!started.ok()) {
      out.error = started.status().ToString();
      return out;
    }
    fleet = std::move(*started);
    local = std::make_unique<Local>();
    LoadOptions warm;
    warm.seconds = 600;
    warm.max_ops = def.warmup_ops;
    warm.stream = kWarmupStream;
    warm.skip_queries = true;
    LoadResult warmed =
        RunLoad(def, *local, fleet->front_port(), def.gateway, args.seed, warm);
    if (warmed.Failed() + warmed.Wrong() > 0) {
      out.problems.push_back("warm-up: " + (warmed.problems.empty()
                                                ? std::string("ops failed")
                                                : warmed.problems[0]));
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  // Baselines, then the measured window.
  const size_t n = fleet->num_nodes();
  std::vector<uint64_t> cpu0(n);
  std::vector<std::map<std::string, double>> metrics0(n);
  for (size_t i = 0; i < n; ++i) {
    metrics0[i] = ScrapeMetrics(fleet->node_port(i));
    cpu0[i] = ProcCpuNs(fleet->node_pid(i));
  }
  const uint64_t self_cpu0 = SelfCpuNs();

  const int slices =
      std::max(1, static_cast<int>(std::lround(args.seconds / def.slice_s)));
  LoadOptions measure;
  measure.seconds = args.seconds;
  measure.stream = kMeasureStream;
  measure.rate_rps = def.rate_rps;
  measure.sample_every_s = args.seconds / slices;
  for (size_t i = 0; i < n; ++i) measure.cpu_pids.push_back(fleet->node_pid(i));
  LoadResult load = RunLoad(def, *local, fleet->front_port(), def.gateway,
                            args.seed, measure);

  const uint64_t self_cpu = SelfCpuNs() - self_cpu0;
  uint64_t node_cpu = 0;
  double node_rss_kb = 0;
  for (size_t i = 0; i < n; ++i) {
    node_cpu += ProcCpuNs(fleet->node_pid(i)) - cpu0[i];
    node_rss_kb += static_cast<double>(ProcStatusField(fleet->node_pid(i), "VmHWM"));
  }
  // The gateway shares this process with the load generator: its CPU is
  // the process's minus the client threads', and its memory is this
  // process's.
  uint64_t gateway_cpu = 0;
  double gateway_rss_kb = 0;
  if (fleet->gateway() != nullptr) {
    gateway_cpu = self_cpu > load.client_cpu_ns ? self_cpu - load.client_cpu_ns : 0;
    gateway_rss_kb = static_cast<double>(ProcStatusField(getpid(), "VmHWM"));
  }
  CheckBodies(def, *fleet, *local, args.seed, &out.problems);

  // Quiescent checks: every acknowledged modify reached every node, and
  // the query answers over the wire match their references.
  const uint64_t acked = load.cls[static_cast<size_t>(Cls::kModify)].ok;
  const uint64_t failed_modifies =
      load.cls[static_cast<size_t>(Cls::kModify)].failed;
  for (size_t i = 0; i < n; ++i) {
    double delta = ModifyCount(ScrapeMetrics(fleet->node_port(i))) -
                   ModifyCount(metrics0[i]);
    bool ok = failed_modifies == 0 ? delta == static_cast<double>(acked)
                                   : delta >= static_cast<double>(acked);
    if (!ok) {
      out.problems.push_back(StrFormat(
          "node-%zu saw %.0f modifies, %llu were acknowledged", i, delta,
          static_cast<unsigned long long>(acked)));
    }
    DrainReport(fleet->node_port(i));
  }
  CheckQueries(*fleet, *local, args.seed, &out.problems);
  const bool fleet_had_gateway = fleet->gateway() != nullptr;
  fleet.reset();

  // Failed ops count in `failed`; wrong answers also make the run
  // incorrect.
  std::vector<std::string>& sink = load.Wrong() > 0 ? out.problems : out.notes;
  sink.insert(sink.end(), load.problems.begin(), load.problems.end());
  out.attempted = load.Attempted();
  out.failed = load.Failed() + load.Wrong();
  out.correct = out.problems.empty();
  out.ran = out.attempted > 0;
  if (!out.ran) out.error = "no op was attempted";

  // Each metric is the median over equal slices of the measured window,
  // so a burst of interference from outside spoils one slice, not the run.
  const double slice_s = args.seconds / slices;
  const ClassStats& page = load.cls[static_cast<size_t>(Cls::kPage)];
  std::vector<double> thr, p50, p99, cpu;
  for (int k = 0; k < slices; ++k) {
    const double lo = k * slice_s, hi = (k + 1) * slice_s;
    // Latency by the slice an op belongs to; throughput by completions.
    std::vector<double> page_lat;
    size_t done = 0;
    for (size_t c = 0; c < kNumCls; ++c) {
      const ClassStats& cs = load.cls[c];
      for (size_t i = 0; i < cs.lat_ms.size(); ++i) {
        if (cs.done_s[i] >= lo && cs.done_s[i] < hi) ++done;
        if (static_cast<Cls>(c) == Cls::kPage && cs.at_s[i] >= lo &&
            cs.at_s[i] < hi) {
          page_lat.push_back(cs.lat_ms[i]);
        }
      }
    }
    if (done == 0) continue;
    thr.push_back(static_cast<double>(done) / slice_s);
    p50.push_back(Percentile(page_lat, 50));
    p99.push_back(Percentile(page_lat, 99));
    if (static_cast<size_t>(k + 1) < load.cpu.size()) {
      const CpuSample& a = load.cpu[k];
      const CpuSample& b = load.cpu[k + 1];
      double used = static_cast<double>(b.pids_ns - a.pids_ns);
      if (fleet_had_gateway) {
        const double self = static_cast<double>(b.self_ns - a.self_ns);
        const double clients = static_cast<double>(b.clients_ns - a.clients_ns);
        used += std::max(0.0, self - clients);
      }
      cpu.push_back(used / 1e3 / static_cast<double>(done));
    }
  }
  const uint64_t ok = std::max<uint64_t>(1, load.Ok());
  if (cpu.empty()) {
    cpu.push_back(static_cast<double>(node_cpu + gateway_cpu) / 1e3 /
                  static_cast<double>(ok));
  }
  AddMetric(&out.metrics, "throughput_ops_s", Median(thr), "1/s");
  AddMetric(&out.metrics, "page_p50_ms", Median(p50), "ms");
  AddMetric(&out.metrics, "page_p99_ms", Median(p99), "ms");
  AddMetric(&out.metrics, "cpu_us_per_op", Median(cpu), "us");
  AddMetric(&out.metrics, "peak_rss_mb", (node_rss_kb + gateway_rss_kb) / 1024.0,
            "MiB");
  AddMetric(&out.metrics, "setup_s", Median(setup_s), "s");

  // For people: every class's latency and sample count, and the flags.
  for (size_t c = 0; c < kNumCls; ++c) {
    const ClassStats& cs = load.cls[c];
    if (cs.attempted == 0) continue;
    const std::string name = ClsName(static_cast<Cls>(c));
    AddMetric(&out.extras, name + "_samples", static_cast<double>(cs.ok), "count");
    AddMetric(&out.extras, name + "_p50_ms", Percentile(cs.lat_ms, 50), "ms");
    if (cs.lat_ms.size() >= kP99Samples) {
      AddMetric(&out.extras, name + "_p99_ms", Percentile(cs.lat_ms, 99), "ms");
    }
  }
  AddMetric(&out.extras, "failed_frac",
            static_cast<double>(out.failed) /
                static_cast<double>(std::max<uint64_t>(1, out.attempted)),
            "ratio");
  AddMetric(&out.extras, "loadgen.late_p99_ms", Percentile(load.late_ms, 99),
            "ms");
  if (def.rate_rps > 0 && Percentile(load.late_ms, 99) > kLateFlagMs) {
    out.notes.push_back(StrFormat(
        "FLAG open-loop generator fell behind: late_p99_ms %.3f > %.0f",
        Percentile(load.late_ms, 99), kLateFlagMs));
  }
  AddMetric(&out.extras, "gateway.cpu_us_per_op",
            static_cast<double>(gateway_cpu) / 1e3 / static_cast<double>(ok),
            "us");
  AddMetric(&out.extras, "loadgen.cpu_us_per_op",
            static_cast<double>(load.client_cpu_ns) / 1e3 /
                static_cast<double>(ok),
            "us");
  AddMetric(&out.extras, "wall_s", load.wall_s, "s");
  AddMetric(&out.extras, "whole_run.throughput_ops_s",
            static_cast<double>(load.Ok()) / load.wall_s, "1/s");
  AddMetric(&out.extras, "whole_run.cpu_us_per_op",
            static_cast<double>(node_cpu + gateway_cpu) / 1e3 /
                static_cast<double>(ok),
            "us");
  AddMetric(&out.extras, "nodes.peak_rss_mb", node_rss_kb / 1024.0, "MiB");
  AddMetric(&out.extras, "gateway.peak_rss_mb", gateway_rss_kb / 1024.0, "MiB");
  AddMetric(&out.extras, "slices", static_cast<double>(slices), "count");
  if (page.lat_ms.size() < kP99Samples * static_cast<size_t>(slices)) {
    out.extras.push_back(
        Metric{"WARNING page_p99_ms from slices of fewer than 1000 samples",
               static_cast<double>(page.lat_ms.size()) / slices, "count"});
  }
  return out;
}

// ----- Output -----

void PrintEnv(const WorkloadDef& def, const Args& args) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = std::string(TrimAscii(line.substr(colon + 1)));
      break;
    }
  }
  std::string load = "unknown";
  std::ifstream loadavg("/proc/loadavg");
  std::getline(loadavg, load);
  std::printf(
      "# env workload=%s seed=%llu seconds=%g trace=%d nproc=%ld cpu=\"%s\" "
      "loadavg=\"%s\"\n",
      def.name.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      cpu.c_str(), load.c_str());
  std::printf(
      "# shape nodes=%u shards=%u io_threads=%u gateway=%d replication=%u "
      "connections=%u loop=%s rate_rps=%g durability=%d "
      "checkpoint_every_events=%llu\n",
      def.nodes, def.shards, def.io_threads, def.gateway ? 1 : 0,
      def.replication, def.connections, def.rate_rps > 0 ? "open" : "closed",
      def.rate_rps, def.durability ? 1 : 0,
      static_cast<unsigned long long>(def.checkpoint_every_events));
  std::fflush(stdout);
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  return StrFormat("%.17g", v);
}

}  // namespace

void PrintResult(const RunOutput& out) {
  for (const Metric& m : out.metrics) {
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : out.extras) {
    std::printf("  %-38s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& n : out.notes) std::printf("NOTE: %s\n", n.c_str());
  for (const std::string& p : out.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      out.correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + out.metrics[i].name + "\": {\"value\": " +
            JsonNumber(out.metrics[i].value) + ", \"unit\": \"" +
            out.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

bool MakeDirs(const std::string& path) {
  std::string partial;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!partial.empty()) ::mkdir(partial.c_str(), 0755);
    }
    if (i < path.size()) partial += path[i];
  }
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

void RemoveTree(const std::string& path) {
  DIR* d = ::opendir(path.c_str());
  if (d != nullptr) {
    while (dirent* entry = ::readdir(d)) {
      std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      std::string child = path + "/" + name;
      struct stat st;
      if (::lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        RemoveTree(child);
      } else {
        ::unlink(child.c_str());
      }
    }
    ::closedir(d);
  }
  ::rmdir(path.c_str());
}

}  // namespace cbfww::perfbench
