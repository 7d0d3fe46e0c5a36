// Shared pieces of the end-to-end benchmark program: workload definitions,
// the seeded op stream, wire rendering and response checks, the forked
// node fleet, and the outside-in probes (/proc, /metrics, drain reports).
#ifndef CBFWW_PERFBENCH_PERF_COMMON_H_
#define CBFWW_PERFBENCH_PERF_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

#include "cluster/warehouse_cluster.h"
#include "corpus/web_corpus.h"
#include "gateway/gateway_server.h"
#include "gateway/node_process.h"
#include "server/body_store.h"
#include "server/http_client.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/zipf.h"
#include "workload/op_generator.h"

namespace cbfww::perfbench {

// ----- Time and /proc -----

uint64_t NowNs();
/// utime + stime of a process, in nanoseconds (0 when unreadable).
uint64_t ProcCpuNs(pid_t pid);
/// CPU of the calling thread (CLOCK_THREAD_CPUTIME_ID).
uint64_t ThreadCpuNs();
/// CPU of this whole process (all threads, no children).
uint64_t SelfCpuNs();
/// A `/proc/<pid>/status` field in its native unit (kB for Vm*), or 0.
uint64_t ProcStatusField(pid_t pid, std::string_view field);

/// Nearest-rank percentile of an unsorted sample (copied). 0 when empty.
double Percentile(std::vector<double> values, double pct);
double Median(std::vector<double> values);

// ----- Workloads -----

enum class Cls : uint8_t { kPage = 0, kQuery, kModify };
inline constexpr size_t kNumCls = 3;
const char* ClsName(Cls cls);

/// OQL templates. kModifier doubles as the flat scatter query of
/// replicated_churn.
enum class Template : int8_t {
  kNone = -1,
  kMention = 0,
  kExists,
  kEndAtIn,
  kNestedExists,
  kModifier,
  kScan,
};
inline constexpr int kNumTemplates = 6;
const char* TemplateName(Template t);

struct WorkloadDef {
  std::string name;
  // Topology.
  bool gateway = false;
  uint32_t nodes = 1;
  uint32_t shards = 4;
  uint32_t io_threads = 2;
  uint32_t replication = 1;
  /// Node durability (WAL + checkpoints) under the run's work directory.
  bool durability = false;
  uint64_t checkpoint_every_events = 0;
  // Load shape.
  uint32_t connections = 4;
  /// 0 = closed loop; otherwise the open loop's fixed arrival rate.
  double rate_rps = 0.0;
  /// State-building ops (no queries) before measuring: enough for the
  /// workload's per-op cost to stop drifting within a run.
  uint64_t warmup_ops = 0;
  /// Length of one measurement slice (metrics are medians over slices).
  double slice_s = 2.0;
  /// Ops replayed per depth by the traced run, after an untimed prefix of
  /// state-building ops (visits and modifies of the warm-up stream).
  uint64_t trace_ops = 0;
  uint64_t trace_prefix_ops = 0;
  // Mix.
  double page_frac = 1.0;
  double query_frac = 0.0;  // Remainder is modify.
  /// GET /body (rendered bytes) vs GET /page (visit JSON).
  bool body_reads = true;
  /// Reads and modifies over the hot containers (replicated_churn) instead
  /// of Zipf over every page plus uniform modifies.
  bool hot_set = false;
  /// Query template weights (indexed by Template).
  double template_weight[kNumTemplates] = {0, 0, 0, 0, 0, 0};
};

/// Looks up `browse`, `analyst` or `replicated_churn`; nullptr otherwise.
const WorkloadDef* FindWorkload(std::string_view name);
/// The names above, in order.
std::vector<std::string> WorkloadNames();

/// Corpus and warehouse shape shared by every workload: 12 sites x 250
/// pages, memory tier 24 MiB per node (divided over its shards).
corpus::CorpusOptions BenchCorpusOptions();
cluster::ClusterOptions BenchClusterOptions(const WorkloadDef& def,
                                            const std::string& durability_dir);

/// Seeded parameter pools for the query templates, derived from the corpus.
class QueryParams {
 public:
  explicit QueryParams(const corpus::WebCorpus& corpus);
  /// Renders one instance of `t`; parameters drawn from `rng`.
  std::string Render(Template t, Pcg32& rng) const;

 private:
  std::vector<std::string> title_terms_;  // Most frequent first.
  ZipfSampler term_zipf_;
  std::vector<uint64_t> size_thresholds_;
  std::vector<std::string> urls_;  // Popularity-shuffled container URLs.
  ZipfSampler url_zipf_;
};

struct PerfOp {
  uint64_t index = 0;
  Cls cls = Cls::kPage;
  Template tmpl = Template::kNone;
  corpus::PageId page = corpus::kInvalidPageId;
  corpus::RawId raw = corpus::kInvalidRawId;
  uint32_t user = 0;
  int64_t session = -1;
  bool via_link = false;
  SimTime time = 0;
  std::string query;
  bool use_index = true;
};

/// The workload's deterministic op stream. Page keys and hot modify
/// targets come from workload::OpGenerator (Zipf 0.9 over a permutation
/// fixed with the corpus, entered at a seed-derived offset); the class
/// mix and query parameters from a Pcg32 on the seed. Not thread-safe.
class OpSource {
 public:
  OpSource(const WorkloadDef& def, const corpus::WebCorpus* corpus,
           const QueryParams* params, uint64_t seed, uint64_t stream);
  PerfOp Next();
  /// Stable digest of one op (stream reproducibility checks).
  static uint64_t Digest(const PerfOp& op);

 private:
  const WorkloadDef& def_;
  const corpus::WebCorpus* corpus_;
  const QueryParams* params_;
  workload::OpGenerator keys_;
  Pcg32 rng_;
  std::vector<corpus::PageId> page_of_container_;
  uint64_t next_index_ = 0;
};

// ----- Wire -----

struct WireRequest {
  std::string method;
  std::string target;
  std::string body;
};
/// `explicit_time` adds ?t= (single-connection deterministic replay).
WireRequest RenderRequest(const WorkloadDef& def, const PerfOp& op,
                          bool explicit_time);

enum class Outcome : uint8_t { kOk = 0, kFailed, kWrong };

/// Checks one response against the op it answers. kFailed: the op did
/// not complete (503, degraded-failed, unacked write, non-2xx); kWrong:
/// the response claims success but its content is incorrect. `why` gets
/// a reason when not kOk.
struct ResponseChecker {
  const WorkloadDef* def = nullptr;
  const corpus::WebCorpus* corpus = nullptr;
  server::BodyStore* bodies = nullptr;  // Expected /body bytes.
  bool via_gateway = false;

  size_t ExpectedBodySize(corpus::PageId page) const;
  Outcome Check(const PerfOp& op, const server::ClientResponse& response,
                bool compare_bytes, std::string* why) const;
};

// ----- Fleet -----

/// Forked warehouse nodes (and, for gateway workloads, an in-process
/// GatewayServer in front of them).
class Fleet {
 public:
  /// Fork nodes first: call while the process has no other threads.
  static Result<std::unique_ptr<Fleet>> Start(const WorkloadDef& def,
                                               const std::string& workdir,
                                               bool with_gateway);
  ~Fleet();

  /// Port the load generator talks to (gateway when present, else node 0).
  uint16_t front_port() const;
  uint16_t node_port(size_t i) const { return nodes_[i].port(); }
  pid_t node_pid(size_t i) const { return nodes_[i].pid(); }
  size_t num_nodes() const { return nodes_.size(); }
  gateway::GatewayServer* gateway() { return gateway_.get(); }

  /// SIGTERM node `i`, respawn it over its directory, wait for /healthz.
  /// Returns the seconds from respawn to the first healthy answer.
  Result<double> RestartNode(size_t i);
  void Stop();

 private:
  Fleet() = default;
  std::vector<gateway::NodeProcessOptions> options_;
  std::vector<gateway::NodeProcess> nodes_;
  std::unique_ptr<gateway::GatewayServer> gateway_;
};

/// One blocking request on a fresh connection.
Result<server::ClientResponse> OneShot(uint16_t port, std::string_view method,
                                       std::string_view target,
                                       std::string_view body = {});
/// Polls /healthz until it answers 200 or `timeout_ms` passes.
bool WaitHealthy(uint16_t port, int64_t timeout_ms);

/// Prometheus text -> sum of samples per metric name with labels (the
/// full series text left of the value, e.g. `x_total{route="body"}`).
std::map<std::string, double> ParseMetrics(std::string_view text);
/// Sum of every series whose text starts with `prefix`.
double SumSeries(const std::map<std::string, double>& metrics,
                 std::string_view prefix);
/// Max over series whose text starts with `prefix`.
double MaxSeries(const std::map<std::string, double>& metrics,
                 std::string_view prefix);

/// /metrics of a node or the gateway (empty map on error).
std::map<std::string, double> ScrapeMetrics(uint16_t port);
/// POST /admin/drain-report: quiesces the node and returns its warehouse
/// counters (empty map on error).
std::map<std::string, double> DrainReport(uint16_t port);

/// Sizes of the regular files under `dir` (recursively) whose name
/// contains `part`, keyed by path.
std::map<std::string, uint64_t> ListFiles(const std::string& dir,
                                          std::string_view part);

}  // namespace cbfww::perfbench

#endif  // CBFWW_PERFBENCH_PERF_COMMON_H_
