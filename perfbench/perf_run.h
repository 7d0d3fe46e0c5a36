// The load generator, the measured run and the traced run.
#ifndef CBFWW_PERFBENCH_PERF_RUN_H_
#define CBFWW_PERFBENCH_PERF_RUN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus/web_corpus.h"
#include "perf_common.h"
#include "server/body_store.h"

namespace cbfww::perfbench {

/// An open-loop run whose generator sent its p99 op later than this
/// after the op's scheduled time fell behind its schedule (a backlog grew,
/// beyond the few service times a busy connection adds): it is flagged.
inline constexpr double kLateFlagMs = 100.0;

/// Op-stream ids: each phase draws from its own stream of the seed, so the
/// measured stream is identical whatever the warm-up consumed.
inline constexpr uint64_t kMeasureStream = 1;
inline constexpr uint64_t kWarmupStream = 2;
inline constexpr uint64_t kProbeStream = 3;

struct Args {
  std::string workload;
  uint64_t seed = 2003;
  double seconds = 10.0;
  bool trace = false;
  /// Set-ups per run; setup_s is their median, the last one is measured.
  int setups = 3;
  /// Open-loop rate override (ops/s); 0 forces a closed loop; < 0 keeps
  /// the workload's own.
  double rate = -1.0;
  bool smoke = false;
  uint64_t dump_ops = 0;
  std::string workdir = ".bench_build/perfbench-work";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutput {
  bool ran = false;
  std::string error;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Printed for people, not part of the result line (class latencies a
  /// workload may lack, sample counts, flags).
  std::vector<Metric> extras;
  /// Output-check failures (any makes `correct` false).
  std::vector<std::string> problems;
  /// Failed ops and other remarks for people.
  std::vector<std::string> notes;
};

/// The benchmark process's own copy of the corpus: generates the op
/// stream and renders the expected /body bytes.
struct Local {
  Local();
  corpus::WebCorpus corpus;
  QueryParams params;
  server::BodyStore bodies;
};

/// One recorded span: an op sent at one depth of the stack.
struct Span {
  uint64_t op = 0;
  Cls cls = Cls::kPage;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

struct ClassStats {
  std::vector<double> lat_ms;
  /// Per sample, parallel to lat_ms: seconds from the start of the load to
  /// the op's completion (closed loop) or its scheduled send (open loop),
  /// and to its completion in either loop.
  std::vector<double> at_s;
  std::vector<double> done_s;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
};

struct LoadOptions {
  double seconds = 10.0;
  /// Stop after this many ops (0 = only the clock stops the run).
  uint64_t max_ops = 0;
  uint64_t stream = kMeasureStream;
  /// 0 = closed loop; > 0 = open loop at this rate.
  double rate_rps = 0.0;
  bool record_spans = false;
  /// Leave queries out (warm-up builds state; queries add none).
  bool skip_queries = false;
  /// When > 0, CPU is sampled every this many seconds: these processes
  /// (the nodes), this process, and the client threads.
  double sample_every_s = 0.0;
  std::vector<pid_t> cpu_pids;
};

struct CpuSample {
  double at_s = 0.0;
  uint64_t pids_ns = 0;
  uint64_t self_ns = 0;
  uint64_t clients_ns = 0;
};

struct LoadResult {
  ClassStats cls[kNumCls];
  /// Open loop: send time minus scheduled time. Closed loop: gap between
  /// a response and the next send on the same connection.
  std::vector<double> late_ms;
  double wall_s = 0.0;
  uint64_t client_cpu_ns = 0;
  uint64_t reconnects = 0;
  std::vector<Span> spans;
  std::vector<CpuSample> cpu;
  std::vector<std::string> problems;

  uint64_t Ok() const;
  uint64_t Attempted() const;
  uint64_t Failed() const;
  uint64_t Wrong() const;
};

/// Adds `from`'s samples and counts to `into` (wall times add up).
void MergeLoad(LoadResult* into, const LoadResult& from);

/// Drives `def`'s op stream at `port` over def.connections keep-alive
/// connections, checking every response.
LoadResult RunLoad(const WorkloadDef& def, Local& local, uint16_t port,
                   bool via_gateway, uint64_t seed, const LoadOptions& options);

RunOutput MeasuredRun(const WorkloadDef& def, const Args& args,
                      const std::string& run_dir);
RunOutput TracedRun(const WorkloadDef& def, const Args& args,
                    const std::string& run_dir);

/// Quiescent output checks on a running fleet (query answers over the
/// wire against the reference answer; replicas' modify counters against
/// the acknowledged writes). Appends failures to `problems`.
void CheckQueries(Fleet& fleet, const Local& local, uint64_t seed,
                  std::vector<std::string>* problems);

/// Fetches a seeded sample of the run's pages (kBodySample of them) and
/// compares their /body bytes with the locally rendered corpus.
inline constexpr int kBodySample = 48;
void CheckBodies(const WorkloadDef& def, Fleet& fleet, Local& local,
                 uint64_t seed, std::vector<std::string>* problems);

void PrintEnv(const WorkloadDef& def, const Args& args);
void PrintResult(const RunOutput& out);
bool MakeDirs(const std::string& path);
void RemoveTree(const std::string& path);

}  // namespace cbfww::perfbench

#endif  // CBFWW_PERFBENCH_PERF_RUN_H_
