// End-to-end benchmark program: runs one named workload against forked
// warehouse node processes (behind a GatewayServer for replicated_churn),
// checks every response, and prints the metrics as one JSON line.
//
//   cbfww_perf --workload browse|analyst|replicated_churn --seed N
//              --seconds S --trace 0|1 [--setups K] [--rate R]
//              [--smoke] [--dump-ops N] [--workdir DIR]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the separate
// traced pass that attributes time and work to the layers (see trace.cc).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perf_common.h"
#include "perf_run.h"
#include "util/strings.h"

namespace cbfww::perfbench {
namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: cbfww_perf --workload NAME --seed N --seconds S "
               "--trace 0|1 [--setups K] [--rate R] [--smoke] "
               "[--dump-ops N] [--workdir DIR]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (flag == "--smoke") {
      args->smoke = true;
    } else if (flag == "--workload" && value(&v)) {
      args->workload = v;
    } else if (flag == "--seed" && value(&v)) {
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds" && value(&v)) {
      args->seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace" && value(&v)) {
      args->trace = v == "1";
    } else if (flag == "--setups" && value(&v)) {
      args->setups = std::max(1, std::atoi(v.c_str()));
    } else if (flag == "--rate" && value(&v)) {
      args->rate = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--dump-ops" && value(&v)) {
      args->dump_ops = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--workdir" && value(&v)) {
      args->workdir = v;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", flag.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

/// Prints the first `n` ops of the stream as digests (reproducibility
/// checks compare this output across invocations).
int DumpOps(const WorkloadDef& def, const Args& args) {
  corpus::WebCorpus corpus(BenchCorpusOptions());
  QueryParams params(corpus);
  OpSource source(def, &corpus, &params, args.seed, kMeasureStream);
  uint64_t all = 0;
  for (uint64_t i = 0; i < args.dump_ops; ++i) {
    PerfOp op = source.Next();
    uint64_t digest = OpSource::Digest(op);
    all = all * 1099511628211ull ^ digest;
    std::printf("%llu %s %016llx\n", static_cast<unsigned long long>(i),
                ClsName(op.cls), static_cast<unsigned long long>(digest));
  }
  std::printf("stream %016llx\n", static_cast<unsigned long long>(all));
  return 0;
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  const WorkloadDef* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (want %s)\n",
                 args.workload.c_str(),
                 JoinStrings(WorkloadNames(), "|").c_str());
    return 2;
  }
  WorkloadDef def = *found;
  if (args.rate >= 0) def.rate_rps = args.rate;
  if (args.smoke) {
    def.warmup_ops = std::min<uint64_t>(def.warmup_ops, 100);
    def.trace_ops = std::min<uint64_t>(def.trace_ops, 60);
    def.trace_prefix_ops = std::min<uint64_t>(def.trace_prefix_ops, 200);
  }
  if (args.dump_ops > 0) return DumpOps(def, args);

  std::string run_dir =
      StrFormat("%s/%s-%d", args.workdir.c_str(), def.name.c_str(), getpid());
  if (!MakeDirs(run_dir)) {
    std::fprintf(stderr, "cannot create work directory %s\n", run_dir.c_str());
    return 1;
  }
  PrintEnv(def, args);
  RunOutput out = args.trace ? TracedRun(def, args, run_dir)
                             : MeasuredRun(def, args, run_dir);
  RemoveTree(run_dir);
  if (!out.ran) {
    std::fprintf(stderr, "run aborted: %s\n", out.error.c_str());
    return 1;
  }
  PrintResult(out);
  return 0;
}

}  // namespace cbfww::perfbench

int main(int argc, char** argv) { return cbfww::perfbench::Main(argc, argv); }
