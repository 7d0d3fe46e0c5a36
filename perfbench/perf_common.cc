#include "perf_common.h"

#include <dirent.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench_common.h"
#include "util/hash.h"
#include "util/strings.h"

namespace cbfww::perfbench {

// ----- Time and /proc -----

uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

namespace {

uint64_t ClockNs(clockid_t clock) {
  timespec ts;
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
uint64_t SelfCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

uint64_t ProcCpuNs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0;
  // Fields after the parenthesized command name; utime/stime are the
  // 14th and 15th fields overall (11th and 12th after the state field).
  size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  uint64_t utime = 0, stime = 0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i == 12) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 13) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  static const long kTicks = sysconf(_SC_CLK_TCK);
  return (utime + stime) * (1000000000ull / static_cast<uint64_t>(kTicks));
}

uint64_t ProcStatusField(pid_t pid, std::string_view field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > field.size() && line.compare(0, field.size(), field) == 0 &&
        line[field.size()] == ':') {
      return std::strtoull(line.c_str() + field.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ----- Workloads -----

const char* ClsName(Cls cls) {
  switch (cls) {
    case Cls::kPage: return "page";
    case Cls::kQuery: return "query";
    case Cls::kModify: return "modify";
  }
  return "?";
}

const char* TemplateName(Template t) {
  switch (t) {
    case Template::kMention: return "mention";
    case Template::kExists: return "exists";
    case Template::kEndAtIn: return "end_at_in";
    case Template::kNestedExists: return "nested_exists";
    case Template::kModifier: return "modifier";
    case Template::kScan: return "scan";
    case Template::kNone: break;
  }
  return "none";
}

namespace {

std::vector<WorkloadDef> MakeWorkloads() {
  std::vector<WorkloadDef> defs;

  WorkloadDef browse;
  browse.name = "browse";
  browse.warmup_ops = 12000;
  browse.trace_ops = 3000;
  browse.trace_prefix_ops = 10000;
  browse.page_frac = 0.95;
  browse.query_frac = 0.0;
  defs.push_back(browse);

  WorkloadDef analyst;
  analyst.name = "analyst";
  analyst.warmup_ops = 50000;
  analyst.slice_s = 4.0;
  analyst.trace_ops = 300;
  analyst.trace_prefix_ops = 10000;
  analyst.page_frac = 0.65;
  analyst.query_frac = 0.35;
  analyst.body_reads = false;
  const double weights[kNumTemplates] = {0.30, 0.15, 0.15, 0.10, 0.15, 0.15};
  std::copy(weights, weights + kNumTemplates, analyst.template_weight);
  defs.push_back(analyst);

  WorkloadDef churn;
  churn.name = "replicated_churn";
  churn.gateway = true;
  churn.nodes = 2;
  churn.shards = 2;
  churn.io_threads = 1;
  churn.replication = 2;
  churn.durability = true;
  churn.checkpoint_every_events = 2000;
  churn.rate_rps = 2500.0;
  churn.warmup_ops = 2000;
  churn.trace_ops = 2000;
  churn.trace_prefix_ops = 2000;
  churn.page_frac = 0.50;
  churn.query_frac = 0.05;
  churn.hot_set = true;
  churn.template_weight[static_cast<int>(Template::kModifier)] = 1.0;
  defs.push_back(churn);
  return defs;
}

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef>* defs =
      new std::vector<WorkloadDef>(MakeWorkloads());
  return *defs;
}

}  // namespace

const WorkloadDef* FindWorkload(std::string_view name) {
  for (const WorkloadDef& def : Workloads()) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadDef& def : Workloads()) names.push_back(def.name);
  return names;
}

corpus::CorpusOptions BenchCorpusOptions() {
  corpus::CorpusOptions copts;
  copts.num_sites = 12;
  copts.pages_per_site = 250;
  copts.topic.num_topics = 10;
  copts.seed = 2003;
  return copts;
}

cluster::ClusterOptions BenchClusterOptions(const WorkloadDef& def,
                                            const std::string& durability_dir) {
  cluster::ClusterOptions clopts;
  clopts.num_shards = def.shards;
  clopts.warehouse = bench::StandardWarehouseOptions();
  clopts.warehouse.memory_bytes /= def.shards;
  clopts.warehouse.disk_bytes /= def.shards;
  // No news feed: the op stream drives popularity (as in workload::Runner).
  clopts.warehouse.enable_topic_sensor = false;
  clopts.producer_lanes = def.io_threads;
  if (!durability_dir.empty()) {
    clopts.durability.dir = durability_dir;
    clopts.durability.checkpoint_every_events = def.checkpoint_every_events;
  }
  return clopts;
}

QueryParams::QueryParams(const corpus::WebCorpus& corpus)
    : term_zipf_(1, 0.9), url_zipf_(1, 0.9) {
  std::unordered_map<text::TermId, uint64_t> freq;
  std::vector<uint64_t> sizes;
  for (const corpus::PhysicalPageSpec& page : corpus.pages()) {
    const corpus::RawWebObject& container = corpus.raw(page.container);
    for (text::TermId term : container.title_terms) freq[term]++;
    uint64_t total = container.size_bytes;
    for (corpus::RawId c : page.components) total += corpus.raw(c).size_bytes;
    sizes.push_back(total);
    urls_.push_back(container.url);
  }
  std::vector<std::pair<uint64_t, text::TermId>> ranked;
  for (const auto& [term, count] : freq) ranked.emplace_back(count, term);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (const auto& [count, term] : ranked) {
    title_terms_.push_back(corpus.vocabulary().TermOf(term));
  }
  if (title_terms_.empty()) title_terms_.push_back("page");
  term_zipf_ = ZipfSampler(title_terms_.size(), 0.9);

  std::sort(sizes.begin(), sizes.end());
  for (double q : {0.50, 0.60, 0.70, 0.80, 0.90, 0.95}) {
    size_thresholds_.push_back(
        sizes[static_cast<size_t>(q * static_cast<double>(sizes.size() - 1))]);
  }
  // URL popularity: a fixed shuffle so popular anchors spread over sites.
  Pcg32 shuffle(2003, 0x0771);
  for (size_t i = urls_.size(); i > 1; --i) {
    std::swap(urls_[i - 1], urls_[shuffle.NextBounded(static_cast<uint32_t>(i))]);
  }
  url_zipf_ = ZipfSampler(urls_.size(), 0.9);
}

std::string QueryParams::Render(Template t, Pcg32& rng) const {
  auto term = [&] { return title_terms_[term_zipf_.Sample(rng)]; };
  auto size = [&] {
    return static_cast<unsigned long long>(
        size_thresholds_[rng.NextBounded(
            static_cast<uint32_t>(size_thresholds_.size()))]);
  };
  switch (t) {
    case Template::kMention:
    case Template::kScan:
      return "SELECT MFU 10 p.oid, p.title FROM Physical_Page p WHERE "
             "p.title MENTION '" + term() + "'";
    case Template::kExists:
      return StrFormat(
          "SELECT MFU 10 l.oid, l.path FROM Logical_Page l WHERE EXISTS "
          "( SELECT * FROM Physical_Page p WHERE p.oid IN l.physicals AND "
          "p.size > %llu)",
          size());
    case Template::kEndAtIn:
      return "SELECT MFU l.oid, l.path FROM Logical_Page l WHERE "
             "end_at(l.oid) IN ( SELECT p.oid FROM Physical_Page p WHERE "
             "p.url = '" + urls_[url_zipf_.Sample(rng)] + "')";
    case Template::kNestedExists:
      return StrFormat(
          "SELECT MFU 10 l.oid FROM Logical_Page l WHERE EXISTS "
          "( SELECT * FROM Physical_Page p WHERE p.oid IN l.physicals AND "
          "EXISTS ( SELECT * FROM Physical_Page q WHERE q.oid = p.oid AND "
          "q.size > %llu))",
          size());
    case Template::kModifier:
      return StrFormat("SELECT %s %u p.oid, p.title FROM Physical_Page p",
                       rng.NextBernoulli(0.5) ? "MFU" : "MRU",
                       5 + rng.NextBounded(16));
    case Template::kNone:
      break;
  }
  return {};
}

namespace {

workload::WorkloadSpec KeySpec(const WorkloadDef& def, uint64_t seed) {
  workload::WorkloadSpec spec;
  spec.name = def.name;
  spec.zipf_theta = 0.9;
  spec.seed = seed;
  if (def.hot_set) {
    // Every key is a hot container: reads map it back to its page.
    spec.mix = workload::OpMix{.page_visit = 0.0, .ingest = 1.0};
    spec.ingest_target = workload::IngestTarget::kHot;
    spec.hot_set_fraction = 0.05;
  } else {
    spec.mix = workload::OpMix{.page_visit = 1.0};
  }
  return spec;
}

}  // namespace

OpSource::OpSource(const WorkloadDef& def, const corpus::WebCorpus* corpus,
                   const QueryParams* params, uint64_t seed, uint64_t stream)
    : def_(def),
      corpus_(corpus),
      params_(params),
      keys_(corpus, KeySpec(def, BenchCorpusOptions().seed)),
      rng_(HashCombine(seed, stream), 0xbe7c4) {
  // The popularity ranking belongs to the corpus, so it is the same for
  // every seed; the seed picks where in the key stream this run starts.
  for (uint64_t skip = HashCombine(seed, stream) % 65536; skip > 0; --skip) {
    keys_.Next();
  }
  if (def.hot_set) {
    page_of_container_.assign(corpus->num_raw_objects(), corpus::kInvalidPageId);
    for (const corpus::PhysicalPageSpec& page : corpus->pages()) {
      page_of_container_[page.container] = page.id;
    }
  }
}

PerfOp OpSource::Next() {
  PerfOp op;
  op.index = next_index_++;
  double u = rng_.NextDouble();
  op.cls = u < def_.page_frac ? Cls::kPage
           : u < def_.page_frac + def_.query_frac ? Cls::kQuery
                                                  : Cls::kModify;
  workload::Op key = keys_.Next();
  op.time = key.time;
  if (op.cls == Cls::kQuery) {
    double w = rng_.NextDouble();
    double acc = 0.0;
    op.tmpl = Template::kModifier;
    for (int t = 0; t < kNumTemplates; ++t) {
      acc += def_.template_weight[t];
      if (w < acc) {
        op.tmpl = static_cast<Template>(t);
        break;
      }
    }
    op.query = params_->Render(op.tmpl, rng_);
    op.use_index = op.tmpl != Template::kScan;
    return op;
  }
  if (def_.hot_set) {
    if (op.cls == Cls::kPage) {
      op.page = page_of_container_[key.raw];
    } else {
      op.raw = key.raw;
    }
    return op;
  }
  if (op.cls == Cls::kPage) {
    op.page = key.page;
    op.user = key.user;
    op.session = key.session;
    op.via_link = key.via_link;
  } else {
    op.raw = rng_.NextBounded(static_cast<uint32_t>(corpus_->num_raw_objects()));
  }
  return op;
}

uint64_t OpSource::Digest(const PerfOp& op) {
  uint64_t h = HashCombine(op.index, static_cast<uint64_t>(op.cls));
  h = HashCombine(h, static_cast<uint64_t>(op.tmpl) + 1);
  h = HashCombine(h, op.page);
  h = HashCombine(h, op.raw);
  h = HashCombine(h, op.user);
  h = HashCombine(h, static_cast<uint64_t>(op.session));
  h = HashCombine(h, static_cast<uint64_t>(op.time));
  h = HashCombine(h, Fnv1a64(op.query));
  return HashCombine(h, op.use_index ? 1 : 0);
}

// ----- Wire -----

WireRequest RenderRequest(const WorkloadDef& def, const PerfOp& op,
                          bool explicit_time) {
  WireRequest w;
  const long long t = static_cast<long long>(op.time);
  switch (op.cls) {
    case Cls::kPage:
      w.method = "GET";
      // /body and /page take the same visit context; only the answer
      // differs (rendered bytes vs visit JSON).
      w.target = StrFormat("/%s/%llu?user=%u&session=%lld",
                           def.body_reads ? "body" : "page",
                           static_cast<unsigned long long>(op.page), op.user,
                           static_cast<long long>(op.session));
      if (op.via_link) w.target += "&via_link=1";
      if (explicit_time) w.target += StrFormat("&t=%lld", t);
      break;
    case Cls::kQuery:
      w.method = "POST";
      w.target = op.use_index ? "/query" : "/query?use_index=0";
      w.body = op.query;
      break;
    case Cls::kModify:
      w.method = "POST";
      w.target =
          StrFormat("/modify/%llu", static_cast<unsigned long long>(op.raw));
      if (explicit_time) w.target += StrFormat("?t=%lld", t);
      break;
  }
  return w;
}

size_t ResponseChecker::ExpectedBodySize(corpus::PageId page) const {
  const corpus::PhysicalPageSpec& spec = corpus->page(page);
  size_t total = bodies->RenderedSize(spec.container);
  for (corpus::RawId c : spec.components) total += bodies->RenderedSize(c);
  return total;
}

namespace {

bool Contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

}  // namespace

Outcome ResponseChecker::Check(const PerfOp& op,
                               const server::ClientResponse& response,
                               bool compare_bytes, std::string* why) const {
  if (response.Header("x-cbfww-degraded") == "failed") {
    *why = "degraded serve failed";
    return Outcome::kFailed;
  }
  const int want_status = op.cls == Cls::kModify ? 202 : 200;
  if (response.status != want_status) {
    *why = StrFormat("status %d", response.status);
    // A 4xx is the benchmark asking for something wrong, not load.
    return response.status >= 400 && response.status < 500 ? Outcome::kWrong
                                                           : Outcome::kFailed;
  }
  switch (op.cls) {
    case Cls::kPage: {
      if (def->body_reads) {
        if (response.body.size() != ExpectedBodySize(op.page)) {
          *why = StrFormat("body of page %llu: %zu bytes, want %zu",
                           static_cast<unsigned long long>(op.page),
                           response.body.size(), ExpectedBodySize(op.page));
          return Outcome::kWrong;
        }
        if (compare_bytes) {
          const corpus::PhysicalPageSpec& spec = corpus->page(op.page);
          size_t pos = 0;
          std::vector<corpus::RawId> ids = {spec.container};
          ids.insert(ids.end(), spec.components.begin(), spec.components.end());
          for (corpus::RawId id : ids) {
            std::string_view want = bodies->Body(id);
            if (std::string_view(response.body).substr(pos, want.size()) !=
                want) {
              *why = StrFormat("body bytes of page %llu differ at object %llu",
                               static_cast<unsigned long long>(op.page),
                               static_cast<unsigned long long>(id));
              return Outcome::kWrong;
            }
            pos += want.size();
          }
        }
      } else if (response.body.rfind(
                     StrFormat("{\"page\":%llu,",
                               static_cast<unsigned long long>(op.page)),
                     0) != 0 ||
                 !Contains(response.body, "\"failed_serves\":0,")) {
        *why = "page visit JSON does not describe page " +
               std::to_string(op.page);
        return Outcome::kWrong;
      }
      return Outcome::kOk;
    }
    case Cls::kQuery: {
      if (via_gateway) {
        if (!Contains(response.body, "\"nodes_failed\":0}") ||
            Contains(response.body, "\"ok\":false")) {
          *why = "scatter query with a failed node slot";
          return Outcome::kFailed;
        }
        if (!Contains(response.body, "\"result\":{\"columns\":[")) {
          *why = "scatter query without node results";
          return Outcome::kWrong;
        }
        return Outcome::kOk;
      }
      if (response.body.rfind("{\"columns\":[", 0) != 0 ||
          !Contains(response.body, "\"rows\":[") ||
          !Contains(response.body, "\"errors\":[]}")) {
        *why = "query JSON malformed or with shard errors";
        return Outcome::kWrong;
      }
      return Outcome::kOk;
    }
    case Cls::kModify: {
      if (via_gateway) {
        if (!Contains(response.body, "\"acked\":true}")) {
          *why = "modify not acked by every replica";
          return Outcome::kFailed;
        }
        return Outcome::kOk;
      }
      if (response.body !=
          StrFormat("{\"modified\":%llu,\"enqueued\":true}",
                    static_cast<unsigned long long>(op.raw))) {
        *why = "modify ack malformed";
        return Outcome::kWrong;
      }
      return Outcome::kOk;
    }
  }
  return Outcome::kWrong;
}

// ----- Fleet -----

Result<std::unique_ptr<Fleet>> Fleet::Start(const WorkloadDef& def,
                                            const std::string& workdir,
                                            bool with_gateway) {
  std::unique_ptr<Fleet> fleet(new Fleet());
  std::vector<gateway::NodeEndpoint> endpoints;
  for (uint32_t n = 0; n < def.nodes; ++n) {
    std::string dir;
    if (def.durability) {
      dir = StrFormat("%s/node-%u", workdir.c_str(), n);
      ::mkdir(dir.c_str(), 0755);
    }
    gateway::NodeProcessOptions nopts;
    nopts.node_id = StrFormat("node-%u", n);
    nopts.corpus = BenchCorpusOptions();
    nopts.cluster = BenchClusterOptions(def, dir);
    nopts.server.io_threads = def.io_threads;
    auto node = gateway::NodeProcess::Spawn(nopts);
    if (!node.ok()) return node.status();
    endpoints.push_back(
        gateway::NodeEndpoint{nopts.node_id, "127.0.0.1", node->port()});
    fleet->nodes_.push_back(std::move(*node));
    fleet->options_.push_back(nopts);
  }
  for (const gateway::NodeProcess& node : fleet->nodes_) {
    if (!WaitHealthy(node.port(), 60000)) {
      return Status::Unavailable("node did not answer /healthz");
    }
  }
  if (with_gateway) {
    gateway::GatewayOptions gopts;
    gopts.replication = std::min(def.replication, def.nodes);
    fleet->gateway_ =
        std::make_unique<gateway::GatewayServer>(std::move(endpoints), gopts);
    Status started = fleet->gateway_->Start();
    if (!started.ok()) return started;
    if (!WaitHealthy(fleet->gateway_->port(), 10000)) {
      return Status::Unavailable("gateway did not answer /healthz");
    }
  }
  return fleet;
}

Fleet::~Fleet() { Stop(); }

void Fleet::Stop() {
  if (gateway_) {
    gateway_->Stop();
    gateway_.reset();
  }
  for (gateway::NodeProcess& node : nodes_) node.Terminate();
}

uint16_t Fleet::front_port() const {
  return gateway_ ? gateway_->port() : nodes_[0].port();
}

Result<double> Fleet::RestartNode(size_t i) {
  nodes_[i].Terminate();
  const uint64_t start = NowNs();
  auto node = gateway::NodeProcess::Spawn(options_[i]);
  if (!node.ok()) return node.status();
  nodes_[i] = std::move(*node);
  if (!WaitHealthy(nodes_[i].port(), 60000)) {
    return Status::Unavailable("restarted node never became healthy");
  }
  return static_cast<double>(NowNs() - start) / 1e9;
}

Result<server::ClientResponse> OneShot(uint16_t port, std::string_view method,
                                       std::string_view target,
                                       std::string_view body) {
  server::ClientOptions copts;
  copts.connect_timeout_ms = 5000;
  copts.read_timeout_ms = 120000;
  copts.write_timeout_ms = 10000;
  server::SimpleHttpClient client(copts);
  Status connected = client.Connect("127.0.0.1", port);
  if (!connected.ok()) return connected;
  return client.RoundTrip(method, target, body);
}

bool WaitHealthy(uint16_t port, int64_t timeout_ms) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(timeout_ms) * 1000000ull;
  while (NowNs() < deadline) {
    auto response = OneShot(port, "GET", "/healthz");
    if (response.ok() && response->status == 200) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

std::map<std::string, double> ParseMetrics(std::string_view text) {
  std::map<std::string, double> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    if (space == std::string_view::npos) continue;
    out[std::string(line.substr(0, space))] +=
        std::strtod(std::string(line.substr(space + 1)).c_str(), nullptr);
  }
  return out;
}

double SumSeries(const std::map<std::string, double>& metrics,
                 std::string_view prefix) {
  double sum = 0.0;
  for (auto it = metrics.lower_bound(std::string(prefix));
       it != metrics.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    sum += it->second;
  }
  return sum;
}

double MaxSeries(const std::map<std::string, double>& metrics,
                 std::string_view prefix) {
  double best = 0.0;
  for (auto it = metrics.lower_bound(std::string(prefix));
       it != metrics.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    best = std::max(best, it->second);
  }
  return best;
}

std::map<std::string, double> ScrapeMetrics(uint16_t port) {
  auto response = OneShot(port, "GET", "/metrics");
  if (!response.ok() || response->status != 200) return {};
  return ParseMetrics(response->body);
}

std::map<std::string, double> DrainReport(uint16_t port) {
  auto response = OneShot(port, "POST", "/admin/drain-report");
  if (!response.ok() || response->status != 200) return {};
  return ParseMetrics(response->body);
}

std::map<std::string, uint64_t> ListFiles(const std::string& dir,
                                          std::string_view part) {
  std::map<std::string, uint64_t> files;
  std::vector<std::string> pending = {dir};
  while (!pending.empty()) {
    std::string current = pending.back();
    pending.pop_back();
    DIR* d = ::opendir(current.c_str());
    if (d == nullptr) continue;
    while (dirent* entry = ::readdir(d)) {
      std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      std::string path = current + "/" + name;
      struct stat st;
      if (::lstat(path.c_str(), &st) != 0) continue;
      if (S_ISDIR(st.st_mode)) {
        pending.push_back(path);
      } else if (S_ISREG(st.st_mode) && name.find(part) != std::string::npos) {
        files[path] = static_cast<uint64_t>(st.st_size);
      }
    }
    ::closedir(d);
  }
  return files;
}

}  // namespace cbfww::perfbench
