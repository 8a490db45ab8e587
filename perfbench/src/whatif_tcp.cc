// whatif_tcp: a seeded stream of what-if queries over the four paper
// families with think=/comm= perturbations, sent over loopback to an
// in-process rpc::TcpServer + serve::SolverService.
//
// A pass is: set-up (start the server, connect, pre-warm the hot set into the
// cache) then the stream, closed loop with one request outstanding on one
// connection. kHits of the stream's queries repeat the hot set and hit
// the cache; the rest are fresh and distinct, so they miss and run
// warm-started scalar solves. Every pass starts a fresh server, so every pass
// sends the same operations with the same cache outcome; an operation is one
// stream position, and its cost is its fastest round trip over the passes.
//
// Threads: 1 client (this thread) + 1 reactor + kSolverThreads workers, all
// on one CPU per pass (see Workload::threads): with one request outstanding,
// one of them is runnable at a time.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "model/solver.h"
#include "rpc/client.h"
#include "rpc/tcp_server.h"
#include "serve/key.h"
#include "serve/query.h"
#include "serve/solver_service.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using carat::model::ModelInput;
using carat::model::ModelSolution;

constexpr int kHotSet = 64;          // distinct cached queries
// Short passes, so a run repeats every stream position many times.
constexpr int kStreamLength = 2000;  // queries per pass
constexpr int kHits = 1500;          // designed repeat share: 3/4
constexpr std::size_t kSolverThreads = 2;
constexpr int kColdChecks = 48;      // misses re-solved cold per run
constexpr double kNominalPassS = 0.3;

carat::serve::SolverService::Options ServiceOptions(
    carat::exec::ThreadPool* pool) {
  carat::serve::SolverService::Options o;
  o.pool = pool;
  o.threads = 1;  // only used without a pool (the in-process replay)
  o.cache_capacity = 1 << 16;  // never evicts the hot set
  o.solver.use_exact_mva = false;
  return o;
}

struct Stream {
  std::vector<std::string> hot;     // hot-set query text
  std::vector<std::string> text;    // the stream, in send order
  std::vector<int> hot_index;       // per stream entry: hot slot, or -1
};

constexpr const char* kFamilies[] = {"lb8", "mb4", "mb8", "ub6"};
constexpr int kSizes = 7;  // n = 4, 6, ..., 16
constexpr int kStrata = 4 * kSizes;

/// A query of stratum `stratum` (family x n) with seeded think=/comm=
/// perturbations. Cycling through the strata keeps every seed's mix of
/// solve costs the same; the seed draws the perturbations and the order.
std::string DrawQuery(int stratum, carat::util::Rng* rng) {
  const char* family = kFamilies[stratum % 4];
  const int n = 4 + 2 * (stratum / 4 % kSizes);
  const int think_ms = static_cast<int>(rng->NextBounded(4001));
  const int comm_tenths = static_cast<int>(rng->NextBounded(101));
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %d think=%d comm=%d.%d", family, n,
                think_ms, comm_tenths / 10, comm_tenths % 10);
  return buf;
}

/// Draws the hot set and the fresh queries, all with distinct cache keys,
/// and shuffles them into one stream with exactly kHits repeats.
bool BuildStream(std::uint64_t seed, Stream* st, std::string* error) {
  carat::util::Rng rng(seed);
  const carat::model::SolverOptions solver = ServiceOptions(nullptr).solver;
  std::set<std::string> keys;
  auto draw_unique = [&](int stratum, std::string* text) {
    for (int attempt = 0; attempt < 1000; ++attempt) {
      *text = DrawQuery(stratum % kStrata, &rng);
      carat::serve::Query q;
      ModelInput input;
      if (!carat::serve::ParseQuery(*text, &q, &input, error)) return false;
      if (keys.insert(carat::serve::CanonicalKey(input, solver)).second) {
        return true;
      }
    }
    *error = "could not draw a distinct query";
    return false;
  };
  st->hot.resize(kHotSet);
  for (int i = 0; i < kHotSet; ++i) {
    if (!draw_unique(i, &st->hot[i])) return false;
  }
  std::vector<std::pair<std::string, int>> entries;
  for (int i = 0; i < kHits; ++i) {
    entries.emplace_back(st->hot[i % kHotSet], i % kHotSet);
  }
  for (int i = kHits; i < kStreamLength; ++i) {
    std::string text;
    if (!draw_unique(i, &text)) return false;
    entries.emplace_back(std::move(text), -1);
  }
  for (std::size_t i = entries.size(); i > 1; --i) {
    std::swap(entries[i - 1], entries[rng.NextBounded(i)]);
  }
  for (auto& [text, slot] : entries) {
    st->text.push_back(std::move(text));
    st->hot_index.push_back(slot);
  }
  return true;
}

/// Solves the hot set in order on the calling thread and returns the result
/// lines (the first answer for each hot query).
std::vector<std::string> Prewarm(carat::serve::SolverService* service,
                                 const Stream& st) {
  std::vector<std::string> answers;
  for (const std::string& text : st.hot) {
    carat::serve::Query q;
    ModelInput input;
    std::string error;
    carat::serve::ParseQuery(text, &q, &input, &error);
    answers.push_back(
        carat::serve::FormatResult(q, service->SolveSync(std::move(input))));
  }
  return answers;
}

struct Harness {
  carat::exec::ThreadPool pool{kSolverThreads};
  carat::serve::SolverService service{ServiceOptions(&pool)};
  carat::rpc::TcpServer server{ServerOptions(&service, &pool)};
  carat::rpc::Client client;

  static carat::rpc::TcpServer::Options ServerOptions(
      carat::serve::SolverService* service, carat::exec::ThreadPool* pool) {
    carat::rpc::TcpServer::Options o;
    o.service = service;
    o.pool = pool;
    o.reactors = 1;
    return o;
  }
};

/// Parses "key=value" tokens of a STATS body.
std::map<std::string, double> ParseStats(const std::string& line) {
  std::map<std::string, double> out;
  std::istringstream in(line);
  for (std::string tok; in >> tok;) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) continue;
    out[tok.substr(0, eq)] = std::strtod(tok.c_str() + eq + 1, nullptr);
  }
  return out;
}

/// Splits a result line "workload,n,ok,converged,iters,warm,tps,rps".
std::vector<std::string> Fields(const std::string& body) {
  std::vector<std::string> f;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = body.find(',', start);
    f.push_back(body.substr(start, comma - start));
    if (comma == std::string::npos) return f;
    start = comma + 1;
  }
}

struct PassRecord {
  Samples hit_ms;
  Samples miss_ms;
  std::vector<double> rtt_ms;          // by stream index (-1: not sent)
  std::vector<std::string> miss_body;  // by stream index ("" for hits)
  std::map<std::string, double> stats;  // STATS counters after the stream
};

/// Starts a server, connects and pre-warms the hot set: the set-up a user
/// of the served path pays. Returns false when the server or the connection
/// fails.
bool SetUp(const Stream& st, std::unique_ptr<Harness>* h,
           std::vector<std::string>* answers, std::string* error) {
  *h = std::make_unique<Harness>();
  carat::rpc::Client::ConnectOptions copts;
  copts.recv_timeout_ms = 60'000;
  copts.connect_timeout_ms = 5'000;
  const bool connected =
      (*h)->server.Start(error) &&
      (*h)->client.Connect("127.0.0.1", (*h)->server.port(), error, copts);
  *answers = Prewarm(&(*h)->service, st);
  return connected;
}

void TearDown(Harness* h) {
  h->client.Close();
  h->server.Shutdown();
}

/// One pass over `order` (stream indices) on a freshly set-up server, its
/// set-up timed into `setup_s`. Hits are checked byte for byte against
/// `reference` (the first pass's pre-warm answers, which it sets).
void RunPass(const Stream& st, const std::vector<int>& order,
             std::vector<std::string>* reference, Tracer* tracer,
             std::uint64_t request_base, SetupTimes* setup_s, PassRecord* rec,
             Outcome* out) {
  std::unique_ptr<Harness> h;
  std::vector<std::string> answers;
  std::string error;
  bool connected = false;
  setup_s->Time([&] { connected = SetUp(st, &h, &answers, &error); });
  out->Check(connected, "server start/connect: " + error);
  if (!connected) return;
  if (reference->empty()) *reference = answers;
  out->Check(answers == *reference,
             "pre-warm answers differ from the first pass's");

  const std::size_t n = order.size();
  rec->miss_body.assign(st.text.size(), std::string());
  rec->rtt_ms.assign(st.text.size(), -1.0);
  std::size_t done = 0;
  std::string line;
  for (; done < n; ++done) {
    const int index = order[done];
    const Clock::time_point sent = Clock::now();
    if (!h->client.Request(std::to_string(done) + " " + st.text[index],
                           &line)) {
      break;
    }
    const Clock::time_point now = Clock::now();
    const std::size_t space = line.find(' ');
    if (space == std::string::npos ||
        line.compare(0, space, std::to_string(done)) != 0) {
      out->Check(false, "unmatched response: " + line);
      break;
    }
    const int slot = st.hot_index[index];
    const double ms = Millis(sent, now);
    rec->rtt_ms[index] = ms;
    out->Attempt();
    if (slot >= 0) {
      rec->hit_ms.Add(ms);
      if (line.compare(space + 1, std::string::npos, answers[slot]) != 0) {
        out->Fail("hit differs from its first answer: " + line);
      }
    } else {
      rec->miss_ms.Add(ms);
      rec->miss_body[index] = line.substr(space + 1);
    }
    if (tracer != nullptr) {
      tracer->Add(tracer->NewId(), 0, request_base + done,
                  slot >= 0 ? "rpc.roundtrip.hit" : "rpc.roundtrip.miss",
                  sent, now);
    }
  }
  const bool io_ok = done == n;
  if (!io_ok) {
    out->Attempt(static_cast<long long>(n - done));
    for (std::size_t k = done; k < n; ++k) out->Fail("lost response");
  }

  // Misses: every answer must be a converged solve.
  for (std::size_t k = 0; k < done; ++k) {
    const int index = order[k];
    if (st.hot_index[index] >= 0) continue;
    const std::vector<std::string> f = Fields(rec->miss_body[index]);
    if (f.size() != 8 || f[2] != "ok" || f[3] != "converged") {
      out->Fail("miss not ok,converged: " + rec->miss_body[index]);
    }
  }
  if (io_ok && h->client.Request("stats STATS", &line)) {
    rec->stats = ParseStats(line);
  }
  const carat::serve::ServiceStats s = h->service.stats();
  const long long hits = std::count_if(order.begin(), order.end(), [&](int i) {
    return st.hot_index[i] >= 0;
  });
  out->Check(static_cast<long long>(s.cache_hits) == hits &&
                 s.coalesced == 0 &&
                 static_cast<long long>(s.solved) ==
                     kHotSet + static_cast<long long>(n) - hits,
             "cache outcome differs from the stream's design: hits=" +
                 std::to_string(s.cache_hits) + " coalesced=" +
                 std::to_string(s.coalesced));
  TearDown(h.get());
}

/// Re-solves a sample of the misses cold and compares with the served
/// answers (equal within the solver tolerance and the format's rounding).
void ColdCheck(const Stream& st, const PassRecord& rec, Tracer* tracer,
               Outcome* out) {
  std::vector<int> misses;
  for (std::size_t i = 0; i < st.text.size(); ++i) {
    if (st.hot_index[i] < 0) misses.push_back(static_cast<int>(i));
  }
  const std::size_t stride = std::max<std::size_t>(1, misses.size() / kColdChecks);
  const carat::model::SolverOptions solver = ServiceOptions(nullptr).solver;
  for (std::size_t m = 0; m < misses.size(); m += stride) {
    const int index = misses[m];
    carat::serve::Query q;
    ModelInput input;
    std::string error;
    carat::serve::ParseQuery(st.text[index], &q, &input, &error);
    const Clock::time_point t0 = Clock::now();
    const ModelSolution cold = carat::model::CaratModel(input).Solve(solver);
    const Clock::time_point t1 = Clock::now();
    if (tracer != nullptr) {
      tracer->Add(tracer->NewId(), 0, index, "model.cold_solve", t0, t1);
    }
    const std::vector<std::string> f = Fields(rec.miss_body[index]);
    bool ok = cold.ok && cold.converged && f.size() == 8;
    if (ok) {
      const double tps = std::strtod(f[6].c_str(), nullptr);
      const double rps = std::strtod(f[7].c_str(), nullptr);
      // Half a printed unit plus the solver's relative tolerance.
      ok = std::fabs(tps - cold.TotalTxnPerSec()) <=
               5e-5 + 1e-6 * std::fabs(cold.TotalTxnPerSec()) &&
           std::fabs(rps - cold.TotalRecordsPerSec()) <=
               5e-3 + 1e-6 * std::fabs(cold.TotalRecordsPerSec());
    }
    out->Check(ok, "miss differs from a cold solve: " + st.text[index] +
                       " -> " + rec.miss_body[index]);
  }
}

/// In-process replay of the stream through the serve layer's public calls,
/// one span each, under an "op.hit"/"op.miss" root.
void Replay(const Stream& st, Tracer* tracer, Outcome* out) {
  carat::serve::SolverService service(ServiceOptions(nullptr));
  Prewarm(&service, st);
  const carat::serve::ServiceStats before = service.stats();
  for (std::size_t i = 0; i < st.text.size(); ++i) {
    const bool hit = st.hot_index[i] >= 0;
    const std::uint64_t op = tracer->NewId();
    const Clock::time_point t0 = Clock::now();
    carat::serve::Query q;
    ModelInput input;
    std::string error;
    const bool parsed = carat::serve::ParseQuery(st.text[i], &q, &input, &error);
    const Clock::time_point t1 = Clock::now();
    const ModelSolution sol = service.SolveSync(std::move(input));
    const Clock::time_point t2 = Clock::now();
    const std::string line = carat::serve::FormatResult(q, sol);
    const Clock::time_point t3 = Clock::now();
    tracer->Add(tracer->NewId(), op, i, "serve.parse", t0, t1);
    tracer->Add(tracer->NewId(), op, i,
                hit ? "serve.solve.hit" : "serve.solve.miss", t1, t2);
    tracer->Add(tracer->NewId(), op, i, "serve.format", t2, t3);
    tracer->Add(op, 0, i, hit ? "op.hit" : "op.miss", t0, t3);
    out->Check(parsed && sol.ok, "replay failed: " + st.text[i]);
  }
  const carat::serve::ServiceStats s = service.stats();
  const double submitted = static_cast<double>(s.submitted - before.submitted);
  const double solved = static_cast<double>(s.solved - before.solved);
  out->Set("serve.cache_hit_ratio",
           static_cast<double>(s.cache_hits - before.cache_hits) / submitted,
           "ratio");
  out->Set("serve.warm_share",
           static_cast<double>(s.warm_started - before.warm_started) / solved,
           "ratio");
  out->Set("serve.coalesced", static_cast<double>(s.coalesced), "count");
  out->Set("model.iterations_per_solve",
           static_cast<double>(s.total_iterations - before.total_iterations) /
               solved,
           "count");
  out->Check(s.cache_hits - before.cache_hits == kHits,
             "replay cache_hit_ratio differs from the designed share");
}

/// Stream indices of every query, or of the hits or the misses only.
std::vector<int> AllIndices(const Stream& st) {
  std::vector<int> order(st.text.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  return order;
}
std::vector<int> ClassIndices(const Stream& st, bool hits) {
  std::vector<int> order;
  for (std::size_t i = 0; i < st.text.size(); ++i) {
    if ((st.hot_index[i] >= 0) == hits) order.push_back(static_cast<int>(i));
  }
  return order;
}

struct Passes {
  SetupTimes setup_s;
  Fastest rtt_ms;   // by stream index
  Samples hit_ms;   // every round trip, pooled over the passes
  Samples miss_ms;
  Samples server_p50_us;  // STATS, per pass
  Samples server_p99_us;
  double busy = 0.0;
  double timeouts = 0.0;
  /// Queries per second at each stream position's fastest round trip.
  double per_s() const {
    return static_cast<double>(rtt_ms.size()) / (rtt_ms.Of().Sum() / 1e3);
  }
};

/// The timed passes over the whole stream. The first pass's miss answers are
/// kept for the cold-solve check.
Passes TimedPasses(const Stream& st, int passes,
                   std::vector<std::string>* reference, Tracer* tracer,
                   PassRecord* first, Outcome* out) {
  const std::vector<int> all = AllIndices(st);
  Passes result;
  result.rtt_ms = Fastest(st.text.size());
  for (int p = 0; p < passes; ++p) {
    // The pass's server threads start on, and stay on, the client's CPU.
    RunOnCpu(p);
    PassRecord rec;
    RunPass(st, all, reference, tracer,
            static_cast<std::uint64_t>(p) * kStreamLength, &result.setup_s,
            &rec, out);
    for (std::size_t i = 0; i < rec.rtt_ms.size(); ++i) {
      if (rec.rtt_ms[i] >= 0.0) result.rtt_ms.Add(i, rec.rtt_ms[i]);
    }
    result.hit_ms.Merge(rec.hit_ms);
    result.miss_ms.Merge(rec.miss_ms);
    result.server_p50_us.Add(1000.0 * rec.stats["p50_ms"]);
    result.server_p99_us.Add(1000.0 * rec.stats["p99_ms"]);
    result.busy += rec.stats["rejected"];
    result.timeouts += rec.stats["timed_out"];
    if (p == 0) *first = std::move(rec);
  }
  return result;
}

}  // namespace

std::vector<MetricSpec> WhatifTcpLayerMetrics() {
  return {
      {"rpc.server_us_p50", "us"},      {"rpc.server_us_p99", "us"},
      {"rpc.server_us_p50.hit", "us"},  {"rpc.server_us_p50.miss", "us"},
      {"rpc.wire_us_p50", "us"},        {"rpc.busy", "count"},
      {"rpc.timeouts", "count"},        {"exec.queue_us_p50.hit", "us"},
      {"exec.queue_us_p50.miss", "us"}, {"serve.parse_us", "us"},
      {"serve.format_us", "us"},        {"serve.hit_us_p50", "us"},
      {"serve.miss_us_p50", "us"},      {"serve.miss_us_p99", "us"},
      {"serve.cache_hit_ratio", "ratio"}, {"serve.warm_share", "ratio"},
      {"serve.coalesced", "count"},     {"model.iterations_per_solve", "count"},
      {"model.cold_solve_us_p50", "us"},
  };
}

void RunWhatifTcp(const RunConfig& config, Tracer* tracer, Outcome* out) {
  Stream st;
  std::string error;
  out->Check(BuildStream(config.seed, &st, &error), "stream: " + error);
  if (st.text.empty()) return;
  const int passes = PassesFor(config.seconds, kNominalPassS);
  std::vector<std::string> reference;
  PassRecord first;
  const Passes plain = TimedPasses(st, passes, &reference, nullptr, &first, out);
  ColdCheck(st, first, config.trace ? tracer : nullptr, out);
  const std::vector<int> hits = ClassIndices(st, true);
  const std::vector<int> misses = ClassIndices(st, false);
  if (!config.trace) {
    out->Set("setup_s", plain.setup_s.Median(), "s");
    out->Set("throughput_per_s", plain.per_s(), "1/s");
    ReportLatencies(plain.rtt_ms.Of(hits), plain.rtt_ms.Of(misses), out);
    return;
  }

  // Traced run: the same passes with a span per round trip, then the
  // per-class server times (hit-only and miss-only passes) and the
  // in-process replay that splits the serve layer into its calls.
  PassRecord unused;
  const Passes traced = TimedPasses(st, passes, &reference, tracer, &unused, out);
  ReportSampleCounts(traced.rtt_ms.Of(hits), traced.rtt_ms.Of(misses), passes,
                     out);
  ReportOverhead(plain.per_s(), traced.per_s(), out);
  out->Set("rpc.server_us_p50", traced.server_p50_us.P50(), "us");
  out->Set("rpc.server_us_p99", traced.server_p99_us.P50(), "us");
  out->Set("rpc.busy", traced.busy, "count");
  out->Set("rpc.timeouts", traced.timeouts, "count");

  SetupTimes unused_setup;
  PassRecord hit_pass;
  RunPass(st, hits, &reference, nullptr, 0, &unused_setup, &hit_pass, out);
  PassRecord miss_pass;
  RunPass(st, misses, &reference, nullptr, 0, &unused_setup, &miss_pass, out);
  const double server_hit_us = 1000.0 * hit_pass.stats["p50_ms"];
  out->Set("rpc.server_us_p50.hit", server_hit_us, "us");
  out->Set("rpc.server_us_p50.miss", 1000.0 * miss_pass.stats["p50_ms"], "us");

  Replay(st, tracer, out);
  const double parse_us = tracer->Durations("serve.parse").P50();
  const double format_us = tracer->Durations("serve.format").P50();
  const Samples hit_us = tracer->Durations("serve.solve.hit");
  const Samples miss_us = tracer->Durations("serve.solve.miss");
  out->Set("serve.parse_us", parse_us, "us");
  out->Set("serve.format_us", format_us, "us");
  out->Set("serve.hit_us_p50", hit_us.P50(), "us");
  out->Set("serve.miss_us_p50", miss_us.P50(), "us");
  out->Set("serve.miss_us_p99", miss_us.Percentile(99.0), "us");
  // Server time runs from admission (after the reactor parsed the line) to
  // the posted response: queue wait + SolveSync + FormatResult. In the mixed
  // stream it is the class's round trip less the wire time measured on the
  // hit-only pass, so the queue wait includes waiting behind misses.
  // Every term is a median of raw (not fastest) times.
  const double wire_us = 1000.0 * hit_pass.hit_ms.P50() - server_hit_us;
  out->Set("exec.queue_us_p50.hit",
           1000.0 * traced.hit_ms.P50() - wire_us - hit_us.P50() - format_us,
           "us");
  out->Set("exec.queue_us_p50.miss",
           1000.0 * traced.miss_ms.P50() - wire_us - miss_us.P50() - format_us,
           "us");
  out->Set("rpc.wire_us_p50", wire_us, "us");
  out->Set("model.cold_solve_us_p50",
           tracer->Durations("model.cold_solve").P50(), "us");
}

}  // namespace perfbench
