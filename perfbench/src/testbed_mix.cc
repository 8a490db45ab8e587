// testbed_mix: a fixed deck of carat::RunTestbed runs on the serial kernel,
// each paired with a model::CaratModel::Solve of the same input.
//
// A pass runs the whole deck once, in an order drawn from the run's seed.
// Every testbed run uses the testbed's default seed: one run's cost varies
// with its seed by up to a quarter (the 4-node and contended points), so a
// seed-drawn deck would make the figures a property of the seed rather than
// of the code. Every pass, and every run, therefore repeats the same
// testbed runs, and their fingerprints and model errors must repeat.
// Set-up is building the deck's inputs.
//
// Threads: 1, on one CPU per deck entry (3 on any CPU while the shards=2
// identity check runs).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "carat/testbed.h"
#include "cc/cc.h"
#include "model/solver.h"
#include "util/random.h"
#include "workload/spec.h"
#include "workloads.h"

namespace perfbench {
namespace {

using carat::model::ModelInput;
using carat::workload::WorkloadSpec;

constexpr double kNominalPassS = 1.25;
constexpr double kWarmupMs = 20'000;
constexpr double kMeasureMs = 200'000;
/// A set-up timing covers kBuildsPerSetup deck builds: one build takes
/// microseconds.
constexpr int kBuildsPerSetup = 200;
/// The deck entry the shard identity check runs (4-node mb8, alpha = 5 ms).
constexpr const char* kShardPoint = "mb8-4n-a5";

struct Entry {
  std::string name;
  WorkloadSpec spec;
};

/// 13 entries: with an odd count the median is one entry's time.
std::vector<Entry> Deck() {
  using namespace carat::workload;
  std::vector<Entry> deck = {
      {"lb8", MakeLB8(8)},
      {"mb4", MakeMB4(8)},
      {"mb8", MakeMB8(8)},
      {"ub6", MakeUB6(8)},
  };
  WorkloadSpec hot10 = MakeMB8(8);
  hot10.hot_data_fraction = 0.10;
  hot10.hot_access_fraction = 0.80;
  deck.push_back({"mb8-hot10", hot10});
  WorkloadSpec hot02 = MakeMB8(8);
  hot02.hot_data_fraction = 0.02;
  hot02.hot_access_fraction = 0.80;
  deck.push_back({"mb8-hot02", hot02});
  WorkloadSpec four = MakeMB8(8, 4);
  four.comm_delay_ms = 5.0;
  deck.push_back({kShardPoint, four});
  four.comm_delay_ms = 50.0;
  deck.push_back({"mb8-4n-a50", four});
  // Over-contended: 4 nodes squeezed onto 150 granules each, every backend.
  for (carat::cc::BackendKind kind : carat::cc::kAllBackends) {
    WorkloadSpec c = MakeMB8(8, 4);
    c.num_granules = 150;
    c.comm_delay_ms = 5.0;
    c.cc_backend = kind;
    deck.push_back({"contended-" + std::string(carat::cc::Name(kind)), c});
  }
  WorkloadSpec buffered = MakeMB8(8);
  buffered.buffer_blocks = 200;
  buffered.separate_log_disk = true;
  deck.push_back({"mb8-buf-log", buffered});
  return deck;
}

bool IsContended(const std::string& name) {
  return name.rfind("contended-", 0) == 0;
}

std::vector<ModelInput> BuildInputs(const std::vector<Entry>& deck,
                                    bool* valid) {
  std::vector<ModelInput> inputs;
  inputs.reserve(deck.size());
  *valid = true;
  for (const Entry& e : deck) {
    inputs.push_back(e.spec.ToModelInput());
    *valid = *valid && inputs.back().Validate();
  }
  return inputs;
}

carat::TestbedOptions Options() {
  carat::TestbedOptions o;
  o.warmup_ms = kWarmupMs;
  o.measure_ms = kMeasureMs;
  return o;
}

std::uint64_t Commits(const carat::TestbedResult& r) {
  std::uint64_t n = 0;
  for (const carat::NodeResult& node : r.nodes) {
    for (const carat::TypeResult& t : node.types) n += t.commits;
  }
  return n;
}

struct Totals {
  double events = 0, messages = 0, probes = 0, global_deadlocks = 0;
  double local_deadlocks = 0, lock_requests = 0, lock_blocks = 0;
  double commits = 0, submissions = 0, testbed_ms = 0, runs = 0;
  double buffer_hit_sum = 0, buffer_nodes = 0;

  void Add(const carat::TestbedResult& r, double ms, bool buffered) {
    events += static_cast<double>(r.events);
    messages += static_cast<double>(r.network_messages);
    probes += static_cast<double>(r.probes_sent);
    global_deadlocks += static_cast<double>(r.global_deadlocks);
    commits += static_cast<double>(Commits(r));
    for (const carat::NodeResult& node : r.nodes) {
      local_deadlocks += static_cast<double>(node.local_deadlocks);
      lock_requests += static_cast<double>(node.lock_requests);
      lock_blocks += static_cast<double>(node.lock_blocks);
      for (const carat::TypeResult& t : node.types) {
        submissions += static_cast<double>(t.submissions);
      }
      if (buffered) {
        buffer_hit_sum += node.buffer_hit_ratio;
        buffer_nodes += 1;
      }
    }
    testbed_ms += ms;
    runs += 1;
  }
};

/// The fastest repeat of each deck entry's calls over a run's passes.
struct Passes {
  Fastest testbed_ms;
  Fastest solve_ms;
  Fastest entry_ms;  // the testbed run and the solve together
  /// Entries per second at each entry's fastest repeat.
  double per_s() const {
    return static_cast<double>(entry_ms.size()) / (entry_ms.Of().Sum() / 1e3);
  }
};

/// `passes` passes over the deck; `setup` (when set) runs before each entry.
/// The first pass of a run records fingerprints and model errors; every
/// later pass must reproduce the fingerprints.
Passes TimedPasses(const std::vector<Entry>& deck,
                   const std::vector<ModelInput>& inputs,
                   const std::vector<std::size_t>& order, int passes,
                   const std::function<void()>& setup,
                   std::vector<std::string>* fingerprints,
                   std::vector<double>* err_pct, int* unconverged,
                   Totals* totals, Tracer* tracer, Outcome* out) {
  Passes result{Fastest(deck.size()), Fastest(deck.size()),
                Fastest(deck.size())};
  for (int p = 0; p < passes; ++p) {
    const bool first = fingerprints->empty();
    if (first) {
      fingerprints->resize(deck.size());
      err_pct->resize(deck.size());
    }
    for (std::size_t k = 0; k < order.size(); ++k) {
      const std::size_t i = order[k];
      RunOnCpu(p + k);
      if (setup) setup();
      const std::uint64_t op = tracer != nullptr ? tracer->NewId() : 0;
      const Clock::time_point t0 = Clock::now();
      const carat::TestbedResult r = carat::RunTestbed(inputs[i], Options());
      const Clock::time_point t1 = Clock::now();
      const carat::model::ModelSolution m =
          carat::model::CaratModel(inputs[i]).Solve();
      const Clock::time_point t2 = Clock::now();
      if (tracer != nullptr) {
        tracer->Add(tracer->NewId(), op, i, "carat.run_testbed", t0, t1);
        tracer->Add(tracer->NewId(), op, i, "model.solve", t1, t2);
        tracer->Add(op, 0, i, "op.entry", t0, t2);
      }
      result.testbed_ms.Add(i, Millis(t0, t1));
      result.solve_ms.Add(i, Millis(t1, t2));
      result.entry_ms.Add(i, Millis(t0, t2));
      if (totals != nullptr) {
        totals->Add(r, Millis(t0, t1), deck[i].spec.buffer_blocks > 0);
      }

      out->Attempt();
      const std::string& name = deck[i].name;
      if (!r.ok || !r.database_consistent || Commits(r) == 0) {
        out->Fail(name + ": testbed run failed or left the database "
                         "inconsistent: " + r.error);
      }
      if (!m.ok) out->Fail(name + ": model solve failed: " + m.error);
      if (first && !m.converged) ++*unconverged;
      const std::string fp = carat::TestbedResultFingerprint(r);
      if (first) {
        (*fingerprints)[i] = fp;
        const double tb = r.TotalTxnPerSec();
        (*err_pct)[i] =
            tb > 0 ? 100.0 * std::fabs(m.TotalTxnPerSec() - tb) / tb : 0.0;
      } else if (fp != (*fingerprints)[i]) {
        out->Fail(name + ": testbed fingerprint differs between passes");
      }
    }
  }
  return result;
}

}  // namespace

std::vector<MetricSpec> TestbedMixLayerMetrics() {
  std::vector<MetricSpec> m;
  for (const Entry& e : Deck()) {
    if (!IsContended(e.name)) m.push_back({"carat.run_ms." + e.name, "ms"});
  }
  for (carat::cc::BackendKind kind : carat::cc::kAllBackends) {
    m.push_back({"cc." + std::string(carat::cc::Name(kind)) + ".run_ms", "ms"});
  }
  for (const Entry& e : Deck()) {
    m.push_back({"carat.model_err_pct." + e.name, "%"});
  }
  const std::vector<MetricSpec> rest = {
      {"carat.model_err_pct", "%"},
      {"sim.events_per_run", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.shard2_over_serial", "ratio"},
      {"net.messages_per_commit", "count"},
      {"txn.probes_per_commit", "count"},
      {"txn.global_deadlocks_per_commit", "count"},
      {"lock.local_deadlocks_per_commit", "count"},
      {"lock.block_ratio", "ratio"},
      {"txn.commit_ratio", "ratio"},
      {"db.buffer_hit_ratio", "ratio"},
      {"model.solve_us_p50", "us"},
      {"model.unconverged", "count"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

void RunTestbedMix(const RunConfig& config, Tracer* tracer, Outcome* out) {
  const std::vector<Entry> deck = Deck();
  SetupTimes setup_s;
  const int passes = PassesFor(config.seconds, kNominalPassS);
  bool valid = false;
  std::vector<ModelInput> inputs = BuildInputs(deck, &valid);
  out->Check(valid, "deck input failed validation");
  // A set-up is timed before every deck entry.
  auto setup = [&] {
    setup_s.Time(
        [&] {
          for (int b = 0; b < kBuildsPerSetup; ++b) {
            inputs = BuildInputs(deck, &valid);
          }
        },
        kBuildsPerSetup);
  };
  std::vector<std::size_t> order(deck.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  carat::util::Rng rng(config.seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }

  std::vector<std::string> fingerprints;
  std::vector<double> err_pct;
  int unconverged = 0;
  Totals totals;
  const Passes plain = TimedPasses(deck, inputs, order, passes, setup,
                                   &fingerprints, &err_pct, &unconverged,
                                   &totals, nullptr, out);

  // The sharded kernel must reproduce the serial run byte for byte; its
  // shards may use every CPU.
  RunOnAllCpus();
  std::size_t shard_entry = 0;
  while (deck[shard_entry].name != kShardPoint) ++shard_entry;
  carat::TestbedOptions sharded = Options();
  sharded.shards = 2;
  const Clock::time_point s0 = Clock::now();
  const carat::TestbedResult r2 = carat::RunTestbed(inputs[shard_entry], sharded);
  const double shard2_ms = Millis(s0, Clock::now());
  out->Check(carat::TestbedResultFingerprint(r2) == fingerprints[shard_entry],
             "shards=2 fingerprint differs from the serial run");

  if (!config.trace) {
    out->Set("setup_s", setup_s.Median(), "s");
    out->Set("throughput_per_s", plain.per_s(), "1/s");
    ReportLatencies(plain.solve_ms.Of(), plain.testbed_ms.Of(), out);
    return;
  }

  const Passes traced = TimedPasses(deck, inputs, order, passes, nullptr,
                                    &fingerprints, &err_pct, &unconverged,
                                    nullptr, tracer, out);
  ReportSampleCounts(traced.solve_ms.Of(), traced.testbed_ms.Of(), passes,
                     out);
  ReportOverhead(plain.per_s(), traced.per_s(), out);
  double err_sum = 0.0;
  for (std::size_t i = 0; i < deck.size(); ++i) {
    const std::string& name = deck[i].name;
    const double run_ms = plain.testbed_ms[i];
    if (IsContended(name)) {
      out->Set("cc." + name.substr(sizeof("contended-") - 1) + ".run_ms",
               run_ms, "ms");
    } else {
      out->Set("carat.run_ms." + name, run_ms, "ms");
    }
    out->Set("carat.model_err_pct." + name, err_pct[i], "%");
    err_sum += err_pct[i];
  }
  out->Set("carat.model_err_pct", err_sum / deck.size(), "%");
  out->Set("db.buffer_hit_ratio", totals.buffer_hit_sum / totals.buffer_nodes,
           "ratio");
  out->Set("sim.events_per_run", totals.events / totals.runs, "count");
  out->Set("sim.events_per_s", 1000.0 * totals.events / totals.testbed_ms,
           "1/s");
  out->Set("sim.shard2_over_serial",
           shard2_ms / plain.testbed_ms[shard_entry], "ratio");
  out->Set("net.messages_per_commit", totals.messages / totals.commits,
           "count");
  out->Set("txn.probes_per_commit", totals.probes / totals.commits, "count");
  out->Set("txn.global_deadlocks_per_commit",
           totals.global_deadlocks / totals.commits, "count");
  out->Set("lock.local_deadlocks_per_commit",
           totals.local_deadlocks / totals.commits, "count");
  out->Set("lock.block_ratio", totals.lock_blocks / totals.lock_requests,
           "ratio");
  out->Set("txn.commit_ratio", totals.commits / totals.submissions, "ratio");
  out->Set("model.solve_us_p50", tracer->Durations("model.solve").P50(), "us");
  // Deck solves that stopped at the iteration limit (the over-contended 2PL
  // point does): their error still counts in model_err_pct.
  out->Set("model.unconverged", unconverged, "count");
}

}  // namespace perfbench
