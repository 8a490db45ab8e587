// fuzz_model: a fixed corpus of fuzz::GenerateScenario draws, each solved
// once (model::CaratModel::Solve) and checked with every model rule
// (fuzz::CheckScenario, no testbed), the work of the tier-1 fuzz loop.
//
// The corpus is 25 draws of the FuzzSmoke stream (seed kCorpusSeed), chosen
// by measurement (README.md): the stream's 2000 draws sorted by check cost
// split into 25 strata of 80, one draw from each, picked so the corpus's
// per-rule cost shares match the 2000-draw run's. It is the same whatever
// the run's seed: a scenario's check cost is heavy tailed (under 1 ms to
// seconds), so a seed-drawn corpus would make the figures a property of the
// seed rather than of the code. Set-up is drawing the stream up to the
// corpus's last index.
//
// Threads: 1 + the 2 workers of the serve-identity rule's SolverService, on
// one CPU per scenario.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "fuzz/relations.h"
#include "fuzz/scenario.h"
#include "model/solver.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using carat::fuzz::Rule;
using carat::fuzz::Scenario;

constexpr std::uint64_t kCorpusSeed = 20260808;
/// Stream indices of the corpus, ascending (one per cost stratum).
constexpr int kCorpus[] = {3,    135,  141,  383,  399,  430,  529,
                           565,  661,  741,  759,  824,  925,  932,
                           944,  1023, 1178, 1256, 1259, 1271, 1384,
                           1447, 1536, 1639, 1789};
constexpr double kNominalPassS = 1.4;
/// Repeats of the batch-vs-scalar comparison (the fastest of each counts).
constexpr int kKernelRepeats = 3;

std::vector<Scenario> GenerateCorpus() {
  carat::util::Rng rng(kCorpusSeed);
  std::vector<Scenario> corpus;
  corpus.reserve(std::size(kCorpus));
  int index = 0;
  for (int want : kCorpus) {
    for (; index < want; ++index) carat::fuzz::GenerateScenario(&rng);
    corpus.push_back(carat::fuzz::GenerateScenario(&rng));
    // The name FuzzSmoke gives the draw.
    char name[48];
    std::snprintf(name, sizeof(name), "s%llu-%d",
                  static_cast<unsigned long long>(kCorpusSeed), index++);
    corpus.back().name = std::string(name);
  }
  return corpus;
}

/// The rules CheckScenario runs without the testbed, in its order.
std::vector<Rule> ModelRules() {
  std::vector<Rule> rules;
  for (Rule r : carat::fuzz::kAllRules) {
    if (!carat::fuzz::RuleNeedsTestbed(r)) rules.push_back(r);
  }
  return rules;
}

std::string RuleMetric(Rule r) {
  return std::string("fuzz.rule.") + carat::fuzz::RuleName(r) +
         ".ms_per_scenario";
}

/// The fastest repeat of each scenario's calls over a run's passes.
struct Passes {
  Fastest solve_ms;
  Fastest check_ms;
  Fastest scenario_ms;  // the solve and the check together
  carat::fuzz::CheckStats stats;
  /// Scenarios per second at each scenario's fastest repeat.
  double per_s() const {
    return static_cast<double>(scenario_ms.size()) /
           (scenario_ms.Of().Sum() / 1e3);
  }
};

/// Timed passes over the corpus, in stream order; `setup` (when set) runs
/// before each scenario. Untraced, a scenario's check is one CheckScenario
/// call; traced, it is the same rules through CheckRule, one span each.
Passes TimedPasses(const std::vector<Scenario>& corpus, int passes,
                   const std::function<void()>& setup, Tracer* tracer,
                   Outcome* out) {
  const carat::fuzz::CheckOptions opts;
  const std::vector<Rule> rules = ModelRules();
  Passes result{Fastest(corpus.size()), Fastest(corpus.size()),
                Fastest(corpus.size()), {}};
  for (int p = 0; p < passes; ++p) {
    for (std::size_t index = 0; index < corpus.size(); ++index) {
      RunOnCpu(p + index);
      if (setup) setup();
      const Scenario& s = corpus[index];
      const std::uint64_t op = tracer != nullptr ? tracer->NewId() : 0;
      const Clock::time_point t0 = Clock::now();
      const carat::model::ModelSolution m =
          carat::model::CaratModel(s.input).Solve(opts.solver);
      const Clock::time_point t1 = Clock::now();
      std::vector<carat::fuzz::Violation> violations;
      if (tracer == nullptr) {
        violations = carat::fuzz::CheckScenario(s, opts, &result.stats);
      } else {
        for (Rule r : rules) {
          std::string detail;
          bool applicable = false;
          const Clock::time_point r0 = Clock::now();
          const bool holds =
              carat::fuzz::CheckRule(s, r, opts, &detail, &applicable);
          tracer->Add(tracer->NewId(), op, index,
                      std::string("fuzz.rule.") + carat::fuzz::RuleName(r),
                      r0, Clock::now());
          if (!holds) violations.push_back({r, detail, s});
        }
      }
      const Clock::time_point t2 = Clock::now();
      if (tracer != nullptr) {
        tracer->Add(tracer->NewId(), op, index, "model.solve", t0, t1);
        tracer->Add(op, 0, index, "op.scenario", t0, t2);
      }
      result.solve_ms.Add(index, Millis(t0, t1));
      result.check_ms.Add(index, Millis(t1, t2));
      result.scenario_ms.Add(index, Millis(t0, t2));
      out->Attempt();
      if (!m.ok) out->Fail(s.name + ": model solve failed");
      for (const carat::fuzz::Violation& v : violations) {
        out->Fail(s.name + ": " + carat::fuzz::RuleName(v.rule) + ": " +
                  v.detail);
      }
    }
  }
  return result;
}

/// SolveBatchInto at one lane over SolveInto, on the corpus inputs; also
/// checks the two are bit-identical.
double BatchOneOverScalar(const std::vector<Scenario>& corpus, Outcome* out) {
  const carat::model::SolverOptions solver = carat::fuzz::CheckOptions().solver;
  double best_scalar = 0.0;
  double best_batch = 0.0;
  for (int rep = 0; rep < kKernelRepeats; ++rep) {
    double scalar = 0.0;
    double batch = 0.0;
    for (const Scenario& s : corpus) {
      carat::model::ModelSolution a;
      carat::model::ModelSolution b;
      const Clock::time_point t0 = Clock::now();
      carat::model::CaratModel(s.input).SolveInto(solver, nullptr, nullptr, &a);
      const Clock::time_point t1 = Clock::now();
      const carat::model::ModelInput* in = &s.input;
      carat::model::ModelSolution* outp = &b;
      carat::model::CaratModel::SolveBatchInto(&in, 1, solver, nullptr,
                                               nullptr, &outp);
      const Clock::time_point t2 = Clock::now();
      scalar += Seconds(t0, t1);
      batch += Seconds(t1, t2);
      if (rep == 0) {
        out->Check(carat::fuzz::ModelSolutionFingerprint(a) ==
                       carat::fuzz::ModelSolutionFingerprint(b),
                   s.name + ": one-lane batch solve differs from scalar");
      }
    }
    if (rep == 0 || scalar < best_scalar) best_scalar = scalar;
    if (rep == 0 || batch < best_batch) best_batch = batch;
  }
  return best_batch / best_scalar;
}

}  // namespace

std::vector<MetricSpec> FuzzModelLayerMetrics() {
  std::vector<MetricSpec> m;
  for (Rule r : ModelRules()) m.push_back({RuleMetric(r), "ms"});
  const std::vector<MetricSpec> rest = {
      {"fuzz.gen_us", "us"},
      {"fuzz.checks_per_scenario", "count"},
      {"fuzz.skipped_share", "ratio"},
      {"model.batch1_over_scalar", "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

void RunFuzzModel(const RunConfig& config, Tracer* tracer, Outcome* out) {
  const int passes = PassesFor(config.seconds, kNominalPassS);
  SetupTimes setup_s;
  const std::vector<Scenario> corpus = GenerateCorpus();
  // A set-up (regenerating the corpus) is timed before every scenario; the
  // first must give the same corpus.
  bool regenerated = false;
  auto setup = [&] {
    std::vector<Scenario> again;
    setup_s.Time([&] { again = GenerateCorpus(); });
    if (!regenerated) {
      regenerated = true;
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        out->Check(carat::fuzz::Serialize(again[i]) ==
                       carat::fuzz::Serialize(corpus[i]),
                   corpus[i].name + ": regeneration differs");
      }
    }
  };
  // Every scenario must survive the canonical text round trip.
  for (const Scenario& s : corpus) {
    Scenario parsed;
    std::string error;
    const std::string text = carat::fuzz::Serialize(s);
    out->Check(carat::fuzz::Parse(text, &parsed, &error) &&
                   carat::fuzz::Serialize(parsed) == text,
               s.name + ": Serialize/Parse round trip failed: " + error);
  }

  const Passes plain = TimedPasses(corpus, passes, setup, nullptr, out);
  if (!config.trace) {
    out->Set("setup_s", setup_s.Median(), "s");
    out->Set("throughput_per_s", plain.per_s(), "1/s");
    ReportLatencies(plain.solve_ms.Of(), plain.check_ms.Of(), out);
    return;
  }

  const Passes traced = TimedPasses(corpus, passes, nullptr, tracer, out);
  ReportSampleCounts(traced.solve_ms.Of(), traced.check_ms.Of(), passes, out);
  ReportOverhead(plain.per_s(), traced.per_s(), out);
  const double scenarios = static_cast<double>(passes * corpus.size());
  for (Rule r : ModelRules()) {
    const std::string span = std::string("fuzz.rule.") + carat::fuzz::RuleName(r);
    out->Set(RuleMetric(r), tracer->Durations(span).Sum() / 1000.0 / scenarios,
             "ms");
  }
  const int draws = kCorpus[std::size(kCorpus) - 1] + 1;
  out->Set("fuzz.gen_us", 1e6 * setup_s.Median() / draws, "us");
  const carat::fuzz::CheckStats& st = plain.stats;
  out->Set("fuzz.checks_per_scenario",
           static_cast<double>(st.checked) / scenarios, "count");
  out->Set("fuzz.skipped_share",
           static_cast<double>(st.skipped) /
               static_cast<double>(st.checked + st.skipped),
           "ratio");
  out->Set("model.batch1_over_scalar", BatchOneOverScalar(corpus, out),
           "ratio");
}

}  // namespace perfbench
