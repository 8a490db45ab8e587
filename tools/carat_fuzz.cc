// carat_fuzz - metamorphic + differential scenario fuzzer driver.
//
//   carat_fuzz --run --scenarios 2000 --seed 7 --testbed-every 40
//              --findings-dir docs/findings
//   carat_fuzz --run --time-budget-s 3600 --seed $(date +%s)
//   carat_fuzz --generate 10 --seed 3 --out-dir tests/corpus
//   carat_fuzz --replay docs/findings/model-vs-testbed-s7-12.scn --testbed
//   carat_fuzz --minimize repro.scn --rule model-vs-testbed --testbed
//
// Exit status: 0 = clean, 1 = violations found, 2 = usage / I/O error.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "fuzz/fuzzer.h"

namespace {

using namespace carat;

void PrintHelp() {
  std::cout <<
      "carat_fuzz - metamorphic + differential scenario fuzzer\n\n"
      "modes (exactly one):\n"
      "  --run                      generate + check scenarios (default)\n"
      "  --generate <count>         write generated scenarios as .scn files\n"
      "  --replay <file.scn>        re-check one scenario, print violations\n"
      "  --minimize <file.scn>      shrink a violating scenario in place\n\n"
      "options:\n"
      "  --scenarios <count>        scenarios for --run (default 1000)\n"
      "  --seed <u64>               generator seed (default 1)\n"
      "  --testbed-every <N>        run testbed rules every Nth scenario\n"
      "                             (default 0 = never; --replay/--minimize\n"
      "                             use --testbed instead)\n"
      "  --testbed                  enable testbed rules in replay/minimize\n"
      "  --time-budget-s <sec>      stop --run after this wall-clock budget\n"
      "  --findings-dir <dir>       write minimized repro files here\n"
      "  --out-dir <dir>            destination for --generate (default .)\n"
      "  --rule <name>              rule for --minimize (default: first\n"
      "                             violated rule found)\n"
      "  --no-minimize              record raw violations without shrinking\n"
      "  --help                     this text\n";
}

bool ParseRule(const std::string& name, fuzz::Rule* out) {
  for (fuzz::Rule r : fuzz::kAllRules) {
    if (name == fuzz::RuleName(r)) {
      *out = r;
      return true;
    }
  }
  return false;
}

int PrintViolations(const std::vector<fuzz::Violation>& violations) {
  for (const fuzz::Violation& v : violations) {
    std::cout << "VIOLATION " << fuzz::RuleName(v.rule) << ": " << v.detail
              << "\n";
  }
  if (violations.empty()) {
    std::cout << "clean\n";
    return 0;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kRun, kGenerate, kReplay, kMinimize } mode = Mode::kRun;
  int generate_count = 0;
  std::string file, out_dir = ".", rule_name;
  bool with_testbed = false, minimize = true;
  fuzz::FuzzOptions opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") { PrintHelp(); return 0; }
    else if (arg == "--run") mode = Mode::kRun;
    else if (arg == "--generate") {
      mode = Mode::kGenerate;
      generate_count = std::atoi(next("--generate").c_str());
    }
    else if (arg == "--replay") { mode = Mode::kReplay; file = next("--replay"); }
    else if (arg == "--minimize") { mode = Mode::kMinimize; file = next("--minimize"); }
    else if (arg == "--scenarios") opts.num_scenarios = std::atoi(next("--scenarios").c_str());
    else if (arg == "--seed") opts.seed = std::strtoull(next("--seed").c_str(), nullptr, 10);
    else if (arg == "--testbed-every") opts.testbed_every = std::atoi(next("--testbed-every").c_str());
    else if (arg == "--testbed") with_testbed = true;
    else if (arg == "--time-budget-s") opts.time_budget_s = std::atof(next("--time-budget-s").c_str());
    else if (arg == "--findings-dir") opts.findings_dir = next("--findings-dir");
    else if (arg == "--out-dir") out_dir = next("--out-dir");
    else if (arg == "--rule") rule_name = next("--rule");
    else if (arg == "--no-minimize") minimize = false;
    else {
      std::cerr << "unknown flag " << arg << " (try --help)\n";
      return 2;
    }
  }
  opts.minimize = minimize;

  switch (mode) {
    case Mode::kRun: {
      fuzz::FuzzReport report = fuzz::RunFuzz(opts, &std::cout);
      std::cout << report.scenarios << " scenarios ("
                << report.testbed_scenarios << " with testbed), "
                << report.stats.checked << " relation checks, "
                << report.stats.skipped << " skipped, "
                << report.violations.size() << " violations\n";
      for (fuzz::Rule r : fuzz::kAllRules) {
        const int idx = static_cast<int>(r);
        if (report.stats.per_rule_checked[idx] == 0) continue;
        std::cout << "  " << fuzz::RuleName(r) << ": "
                  << report.stats.per_rule_checked[idx] << " checks, "
                  << report.stats.per_rule_violations[idx] << " violations\n";
      }
      return report.violations.empty() ? 0 : 1;
    }
    case Mode::kGenerate: {
      util::Rng rng(opts.seed);
      for (int i = 0; i < generate_count; ++i) {
        fuzz::Scenario s = fuzz::GenerateScenario(&rng, opts.gen);
        s.name = "s" + std::to_string(opts.seed) + "-" + std::to_string(i);
        const std::string path = out_dir + "/" + s.name + ".scn";
        if (!fuzz::WriteScenarioFile(path, s)) {
          std::cerr << "cannot write " << path << "\n";
          return 2;
        }
        std::cout << path << "\n";
      }
      return 0;
    }
    case Mode::kReplay: {
      fuzz::Scenario s;
      std::string error;
      if (!fuzz::LoadScenarioFile(file, &s, &error)) {
        std::cerr << error << "\n";
        return 2;
      }
      fuzz::CheckOptions copts = opts.check;
      copts.with_testbed = with_testbed;
      return PrintViolations(fuzz::ReplayScenario(s, copts));
    }
    case Mode::kMinimize: {
      fuzz::Scenario s;
      std::string error;
      if (!fuzz::LoadScenarioFile(file, &s, &error)) {
        std::cerr << error << "\n";
        return 2;
      }
      fuzz::CheckOptions copts = opts.check;
      copts.with_testbed = with_testbed;
      fuzz::Rule rule;
      if (!rule_name.empty()) {
        if (!ParseRule(rule_name, &rule)) {
          std::cerr << "unknown rule " << rule_name << "\n";
          return 2;
        }
        std::string detail;
        if (fuzz::CheckRule(s, rule, copts, &detail)) {
          std::cerr << "scenario does not violate " << rule_name << "\n";
          return 2;
        }
      } else {
        const std::vector<fuzz::Violation> violations =
            fuzz::ReplayScenario(s, copts);
        if (violations.empty()) {
          std::cerr << "scenario violates no rule; nothing to minimize\n";
          return 2;
        }
        rule = violations.front().rule;
      }
      int evals = 0;
      const fuzz::Scenario shrunk =
          fuzz::MinimizeScenario(s, rule, copts, opts.min, &evals);
      std::string detail;
      fuzz::CheckRule(shrunk, rule, copts, &detail);
      if (!fuzz::WriteScenarioFile(
              file, shrunk,
              "minimized by carat_fuzz --minimize (" + std::to_string(evals) +
                  " evals)\nrule: " + fuzz::RuleName(rule) +
                  "\ndetail: " + detail)) {
        std::cerr << "cannot rewrite " << file << "\n";
        return 2;
      }
      std::cout << "minimized " << file << " (" << evals << " evals) to "
                << shrunk.input.sites.size() << " site(s)\n";
      return 1;
    }
  }
  return 2;
}
