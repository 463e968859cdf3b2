// Ablation — the obfuscation attack/defense campaign, measured.
//
// Sweeps the scenario matrix {family x m x pass x strength x seed} from
// src/obf/campaign.hpp through the full flow (batch scheduler + memo
// cache) and reports, per matrix cell:
//   * recovery rate   — fraction of seeds whose attack recovers the true
//                       P(x) (for wrong-key cells: should be 0);
//   * wall time       — mean attack extraction seconds;
//   * budget blowup   — geomean of peak_terms / clean_peak_terms, the
//                       pressure the defense puts on the max_terms budget.
//
// The matrix covers the three defense passes at strengths 0..3 on the
// paper's two headline families at m = 8 and 16; keygate cells run both
// the correct-key attack (de-obfuscate first) and the wrong-key attack
// (complement key folded in).  GFRE_OBF_SEEDS sets the seeds per cell
// (default 3; CI smoke uses 1).
//
// Shape gates (the claims, not absolute seconds):
//   1. strength 0 is free: every strength-0 cell recovers (rate 1.0);
//   2. key gates without the key are fatal, with it free: correct-key
//      recovery is 1.0 at every strength, wrong-key recovery is 0.0;
//   3. pxmix costs the attacker real budget: semantics are preserved
//      (recovery 1.0) but the geomean blowup at strength 3 strictly
//      exceeds the strength-1 geomean.
//
// Results land in BENCH_obfuscation.json (one record per cell) for the
// CI perf-trend artifact; GFRE_BENCH_JSON overrides the path.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "obf/campaign.hpp"
#include "obf/passes.hpp"
#include "util/error.hpp"

namespace {

using namespace gfre;

/// One matrix cell: aggregates every seed of one configuration.
struct Cell {
  std::string family;
  unsigned m = 0;
  std::string pass;       // canonical stack string, "clean" for strength 0
  unsigned strength = 0;
  std::string key_mode;
  unsigned seeds = 0;
  unsigned recovered = 0;
  unsigned corrupts = 0;   // wrong-key simulations that changed outputs
  double seconds_sum = 0.0;
  double log_blowup_sum = 0.0;
  unsigned blowup_samples = 0;
  std::size_t peak_terms_max = 0;

  double recovery_rate() const {
    return seeds == 0 ? 0.0 : static_cast<double>(recovered) / seeds;
  }
  double mean_seconds() const {
    return seeds == 0 ? 0.0 : seconds_sum / seeds;
  }
  double geomean_blowup() const {
    return blowup_samples == 0
               ? 0.0
               : std::exp(log_blowup_sum / blowup_samples);
  }
};

}  // namespace

int main() {
  bench::print_header("Ablation: obfuscation passes vs the recovery flow");

  const unsigned seeds = bench::bench_count("GFRE_OBF_SEEDS", 3);
  const std::vector<std::string> families{"mastrovito", "montgomery"};
  std::vector<unsigned> widths{8, 16};
  if (full_scale_requested()) widths = {8, 16, 32};
  const std::vector<obf::PassKind> passes{
      obf::PassKind::KeyGates, obf::PassKind::PxMix, obf::PassKind::Rewrite};

  // Build the scenario list and remember which cell each scenario feeds.
  std::vector<obf::Scenario> scenarios;
  std::vector<std::size_t> scenario_cell;
  std::vector<Cell> cells;
  std::map<std::string, std::size_t> cell_index;
  const auto cell_for = [&](const std::string& family, unsigned m,
                            const std::string& pass, unsigned strength,
                            const std::string& key_mode) {
    const std::string key =
        family + "|" + std::to_string(m) + "|" + pass + "|" +
        std::to_string(strength) + "|" + key_mode;
    const auto hit = cell_index.find(key);
    if (hit != cell_index.end()) return hit->second;
    Cell cell;
    cell.family = family;
    cell.m = m;
    cell.pass = pass;
    cell.strength = strength;
    cell.key_mode = key_mode;
    cells.push_back(cell);
    cell_index.emplace(key, cells.size() - 1);
    return cells.size() - 1;
  };

  for (const std::string& family : families) {
    for (unsigned m : widths) {
      for (obf::PassKind pass : passes) {
        for (unsigned strength = 0; strength <= 3; ++strength) {
          std::vector<obf::KeyMode> modes{obf::KeyMode::None};
          if (pass == obf::PassKind::KeyGates && strength > 0)
            modes = {obf::KeyMode::Correct, obf::KeyMode::Wrong};
          for (obf::KeyMode mode : modes) {
            for (unsigned seed = 1; seed <= seeds; ++seed) {
              obf::Scenario scenario;
              scenario.family = family;
              scenario.m = m;
              scenario.passes = {obf::PassSpec{pass, strength}};
              scenario.seed = seed;
              scenario.key_mode = mode;
              scenarios.push_back(scenario);
              scenario_cell.push_back(cell_for(
                  family, m, to_string(scenario.passes), strength,
                  strength == 0 ? "none" : to_string(mode)));
            }
          }
        }
      }
    }
  }

  obf::CampaignOptions options;
  options.threads = bench::bench_threads();
  std::printf("running %zu scenarios (%u seeds per cell, %zu cells)...\n",
              scenarios.size(), seeds, cells.size());
  std::fflush(stdout);
  const obf::CampaignReport report = obf::run_campaign(scenarios, options);
  std::printf("campaign done in %.2fs wall (%zu cache hits)\n\n",
              report.wall_seconds, report.stats.cache_hits);

  GFRE_ASSERT(report.outcomes.size() == scenarios.size(),
              "campaign dropped scenarios");
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const obf::ScenarioOutcome& outcome = report.outcomes[i];
    Cell& cell = cells[scenario_cell[i]];
    ++cell.seeds;
    if (outcome.recovered) ++cell.recovered;
    if (outcome.corrupts.value_or(false)) ++cell.corrupts;
    cell.seconds_sum += outcome.seconds;
    if (outcome.blowup > 0.0) {
      cell.log_blowup_sum += std::log(outcome.blowup);
      ++cell.blowup_samples;
    }
    cell.peak_terms_max =
        std::max(cell.peak_terms_max, outcome.peak_terms);
  }

  TextTable table({"family", "m", "pass", "key", "recovery", "mean(s)",
                   "blowup", "peak terms"});
  bench::JsonReport json("obfuscation");
  for (const Cell& cell : cells) {
    table.add_row({cell.family, std::to_string(cell.m), cell.pass,
                   cell.key_mode, fmt_double(cell.recovery_rate(), 2),
                   fmt_double(cell.mean_seconds(), 4),
                   fmt_double(cell.geomean_blowup(), 2),
                   fmt_thousands(cell.peak_terms_max)});
    json.add_record()
        .add("family", cell.family)
        .add("m", cell.m)
        .add("pass", cell.pass)
        .add("strength", cell.strength)
        .add("key_mode", cell.key_mode)
        .add("seeds", cell.seeds)
        .add("recovery_rate", cell.recovery_rate())
        .add("corrupt_rate",
             cell.seeds == 0
                 ? 0.0
                 : static_cast<double>(cell.corrupts) / cell.seeds)
        .add("mean_seconds", cell.mean_seconds())
        .add("blowup_geomean", cell.geomean_blowup())
        .add("peak_terms_max", cell.peak_terms_max)
        .add("threads", options.threads);
  }
  std::printf("%s\n",
              table.render("Obfuscation campaign (per matrix cell)").c_str());
  json.write(env_string("GFRE_BENCH_JSON", "BENCH_obfuscation.json"));

  // ---- Shape gates ----
  bool strength0_free = true;
  bool keygate_correct = true, keygate_wrong = true;
  bool pxmix_preserving = true;
  double pxmix_s1_log = 0.0, pxmix_s3_log = 0.0;
  unsigned pxmix_s1_n = 0, pxmix_s3_n = 0;
  for (const Cell& cell : cells) {
    if (cell.strength == 0)
      strength0_free = strength0_free && cell.recovery_rate() == 1.0;
    if (cell.key_mode == "correct")
      keygate_correct = keygate_correct && cell.recovery_rate() == 1.0;
    if (cell.key_mode == "wrong")
      keygate_wrong = keygate_wrong && cell.recovery_rate() == 0.0;
    if (cell.pass.rfind("pxmix", 0) == 0 && cell.strength > 0) {
      pxmix_preserving = pxmix_preserving && cell.recovery_rate() == 1.0;
      if (cell.strength == 1 && cell.geomean_blowup() > 0.0) {
        pxmix_s1_log += std::log(cell.geomean_blowup());
        ++pxmix_s1_n;
      }
      if (cell.strength == 3 && cell.geomean_blowup() > 0.0) {
        pxmix_s3_log += std::log(cell.geomean_blowup());
        ++pxmix_s3_n;
      }
    }
  }
  std::printf("shape check: every strength-0 cell recovers: %s\n",
              strength0_free ? "PASS" : "FAIL");
  std::printf("shape check: correct-key recovery 1.0, wrong-key 0.0 at "
              "every keygate strength: %s\n",
              keygate_correct && keygate_wrong ? "PASS" : "FAIL");
  const double s1 = pxmix_s1_n ? std::exp(pxmix_s1_log / pxmix_s1_n) : 0.0;
  const double s3 = pxmix_s3_n ? std::exp(pxmix_s3_log / pxmix_s3_n) : 0.0;
  const bool pxmix_shape = pxmix_preserving && s3 > s1;
  std::printf("shape check: pxmix preserves recovery and its blowup grows "
              "with strength (s3 %.2fx > s1 %.2fx): %s\n",
              s3, s1, pxmix_shape ? "PASS" : "FAIL");

  return (strength0_free && keygate_correct && keygate_wrong && pxmix_shape)
             ? 0
             : 1;
}
