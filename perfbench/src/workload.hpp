// Seeded job generation and the independent correctness oracle.
//
// A workload is a list of jobs: netlist bytes plus the verdict the flow
// must reach on them.  The verdict is fixed here, when the job is made,
// from what the generator knows (the field it built the circuit for, the
// circuit family, the mutation it applied) and — for fault-injected jobs —
// from a simulation of the faulted netlist against the clean twin's field.
// It is never taken from the flow under test.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/flow.hpp"
#include "gf2poly/gf2_poly.hpp"

namespace perfbench {

enum class Workload { CryptoSingle, BatchStream, CacheReplay };

const char* to_string(Workload workload);
bool workload_from_name(std::string_view name, Workload* out);

/// What the flow must answer for one job.
enum class Expect {
  Multiplier,     ///< success, recovering `p` and `circuit_class`
  NotMultiplier,  ///< the flow ran and reported success = false
  LoadError,      ///< the bytes do not parse
};

struct Expected {
  Expect kind = Expect::Multiplier;
  gfre::gf2::Poly p;
  gfre::core::CircuitClass circuit_class =
      gfre::core::CircuitClass::StandardProduct;
  /// The output bus was scrambled: the report must carry the permutation.
  bool permuted = false;
};

enum class JobKind { Clean, Repeat, Scrambled, Fault, Garbage };

const char* to_string(JobKind kind);

struct Job {
  std::string file;    ///< file name (no directory)
  std::string text;    ///< the netlist bytes the library sees
  std::string family;  ///< generator, e.g. "mastrovito" (empty for garbage)
  unsigned m = 0;
  JobKind kind = JobKind::Clean;
  Expected expected;
  /// cache_replay only: the job's outcome is in the restored cache
  /// snapshot.
  bool in_snapshot = false;
};

/// `crypto_single`: {Mastrovito, Montgomery, Karatsuba} x m in {163, 283},
/// P(x) per m and job order drawn from the seed.  `max_m` (tests only)
/// drops the larger degree.
std::vector<Job> generate_crypto(std::uint64_t seed, unsigned max_m = 283);

/// The paper-size stream behind `batch_stream` and `cache_replay`: `count`
/// jobs, m spread over [8, max_m], six circuit families, three text
/// dialects, with repeats, scrambled outputs, stuck-at/flip faults and
/// unparseable files mixed in.  `snapshot` marks about half the distinct
/// contents as present in the cache snapshot.
std::vector<Job> generate_stream(std::uint64_t seed, std::size_t count,
                                 bool snapshot, unsigned max_m = 96);

/// Percentages of `jobs` by kind, for the run's context line.
std::string describe_mix(const std::vector<Job>& jobs);

/// True when the outcome (load error text, or the flow report) is the
/// verdict the oracle expects.
bool verdict_matches(const Expected& expected, const std::string& error,
                     const gfre::core::FlowReport& report);

/// True for the defect that fails the whole benchmark: a job built as a
/// clean multiplier came back with a P(x) other than the generator's.
bool wrong_polynomial(const Expected& expected, const std::string& error,
                      const gfre::core::FlowReport& report);

/// The serialized report with every timing and memory field zeroed, so two
/// runs of one job compare equal byte for byte.
std::string canonical_report(const gfre::core::FlowReport& report);

}  // namespace perfbench
