#include "workload.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <sstream>

#include "core/report_io.hpp"
#include "gen/karatsuba.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gen/shift_add.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/irreducible.hpp"
#include "netlist/io_blif.hpp"
#include "netlist/io_eqn.hpp"
#include "netlist/io_verilog.hpp"
#include "netlist/ports.hpp"
#include "obf/passes.hpp"
#include "sim/equivalence.hpp"
#include "util/prng.hpp"

namespace perfbench {

using gfre::Prng;
using gfre::core::CircuitClass;
using gfre::gf2::Poly;
namespace nl = gfre::nl;

namespace {

// Distinct salts so the crypto set, the stream and the cache stream drawn
// from one --seed are independent of each other.
constexpr std::uint64_t kCryptoSalt = 0x63727970746f0001ull;
constexpr std::uint64_t kStreamSalt = 0x73747265616d0002ull;
constexpr std::uint64_t kSnapshotSalt = 0x736e617073680003ull;

// Pentanomials offered per degree besides every irreducible trinomial.
constexpr unsigned kPentanomials = 6;

// A repeat copies a job at least this many positions before it.
constexpr std::size_t kRepeatGap = 4;

/// The irreducible polynomials a seed may pick for degree m, by weight:
/// every irreducible trinomial x^m + x^a + 1 with a <= m/2, and the first
/// kPentanomials irreducible pentanomials in (a, b, c) order.  The bound
/// on a keeps the reduction network about the same size whatever the pick
/// (each trinomial's reciprocal, with a > m/2, needs more folding steps).
struct Candidates {
  std::vector<Poly> trinomials;
  std::vector<Poly> pentanomials;
};

const Candidates& field_candidates(unsigned m) {
  static std::map<unsigned, Candidates> memo;
  auto [it, fresh] = memo.try_emplace(m);
  if (!fresh) return it->second;
  Candidates& out = it->second;
  for (unsigned a : gfre::gf2::irreducible_trinomials(m)) {
    if (2 * a <= m) out.trinomials.push_back(Poly{m, a, 0});
  }
  for (unsigned a = 3; a < m && out.pentanomials.size() < kPentanomials; ++a) {
    for (unsigned b = 2; b < a && out.pentanomials.size() < kPentanomials;
         ++b) {
      for (unsigned c = 1; c < b && out.pentanomials.size() < kPentanomials;
           ++c) {
        Poly p{m, a, b, c, 0};
        if (gfre::gf2::is_irreducible(p)) {
          out.pentanomials.push_back(std::move(p));
        }
      }
    }
  }
  return out;
}

struct Family {
  const char* name;
  bool raw;  ///< computes A*B*x^(-m): no field spec, no scrambling
};

constexpr Family kCryptoFamilies[] = {
    {"mastrovito", false}, {"montgomery", false}, {"karatsuba", false}};

constexpr Family kStreamFamilies[] = {
    {"mastrovito", false}, {"mastrovito_matrix", false},
    {"montgomery", false}, {"montgomery_raw", true},
    {"karatsuba", false},  {"shift_add", false}};

nl::Netlist generate(const std::string& family, const gfre::gf2m::Field& field) {
  namespace gen = gfre::gen;
  if (family == "mastrovito") return gen::generate_mastrovito(field);
  if (family == "mastrovito_matrix") {
    gen::MastrovitoOptions options;
    options.style = gen::MastrovitoOptions::Style::Matrix;
    return gen::generate_mastrovito(field, options);
  }
  if (family == "montgomery") return gen::generate_montgomery(field);
  if (family == "montgomery_raw") {
    gen::MontgomeryOptions options;
    options.raw = true;
    return gen::generate_montgomery(field, options);
  }
  if (family == "karatsuba") return gen::generate_karatsuba(field);
  return gen::generate_shift_add(field);
}

Expected expect_multiplier(const Poly& p, bool raw) {
  Expected expected;
  expected.kind = Expect::Multiplier;
  expected.p = p;
  expected.circuit_class =
      raw ? CircuitClass::MontgomeryRaw : CircuitClass::StandardProduct;
  return expected;
}

/// The net that was z<i> is renamed z<perm[i]>: the logic is untouched but
/// the declared bit order of the result bus is scrambled (the flow finds
/// output bits by name).
nl::Netlist scramble_outputs(const nl::Netlist& netlist,
                             const std::vector<unsigned>& perm) {
  nl::Netlist out(netlist.name() + "_scrambled");
  std::vector<nl::Var> map(netlist.num_vars());
  for (nl::Var v : netlist.inputs()) map[v] = out.add_input(netlist.var_name(v));
  std::vector<std::string> rename(netlist.num_vars());
  for (unsigned i = 0; i < perm.size(); ++i) {
    rename[netlist.outputs()[i]] = "z" + std::to_string(perm[i]);
    out.reserve_name(rename[netlist.outputs()[i]]);
  }
  for (std::size_t g : netlist.topological_order()) {
    const nl::Gate& gate = netlist.gate(g);
    std::vector<nl::Var> inputs;
    for (nl::Var in : gate.inputs) inputs.push_back(map[in]);
    map[gate.output] =
        out.add_gate(gate.type, std::move(inputs), rename[gate.output]);
  }
  for (unsigned i = 0; i < perm.size(); ++i) {
    out.mark_output(*out.find_var("z" + std::to_string(i)));
  }
  return out;
}

template <typename T>
void shuffle(std::vector<T>& items, Prng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.next_below(i)]);
  }
}

std::vector<unsigned> random_permutation(unsigned m, Prng& rng) {
  std::vector<unsigned> perm(m);
  for (unsigned i = 0; i < m; ++i) perm[i] = i;
  shuffle(perm, rng);
  return perm;
}

/// Bytes no dialect accepts: either binary noise that sniffs as no format,
/// or an .eqn file whose third line is a malformed equation.
std::string garbage_text(Prng& rng) {
  if (rng.next_bool()) {
    std::string text = "\x01\x7f";
    const std::size_t length = 64 + rng.next_below(2048);
    for (std::size_t i = 0; i < length; ++i) {
      text.push_back(static_cast<char>(rng.next_below(256)));
    }
    return text;
  }
  return "model broken\ninput a0 b0;\noutput z0;\nz0 = AND(a0, ;\n";
}

std::string emit(const nl::Netlist& netlist, unsigned dialect) {
  switch (dialect) {
    case 0: return nl::write_eqn(netlist);
    case 1: return nl::write_blif(netlist);
    default: return nl::write_verilog(netlist);
  }
}

const char* kExtensions[] = {".eqn", ".blif", ".v"};

std::string file_name(std::size_t index, const char* extension) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "job%05zu", index);
  return buf + std::string(extension);
}

}  // namespace

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::CryptoSingle: return "crypto_single";
    case Workload::BatchStream: return "batch_stream";
    case Workload::CacheReplay: return "cache_replay";
  }
  return "?";
}

bool workload_from_name(std::string_view name, Workload* out) {
  for (Workload w : {Workload::CryptoSingle, Workload::BatchStream,
                     Workload::CacheReplay}) {
    if (name == to_string(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* to_string(JobKind kind) {
  switch (kind) {
    case JobKind::Clean: return "clean";
    case JobKind::Repeat: return "repeat";
    case JobKind::Scrambled: return "scrambled";
    case JobKind::Fault: return "fault";
    case JobKind::Garbage: return "unparseable";
  }
  return "?";
}

std::vector<Job> generate_crypto(std::uint64_t seed, unsigned max_m) {
  Prng rng(seed ^ kCryptoSalt);
  std::vector<Job> jobs;
  for (unsigned m : {163u, 283u}) {
    if (m > max_m) continue;
    const Candidates& fields = field_candidates(m);
    const std::size_t pick = rng.next_below(fields.trinomials.size() +
                                            fields.pentanomials.size());
    const Poly& p = pick < fields.trinomials.size()
                        ? fields.trinomials[pick]
                        : fields.pentanomials[pick - fields.trinomials.size()];
    const gfre::gf2m::Field field(p);
    for (const Family& family : kCryptoFamilies) {
      Job job;
      job.family = family.name;
      job.m = m;
      job.text = nl::write_eqn(generate(family.name, field));
      job.expected = expect_multiplier(p, family.raw);
      jobs.push_back(std::move(job));
    }
  }
  shuffle(jobs, rng);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].file = file_name(i, ".eqn");
  }
  return jobs;
}

std::vector<Job> generate_stream(std::uint64_t seed, std::size_t count,
                                 bool snapshot, unsigned max_m) {
  constexpr unsigned min_m = 8;
  Prng rng(seed ^ (snapshot ? kSnapshotSalt : kStreamSalt));
  // The shape of a pass is fixed and the seed fills it in.  Circuit d of
  // the pass sits in degree stratum d of [min_m, max_m]; its family,
  // dialect, mutation, snapshot membership and the weight of its P(x)
  // follow from d alone.  The
  // seed picks the degree within the stratum, P(x), fault sites, output
  // permutations, garbage bytes, which jobs repeat and where the repeats
  // and garbage sit; the order of the strata is fixed.  Work per pass and
  // where the large circuits fall in it therefore barely depend on the
  // seed (one large Karatsuba circuit read from BLIF can cost as much as
  // dozens of small jobs, so letting the seed place it would make the
  // pass's makespan seed-dependent) while every input does.
  const std::size_t repeats = count * 15 / 100;
  const std::size_t garbage = std::max<std::size_t>(1, count * 3 / 100);
  const std::size_t circuits = count - std::min(count, repeats + garbage);
  std::vector<JobKind> slots;  // what each position of the pass holds
  slots.insert(slots.end(), repeats, JobKind::Repeat);
  slots.insert(slots.end(), garbage, JobKind::Garbage);
  slots.insert(slots.end(), circuits, JobKind::Clean);
  slots.resize(count);
  shuffle(slots, rng);
  const auto first_new = std::find_if(slots.begin(), slots.end(), [](JobKind k) {
    return k != JobKind::Repeat;
  });
  if (first_new != slots.end()) std::iter_swap(slots.begin(), first_new);

  // The k-th circuit of the pass is stratum k * step (mod the circuit
  // count), with step near the golden section of the count: large circuits
  // are spread evenly through the pass instead of queueing behind each
  // other.
  std::size_t step = std::max<std::size_t>(
      1, static_cast<std::size_t>(0.618 * static_cast<double>(circuits)));
  while (std::gcd(step, std::max<std::size_t>(circuits, 1)) != 1) ++step;
  std::vector<std::size_t> stratum(circuits);
  for (std::size_t k = 0; k < circuits; ++k) {
    stratum[k] = k * step % circuits;
  }
  const unsigned span = max_m - min_m + 1;

  std::vector<Job> jobs;
  jobs.reserve(count);
  std::size_t circuit = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Job job;
    job.kind = slots[i];
    if (job.kind == JobKind::Repeat) {
      // The twin is at least kRepeatGap jobs back, so it has almost always
      // resolved: the repeat is a memo hit, not a wait on a running twin
      // whose remaining time the seed would pick.
      job = jobs[rng.next_below(
          jobs.size() > kRepeatGap ? jobs.size() - kRepeatGap : 1)];
      job.kind = JobKind::Repeat;
      job.file = file_name(i, job.file.substr(job.file.find('.')).c_str());
      jobs.push_back(std::move(job));
      continue;
    }
    if (job.kind == JobKind::Garbage) {
      job.file = file_name(i, kExtensions[rng.next_below(3)]);
      job.in_snapshot = snapshot && rng.next_bool();
      job.text = garbage_text(rng);
      job.expected.kind = Expect::LoadError;
      jobs.push_back(std::move(job));
      continue;
    }
    const std::size_t d = stratum[circuit++];
    const std::size_t group = d / std::size(kStreamFamilies);
    // 2 in 17 circuits scrambled: 10% of the pass.  As many faults, spread
    // evenly over the lower two thirds of the strata (m up to about 67).
    // What a fault costs depends on the site the seed picks: a faulted
    // Montgomery circuit at m = 95 took 0.44 s under one seed and 0.73 s
    // under another, a tenth and a sixth of a pass.
    const std::size_t fault_strata = circuits * 2 / 3;
    const std::size_t faults = count / 10;
    job.kind = d % 17 == 0 || d % 17 == 8 ? JobKind::Scrambled
               : d < fault_strata && (d + 1) * faults / fault_strata >
                                         d * faults / fault_strata
                   ? JobKind::Fault
                   : JobKind::Clean;
    const unsigned dialect = static_cast<unsigned>(group % 3);
    job.file = file_name(i, kExtensions[dialect]);
    job.in_snapshot = snapshot && (d + group) % 2 == 0;
    // Stratum d covers the degrees lo..hi and the seed picks one.  Every
    // other stratum group asks for a trinomial P(x), found only at some
    // degrees, the rest for a pentanomial.  The weight of P(x) sets the
    // size of the reduction network (a pentanomial Montgomery circuit at
    // m = 36 took twice as long as its trinomial twin), so it follows from
    // d, not the seed, wherever the stratum has a degree that allows it.
    const unsigned lo = min_m + static_cast<unsigned>(d * span / circuits);
    const unsigned hi =
        min_m + static_cast<unsigned>(((d + 1) * span - 1) / circuits);
    const bool want_trinomial = group % 2 == 0;
    std::vector<unsigned> degrees;
    for (unsigned m = lo; m <= hi; ++m) {
      if (!want_trinomial || !field_candidates(m).trinomials.empty()) {
        degrees.push_back(m);
      }
    }
    if (degrees.empty()) {
      for (unsigned m = lo; m <= hi; ++m) degrees.push_back(m);
    }
    job.m = degrees[rng.next_below(degrees.size())];
    const Candidates& fields = field_candidates(job.m);
    const std::vector<Poly>& pool =
        want_trinomial && !fields.trinomials.empty() ? fields.trinomials
                                                     : fields.pentanomials;
    const Poly p = pool[rng.next_below(pool.size())];
    const gfre::gf2m::Field field(p);
    Family family = kStreamFamilies[d % std::size(kStreamFamilies)];
    // Scrambled and faulted jobs need a standard product: the permutation
    // retry and the simulation spec are defined for Z = A*B mod P only.
    if (family.raw && job.kind != JobKind::Clean) family = kStreamFamilies[2];
    job.family = family.name;
    nl::Netlist netlist = generate(family.name, field);
    job.expected = expect_multiplier(p, family.raw);
    if (job.kind == JobKind::Scrambled) {
      netlist = scramble_outputs(netlist, random_permutation(job.m, rng));
      job.expected.permuted = true;
    } else if (job.kind == JobKind::Fault) {
      gfre::obf::PassOptions options;
      options.seed = rng.next_u64();
      const auto pass = rng.next_bool() ? gfre::obf::PassKind::FaultStuckAt
                                        : gfre::obf::PassKind::FaultFlip;
      netlist = gfre::obf::apply_pass(netlist, pass, 1, options).netlist;
      // A fault the simulation cannot see left the function intact: the
      // flow must then still recover the field.
      Prng sim_rng(options.seed);
      const auto ports = nl::multiplier_ports(netlist);
      if (gfre::sim::check_field_multiplier(netlist, ports, field, sim_rng)) {
        job.expected = Expected{};
        job.expected.kind = Expect::NotMultiplier;
      }
    }
    job.text = emit(netlist, dialect);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::string describe_mix(const std::vector<Job>& jobs) {
  std::map<std::string, std::size_t> counts;
  std::size_t not_multiplier = 0;
  std::size_t snapshot = 0;
  for (const Job& job : jobs) {
    ++counts[to_string(job.kind)];
    not_multiplier += job.expected.kind == Expect::NotMultiplier;
    snapshot += job.in_snapshot;
  }
  std::ostringstream out;
  out << jobs.size() << " jobs";
  const double n = static_cast<double>(std::max<std::size_t>(jobs.size(), 1));
  for (const auto& [kind, count] : counts) {
    out << ", " << kind << " " << 100.0 * count / n << "%";
  }
  out << ", expected not-a-multiplier " << 100.0 * not_multiplier / n << "%";
  if (snapshot != 0) out << ", in snapshot " << 100.0 * snapshot / n << "%";
  return out.str();
}

bool verdict_matches(const Expected& expected, const std::string& error,
                     const gfre::core::FlowReport& report) {
  switch (expected.kind) {
    case Expect::LoadError:
      return !error.empty();
    case Expect::NotMultiplier:
      return error.empty() && !report.success;
    case Expect::Multiplier:
      return error.empty() && report.success &&
             report.recovery.p == expected.p &&
             report.recovery.circuit_class == expected.circuit_class &&
             report.output_permutation.has_value() == expected.permuted;
  }
  return false;
}

bool wrong_polynomial(const Expected& expected, const std::string& error,
                      const gfre::core::FlowReport& report) {
  return expected.kind == Expect::Multiplier && error.empty() &&
         report.recovery.circuit_class != CircuitClass::NotAMultiplier &&
         !(report.recovery.p == expected.p);
}

std::string canonical_report(const gfre::core::FlowReport& report) {
  gfre::core::FlowReport copy = report;
  copy.total_seconds = 0.0;
  copy.rss_peak_bytes = 0;
  copy.rss_after_bytes = 0;
  copy.extraction.wall_seconds = 0.0;
  copy.extraction.threads = 0;
  for (auto& bit : copy.extraction.per_bit) bit.seconds = 0.0;
  return gfre::core::serialize_report(copy);
}

}  // namespace perfbench
