// Repository benchmark driver: runs one benchmark workload through the
// public entry points of core, fi, beam and sim, timing every call from
// outside the program.
//
//   perfbench_driver --workload <paper_cold|fi_classify|beam_coldboard>
//                    --seed <n> --seconds <s> [--trace <0|1>]
//                    [--trace-file <path>] [--faults <n>] [--beam-runs <n>]
//                    [--calibration-beam-runs <n>] [--compare-lab]
//
// One pass is the workload's whole call sequence at one campaign seed.
// Passes repeat while the next one should end within --seconds (at least
// one runs); pass k uses seed --seed + k, so a run covers a fixed sequence
// of seeds and the caller's per-call medians average over seeds as well
// as over host noise. With --trace 1 passes come in same-seed pairs, the
// first untraced and the second traced (pass k uses seed --seed + k/2):
// traced passes record a span per public call in a recorder owned by this
// driver (never by the program), and the two sim probes run once at the
// end. Spans are written as Chrome trace JSON when the driver exits.
//
// Output: one JSON object per line on stdout, tagged by "kind":
//   config  the effective, environment-pinned configuration
//   pass    its seed, every timed call, resolved operations, executor
//           stats and the canonical verdict counts (the exact-count gate)
//   probe   sim probes (traced runs only)
//   lab     AssessmentLab::compare_all's counts (--compare-lab only)
//   end     pass count and the process's peak resident set
#include <sys/resource.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sefi/beam/session.hpp"
#include "sefi/core/lab.hpp"
#include "sefi/core/result_cache.hpp"
#include "sefi/fi/campaign.hpp"
#include "sefi/kernel/kernel.hpp"
#include "sefi/microarch/component.hpp"
#include "sefi/microarch/detailed.hpp"
#include "sefi/support/env.hpp"
#include "sefi/workloads/workload.hpp"

extern char** environ;

namespace {

using namespace sefi;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// -- host speed probe ------------------------------------------------------

/// A fixed amount of work that measures the host's current speed: a small
/// interpreter loop (switch dispatch, register file, a set-associative tag
/// lookup with LRU per memory access) over a 4 MB array, then a 4 MB copy,
/// the same kinds of work as the simulator's hot loop and its machine
/// set-up, snapshot and restore copies. It belongs to the benchmark, so no
/// change to the program moves it. Sampled before every timed call, it
/// follows the minute-scale swings in speed of a shared VM, which the
/// caller divides out (perfbench/README.md).
class HostProbe {
 public:
  HostProbe()
      : ram_(kRamBytes, 1), copy_(kRamBytes, 0), l1_(64 * 4), l2_(1024 * 8) {
    std::uint32_t x = 12345;
    for (Op& op : prog_) {
      x = x * 1103515245u + 12345u;
      op = {static_cast<std::uint8_t>((x >> 16) % 10),
            static_cast<std::uint8_t>((x >> 8) & 15),
            static_cast<std::uint8_t>((x >> 4) & 15), x};
    }
  }
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Seconds for one sample: kSteps interpreter steps, then the copy.
  double sample() {
    const Clock::time_point t0 = Clock::now();
    std::uint32_t pc = 0;
    std::uint64_t acc = 0;
    for (int i = 0; i < kSteps; ++i) {
      const Op& op = prog_[pc % prog_.size()];
      std::uint32_t& rd = regs_[op.rd];
      const std::uint32_t rs = regs_[op.rs];
      const std::uint32_t addr = (rs + op.imm) & (kRamBytes - 1);
      switch (op.code) {
        case 0: rd = rs + op.imm; break;
        case 1: rd = rs ^ (op.imm << 3); break;
        case 2: rd = rs * 3 + 1; break;
        case 3: rd = load(addr); break;
        case 4: ram_[addr] = static_cast<std::uint8_t>(rd); load(addr); break;
        case 5: if (rs & 1) pc += op.imm & 7; break;
        case 6: rd = rs >> (op.imm & 7); break;
        case 7: rd = load((pc * 64 + op.imm) & 0xfffff); break;
        default: rd += rs; break;
      }
      acc += rd;
      ++pc;
    }
    std::memcpy(copy_.data(), ram_.data(), ram_.size());
    sink_ = acc + copy_[acc % copy_.size()];
    return seconds_since(t0, Clock::now());
  }

 private:
  static constexpr std::uint32_t kRamBytes = 4u << 20;
  static constexpr int kSteps = 50'000;
  struct Op {
    std::uint8_t code, rd, rs;
    std::uint32_t imm;
  };
  struct Line {
    std::uint32_t tag = 0, lru = 0;
  };

  bool lookup(std::vector<Line>& cache, std::uint32_t sets,
              std::uint32_t ways, std::uint32_t addr) {
    const std::uint32_t line = addr >> 5;
    Line* set = &cache[(line & (sets - 1)) * ways];
    const std::uint32_t tag = line / sets;
    ++tick_;
    for (std::uint32_t w = 0; w < ways; ++w) {
      if (set[w].tag == tag) {
        set[w].lru = tick_;
        return true;
      }
    }
    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < ways; ++w) {
      if (set[w].lru < set[victim].lru) victim = w;
    }
    set[victim] = {tag, tick_};
    return false;
  }

  std::uint32_t load(std::uint32_t addr) {
    if (!lookup(l1_, 64, 4, addr)) lookup(l2_, 1024, 8, addr);
    return ram_[addr];
  }

  std::vector<std::uint8_t> ram_, copy_;
  std::vector<Line> l1_, l2_;
  std::array<Op, 4096> prog_{};
  std::uint32_t regs_[16] = {};
  std::uint32_t tick_ = 0;
  volatile std::uint64_t sink_ = 0;
};

// -- call recorder ---------------------------------------------------------

/// Times the public calls of one pass and, when tracing, records each as
/// a span. Spans nest by call order on the driver thread; `unit` is the
/// pass index (-1 for the probes), `parent` the index of the enclosing
/// span (-1 at top level). Spans stay in memory until write().
class Recorder {
 public:
  struct Call {
    const char* name;
    std::string workload;  ///< guest workload the call ran, if any
    double seconds = 0;
  };

  explicit Recorder(Clock::time_point epoch) : epoch_(epoch) {}

  void begin_pass(long unit, bool traced) {
    unit_ = unit;
    traced_ = traced;
    calls_.clear();
    probes_.clear();
  }
  const std::vector<Call>& calls() const { return calls_; }
  const std::vector<double>& probes() const { return probes_; }

  /// Samples the host probe; called before each timed call.
  void probe_host() { probes_.push_back(probe_.sample()); }

  long open(const char* name, const std::string& workload) {
    if (!traced_) return -1;
    spans_.push_back({name, workload, unit_,
                      stack_.empty() ? -1 : stack_.back(),
                      seconds_since(epoch_, Clock::now()), 0});
    stack_.push_back(static_cast<long>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(long id, Call call) {
    if (id >= 0) {
      spans_[static_cast<std::size_t>(id)].end_s =
          seconds_since(epoch_, Clock::now());
      stack_.pop_back();
    }
    calls_.push_back(std::move(call));
  }

  /// Chrome trace_event JSON ("X" complete events, microseconds).
  bool write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%ld,\"unit\":%ld,\"workload\":\"%s\"}}",
                    i == 0 ? "" : ",", s.name, s.start_s * 1e6,
                    (s.end_s - s.start_s) * 1e6, i, s.parent, s.unit,
                    s.workload.c_str());
      out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    std::string workload;
    long unit;
    long parent;
    double start_s;
    double end_s;
  };

  Clock::time_point epoch_;
  long unit_ = -1;
  bool traced_ = false;
  HostProbe probe_;
  std::vector<Call> calls_;
  std::vector<double> probes_;
  std::vector<Span> spans_;
  std::vector<long> stack_;
};

/// Scope of one timed public call, preceded by a host probe sample.
class Timed {
 public:
  Timed(Recorder& rec, const char* name, std::string workload = "")
      : rec_(rec), name_(name), workload_(std::move(workload)),
        id_((rec.probe_host(), rec.open(name, workload_))),
        t0_(Clock::now()) {}
  ~Timed() {
    rec_.close(id_, {name_, std::move(workload_),
                     seconds_since(t0_, Clock::now())});
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Recorder& rec_;
  const char* name_;
  std::string workload_;
  long id_;
  Clock::time_point t0_;
};

// -- options and configuration ---------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string trace_file = "perfbench_trace.json";
  std::uint64_t faults = 0;            ///< 0 = the workload's default
  std::uint64_t beam_runs = 0;         ///< 0 = the workload's default
  /// Beam runs of the calibration lab, which calibrates over 3x as many;
  /// 0 = the default.
  std::uint64_t calibration_beam_runs = 0;
  bool compare_lab = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench_driver: %s\n", why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') usage("expected a whole number");
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--compare-lab") {
      o.compare_lab = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const char* v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = parse_u64(v);
    else if (a == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (a == "--trace") o.trace = parse_u64(v) != 0;
    else if (a == "--trace-file") o.trace_file = v;
    else if (a == "--faults") o.faults = parse_u64(v);
    else if (a == "--beam-runs") o.beam_runs = parse_u64(v);
    else if (a == "--calibration-beam-runs") o.calibration_beam_runs = parse_u64(v);
    else usage("unknown option " + a);
  }
  if (o.workload != "paper_cold" && o.workload != "fi_classify" &&
      o.workload != "beam_coldboard") {
    usage("--workload must be paper_cold, fi_classify or beam_coldboard");
  }
  return o;
}

/// Clears every SEFI_* variable, then turns the result cache and resume
/// journals off explicitly, so nothing in the caller's environment can
/// change the workload and no timed path touches the disk.
void pin_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const char* eq = std::strchr(*e, '=');
    if (std::strncmp(*e, "SEFI_", 5) == 0 && eq != nullptr) {
      names.emplace_back(*e, static_cast<std::size_t>(eq - *e));
    }
  }
  for (const std::string& name : names) ::unsetenv(name.c_str());
  ::setenv("SEFI_CACHE_DIR", "", 1);
  ::setenv("SEFI_JOURNAL", "0", 1);
  support::env::refresh();
}

struct Plan {
  core::LabConfig lab;          ///< FI campaigns and beam sessions
  core::LabConfig calibration;  ///< FIT_raw calibration and conversion
  bool fi = false;     ///< pass runs FI campaigns
  bool beam = false;   ///< pass runs beam sessions
  bool paper = false;  ///< pass runs the calibration + FIT comparison
};

/// Sets the campaign seed exactly as SEFI_SEED does; 0 keeps the default
/// sampling and beam streams.
void apply_seed(core::LabConfig& config, std::uint64_t seed) {
  config.fi.seed = seed != 0 ? seed : fi::CampaignConfig{}.seed;
  config.beam.seed = seed != 0 ? seed ^ 0xBEA3 : beam::BeamConfig{}.seed;
}

Plan make_plan(const Options& o) {
  Plan p;
  // Sizes fit several passes into a run (perfbench/README.md). The
  // calibration lab beams L1Pattern for 3 x 400 runs: an SDC shows in
  // ~0.9% of its runs, and a calibration with none aborts fit_raw_per_bit.
  std::uint64_t faults = 10, runs = 40, calibration_runs = 400, threads = 1;
  fi::PruneMode prune = fi::PruneMode::kOff;
  if (o.calibration_beam_runs != 0) calibration_runs = o.calibration_beam_runs;
  if (o.workload == "paper_cold") {
    p.fi = p.beam = p.paper = true;
  } else if (o.workload == "fi_classify") {
    p.fi = true;
    prune = fi::PruneMode::kClassify;
    faults = 50;
    threads = 2;
  } else {
    p.beam = true;
  }
  if (o.faults != 0) faults = o.faults;
  if (o.beam_runs != 0) runs = o.beam_runs;
  // from_env after pin_environment: only the defaults given here apply.
  p.lab = core::LabConfig::from_env(faults, runs);
  p.lab.journal_enabled = false;
  p.lab.fi.threads = threads;
  p.lab.beam.threads = threads;
  p.lab.fi.prune = prune;
  p.lab.beam.power_cycle_every_run = o.workload == "beam_coldboard";
  apply_seed(p.lab, o.seed);
  // The calibration lab differs only in its beam run count.
  p.calibration = p.lab;
  p.calibration.beam.runs = calibration_runs;
  return p;
}

Plan with_seed(Plan plan, std::uint64_t seed) {
  apply_seed(plan.lab, seed);
  apply_seed(plan.calibration, seed);
  return plan;
}

void print_config(const Options& o, const Plan& p) {
  const auto& f = p.lab.fi;
  const auto& b = p.lab.beam;
  std::printf(
      "{\"kind\":\"config\",\"workload\":\"%s\",\"seed\":%llu,"
      "\"fi_seed\":%llu,\"beam_seed\":%llu,\"faults_per_component\":%llu,"
      "\"beam_runs\":%llu,\"calibration_runs\":%llu,\"fi_threads\":%llu,"
      "\"beam_threads\":%llu,\"checkpoints\":%llu,\"prune\":\"%s\","
      "\"power_cycle_every_run\":%s,\"delta_restore\":%s,\"harden\":\"%s\","
      "\"journal\":%s,\"cache_dir\":\"%s\",\"fi_campaigns\":%s,"
      "\"beam_sessions\":%s,\"calibration\":%s,\"suite\":%zu}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      static_cast<unsigned long long>(f.seed),
      static_cast<unsigned long long>(b.seed),
      static_cast<unsigned long long>(f.faults_per_component),
      static_cast<unsigned long long>(b.runs),
      static_cast<unsigned long long>(
          p.paper ? 3 * p.calibration.beam.runs : 0),
      static_cast<unsigned long long>(f.threads),
      static_cast<unsigned long long>(b.threads),
      static_cast<unsigned long long>(f.checkpoints),
      fi::prune_mode_name(f.prune).c_str(),
      b.power_cycle_every_run ? "true" : "false",
      f.rig.delta_restore ? "true" : "false",
      harden::harden_mode_name(f.rig.harden).c_str(),
      p.lab.journal_enabled ? "true" : "false",
      core::ResultCache::from_env().directory().c_str(),
      p.fi ? "true" : "false", p.beam ? "true" : "false",
      p.paper ? "true" : "false", workloads::all_workloads().size());
}

// -- one pass ---------------------------------------------------------------

/// Operation and executor tallies of one pass (exact counts).
struct Tally {
  std::uint64_t sites = 0, executed = 0, pruned = 0, masked_executed = 0;
  std::uint64_t beam_runs = 0, strikes = 0, reboots = 0;
  std::uint64_t lost_runs = 0;  ///< configured beam runs never resolved
  std::uint64_t harness_errors = 0, retries = 0, watchdog_hits = 0,
                golden_mismatch = 0;
  std::uint64_t ladder_bytes = 0, guest_instructions = 0, replay_cycles = 0,
                restore_bytes = 0, uop_hits = 0, uop_steps = 0;
};

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

std::string beam_counts(const beam::BeamResult& r) {
  return "[" + fmt_u64(r.runs) + "," + fmt_u64(r.sdc) + "," +
         fmt_u64(r.app_crash) + "," + fmt_u64(r.sys_crash) + "," +
         fmt_u64(r.detected) + "," + fmt_u64(r.strikes) + "," +
         fmt_u64(r.reboots) + "]";
}

std::string fi_counts(const fi::WorkloadFiResult& r) {
  std::string out = "{";
  for (const fi::ComponentResult& c : r.components) {
    if (out.size() > 1) out += ",";
    out += "\"" + microarch::component_name(c.component) + "\":[" +
           fmt_u64(c.counts.masked) + "," + fmt_u64(c.counts.sdc) + "," +
           fmt_u64(c.counts.app_crash) + "," + fmt_u64(c.counts.sys_crash) +
           "," + fmt_u64(c.counts.detected) + "," +
           fmt_u64(c.counts.harness_error) + "," + fmt_u64(c.pruned_masked) +
           "]";
  }
  return out + "}";
}

/// The calibration session's result, read back from the lab's memo
/// (fit_raw_per_bit returns only the quotient). Null when absent.
const beam::BeamResult* calibration_result(const core::AssessmentLab& lab) {
  beam::BeamConfig calibration = lab.config().beam;
  calibration.runs *= 3;
  return lab.cache().load_beam(core::ResultCache::make_key(
      "beam", core::fingerprint(calibration),
      workloads::l1_pattern_workload().info().name));
}

/// Canonical JSON of every verdict count a pass produced: per session
/// [runs, SDC, AppCrash, SysCrash, Detected, strikes, reboots]; per
/// workload x component [Masked, SDC, AppCrash, SysCrash, Detected,
/// HarnessError, pruned]; with the paper comparison also the
/// calibration session, FIT_raw, each workload's FI FIT [SDC, AppCrash,
/// SysCrash, Detected] and the Fig. 10 gaps. Doubles print with 17
/// significant digits, so equal text means bit-identical values.
std::string canonical_counts(const Plan& plan, core::AssessmentLab* calibration,
                             const std::vector<core::WorkloadComparison>& sweep) {
  std::string out = "{";
  const auto field = [&out](const std::string& name, const std::string& v) {
    out += (out.size() > 1 ? ",\"" : "\"") + name + "\":" + v;
  };
  const auto per_workload = [&sweep](auto&& render) {
    std::string o = "{";
    for (const core::WorkloadComparison& c : sweep) {
      o += (o.size() > 1 ? ",\"" : "\"") + c.workload + "\":" + render(c);
    }
    return o + "}";
  };
  if (plan.beam) {
    field("beam", per_workload([](const core::WorkloadComparison& c) {
            return beam_counts(c.beam);
          }));
  }
  if (plan.fi) {
    field("fi", per_workload([](const core::WorkloadComparison& c) {
            return fi_counts(c.fi);
          }));
  }
  if (calibration != nullptr) {
    const beam::BeamResult* cal = calibration_result(*calibration);
    field("calibration", cal != nullptr ? beam_counts(*cal) : "null");
    field("fit_raw", fmt_double(calibration->fit_raw_per_bit()));
    field("fi_fit", per_workload([](const core::WorkloadComparison& c) {
            return "[" + fmt_double(c.fi_fit.sdc) + "," +
                   fmt_double(c.fi_fit.app_crash) + "," +
                   fmt_double(c.fi_fit.sys_crash) + "," +
                   fmt_double(c.fi_fit.detected) + "]";
          }));
    const core::AggregateComparison agg = core::AssessmentLab::aggregate(sweep);
    field("gaps", "{\"sdc\":" + fmt_double(agg.sdc_gap()) + ",\"sdc_app\":" +
                      fmt_double(agg.sdc_app_gap()) + ",\"total\":" +
                      fmt_double(agg.total_gap()) + "}");
  }
  return out + "}";
}

void count_session(Tally& t, const beam::BeamResult& result,
                   std::uint64_t expected_runs) {
  t.beam_runs += result.runs;
  t.strikes += result.strikes;
  t.reboots += result.reboots;
  if (result.runs < expected_runs) t.lost_runs += expected_runs - result.runs;
}

void count_campaign(Tally& t, const fi::WorkloadFiResult& result) {
  for (const fi::ComponentResult& c : result.components) {
    t.sites += c.counts.attempted();
    t.pruned += c.pruned_masked;
    t.masked_executed += c.counts.masked - c.pruned_masked;
  }
  const fi::CampaignStats& s = result.stats;
  t.executed += s.tasks_run;
  t.harness_errors += s.harness_errors;
  t.retries += s.task_retries;
  t.watchdog_hits += s.watchdog_hits;
  t.guest_instructions += s.guest_instructions;
  t.replay_cycles += s.replay_cycles;
  t.restore_bytes += s.restore_bytes_copied;
  t.uop_hits += s.uop_hits;
  t.uop_steps += s.uop_hits + s.uop_decode_hits + s.uop_misses;
}

/// One pass of the workload's call sequence: for paper_cold the calls
/// AssessmentLab::compare_all makes, driven one by one (calibration,
/// 13 sessions, 13 x (rig + campaign), conversion + aggregate).
Tally run_pass(const Plan& plan, Recorder& rec, std::string* counts) {
  const auto& suite = workloads::all_workloads();
  Tally t;
  // Fresh labs per pass: their in-process memo starts empty, so every
  // pass is as cold as the first.
  std::optional<core::AssessmentLab> calibration;
  std::vector<core::WorkloadComparison> sweep(suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    sweep[i].workload = suite[i]->info().name;
  }
  const long pass_span = rec.open("pass", "");

  if (plan.paper) {
    calibration.emplace(plan.calibration);
    {
      const Timed timed(rec, "core.fit_raw_per_bit", "L1Pattern");
      calibration->fit_raw_per_bit();
    }
    const beam::BeamResult* cal = calibration_result(*calibration);
    if (cal != nullptr) {
      count_session(t, *cal, 3 * plan.calibration.beam.runs);
    } else {
      t.lost_runs += 3 * plan.calibration.beam.runs;
    }
  }
  if (plan.beam && !plan.fi) {
    // beam_coldboard's set-up: each session's fixed cost (golden run,
    // first power-on) measured as a one-run session per workload, since
    // run_beam_session sets up inside the call.
    beam::BeamConfig setup = plan.lab.beam;
    setup.runs = 1;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      beam::BeamResult result;
      {
        const Timed timed(rec, "beam.session_setup", sweep[i].workload);
        result = beam::run_beam_session(*suite[i], setup);
      }
      if (result.runs < 1) ++t.lost_runs;
    }
  }
  if (plan.beam) {
    for (std::size_t i = 0; i < suite.size(); ++i) {
      {
        const Timed timed(rec, "beam.run_beam_session", sweep[i].workload);
        sweep[i].beam = beam::run_beam_session(*suite[i], plan.lab.beam);
      }
      count_session(t, sweep[i].beam, plan.lab.beam.runs);
    }
  }
  if (plan.fi) {
    for (std::size_t i = 0; i < suite.size(); ++i) {
      std::unique_ptr<fi::InjectionRig> rig;
      {
        const Timed timed(rec, "fi.InjectionRig", sweep[i].workload);
        rig = std::make_unique<fi::InjectionRig>(
            *suite[i], plan.lab.fi.rig, plan.lab.fi.input_seed,
            plan.lab.fi.checkpoints,
            /*record_liveness=*/plan.lab.fi.prune != fi::PruneMode::kOff);
      }
      if (rig->golden().console !=
          suite[i]->expected_console(plan.lab.fi.input_seed)) {
        ++t.golden_mismatch;
      }
      t.ladder_bytes += rig->ladder_resident_bytes();
      {
        const Timed timed(rec, "fi.run_fi_campaign", sweep[i].workload);
        sweep[i].fi = fi::run_fi_campaign(*rig, plan.lab.fi);
      }
      // Release the rig (golden state, ladder, liveness) before the next
      // campaign, as a one-by-one sweep does.
      rig.reset();
      count_campaign(t, sweep[i].fi);
    }
  }
  if (plan.paper) {
    const Timed timed(rec, "core.convert_to_fit");
    for (core::WorkloadComparison& c : sweep) {
      c.fi_fit = calibration->convert_to_fit(c.fi);
    }
    core::AssessmentLab::aggregate(sweep);
  }
  rec.close(pass_span, {"pass", "", 0});
  *counts = canonical_counts(plan, calibration ? &*calibration : nullptr,
                             sweep);
  return t;
}

std::string json_tally(const Tally& t) {
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"sites", t.sites},
      {"executed", t.executed},
      {"pruned", t.pruned},
      {"masked_executed", t.masked_executed},
      {"beam_runs", t.beam_runs},
      {"strikes", t.strikes},
      {"reboots", t.reboots},
      {"lost_runs", t.lost_runs},
      {"harness_errors", t.harness_errors},
      {"retries", t.retries},
      {"watchdog_hits", t.watchdog_hits},
      {"golden_mismatch", t.golden_mismatch},
      {"ladder_bytes", t.ladder_bytes},
      {"guest_instructions", t.guest_instructions},
      {"replay_cycles", t.replay_cycles},
      {"restore_bytes", t.restore_bytes},
      {"uop_hits", t.uop_hits},
      {"uop_steps", t.uop_steps},
  };
  std::string out = "{";
  for (const auto& [name, value] : fields) {
    out += (out.size() > 1 ? ",\"" : "\"") + std::string(name) +
           "\":" + fmt_u64(value);
  }
  return out + "}";
}

std::string json_probes(const Recorder& rec) {
  std::string out = "[";
  for (const double p : rec.probes()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.9f", out.size() > 1 ? "," : "", p);
    out += buf;
  }
  return out + "]";
}

std::string json_calls(const Recorder& rec) {
  std::string calls = "[";
  for (const Recorder::Call& c : rec.calls()) {
    if (calls.size() > 1) calls += ",";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9f", c.seconds);
    calls += "[\"" + std::string(c.name) + "\",\"" + c.workload + "\"," +
             buf + "]";
  }
  return calls + "]";
}

void print_pass(std::size_t index, std::uint64_t seed, bool traced,
                const Recorder& rec, const Tally& t, const std::string& counts) {
  std::printf("{\"kind\":\"pass\",\"pass\":%zu,\"seed\":%llu,\"traced\":%s,"
              "\"calls\":%s,\"probes\":%s,\"tally\":%s,\"counts\":%s}\n",
              index, static_cast<unsigned long long>(seed),
              traced ? "true" : "false", json_calls(rec).c_str(),
              json_probes(rec).c_str(), json_tally(t).c_str(),
              counts.c_str());
  std::fflush(stdout);
}

/// Self-test path: the same configuration through
/// AssessmentLab::compare_all, printed in the pass's canonical form.
/// Only meaningful when the calibration and the sessions share one
/// beam run count, as they do inside one lab.
void print_lab_counts(const Plan& plan) {
  core::AssessmentLab lab(plan.lab);
  const std::vector<core::WorkloadComparison> sweep = lab.compare_all();
  std::printf("{\"kind\":\"lab\",\"counts\":%s}\n",
              canonical_counts(plan, &lab, sweep).c_str());
  std::fflush(stdout);
}

// -- sim probes (traced runs) ----------------------------------------------

constexpr int kPowerOnProbes = 15;

/// Golden probe: one fault-free run of every suite workload on a fresh
/// machine (guest MIPS of the plain interpreter). Power-on probe:
/// machine construction + install + boot, plus releasing the previous
/// machine — what a cold-board beam run pays per power cycle.
void run_probes(const Plan& plan, Recorder& rec) {
  rec.begin_pass(-1, true);
  const microarch::DetailedConfig& uarch = plan.lab.beam.uarch;
  const isa::Program kernel_image = kernel::build_kernel(plan.lab.beam.kernel);
  std::uint64_t instructions = 0;
  for (const workloads::Workload* w : workloads::all_workloads()) {
    const isa::Program app = w->build(plan.lab.beam.input_seed);
    sim::Machine machine = microarch::make_detailed_machine(uarch);
    kernel::install_system(machine, kernel_image, app,
                           workloads::kWorkloadStackTop);
    machine.boot();
    const Timed timed(rec, "sim.golden_run", w->info().name);
    machine.run(500'000'000);
    instructions += machine.cpu().instructions();
  }
  const isa::Program app =
      workloads::all_workloads().front()->build(plan.lab.beam.input_seed);
  for (int i = 0; i < kPowerOnProbes; ++i) {
    const Timed timed(rec, "sim.power_on");
    sim::Machine machine = microarch::make_detailed_machine(uarch);
    kernel::install_system(machine, kernel_image, app,
                           workloads::kWorkloadStackTop);
    machine.boot();
  }
  std::printf("{\"kind\":\"probe\",\"calls\":%s,\"probes\":%s,"
              "\"golden_instructions\":%llu}\n",
              json_calls(rec).c_str(), json_probes(rec).c_str(),
              static_cast<unsigned long long>(instructions));
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  pin_environment();
  const Plan plan = make_plan(options);
  print_config(options, plan);
  if (options.compare_lab) print_lab_counts(plan);

  const Clock::time_point epoch = Clock::now();
  Recorder rec(epoch);
  // A pass starts only when it should end within --seconds (judged by
  // the previous one), after the minimum count has run.
  const std::size_t min_passes = options.trace ? 2 : 1;
  std::size_t passes = 0;
  double last_pass_s = 0;
  while (passes < min_passes ||
         seconds_since(epoch, Clock::now()) + last_pass_s <= options.seconds) {
    const Clock::time_point pass_start = Clock::now();
    // Traced runs pair an untraced and a traced pass per seed, so the
    // ratio of their times is the tracing overhead on identical work.
    const bool traced = options.trace && passes % 2 == 1;
    const std::uint64_t seed =
        options.seed + (options.trace ? passes / 2 : passes);
    rec.begin_pass(static_cast<long>(passes), traced);
    std::string counts;
    const Tally tally = run_pass(with_seed(plan, seed), rec, &counts);
    print_pass(passes, seed, traced, rec, tally, counts);
    ++passes;
    last_pass_s = seconds_since(pass_start, Clock::now());
  }
  if (options.trace) {
    run_probes(plan, rec);
    if (!rec.write(options.trace_file)) {
      std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                   options.trace_file.c_str());
      return 1;
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("{\"kind\":\"end\",\"passes\":%zu,\"peak_rss_mb\":%.3f}\n",
              passes, static_cast<double>(usage.ru_maxrss) / 1024.0);
  return 0;
}
