// Correctness gates at the paper's operating point: 64 small e-SRAMs of
// four depths behind one BISD controller, at a 1 % defect rate plus DRFs.
//
//  * The default kernel diagnoses like the per_cell reference (log, cycles,
//    SRAM ops), fault-free and at 1 %.
//  * instance_sliced dictionaries classify like per_candidate ones, on a
//    wrap-free and on a wrapped SoC.
//  * A 100,000-run streaming sweep peaks far below run_batch, which
//    retains every Report.
//  * Classifying the wrapped 64-memory fleet SoC cold stays under 500 MB
//    of peak RSS and under its dictionary-key bound.
//
// Every gate runs in its own forked child, all five started together when
// the suite starts: the RSS legs so that each reads its own peak, and the
// two differentials so that they share the cores with them.  Still the
// heaviest tier-1 binary; the Debug and sanitizer CI legs skip it with
// `ctest -E test_operating_point`.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "core/fastdiag.h"

namespace fastdiag {
namespace {

using diagnosis::DictionaryBuildMode;
using sram::SramConfig;

/// @p count memories of each (words, bits) shape.
std::vector<SramConfig> shapes(
    int count, std::uint32_t spare_rows,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& geometry) {
  std::vector<SramConfig> configs;
  for (const auto& [words, bits] : geometry) {
    for (int i = 0; i < count; ++i) {
      SramConfig config;
      config.name = "m" + std::to_string(configs.size());
      config.words = words;
      config.bits = bits;
      config.spare_rows = spare_rows;
      configs.push_back(config);
    }
  }
  return configs;
}

/// 16 memories each of 256x18, 128x40, 192x24 and 224x72 behind one
/// 256-step sweep: the shallower three wrap it, and the widest lane crosses
/// the 64-bit limb boundary.
std::vector<SramConfig> fleet_configs(std::uint32_t spare_rows) {
  return shapes(16, spare_rows, {{256, 18}, {128, 40}, {192, 24}, {224, 72}});
}

bisd::SocUnderTest inject(const std::vector<SramConfig>& configs,
                          double defect_rate, std::uint64_t seed) {
  faults::InjectionSpec spec;
  spec.cell_defect_rate = defect_rate;
  spec.include_retention = defect_rate > 0.0;
  return bisd::SocUnderTest::from_injection(configs, spec, seed);
}

// ---- forked legs ----------------------------------------------------------

/// One /proc/self/status field in KiB (0 when absent).
long status_kb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stol(line.substr(field.size() + 1));
    }
  }
  return 0;
}

/// What a forked leg reports back through its pipe.
struct LegResult {
  bool ran = false;         ///< the child finished the leg
  long base_kb = 0;         ///< VmRSS when the leg started
  long peak_kb = 0;         ///< VmHWM when the leg returned
  std::uint64_t value = 0;  ///< the leg's count
  char failure[1024] = {};  ///< what a differential leg found, if anything
};

/// A forked child running one leg.
struct Child {
  pid_t pid = -1;
  int fd = -1;
};

/// Forks a child that runs @p leg and writes its LegResult back; children
/// run concurrently until collect().  The child first resets its peak-RSS
/// mark (VmHWM) to its current RSS, so the reading covers the leg plus the
/// pages it inherited, never an earlier peak.  If the kernel refuses the
/// reset, VmHWM keeps the inherited mark: readings only grow, so an RSS
/// gate can then fail spuriously but never pass falsely.
template <typename Leg>
Child spawn(Leg&& leg) {
  int fds[2];
  if (pipe(fds) != 0) {
    return {};
  }
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    std::ofstream("/proc/self/clear_refs") << "5";
    LegResult result;
    result.base_kb = status_kb("VmRSS");
    leg(result);
    result.peak_kb = status_kb("VmHWM");
    result.ran = true;
    _exit(write(fds[1], &result, sizeof result) == sizeof result ? 0 : 1);
  }
  close(fds[1]);
  if (pid < 0) {
    close(fds[0]);
    return {};
  }
  return {pid, fds[0]};
}

/// Waits for @p child and forgets it; ran stays false unless the child
/// finished its leg and exited 0.
LegResult collect(Child& child) {
  LegResult result;
  if (child.pid < 0) {
    return result;
  }
  if (read(child.fd, &result, sizeof result) != sizeof result) {
    result = {};
  }
  close(child.fd);
  int status = 0;
  if (waitpid(child.pid, &status, 0) != child.pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    result.ran = false;
  }
  child = {};
  return result;
}

/// Records in @p out where each pair (runs[2i], runs[2i + 1]) first
/// differs, under labels[i]: a diverging log or verdict dump runs to
/// megabytes.
void record_differences(LegResult& out,
                        std::vector<std::future<std::string>>& runs,
                        const std::vector<std::string>& labels) {
  std::string failures;
  for (std::size_t r = 0; r < runs.size(); r += 2) {
    const auto a = runs[r].get();
    const auto b = runs[r + 1].get();
    if (a == b) {
      continue;
    }
    const auto at = static_cast<std::size_t>(
        std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
        a.begin());
    const std::size_t from = at < 80 ? 0 : at - 80;
    failures += labels[r / 2] + ": first difference at byte " +
                std::to_string(at) + ":\n" + a.substr(from, 160) +
                "\n---\n" + b.substr(from, 160) + "\n";
  }
  failures.copy(out.failure, sizeof out.failure - 1);
}

// ---- bounded memory: the legs ----------------------------------------------

constexpr std::uint64_t kSweepRuns = 100000;

/// 100,000 seeds of one 8x4 memory at 2 %.
core::SweepSpec service_sweep() {
  SramConfig config;
  config.name = "cell";
  config.words = 8;
  config.bits = 4;
  config.spare_rows = 2;
  core::SweepSpec sweep;
  sweep.base = core::SessionSpec::builder().add_sram(config).defect_rate(0.02);
  for (std::uint64_t seed = 1; seed <= kSweepRuns; ++seed) {
    sweep.seeds.push_back(seed);
  }
  return sweep;
}

/// SweepCursor + run_stream keeps O(workers) specs and Reports in flight.
void stream_leg(LegResult& out) {
  auto cursor = core::SweepCursor::create(service_sweep());
  if (cursor) {
    const core::DiagnosisEngine engine({.workers = 4});
    out.value = engine.run_stream([&] { return cursor.value().next(); })
                    .aggregate.folded.count;
  }
}

/// expand() + run_batch materializes every spec and retains every Report.
void batch_leg(LegResult& out) {
  const auto specs = service_sweep().expand();
  if (specs) {
    const core::DiagnosisEngine engine({.workers = 4});
    out.value = engine.run_batch(specs.value()).folded.count;
  }
}

/// The wrapped fleet SoC at 1 % + DRFs, classified cold (empty cache).
void fleet_leg(LegResult& out) {
  auto soc = inject(fleet_configs(/*spare_rows=*/2), 0.01, 20260731);
  bisd::FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  const auto syndromes =
      diagnosis::extract_syndromes(result.log, soc.memory_count());
  diagnosis::ClassifierCache cache;
  (void)diagnosis::classify_soc(soc, syndromes,
                                scheme.test_for_width(soc.max_bits()), {},
                                &cache);
  out.value = cache.stats().dictionary_keys;
}

// ---- default kernel against per_cell: the check ----------------------------

/// The cycle count, SRAM reads + writes + NWRC writes summed over
/// memories, and the diagnosis log of one fast-scheme run.
std::string diagnose_fleet(double defect_rate, sram::AccessKernel kernel) {
  auto soc = inject(fleet_configs(/*spare_rows=*/4), defect_rate, 20260730);
  soc.set_access_kernel(kernel);
  const auto result = bisd::FastScheme().diagnose(soc);
  std::uint64_t ops = 0;
  for (std::size_t i = 0; i < soc.memory_count(); ++i) {
    const auto& counters = soc.memory(i).counters();
    ops += counters.reads + counters.writes + counters.nwrc_writes;
  }
  return "cycles=" + std::to_string(result.time.cycles) +
         " ops=" + std::to_string(ops) + "\n" + result.log.to_csv();
}

/// Fault-free and at 1 %, the default kernel against per_cell; the four
/// diagnoses run at once.
void check_kernels(LegResult& out) {
  std::vector<std::future<std::string>> runs;
  for (const double rate : {0.0, 0.01}) {
    for (const auto kernel : {sram::AccessKernel::word_parallel,
                              sram::AccessKernel::per_cell}) {
      runs.push_back(
          std::async(std::launch::async, diagnose_fleet, rate, kernel));
    }
  }
  record_differences(out, runs, {"fault-free", "1 % defects"});
}

// ---- instance_sliced dictionaries against per_candidate: the check ---------

/// classify_soc's verdicts under @p mode, cold and then warm over one cache.
std::string verdicts(const std::vector<SramConfig>& configs,
                     double defect_rate, DictionaryBuildMode mode) {
  auto soc = inject(configs, defect_rate, 20260731);
  bisd::FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  const auto syndromes =
      diagnosis::extract_syndromes(result.log, soc.memory_count());
  const auto test = scheme.test_for_width(soc.max_bits());
  diagnosis::ClassifierOptions options;
  options.build_mode = mode;
  diagnosis::ClassifierCache cache;
  std::string out;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& memory :
         diagnosis::classify_soc(soc, syndromes, test, options, &cache)
             .memories) {
      out += memory.to_string();
    }
  }
  return out;
}

/// Both build modes, on a wrap-free 64-memory SoC at 1 % and on a small
/// wrapped one at 3 % whose 48- and 40-word memories wrap the sweep with a
/// remainder and the 32-word one evenly.
void check_dictionaries(LegResult& out) {
  const std::pair<std::vector<SramConfig>, double> socs[] = {
      {shapes(16, 32, {{64, 18}, {64, 40}, {64, 24}, {64, 72}}), 0.01},
      {shapes(2, 16, {{64, 8}, {48, 8}, {40, 6}, {32, 8}}), 0.03}};
  std::vector<std::future<std::string>> runs;
  for (const auto& [configs, rate] : socs) {
    for (const auto mode : {DictionaryBuildMode::per_candidate,
                            DictionaryBuildMode::instance_sliced}) {
      runs.push_back(std::async(std::launch::async, verdicts,
                                std::cref(configs), rate, mode));
    }
  }
  record_differences(out, runs, {"64 memories", "8 memories"});
}

// ---- the suite --------------------------------------------------------------

class OperatingPoint : public ::testing::Test {
 protected:
  // Every leg forks when the suite starts, so all four gates share the
  // cores (their legs add up to ~4x the longest one); each test collects
  // its own legs.
  static void SetUpTestSuite() {
    stream_ = spawn(stream_leg);
    batch_ = spawn(batch_leg);
    fleet_ = spawn(fleet_leg);
    kernels_ = spawn(check_kernels);
    dictionaries_ = spawn(check_dictionaries);
  }

  // Reaps the legs of tests a filter left out.
  static void TearDownTestSuite() {
    for (Child* child :
         {&stream_, &batch_, &fleet_, &kernels_, &dictionaries_}) {
      (void)collect(*child);
    }
  }

  static void expect_clean(Child& child) {
    const LegResult result = collect(child);
    EXPECT_TRUE(result.ran);
    EXPECT_STREQ(result.failure, "");
  }

  static Child stream_, batch_, fleet_, kernels_, dictionaries_;
};

Child OperatingPoint::stream_;
Child OperatingPoint::batch_;
Child OperatingPoint::fleet_;
Child OperatingPoint::kernels_;
Child OperatingPoint::dictionaries_;

TEST_F(OperatingPoint, StreamingSweepPeaksFarBelowARetainingBatch) {
  // 100,000 seeds of one 8x4 memory at 2 %, 4 workers, each leg in its own
  // child (which builds its own engine: pool threads do not survive fork()).
  const LegResult streamed = collect(stream_);
  const LegResult batched = collect(batch_);
  ASSERT_TRUE(streamed.ran && batched.ran);
  std::printf("peak RSS: streaming %ld KiB, batch %ld KiB\n",
              streamed.peak_kb, batched.peak_kb);
  EXPECT_EQ(streamed.value, kSweepRuns);
  EXPECT_EQ(batched.value, kSweepRuns);
  EXPECT_GT(batched.peak_kb, 2 * streamed.peak_kb);
  // The ratio alone misses a stream that retains its Reports (~200 MB
  // here, still under half the batch's specs plus Reports); O(workers) in
  // flight means a few MB.
  EXPECT_LT(streamed.peak_kb - streamed.base_kb, 64 * 1024);
}

TEST_F(OperatingPoint, FleetSocClassifiesColdUnderItsMemoryBounds) {
  const LegResult leg = collect(fleet_);
  ASSERT_TRUE(leg.ran);
  // Per shape: 3 sweep-edge positions x bits and one row slot when it
  // spans the 256-step sweep; at most 10 row classes, each keying bits
  // cells and one row, when it wraps.
  const auto configs = fleet_configs(/*spare_rows=*/2);
  std::uint64_t key_bound = 0;
  for (std::size_t i = 0; i < configs.size(); i += 16) {
    const std::uint64_t bits = configs[i].bits;
    key_bound += configs[i].words < 256 ? 10 * (bits + 1) : 3 * bits + 1;
  }
  const double growth_mb = static_cast<double>(leg.peak_kb - leg.base_kb) /
                           1024.0;
  std::printf("fleet classification: %.1f MB peak RSS growth, "
              "%llu dictionary keys (bound %llu)\n",
              growth_mb, static_cast<unsigned long long>(leg.value),
              static_cast<unsigned long long>(key_bound));
  EXPECT_LT(growth_mb, 500.0);
  EXPECT_GT(leg.value, 0u);
  EXPECT_LE(leg.value, key_bound);
}

TEST_F(OperatingPoint, DefaultKernelDiagnosesLikePerCell) {
  expect_clean(kernels_);
}

TEST_F(OperatingPoint, SlicedDictionariesClassifyLikePerCandidate) {
  expect_clean(dictionaries_);
}

}  // namespace
}  // namespace fastdiag
