// Differential tests for the word-parallel simulation kernel.
//
// The word_parallel access kernel (packed CellArray arena, word-level
// FaultBehavior hooks, batched SPC/PSC shifting) must be observably
// indistinguishable from the per_cell reference kernel — mismatch for
// mismatch, op for op, cycle for cycle — across randomized geometries
// (including words wider than one 64-bit limb) and defect mixes (stuck-at,
// transition, stuck-open, DRF/NWRTM, intra- and inter-word coupling,
// address faults).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/fastdiag.h"

namespace fastdiag {
namespace {

using faults::FaultInstance;
using faults::FaultKind;
using sram::AccessKernel;
using sram::CellCoord;
using sram::SramConfig;

SramConfig cfg(const std::string& name, std::uint32_t words,
               std::uint32_t bits) {
  SramConfig config;
  config.name = name;
  config.words = words;
  config.bits = bits;
  config.spare_rows = 4;
  return config;
}

CellCoord random_cell(const SramConfig& config, Rng& rng) {
  return {static_cast<std::uint32_t>(rng.uniform(config.words)),
          static_cast<std::uint32_t>(rng.uniform(config.bits))};
}

/// A defect mix covering every fault family the engine models, including
/// the kinds with time- and latch-dependent semantics (DRF, SOF).
std::vector<FaultInstance> random_fault_mix(const SramConfig& config,
                                            std::size_t count, Rng& rng) {
  std::vector<FaultInstance> out;
  static const FaultKind cell_kinds[] = {
      FaultKind::sa0,  FaultKind::sa1,  FaultKind::tf_up,
      FaultKind::tf_down, FaultKind::sof, FaultKind::drf0, FaultKind::drf1,
  };
  static const FaultKind coupling_kinds[] = {
      FaultKind::cf_in_up,    FaultKind::cf_in_down, FaultKind::cf_id_up0,
      FaultKind::cf_id_up1,   FaultKind::cf_id_down0,
      FaultKind::cf_id_down1, FaultKind::cf_st_00,   FaultKind::cf_st_01,
      FaultKind::cf_st_10,    FaultKind::cf_st_11,
  };
  for (std::size_t i = 0; i < count; ++i) {
    switch (rng.uniform(3)) {
      case 0:
        out.push_back(faults::make_cell_fault(
            cell_kinds[rng.uniform(std::size(cell_kinds))],
            random_cell(config, rng)));
        break;
      case 1: {
        const auto aggressor = random_cell(config, rng);
        auto victim = random_cell(config, rng);
        if (rng.bernoulli(0.5)) {
          victim.row = aggressor.row;  // force the intra-word bracketing path
        }
        if (victim == aggressor) {
          victim.bit = (victim.bit + 1) % config.bits;
          if (victim == aggressor) {
            victim.row = (victim.row + 1) % config.words;
          }
        }
        out.push_back(faults::make_coupling_fault(
            coupling_kinds[rng.uniform(std::size(coupling_kinds))], aggressor,
            victim));
        break;
      }
      default: {
        const auto addr =
            static_cast<std::uint32_t>(rng.uniform(config.words));
        if (config.words < 2 || rng.bernoulli(0.34)) {
          out.push_back(
              faults::make_address_fault(FaultKind::af_no_access, addr));
          break;
        }
        std::uint32_t other =
            static_cast<std::uint32_t>(rng.uniform(config.words - 1));
        if (other >= addr) {
          ++other;
        }
        out.push_back(faults::make_address_fault(
            rng.bernoulli(0.5) ? FaultKind::af_wrong_row
                               : FaultKind::af_extra_row,
            addr, other));
        break;
      }
    }
  }
  return out;
}

march::RunResult run_march(const SramConfig& config,
                           const std::vector<FaultInstance>& truth,
                           const march::MarchTest& test,
                           AccessKernel kernel) {
  sram::Sram memory(config, std::make_unique<faults::FaultSet>(truth));
  memory.set_access_kernel(kernel);
  auto result = march::MarchRunner().run(memory, test);
  return result;
}

void expect_identical(const march::RunResult& fast,
                      const march::RunResult& reference,
                      const std::string& label) {
  EXPECT_EQ(fast.ops, reference.ops) << label;
  EXPECT_EQ(fast.elapsed_ns, reference.elapsed_ns) << label;
  ASSERT_EQ(fast.mismatches.size(), reference.mismatches.size()) << label;
  for (std::size_t m = 0; m < fast.mismatches.size(); ++m) {
    EXPECT_TRUE(fast.mismatches[m] == reference.mismatches[m])
        << label << " mismatch #" << m;
  }
}

// ---- MarchRunner: word kernel vs. per-cell reference ----------------------

TEST(KernelDifferential, RandomGeometriesAndDefectMixes) {
  Rng rng(2026);
  for (int trial = 0; trial < 30; ++trial) {
    // Widths straddle the 64-bit limb boundary on purpose.
    const auto words = static_cast<std::uint32_t>(rng.uniform_in(2, 40));
    const auto bits = static_cast<std::uint32_t>(rng.uniform_in(2, 100));
    const auto config =
        cfg("t" + std::to_string(trial), words, bits);
    const auto truth =
        random_fault_mix(config, rng.uniform_in(0, 8), rng);
    const auto test = march::march_cw(bits);

    const auto fast = run_march(config, truth, test, AccessKernel::word_parallel);
    const auto reference = run_march(config, truth, test, AccessKernel::per_cell);
    expect_identical(fast, reference, "trial " + std::to_string(trial));
  }
}

TEST(KernelDifferential, DrfUnderNwrtm) {
  // DRF semantics couple the kernel to the simulated clock and to NWRC
  // write style; the packed path must never touch either.
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const auto config = cfg("drf" + std::to_string(trial), 16, 72);
    std::vector<FaultInstance> truth;
    for (int f = 0; f < 4; ++f) {
      truth.push_back(faults::make_cell_fault(
          rng.bernoulli(0.5) ? FaultKind::drf0 : FaultKind::drf1,
          random_cell(config, rng)));
    }
    const auto test = march::march_cw_nwrtm(config.bits);
    const auto fast = run_march(config, truth, test, AccessKernel::word_parallel);
    const auto reference = run_march(config, truth, test, AccessKernel::per_cell);
    expect_identical(fast, reference, "drf trial " + std::to_string(trial));
    EXPECT_TRUE(fast.detected()) << "NWRTM must expose the injected DRFs";
  }
}

TEST(KernelDifferential, IntraWordCouplingBracketing) {
  // Aggressor and victim inside one word: the word-write pulse must fire
  // the disturb after every write driver released, on both kernels.
  const auto config = cfg("couple", 8, 70);
  for (const auto kind :
       {FaultKind::cf_in_up, FaultKind::cf_id_down1, FaultKind::cf_st_01}) {
    std::vector<FaultInstance> truth{
        faults::make_coupling_fault(kind, {3, 65}, {3, 2}),
        faults::make_coupling_fault(kind, {3, 1}, {3, 68}),
    };
    const auto test = march::march_cw(config.bits);
    const auto fast = run_march(config, truth, test, AccessKernel::word_parallel);
    const auto reference = run_march(config, truth, test, AccessKernel::per_cell);
    expect_identical(fast, reference,
                     std::string(faults::fault_kind_name(kind)));
  }
}

// ---- FastScheme / BaselineScheme: SPC-PSC plumbing ------------------------

bisd::SocUnderTest make_soc(std::uint64_t seed, double rate,
                            AccessKernel kernel, bool idle_mode = true) {
  std::vector<SramConfig> configs;
  for (int i = 0; i < 3; ++i) {
    auto config = cfg("m" + std::to_string(i), 12 + 4 * i, 20 + 25 * i);
    config.has_idle_mode = idle_mode;
    configs.push_back(config);
  }
  faults::InjectionSpec spec;
  spec.cell_defect_rate = rate;
  spec.include_retention = true;
  auto soc = bisd::SocUnderTest::from_injection(configs, spec, seed);
  soc.set_access_kernel(kernel);
  return soc;
}

TEST(KernelDifferential, FastSchemeBatchedSerializationMatchesReference) {
  for (const std::uint64_t seed : {1ull, 9ull, 42ull}) {
    auto fast_soc = make_soc(seed, 0.02, AccessKernel::word_parallel);
    auto ref_soc = make_soc(seed, 0.02, AccessKernel::per_cell);
    bisd::FastScheme fast_scheme;
    bisd::FastScheme ref_scheme;
    const auto fast = fast_scheme.diagnose(fast_soc);
    const auto reference = ref_scheme.diagnose(ref_soc);
    EXPECT_EQ(fast.time.cycles, reference.time.cycles) << "seed " << seed;
    EXPECT_EQ(fast.log.to_csv(), reference.log.to_csv()) << "seed " << seed;
  }
}

TEST(KernelDifferential, FastSchemeWithoutIdleModeMatchesReference) {
  // Memories without an idle mode are read with data ignored on every
  // shift clock of the serialization loop (Sec. 3.3).
  auto fast_soc = make_soc(5, 0.02, AccessKernel::word_parallel,
                           /*idle_mode=*/false);
  auto ref_soc = make_soc(5, 0.02, AccessKernel::per_cell,
                          /*idle_mode=*/false);
  bisd::FastScheme fast_scheme;
  bisd::FastScheme ref_scheme;
  const auto fast = fast_scheme.diagnose(fast_soc);
  const auto reference = ref_scheme.diagnose(ref_soc);
  EXPECT_EQ(fast.time.cycles, reference.time.cycles);
  EXPECT_EQ(fast.log.to_csv(), reference.log.to_csv());
}

TEST(KernelDifferential, BaselineSchemeMatchesReference) {
  auto fast_soc = make_soc(3, 0.02, AccessKernel::word_parallel);
  auto ref_soc = make_soc(3, 0.02, AccessKernel::per_cell);
  bisd::BaselineScheme fast_scheme;
  bisd::BaselineScheme ref_scheme;
  const auto fast = fast_scheme.diagnose(fast_soc);
  const auto reference = ref_scheme.diagnose(ref_soc);
  EXPECT_EQ(fast.time.cycles, reference.time.cycles);
  EXPECT_EQ(fast.iterations, reference.iterations);
  EXPECT_EQ(fast.log.to_csv(), reference.log.to_csv());
}

// ---- DiagnosisEngine: spec-level kernel selection -------------------------

TEST(KernelDifferential, EngineReportsBitIdenticalAcrossKernels) {
  const auto make_spec = [](AccessKernel kernel) {
    return core::SessionSpec::builder()
        .add_sram(cfg("e0", 24, 33))
        .add_sram(cfg("e1", 16, 80))
        .defect_rate(0.02)
        .seed(11)
        .access_kernel(kernel)
        .build();
  };
  auto fast_spec = make_spec(AccessKernel::word_parallel);
  auto ref_spec = make_spec(AccessKernel::per_cell);
  ASSERT_TRUE(fast_spec.has_value());
  ASSERT_TRUE(ref_spec.has_value());

  const core::DiagnosisEngine engine({.workers = 1});
  const auto fast = engine.run_batch({fast_spec.value()});
  const auto reference = engine.run_batch({ref_spec.value()});
  ASSERT_EQ(fast.run_count(), 1u);
  ASSERT_EQ(reference.run_count(), 1u);
  EXPECT_EQ(fast.runs[0].result.log.to_csv(),
            reference.runs[0].result.log.to_csv());
  EXPECT_EQ(fast.runs[0].result.time.cycles,
            reference.runs[0].result.time.cycles);
  EXPECT_EQ(fast.runs[0].injected_faults, reference.runs[0].injected_faults);
}

// ---- packed arena raw view ------------------------------------------------

TEST(KernelDifferential, RowWordsViewMatchesPerCellReads) {
  // row_words()/words_per_row() expose the packed limb run of one row —
  // the zero-copy view word-level consumers build on.  It must agree with
  // per-cell get() and keep the padding limb bits above bits() zero.
  Rng rng(55);
  for (const std::uint32_t bits : {7u, 64u, 65u, 100u}) {
    sram::CellArray cells(9, bits);
    for (int writes = 0; writes < 200; ++writes) {
      cells.set(random_cell(cfg("view", 9, bits), rng), rng.bernoulli(0.5));
    }
    ASSERT_EQ(cells.words_per_row(), (bits + 63) / 64);
    for (std::uint32_t row = 0; row < cells.rows(); ++row) {
      const std::uint64_t* words = cells.row_words(row);
      for (std::uint32_t bit = 0; bit < bits; ++bit) {
        EXPECT_EQ(((words[bit / 64] >> (bit % 64)) & 1u) != 0,
                  cells.get({row, bit}))
            << "row " << row << " bit " << bit;
      }
      const std::uint32_t used = bits % 64;
      if (used != 0) {
        EXPECT_EQ(words[cells.words_per_row() - 1] >> used, 0u)
            << "padding bits above bits() must stay zero";
      }
    }
  }
}

// ---- batched serial converters vs. per-bit reference ----------------------

TEST(KernelDifferential, PscShiftOutWordMatchesPerBitShifts) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const auto width = static_cast<std::size_t>(rng.uniform_in(1, 100));
    BitVector response(width);
    for (std::size_t j = 0; j < width; ++j) {
      response.set(j, rng.bernoulli(0.5));
    }
    serial::ParallelToSerialConverter batched(width);
    serial::ParallelToSerialConverter bitwise(width);
    batched.capture(response);
    bitwise.capture(response);

    std::size_t drained = 0;
    const std::size_t total = width + 7;  // over-drain into the zero fill
    while (drained < total) {
      const auto batch =
          static_cast<std::size_t>(rng.uniform_in(1, 64));
      const auto take = batch < total - drained ? batch : total - drained;
      const std::uint64_t got = batched.shift_out_word(take);
      for (std::size_t t = 0; t < take; ++t) {
        EXPECT_EQ(((got >> t) & 1u) != 0, bitwise.shift_out())
            << "trial " << trial << " clock " << drained + t;
      }
      drained += take;
    }
    EXPECT_EQ(batched.shift_clocks(), bitwise.shift_clocks());
    EXPECT_EQ(batched.remaining(), bitwise.remaining());
  }
}

TEST(KernelDifferential, SpcWordDeliveryMatchesPerBitShifts) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    const auto wide = static_cast<std::size_t>(rng.uniform_in(2, 100));
    const auto narrow = static_cast<std::size_t>(rng.uniform_in(1, wide));
    BitVector pattern(wide);
    for (std::size_t j = 0; j < wide; ++j) {
      pattern.set(j, rng.bernoulli(0.5));
    }
    serial::SerialToParallelConverter word_path(narrow);
    serial::SerialToParallelConverter bit_path(narrow);
    (void)word_path.deliver(pattern);
    for (std::size_t i = pattern.width(); i-- > 0;) {
      bit_path.shift_in(pattern.get(i));  // MSB first
    }
    EXPECT_EQ(word_path.parallel_out(), bit_path.parallel_out())
        << "trial " << trial;
    EXPECT_EQ(word_path.clocks(), bit_path.clocks()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace fastdiag
