// Differential tests for the instance-sliced execution paths and the limb
// kernels under them.
//
// Group executors (FastScheme over slice_groups, the dictionary-build probe
// slabs of MarchRunner::run_group_per_cell) advance up to 64
// identical-geometry memories as bit-lanes of one packed InstanceSlab, with
// each lane's fault sites overlaid (faults::OverlaySlab).  They must be
// observably indistinguishable from their references — the per_cell kernel,
// or each probe lane's own FaultSet memory — record for record, cycle
// for cycle, counter for counter — for every group size around the 64-lane
// boundary, for wrap emulation and for the full defect corpus on faulty
// lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fastdiag.h"
#include "faults/overlay_slab.h"

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

/// The full defect corpus of the kernel differential suite: cell, coupling
/// and address fault families, including the time- and latch-dependent kinds.
std::vector<FaultInstance> random_fault_mix(const SramConfig& config,
                                            std::size_t count, Rng& rng) {
  std::vector<FaultInstance> out;
  static const FaultKind cell_kinds[] = {
      FaultKind::sa0,     FaultKind::sa1, FaultKind::tf_up,
      FaultKind::tf_down, FaultKind::sof, FaultKind::drf0,
      FaultKind::drf1,
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
          victim.row = aggressor.row;
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

// ---- limb kernels -----------------------------------------------------------

TEST(SimdDispatch, KernelsMatchScalarReference) {
  Rng rng(404);
  for (const std::size_t n : {0ull, 1ull, 3ull, 4ull, 7ull, 8ull, 64ull,
                              130ull}) {
    std::vector<std::uint64_t> a(n), b(n), mask(n), fallback(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.next_u64();
      b[i] = rng.next_u64();
      mask[i] = rng.next_u64();
      fallback[i] = rng.next_u64();
    }
    // Plain-loop references, computed once.
    std::vector<std::uint64_t> xor_ref = a;
    std::vector<std::uint64_t> blend_ref = a;
    std::uint64_t diff_ref = 0;
    for (std::size_t i = 0; i < n; ++i) {
      xor_ref[i] ^= b[i];
      blend_ref[i] = (a[i] & mask[i]) | (fallback[i] & ~mask[i]);
      diff_ref |= a[i] ^ b[i];
    }
    const std::uint64_t lane_mask = rng.next_u64();
    const std::string label = "n=" + std::to_string(n);

    std::vector<std::uint64_t> out(n, 0);
    simd::copy_limbs(out.data(), a.data(), n);
    EXPECT_EQ(out, a) << "copy " << label;

    out = a;
    simd::xor_limbs(out.data(), b.data(), n);
    EXPECT_EQ(out, xor_ref) << "xor " << label;

    EXPECT_EQ(simd::diff_or(a.data(), b.data(), n), diff_ref)
        << "diff_or " << label;
    EXPECT_EQ(simd::diff_or(a.data(), a.data(), n), 0u)
        << "diff_or self " << label;

    out = a;
    simd::blend_limbs(out.data(), mask.data(), fallback.data(), n);
    EXPECT_EQ(out, blend_ref) << "blend " << label;

    EXPECT_EQ(simd::lane_diff_or(a.data(), b.data(), lane_mask, n),
              diff_ref & lane_mask)
        << "lane_diff_or " << label;

    // diff_column_mask: per-limb (not folded) disagreement flags for a
    // chunk of <= 64 columns.
    const std::size_t chunk = std::min<std::size_t>(n, 64);
    std::uint64_t cols_ref = 0;
    for (std::size_t i = 0; i < chunk; ++i) {
      if (((a[i] ^ b[i]) & lane_mask) != 0) {
        cols_ref |= std::uint64_t{1} << i;
      }
    }
    EXPECT_EQ(simd::diff_column_mask(a.data(), b.data(), lane_mask, chunk),
              cols_ref)
        << "diff_column_mask " << label;
    EXPECT_EQ(simd::diff_column_mask(a.data(), a.data(), lane_mask, chunk), 0u)
        << "diff_column_mask self " << label;
  }
}

TEST(SimdDispatch, ExpandBitsMatchesScalarReference) {
  Rng rng(405);
  for (const std::size_t n_bits : {1ull, 21ull, 63ull, 64ull, 65ull, 100ull,
                                   130ull}) {
    std::vector<std::uint64_t> packed((n_bits + 63) / 64);
    for (auto& limb : packed) {
      limb = rng.next_u64();
    }
    std::vector<std::uint64_t> reference(n_bits);
    for (std::size_t j = 0; j < n_bits; ++j) {
      reference[j] =
          ((packed[j >> 6] >> (j & 63)) & 1u) != 0 ? ~std::uint64_t{0} : 0;
    }
    std::vector<std::uint64_t> masks(n_bits, 0x5555);
    simd::expand_bits(packed.data(), masks.data(), n_bits);
    EXPECT_EQ(masks, reference) << "n_bits=" << n_bits;
  }
}

TEST(SimdDispatch, TransposeMatchesNaiveAndIsAnInvolution) {
  Rng rng(406);
  std::uint64_t a[64];
  for (auto& row : a) {
    row = rng.next_u64();
  }
  std::uint64_t original[64];
  std::uint64_t naive[64] = {};
  for (int r = 0; r < 64; ++r) {
    original[r] = a[r];
    for (int c = 0; c < 64; ++c) {
      if ((a[r] >> c) & 1u) {
        naive[c] |= std::uint64_t{1} << r;
      }
    }
  }
  simd::transpose_64x64(a);
  for (int r = 0; r < 64; ++r) {
    EXPECT_EQ(a[r], naive[r]) << "row " << r;
  }
  simd::transpose_64x64(a);
  for (int r = 0; r < 64; ++r) {
    EXPECT_EQ(a[r], original[r]) << "involution row " << r;
  }
}

// ---- InstanceSlab ----------------------------------------------------------

TEST(InstanceSlab, GatherScatterRoundTripAndColumnDemux) {
  Rng rng(500);
  for (const std::size_t lane_count : {1ull, 5ull, 64ull}) {
    const auto config = cfg("slab", 6, 70);
    std::vector<std::unique_ptr<sram::Sram>> memories;
    std::vector<sram::Sram*> lanes;
    for (std::size_t k = 0; k < lane_count; ++k) {
      memories.push_back(std::make_unique<sram::Sram>(config));
      for (int pokes = 0; pokes < 40; ++pokes) {
        memories.back()->poke(random_cell(config, rng), rng.bernoulli(0.5));
      }
      lanes.push_back(memories.back().get());
    }
    sram::InstanceSlab slab(lanes);
    slab.gather();
    // column(row, bit) demuxes exactly lane k's cell (row, bit).
    for (std::uint32_t row = 0; row < config.words; ++row) {
      for (std::uint32_t bit = 0; bit < config.bits; ++bit) {
        const std::uint64_t column = slab.column(row, bit);
        for (std::size_t k = 0; k < lane_count; ++k) {
          EXPECT_EQ(((column >> k) & 1u) != 0, memories[k]->peek({row, bit}))
              << "lane " << k << " row " << row << " bit " << bit;
        }
        EXPECT_EQ(column & ~slab.lane_mask(), 0u)
            << "unregistered lane bits must stay zero";
      }
    }
    // scatter() restores every lane bit for bit.
    std::vector<std::string> before;
    for (const auto& memory : memories) {
      before.push_back(memory->read(0).to_string());
    }
    slab.scatter();
    for (std::size_t k = 0; k < lane_count; ++k) {
      EXPECT_EQ(memories[k]->read(0).to_string(), before[k]);
      for (std::uint32_t row = 0; row < config.words; ++row) {
        for (std::uint32_t bit = 0; bit < config.bits; ++bit) {
          const std::uint64_t column = slab.column(row, bit);
          EXPECT_EQ(memories[k]->peek({row, bit}), ((column >> k) & 1u) != 0);
        }
      }
    }
  }
}

TEST(OverlaySlab, WriteReadAndCompareColumns) {
  const auto config = cfg("wr", 4, 66);
  std::vector<std::unique_ptr<sram::Sram>> memories;
  std::vector<sram::Sram*> lanes;
  for (std::size_t k = 0; k < 3; ++k) {
    memories.push_back(std::make_unique<sram::Sram>(config));
    lanes.push_back(memories.back().get());
  }
  faults::OverlaySlab slab(lanes);

  BitVector word(config.bits);
  word.set(0, true);
  word.set(65, true);
  std::vector<std::uint64_t> bcast(config.bits);
  simd::expand_bits(word.word_data(), bcast.data(), config.bits);
  slab.write(2, bcast.data(), sram::WriteStyle::normal, 10);
  slab.read(2, 20);
  EXPECT_EQ(slab.compare(bcast.data(), 0, config.bits), 0u);

  // Flip exactly lane 1's bit 65 in the expectation.
  std::vector<std::uint64_t> expect = bcast;
  expect[65] ^= std::uint64_t{1} << 1;
  EXPECT_EQ(slab.compare(expect.data(), 0, config.bits), std::uint64_t{1} << 1);
  EXPECT_EQ(slab.compare(expect.data(), 0, 65), 0u)
      << "mismatch outside the compared column range must not register";
  EXPECT_EQ(slab.mismatch_columns(expect.data(), 64),
            std::uint64_t{1} << (65 - 64));
  EXPECT_EQ(slab.mismatch_columns(expect.data(), 0), 0u);
  slab.scatter();
  EXPECT_TRUE(memories[0]->peek({2, 0}));
  EXPECT_TRUE(memories[1]->peek({2, 65}));
  EXPECT_FALSE(memories[2]->peek({2, 33}));
}

TEST(InstanceSlab, RejectsRepairedAndMismatchedLanes) {
  const auto config = cfg("bad", 4, 9);
  sram::Sram clean(config);
  sram::Sram faulty(config,
                    std::make_unique<faults::FaultSet>(
                        std::vector<FaultInstance>{faults::make_cell_fault(
                            FaultKind::sa0, CellCoord{1, 2})}));
  // Faulty lanes ride the slab; their sites are overlaid per lane.
  EXPECT_TRUE(faults::OverlaySlab::lane_capable(faulty));
  EXPECT_NO_THROW(faults::OverlaySlab({&clean, &faulty}));
  sram::Sram repaired(config);
  repaired.repair_row(1, 0);
  EXPECT_FALSE(faults::OverlaySlab::lane_capable(repaired));
  EXPECT_THROW(sram::InstanceSlab({&clean, &repaired}), std::exception);
  sram::Sram other(cfg("other", 4, 10));
  EXPECT_THROW(sram::InstanceSlab({&clean, &other}), std::exception);
  EXPECT_THROW(sram::InstanceSlab(std::vector<sram::Sram*>{}),
               std::exception);
}

// ---- MarchRunner::run_group_per_cell vs per-probe run_per_cell -------------

/// Deterministic candidate list for probe lane @p i against @p config:
/// cycles through every packable fault kind, alternates same-word and
/// distinct-row aggressors, and gives every third lane a second disjoint
/// candidate.  Geometry must have >= 4 words and >= 5 bits so the cells
/// stay pairwise disjoint (the probe packing contract).
std::vector<FaultInstance> probe_lane_candidates(std::size_t i,
                                                 const SramConfig& config) {
  static const FaultKind kinds[] = {
      FaultKind::sa0,        FaultKind::sa1,        FaultKind::tf_up,
      FaultKind::tf_down,    FaultKind::sof,        FaultKind::drf0,
      FaultKind::drf1,       FaultKind::cf_in_up,   FaultKind::cf_in_down,
      FaultKind::cf_id_up0,  FaultKind::cf_id_up1,  FaultKind::cf_id_down0,
      FaultKind::cf_id_down1, FaultKind::cf_st_00,  FaultKind::cf_st_01,
      FaultKind::cf_st_10,   FaultKind::cf_st_11,
  };
  const auto make = [&](std::size_t kind_index, std::uint32_t row,
                        std::uint32_t bit, bool same_row) {
    const auto kind = kinds[kind_index % std::size(kinds)];
    const CellCoord victim{row % config.words, bit % config.bits};
    if (!faults::needs_aggressor(kind)) {
      return faults::make_cell_fault(kind, victim);
    }
    const CellCoord aggressor{
        same_row ? victim.row : (victim.row + 1) % config.words,
        (victim.bit + 1) % config.bits};
    return faults::make_coupling_fault(kind, aggressor, victim);
  };
  std::vector<FaultInstance> lane;
  const auto row = static_cast<std::uint32_t>(i);
  const auto bit = static_cast<std::uint32_t>(i * 3);
  lane.push_back(make(i, row, bit, i % 2 == 0));
  if (i % 3 == 0) {
    lane.push_back(make(i + 7, row + 2, bit + 3, i % 2 == 1));
  }
  return lane;
}

TEST(RunGroupPerCell, MatchesPerProbeRunAcrossSizes) {
  auto probe_config = cfg("probe", 5, 7);
  probe_config.spare_rows = 0;
  const auto test = march::march_cw_nwrtm(probe_config.bits);
  const march::MarchRunner runner;

  for (const std::size_t count : {1ull, 5ull, 63ull, 64ull, 65ull}) {
    std::vector<std::vector<FaultInstance>> lanes;
    for (std::size_t i = 0; i < count; ++i) {
      lanes.push_back(probe_lane_candidates(i, probe_config));
    }
    // The reference: each lane's candidates in a plain FaultSet memory,
    // replayed one at a time on its own port.
    std::vector<std::map<CellCoord, std::vector<march::ReadEvent>>> expected;
    for (const auto& lane : lanes) {
      sram::Sram memory(probe_config,
                        std::make_unique<faults::FaultSet>(lane));
      expected.push_back(runner.run_per_cell(memory, test));
    }
    const auto results = runner.run_group_per_cell(probe_config, lanes, test);
    ASSERT_EQ(results.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(results[i] == expected[i])
          << "count=" << count << " lane " << i << " (" << results[i].size()
          << " vs " << expected[i].size() << " failing cells)";
    }
  }
}

TEST(RunGroupPerCell, WrapEmulationMatchesPerProbeRun) {
  auto probe_config = cfg("probe", 5, 7);
  probe_config.spare_rows = 0;
  const auto test = march::march_cw_nwrtm(probe_config.bits);
  const march::MarchRunner runner;
  // global_words above the capacity: revisit expectations come from the
  // golden shadow, exercising the wrap demux of the probe batches.
  const std::uint32_t sweep = 12;

  std::vector<std::vector<FaultInstance>> lanes;
  for (std::size_t i = 0; i < 21; ++i) {
    lanes.push_back(probe_lane_candidates(i, probe_config));
  }
  std::vector<std::map<CellCoord, std::vector<march::ReadEvent>>> expected;
  for (const auto& lane : lanes) {
    sram::Sram memory(probe_config, std::make_unique<faults::FaultSet>(lane));
    expected.push_back(runner.run_per_cell(memory, test, sweep));
  }
  const auto results =
      runner.run_group_per_cell(probe_config, lanes, test, sweep);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    EXPECT_TRUE(results[i] == expected[i]) << "lane " << i;
  }
}

// ---- FastScheme / engine: sliced groups vs the per_cell reference ---------

/// A SoC whose fleet mixes clean identical-geometry lanes, a few faulty
/// lanes of the same geometry (all of them slice), and one odd-geometry
/// memory that stays on its own port.
bisd::SocUnderTest make_sliced_soc(std::size_t clean_count,
                                   AccessKernel kernel, std::uint64_t seed,
                                   bool idle_everywhere = true,
                                   bool with_odd = true) {
  Rng rng(seed);
  bisd::SocUnderTest soc;
  for (std::size_t i = 0; i < clean_count; ++i) {
    auto config = cfg("lane" + std::to_string(i), 8, 21);
    std::vector<FaultInstance> truth;
    if (i % 7 == 3) {
      // Heterogeneous defect rates: some lanes carry 1..4 faults, the rest
      // are clean — both kinds share the slab.
      truth = random_fault_mix(config, 1 + rng.uniform(4), rng);
    }
    soc.add_memory(config, std::move(truth));
  }
  if (with_odd) {
    auto odd = cfg("odd", 12, 33);
    odd.has_idle_mode = idle_everywhere;
    soc.add_memory(odd, random_fault_mix(odd, 3, rng));
  }
  soc.set_access_kernel(kernel);
  return soc;
}

/// Expects two runs' results and their SoCs' memories to be identical.
void expect_runs_identical(bisd::SocUnderTest& sliced_soc,
                           bisd::SocUnderTest& ref_soc,
                           const bisd::DiagnosisResult& sliced,
                           const bisd::DiagnosisResult& reference,
                           const std::string& label) {
  EXPECT_EQ(sliced.time.cycles, reference.time.cycles) << label;
  EXPECT_EQ(sliced.log.to_csv(), reference.log.to_csv()) << label;
  ASSERT_EQ(sliced_soc.memory_count(), ref_soc.memory_count()) << label;
  for (std::size_t i = 0; i < sliced_soc.memory_count(); ++i) {
    auto& a = sliced_soc.memory(i);
    auto& b = ref_soc.memory(i);
    EXPECT_EQ(a.now_ns(), b.now_ns()) << label << " memory " << i;
    EXPECT_EQ(a.counters().reads, b.counters().reads)
        << label << " memory " << i;
    EXPECT_EQ(a.counters().writes, b.counters().writes)
        << label << " memory " << i;
    EXPECT_EQ(a.counters().nwrc_writes, b.counters().nwrc_writes)
        << label << " memory " << i;
    for (std::uint32_t row = 0; row < a.words(); ++row) {
      ASSERT_EQ(a.read(row), b.read(row))
          << label << " memory " << i << " row " << row;
    }
  }
}

void expect_scheme_identical(bisd::SocUnderTest& sliced_soc,
                             bisd::SocUnderTest& ref_soc,
                             const std::string& label) {
  bisd::FastScheme sliced_scheme;
  bisd::FastScheme ref_scheme;
  const auto sliced = sliced_scheme.diagnose(sliced_soc);
  const auto reference = ref_scheme.diagnose(ref_soc);
  expect_runs_identical(sliced_soc, ref_soc, sliced, reference, label);
}

TEST(InstanceSliced, FastSchemeMatchesPerCellAcrossGroupSizes) {
  for (const std::size_t count : {1ull, 2ull, 63ull, 64ull, 65ull}) {
    auto sliced_soc = make_sliced_soc(count, AccessKernel::word_parallel, 42);
    auto ref_soc = make_sliced_soc(count, AccessKernel::per_cell, 42);
    expect_scheme_identical(sliced_soc, ref_soc,
                            "count=" + std::to_string(count));
  }
}

struct MemoryState {
  std::uint64_t now_ns = 0;
  sram::OpCounters ops;
};

std::vector<MemoryState> memory_states(bisd::SocUnderTest& soc) {
  std::vector<MemoryState> states;
  for (std::size_t i = 0; i < soc.memory_count(); ++i) {
    states.push_back({soc.memory(i).now_ns(), soc.memory(i).counters()});
  }
  return states;
}

/// Checks one FastScheme run of @p test over @p soc against the Sec. 3.3
/// closed forms, from the memories' states @p before the run.  Every memory
/// follows the n_max-step sweep: R * n_max reads (R = reads per address),
/// plus c_max data-ignored reads per read op on a memory without idle mode
/// (one per shift clock), and the test's writes and NWRC writes per address
/// times n_max.  Every memory's clock advances by cycles * period plus the
/// test's pause time.
void expect_closed_forms(bisd::SocUnderTest& soc,
                         const std::vector<MemoryState>& before,
                         const march::MarchTest& test,
                         const bisd::DiagnosisResult& result,
                         const std::string& label) {
  const std::uint64_t n_max = soc.max_words();
  const std::uint64_t c_max = soc.max_bits();
  std::uint64_t writes = 0;
  std::uint64_t nwrc_writes = 0;
  for (const auto& phase : test.phases()) {
    for (const auto& element : phase.elements) {
      for (const auto& op : element.ops) {
        writes += op.kind == march::MarchOpKind::write ? 1 : 0;
        nwrc_writes += op.kind == march::MarchOpKind::nwrc_write ? 1 : 0;
      }
    }
  }
  const std::uint64_t reads = test.reads_per_address() * n_max;
  const std::uint64_t period = bisd::FastSchemeOptions{}.clock.period_ns;
  ASSERT_EQ(before.size(), soc.memory_count()) << label;
  for (std::size_t i = 0; i < soc.memory_count(); ++i) {
    const auto& memory = soc.memory(i);
    const auto& ops = memory.counters();
    const std::string where = label + " memory " + memory.config().name;
    EXPECT_EQ(ops.reads - before[i].ops.reads,
              memory.config().has_idle_mode ? reads : reads * (1 + c_max))
        << where;
    EXPECT_EQ(ops.writes - before[i].ops.writes, writes * n_max) << where;
    EXPECT_EQ(ops.nwrc_writes - before[i].ops.nwrc_writes,
              nwrc_writes * n_max)
        << where;
    EXPECT_EQ(memory.now_ns() - before[i].now_ns,
              result.time.cycles * period + test.total_pause_ns())
        << where;
  }
  EXPECT_EQ(result.time.pause_ns, test.total_pause_ns()) << label;
}

TEST(InstanceSliced, IdleLessPortsMatchReferenceAndClosedForms) {
  // Sliced groups, a wrapping idle-capable port and two idle-less ports
  // (one of the group's geometry, one of its own) in one SoC: a diagnose
  // run, repair of what it found, then a retest with retention pauses.
  // Both kernels must agree, and each run must match the Sec. 3.3 closed
  // forms on every memory.
  const auto make_soc = [](AccessKernel kernel) {
    auto soc = make_sliced_soc(12, kernel, 21, /*idle_everywhere=*/false);
    Rng rng(5);
    auto twin = cfg("twin", 8, 21);
    twin.has_idle_mode = false;
    soc.add_memory(twin, random_fault_mix(twin, 2, rng));
    const auto lone = cfg("lone", 5, 9);
    soc.add_memory(lone, random_fault_mix(lone, 2, rng));
    soc.set_access_kernel(kernel);
    return soc;
  };
  auto sliced_soc = make_soc(AccessKernel::word_parallel);
  auto ref_soc = make_soc(AccessKernel::per_cell);
  ASSERT_EQ(sliced_soc.slice_groups().size(), 1u);

  const std::uint32_t c_max = sliced_soc.max_bits();
  bisd::FastSchemeOptions retest;
  retest.test = march::with_retention_pause(march::march_cw(c_max), 5'000);
  std::size_t run = 0;
  for (const auto& options : {bisd::FastSchemeOptions{}, retest}) {
    const std::string run_label = "run " + std::to_string(run++);
    const auto sliced_before = memory_states(sliced_soc);
    const auto ref_before = memory_states(ref_soc);
    bisd::FastScheme scheme(options);
    const auto sliced = scheme.diagnose(sliced_soc);
    const auto reference = scheme.diagnose(ref_soc);
    const auto test = scheme.test_for_width(c_max);
    expect_closed_forms(sliced_soc, sliced_before, test, sliced, run_label);
    expect_closed_forms(ref_soc, ref_before, test, reference,
                        run_label + " per_cell");
    expect_runs_identical(sliced_soc, ref_soc, sliced, reference, run_label);
    // Repair what the run found: the retest drives the repaired memories
    // through their own ports.
    bisd::apply_repair(sliced_soc, bisd::plan_repair(sliced.log, sliced_soc));
    bisd::apply_repair(ref_soc, bisd::plan_repair(reference.log, ref_soc));
  }
  std::uint32_t spares_used = 0;
  for (std::size_t i = 0; i < sliced_soc.memory_count(); ++i) {
    spares_used += sliced_soc.memory(i).spares_used();
  }
  EXPECT_GT(spares_used, 0u) << "nothing was repaired";
}

TEST(InstanceSliced, SliceGroupsChunkAt64InIndexOrder) {
  Rng rng(64);
  bisd::SocUnderTest soc;
  // 67 identical memories, every fifth one faulty; memory 3 gets repaired.
  for (int i = 0; i < 67; ++i) {
    auto config = cfg("c" + std::to_string(i), 8, 21);
    soc.add_memory(config, i % 5 == 0 ? random_fault_mix(config, 3, rng)
                                      : std::vector<FaultInstance>{});
  }
  soc.memory(3).repair_row(2, 0);            // repaired: stays out
  soc.add_memory(cfg("odd0", 12, 33));       // different geometry: own group
  soc.add_memory(cfg("odd1", 12, 33),
                 {faults::make_cell_fault(FaultKind::sa1, {4, 4})});
  auto no_idle = cfg("busy", 8, 21);
  no_idle.has_idle_mode = false;
  soc.add_memory(no_idle);                   // idle-less: never grouped
  faults::SoftErrorSpec soft;
  soft.enabled = true;
  soc.add_in_field_memory(cfg("field", 8, 21), {}, {}, soft);  // in-field
  soc.add_memory(cfg("lone", 16, 40));       // one lane does not pay

  const auto groups = soc.slice_groups();
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].members.size(), 64u);  // the 66th eligible opens a
  EXPECT_EQ(groups[1].members.size(), 2u);   // second group
  EXPECT_EQ(groups[1].members.front(), 65u);
  ASSERT_EQ(groups[2].members.size(), 2u);   // the odd-geometry pair
  EXPECT_EQ(groups[2].members.front(), 67u);
  std::size_t faulty_members = 0;
  for (const auto& group : groups) {
    EXPECT_TRUE(std::is_sorted(group.members.begin(), group.members.end()));
    for (const auto m : group.members) {
      EXPECT_NE(m, 3u) << "repaired memories must stay ungrouped";
      EXPECT_LT(m, 69u) << "idle-less, in-field and lone memories stay out";
      faulty_members += soc.truth(m).empty() ? 0 : 1;
    }
  }
  EXPECT_EQ(faulty_members, 15u) << "faulty unrepaired memories join groups";
}

TEST(InstanceSliced, BaselineSchemeMatchesPerCellReference) {
  // BaselineScheme has no group path: every memory runs its own port.
  auto fast_soc = make_sliced_soc(6, AccessKernel::word_parallel, 8);
  auto ref_soc = make_sliced_soc(6, AccessKernel::per_cell, 8);
  bisd::BaselineScheme fast_scheme;
  bisd::BaselineScheme ref_scheme;
  const auto fast = fast_scheme.diagnose(fast_soc);
  const auto reference = ref_scheme.diagnose(ref_soc);
  EXPECT_EQ(fast.time.cycles, reference.time.cycles);
  EXPECT_EQ(fast.log.to_csv(), reference.log.to_csv());
}

TEST(InstanceSliced, EngineSpecSelectionIsBitIdentical) {
  const auto make_spec = [](AccessKernel kernel) {
    auto builder = core::SessionSpec::builder();
    for (int i = 0; i < 6; ++i) {
      builder.add_sram(cfg("f" + std::to_string(i), 16, 24));
    }
    return builder.add_sram(cfg("wide", 12, 40))
        .defect_rate(0.004)
        .seed(13)
        .access_kernel(kernel)
        .build();
  };
  auto sliced_spec = make_spec(AccessKernel::word_parallel);
  auto ref_spec = make_spec(AccessKernel::per_cell);
  ASSERT_TRUE(sliced_spec.has_value());
  ASSERT_TRUE(ref_spec.has_value());

  const core::DiagnosisEngine engine({.workers = 1});
  const auto sliced = engine.run_batch({sliced_spec.value()});
  const auto reference = engine.run_batch({ref_spec.value()});
  ASSERT_EQ(sliced.run_count(), 1u);
  ASSERT_EQ(reference.run_count(), 1u);
  EXPECT_EQ(sliced.runs[0].result.log.to_csv(),
            reference.runs[0].result.log.to_csv());
  EXPECT_EQ(sliced.runs[0].result.time.cycles,
            reference.runs[0].result.time.cycles);
  EXPECT_EQ(sliced.runs[0].injected_faults, reference.runs[0].injected_faults);
}

}  // namespace
}  // namespace fastdiag
