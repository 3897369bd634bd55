// E11 — simulation kernel throughput: the default kernel vs the per_cell
// reference, at every SIMD dispatch level.
//
// The default (word_parallel) kernel advances identical-geometry memories
// as bit-lanes of packed InstanceSlabs and overlays each lane's fault
// sites on its column bits (faults::OverlaySlab); memories outside a slab
// group take packed word ops plus their rows' site patches.  This bench
// diagnoses the paper's operating point — 64 small e-SRAMs of four depths
// (three wrap the 256-step sweep) — with FastScheme, fault-free and at a
// 1 % defect rate with retention faults, under the default kernel and
// under the per_cell reference (the bit-at-a-time loop every access of the
// seed implementation ran).  Each row reports simulated memory operations
// per wall second, the share of memories that rode a slab, and whether
// logs, cycles and op counters are bit-identical to the reference.  The
// table walks every dispatch level this CPU supports (simd::force), the
// JSON line records the trajectory (CI uploads it as BENCH_kernel.json and
// gates every bit_identical flag), and the process exits non-zero on any
// divergence.
#include <chrono>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/fastdiag.h"
#include "util/format.h"
#include "util/table.h"

namespace {

using namespace fastdiag;

/// 64 small heterogeneous e-SRAMs: 16 of each of 4 shapes (the widest lane
/// crosses the 64-bit limb boundary; the shallower three wrap the sweep).
std::vector<sram::SramConfig> soc_configs() {
  std::vector<sram::SramConfig> configs;
  const auto add = [&configs](const std::string& stem, std::uint32_t words,
                              std::uint32_t bits) {
    for (int i = 0; i < 16; ++i) {
      sram::SramConfig config;
      config.name = stem + std::to_string(i);
      config.words = words;
      config.bits = bits;
      config.spare_rows = 4;
      configs.push_back(config);
    }
  };
  add("fifo", 256, 18);
  add("lut", 128, 40);
  add("tag", 192, 24);
  add("buf", 224, 72);
  return configs;
}

bisd::SocUnderTest build_soc(double defect_rate, sram::AccessKernel kernel) {
  faults::InjectionSpec spec;
  spec.cell_defect_rate = defect_rate;
  spec.include_retention = defect_rate > 0.0;
  auto soc = bisd::SocUnderTest::from_injection(soc_configs(), spec,
                                                /*seed=*/20260730);
  soc.set_access_kernel(kernel);
  return soc;
}

struct KernelRun {
  double seconds = 0;
  std::uint64_t simulated_ops = 0;  ///< SRAM reads + writes performed
  std::uint64_t cycles = 0;
  double sliced_ratio = 0;  ///< memories in a slab group / memories
  std::string log_csv;

  [[nodiscard]] double mops_per_sec() const {
    return static_cast<double>(simulated_ops) / seconds / 1e6;
  }
};

KernelRun run_diagnosis(double defect_rate, sram::AccessKernel kernel) {
  auto soc = build_soc(defect_rate, kernel);
  KernelRun run;
  if (kernel != sram::AccessKernel::per_cell) {
    std::size_t sliced = 0;
    for (const auto& group : soc.slice_groups()) {
      sliced += group.members.size();
    }
    run.sliced_ratio = static_cast<double>(sliced) /
                       static_cast<double>(soc.memory_count());
  }
  bisd::FastScheme scheme;
  const auto start = std::chrono::steady_clock::now();
  const auto result = scheme.diagnose(soc);
  const auto stop = std::chrono::steady_clock::now();

  run.seconds = std::chrono::duration<double>(stop - start).count();
  for (std::size_t i = 0; i < soc.memory_count(); ++i) {
    const auto& counters = soc.memory(i).counters();
    run.simulated_ops +=
        counters.reads + counters.writes + counters.nwrc_writes;
  }
  run.cycles = result.time.cycles;
  run.log_csv = result.log.to_csv();
  return run;
}

/// Repeats the deterministic diagnosis and keeps the fastest wall time
/// (ops/cycles/log are identical across repetitions), damping scheduler and
/// cold-cache noise.
KernelRun best_of(int repetitions, double defect_rate,
                  sram::AccessKernel kernel) {
  KernelRun best = run_diagnosis(defect_rate, kernel);
  for (int r = 1; r < repetitions; ++r) {
    const KernelRun run = run_diagnosis(defect_rate, kernel);
    if (run.seconds < best.seconds) {
      best = run;
    }
  }
  return best;
}

struct Comparison {
  KernelRun fast;
  KernelRun cell;
  bool identical = false;

  [[nodiscard]] double speedup() const { return cell.seconds / fast.seconds; }
};

Comparison compare_kernels(double defect_rate) {
  Comparison cmp;
  cmp.fast = best_of(5, defect_rate, sram::AccessKernel::word_parallel);
  cmp.cell = best_of(2, defect_rate, sram::AccessKernel::per_cell);
  cmp.identical = cmp.fast.cycles == cmp.cell.cycles &&
                  cmp.fast.simulated_ops == cmp.cell.simulated_ops &&
                  cmp.fast.log_csv == cmp.cell.log_csv;
  return cmp;
}

struct LevelResult {
  simd::IsaLevel level = simd::IsaLevel::scalar;
  Comparison fault_free;
  Comparison defects;
};

bool kernel_table() {
  std::vector<simd::IsaLevel> levels{simd::IsaLevel::scalar};
  if (simd::detected_level() >= simd::IsaLevel::avx2) {
    levels.push_back(simd::IsaLevel::avx2);
  }
  if (simd::detected_level() >= simd::IsaLevel::avx512) {
    levels.push_back(simd::IsaLevel::avx512);
  }
  std::vector<LevelResult> results;
  for (const auto level : levels) {
    if (!simd::force(level)) {
      continue;
    }
    results.push_back({level, compare_kernels(0.0), compare_kernels(0.01)});
  }
  simd::force(simd::detected_level());

  TablePrinter table({"dispatch", "workload", "kernel", "wall time",
                      "sim Mops/s", "speedup", "sliced", "bit-identical"});
  table.set_title(
      "64-memory mixed-depth SoC, March CW+NWRTM fast-scheme diagnosis");
  bool all_identical = true;
  const auto add_rows = [&table](const std::string& isa,
                                 const std::string& label,
                                 const Comparison& cmp) {
    const std::string identical = cmp.identical ? "yes" : "NO";
    table.add_row({isa, label, "per_cell (reference)",
                   fmt_double(cmp.cell.seconds * 1e3, 1) + " ms",
                   fmt_double(cmp.cell.mops_per_sec(), 2), "1.00x", "0.00",
                   identical});
    table.add_row({isa, label, "default",
                   fmt_double(cmp.fast.seconds * 1e3, 1) + " ms",
                   fmt_double(cmp.fast.mops_per_sec(), 2),
                   fmt_ratio(cmp.speedup()),
                   fmt_double(cmp.fast.sliced_ratio, 2), identical});
  };
  for (const auto& result : results) {
    all_identical = all_identical && result.fault_free.identical &&
                    result.defects.identical;
    add_rows(simd::isa_name(result.level), "fault-free", result.fault_free);
    add_rows(simd::isa_name(result.level), "1% defects", result.defects);
  }
  table.add_note("simulated ops = SRAM reads + writes issued by the scheme");
  table.add_note("sliced = share of memories advanced as overlaid slab lanes");
  table.add_note("per_cell forces the bit-at-a-time reference access path");
  table.print(std::cout);

  const auto workload_json = [](const Comparison& cmp) {
    return JsonObject()
        .field("seconds_default", cmp.fast.seconds)
        .field("seconds_cell", cmp.cell.seconds)
        .field("mops_default", cmp.fast.mops_per_sec(), 2)
        .field("mops_cell", cmp.cell.mops_per_sec(), 2)
        .field("speedup", cmp.speedup(), 2)
        .field("sliced_ratio", cmp.fast.sliced_ratio, 3)
        .field("bit_identical", cmp.identical)
        .str();
  };
  std::string levels_json = "[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    levels_json += (i == 0 ? "" : ",");
    levels_json +=
        JsonObject()
            .field("isa", simd::isa_name(results[i].level))
            .raw("fault_free", workload_json(results[i].fault_free))
            .raw("defect_sweep_1pct", workload_json(results[i].defects))
            .str();
  }
  levels_json += "]";
  print_json_line(JsonObject()
                      .field("bench", "kernel")
                      .field("memories", 64)
                      .field("march", "March CW+NWRTM")
                      .field("detected", simd::isa_name(simd::detected_level()))
                      .field("all_bit_identical", all_identical)
                      .raw("levels", levels_json));
  return all_identical;
}

// ---- microbenchmarks ------------------------------------------------------

void BM_MarchRunnerFaultFree(benchmark::State& state) {
  const auto kernel = static_cast<sram::AccessKernel>(state.range(0));
  sram::SramConfig config;
  config.name = "bm";
  config.words = 128;
  config.bits = 72;
  const auto test = march::march_cw(config.bits);
  for (auto _ : state) {
    sram::Sram memory(config);
    memory.set_access_kernel(kernel);
    const auto result = march::MarchRunner().run(memory, test);
    benchmark::DoNotOptimize(result.ops);
    state.SetItemsProcessed(static_cast<std::int64_t>(result.ops) +
                            state.items_processed());
  }
}
BENCHMARK(BM_MarchRunnerFaultFree)
    ->Arg(static_cast<int>(sram::AccessKernel::word_parallel))
    ->Arg(static_cast<int>(sram::AccessKernel::per_cell))
    ->Unit(benchmark::kMicrosecond);

void BM_SramReadInto(benchmark::State& state) {
  sram::SramConfig config;
  config.name = "bm";
  config.words = 256;
  config.bits = static_cast<std::uint32_t>(state.range(0));
  sram::Sram memory(config);
  BitVector scratch;
  std::uint32_t addr = 0;
  for (auto _ : state) {
    memory.read_into(addr, scratch);
    benchmark::DoNotOptimize(scratch);
    addr = (addr + 1) % config.words;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SramReadInto)->Arg(18)->Arg(72)->Arg(100);

void BM_PscShiftOutWord(benchmark::State& state) {
  serial::ParallelToSerialConverter psc(100);
  const BitVector response(100, true);
  for (auto _ : state) {
    psc.capture(response);
    std::uint64_t sink = 0;
    for (std::uint32_t k = 0; k < 100; k += 64) {
      sink ^= psc.shift_out_word(k + 64 <= 100 ? 64 : 100 - k);
    }
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_PscShiftOutWord);

void BM_Transpose64x64(benchmark::State& state) {
  std::uint64_t block[64];
  for (int i = 0; i < 64; ++i) {
    block[i] = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1);
  }
  for (auto _ : state) {
    simd::transpose_64x64(block);
    benchmark::DoNotOptimize(block[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Transpose64x64);

void BM_LaneDiffOr(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> lanes(n), expect(n);
  for (std::size_t i = 0; i < n; ++i) {
    lanes[i] = expect[i] = 0x5555555555555555ull ^ i;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simd::dispatch().lane_diff_or(lanes.data(), expect.data(), ~0ull, n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LaneDiffOr)->Arg(18)->Arg(72)->Arg(512);

void BM_InstanceSlabGather(benchmark::State& state) {
  sram::SramConfig config;
  config.name = "bm";
  config.words = 256;
  config.bits = 72;
  std::vector<std::unique_ptr<sram::Sram>> fleet;
  std::vector<sram::Sram*> lanes;
  for (int i = 0; i < 64; ++i) {
    fleet.push_back(std::make_unique<sram::Sram>(config));
    lanes.push_back(fleet.back().get());
  }
  sram::InstanceSlab slab(lanes);
  for (auto _ : state) {
    slab.gather();
    benchmark::DoNotOptimize(slab.column(0, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_InstanceSlabGather)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_banner("E11: simulation kernel throughput (default vs per_cell)",
               "overlaid instance slicing keeps the 1 %-defect operating "
               "point on packed word ops at bit-identical diagnosis results");
  if (!kernel_table()) {
    std::cerr << "FATAL: the default kernel diverged from per_cell\n";
    return 1;
  }
  return run_microbenchmarks(argc, argv);
}
