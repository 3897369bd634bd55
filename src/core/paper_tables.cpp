// The paper's tables, E1-E9.  Each experiment prints a banner naming the
// paper claim it regenerates, then its tables: analytic columns from
// analysis/, simulated ones from cycle-accurate runs at fixed seeds, so the
// output is deterministic.  tools/paper_tables prints it and
// tests/golden/paper_tables.txt pins it (test_golden).
#include "core/paper_tables.h"

#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/fastdiag.h"
#include "util/format.h"
#include "util/table.h"

namespace fastdiag::core {
namespace {

void print_banner(std::ostream& out, const char* experiment,
                  const char* claim) {
  out << "================================================================\n"
      << experiment << '\n'
      << "paper claim: " << claim << '\n'
      << "================================================================\n\n";
}

// E1 — Sec. 4.2, Eq. (1)-(3): diagnosis time without DRFs.
//
// Regenerates the paper's case-study numbers (benchmark e-SRAM [16]:
// n = 512, c = 100, t = 10 ns, 1 % defective cells) under both k policies
// and both accountings, sweeps the formulas over memory shapes, and
// cross-checks the analytic model against the cycle-accurate simulators at
// a reduced scale.
namespace e1 {

using analysis::Accounting;
using analysis::KPolicy;

void table_case_study(std::ostream& out) {
  analysis::CaseStudy study;
  const auto k96 = study.k(KPolicy::two_per_iteration);
  const auto k192 = study.k(KPolicy::one_per_iteration);

  TablePrinter table({"quantity", "value", "source"});
  table.set_title(
      "Case study (n=512, c=100, t=10ns, 1% defects, <=256 faults)");
  table.add_row({"k (2 faults/M1 iteration)", std::to_string(k96),
                 "Sec. 4.2: 256*0.75/2"});
  table.add_row({"k (1 fault/element)", std::to_string(k192),
                 "Sec. 1 reading"});
  table.add_separator();
  table.add_row({"T[7,8] Eq.(1), k=96",
                 fmt_ns(static_cast<double>(analysis::baseline_no_drf_ns(
                     study.n, study.c, study.t_ns, k96))),
                 "(17+9k)nct"});
  table.add_row({"T[7,8] Eq.(1), k=192",
                 fmt_ns(static_cast<double>(analysis::baseline_no_drf_ns(
                     study.n, study.c, study.t_ns, k192))),
                 "(17+9k)nct"});
  table.add_row({"T_prop Eq.(2), paper",
                 fmt_ns(static_cast<double>(analysis::proposed_no_drf_ns(
                     study.n, study.c, study.t_ns, Accounting::paper))),
                 "998,440 cycles"});
  table.add_row({"T_prop, this implementation",
                 fmt_ns(static_cast<double>(analysis::proposed_no_drf_ns(
                     study.n, study.c, study.t_ns, Accounting::ours))),
                 "verify-read top-up"});
  table.add_separator();
  table.add_row({"R Eq.(3), k=96, paper",
                 fmt_ratio(analysis::reduction_no_drf(
                     study.n, study.c, study.t_ns, k96, Accounting::paper)),
                 "paper text: >= 84 (!)"});
  table.add_row({"R Eq.(3), k=192, paper",
                 fmt_ratio(analysis::reduction_no_drf(
                     study.n, study.c, study.t_ns, k192, Accounting::paper)),
                 "matches the claim"});
  table.add_row({"R, k=192, ours",
                 fmt_ratio(analysis::reduction_no_drf(
                     study.n, study.c, study.t_ns, k192, Accounting::ours)),
                 "complete March CW"});
  table.add_note("the paper's own k=96 derivation yields ~45x; its R>=84");
  table.add_note("claim corresponds to the one-fault-per-element policy");
  table.print(out);
  out << '\n';
}

void table_sweep(std::ostream& out) {
  TablePrinter table({"n", "c", "k", "T[7,8]", "T_prop (paper)", "R"});
  table.set_title("Eq. (1)-(3) sweep (k = 0.75 * n*c*1% / 2 faults/iter)");
  for (const std::uint32_t n : {128u, 256u, 512u, 1024u, 2048u}) {
    for (const std::uint32_t c : {32u, 100u}) {
      const double faults =
          static_cast<double>(n) * c * 0.01 / 2.0;  // kCellsPerFault
      const auto k = static_cast<std::uint64_t>(faults * 0.75 / 2.0);
      const auto base = analysis::baseline_no_drf_ns(n, c, 10, k);
      const auto prop =
          analysis::proposed_no_drf_ns(n, c, 10, Accounting::paper);
      table.add_row({std::to_string(n), std::to_string(c), std::to_string(k),
                     fmt_ns(static_cast<double>(base)),
                     fmt_ns(static_cast<double>(prop)),
                     fmt_ratio(static_cast<double>(base) /
                               static_cast<double>(prop))});
    }
  }
  table.print(out);
  out << '\n';
}

void table_simulated(std::ostream& out) {
  // Reduced-scale cross-check: both schemes simulated cycle-accurately.
  const std::uint32_t n = 64, c = 16;
  TablePrinter table({"defect rate", "faults", "measured k",
                      "baseline cycles", "Eq.(1) identity", "fast cycles",
                      "measured R"});
  table.set_title("Simulated cross-check at n=64, c=16 (cycle-accurate)");
  for (const double rate : {0.005, 0.01, 0.02, 0.04}) {
    sram::SramConfig config;
    config.name = "x";
    config.words = n;
    config.bits = c;
    config.spare_rows = n;  // ample backup so the baseline can iterate

    faults::InjectionSpec spec;
    spec.cell_defect_rate = rate;

    auto& registry = core::SchemeRegistry::global();
    auto base_soc = bisd::SocUnderTest::from_injection({config}, spec, 21);
    const auto base = registry.make("baseline", {})->diagnose(base_soc);

    auto fast_soc = bisd::SocUnderTest::from_injection({config}, spec, 21);
    const auto quick =
        registry.make("fast-without-drf", {})->diagnose(fast_soc);

    const auto identity =
        (17 + 9 * base.iterations) * static_cast<std::uint64_t>(n) * c;
    table.add_row(
        {fmt_percent(rate), std::to_string(base_soc.total_faults()),
         std::to_string(base.iterations), fmt_count(base.time.cycles),
         base.time.cycles == identity ? "exact" : "MISMATCH",
         fmt_count(quick.time.cycles),
         fmt_ratio(static_cast<double>(base.time.cycles) /
                   static_cast<double>(quick.time.cycles))});
  }
  table.add_note("measured k rises with the defect rate while the fast");
  table.add_note("scheme's cost stays constant — the paper's core argument");
  table.print(out);
}

void print(std::ostream& out) {
  print_banner(out, "E1: diagnosis time without DRFs (Sec. 4.2, Eq. (1)-(3))",
               "reduction factor R of at least 84 for the benchmark e-SRAMs");
  table_case_study(out);
  table_sweep(out);
  table_simulated(out);
}

}  // namespace e1

// E2 — Sec. 4.2, Eq. (4): DRF-inclusive diagnosis time.
//
// The baseline needs 8k serialized retention passes plus 100 ms pauses per
// data state; the proposed scheme merges NWRC writes into March CW at
// essentially zero cost.  Regenerates the "R can be at least 145" claim and
// cross-checks with the simulators.
namespace e2 {

using analysis::Accounting;
using analysis::KPolicy;

void table_case_study(std::ostream& out) {
  analysis::CaseStudy study;
  TablePrinter table({"quantity", "value", "note"});
  table.set_title("DRF-inclusive case study (Eq. (4))");

  const std::pair<KPolicy, const char*> policies[] = {
      {KPolicy::two_per_iteration, "k=96"},
      {KPolicy::one_per_iteration, "k=192"},
  };
  for (const auto& [policy, label] : policies) {
    const auto k = study.k(policy);
    const auto base_core =
        analysis::baseline_no_drf_ns(study.n, study.c, study.t_ns, k);
    const auto base_drf = analysis::baseline_drf_extra_ns(
        study.n, study.c, study.t_ns, k, /*strict_pauses=*/false);
    const auto base_strict = analysis::baseline_drf_extra_ns(
        study.n, study.c, study.t_ns, k, /*strict_pauses=*/true);
    table.add_row({std::string("T[7,8]+DRF, ") + label,
                   fmt_ns(static_cast<double>(base_core + base_drf)),
                   "8k nct + 200 ms (paper)"});
    table.add_row({std::string("T[7,8]+DRF strict, ") + label,
                   fmt_ns(static_cast<double>(base_core + base_strict)),
                   "200 ms every iteration"});
    table.add_row({std::string("R with DRFs, ") + label,
                   fmt_ratio(analysis::reduction_with_drf(
                       study.n, study.c, study.t_ns, k, Accounting::paper)),
                   label == std::string("k=192") ? "paper claims >= 145"
                                                 : ""});
    table.add_separator();
  }
  table.add_row({"T_prop + DRF (paper budget)",
                 fmt_ns(static_cast<double>(
                     analysis::proposed_no_drf_ns(study.n, study.c,
                                                  study.t_ns,
                                                  Accounting::paper) +
                     analysis::proposed_drf_extra_ns(
                         study.n, study.c, study.t_ns, Accounting::paper))),
                 "(2n+2c)t extra"});
  table.add_row(
      {"T_prop + DRF (ours)",
       fmt_ns(static_cast<double>(
           analysis::proposed_no_drf_ns(study.n, study.c, study.t_ns,
                                        Accounting::ours) +
           analysis::proposed_drf_extra_ns(study.n, study.c, study.t_ns,
                                           Accounting::ours))),
       "2c t extra (NWRC merge)"});
  table.print(out);
  out << '\n';
}

void table_simulated(std::ostream& out) {
  const std::uint32_t n = 32, c = 8;
  sram::SramConfig config;
  config.name = "x";
  config.words = n;
  config.bits = c;
  config.spare_rows = n;

  faults::InjectionSpec spec;
  spec.cell_defect_rate = 0.02;
  spec.include_retention = true;
  spec.retention_fraction = 0.5;

  auto& registry = core::SchemeRegistry::global();
  auto base_soc = bisd::SocUnderTest::from_injection({config}, spec, 5);
  const auto base =
      registry.make("baseline-with-retention", {})->diagnose(base_soc);

  auto fast_soc = bisd::SocUnderTest::from_injection({config}, spec, 5);
  const auto quick = registry.make("fast", {})->diagnose(fast_soc);

  const sram::ClockDomain clock{10};
  TablePrinter table({"scheme", "k", "cycles", "pauses", "total",
                      "cells found"});
  table.set_title("Simulated DRF-inclusive diagnosis at n=32, c=8 (2% rate, "
                  "50% extra DRFs)");
  table.add_row({"baseline + retention", std::to_string(base.iterations),
                 fmt_count(base.time.cycles),
                 fmt_ns(static_cast<double>(base.time.pause_ns)),
                 fmt_ns(static_cast<double>(base.total_ns(clock))),
                 std::to_string(base.log.distinct_cell_count())});
  table.add_row({"fast (NWRTM merged)", std::to_string(quick.iterations),
                 fmt_count(quick.time.cycles), "0 ns",
                 fmt_ns(static_cast<double>(quick.total_ns(clock))),
                 std::to_string(quick.log.distinct_cell_count())});
  table.add_note(
      "measured R = " +
      fmt_ratio(static_cast<double>(base.total_ns(clock)) /
                static_cast<double>(quick.total_ns(clock))) +
      " (pauses dominate the baseline)");
  table.print(out);
}

void print(std::ostream& out) {
  print_banner(out, "E2: DRF-inclusive diagnosis time (Sec. 4.2, Eq. (4))",
               "reduction of at least 145 once DRFs are considered");
  table_case_study(out);
  table_simulated(out);
}

}  // namespace e2

// E3 — Sec. 4.1: diagnosis coverage.
//
// Two views:
//  (a) scheme-level: every fault kind injected one at a time into a small
//      e-SRAM, the baseline [7,8] architecture vs. the proposed scheme
//      run end to end — the proposed scheme adds the DRFs but misses the
//      stuck-open (SOF) cells the baseline's serial passes catch, which
//      March CW exposes only at element boundaries;
//  (b) algorithm-level (RAMSES-style): March C- vs. March CW vs.
//      March CW+NWRTM through the word-parallel runner.
namespace e3 {

sram::SramConfig geometry() {
  sram::SramConfig config;
  config.name = "cov16x8";
  config.words = 16;
  config.bits = 8;
  config.spare_rows = 16;
  return config;
}

/// Fraction of @p population a scheme detects (scheme built per instance).
template <typename MakeScheme>
double scheme_detection(const march::FaultPopulation& population,
                        const MakeScheme& make_scheme) {
  if (population.instances.empty()) {
    return 1.0;
  }
  std::size_t detected = 0;
  for (const auto& instance : population.instances) {
    bisd::SocUnderTest soc;
    soc.add_memory(geometry(), {instance});
    auto scheme = make_scheme();
    const auto result = scheme->diagnose(soc);
    detected += result.log.empty() ? 0u : 1u;
  }
  return static_cast<double>(detected) /
         static_cast<double>(population.instances.size());
}

void table_scheme_level(std::ostream& out) {
  TablePrinter table({"fault model", "injected", "[7,8] baseline",
                      "proposed", "proposed+NWRTM"});
  table.set_title("Scheme-level coverage on 16x8 (one fault at a time)");

  Rng rng(404);
  const auto populations = [&rng] {
    std::vector<march::FaultPopulation> out;
    for (const auto kind : faults::all_fault_kinds()) {
      if (faults::needs_aggressor(kind)) {
        out.push_back(march::make_population(
            geometry(), kind, march::CouplingScope::inter_word, 12, rng));
        out.push_back(march::make_population(
            geometry(), kind, march::CouplingScope::intra_word, 12, rng));
      } else {
        out.push_back(march::make_population(
            geometry(), kind, march::CouplingScope::any, 12, rng));
      }
    }
    return out;
  }();

  // Schemes come from the v2 registry by name — the same factories every
  // API client uses.
  auto& registry = core::SchemeRegistry::global();
  double base_total = 0, prop_total = 0, nwrtm_total = 0;
  for (const auto& population : populations) {
    const double base = scheme_detection(population, [&registry] {
      return registry.make("baseline", {});
    });
    const double prop = scheme_detection(population, [&registry] {
      return registry.make("fast-without-drf", {});
    });
    const double nwrtm = scheme_detection(population, [&registry] {
      return registry.make("fast", {});
    });
    base_total += base;
    prop_total += prop;
    nwrtm_total += nwrtm;
    table.add_row({population.label,
                   std::to_string(population.instances.size()),
                   fmt_percent(base), fmt_percent(prop),
                   fmt_percent(nwrtm)});
  }
  table.add_separator();
  const auto rows = static_cast<double>(populations.size());
  table.add_row({"mean over models", "-", fmt_percent(base_total / rows),
                 fmt_percent(prop_total / rows),
                 fmt_percent(nwrtm_total / rows)});
  table.add_note("DRF rows: baseline and plain March CW are blind (0%),");
  table.add_note("the NWRTM merge sees them all — Sec. 4.1's added coverage");
  table.add_note(
      "SOF row: a stuck-open cell returns the sense latch, which the");
  table.add_note("previous read in its column leaves at the expected value");
  table.add_note(
      "inside a March CW element, so only element boundaries expose");
  table.add_note(
      "it; the baseline's serial passes see every one, and this row");
  table.add_note("alone puts the plain proposed mean below the baseline's");
  table.print(out);
  out << '\n';
}

void table_algorithm_level(std::ostream& out) {
  const auto config = geometry();
  const march::CoverageEvaluator evaluator(config);
  const auto tests = {march::march_c_minus(config.bits),
                      march::march_cw(config.bits),
                      march::march_cw_nwrtm(config.bits)};

  TablePrinter table({"fault model", "March C-", "March CW",
                      "March CW+NWRTM"});
  table.set_title("Algorithm-level detection (word-parallel runner)");

  Rng rng(404);
  for (const auto kind : faults::all_fault_kinds()) {
    const auto scope = faults::needs_aggressor(kind)
                           ? march::CouplingScope::intra_word
                           : march::CouplingScope::any;
    const auto population =
        march::make_population(config, kind, scope, 24, rng);
    std::vector<std::string> cells = {population.label};
    for (const auto& test : tests) {
      cells.push_back(
          fmt_percent(evaluator.evaluate(test, population).detection_rate()));
    }
    table.add_row(std::move(cells));
  }
  table.add_note("coupling rows are the intra-word populations March CW's");
  table.add_note("extra data backgrounds exist for");
  table.print(out);
}

void print(std::ostream& out) {
  print_banner(out, "E3: diagnosis coverage (Sec. 4.1)",
               "same logical coverage as [7,8] plus the DRFs");
  table_scheme_level(out);
  table_algorithm_level(out);
}

}  // namespace e3

// E4 — Sec. 4.3: area overhead.
//
// Per-IO-bit transistor budgets of the two interfaces, the "+3 6T cells per
// bit" headline, the ~1.8% benchmark overhead, the overhead across memory
// shapes, and the global-wire count.
namespace e4 {

void table_per_bit(std::ostream& out) {
  analysis::AreaModel model;
  const auto& costs = model.costs();

  TablePrinter table({"component", "transistors", "6T-cell equiv"});
  table.set_title("Per-IO-bit interface cost (paper's conversion: DFF = 2 "
                  "cells, latch = 1 cell)");
  table.add_row({"[7,8] bi-dir serial: 4:1 mux + latch",
                 fmt_transistors(model.baseline_interface_per_bit()),
                 fmt_double(static_cast<double>(
                                model.baseline_interface_per_bit()) /
                                costs.sram_cell,
                            1)});
  table.add_row({"proposed: SPC (DFF+mux2) + PSC (scan DFF)",
                 fmt_transistors(model.proposed_interface_per_bit()),
                 fmt_double(static_cast<double>(
                                model.proposed_interface_per_bit()) /
                                costs.sram_cell,
                            1)});
  table.add_separator();
  table.add_row({"extra vs. [7,8]",
                 fmt_transistors(model.proposed_interface_per_bit() -
                                 model.baseline_interface_per_bit()),
                 std::to_string(model.extra_cells_per_bit()) +
                     " (paper: three 6T cells per bit)"});
  table.print(out);
  out << '\n';
}

void table_benchmark_overhead(std::ostream& out) {
  analysis::AreaModel model;
  const auto config = sram::benchmark_sram();

  TablePrinter table({"scheme", "interface", "addr gen", "control",
                      "backup", "total", "overhead"});
  table.set_title("Benchmark e-SRAM (512x100, 2 spare rows) overhead "
                  "breakdown, transistors");
  for (const auto& [label, breakdown] :
       {std::pair{"[7,8] baseline", model.baseline_overhead(config)},
        std::pair{"proposed", model.proposed_overhead(config)}}) {
    table.add_row({label,
                   fmt_count(breakdown.interface_transistors),
                   fmt_count(breakdown.address_gen_transistors),
                   fmt_count(breakdown.control_transistors),
                   fmt_count(breakdown.backup_transistors),
                   fmt_count(breakdown.total_transistors()),
                   fmt_percent(model.overhead_fraction(breakdown, config))});
  }
  table.add_note("paper: \"around 1.8% for the benchmark e-SRAMs\"");
  table.print(out);
  out << '\n';
}

void table_shape_sweep(std::ostream& out) {
  analysis::AreaModel model;
  TablePrinter table({"words", "bits", "proposed overhead",
                      "baseline overhead", "delta (cells)"});
  table.set_title("Overhead vs. memory shape");
  for (const std::uint32_t words : {64u, 256u, 512u, 2048u}) {
    for (const std::uint32_t bits : {16u, 100u}) {
      sram::SramConfig config;
      config.name = "s";
      config.words = words;
      config.bits = bits;
      const auto prop = model.proposed_overhead(config);
      const auto base = model.baseline_overhead(config);
      table.add_row(
          {std::to_string(words), std::to_string(bits),
           fmt_percent(model.overhead_fraction(prop, config)),
           fmt_percent(model.overhead_fraction(base, config)),
           std::to_string(model.extra_cells_per_bit() * bits)});
    }
  }
  table.add_note("small memories pay proportionally more — the reason a");
  table.add_note("shared controller (not per-memory BISD) is mandatory");
  table.print(out);
  out << '\n';
}

void table_wires(std::ostream& out) {
  analysis::AreaModel model;
  TablePrinter table({"architecture", "global wires"});
  table.set_title("Global routing from the BISD controller");
  table.add_row({"[7,8] bi-dir serial",
                 std::to_string(model.global_wires_baseline())});
  table.add_row({"proposed (adds PSC scan_en)",
                 std::to_string(model.global_wires_proposed(false))});
  table.add_row({"proposed + NWRTM line",
                 std::to_string(model.global_wires_proposed(true))});
  table.add_note("paper: \"adds only one extra global wire for the control "
                 "of the PSC\"");
  table.print(out);
}

void print(std::ostream& out) {
  print_banner(out, "E4: area overhead (Sec. 4.3)",
               "three extra 6T cells per IO bit; ~1.8% on the benchmark");
  table_per_bit(out);
  table_benchmark_overhead(out);
  table_shape_sweep(out);
  table_wires(out);
}

}  // namespace e4

// E5 — Fig. 2 behaviour: serial fault masking and the defect-rate-dependent
// diagnosis it forces.
//
//  (a) one multi-fault word observed through the three datapaths:
//      the single-directional interface exposes one fault, the
//      bi-directional pair two, the SPC/PSC path all of them;
//  (b) the consequence: the baseline's measured iteration count k grows
//      with the defect rate while the fast scheme's single run does not.
namespace e5 {

using faults::FaultKind;

/// One 8-bit word with SA0 cells at bits 2, 4 and 6, holding all ones.
std::unique_ptr<sram::Sram> make_word_under_test() {
  sram::SramConfig config;
  config.name = "word";
  config.words = 1;
  config.bits = 8;
  std::vector<faults::FaultInstance> instances = {
      faults::make_cell_fault(FaultKind::sa0, {0, 2}),
      faults::make_cell_fault(FaultKind::sa0, {0, 4}),
      faults::make_cell_fault(FaultKind::sa0, {0, 6}),
  };
  auto memory = std::make_unique<sram::Sram>(
      config, std::make_unique<faults::FaultSet>(instances));
  memory->write(0, BitVector(8, true));
  return memory;
}

/// Faulty bits visible through one serial pass (mismatch boundary only —
/// everything past the first corrupted cell is untrustworthy).
std::size_t serial_visible(serial::ShiftDirection dir) {
  auto memory = make_word_under_test();
  serial::BidiSerialInterface interface(*memory);
  const auto seen = interface.pass(dir, BitVector(8, true)).observed[0];
  // The boundary fault is the only diagnosable one per direction.
  for (std::uint32_t j = 0; j < 8; ++j) {
    const std::uint32_t bit =
        dir == serial::ShiftDirection::right ? 7 - j : j;
    if (!seen.get(bit)) {
      return 1;  // first corrupted position found: one locatable fault
    }
  }
  return 0;
}

void table_datapaths(std::ostream& out) {
  // SPC/PSC: capture the parallel read and count every mismatching bit.
  auto memory = make_word_under_test();
  serial::ParallelToSerialConverter psc(8);
  psc.capture(memory->read(0));
  std::size_t psc_visible = 0;
  for (std::uint32_t k = 0; k < 8; ++k) {
    if (psc.shift_out() != true) {
      ++psc_visible;
    }
  }

  const std::size_t uni = serial_visible(serial::ShiftDirection::right);
  const std::size_t bidi =
      serial_visible(serial::ShiftDirection::right) +
      serial_visible(serial::ShiftDirection::left);

  TablePrinter table({"datapath", "faults locatable per element",
                      "of 3 injected"});
  table.set_title("One word, SA0 at bits 2/4/6, all-ones background");
  table.add_row({"single-directional serial [9,10]", std::to_string(uni),
                 fmt_percent(static_cast<double>(uni) / 3.0)});
  table.add_row({"bi-directional serial [7,8]", std::to_string(bidi),
                 fmt_percent(static_cast<double>(bidi) / 3.0)});
  table.add_row({"SPC/PSC (proposed)", std::to_string(psc_visible),
                 fmt_percent(static_cast<double>(psc_visible) / 3.0)});
  table.add_note("the PSC shift path bypasses the cells: nothing masks");
  table.print(out);
  out << '\n';
}

void table_defect_rate_series(std::ostream& out) {
  const std::uint32_t n = 64, c = 16;
  TablePrinter table({"defect rate", "faults", "baseline k",
                      "new faults/iteration", "baseline cycles",
                      "fast cycles (const)"});
  table.set_title("Defect-rate dependence at n=64, c=16 (measured)");
  for (const double rate : {0.0025, 0.005, 0.01, 0.02, 0.04, 0.08}) {
    sram::SramConfig config;
    config.name = "x";
    config.words = n;
    config.bits = c;
    config.spare_rows = n;
    faults::InjectionSpec spec;
    spec.cell_defect_rate = rate;

    auto& registry = core::SchemeRegistry::global();
    auto base_soc = bisd::SocUnderTest::from_injection({config}, spec, 77);
    const auto base = registry.make("baseline", {})->diagnose(base_soc);

    auto fast_soc = bisd::SocUnderTest::from_injection({config}, spec, 77);
    const auto quick =
        registry.make("fast-without-drf", {})->diagnose(fast_soc);

    const double per_iter =
        base.iterations == 0
            ? 0.0
            : static_cast<double>(base.log.distinct_cell_count()) /
                  static_cast<double>(base.iterations);
    table.add_row({fmt_percent(rate), std::to_string(base_soc.total_faults()),
                   std::to_string(base.iterations), fmt_double(per_iter, 2),
                   fmt_count(base.time.cycles),
                   fmt_count(quick.time.cycles)});
  }
  table.add_note("k climbs with the defect rate; the fast scheme's cost");
  table.add_note("column never moves — Sec. 1's criticism, quantified");
  table.print(out);
}

void print(std::ostream& out) {
  print_banner(out,
               "E5: serial fault masking (Fig. 2) and defect-rate dependence",
               "a March element through the serial interface locates at most "
               "one fault per direction");
  table_datapaths(out);
  table_defect_rate_series(out);
}

}  // namespace e5

// E6 — Sec. 3.1: heterogeneous memories, wrap-around, and the shared
// controller dimensioned by the largest/widest e-SRAM.
//
//  (a) diagnosis time is set by (n_max, c_max) alone — adding more (or
//      smaller) memories to the same controller is free;
//  (b) smaller memories absorb redundant wrap-around read-modify-writes
//      that the comparator must tolerate; correctness is preserved.
namespace e6 {

std::vector<sram::SramConfig> mix(const std::string& what) {
  const auto make = [](std::string name, std::uint32_t w, std::uint32_t b) {
    sram::SramConfig config;
    config.name = std::move(name);
    config.words = w;
    config.bits = b;
    config.spare_rows = 8;
    return config;
  };
  if (what == "uniform") {
    return {make("a", 64, 16), make("b", 64, 16), make("c", 64, 16),
            make("d", 64, 16)};
  }
  if (what == "mixed") {
    return {make("a", 64, 16), make("b", 32, 12), make("c", 16, 8),
            make("d", 8, 4)};
  }
  if (what == "extreme") {
    return {make("a", 64, 16), make("b", 5, 3), make("c", 3, 16),
            make("d", 64, 1)};
  }
  return {make("solo", 64, 16)};
}

void table_controller_scaling(std::ostream& out) {
  TablePrinter table({"SoC", "memories", "n_max", "c_max", "cycles",
                      "per-memory redundant steps"});
  table.set_title("Fast-scheme cost is set by the largest/widest memory");
  for (const std::string what : {"solo", "uniform", "mixed", "extreme"}) {
    const auto configs = mix(what);
    bisd::SocUnderTest soc;
    for (const auto& config : configs) {
      soc.add_memory(config);
    }
    const auto scheme =
        core::SchemeRegistry::global().make("fast-without-drf", {});
    const auto result = scheme->diagnose(soc);

    // Redundant (wrapped) address steps per element sweep.
    std::string redundant;
    for (const auto& config : configs) {
      if (!redundant.empty()) {
        redundant += "/";
      }
      redundant += std::to_string(soc.max_words() - config.words);
    }
    table.add_row({what, std::to_string(configs.size()),
                   std::to_string(soc.max_words()),
                   std::to_string(soc.max_bits()),
                   fmt_count(result.time.cycles), redundant});
  }
  table.add_note("solo/uniform/mixed/extreme all share n_max=64, c_max=16:");
  table.add_note("identical cycle counts — memories diagnose in parallel");
  table.print(out);
  out << '\n';
}

void table_wraparound_correctness(std::ostream& out) {
  TablePrinter table({"SoC", "injected", "diagnosed", "recall",
                      "spurious cells"});
  table.set_title("Wrap-around correctness under a 2% defect population");
  for (const std::string what : {"uniform", "mixed", "extreme"}) {
    const auto configs = mix(what);
    faults::InjectionSpec spec;
    spec.cell_defect_rate = 0.02;
    auto soc = bisd::SocUnderTest::from_injection(configs, spec, 9);
    const auto scheme =
        core::SchemeRegistry::global().make("fast-without-drf", {});
    const auto result = scheme->diagnose(soc);

    std::size_t truth = 0, matched = 0, spurious = 0, diagnosed = 0;
    for (std::size_t i = 0; i < soc.memory_count(); ++i) {
      const auto report = faults::match_diagnosis(
          soc.truth(i), result.log.cells(i), soc.config(i));
      truth += report.truth_faults;
      matched += report.matched_faults;
      spurious += report.spurious_cells;
      diagnosed += report.diagnosed_cells;
    }
    table.add_row({what, std::to_string(truth), std::to_string(diagnosed),
                   fmt_percent(truth == 0
                                   ? 1.0
                                   : static_cast<double>(matched) /
                                         static_cast<double>(truth)),
                   std::to_string(spurious)});
  }
  table.add_note("redundant wrap-around read-modify-writes produce zero");
  table.add_note("spurious diagnoses: the golden expectations track them");
  table.print(out);
}

void print(std::ostream& out) {
  print_banner(out, "E6: heterogeneous e-SRAMs and wrap-around (Sec. 3.1)",
               "controller dimensioned by the largest and widest memory; "
               "smaller memories wrap around");
  table_controller_scaling(out);
  table_wraparound_correctness(out);
}

}  // namespace e6

// E7 — Sec. 3.4 / Fig. 6: the cost of data-retention-fault diagnosis.
//
// Compares the three DRF strategies end to end:
//   1. delay-based probe (write, wait 100 ms, read — per state),
//   2. retention pauses merged into a March test,
//   3. the NWRTM merge (this paper's choice): NWRC write-backs, zero wait.
namespace e7 {

using faults::FaultKind;

void table_probe_times(std::ostream& out) {
  TablePrinter table({"memory", "delay probe", "NWRTM probe", "speedup"});
  table.set_title("Stand-alone DRF probe time (t = 10 ns)");
  for (const auto& [words, bits] :
       {std::pair{64u, 8u}, std::pair{512u, 100u}, std::pair{2048u, 32u}}) {
    sram::SramConfig config;
    config.name = "p";
    config.words = words;
    config.bits = bits;
    sram::Sram mem_a(config), mem_b(config);
    const auto delay = nwrtm::delay_drf_probe(mem_a);
    const auto probe = nwrtm::nwrtm_drf_probe(mem_b);
    const double delay_ns =
        static_cast<double>(delay.ops * 10 + delay.pause_ns);
    const double probe_ns = static_cast<double>(probe.ops * 10);
    table.add_row({std::to_string(words) + "x" + std::to_string(bits),
                   fmt_ns(delay_ns), fmt_ns(probe_ns),
                   fmt_ratio(delay_ns / probe_ns)});
  }
  table.add_note("the 200 ms of pauses dwarf everything else — the reason");
  table.add_note("DRF time dominates small e-SRAM diagnosis (Sec. 1)");
  table.print(out);
  out << '\n';
}

void table_merged_cost(std::ostream& out) {
  const std::uint32_t n = 512, c = 100;
  const auto plain = bisd::FastScheme::predicted_cycles(march::march_cw(c),
                                                        n, c);
  const auto merged =
      bisd::FastScheme::predicted_cycles(march::march_cw_nwrtm(c), n, c);
  const auto paused = bisd::FastScheme::predicted_cycles(
      march::with_retention_pause(march::march_cw(c)), n, c);
  const auto pause_ns =
      march::with_retention_pause(march::march_cw(c)).total_pause_ns();

  TablePrinter table({"strategy", "cycles", "extra vs plain", "wall extra"});
  table.set_title("DRF coverage added to March CW over the fast scheme "
                  "(n=512, c=100)");
  table.add_row({"March CW (no DRF coverage)", fmt_count(plain), "-", "-"});
  table.add_row({"+ NWRTM merge (proposed)", fmt_count(merged),
                 fmt_count(merged - plain),
                 fmt_ns(static_cast<double>((merged - plain) * 10))});
  table.add_row({"+ retention pauses (classical)", fmt_count(paused),
                 fmt_count(paused - plain),
                 fmt_ns(static_cast<double>((paused - plain) * 10) +
                        static_cast<double>(pause_ns))});
  table.add_note("paper budget for the merge: (2n+2c)t = " +
                 fmt_ns(static_cast<double>((2 * n + 2 * c) * 10)) +
                 "; measured: " +
                 fmt_ns(static_cast<double>((merged - plain) * 10)));
  table.print(out);
  out << '\n';
}

void table_coverage_equivalence(std::ostream& out) {
  // All three strategies find the same DRF population.
  sram::SramConfig config;
  config.name = "eq";
  config.words = 32;
  config.bits = 8;

  Rng rng(606);
  std::vector<faults::FaultInstance> truth;
  const auto sites = rng.sample_without_replacement(config.cell_count(), 6);
  for (const auto site : sites) {
    truth.push_back(faults::make_cell_fault(
        rng.bernoulli(0.5) ? FaultKind::drf0 : FaultKind::drf1,
        {static_cast<std::uint32_t>(site / config.bits),
         static_cast<std::uint32_t>(site % config.bits)}));
  }

  TablePrinter table({"strategy", "DRFs found", "of injected", "waits"});
  table.set_title("Detection equivalence on 6 injected DRFs (32x8)");

  {
    sram::Sram memory(config, std::make_unique<faults::FaultSet>(truth));
    const auto probe = nwrtm::delay_drf_probe(memory);
    table.add_row({"delay probe", std::to_string(probe.suspects.size()), "6",
                   fmt_ns(static_cast<double>(probe.pause_ns))});
  }
  {
    sram::Sram memory(config, std::make_unique<faults::FaultSet>(truth));
    const auto result = march::MarchRunner().run(
        memory, march::with_retention_pause(march::march_cw(config.bits)));
    table.add_row({"March CW + pauses",
                   std::to_string(result.suspect_cells().size()), "6",
                   "200.00 ms"});
  }
  {
    sram::Sram memory(config, std::make_unique<faults::FaultSet>(truth));
    const auto result = march::MarchRunner().run(
        memory, march::march_cw_nwrtm(config.bits));
    table.add_row({"March CW + NWRTM",
                   std::to_string(result.suspect_cells().size()), "6",
                   "0 ns"});
  }
  table.print(out);
}

void print(std::ostream& out) {
  print_banner(out, "E7: DRF diagnosis cost (Sec. 3.4, Fig. 6, ref [11])",
               "NWRTM diagnoses DRFs without incurring any extra delay time");
  table_probe_times(out);
  table_merged_cost(out);
  table_coverage_equivalence(out);
}

}  // namespace e7

// E8 — algorithm complexities (Sec. 2/3): textbook op counts of the March
// library, their cost through the SPC/PSC scheme (Eq. (2) building blocks),
// and the serialized pass unit of Eq. (1).
namespace e8 {

/// True when every element carries at most one write pattern — the SPC
/// constraint of the fast scheme.
bool fast_scheme_compatible(const march::MarchTest& test) {
  for (const auto& phase : test.phases()) {
    for (const auto& element : phase.elements) {
      std::optional<march::Polarity> polarity;
      for (const auto& op : element.ops) {
        if (!op.is_any_write()) {
          continue;
        }
        if (polarity && *polarity != op.polarity) {
          return false;
        }
        polarity = op.polarity;
      }
    }
  }
  return true;
}

void table_library(std::ostream& out) {
  const std::uint32_t n = 512, c = 100;
  TablePrinter table({"algorithm", "ops", "ops/n", "fast-scheme cycles",
                      "vs March C-"});
  table.set_title("March library at n=512, c=100");
  const auto reference = bisd::FastScheme::predicted_cycles(
      march::march_c_minus(c), n, c);
  for (const auto& test : march::all_library_tests(c)) {
    const auto ops = test.op_count(n);
    std::string cycles = "n/a (multi-pattern elements)";
    std::string ratio = "-";
    if (fast_scheme_compatible(test)) {
      const auto predicted = bisd::FastScheme::predicted_cycles(test, n, c);
      cycles = fmt_count(predicted);
      ratio = fmt_double(static_cast<double>(predicted) /
                             static_cast<double>(reference),
                         2);
    }
    table.add_row({test.name(), fmt_count(ops),
                   std::to_string(ops / n), cycles, ratio});
  }
  table.add_note("March A/B elements write both polarities and would need");
  table.add_note("one SPC re-delivery per op — outside the Eq. (2) model");
  table.print(out);
  out << '\n';
}

void table_equation_pieces(std::ostream& out) {
  const std::uint32_t n = 512, c = 100;
  const std::uint64_t log2c = analysis::log2_ceil(c);
  TablePrinter table({"term", "cycles", "formula"});
  table.set_title("Eq. (2) building blocks under the SPC/PSC cost model");
  table.add_row({"March C- (solid phase)",
                 fmt_count(bisd::FastScheme::predicted_cycles(
                     march::march_c_minus(c), n, c)),
                 "5n + 5c + 5n(c+1)"});
  const auto cw = bisd::FastScheme::predicted_cycles(march::march_cw(c), n, c);
  const auto solid = bisd::FastScheme::predicted_cycles(
      march::march_c_minus(c), n, c);
  table.add_row({"per extra background",
                 fmt_count((cw - solid) / log2c),
                 "3n + 3c + 3n(c+1)  [paper: 2n(c+1) reads]"});
  table.add_row({"March CW total", fmt_count(cw),
                 "solid + ceil(log2 c) backgrounds"});
  table.add_row({"serialized pass unit (Eq. (1))",
                 fmt_count(static_cast<std::uint64_t>(n) * c), "n * c"});
  table.print(out);
}

void print(std::ostream& out) {
  print_banner(out, "E8: March algorithm complexities (Sec. 2/3)",
               "March C- is 10n; March CW adds ceil(log2 c) background "
               "phases; a serialized pass costs n*c");
  table_library(out);
  table_equation_pieces(out);
}

}  // namespace e8

// E9 (extension) — ablations of this reproduction's design decisions, the
// ones where it deviates from the paper or makes a judgement call:
//
//  A. March CW top-up: the paper's 2-read element set (Eq. (2) exact) vs.
//     our 3-read set with the trailing verify read — cycles vs. intra-word
//     CFid coverage.
//  B. NWRTM merge style: write-back replacement (ours, 2c extra cycles) vs.
//     NWRC + immediate verify read (2n(1+c) extra) vs. classical retention
//     pauses — cycles/wall time vs. DRF coverage (all three reach 100 %).
//  C. Baseline failure-register capacity: 2 per M1 iteration (the paper's
//     bi-directional pair) — measured faults-per-iteration ceiling.
namespace e9 {

using faults::FaultKind;

sram::SramConfig geometry() {
  sram::SramConfig config;
  config.name = "abl16x8";
  config.words = 16;
  config.bits = 8;
  return config;
}

double intra_cfid_coverage(const march::MarchTest& test, FaultKind kind) {
  Rng rng(911);
  const auto population = march::make_population(
      geometry(), kind, march::CouplingScope::intra_word, 48, rng);
  return march::CoverageEvaluator(geometry())
      .evaluate(test, population)
      .detection_rate();
}

void table_topup_ablation(std::ostream& out) {
  const std::uint32_t n = 512, c = 100;
  TablePrinter table({"March CW variant", "cycles (512x100)",
                      "CFid<up;1> intra", "CFid<down;0> intra"});
  table.set_title("A. stripe top-up: Eq. (2) exactness vs. completeness");
  for (const auto& test :
       {march::march_cw_paper_topup(8), march::march_cw(8)}) {
    // Cycle cost evaluated at paper scale, coverage at 16x8.
    const auto paper_scale = test.name() == "March CW"
                                 ? march::march_cw(c)
                                 : march::march_cw_paper_topup(c);
    table.add_row(
        {test.name(),
         fmt_count(bisd::FastScheme::predicted_cycles(paper_scale, n, c)),
         fmt_percent(intra_cfid_coverage(test, FaultKind::cf_id_up1)),
         fmt_percent(intra_cfid_coverage(test, FaultKind::cf_id_down0))});
  }
  table.add_note("the paper's cheaper set leaves its last write unverified;");
  table.add_note("the verify read buys the Sec. 4.1 coverage for ~36% cycles");
  table.print(out);
  out << '\n';
}

void table_nwrtm_ablation(std::ostream& out) {
  const std::uint32_t n = 512, c = 100;
  const auto plain = bisd::FastScheme::predicted_cycles(march::march_cw(c),
                                                        n, c);
  TablePrinter table({"DRF strategy", "extra cycles", "extra wall time",
                      "DRF coverage"});
  table.set_title("B. NWRTM merge style (extra over plain March CW, "
                  "512x100)");

  const auto drf_rate = [](const march::MarchTest& test) {
    Rng rng(912);
    const auto d0 = march::make_population(
        geometry(), FaultKind::drf0, march::CouplingScope::any, 24, rng);
    const auto d1 = march::make_population(
        geometry(), FaultKind::drf1, march::CouplingScope::any, 24, rng);
    const march::CoverageEvaluator evaluator(geometry());
    const auto r0 = evaluator.evaluate(test, d0);
    const auto r1 = evaluator.evaluate(test, d1);
    return static_cast<double>(r0.detected + r1.detected) /
           static_cast<double>(r0.injected + r1.injected);
  };

  {
    const auto cycles =
        bisd::FastScheme::predicted_cycles(march::march_cw_nwrtm(c), n, c) -
        plain;
    table.add_row({"write-back replacement (ours)", fmt_count(cycles),
                   fmt_ns(static_cast<double>(cycles * 10)),
                   fmt_percent(drf_rate(march::march_cw_nwrtm(8)))});
  }
  {
    const auto cycles = bisd::FastScheme::predicted_cycles(
                            march::march_cw_nwrtm_verify(c), n, c) -
                        plain;
    table.add_row({"NWRC + verify read", fmt_count(cycles),
                   fmt_ns(static_cast<double>(cycles * 10)),
                   fmt_percent(drf_rate(march::march_cw_nwrtm_verify(8)))});
  }
  {
    const auto test = march::with_retention_pause(march::march_cw(c));
    const auto cycles =
        bisd::FastScheme::predicted_cycles(test, n, c) - plain;
    table.add_row(
        {"retention pauses (classical)", fmt_count(cycles),
         fmt_ns(static_cast<double>(cycles * 10) +
                static_cast<double>(test.total_pause_ns())),
         fmt_percent(drf_rate(
             march::with_retention_pause(march::march_cw(8))))});
  }
  table.add_note("all three reach full DRF coverage; only the replacement");
  table.add_note("fits Eq. (4)'s (2n+2c)t budget");
  table.print(out);
  out << '\n';
}

void table_register_ablation(std::ostream& out) {
  TablePrinter table({"faulty rows injected", "iterations k",
                      "new faults/iteration"});
  table.set_title("C. baseline failure-register pair: <=2 per M1 iteration");
  for (const std::uint32_t rows : {2u, 8u, 16u, 32u}) {
    std::vector<faults::FaultInstance> truth;
    for (std::uint32_t r = 0; r < rows; ++r) {
      truth.push_back(faults::make_cell_fault(
          r % 2 == 0 ? FaultKind::sa0 : FaultKind::sa1,
          {r, r % 8}));
    }
    sram::SramConfig config;
    config.name = "c";
    config.words = 64;
    config.bits = 8;
    config.spare_rows = 64;
    bisd::SocUnderTest soc;
    soc.add_memory(config, truth);
    const auto scheme = core::SchemeRegistry::global().make("baseline", {});
    const auto result = scheme->diagnose(soc);
    table.add_row({std::to_string(rows), std::to_string(result.iterations),
                   fmt_double(static_cast<double>(
                                  result.log.distinct_cell_count()) /
                                  static_cast<double>(result.iterations),
                              2)});
  }
  table.add_note("the per-iteration yield saturates below 2 — Sec. 4.2's");
  table.add_note("k = faults * coverage / 2 bookkeeping, measured");
  table.print(out);
}

void print(std::ostream& out) {
  print_banner(out, "E9 (extension): ablations of the reproduction's design "
               "decisions",
               "quantifies where the reproduction deviates from the paper");
  table_topup_ablation(out);
  table_nwrtm_ablation(out);
  table_register_ablation(out);
}

}  // namespace e9

}  // namespace

void print_paper_tables(std::ostream& out) {
  for (const auto print : {e1::print, e2::print, e3::print, e4::print,
                           e5::print, e6::print, e7::print, e8::print,
                           e9::print}) {
    print(out);
    out << '\n';
  }
}

}  // namespace fastdiag::core
