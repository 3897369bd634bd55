#include "replica.h"

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "bisd/repair.h"
#include "bisd/soc.h"
#include "core/registry.h"
#include "diagnosis/syndrome.h"

namespace perfbench {

namespace {

using namespace fastdiag;

/// The engine's in-field scoring, rebuilt from the public accessors it
/// reads (scan_info, the log, each memory's SoftErrorBehavior).  The byte
/// comparison against execute() catches any drift from the engine's copy.
core::SoftErrorOutcome score_soft_error(bisd::SocUnderTest& soc,
                                        const bisd::DiagnosisScheme& scheme,
                                        const bisd::DiagnosisLog& log) {
  core::SoftErrorOutcome out;
  const auto info = scheme.scan_info();
  if (info) {
    out.scan_sweeps = info->sweep_count;
    out.scrub_writes = info->scrub_writes;
  }
  std::map<std::tuple<std::size_t, std::uint32_t, std::uint32_t>,
           std::vector<std::uint64_t>>
      hits;
  for (const auto& record : log.records()) {
    hits[{record.memory_index, record.addr, record.bit}].push_back(
        static_cast<std::uint64_t>(record.element));
  }
  for (std::size_t m = 0; m < soc.memory_count(); ++m) {
    auto* soft = soc.soft_behavior(m);
    if (soft == nullptr) continue;
    auto& memory = soc.memory(m);
    soft->commit_up_to(memory.cells_mut(), memory.now_ns());
    out.escaped_cells +=
        soft->escaped_cells(memory.cells_mut(), memory.now_ns());
    out.ecc_corrected += soft->ecc_stats().corrected;
    out.ecc_miscorrected += soft->ecc_stats().miscorrected;
    out.ecc_uncorrectable += soft->ecc_stats().uncorrectable;
    const std::uint32_t data_bits = soc.config(m).bits;
    for (const auto& event : soft->events()) {
      ++out.injected_upsets;
      if (event.kind != faults::UpsetKind::transient ||
          event.cell.bit >= data_bits) {
        continue;
      }
      ++out.transient_upsets;
      if (!info) continue;
      const std::uint64_t window = info->window_of(event.time_ns);
      if (window >= info->sweep_count) continue;
      ++out.scored_upsets;
      const auto it = hits.find({m, event.cell.row, event.cell.bit});
      if (it == hits.end()) continue;
      bool detected = false;
      bool resolved = false;
      for (const std::uint64_t element : it->second) {
        detected = detected || element >= window;
        resolved = resolved || element == window;
      }
      out.detected_upsets += detected ? 1 : 0;
      out.correct_window += resolved ? 1 : 0;
    }
  }
  return out;
}

}  // namespace

core::Report traced_execute(const core::SessionSpec& spec,
                            diagnosis::ClassifierCache& cache, Tracer& tracer,
                            std::uint64_t run, LayerCounters& counters) {
  const Tracer::Scope run_span(tracer, "core.run", run);
  const faults::SoftErrorSpec& soft = spec.soft_error();

  bisd::SocUnderTest soc;
  {
    const Tracer::Scope span(tracer, "faults.inject", run);
    soc = bisd::SocUnderTest::from_injection(
        spec.configs(), spec.injection(), spec.seed(),
        soft.enabled ? &soft : nullptr);
    soc.set_access_kernel(spec.access_kernel());
  }
  ++counters.runs;
  counters.memories += soc.memory_count();
  for (const auto& group : soc.slice_groups()) {
    counters.sliced_memories += group.members.size();
  }
  counters.injected += soc.total_faults();
  for (std::size_t m = 0; m < soc.memory_count(); ++m) {
    counters.upsets += soc.upsets(m).size();
  }

  std::unique_ptr<bisd::DiagnosisScheme> scheme;
  {
    const Tracer::Scope span(tracer, "bisd.make_scheme", run);
    scheme = core::SchemeRegistry::global().make(
        spec.scheme(), {.clock = spec.clock(), .soft_error = soft});
  }

  core::Report report;
  report.scheme_name = spec.scheme();
  report.scheme_description = scheme->name();
  report.seed = spec.seed();
  report.defect_rate = spec.injection().cell_defect_rate;
  report.injected_faults = soc.total_faults();
  {
    const Tracer::Scope span(tracer, "bisd.diagnose", run);
    report.result = scheme->diagnose(soc);
  }
  report.total_ns = report.result.total_ns(spec.clock());
  counters.records += report.result.log.records().size();
  counters.sim_cycles += report.result.time.cycles;
  for (std::size_t m = 0; m < soc.memory_count(); ++m) {
    const auto& ops = soc.memory(m).counters();
    counters.ops += ops.reads + ops.writes + ops.nwrc_writes;
  }

  {
    const Tracer::Scope span(tracer, "faults.score", run);
    for (std::size_t i = 0; i < soc.memory_count(); ++i) {
      report.matches.push_back(faults::match_diagnosis(
          soc.truth(i), report.result.log.cells(i), soc.config(i)));
    }
  }

  if (soft.enabled) {
    const Tracer::Scope span(tracer, "core.soft_score", run);
    report.soft_error = score_soft_error(soc, *scheme, report.result.log);
  }
  if (report.soft_error) {
    counters.scan_sweeps += report.soft_error->scan_sweeps;
    counters.scrub_writes += report.soft_error->scrub_writes;
    counters.ecc_corrected += report.soft_error->ecc_corrected;
    counters.ecc_miscorrected += report.soft_error->ecc_miscorrected;
  }

  if (spec.classify()) {
    if (const auto test = scheme->classification_test(soc.max_bits())) {
      std::vector<diagnosis::MemorySyndrome> syndromes;
      {
        const Tracer::Scope span(tracer, "diagnosis.syndrome", run);
        syndromes = diagnosis::extract_syndromes(report.result.log,
                                                 soc.memory_count());
      }
      const Tracer::Scope span(tracer, "diagnosis.classify", run);
      diagnosis::ClassifierOptions options;
      options.clock = spec.clock();
      auto classification =
          diagnosis::classify_soc(soc, syndromes, *test, options, &cache);
      report.classification =
          core::ClassificationOutcome{std::move(classification.memories),
                                      std::move(classification.confusion)};
    }
  }
  if (report.classification) {
    counters.sites += report.classification->site_count();
    counters.classified_sites +=
        report.classification->classified_site_count();
  }

  if (spec.repair()) {
    bool repairable = false;
    {
      const Tracer::Scope span(tracer, "bisd.repair", run);
      if (spec.column_spares()) {
        report.repair_2d = bisd::plan_repair_2d(report.result.log, soc);
        bisd::apply_repair(soc, *report.repair_2d);
        repairable = report.repair_2d->fully_repairable();
      } else {
        report.repair = bisd::plan_repair(report.result.log, soc);
        bisd::apply_repair(soc, *report.repair);
        repairable = report.repair->fully_repairable();
      }
    }
    const Tracer::Scope span(tracer, "bisd.retest", run);
    const auto verify = scheme->diagnose(soc);
    report.repair_verified_clean = repairable && verify.log.empty();
  }
  return report;
}

}  // namespace perfbench
