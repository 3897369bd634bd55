// The diagnosis subsystem: syndrome extraction, fault classification and
// the closed diagnose -> classify -> repair -> retest loop.
//
// The acceptance bar: for every supported FaultKind — stuck-at, transition,
// CFin/CFid (with aggressor candidates), address-decoder and DRF-via-NWRC —
// the classifier labels randomized single-fault scenarios correctly at
// >= 95%, and the closed loop ends with zero residual records whenever the
// spare budget covers the defect population.  "Correctly" is lenient in
// exactly one way: kinds the March test provably cannot separate (SA0 vs.
// TF-up when cells initialise to 0, SAF vs. the CFst that pins a cell the
// same way) tie at top confidence, and the truth must be among the tie.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/fastdiag.h"

namespace fastdiag {
namespace {

using diagnosis::FaultClassifier;
using diagnosis::ReadKey;
using faults::FaultInstance;
using faults::FaultKind;
using sram::CellCoord;
using sram::SramConfig;

SramConfig cfg(std::uint32_t words, std::uint32_t bits,
               std::uint32_t spares = 8) {
  SramConfig config;
  config.name = "d" + std::to_string(words) + "x" + std::to_string(bits);
  config.words = words;
  config.bits = bits;
  config.spare_rows = spares;
  return config;
}

CellCoord random_cell(const SramConfig& config, Rng& rng) {
  return {static_cast<std::uint32_t>(rng.uniform(config.words)),
          static_cast<std::uint32_t>(rng.uniform(config.bits))};
}

// ---- syndrome extraction --------------------------------------------------

TEST(Syndromes, FoldRecordsPerCellInMarchOrder) {
  bisd::DiagnosisLog log;
  const auto add = [&log](std::size_t mem, std::uint32_t addr,
                          std::uint32_t bit, std::size_t phase,
                          std::size_t element, std::size_t op,
                          std::uint32_t visit) {
    bisd::DiagnosisRecord record;
    record.memory_index = mem;
    record.addr = addr;
    record.bit = bit;
    record.phase = phase;
    record.element = element;
    record.op = op;
    record.visit = visit;
    log.add(record);
  };
  add(0, 3, 1, 1, 2, 0, 0);
  add(0, 3, 1, 0, 1, 0, 0);  // earlier read, logged later
  add(0, 3, 1, 0, 1, 0, 1);  // wrap revisit of the same read
  add(0, 5, 0, 0, 4, 1, 0);
  add(1, 0, 0, 0, 1, 0, 0);

  const auto syndromes = diagnosis::extract_syndromes(log, 2);
  ASSERT_EQ(syndromes.size(), 2u);
  ASSERT_EQ(syndromes[0].cells.size(), 2u);

  const auto* cell = syndromes[0].find({3, 1});
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->record_count, 3u);
  ASSERT_EQ(cell->failed_reads.size(), 3u);
  // March order: phase, element, visit, op.
  EXPECT_EQ(cell->failed_reads[0], (ReadKey{0, 1, 0, 0}));
  EXPECT_EQ(cell->failed_reads[1], (ReadKey{0, 1, 1, 0}));
  EXPECT_EQ(cell->failed_reads[2], (ReadKey{1, 2, 0, 0}));

  EXPECT_EQ(syndromes[0].row_histogram().at(3), 1u);
  EXPECT_EQ(syndromes[0].find({9, 9}), nullptr);
  EXPECT_EQ(syndromes[1].cells.size(), 1u);
}

TEST(Syndromes, DropMemoriesPastTheDeclaredCount) {
  bisd::DiagnosisLog log;
  bisd::DiagnosisRecord record;
  record.addr = 2;
  log.add(record);
  record.memory_index = 3;  // beyond the declared count of 2
  log.add(record);

  const auto syndromes = diagnosis::extract_syndromes(log, 2);
  ASSERT_EQ(syndromes.size(), 2u);
  for (std::size_t i = 0; i < syndromes.size(); ++i) {
    EXPECT_EQ(syndromes[i].memory_index, i);
  }
  EXPECT_EQ(syndromes[0].cells.size(), 1u);
  EXPECT_TRUE(syndromes[1].empty());
}

// ---- classifier: randomized single-fault scenarios ------------------------

/// Diagnoses a single-memory SoC carrying exactly @p fault and classifies
/// the result with @p classifier (shared across scenarios so the signature
/// dictionary warms once).
bool scenario_correct(const SramConfig& config, const FaultInstance& fault,
                      const FaultClassifier& classifier) {
  bisd::SocUnderTest soc;
  soc.add_memory(config, {fault});
  bisd::FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  const auto syndromes = diagnosis::extract_syndromes(result.log, 1);
  const auto classification = classifier.classify(syndromes[0]);
  const auto matrix =
      diagnosis::score_classification({fault}, classification, config);
  return matrix.lenient_accuracy() >= 1.0;
}

TEST(Classifier, LabelsEverySupportedSingleFaultKindAtLeast95Percent) {
  const auto config = cfg(12, 6);
  bisd::FastScheme scheme;
  const FaultClassifier classifier(config,
                                   scheme.test_for_width(config.bits));
  Rng rng(424242);
  constexpr int kTrials = 20;  // >= 19 correct == the 95% bar

  const FaultKind cell_kinds[] = {FaultKind::sa0,  FaultKind::sa1,
                                  FaultKind::tf_up, FaultKind::tf_down,
                                  FaultKind::drf0, FaultKind::drf1};
  for (const auto kind : cell_kinds) {
    int correct = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      correct += scenario_correct(
                     config, faults::make_cell_fault(kind, random_cell(config, rng)),
                     classifier)
                     ? 1
                     : 0;
    }
    EXPECT_GE(correct, 19) << faults::fault_kind_name(kind);
  }

  const FaultKind coupling_kinds[] = {
      FaultKind::cf_in_up,   FaultKind::cf_in_down,  FaultKind::cf_id_up0,
      FaultKind::cf_id_up1,  FaultKind::cf_id_down0, FaultKind::cf_id_down1,
      FaultKind::cf_st_00,   FaultKind::cf_st_01,    FaultKind::cf_st_10,
      FaultKind::cf_st_11};
  for (const auto kind : coupling_kinds) {
    int correct = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const auto aggressor = random_cell(config, rng);
      auto victim = random_cell(config, rng);
      if (rng.bernoulli(0.5)) {
        victim.row = aggressor.row;  // force the intra-word path
      }
      if (victim == aggressor) {
        victim.bit = (victim.bit + 1) % config.bits;
        if (victim == aggressor) {
          victim.row = (victim.row + 1) % config.words;
        }
      }
      correct += scenario_correct(
                     config,
                     faults::make_coupling_fault(kind, aggressor, victim),
                     classifier)
                     ? 1
                     : 0;
    }
    EXPECT_GE(correct, 19) << faults::fault_kind_name(kind);
  }

  const FaultKind af_kinds[] = {FaultKind::af_no_access,
                                FaultKind::af_wrong_row,
                                FaultKind::af_extra_row};
  for (const auto kind : af_kinds) {
    int correct = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const auto addr =
          static_cast<std::uint32_t>(rng.uniform(config.words));
      FaultInstance fault;
      if (kind == FaultKind::af_no_access) {
        fault = faults::make_address_fault(kind, addr);
      } else {
        std::uint32_t other =
            static_cast<std::uint32_t>(rng.uniform(config.words - 1));
        if (other >= addr) {
          ++other;
        }
        fault = faults::make_address_fault(kind, addr, other);
      }
      correct += scenario_correct(config, fault, classifier) ? 1 : 0;
    }
    EXPECT_GE(correct, 19) << faults::fault_kind_name(kind);
  }
}

TEST(Classifier, StuckAtZeroAndTfUpTieHonestly) {
  // A cell that never leaves 0 is SA0 or TF-up — no march that initialises
  // to 0 can tell them apart; the verdict must carry both.
  const auto config = cfg(12, 6);
  bisd::FastScheme scheme;
  const FaultClassifier classifier(config,
                                   scheme.test_for_width(config.bits));
  bisd::SocUnderTest soc;
  soc.add_memory(config,
                 {faults::make_cell_fault(FaultKind::sa0, {5, 2})});
  const auto result = scheme.diagnose(soc);
  const auto syndromes = diagnosis::extract_syndromes(result.log, 1);
  const auto classification = classifier.classify(syndromes[0]);
  ASSERT_EQ(classification.sites.size(), 1u);
  const auto top = classification.sites[0].top_kinds();
  EXPECT_NE(std::find(top.begin(), top.end(), FaultKind::sa0), top.end());
  EXPECT_NE(std::find(top.begin(), top.end(), FaultKind::tf_up), top.end());
  EXPECT_DOUBLE_EQ(classification.sites[0].top_confidence(), 1.0);
}

TEST(Classifier, AggressorHintsAdmitTheTrueAggressor) {
  const auto config = cfg(12, 6);
  bisd::FastScheme scheme;
  const FaultClassifier classifier(config,
                                   scheme.test_for_width(config.bits));
  Rng rng(777);
  int hinted = 0;
  constexpr int kTrials = 24;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto aggressor = random_cell(config, rng);
    auto victim = random_cell(config, rng);
    if (victim == aggressor) {
      victim.bit = (victim.bit + 1) % config.bits;
    }
    const auto fault =
        faults::make_coupling_fault(FaultKind::cf_id_up1, aggressor, victim);
    bisd::SocUnderTest soc;
    soc.add_memory(config, {fault});
    const auto result = bisd::FastScheme().diagnose(soc);
    const auto syndromes = diagnosis::extract_syndromes(result.log, 1);
    const auto classification = classifier.classify(syndromes[0]);
    for (const auto& site : classification.sites) {
      for (const auto& hypothesis : site.hypotheses) {
        if (hypothesis.kind == fault.kind &&
            hypothesis.confidence == site.top_confidence() &&
            hypothesis.aggressor.admits(fault)) {
          ++hinted;
          goto next_trial;
        }
      }
    }
  next_trial:;
  }
  EXPECT_GE(hinted, 23) << "aggressor hints must admit the true aggressor";
}

// ---- confusion matrix -----------------------------------------------------

TEST(ConfusionMatrix, CountsAndAccuracies) {
  faults::ConfusionMatrix matrix;
  matrix.add(FaultKind::sa0, FaultKind::sa0, true);
  matrix.add(FaultKind::tf_up, FaultKind::sa0, true);   // tie, truth in top
  matrix.add(FaultKind::drf0, FaultKind::cf_id_up1, false);
  matrix.add(FaultKind::sa1, std::nullopt, false);      // never surfaced
  matrix.add_spurious(FaultKind::sa0);

  EXPECT_EQ(matrix.truths(), 4u);
  EXPECT_EQ(matrix.missed(), 1u);
  EXPECT_EQ(matrix.spurious(), 1u);
  EXPECT_EQ(matrix.spurious(FaultKind::sa0), 1u);
  EXPECT_EQ(matrix.spurious(FaultKind::sa1), 0u);
  EXPECT_EQ(matrix.count(FaultKind::sa0, FaultKind::sa0), 1u);
  EXPECT_EQ(matrix.count(FaultKind::tf_up, FaultKind::sa0), 1u);
  EXPECT_DOUBLE_EQ(matrix.strict_accuracy(), 0.25);
  EXPECT_DOUBLE_EQ(matrix.lenient_accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(matrix.class_accuracy(FaultKind::tf_up), 1.0);
  EXPECT_DOUBLE_EQ(matrix.class_accuracy(FaultKind::drf0), 0.0);

  faults::ConfusionMatrix other;
  other.add(FaultKind::sa0, FaultKind::sa0, true);
  matrix.merge(other);
  EXPECT_EQ(matrix.truths(), 5u);
  EXPECT_EQ(matrix.count(FaultKind::sa0, FaultKind::sa0), 2u);
  EXPECT_DOUBLE_EQ(matrix.lenient_accuracy(), 0.6);
}

TEST(ConfusionMatrix, StrictNeverExceedsLenient) {
  // A coupling whose kind is the sole top prediction but whose aggressor
  // hint does not admit the truth is not among-top — and must not count as
  // strict-correct either, or "strict" would read above "lenient".
  faults::ConfusionMatrix matrix;
  matrix.add(FaultKind::cf_id_up1, FaultKind::cf_id_up1, false);
  EXPECT_DOUBLE_EQ(matrix.strict_accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(matrix.lenient_accuracy(), 0.0);
  matrix.add(FaultKind::cf_id_up1, FaultKind::cf_id_up1, true);
  EXPECT_DOUBLE_EQ(matrix.strict_accuracy(), 0.5);
  EXPECT_LE(matrix.strict_accuracy(), matrix.lenient_accuracy());
}

// ---- classifier cache -----------------------------------------------------

TEST(ClassifierCache, KeysOnRetentionNotJustGeometry) {
  const auto test = bisd::FastScheme().test_for_width(8);
  diagnosis::ClassifierCache cache;
  diagnosis::ClassifierOptions options;

  auto fast_decay = cfg(16, 8);
  fast_decay.retention_ns = 100;  // decays during the march pauses
  const auto a = cache.get(cfg(16, 8), test, options);
  const auto b = cache.get(fast_decay, test, options);
  const auto c = cache.get(cfg(16, 8), test, options);
  EXPECT_NE(a.get(), b.get())
      << "same geometry, different retention must not share "
         "a signature dictionary";
  EXPECT_EQ(a.get(), c.get())
      << "identical shape must hit the cached classifier";

  auto slow_clock = options;
  slow_clock.clock.period_ns = 100;  // probes elapse on a different timebase
  const auto d = cache.get(cfg(16, 8), test, slow_clock);
  EXPECT_NE(a.get(), d.get())
      << "probe clock is signature-relevant and must key the cache";
}

TEST(ClassifierCache, SharedCacheMatchesLocalClassification) {
  std::vector<SramConfig> configs = {cfg(16, 8), cfg(16, 8), cfg(12, 6)};
  faults::InjectionSpec spec;
  spec.cell_defect_rate = 0.02;
  auto soc = bisd::SocUnderTest::from_injection(configs, spec, 77);
  bisd::FastScheme scheme;
  const auto result = scheme.diagnose(soc);
  const auto syndromes =
      diagnosis::extract_syndromes(result.log, soc.memory_count());
  const auto test = scheme.test_for_width(soc.max_bits());

  const auto local = diagnosis::classify_soc(soc, syndromes, test);
  diagnosis::ClassifierCache cache;
  const auto warm_up = diagnosis::classify_soc(soc, syndromes, test, {}, &cache);
  const auto cached = diagnosis::classify_soc(soc, syndromes, test, {}, &cache);

  ASSERT_EQ(local.memories.size(), cached.memories.size());
  for (std::size_t i = 0; i < local.memories.size(); ++i) {
    EXPECT_EQ(local.memories[i].to_string(), cached.memories[i].to_string());
  }
  EXPECT_DOUBLE_EQ(local.confusion.lenient_accuracy(),
                   cached.confusion.lenient_accuracy());
  EXPECT_EQ(warm_up.memories.size(), cached.memories.size());
}

// ---- closed loop ----------------------------------------------------------

TEST(ClosedLoop, EndsCleanWheneverSparesSuffice) {
  // Heterogeneous SoC (the narrow memory wraps under the controller sweep),
  // spare budget equal to the word count — every faulty row is repairable,
  // so execute's retest must come back empty.
  for (const std::uint64_t seed : {3ull, 17ull, 91ull, 2026ull}) {
    const auto spec = core::SessionSpec::builder()
                          .add_sram(cfg(16, 10, 16))
                          .add_sram(cfg(8, 6, 8))
                          .add_sram(cfg(12, 14, 12))
                          .defect_rate(0.03)
                          .include_retention_faults(true)
                          .seed(seed)
                          .classify(true)
                          .with_repair(true)
                          .build();
    ASSERT_TRUE(spec.has_value()) << spec.error().to_string();
    const auto report = core::DiagnosisEngine::execute(spec.value());
    ASSERT_TRUE(report.repair.has_value()) << "seed " << seed;
    EXPECT_TRUE(report.repair->fully_repairable()) << "seed " << seed;
    EXPECT_TRUE(report.repair_verified_clean) << "seed " << seed;
    ASSERT_TRUE(report.classification.has_value()) << "seed " << seed;
    EXPECT_EQ(report.classification->memories.size(), 3u);
    // Every observed site must receive at least a partial hypothesis.
    for (const auto& memory : report.classification->memories) {
      EXPECT_EQ(memory.classified_sites(), memory.sites.size())
          << "seed " << seed;
    }
  }
}

// ---- engine integration ---------------------------------------------------

TEST(Engine, ClassifySpecPopulatesReports) {
  const auto spec = core::SessionSpec::builder()
                        .add_sram(cfg(16, 8))
                        .add_sram(cfg(8, 12))
                        .defect_rate(0.02)
                        .seed(5)
                        .classify(true)
                        .build();
  ASSERT_TRUE(spec.has_value());
  const auto report = core::DiagnosisEngine::execute(spec.value());
  ASSERT_TRUE(report.classification.has_value());
  EXPECT_EQ(report.classification->memories.size(), 2u);
  EXPECT_GT(report.classification->site_count(), 0u);
  EXPECT_GE(report.classification->confusion.lenient_accuracy(), 0.5);
  EXPECT_NE(report.summary().find("classify accuracy"), std::string::npos);

  // Without the flag the outcome stays empty.
  const auto plain = core::SessionSpec::builder()
                         .add_sram(cfg(16, 8))
                         .defect_rate(0.02)
                         .seed(5)
                         .build();
  ASSERT_TRUE(plain.has_value());
  EXPECT_FALSE(core::DiagnosisEngine::execute(plain.value())
                   .classification.has_value());

  // The baseline's pass-attributed log cannot feed the classifier.
  const auto baseline = core::SessionSpec::builder()
                            .add_sram(cfg(16, 8))
                            .defect_rate(0.02)
                            .seed(5)
                            .scheme("baseline")
                            .classify(true)
                            .build();
  ASSERT_TRUE(baseline.has_value());
  EXPECT_FALSE(core::DiagnosisEngine::execute(baseline.value())
                   .classification.has_value());
}

TEST(Engine, AggregateReportCarriesClassificationStats) {
  core::SweepSpec sweep;
  sweep.base = core::SessionSpec::builder()
                   .add_sram(cfg(12, 6))
                   .defect_rate(0.03)
                   .classify(true);
  sweep.seeds = {1, 2, 3};
  const core::DiagnosisEngine engine({.workers = 1});
  const auto batch = engine.run_sweep(sweep);
  ASSERT_TRUE(batch.has_value());
  const auto stats = batch.value().classification_accuracy_stats();
  EXPECT_GT(stats.mean, 0.0);
  EXPECT_NE(batch.value().summary().find("classify accuracy"),
            std::string::npos);
}

TEST(Engine, ClassificationIsDeterministicAcrossWorkerCounts) {
  // Workers share one ClassifierCache per batch; the verdicts must not
  // depend on which thread warmed which dictionary.
  core::SweepSpec sweep;
  sweep.base = core::SessionSpec::builder()
                   .add_sram(cfg(16, 8))
                   .add_sram(cfg(8, 12))
                   .defect_rate(0.03)
                   .classify(true);
  sweep.seeds = {1, 2, 3, 4, 5, 6};
  const auto serial = core::DiagnosisEngine({.workers = 1}).run_sweep(sweep);
  const auto threaded = core::DiagnosisEngine({.workers = 4}).run_sweep(sweep);
  ASSERT_TRUE(serial.has_value());
  ASSERT_TRUE(threaded.has_value());
  ASSERT_EQ(serial.value().runs.size(), threaded.value().runs.size());
  for (std::size_t i = 0; i < serial.value().runs.size(); ++i) {
    const auto& a = serial.value().runs[i];
    const auto& b = threaded.value().runs[i];
    ASSERT_EQ(a.classification.has_value(), b.classification.has_value());
    EXPECT_EQ(a.summary(), b.summary());
    ASSERT_TRUE(a.classification.has_value());
    ASSERT_EQ(a.classification->memories.size(),
              b.classification->memories.size());
    for (std::size_t m = 0; m < a.classification->memories.size(); ++m) {
      EXPECT_EQ(a.classification->memories[m].to_string(),
                b.classification->memories[m].to_string());
    }
  }
}

// ---- instance-sliced dictionary builds ------------------------------------
//
// The instance_sliced mode packs independent candidates into probe lanes
// and replays up to 64 lanes per faults::OverlaySlab; it must be a pure
// performance transformation of the per_candidate reference.  Verdicts must
// match byte for byte (the per-site to_string dump covers kinds,
// confidences, placements and aggressor candidate bits), and so must the
// exported dictionaries — every slot of every key.

/// The syndrome a lone @p fault leaves on @p config under the fast scheme;
/// next to @p sweep_partner when given, whose deeper sweep @p config wraps.
diagnosis::MemorySyndrome single_fault_syndrome(
    const SramConfig& config, const FaultInstance& fault,
    const SramConfig* sweep_partner = nullptr) {
  bisd::SocUnderTest soc;
  if (sweep_partner != nullptr) {
    soc.add_memory(*sweep_partner);
  }
  soc.add_memory(config, {fault});
  const auto result = bisd::FastScheme().diagnose(soc);
  const std::size_t count = soc.memory_count();
  return diagnosis::extract_syndromes(result.log, count)[count - 1];
}

std::vector<FaultInstance> build_kind_corpus(const SramConfig& config,
                                             Rng& rng, int per_kind) {
  std::vector<FaultInstance> corpus;
  const FaultKind cell_kinds[] = {FaultKind::sa0,   FaultKind::sa1,
                                  FaultKind::tf_up, FaultKind::tf_down,
                                  FaultKind::sof,   FaultKind::drf0,
                                  FaultKind::drf1};
  for (const auto kind : cell_kinds) {
    for (int t = 0; t < per_kind; ++t) {
      corpus.push_back(
          faults::make_cell_fault(kind, random_cell(config, rng)));
    }
  }
  const FaultKind coupling_kinds[] = {
      FaultKind::cf_in_up,   FaultKind::cf_in_down,  FaultKind::cf_id_up0,
      FaultKind::cf_id_up1,  FaultKind::cf_id_down0, FaultKind::cf_id_down1,
      FaultKind::cf_st_00,   FaultKind::cf_st_01,    FaultKind::cf_st_10,
      FaultKind::cf_st_11};
  for (const auto kind : coupling_kinds) {
    for (int t = 0; t < per_kind; ++t) {
      const auto aggressor = random_cell(config, rng);
      auto victim = random_cell(config, rng);
      if (rng.bernoulli(0.5)) {
        victim.row = aggressor.row;  // force the intra-word path
      }
      if (victim == aggressor) {
        victim.bit = (victim.bit + 1) % config.bits;
        if (victim == aggressor) {
          victim.row = (victim.row + 1) % config.words;
        }
      }
      corpus.push_back(faults::make_coupling_fault(kind, aggressor, victim));
    }
  }
  const FaultKind af_kinds[] = {FaultKind::af_no_access,
                                FaultKind::af_wrong_row,
                                FaultKind::af_extra_row};
  for (const auto kind : af_kinds) {
    for (int t = 0; t < per_kind; ++t) {
      const auto addr =
          static_cast<std::uint32_t>(rng.uniform(config.words));
      if (kind == FaultKind::af_no_access) {
        corpus.push_back(faults::make_address_fault(kind, addr));
        continue;
      }
      std::uint32_t other =
          static_cast<std::uint32_t>(rng.uniform(config.words - 1));
      if (other >= addr) {
        ++other;
      }
      corpus.push_back(faults::make_address_fault(kind, addr, other));
    }
  }
  return corpus;
}

/// Classifies one fabricated single-cell syndrome per dictionary key so
/// every mode's lazy cache fills completely: instance_sliced batch-fills all
/// keys on first touch, per_candidate needs each key requested.
void warm_all_cell_keys(const FaultClassifier& classifier,
                        const SramConfig& config,
                        std::uint32_t global_words = 0) {
  std::vector<std::uint32_t> rows;
  if (global_words > config.words) {
    for (std::uint32_t row = 0; row < config.words; ++row) {
      rows.push_back(row);  // per_candidate keys wrapped rows exactly
    }
  } else {
    rows.push_back(0);
    if (config.words >= 3) {
      rows.push_back(config.words / 2);
    }
    if (config.words >= 2) {
      rows.push_back(config.words - 1);
    }
  }
  for (const auto row : rows) {
    for (std::uint32_t bit = 0; bit < config.bits; ++bit) {
      diagnosis::MemorySyndrome syndrome;
      syndrome.cells.push_back({{row, bit}, {}, 0});
      (void)classifier.classify(syndrome);
    }
  }
}

TEST(InstanceSliced, DictionariesByteIdenticalAcrossModes) {
  // Even and odd IO widths (the odd width exercises the packing plan's
  // round-robin bye column and the slab's partial-limb tails).
  for (const auto& config : {cfg(12, 6), cfg(9, 5)}) {
    bisd::FastScheme scheme;
    const auto test = scheme.test_for_width(config.bits);
    diagnosis::ClassifierOptions options;
    options.build_mode = diagnosis::DictionaryBuildMode::per_candidate;
    const FaultClassifier reference(config, test, options);
    warm_all_cell_keys(reference, config);
    const auto want = reference.export_dictionaries();
    ASSERT_FALSE(want.cells.empty());

    options.build_mode = diagnosis::DictionaryBuildMode::instance_sliced;
    const FaultClassifier instance(config, test, options);
    warm_all_cell_keys(instance, config);
    EXPECT_TRUE(want == instance.export_dictionaries()) << config.name;
    EXPECT_GT(instance.dictionary_stats().slab_lanes, 0u);
  }
}

struct WrapComparison {
  std::size_t mismatches = 0;
  std::size_t class_keyed_rows = 0;  ///< rows keyed on another row
};

/// Counts the rows x bits of a @p words x @p bits memory swept @p sweep
/// steps under @p test whose class-keyed instance_sliced cell dictionary,
/// or whose row dictionary, differs from the exact-row per_candidate one.
/// Each mismatch is reported through ADD_FAILURE.
WrapComparison compare_wrapped_dictionaries(const march::MarchTest& test,
                                            std::uint32_t words,
                                            std::uint32_t bits,
                                            std::uint32_t sweep,
                                            std::uint64_t retention_ns) {
  auto config = cfg(words, bits);
  config.retention_ns = retention_ns;
  diagnosis::ClassifierOptions options;
  options.global_words = sweep;
  options.build_mode = diagnosis::DictionaryBuildMode::per_candidate;
  const FaultClassifier reference(config, test, options);
  options.build_mode = diagnosis::DictionaryBuildMode::instance_sliced;
  const FaultClassifier instance(config, test, options);
  const std::string where = test.name() + " " + std::to_string(words) + "x" +
                            std::to_string(bits) + " sweep " +
                            std::to_string(sweep) + " retention " +
                            std::to_string(retention_ns) + " ns";
  WrapComparison out;
  for (std::uint32_t row = 0; row < words; ++row) {
    EXPECT_EQ(reference.key_row(row), row) << where;
    out.class_keyed_rows += instance.key_row(row) != row ? 1 : 0;
    for (std::uint32_t bit = 0; bit < bits; ++bit) {
      if (!(instance.cell_dictionary({row, bit}) ==
            reference.cell_dictionary({row, bit}))) {
        ++out.mismatches;
        ADD_FAILURE() << where << ": cell dictionary of (" << row << ","
                      << bit << ") keyed on row " << instance.key_row(row);
      }
    }
    if (!(instance.row_dictionary(row) == reference.row_dictionary(row))) {
      ++out.mismatches;
      ADD_FAILURE() << where << ": row dictionary of row " << row
                    << " keyed on row " << instance.key_row(row);
    }
  }
  return out;
}

TEST(InstanceSliced, DictionariesByteIdenticalUnderWrapAround) {
  // Class keys are exact: for every row and bit of every small wrapped
  // geometry (words 3-7, every wrapping sweep up to 3 * words + 1, bits
  // 1-2), the dictionary the class-keyed instance_sliced classifier
  // matches against equals the exact-row per_candidate one.  At 200 ns
  // retention a hold time inside one replay reaches the threshold, so the
  // timing guard must fall back to exact rows; at 50 ms it keys by class.
  // FASTDIAG_WRAP_CLASS_LONG=1 widens the domain to words 3-14, bits 1-3,
  // March CW+NWRTM, March CW and March C-, and retention 200 ns, 2 us and
  // 50 ms.
  const bool long_mode = std::getenv("FASTDIAG_WRAP_CLASS_LONG") != nullptr;
  const std::uint32_t max_words = long_mode ? 14 : 7;
  const std::uint32_t max_bits = long_mode ? 3 : 2;
  std::vector<std::uint64_t> retentions{200, 50'000'000};
  if (long_mode) {
    retentions.insert(retentions.begin() + 1, 2'000);
  }
  struct Geometry {
    march::MarchTest test;
    std::uint32_t words, bits, sweep;
    std::uint64_t retention_ns;
  };
  std::vector<Geometry> domain;
  for (std::uint32_t bits = 1; bits <= max_bits; ++bits) {
    std::vector<march::MarchTest> tests{march::march_cw_nwrtm(bits)};
    if (long_mode) {
      tests.push_back(march::march_cw(bits));
      tests.push_back(march::march_c_minus(bits));
    }
    for (const auto& test : tests) {
      for (std::uint32_t words = 3; words <= max_words; ++words) {
        for (std::uint32_t sweep = words + 1; sweep <= 3 * words + 1;
             ++sweep) {
          for (const auto retention : retentions) {
            domain.push_back({test, words, bits, sweep, retention});
          }
        }
      }
    }
  }
  // Geometries are independent: spread them over a few threads.
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> short_retention_class_rows{0};
  std::atomic<std::size_t> long_retention_class_rows{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < domain.size(); i = next++) {
      const auto& g = domain[i];
      const auto result = compare_wrapped_dictionaries(
          g.test, g.words, g.bits, g.sweep, g.retention_ns);
      mismatches += result.mismatches;
      (g.retention_ns == 200 ? short_retention_class_rows
                             : long_retention_class_rows) +=
          result.class_keyed_rows;
    }
  };
  std::vector<std::thread> threads(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u) - 1);
  for (auto& thread : threads) {
    thread = std::thread(worker);
  }
  worker();
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0u) << "over " << domain.size()
                                   << " geometries";
  // The guard keeps 200 ns on exact rows; 50 ms really keys by class.
  EXPECT_EQ(short_retention_class_rows.load(), 0u);
  EXPECT_GT(long_retention_class_rows.load(), 0u);

  // The original probe: a 6-word memory under a 16-step controller sweep
  // (remainder 4) and a test wider than the memory.  Wrapped builds replay
  // with the golden-shadow expectation, so the probe batches run the wrap
  // demux path too.
  const auto narrow = cfg(6, 4);
  const std::uint32_t sweep = 16;
  bisd::FastScheme scheme;
  const auto test = scheme.test_for_width(8);
  diagnosis::ClassifierOptions options;
  options.global_words = sweep;
  options.build_mode = diagnosis::DictionaryBuildMode::per_candidate;
  const FaultClassifier reference(narrow, test, options);
  warm_all_cell_keys(reference, narrow, sweep);
  ASSERT_FALSE(reference.export_dictionaries().cells.empty());
  EXPECT_EQ(compare_wrapped_dictionaries(test, narrow.words, narrow.bits,
                                         sweep, narrow.retention_ns)
                .mismatches,
            0u);
}

TEST(InstanceSliced, WrappedDictionariesStayBoundedAtAnyDepth) {
  // A timing-safe wrapped classifier keys at most 10 row classes per bit
  // whatever its depth (exact rows would need words x bits keys), and
  // while the read universe fits in 128 bits each cell signature costs at
  // most 32 bytes: its record plus two mask limbs.
  bisd::FastScheme scheme;
  const auto test = scheme.test_for_width(4);
  for (const std::uint32_t words : {129u, 200u, 255u}) {
    const auto config = cfg(words, 4);
    diagnosis::ClassifierOptions options;
    options.global_words = 256;
    const FaultClassifier classifier(config, test, options);
    ASSERT_LE(classifier.read_universe().size(), 128u);
    for (std::uint32_t row = 0; row < words; ++row) {
      for (std::uint32_t bit = 0; bit < config.bits; ++bit) {
        (void)classifier.cell_dictionary({row, bit});
      }
    }
    const auto stats = classifier.dictionary_stats();
    const auto snapshot = classifier.export_dictionaries();
    EXPECT_LE(stats.dictionary_keys, 10u * config.bits) << words;
    EXPECT_EQ(snapshot.cells.size(), stats.dictionary_keys) << words;
    std::size_t signatures = 0;
    for (const auto& [key, dictionary] : snapshot.cells) {
      signatures += dictionary.signatures.size();
    }
    EXPECT_GT(stats.dictionary_bytes, 0u) << words;
    EXPECT_LE(stats.dictionary_bytes, 32u * signatures) << words;
  }
}

TEST(InstanceSliced, VerdictsIdenticalToPerCandidateAcrossKindCorpus) {
  // Even and odd IO widths (the odd width exercises the packing plan's
  // round-robin bye column), and a 6-word memory next to a 16-word one:
  // it wraps the shared sweep with remainder 4, so dictionaries key on
  // exact rows and the partial-wrap boundary gets its own aggressor
  // representatives — the wrap-side packing plan.
  const auto wide = cfg(16, 8);
  const struct {
    SramConfig config;
    const SramConfig* sweep_partner;
    std::uint64_t seed;
  } cases[] = {{cfg(12, 6), nullptr, 20260807},
               {cfg(9, 5), nullptr, 20260730},
               {cfg(6, 4), &wide, 20260731}};
  for (const auto& c : cases) {
    const SramConfig* partner = c.sweep_partner;
    bisd::FastScheme scheme;
    const auto test =
        scheme.test_for_width(partner != nullptr ? partner->bits
                                                 : c.config.bits);
    diagnosis::ClassifierOptions options;
    options.global_words = partner != nullptr ? partner->words : 0;
    options.build_mode = diagnosis::DictionaryBuildMode::per_candidate;
    const FaultClassifier reference(c.config, test, options);
    options.build_mode = diagnosis::DictionaryBuildMode::instance_sliced;
    const FaultClassifier instance(c.config, test, options);

    Rng rng(c.seed);
    for (const auto& fault : build_kind_corpus(c.config, rng, 3)) {
      const auto syndrome = single_fault_syndrome(c.config, fault, partner);
      EXPECT_EQ(reference.classify(syndrome).to_string(),
                instance.classify(syndrome).to_string())
          << c.config.name << " fault: " << fault.to_string();
    }
  }
}

TEST(InstanceSliced, CacheStatsCountBuildsAndSharing) {
  const auto config = cfg(12, 6);
  bisd::FastScheme scheme;
  const auto test = scheme.test_for_width(config.bits);
  diagnosis::ClassifierCache cache;
  diagnosis::ClassifierOptions options;  // instance_sliced default

  const auto first = cache.get(config, test, options);
  const auto again = cache.get(config, test, options);
  EXPECT_EQ(first.get(), again.get());
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.slab_lanes, 0u);  // dictionaries build lazily

  const auto syndrome = single_fault_syndrome(
      config, faults::make_cell_fault(FaultKind::sa1, {5, 2}));
  (void)first->classify(syndrome);
  stats = cache.stats();
  EXPECT_GT(stats.dictionary_keys, 0u);
  // The default instance_sliced mode replays the cell plan as slab lanes —
  // up to 64 per batch — instead of one-by-one probe replays.
  EXPECT_GT(stats.slab_lanes, 0u);
  EXPECT_GT(stats.slab_batches, 0u);
  EXPECT_LE(stats.slab_batches, (stats.slab_lanes + 63) / 64);
  EXPECT_GE(stats.build_seconds, 0.0);

  // A second classification of the same shape hits the dictionary cache.
  const auto replays = stats.probe_replays;
  const auto lanes = stats.slab_lanes;
  (void)first->classify(syndrome);
  EXPECT_EQ(cache.stats().probe_replays, replays);
  EXPECT_EQ(cache.stats().slab_lanes, lanes);

  // Build modes must not share classifiers (different dictionaries paths).
  diagnosis::ClassifierOptions reference_options = options;
  reference_options.build_mode =
      diagnosis::DictionaryBuildMode::per_candidate;
  const auto reference = cache.get(config, test, reference_options);
  EXPECT_NE(first.get(), reference.get());
}

}  // namespace
}  // namespace fastdiag
