// Tests for the v2 API machinery: SessionSpec validation through
// Expected<_, ConfigError>, the SchemeRegistry, sweep expansion, and the
// batched parallel DiagnosisEngine (including serial-vs-parallel
// bit-identity).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/fastdiag.h"
#include "service/serialize.h"

namespace fastdiag::core {
namespace {

sram::SramConfig small(const std::string& name, std::uint32_t words,
                       std::uint32_t bits, std::uint32_t spares = 16) {
  sram::SramConfig config;
  config.name = name;
  config.words = words;
  config.bits = bits;
  config.spare_rows = spares;
  return config;
}

// ---- SessionSpec validation ----------------------------------------------

TEST(SpecValidation, EmptySpecFailsWithNoMemory) {
  const auto spec = SessionSpec::builder().build();
  ASSERT_FALSE(spec.has_value());
  EXPECT_EQ(spec.error().code, ConfigErrorCode::no_memory);
}

TEST(SpecValidation, BadMemoryConfigIsNamedInTheError) {
  sram::SramConfig broken;
  broken.name = "zero-words";
  broken.words = 0;
  broken.bits = 8;
  const auto spec = SessionSpec::builder().add_sram(broken).build();
  ASSERT_FALSE(spec.has_value());
  EXPECT_EQ(spec.error().code, ConfigErrorCode::invalid_memory);
  EXPECT_NE(spec.error().message.find("zero-words"), std::string::npos);
}

TEST(SpecValidation, OutOfRangeParametersAreCaughtAtBuild) {
  const auto base = SessionSpec::builder().add_sram(small("a", 32, 8));

  auto bad_rate = base;
  EXPECT_EQ(bad_rate.defect_rate(1.5).build().error().code,
            ConfigErrorCode::invalid_defect_rate);

  auto bad_fraction = base;
  EXPECT_EQ(bad_fraction.retention_fraction(-0.1).build().error().code,
            ConfigErrorCode::invalid_retention_fraction);

  auto bad_clock = base;
  EXPECT_EQ(bad_clock.clock_ns(0).build().error().code,
            ConfigErrorCode::invalid_clock);
}

TEST(SpecValidation, UnknownSchemeFailsAtBuildNotAtRun) {
  const auto spec = SessionSpec::builder()
                        .add_sram(small("a", 32, 8))
                        .scheme("no-such-scheme")
                        .build();
  ASSERT_FALSE(spec.has_value());
  EXPECT_EQ(spec.error().code, ConfigErrorCode::unknown_scheme);
  EXPECT_NE(spec.error().to_string().find("unknown_scheme"),
            std::string::npos);
}

TEST(SpecValidation, BuildersNeverThrow) {
  // The whole point of the Expected pipeline: collecting bad values is
  // fine, only build() reports them.
  EXPECT_NO_THROW(SessionSpec::builder()
                      .defect_rate(42.0)
                      .retention_fraction(-3.0)
                      .clock_ns(0)
                      .scheme("bogus"));
}

// ---- SchemeRegistry -------------------------------------------------------

TEST(Registry, BuiltinsAreRegistered) {
  auto& registry = SchemeRegistry::global();
  for (const char* name : {"fast", "fast-without-drf", "baseline",
                           "baseline-with-retention"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  const auto names = registry.names();
  EXPECT_GE(names.size(), 4u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Registry, CapabilitiesDescribeTheBuiltins) {
  auto& registry = SchemeRegistry::global();
  EXPECT_TRUE(registry.capabilities("fast").covers_drf);
  EXPECT_FALSE(registry.capabilities("fast").needs_repair_pass);
  EXPECT_FALSE(registry.capabilities("baseline").covers_drf);
  EXPECT_TRUE(registry.capabilities("baseline").needs_repair_pass);
  EXPECT_TRUE(
      registry.capabilities("baseline-with-retention").covers_drf);
}

TEST(Registry, UnknownNamesThrowOnUse) {
  auto& registry = SchemeRegistry::global();
  EXPECT_FALSE(registry.contains("no-such-scheme"));
  EXPECT_THROW((void)registry.make("no-such-scheme", {}),
               std::invalid_argument);
  EXPECT_THROW((void)registry.capabilities("no-such-scheme"),
               std::invalid_argument);
}

TEST(Registry, UserSchemesPlugInWithoutTouchingCore) {
  // A private registry keeps the test hermetic; the global one works the
  // same way.
  SchemeRegistry registry;
  registry.register_scheme(
      "user-fast", {.covers_drf = true, .needs_repair_pass = false},
      [](const SchemeContext& context) {
        bisd::FastSchemeOptions options;
        options.clock = context.clock;
        return std::make_unique<bisd::FastScheme>(options);
      });
  EXPECT_TRUE(registry.contains("user-fast"));
  EXPECT_EQ(registry.size(), 1u);

  // Specs validate against the registry they are given.
  const auto spec = SessionSpec::builder()
                        .add_sram(small("a", 16, 8))
                        .scheme("user-fast")
                        .build(registry);
  ASSERT_TRUE(spec.has_value());

  auto scheme = registry.make("user-fast", {});
  ASSERT_NE(scheme, nullptr);
  EXPECT_FALSE(scheme->name().empty());
}

TEST(Registry, DuplicateAndDegenerateRegistrationsAreRejected) {
  SchemeRegistry registry;
  const auto factory = [](const SchemeContext&) {
    return std::make_unique<bisd::FastScheme>();
  };
  registry.register_scheme("dup", {}, factory);
  EXPECT_THROW(registry.register_scheme("dup", {}, factory),
               std::invalid_argument);
  EXPECT_THROW(registry.register_scheme("", {}, factory),
               std::invalid_argument);
  EXPECT_THROW(registry.register_scheme("null-factory", {}, nullptr),
               std::invalid_argument);
}

// ---- SweepSpec ------------------------------------------------------------

SweepSpec demo_sweep() {
  SweepSpec sweep;
  sweep.base = SessionSpec::builder().add_sram(small("a", 32, 8));
  sweep.schemes = {"fast", "baseline"};
  sweep.defect_rates = {0.01, 0.02, 0.05};
  sweep.seeds = {1, 2, 3, 4};
  return sweep;
}

TEST(Sweep, CardinalityIsTheProductOfNonEmptyAxes) {
  auto sweep = demo_sweep();
  EXPECT_EQ(sweep.cardinality(), 2u * 3u * 4u);

  sweep.socs = {{small("x", 16, 4)}, {small("y", 16, 4), small("z", 8, 4)}};
  EXPECT_EQ(sweep.cardinality(), 2u * 2u * 3u * 4u);

  SweepSpec trivial;
  trivial.base = SessionSpec::builder().add_sram(small("a", 32, 8));
  EXPECT_EQ(trivial.cardinality(), 1u);
}

TEST(Sweep, ExpansionMatchesCardinalityAndOrder) {
  const auto sweep = demo_sweep();
  const auto specs = sweep.expand();
  ASSERT_TRUE(specs.has_value()) << specs.error().to_string();
  ASSERT_EQ(specs.value().size(), sweep.cardinality());

  // Innermost axis (seeds) varies fastest.
  EXPECT_EQ(specs.value()[0].seed(), 1u);
  EXPECT_EQ(specs.value()[1].seed(), 2u);
  EXPECT_EQ(specs.value()[0].scheme(), "fast");
  // After all 3 rates x 4 seeds of "fast", "baseline" starts.
  EXPECT_EQ(specs.value()[11].scheme(), "fast");
  EXPECT_EQ(specs.value()[3 * 4].scheme(), "baseline");
  EXPECT_EQ(specs.value()[3 * 4].seed(), 1u);

  // Every combination is distinct.
  std::set<std::string> labels;
  for (const auto& spec : specs.value()) {
    labels.insert(spec.label());
  }
  EXPECT_EQ(labels.size(), specs.value().size());
}

TEST(Sweep, InvalidAxisValueSurfacesAsConfigError) {
  auto sweep = demo_sweep();
  sweep.schemes.push_back("no-such-scheme");
  const auto specs = sweep.expand();
  ASSERT_FALSE(specs.has_value());
  EXPECT_EQ(specs.error().code, ConfigErrorCode::unknown_scheme);

  auto empty_soc = demo_sweep();
  empty_soc.socs = {{}};
  EXPECT_EQ(empty_soc.expand().error().code, ConfigErrorCode::empty_sweep);
}

// ---- DiagnosisEngine ------------------------------------------------------

std::vector<SessionSpec> spec_batch() {
  SweepSpec sweep;
  sweep.base = SessionSpec::builder()
                   .add_sram(small("a", 48, 12))
                   .add_sram(small("b", 32, 8))
                   .with_repair(true);
  sweep.schemes = {"fast", "fast-without-drf"};
  sweep.defect_rates = {0.01, 0.03};
  sweep.seeds = {11, 22, 33};
  auto specs = sweep.expand();
  EXPECT_TRUE(specs.has_value());
  return std::move(specs).value();
}

std::vector<std::size_t> iota_indices(std::size_t from, std::size_t to) {
  std::vector<std::size_t> indices;
  for (std::size_t i = from; i < to; ++i) {
    indices.push_back(i);
  }
  return indices;
}

TEST(Engine, ParallelRunsAreBitIdenticalToSerial) {
  const auto specs = spec_batch();
  const auto serial = DiagnosisEngine({.workers = 1}).run_batch(specs);
  ASSERT_EQ(serial.run_count(), specs.size());
  for (const std::size_t workers : {2, 4, 8}) {
    const auto parallel =
        DiagnosisEngine({.workers = workers}).run_batch(specs);
    ASSERT_EQ(parallel.run_count(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& a = serial.runs[i];
      const auto& b = parallel.runs[i];
      const auto where = "run " + std::to_string(i) + ", " +
                         std::to_string(workers) + " workers";
      EXPECT_EQ(a.scheme_name, b.scheme_name) << where;
      EXPECT_EQ(a.seed, b.seed) << where;
      EXPECT_EQ(a.injected_faults, b.injected_faults) << where;
      EXPECT_EQ(a.total_ns, b.total_ns) << where;
      EXPECT_EQ(a.result.time.cycles, b.result.time.cycles) << where;
      EXPECT_EQ(a.result.log.to_csv(), b.result.log.to_csv()) << where;
      EXPECT_EQ(a.repair_verified_clean, b.repair_verified_clean) << where;
      EXPECT_EQ(service::encode_report(a), service::encode_report(b))
          << where;
    }
  }
}

TEST(Engine, ObserverSeesEveryRunExactlyOnce) {
  // A batch delivers through the stream pipeline: each index exactly once,
  // strictly ascending, at any worker count.
  const auto specs = spec_batch();
  for (const std::size_t workers : {1, 4, 8}) {
    std::vector<std::size_t> indices;
    const auto report = DiagnosisEngine({.workers = workers}).run_batch(
        specs, [&](std::size_t index, const Report& run) {
          indices.push_back(index);  // serialized by the engine
          EXPECT_FALSE(run.scheme_name.empty());
        });
    EXPECT_EQ(indices, iota_indices(0, specs.size())) << workers << " workers";
    EXPECT_EQ(report.run_count(), specs.size());
  }
}

TEST(Engine, RunBatchMovesReportsIntoTheAggregate) {
  // The log storage the observer saw is the storage the aggregate holds:
  // each Report is moved into AggregateReport::runs, never copied.
  const auto specs = spec_batch();
  for (const std::size_t workers : {1, 4}) {
    std::vector<const bisd::LogEntry*> seen(specs.size(), nullptr);
    const auto aggregate = DiagnosisEngine({.workers = workers}).run_batch(
        specs, [&](std::size_t index, const Report& run) {
          seen[index] = run.result.log.tables().entries.data();
        });
    ASSERT_EQ(aggregate.run_count(), specs.size());
    std::size_t with_records = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& entries = aggregate.runs[i].result.log.tables().entries;
      if (entries.empty()) {
        continue;
      }
      ++with_records;
      EXPECT_EQ(seen[i], entries.data()) << workers << " workers, run " << i;
    }
    EXPECT_GT(with_records, 0u);
  }
}

TEST(Engine, EmptyBatchIsFine) {
  const auto report = DiagnosisEngine({.workers = 8}).run_batch({});
  EXPECT_EQ(report.run_count(), 0u);
}

TEST(Engine, PersistentPoolIsReusedAcrossBatchesBitIdentically) {
  // The pool is created at construction and fed through a work queue;
  // consecutive batches must not spawn threads, and per-worker scratch
  // (capacity feedback) must never leak into results — any worker count,
  // any batch sequence, bit-identical reports.
  const auto specs = spec_batch();
  DiagnosisEngine engine({.workers = 4});
  ASSERT_EQ(engine.pool_threads(), 3u);

  const auto first = engine.run_batch(specs);
  const auto second = engine.run_batch(specs);
  EXPECT_EQ(engine.pool_threads(), 3u);
  const auto serial = DiagnosisEngine({.workers = 1}).run_batch(specs);

  ASSERT_EQ(first.run_count(), specs.size());
  ASSERT_EQ(second.run_count(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(first.runs[i].result.log.to_csv(),
              second.runs[i].result.log.to_csv())
        << "run " << i;
    EXPECT_EQ(first.runs[i].total_ns, second.runs[i].total_ns) << "run " << i;
    EXPECT_EQ(first.runs[i].repair_verified_clean,
              second.runs[i].repair_verified_clean)
        << "run " << i;
    EXPECT_EQ(first.runs[i].result.log.to_csv(),
              serial.runs[i].result.log.to_csv())
        << "run " << i;
    EXPECT_EQ(first.runs[i].total_ns, serial.runs[i].total_ns)
        << "run " << i;
  }
}

TEST(Engine, PoolThreadsMatchResolvedWorkers) {
  // The calling thread is always a worker, so the pool owns workers - 1
  // threads; a single-worker engine owns none at all.
  EXPECT_EQ(DiagnosisEngine({.workers = 1}).pool_threads(), 0u);
  EXPECT_EQ(DiagnosisEngine({.workers = 6}).pool_threads(), 5u);
  DiagnosisEngine automatic({.workers = 0});
  EXPECT_EQ(automatic.pool_threads(),
            automatic.worker_count(1000000) - 1);
}

TEST(Engine, ConcurrentCallersShareOneEngineSafely) {
  // One batch dispatches per engine at a time: a concurrent caller blocks
  // until the pool frees (pooled engine) or runs with throwaway scratch
  // (pool-less engine).  Either way both callers get bit-identical
  // reports and no data races.
  const auto specs = spec_batch();
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    DiagnosisEngine engine({.workers = workers});
    const auto expected = engine.run_batch(specs);
    AggregateReport from_thread;
    std::thread competitor(
        [&] { from_thread = engine.run_batch(specs); });
    const auto from_caller = engine.run_batch(specs);
    competitor.join();
    ASSERT_EQ(from_thread.run_count(), specs.size());
    ASSERT_EQ(from_caller.run_count(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(from_thread.runs[i].result.log.to_csv(),
                expected.runs[i].result.log.to_csv())
          << "workers " << workers << " run " << i;
      EXPECT_EQ(from_caller.runs[i].result.log.to_csv(),
                expected.runs[i].result.log.to_csv())
          << "workers " << workers << " run " << i;
    }
  }
}

TEST(Engine, ChainedReentrancyAcrossEnginesDoesNotDeadlock) {
  // A -> B -> A: engine A's observer dispatches engine B, whose observer
  // re-enters A.  The inner A call may land on one of B's pool threads,
  // so re-entrancy detection must follow the dispatch chain across
  // threads — a plain thread-local marker would block on A's own
  // dispatch mutex forever.
  const auto specs = spec_batch();
  const std::vector<SessionSpec> small(specs.begin(), specs.begin() + 2);
  DiagnosisEngine a({.workers = 2});
  DiagnosisEngine b({.workers = 2});
  const auto plain = DiagnosisEngine({.workers = 1}).run_batch(small);

  std::atomic<bool> entered{false};
  const auto outer =
      a.run_batch(small, [&](std::size_t i, const Report&) {
        if (i != 0) {
          return;
        }
        (void)b.run_batch(small, [&](std::size_t j, const Report&) {
          if (j != 0 || entered.exchange(true)) {
            return;
          }
          const auto nested = a.run_batch(small);
          ASSERT_EQ(nested.run_count(), small.size());
          for (std::size_t k = 0; k < small.size(); ++k) {
            EXPECT_EQ(nested.runs[k].result.log.to_csv(),
                      plain.runs[k].result.log.to_csv());
          }
        });
      });
  EXPECT_TRUE(entered.load());
  EXPECT_EQ(outer.run_count(), small.size());
}

TEST(Engine, ReentrantRunBatchFallsBackToTheCallingThread) {
  // An observer (running on some pool worker) that re-enters run_batch on
  // the same engine must not deadlock on the busy pool: the nested batch
  // runs serially on the calling thread and still yields correct reports.
  const auto specs = spec_batch();
  const std::vector<SessionSpec> nested_specs(specs.begin(),
                                              specs.begin() + 2);
  DiagnosisEngine engine({.workers = 3});
  const auto plain = engine.run_batch(nested_specs);

  std::atomic<std::size_t> nested_runs{0};
  const auto outer =
      engine.run_batch(specs, [&](std::size_t index, const Report&) {
        if (index == 0) {
          const auto nested = engine.run_batch(nested_specs);
          nested_runs = nested.run_count();
          for (std::size_t i = 0; i < nested.run_count(); ++i) {
            EXPECT_EQ(nested.runs[i].result.log.to_csv(),
                      plain.runs[i].result.log.to_csv());
          }
        }
      });
  EXPECT_EQ(outer.run_count(), specs.size());
  EXPECT_EQ(nested_runs.load(), nested_specs.size());
}

TEST(Engine, WorkerCountClampsToBatchAndResolvesAuto) {
  DiagnosisEngine eight({.workers = 8});
  EXPECT_EQ(eight.worker_count(3), 3u);
  EXPECT_EQ(eight.worker_count(100), 8u);
  DiagnosisEngine automatic({.workers = 0});
  EXPECT_GE(automatic.worker_count(1000), 1u);
}

TEST(Engine, AggregateStatsSummarizeTheBatch) {
  SweepSpec sweep;
  sweep.base = SessionSpec::builder().add_sram(small("a", 32, 8, 32));
  sweep.schemes = {"fast", "baseline"};
  sweep.seeds = {1, 2, 3};
  const auto report =
      DiagnosisEngine({.workers = 4}).run_sweep(sweep);
  ASSERT_TRUE(report.has_value()) << report.error().to_string();
  const auto& aggregate = report.value();
  ASSERT_EQ(aggregate.run_count(), 6u);

  const auto recall = aggregate.recall_stats();
  EXPECT_LE(recall.min, recall.mean);
  EXPECT_LE(recall.mean, recall.max);
  EXPECT_GT(recall.max, 0.0);

  const auto time = aggregate.diagnosis_time_stats_ns();
  EXPECT_LE(time.min, time.mean);
  EXPECT_LE(time.mean, time.max);

  const auto times = aggregate.diagnosis_times_ns();
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_EQ(aggregate.diagnosis_time_percentile_ns(0.0), times.front());
  EXPECT_EQ(aggregate.diagnosis_time_percentile_ns(100.0), times.back());

  const auto schemes = aggregate.per_scheme();
  ASSERT_EQ(schemes.size(), 2u);
  EXPECT_EQ(schemes[0].scheme_name, "baseline");
  EXPECT_EQ(schemes[1].scheme_name, "fast");
  EXPECT_EQ(schemes[0].runs, 3u);
  EXPECT_EQ(schemes[1].runs, 3u);
  // The fast scheme is, in fact, faster on the same SoCs.
  EXPECT_LT(schemes[1].total_ns.mean, schemes[0].total_ns.mean);

  const auto text = aggregate.summary();
  EXPECT_NE(text.find("runs:"), std::string::npos);
  EXPECT_NE(text.find("per scheme:"), std::string::npos);
}

TEST(Engine, BaselineRetestAfterRepairAllocatesFreshSpares) {
  // The baseline schemes repair rows while they diagnose, so the engine's
  // retest after apply_repair starts on a memory whose first spares are
  // taken.  One 64x8 memory at 1 % defects, spare_rows 1/2/4, seeds 1-40.
  // The retest must not throw, and whenever it registers a fault the run
  // must not be called clean, whether or not the retest repaired it.
  for (const char* scheme : {"baseline", "baseline-with-retention"}) {
    for (const std::uint32_t spares : {1u, 2u, 4u}) {
      for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const auto spec = SessionSpec::builder()
                              .add_sram(small("m0", 64, 8, spares))
                              .defect_rate(0.01)
                              .scheme(scheme)
                              .with_repair(true)
                              .seed(seed)
                              .build();
        ASSERT_TRUE(spec.has_value());
        const std::string where = std::string(scheme) + " spares=" +
                                  std::to_string(spares) +
                                  " seed=" + std::to_string(seed);
        Report report;
        ASSERT_NO_THROW(report = DiagnosisEngine::execute(spec.value()))
            << where;
        ASSERT_TRUE(report.repair.has_value()) << where;

        if (!report.repair_verified_clean) {
          continue;
        }
        // A clean run: replaying the engine's diagnose, repair and retest
        // on the same SoC must show a retest that registered nothing.
        auto soc = bisd::SocUnderTest::from_injection(
            spec->configs(), spec->injection(), spec->seed());
        auto replay = SchemeRegistry::global().make(
            spec->scheme(), {.clock = spec->clock()});
        const auto first = replay->diagnose(soc);
        const auto plan = bisd::plan_repair(first.log, soc);
        EXPECT_TRUE(plan.fully_repairable()) << where;
        bisd::apply_repair(soc, plan);
        EXPECT_TRUE(replay->diagnose(soc).log.empty()) << where;
      }
    }
  }
}

TEST(Engine, SweepOfInvalidSpecsFailsClosed) {
  SweepSpec sweep;
  sweep.base = SessionSpec::builder();  // no memory
  const auto report = DiagnosisEngine().run_sweep(sweep);
  ASSERT_FALSE(report.has_value());
  EXPECT_EQ(report.error().code, ConfigErrorCode::no_memory);
}

// ---- SweepCursor + streaming ---------------------------------------------

TEST(SweepCursor, SpecAtMatchesExpansionEverywhere) {
  const auto sweep = demo_sweep();
  const auto expanded = sweep.expand();
  ASSERT_TRUE(expanded.has_value());
  for (std::size_t i = 0; i < expanded.value().size(); ++i) {
    const auto at = sweep.spec_at(i);
    ASSERT_TRUE(at.has_value()) << "index " << i;
    EXPECT_EQ(at.value().label(), expanded.value()[i].label()) << i;
  }
  // Past-the-end index is a caller bug, not a config error.
  EXPECT_THROW((void)sweep.spec_at(sweep.cardinality()),
               std::invalid_argument);
}

TEST(SweepCursor, YieldsTheExpansionInOrderThenExhausts) {
  const auto sweep = demo_sweep();
  auto cursor = SweepCursor::create(sweep);
  ASSERT_TRUE(cursor.has_value());
  EXPECT_EQ(cursor.value().cardinality(), sweep.cardinality());

  const auto expanded = sweep.expand();
  ASSERT_TRUE(expanded.has_value());
  std::size_t yielded = 0;
  while (auto spec = cursor.value().next()) {
    ASSERT_LT(yielded, expanded.value().size());
    EXPECT_EQ(spec->label(), expanded.value()[yielded].label());
    ++yielded;
  }
  EXPECT_EQ(yielded, sweep.cardinality());
  EXPECT_FALSE(cursor.value().next().has_value());
}

TEST(SweepCursor, SeekRepositionsAndValidationFailsAtCreate) {
  auto cursor = SweepCursor::create(demo_sweep());
  ASSERT_TRUE(cursor.has_value());
  cursor.value().seek(cursor.value().cardinality() - 1);
  EXPECT_TRUE(cursor.value().next().has_value());
  EXPECT_FALSE(cursor.value().next().has_value());

  auto bad = demo_sweep();
  bad.schemes.push_back("no-such-scheme");
  EXPECT_EQ(SweepCursor::create(bad).error().code,
            ConfigErrorCode::unknown_scheme);
}

/// Hands out @p specs in order, then ends the stream.
DiagnosisEngine::SpecSource source_over(const std::vector<SessionSpec>& specs) {
  auto cursor = std::make_shared<std::size_t>(0);
  return [&specs, cursor]() -> std::optional<SessionSpec> {
    if (*cursor >= specs.size()) {
      return std::nullopt;
    }
    return specs[(*cursor)++];
  };
}

/// The window run_stream resolves StreamOptions::window to.
std::size_t effective_window(std::size_t window, std::size_t workers) {
  return window != 0 ? window : std::max<std::size_t>(workers * 4, 16);
}

/// True when @p run is the run @p expected reports: a fold cannot tell
/// runs apart, so in-order delivery is checked run by run.
bool same_run(const Report& run, const Report& expected) {
  return run.scheme_name == expected.scheme_name &&
         run.seed == expected.seed &&
         run.defect_rate == expected.defect_rate &&
         run.total_ns == expected.total_ns &&
         run.result.log.to_csv() == expected.result.log.to_csv();
}

TEST(Stream, FoldedAggregateIsBitIdenticalToBatch) {
  const auto specs = spec_batch();
  DiagnosisEngine engine({.workers = 4});
  const auto batch = engine.run_batch(specs);

  const auto streamed = engine.run_stream(source_over(specs));
  EXPECT_EQ(streamed.completed, specs.size());
  EXPECT_EQ(streamed.aggregate.folded, batch.folded);
  // The streaming path retains nothing.
  EXPECT_TRUE(streamed.aggregate.runs.empty());
}

TEST(Stream, SinkSeesAbsoluteIndicesAndProgressFiresOnInterval) {
  const auto specs = spec_batch();
  DiagnosisEngine engine({.workers = 2});

  std::set<std::size_t> seen;
  std::vector<std::uint64_t> progress_marks;
  DiagnosisEngine::StreamOptions options;
  options.window = 4;
  options.sink = [&](std::size_t index, const Report& run) {
    seen.insert(index);
    EXPECT_FALSE(run.scheme_name.empty());
  };
  options.progress_interval = 5;
  options.progress = [&](std::uint64_t completed, const AggregateReport&) {
    progress_marks.push_back(completed);
  };
  const auto result = engine.run_stream(source_over(specs), options);

  EXPECT_EQ(result.completed, specs.size());
  EXPECT_EQ(seen.size(), specs.size());
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), specs.size() - 1);
  // 12 specs, interval 5: marks at 5, 10 and the final partial 12.
  EXPECT_EQ(progress_marks,
            (std::vector<std::uint64_t>{5, 10, specs.size()}));
}

TEST(Stream, ResumeFoldsOnTopOfTheSeedAggregate) {
  const auto specs = spec_batch();
  const auto whole = DiagnosisEngine({.workers = 1}).run_batch(specs);

  // Fold the first half, hand it to run_stream as the resume seed, and
  // stream only the second half: the result must equal the whole run.
  const std::size_t half = specs.size() / 2;
  const std::vector<SessionSpec> rest(specs.begin() + half, specs.end());
  for (const std::size_t workers : {1, 4}) {
    AggregateReport prefix;
    for (std::size_t i = 0; i < half; ++i) {
      prefix.fold(DiagnosisEngine::execute(specs[i]));
    }
    std::vector<std::size_t> sink_indices;
    DiagnosisEngine::StreamOptions options;
    options.sink = [&](std::size_t index, const Report& run) {
      sink_indices.push_back(index);
      EXPECT_TRUE(index < specs.size() && same_run(run, whole.runs[index]))
          << workers << " workers, run " << index;
    };
    const auto resumed = DiagnosisEngine({.workers = workers})
                             .run_stream(source_over(rest), options,
                                         std::move(prefix));

    EXPECT_EQ(resumed.completed, specs.size());  // prefix included
    EXPECT_EQ(resumed.aggregate.folded, whole.folded);
    // Sink indices continue from the resumed prefix, not from zero.
    EXPECT_EQ(sink_indices, iota_indices(half, specs.size()))
        << workers << " workers";
  }
}

TEST(Stream, HugeWindowStreamsWithoutPreallocating) {
  // The window is a cap on specs in flight, not a size to allocate: any
  // size_t is accepted, however far it exceeds the stream.
  const auto all = spec_batch();
  const std::vector<SessionSpec> specs(all.begin(), all.begin() + 3);
  DiagnosisEngine engine({.workers = 2});
  const auto batch = engine.run_batch(specs);
  for (const std::size_t window :
       {std::size_t{1} << 40, std::numeric_limits<std::size_t>::max()}) {
    DiagnosisEngine::StreamOptions options;
    options.window = window;
    const auto streamed = engine.run_stream(source_over(specs), options);
    EXPECT_EQ(streamed.completed, 3u) << "window " << window;
    EXPECT_EQ(streamed.aggregate.folded, batch.folded) << "window " << window;
  }
}

TEST(Stream, EveryWorkerCountAndWindowFoldsLikeRunBatch) {
  const auto specs = spec_batch();
  const auto batch = DiagnosisEngine({.workers = 1}).run_batch(specs);
  for (const std::size_t workers : {1, 2, 4, 8}) {
    DiagnosisEngine engine({.workers = workers});
    for (const std::size_t window : {0, 1, 3, 16}) {
      std::vector<std::size_t> indices;
      DiagnosisEngine::StreamOptions options;
      options.window = window;
      options.sink = [&](std::size_t index, const Report& run) {
        indices.push_back(index);
        EXPECT_TRUE(index < specs.size() && same_run(run, batch.runs[index]))
            << workers << " workers, window " << window << ", run " << index;
      };
      const auto streamed = engine.run_stream(source_over(specs), options);
      EXPECT_EQ(streamed.completed, specs.size())
          << workers << " workers, window " << window;
      EXPECT_EQ(streamed.aggregate.folded, batch.folded)
          << workers << " workers, window " << window;
      EXPECT_EQ(indices, iota_indices(0, specs.size()))
          << workers << " workers, window " << window;
    }
  }
}

TEST(Stream, CallbacksNeverOverlapAndPullsStayUnderTheWindow) {
  // Source, sink and progress share one guard: each callback checks that
  // no other is running, and lingers a little so an overlap would show.
  const auto specs = spec_batch();
  std::atomic<int> active{0};
  const auto enter = [&] {
    EXPECT_EQ(active.fetch_add(1), 0) << "two callbacks overlapped";
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  };
  const auto leave = [&] { active.fetch_sub(1); };
  for (const std::size_t workers : {2, 4, 8}) {
    DiagnosisEngine engine({.workers = workers});
    for (const std::size_t window : {0, 1, 3}) {
      const std::size_t cap = effective_window(window, workers);
      std::size_t cursor = 0;
      std::uint64_t delivered = 0;
      std::uint64_t progress_calls = 0;
      DiagnosisEngine::StreamOptions options;
      options.window = window;
      options.sink = [&](std::size_t, const Report&) {
        enter();
        ++delivered;
        leave();
      };
      options.progress_interval = 1;
      options.progress = [&](std::uint64_t, const AggregateReport&) {
        enter();
        ++progress_calls;
        leave();
      };
      const auto streamed = engine.run_stream(
          [&]() -> std::optional<SessionSpec> {
            enter();
            EXPECT_LT(cursor - delivered, cap)
                << workers << " workers, window " << window;
            std::optional<SessionSpec> spec;
            if (cursor < specs.size()) {
              spec = specs[cursor++];
            }
            leave();
            return spec;
          },
          options);
      EXPECT_EQ(streamed.completed, specs.size());
      EXPECT_EQ(delivered, specs.size());
      EXPECT_EQ(progress_calls, specs.size());
    }
  }
}

TEST(Stream, SlowHeadSpecKeepsTheWindowCapAndDeliversInOrder) {
  // A fleet-sized SoC heads a run of tiny ones: the workers that finish
  // the tiny specs must not pull past the window while the head runs, and
  // nothing may reach the sink ahead of it.
  auto fleet = SessionSpec::builder();
  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {256, 18}, {128, 40}, {192, 24}, {224, 72}};
  int n = 0;
  for (const auto& [words, bits] : shapes) {
    for (int k = 0; k < 16; ++k) {
      fleet.add_sram(small("fleet" + std::to_string(n++), words, bits, 2));
    }
  }
  std::vector<SessionSpec> specs;
  // Fault-free keeps the head cheap under sanitizers; with 64 memories it
  // still runs orders of magnitude longer than all the tiny specs.
  specs.push_back(fleet.defect_rate(0.0).seed(5).build().value());
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    specs.push_back(SessionSpec::builder()
                        .add_sram(small("tiny", 8, 4, 2))
                        .defect_rate(0.05)
                        .seed(seed)
                        .build()
                        .value());
  }
  const auto batch = DiagnosisEngine({.workers = 1}).run_batch(specs);

  constexpr std::size_t kWindow = 4;
  DiagnosisEngine engine({.workers = 4});
  std::size_t cursor = 0;
  std::uint64_t delivered = 0;
  std::uint64_t most_outstanding = 0;
  std::vector<std::size_t> indices;
  DiagnosisEngine::StreamOptions options;
  options.window = kWindow;
  options.sink = [&](std::size_t index, const Report& run) {
    indices.push_back(index);
    EXPECT_TRUE(index < specs.size() && same_run(run, batch.runs[index]))
        << "run " << index;
    ++delivered;
  };
  const auto streamed = engine.run_stream(
      [&]() -> std::optional<SessionSpec> {
        if (cursor >= specs.size()) {
          return std::nullopt;
        }
        most_outstanding =
            std::max<std::uint64_t>(most_outstanding, cursor + 1 - delivered);
        return specs[cursor++];
      },
      options);
  EXPECT_LE(most_outstanding, kWindow);
  EXPECT_EQ(indices, iota_indices(0, specs.size()));
  EXPECT_EQ(streamed.aggregate.folded, batch.folded);
}

/// A registered scheme whose diagnose always throws.
class ThrowingScheme final : public bisd::DiagnosisScheme {
 public:
  [[nodiscard]] std::string name() const override { return "throwing"; }
  bisd::DiagnosisResult diagnose(bisd::SocUnderTest&) override {
    throw std::runtime_error("diagnose failed");
  }
};

/// What run_stream threw, or "" when it returned.
std::string stream_error(const DiagnosisEngine& engine,
                         const DiagnosisEngine::SpecSource& source,
                         const DiagnosisEngine::StreamOptions& options = {}) {
  try {
    (void)engine.run_stream(source, options);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

/// What run_batch threw, or "" when it returned.
std::string batch_error(const DiagnosisEngine& engine,
                        const std::vector<SessionSpec>& specs,
                        const DiagnosisEngine::RunObserver& observer = {}) {
  try {
    (void)engine.run_batch(specs, observer);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(Stream, FailuresPropagateWithoutDeadlock) {
  // The first exception stops the pulls and surfaces on the calling
  // thread once the workers drain; the engine stays usable afterwards.
  // Batches run on the same pipeline and fail the same way.
  SchemeRegistry registry;
  registry.register_scheme("fast", {.covers_drf = true},
                           [](const SchemeContext& context) {
                             bisd::FastSchemeOptions scheme;
                             scheme.clock = context.clock;
                             return std::make_unique<bisd::FastScheme>(scheme);
                           });
  registry.register_scheme("throwing", {}, [](const SchemeContext&) {
    return std::make_unique<ThrowingScheme>();
  });
  std::vector<SessionSpec> specs;
  std::vector<SessionSpec> with_throwing_run;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto builder = SessionSpec::builder()
                       .add_sram(small("a", 32, 8))
                       .defect_rate(0.02)
                       .seed(seed);
    specs.push_back(builder.scheme("fast").build(registry).value());
    with_throwing_run.push_back(
        builder.scheme(seed == 4 ? "throwing" : "fast")
            .build(registry)
            .value());
  }

  const auto expected =
      DiagnosisEngine({.workers = 1, .registry = &registry}).run_batch(specs);

  for (const std::size_t workers : {1, 4}) {
    DiagnosisEngine engine({.workers = workers, .registry = &registry});
    std::size_t cursor = 0;
    const auto throwing_source = [&]() -> std::optional<SessionSpec> {
      if (cursor == 5) {
        throw std::runtime_error("source failed");
      }
      return specs[cursor++];
    };
    DiagnosisEngine::StreamOptions small_window;
    small_window.window = 3;
    EXPECT_EQ(stream_error(engine, throwing_source, small_window),
              "source failed");
    EXPECT_EQ(cursor, 5u) << "the source was called after it threw";

    DiagnosisEngine::StreamOptions throwing_sink;
    throwing_sink.sink = [](std::size_t index, const Report&) {
      if (index == 3) {
        throw std::runtime_error("sink failed");
      }
    };
    EXPECT_EQ(stream_error(engine, source_over(specs), throwing_sink),
              "sink failed");
    EXPECT_EQ(stream_error(engine, source_over(with_throwing_run)),
              "diagnose failed");

    // Nothing past the failing run (index 3) reaches the observer; one
    // worker delivers runs 0-2 before it throws.
    std::vector<std::size_t> observed;
    EXPECT_EQ(batch_error(engine, with_throwing_run,
                          [&](std::size_t index, const Report&) {
                            observed.push_back(index);
                          }),
              "diagnose failed");
    EXPECT_LE(observed.size(), 3u) << workers << " workers";
    EXPECT_EQ(observed, iota_indices(0, workers == 1 ? 3 : observed.size()))
        << workers << " workers";

    // The lease was released: a later stream and batch run normally.
    const auto after = engine.run_stream(source_over(specs));
    EXPECT_EQ(after.completed, specs.size()) << workers << " workers";
    const auto batch_after = engine.run_batch(specs);
    EXPECT_EQ(batch_after.run_count(), specs.size()) << workers << " workers";
    EXPECT_EQ(batch_after.folded, expected.folded) << workers << " workers";
  }
}

TEST(Stream, ReentrantSinkRunsThroughTheSerialFallback) {
  const auto specs = spec_batch();
  const std::vector<SessionSpec> nested(specs.begin(), specs.begin() + 3);
  DiagnosisEngine engine({.workers = 4});
  const auto nested_expected = engine.run_batch(nested);
  const auto outer_expected = engine.run_batch(specs);

  bool streamed_inside = false;
  bool batched_inside = false;
  DiagnosisEngine::StreamOptions options;
  options.sink = [&](std::size_t index, const Report&) {
    if (index != 1) {
      return;
    }
    const auto inner_stream = engine.run_stream(source_over(nested));
    EXPECT_EQ(inner_stream.aggregate.folded, nested_expected.folded);
    const auto inner_batch = engine.run_batch(nested);
    EXPECT_EQ(inner_batch.folded, nested_expected.folded);
    streamed_inside = inner_stream.completed == nested.size();
    batched_inside = inner_batch.run_count() == nested.size();
  };
  const auto outer = engine.run_stream(source_over(specs), options);
  EXPECT_TRUE(streamed_inside);
  EXPECT_TRUE(batched_inside);
  EXPECT_EQ(outer.aggregate.folded, outer_expected.folded);
}

TEST(Stream, RunBatchFromAnotherThreadWaitsForTheStream) {
  // The stream holds the engine from its first pull to its last delivery;
  // a run_batch started from another thread meanwhile waits, then runs
  // parallel with the right result.
  const auto specs = spec_batch();
  DiagnosisEngine engine({.workers = 3});
  const auto expected = DiagnosisEngine({.workers = 1}).run_batch(specs);

  AggregateReport from_thread;
  std::jthread competitor;  // joins on every path, a throw included
  DiagnosisEngine::StreamOptions options;
  options.sink = [&](std::size_t index, const Report&) {
    if (index == 0) {
      competitor =
          std::jthread([&] { from_thread = engine.run_batch(specs); });
    }
  };
  const auto streamed = engine.run_stream(source_over(specs), options);
  competitor.join();
  EXPECT_EQ(streamed.aggregate.folded, expected.folded);
  EXPECT_EQ(from_thread.run_count(), specs.size());
  EXPECT_EQ(from_thread.folded, expected.folded);
}

TEST(Stream, RequiresACallableSource) {
  DiagnosisEngine engine;
  EXPECT_THROW((void)engine.run_stream(DiagnosisEngine::SpecSource{}),
               std::invalid_argument);
}

// ---- Expected -------------------------------------------------------------

TEST(Expected, ValueAndErrorPaths) {
  const Expected<int, ConfigError> good(7);
  EXPECT_TRUE(good.has_value());
  EXPECT_EQ(good.value(), 7);
  EXPECT_EQ(good.value_or(0), 7);

  const Expected<int, ConfigError> bad =
      make_unexpected(ConfigError{ConfigErrorCode::no_memory, "nope"});
  EXPECT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error().code, ConfigErrorCode::no_memory);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_THROW((void)bad.value(), std::logic_error);
  EXPECT_THROW((void)good.error(), std::logic_error);
}

}  // namespace
}  // namespace fastdiag::core
