#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "bisd/repair.h"
#include "bisd/soc.h"
#include "diagnosis/classifier.h"
#include "diagnosis/syndrome.h"
#include "util/require.h"

namespace fastdiag::core {

namespace {

/// std::thread::hardware_concurrency() is an OS query; resolve it once per
/// process instead of per engine or — worse — per batch.
std::size_t cached_hardware_concurrency() {
  static const std::size_t value = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? std::size_t{1} : static_cast<std::size_t>(hw);
  }();
  return value;
}

/// Chain of engines currently dispatching into the running call stack.
/// Lets a batch or stream tell a *re-entrant* call — an observer or scheme
/// re-entering an engine already dispatching above it, which must fall
/// back to the calling thread — from a *concurrent* call from another
/// thread, which blocks until the engine frees and then runs parallel.
///
/// The chain is explicit (not just a thread-local slot) because dispatch
/// hops threads: engine A's observer may call engine B, whose jobs run on
/// B's pool threads — a re-entrant A call from there must still see A in
/// its ancestry.  Jobs therefore splice their submitting thread's chain in
/// (the parent guards live on the submitting stack, which blocks inside
/// WorkerPool::run until every job retires, so cross-thread traversal is
/// safe; the links are immutable and published through the pool's mutex).
class TlsDispatchGuard {
 public:
  /// Marks @p engine as dispatching, linked to this thread's own chain.
  explicit TlsDispatchGuard(const void* engine)
      : TlsDispatchGuard(engine, head_) {}

  /// Marks @p engine as dispatching, linked to @p parent — the submitting
  /// thread's chain captured at batch dispatch.
  TlsDispatchGuard(const void* engine, const TlsDispatchGuard* parent)
      : engine_(engine), previous_(parent), saved_head_(head_) {
    head_ = this;
  }
  ~TlsDispatchGuard() { head_ = saved_head_; }
  TlsDispatchGuard(const TlsDispatchGuard&) = delete;
  TlsDispatchGuard& operator=(const TlsDispatchGuard&) = delete;

  /// The chain to hand to jobs dispatched from this thread.
  [[nodiscard]] static const TlsDispatchGuard* current_chain() {
    return head_;
  }

  /// True when @p engine is dispatching anywhere up this call chain.
  [[nodiscard]] static bool dispatching(const void* engine) {
    for (const TlsDispatchGuard* guard = head_; guard != nullptr;
         guard = guard->previous_) {
      if (guard->engine_ == engine) {
        return true;
      }
    }
    return false;
  }

 private:
  const void* engine_;
  const TlsDispatchGuard* previous_;    ///< chain link (may cross threads)
  const TlsDispatchGuard* saved_head_;  ///< this thread's head to restore
  static thread_local const TlsDispatchGuard* head_;
};

thread_local const TlsDispatchGuard* TlsDispatchGuard::head_ = nullptr;

}  // namespace

/// The persistent pool: N threads created once, fed work through a
/// generation counter.  run() publishes a job function plus a shared atomic
/// claim counter, wakes every thread, claims jobs on the calling thread
/// too, and returns once every pool thread has checked the generation off
/// — so the job function's lifetime safely ends with run().
class DiagnosisEngine::WorkerPool {
 public:
  using Job = std::function<void()>;

  explicit WorkerPool(std::size_t threads) {
    threads_.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      threads_.emplace_back([this] { worker(); });
    }
  }

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_cv_.notify_all();
    for (auto& thread : threads_) {
      thread.join();
    }
  }

  [[nodiscard]] std::size_t thread_count() const { return threads_.size(); }

  /// One batch or stream dispatches at a time: a concurrent call from
  /// another thread blocks here until the pool frees, then runs parallel
  /// itself.  (Re-entrant calls never reach this — DispatchLease detects
  /// them through the dispatch chain and falls back to the calling
  /// thread.)
  void acquire() { dispatch_mutex_.lock(); }
  void release() { dispatch_mutex_.unlock(); }

  /// Runs @p job @p count times, each claimed by whichever thread is free,
  /// the calling thread included.  Blocks until all work is done and every
  /// pool thread has retired the generation.  @p job must not throw.
  void run(std::size_t count, const Job& job) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job_ = &job;
      count_ = count;
      next_.store(0, std::memory_order_relaxed);
      finished_ = 0;
      ++generation_;
    }
    wake_cv_.notify_all();
    while (next_.fetch_add(1, std::memory_order_relaxed) < count) {
      job();
    }
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return finished_ == threads_.size(); });
    job_ = nullptr;
  }

 private:
  void worker() {
    std::uint64_t seen = 0;
    for (;;) {
      const Job* job = nullptr;
      std::size_t count = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_cv_.wait(lock,
                      [&] { return stop_ || generation_ != seen; });
        if (stop_) {
          return;
        }
        seen = generation_;
        job = job_;
        count = count_;
      }
      while (next_.fetch_add(1, std::memory_order_relaxed) < count) {
        (*job)();
      }
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (++finished_ == threads_.size()) {
          done_cv_.notify_one();
        }
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  std::mutex dispatch_mutex_;
  std::atomic<std::size_t> next_{0};
  const Job* job_ = nullptr;
  std::size_t count_ = 0;
  std::size_t finished_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

/// Holds the engine's pool for one batch or stream: one dispatches on a
/// pool at a time.  A re-entrant call (an observer, sink or scheme
/// re-entering the engine from inside a running dispatch, detected through
/// the dispatch chain) holds nothing and runs on the calling thread; a
/// concurrent call from another thread blocks until the pool frees, then
/// dispatches normally.  Releases happen by RAII even when a run throws — a
/// leaked pool would block every later call.
class DiagnosisEngine::DispatchLease {
 public:
  explicit DispatchLease(const DiagnosisEngine& engine) {
    if (engine.pool_ != nullptr && !TlsDispatchGuard::dispatching(&engine)) {
      engine.pool_->acquire();
      pool_ = engine.pool_.get();
    }
  }
  ~DispatchLease() {
    if (pool_ != nullptr) {
      pool_->release();
    }
  }
  DispatchLease(const DispatchLease&) = delete;
  DispatchLease& operator=(const DispatchLease&) = delete;

  /// The held pool; nullptr means the call runs on the calling thread.
  [[nodiscard]] WorkerPool* pool() const { return pool_; }

 private:
  WorkerPool* pool_ = nullptr;
};

std::size_t SweepSpec::cardinality() const {
  const auto axis = [](std::size_t size) { return size == 0 ? 1 : size; };
  return axis(socs.size()) * axis(schemes.size()) *
         axis(defect_rates.size()) * axis(seeds.size());
}

Expected<SessionSpec, ConfigError> SweepSpec::spec_at(
    std::size_t index, const SchemeRegistry& registry) const {
  for (const auto& soc : socs) {
    if (soc.empty()) {
      return make_unexpected(ConfigError{
          ConfigErrorCode::empty_sweep,
          "sweep axis 'socs' contains an empty configuration list"});
    }
  }
  // Single-value stand-ins keep the index decode uniform when an axis is
  // empty (base value applies).  Decode matches expand() order: socs
  // outermost, seeds innermost.
  const std::size_t soc_n = socs.empty() ? 1 : socs.size();
  const std::size_t scheme_n = schemes.empty() ? 1 : schemes.size();
  const std::size_t rate_n = defect_rates.empty() ? 1 : defect_rates.size();
  const std::size_t seed_n = seeds.empty() ? 1 : seeds.size();
  require(index < soc_n * scheme_n * rate_n * seed_n,
          "SweepSpec::spec_at: index outside the sweep's cardinality");

  const std::size_t di = index % seed_n;
  const std::size_t ri = (index / seed_n) % rate_n;
  const std::size_t ci = (index / (seed_n * rate_n)) % scheme_n;
  const std::size_t si = index / (seed_n * rate_n * scheme_n);

  auto builder = base;
  if (!socs.empty()) {
    builder.clear_srams().add_srams(socs[si]);
  }
  if (!schemes.empty()) {
    builder.scheme(schemes[ci]);
  }
  if (!defect_rates.empty()) {
    builder.defect_rate(defect_rates[ri]);
  }
  if (!seeds.empty()) {
    builder.seed(seeds[di]);
  }
  return builder.build(registry);
}

Expected<std::vector<SessionSpec>, ConfigError> SweepSpec::expand(
    const SchemeRegistry& registry) const {
  std::vector<SessionSpec> specs;
  const std::size_t count = cardinality();
  specs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto spec = spec_at(i, registry);
    if (!spec) {
      return make_unexpected(spec.error());
    }
    specs.push_back(std::move(spec).value());
  }
  return specs;
}

// ---- SweepCursor -----------------------------------------------------------

SweepCursor::SweepCursor(SweepSpec sweep, const SchemeRegistry* registry,
                         std::size_t cardinality)
    : sweep_(std::move(sweep)),
      registry_(registry),
      cardinality_(cardinality) {}

Expected<SweepCursor, ConfigError> SweepCursor::create(
    SweepSpec sweep, const SchemeRegistry& registry) {
  const std::size_t count = sweep.cardinality();
  // Validate each axis value once, combined with the first value of every
  // other axis.  Spec validation is per-field (configs, rate, scheme,
  // seed), so a product spec is valid iff each of its axis values passes
  // here — next()/spec_at() can then hand out specs unconditionally.
  const std::size_t soc_n = sweep.socs.empty() ? 1 : sweep.socs.size();
  const std::size_t scheme_n = sweep.schemes.empty() ? 1 : sweep.schemes.size();
  const std::size_t rate_n =
      sweep.defect_rates.empty() ? 1 : sweep.defect_rates.size();
  const std::size_t seed_n = sweep.seeds.empty() ? 1 : sweep.seeds.size();
  const auto check = [&](std::size_t index) -> std::optional<ConfigError> {
    auto spec = sweep.spec_at(index, registry);
    if (!spec) {
      return spec.error();
    }
    return std::nullopt;
  };
  for (std::size_t si = 0; si < soc_n; ++si) {
    if (auto error = check(si * scheme_n * rate_n * seed_n)) {
      return make_unexpected(*error);
    }
  }
  for (std::size_t ci = 1; ci < scheme_n; ++ci) {
    if (auto error = check(ci * rate_n * seed_n)) {
      return make_unexpected(*error);
    }
  }
  for (std::size_t ri = 1; ri < rate_n; ++ri) {
    if (auto error = check(ri * seed_n)) {
      return make_unexpected(*error);
    }
  }
  for (std::size_t di = 1; di < seed_n; ++di) {
    if (auto error = check(di)) {
      return make_unexpected(*error);
    }
  }
  return SweepCursor(std::move(sweep), &registry, count);
}

void SweepCursor::seek(std::size_t position) {
  require(position <= cardinality_,
          "SweepCursor::seek: position beyond the sweep's cardinality");
  position_ = position;
}

std::optional<SessionSpec> SweepCursor::next() {
  if (position_ >= cardinality_) {
    return std::nullopt;
  }
  return spec_at(position_++);
}

SessionSpec SweepCursor::spec_at(std::size_t index) const {
  auto spec = sweep_.spec_at(index, *registry_);
  // create() validated every axis value; a failure here means the sweep or
  // registry was mutated behind the cursor's back.
  ensure(spec.has_value(), [&] {
    return "SweepCursor: spec " + std::to_string(index) +
           " failed validation after create(): " + spec.error().message;
  });
  return std::move(spec).value();
}

DiagnosisEngine::DiagnosisEngine(EngineOptions options)
    : options_(options) {
  resolved_workers_ = options_.workers != 0 ? options_.workers
                                            : cached_hardware_concurrency();
  if (resolved_workers_ > 1) {
    pool_ = std::make_unique<WorkerPool>(resolved_workers_ - 1);
  }
}

DiagnosisEngine::~DiagnosisEngine() = default;

std::size_t DiagnosisEngine::worker_count(std::size_t batch_size) const {
  return std::max<std::size_t>(1, std::min(resolved_workers_, batch_size));
}

std::size_t DiagnosisEngine::pool_threads() const {
  return pool_ ? pool_->thread_count() : 0;
}

const SchemeRegistry& DiagnosisEngine::registry() const {
  return options_.registry != nullptr ? *options_.registry
                                      : SchemeRegistry::global();
}

namespace {

/// Scores an in-field run: resolves every injected transient upset against
/// the scheme's scan windows and collects the residual/ECC accounting from
/// each memory's SoftErrorBehavior.
SoftErrorOutcome score_soft_error(bisd::SocUnderTest& soc,
                                  const bisd::DiagnosisScheme& scheme,
                                  const bisd::DiagnosisLog& log) {
  SoftErrorOutcome out;
  const auto info = scheme.scan_info();
  if (info) {
    out.scan_sweeps = info->sweep_count;
    out.scrub_writes = info->scrub_writes;
  }
  // The sweeps that flagged each cell, ascending per cell (a scan logs
  // them in sweep order, so the sort rarely runs): the first one at or
  // after an upset's window is the earliest sweep that caught it.
  std::optional<bisd::DiagnosisLog> copy;
  const bisd::DiagnosisLog& sealed = bisd::sealed_form(log, copy);
  const auto& tables = sealed.tables();
  const auto groups = sealed.entries_by_cell();
  std::vector<std::uint32_t> sweeps(groups.order.size());
  for (std::size_t j = 0; j < sweeps.size(); ++j) {
    sweeps[j] = tables.events[tables.entries[groups.order[j]].event].element;
  }
  for (std::size_t c = 0; c < groups.cells.size(); ++c) {
    const auto first = sweeps.begin() + groups.offsets[c];
    const auto last = sweeps.begin() + groups.offsets[c + 1];
    if (!std::is_sorted(first, last)) {
      std::sort(first, last);
    }
  }
  for (std::size_t m = 0; m < soc.memory_count(); ++m) {
    auto* soft = soc.soft_behavior(m);
    if (soft == nullptr) continue;
    auto& memory = soc.memory(m);
    // The scheme left every clock at the end of the in-field window; land
    // any post-final-sweep events before reading the residual state.
    soft->commit_up_to(memory.cells_mut(), memory.now_ns());
    out.escaped_cells +=
        soft->escaped_cells(memory.cells_mut(), memory.now_ns());
    out.ecc_corrected += soft->ecc_stats().corrected;
    out.ecc_miscorrected += soft->ecc_stats().miscorrected;
    out.ecc_uncorrectable += soft->ecc_stats().uncorrectable;
    const std::uint32_t data_bits = soc.config(m).bits;
    for (const auto& event : soft->events()) {
      ++out.injected_upsets;
      // Detection is scored over transient data-column upsets; check-column
      // hits surface only through the ECC statistics, and intermittents may
      // legitimately expire between sweeps.
      if (event.kind != faults::UpsetKind::transient ||
          event.cell.bit >= data_bits) {
        continue;
      }
      ++out.transient_upsets;
      if (!info) continue;
      const std::uint64_t window = info->window_of(event.time_ns);
      if (window >= info->sweep_count) continue;  // after the final sweep
      ++out.scored_upsets;
      const bisd::LoggedCell cell{static_cast<std::uint32_t>(m),
                                  event.cell.row, event.cell.bit};
      const auto found =
          std::lower_bound(groups.cells.begin(), groups.cells.end(), cell);
      if (found == groups.cells.end() || *found != cell) continue;
      const auto c = static_cast<std::size_t>(found - groups.cells.begin());
      const auto last = sweeps.begin() + groups.offsets[c + 1];
      const auto caught =
          std::lower_bound(sweeps.begin() + groups.offsets[c], last, window);
      if (caught == last) continue;
      ++out.detected_upsets;
      out.correct_window += *caught == window ? 1 : 0;
    }
  }
  return out;
}

}  // namespace

Report DiagnosisEngine::execute(const SessionSpec& spec,
                                const SchemeRegistry& registry,
                                diagnosis::ClassifierCache* classifier_cache) {
  const faults::SoftErrorSpec& soft = spec.soft_error();
  auto soc = bisd::SocUnderTest::from_injection(
      spec.configs(), spec.injection(), spec.seed(),
      soft.enabled ? &soft : nullptr);
  soc.set_access_kernel(spec.access_kernel());
  auto scheme = registry.make(
      spec.scheme(), {.clock = spec.clock(), .soft_error = soft});

  Report report;
  report.scheme_name = spec.scheme();
  report.scheme_description = scheme->name();
  report.seed = spec.seed();
  report.defect_rate = spec.injection().cell_defect_rate;
  report.injected_faults = soc.total_faults();
  report.result = scheme->diagnose(soc);
  report.result.log.seal();  // built-in schemes seal already; plug-ins may not
  report.total_ns = report.result.total_ns(spec.clock());

  for (std::size_t i = 0; i < soc.memory_count(); ++i) {
    report.matches.push_back(faults::match_diagnosis(
        soc.truth(i), report.result.log.cells(i), soc.config(i)));
  }

  if (soft.enabled) {
    report.soft_error = score_soft_error(soc, *scheme, report.result.log);
  }

  if (spec.classify()) {
    if (const auto test = scheme->classification_test(soc.max_bits())) {
      const auto syndromes = diagnosis::extract_syndromes(
          report.result.log, soc.memory_count());
      diagnosis::ClassifierOptions classifier_options;
      classifier_options.clock = spec.clock();
      auto soc_classification = diagnosis::classify_soc(
          soc, syndromes, *test, classifier_options, classifier_cache);
      report.classification =
          ClassificationOutcome{std::move(soc_classification.memories),
                                std::move(soc_classification.confusion)};
    }
  }

  if (spec.repair()) {
    bool repairable = false;
    if (spec.column_spares()) {
      report.repair_2d = bisd::plan_repair_2d(report.result.log, soc);
      bisd::apply_repair(soc, *report.repair_2d);
      repairable = report.repair_2d->fully_repairable();
    } else {
      report.repair = bisd::plan_repair(report.result.log, soc);
      bisd::apply_repair(soc, *report.repair);
      repairable = report.repair->fully_repairable();
    }
    const auto verify = scheme->diagnose(soc);
    // Clean only when every faulty site got a spare and the retest logs
    // nothing at all.
    report.repair_verified_clean = repairable && verify.log.empty();
  }
  return report;
}

AggregateReport DiagnosisEngine::run_batch(
    const std::vector<SessionSpec>& specs,
    const RunObserver& observer) const {
  AggregateReport aggregate;
  aggregate.runs.reserve(specs.size());
  std::size_t next = 0;
  // A window of the whole batch never holds a pull back; each Report moves
  // into its submission slot as it is delivered.
  run_pipeline(
      [&]() -> std::optional<SessionSpec> {
        if (next == specs.size()) {
          return std::nullopt;
        }
        return specs[next++];
      },
      std::max<std::size_t>(specs.size(), 1),
      [&](std::uint64_t index, Report&& report) {
        // Deliveries come in submission order, so a batch aggregate's
        // folded state is bit-identical to a streaming sweep's.
        aggregate.folded.fold(report);
        if (observer) {
          observer(static_cast<std::size_t>(index), report);
        }
        aggregate.runs.push_back(std::move(report));
      });
  return aggregate;
}

Expected<AggregateReport, ConfigError> DiagnosisEngine::run_sweep(
    const SweepSpec& sweep, const RunObserver& observer) const {
  auto specs = sweep.expand(registry());
  if (!specs) {
    return make_unexpected(specs.error());
  }
  return run_batch(specs.value(), observer);
}

DiagnosisEngine::StreamResult DiagnosisEngine::run_stream(
    const SpecSource& source, const StreamOptions& options,
    AggregateReport resume) const {
  require(static_cast<bool>(source),
          "run_stream: source must be a callable spec generator");
  StreamResult result;
  result.aggregate = std::move(resume);
  // Streaming aggregates are folded-only: retained runs from a resume seed
  // would desynchronize run_count() from folded.count.
  result.aggregate.runs.clear();
  // Absolute stream index of the first pulled spec: resumes continue the
  // sink's numbering after the checkpointed prefix.
  const std::uint64_t first_index = result.aggregate.folded.count;

  const std::size_t window =
      options.window != 0 ? options.window
                          : std::max<std::size_t>(resolved_workers_ * 4, 16);
  const bool reports_progress =
      options.progress && options.progress_interval != 0;
  // The Report is only read here; the pipeline frees it off its lock.
  run_pipeline(source, window, [&](std::uint64_t index, Report&& report) {
    result.aggregate.folded.fold(report);
    if (options.sink) {
      options.sink(static_cast<std::size_t>(first_index + index), report);
    }
    const std::uint64_t completed = result.aggregate.folded.count;
    if (reports_progress && completed % options.progress_interval == 0) {
      options.progress(completed, result.aggregate);
    }
  });
  // Final progress call at stream end, unless the count already fired it.
  if (reports_progress &&
      result.aggregate.folded.count % options.progress_interval != 0) {
    options.progress(result.aggregate.folded.count, result.aggregate);
  }
  result.completed = result.aggregate.folded.count;
  return result;
}

void DiagnosisEngine::run_pipeline(
    const SpecSource& source, std::size_t window,
    const std::function<void(std::uint64_t, Report&&)>& deliver) const {
  // One cache per batch or stream: runs with identical (test, geometry,
  // retention) classify against one signature dictionary, and a resident
  // sweep keeps every dictionary it has ever built warm.
  diagnosis::ClassifierCache classifier_cache;
  const SchemeRegistry& schemes = registry();

  // Pipeline state, all guarded by `mutex`.  The source and every delivery
  // run under it, which is what serializes them.
  std::mutex mutex;
  std::condition_variable delivered_cv;  ///< delivered advanced or stopped
  std::uint64_t pulled = 0;
  std::uint64_t delivered = 0;
  std::map<std::uint64_t, Report> ready;  ///< executed, keyed by pull index
  bool stopped = false;  ///< no more pulls: the source ended or a step threw
  std::exception_ptr first_error;

  // The lease spans the pipeline.  Without the pool (one worker, a
  // re-entrant call) or with a window of one, the same loop runs on the
  // calling thread alone.
  const DispatchLease lease(*this);
  const std::size_t workers =
      lease.pool() != nullptr ? worker_count(window) : 1;
  // Jobs inherit the submitting thread's dispatch chain, so a re-entrant
  // call from a callback or scheme — even one reached through another
  // engine's pool thread — takes the calling-thread fallback.
  const TlsDispatchGuard* parent_chain = TlsDispatchGuard::current_chain();
  const WorkerPool::Job job = [&, parent_chain] {
    const TlsDispatchGuard tls(this, parent_chain);
    try {
      for (;;) {
        std::optional<SessionSpec> spec;
        std::uint64_t index = 0;
        {
          std::unique_lock<std::mutex> lock(mutex);
          delivered_cv.wait(
              lock, [&] { return stopped || pulled - delivered < window; });
          if (stopped) {
            return;
          }
          spec = source();
          if (!spec) {
            stopped = true;
            delivered_cv.notify_all();
            return;
          }
          index = pulled++;
        }
        Report report = execute(*spec, schemes, &classifier_cache);
        std::vector<std::map<std::uint64_t, Report>::node_type> retired;
        {
          const std::lock_guard<std::mutex> lock(mutex);
          if (first_error) {
            return;
          }
          ready.emplace(index, std::move(report));
          // Whoever completes the head delivers every consecutive ready
          // Report, strictly in submission order, so each prefix aggregate
          // (and thus every checkpoint) depends only on the prefix.
          while (!ready.empty() && ready.begin()->first == delivered) {
            retired.push_back(ready.extract(ready.begin()));
            deliver(delivered, std::move(retired.back().mapped()));
            ++delivered;
          }
          if (!retired.empty()) {
            delivered_cv.notify_all();
          }
        }
        // What the deliveries left of the Reports, and the spec, are freed
        // here, off the lock.
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex);
      if (!first_error) {
        first_error = std::current_exception();
      }
      stopped = true;
      delivered_cv.notify_all();
    }
  };
  if (workers > 1) {
    lease.pool()->run(workers, job);
  } else {
    job();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace fastdiag::core
