// DiagnosisEngine: batched, parallel execution of validated SessionSpecs.
//
// Each run owns its RNG, its SoC and its scheme instance, so runs are
// embarrassingly parallel: batches and streams share one pipeline over a
// persistent worker pool and still produce bit-identical per-run Reports
// to serial execution — a Report depends only on its spec, never on
// scheduling.
//
// The pool is created once at engine construction and fed through a work
// queue; run_batch()/run_sweep()/run_stream() never spawn or join threads,
// so steady-state batch traffic does zero thread churn.  Workers keep no
// state between runs.
//
// SweepSpec builds such batches declaratively: the cartesian product of
// SoC configurations x schemes x defect rates x seeds over a shared base
// spec, validated axis by axis through the same Expected pipeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/errors.h"
#include "core/expected.h"
#include "core/report.h"
#include "core/spec.h"

namespace fastdiag::core {

/// Cartesian sweep over a base spec.  An empty axis keeps the base value;
/// a non-empty axis replaces it with each listed value in turn.  Expansion
/// order is socs (outermost), then schemes, then defect rates, then seeds
/// (innermost) — AggregateReport::runs follows this order.
struct SweepSpec {
  SessionSpec::Builder base;

  std::vector<std::vector<sram::SramConfig>> socs;
  std::vector<std::string> schemes;
  std::vector<double> defect_rates;
  std::vector<std::uint64_t> seeds;

  /// Number of specs expand() yields: the product of every non-empty
  /// axis's size (empty axes count as 1).
  [[nodiscard]] std::size_t cardinality() const;

  /// Expands the product into validated specs.  Fails with the first
  /// per-spec ConfigError, or with empty_sweep when an axis is explicitly
  /// empty of usable values (e.g. socs contains an empty config list).
  [[nodiscard]] Expected<std::vector<SessionSpec>, ConfigError> expand(
      const SchemeRegistry& registry = SchemeRegistry::global()) const;

  /// The spec at @p index of the expansion order, built without
  /// materializing the rest of the product — the random access streaming
  /// sweeps and checkpoint/resume are built on.  expand()[i] and
  /// spec_at(i) are identical by construction (expand is implemented on
  /// top of this).
  [[nodiscard]] Expected<SessionSpec, ConfigError> spec_at(
      std::size_t index,
      const SchemeRegistry& registry = SchemeRegistry::global()) const;
};

/// A generator over a SweepSpec's expansion: yields spec i, i+1, ... without
/// ever materializing the product, so a 100k-run sweep costs O(1) memory on
/// the spec side.  seek() gives checkpoint/resume its spec-cursor — the
/// completion prefix of a streaming sweep maps 1:1 onto a cursor position.
///
/// create() validates every axis value once (each combined with the first
/// value of the other axes; spec validation is per-field, so that covers
/// the whole product), which is what lets next() hand out specs without a
/// per-call error channel.
class SweepCursor {
 public:
  [[nodiscard]] static Expected<SweepCursor, ConfigError> create(
      SweepSpec sweep,
      const SchemeRegistry& registry = SchemeRegistry::global());

  [[nodiscard]] std::size_t cardinality() const { return cardinality_; }

  /// Index of the spec the next next() call yields.
  [[nodiscard]] std::size_t position() const { return position_; }

  /// Moves the cursor; @p position may equal cardinality() (exhausted).
  void seek(std::size_t position);

  /// The spec at position(), advancing past it; nullopt when exhausted.
  [[nodiscard]] std::optional<SessionSpec> next();

  /// Random access without moving the cursor.
  [[nodiscard]] SessionSpec spec_at(std::size_t index) const;

 private:
  SweepCursor(SweepSpec sweep, const SchemeRegistry* registry,
              std::size_t cardinality);

  SweepSpec sweep_;
  const SchemeRegistry* registry_;
  std::size_t cardinality_ = 0;
  std::size_t position_ = 0;
};

struct EngineOptions {
  /// Worker threads for run_batch() and run_stream(); 0 picks the hardware
  /// concurrency (queried once per process and cached).  An engine with
  /// workers == 1 owns no pool threads at all.
  std::size_t workers = 1;

  /// Registry schemes are resolved from; nullptr means the global one.
  /// Must outlive the engine.
  const SchemeRegistry* registry = nullptr;
};

class DiagnosisEngine {
 public:
  explicit DiagnosisEngine(EngineOptions options = {});
  ~DiagnosisEngine();
  DiagnosisEngine(const DiagnosisEngine&) = delete;
  DiagnosisEngine& operator=(const DiagnosisEngine&) = delete;

  /// Executes one spec on the calling thread: injects defects, runs the
  /// scheme, scores against ground truth, optionally repairs + re-verifies.
  /// When the spec classifies, signature dictionaries come from
  /// @p classifier_cache if given (run_batch shares one per batch, so a
  /// sweep builds each distinct dictionary once); else they are rebuilt
  /// for this call.
  [[nodiscard]] static Report execute(
      const SessionSpec& spec,
      const SchemeRegistry& registry = SchemeRegistry::global(),
      diagnosis::ClassifierCache* classifier_cache = nullptr);

  /// Called once per finished run with the run's position in the submitted
  /// batch: serialized, in submission order, on any engine thread, under
  /// the pipeline lock.
  using RunObserver = std::function<void(std::size_t index, const Report&)>;

  /// Executes the batch on run_stream()'s pipeline, with a window of the
  /// whole batch, and aggregates.  Per-run Reports are moved into
  /// AggregateReport::runs at their submission index, never copied.  No
  /// threads are spawned here — the pool outlives the batch.  The first
  /// exception from a run or the observer stops further runs, and
  /// run_batch rethrows it once every worker has stopped.
  ///
  /// Concurrency contract: one batch dispatches on an engine's pool at a
  /// time.  A concurrent run_batch from another thread blocks until the
  /// pool frees, then runs parallel itself (want overlap? use one engine
  /// per submitting thread — engines are cheap); on a one-worker engine it
  /// runs at once on its own thread.  A *re-entrant* call — an
  /// observer or scheme re-entering the same engine mid-batch, even
  /// through another engine's dispatch — runs serially on the calling
  /// thread instead of deadlocking.  Like any blocking resource, engines
  /// observe lock ordering: observers that dispatch *other* engines must
  /// not form opposite-order chains across threads (thread 1: A's
  /// observer -> B, thread 2: B's observer -> A is a classic lock cycle).
  [[nodiscard]] AggregateReport run_batch(
      const std::vector<SessionSpec>& specs,
      const RunObserver& observer = {}) const;

  /// Convenience: expand the sweep, then run_batch() the product.
  [[nodiscard]] Expected<AggregateReport, ConfigError> run_sweep(
      const SweepSpec& sweep, const RunObserver& observer = {}) const;

  /// Pull-source of specs for run_stream(); nullopt ends the stream, and
  /// the source is not called again after it.  Calls are serialized (never
  /// concurrent with each other, the sink or progress), in submission
  /// order, on any engine thread: the submitting thread or a pool thread.
  using SpecSource = std::function<std::optional<SessionSpec>()>;

  struct StreamOptions {
    /// Hard cap on specs pulled from the source but not yet delivered to
    /// the sink: a worker pulls only while fewer than this many are
    /// outstanding, so the stream holds at most window specs and Reports
    /// whatever its length.  Any value is accepted (nothing is sized by
    /// it); 0 picks 4x the engine's workers (at least 16).
    std::size_t window = 0;

    /// Per-run result sink, called in submission-index order with the
    /// absolute stream index; the Report is dropped right after, never
    /// retained.  Serialized with the source and progress, on any engine
    /// thread.  Delivery holds the stream's lock, so a slow sink stalls
    /// pulls.
    RunObserver sink;

    /// When non-zero, progress() fires exactly at every multiple of this
    /// many completed runs (and once more at stream end) with the folded
    /// prefix aggregate — the checkpointing hook.  The partial aggregate a
    /// given completed count sees depends only on that prefix, never on
    /// window size or scheduling.  Like the sink, it is serialized with
    /// the other callbacks and may run on any engine thread.
    std::size_t progress_interval = 0;
    std::function<void(std::uint64_t completed, const AggregateReport&)>
        progress;
  };

  struct StreamResult {
    /// Folded-only aggregate (runs stays empty): fixed-size statistics
    /// over every streamed run, including any resumed-from prefix.
    AggregateReport aggregate;

    /// Runs folded in total (== aggregate.folded.count).
    std::uint64_t completed = 0;
  };

  /// Streams specs from @p source through the worker pool as a pipeline:
  /// each worker pulls its next spec only when it is free and executes it,
  /// and finished Reports wait in a reorder buffer until every earlier
  /// one is in.  The worker that completes the head delivers every
  /// consecutive ready Report (fold, sink, progress, in submission order)
  /// and then drops it — memory stays O(window), independent of stream
  /// length, and no worker waits for a window of runs to finish.  One
  /// ClassifierCache spans the whole stream, so a resident sweep keeps its
  /// dictionaries warm.
  ///
  /// The engine's pool is held for the whole stream: a concurrent
  /// run_batch or run_stream from another thread blocks until it ends.  A
  /// re-entrant stream (a callback or scheme re-entering this engine), a
  /// one-worker engine and a window of 1 run pull -> execute -> deliver
  /// per spec on the calling thread.  The first exception from the
  /// source, a run or a callback stops further pulls, and run_stream
  /// rethrows it on the calling thread once every worker has stopped;
  /// Reports not yet delivered are dropped.
  ///
  /// @p resume seeds the fold: pass a checkpointed folded aggregate (and a
  /// source seeked past its completed prefix) and the final aggregate is
  /// bit-identical to an uninterrupted run — folding is sequential in
  /// stream order on both paths.
  [[nodiscard]] StreamResult run_stream(const SpecSource& source,
                                        const StreamOptions& options,
                                        AggregateReport resume = {}) const;
  [[nodiscard]] StreamResult run_stream(const SpecSource& source) const {
    return run_stream(source, StreamOptions{});
  }

  /// Threads run_batch() would use for a batch of @p batch_size runs
  /// (including the calling thread, which always participates).
  [[nodiscard]] std::size_t worker_count(std::size_t batch_size) const;

  /// Pool threads owned by this engine — created at construction, torn
  /// down at destruction, never touched in between.  resolved workers - 1
  /// (the calling thread is the remaining worker), so 0 for workers == 1.
  [[nodiscard]] std::size_t pool_threads() const;

 private:
  class WorkerPool;
  class DispatchLease;

  [[nodiscard]] const SchemeRegistry& registry() const;

  /// The dispatch loop behind run_batch() and run_stream(): workers pull
  /// from @p source while fewer than @p window runs are undelivered,
  /// execute outside the lock, and @p deliver(index, report) runs under
  /// the pipeline lock in submission order.  One ClassifierCache spans the
  /// call.  The first exception stops further pulls and is rethrown once
  /// every worker has stopped.
  void run_pipeline(
      const SpecSource& source, std::size_t window,
      const std::function<void(std::uint64_t index, Report&& report)>&
          deliver) const;

  EngineOptions options_;
  std::size_t resolved_workers_ = 1;
  std::unique_ptr<WorkerPool> pool_;  ///< nullptr when resolved_workers_ == 1
};

}  // namespace fastdiag::core
