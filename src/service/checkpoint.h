// Checkpoint/resume for streaming sweeps.
//
// A SweepCheckpoint is a fixed-size image of a streaming sweep's progress:
// the spec-cursor position (how many specs of the expansion order are
// folded — the completion set is exactly that prefix, independent of RNG
// or worker scheduling because run_stream folds in submission order), the
// folded aggregate over that prefix, and a fingerprint of the sweep's
// axes so a checkpoint is never resumed against a different sweep.
//
// Because the folded accumulators are integer-exact and run_stream folds
// sequentially, a killed-and-resumed sweep's final aggregate is
// bit-identical to an uninterrupted run — encode_checkpoint() of both
// yields the same bytes.  Checkpoint writes are atomic (temp file +
// rename), so a kill mid-write leaves the previous checkpoint intact.
//
// The writes ride run_stream's progress callback, so like the sink they
// may run on an engine pool thread rather than the caller's; they are
// still serialized and in order, and each one stalls the stream's pulls
// while it runs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/expected.h"
#include "core/report.h"
#include "service/serialize.h"

namespace fastdiag::service {

struct SweepCheckpoint {
  std::uint64_t fingerprint = 0;  ///< sweep_fingerprint() of the sweep
  std::uint64_t position = 0;     ///< folded prefix length (spec cursor)
  core::AggregateReport::Folded folded;

  friend bool operator==(const SweepCheckpoint&,
                         const SweepCheckpoint&) = default;
};

/// FNV-1a over the sweep's axes (soc geometries, scheme names, defect
/// rates, seeds) and cardinality.  Deliberately excludes the base spec's
/// unlisted fields — the caller owns keeping those stable across a resume,
/// the fingerprint guards against resuming into reshaped axes.
[[nodiscard]] std::uint64_t sweep_fingerprint(const core::SweepSpec& sweep);

/// "FDCK" v1 blob.
[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint(
    const SweepCheckpoint& checkpoint);
[[nodiscard]] core::Expected<SweepCheckpoint, DecodeError> decode_checkpoint(
    const std::uint8_t* data, std::size_t size);

/// Atomically replaces @p path with @p checkpoint (write temp + rename).
/// Returns false on I/O failure.
bool save_checkpoint_file(const std::string& path,
                          const SweepCheckpoint& checkpoint);

/// Loads and decodes @p path; nullopt when the file is missing, truncated
/// or corrupt (a damaged checkpoint degrades to a fresh start, it never
/// crashes the sweep).
[[nodiscard]] std::optional<SweepCheckpoint> load_checkpoint_file(
    const std::string& path);

struct CheckpointedSweepOptions {
  /// Checkpoint file; written every interval runs and at completion.
  std::string path;

  /// Runs between checkpoint writes.
  std::size_t interval = 1024;

  /// Test/abort hook: stop pulling new specs after this many runs complete
  /// in *this* process (0 = run to completion).  The checkpoint on disk
  /// then covers the folded prefix, ready for a later resume.
  std::size_t stop_after = 0;

  /// Forwarded to DiagnosisEngine::StreamOptions: the sink, like the
  /// checkpoint writes, may run on a pool thread (serialized, in order).
  std::size_t window = 0;
  core::DiagnosisEngine::RunObserver sink;
};

struct CheckpointedSweepResult {
  core::AggregateReport aggregate;  ///< folded-only
  std::uint64_t completed = 0;      ///< total folded, resumed prefix included
  bool finished = false;            ///< every spec of the sweep folded
  bool resumed = false;             ///< a valid checkpoint seeded this run
};

/// Streams @p sweep through @p engine with periodic checkpoints at
/// @p options.path.  When the file already holds a checkpoint of this
/// exact sweep (fingerprint match), the sweep resumes past its prefix;
/// the final aggregate is bit-identical to an uninterrupted run.
[[nodiscard]] core::Expected<CheckpointedSweepResult, core::ConfigError>
run_sweep_with_checkpoints(
    const core::DiagnosisEngine& engine, const core::SweepSpec& sweep,
    const CheckpointedSweepOptions& options,
    const core::SchemeRegistry& registry = core::SchemeRegistry::global());

}  // namespace fastdiag::service
