// The element driver every executor of a MarchTest shares: MarchRunner's
// entry points (march/runner.cpp) and bisd::FastScheme's execution units.
//
// The driver owns the algorithm's schedule: phase and element iteration,
// once-element pauses, the controller's address trigger and op accounting.
// The trigger sweeps one global index per element (Sec. 3.1); a memory's
// local address is that index modulo its own capacity, so a memory smaller
// than the sweep wraps around and sees every pattern once per visit.
// Executors differ only in delivery and demux, which live in their sinks.
#pragma once

#include <cstddef>
#include <cstdint>

#include "march/test.h"
#include "util/require.h"

namespace fastdiag::march {

/// One March operation of the element stream, as a sink sees it.
struct OpCtx {
  std::size_t phase = 0;
  std::size_t element = 0;
  std::size_t op = 0;
  std::uint32_t addr = 0;
  std::uint32_t visit = 0;
  bool inverse = false;  ///< op polarity differs from the phase background
  bool nwrc = false;     ///< write op uses the NWRC style
};

/// Drives element @p e of phase @p p of @p test through @p sink and counts
/// its ops into @p ops.  A once element hands each pause to
/// sink.pause(ns).  Any other element sweeps @p sweep global steps,
/// descending for AddrOrder::down: step s reaches local address
/// global % @p words at visit s / @p words, and each op of the element goes
/// to sink.write(ctx) or sink.read(ctx).  A sink may define
/// begin_element(p, e) and end_element(p, e); they bracket the sweep of an
/// addressed element and never fire for a once element.
template <typename Sink>
void drive_element(const MarchTest& test, std::size_t p, std::size_t e,
                   std::uint32_t words, std::uint32_t sweep,
                   std::uint64_t& ops, Sink& sink) {
  const auto& phase = test.phases()[p];
  const auto& element = phase.elements[e];

  if (element.order == AddrOrder::once) {
    for (const auto& op : element.ops) {
      ensure(op.kind == MarchOpKind::pause,
             "drive_element: non-pause op in once element");
      sink.pause(op.pause_ns);
      ++ops;
    }
    return;
  }

  if constexpr (requires { sink.begin_element(p, e); }) {
    sink.begin_element(p, e);
  }
  for (std::uint32_t step = 0; step < sweep; ++step) {
    const std::uint32_t global =
        element.order == AddrOrder::down ? sweep - 1 - step : step;
    const std::uint32_t addr = global % words;
    const std::uint32_t visit = step / words;
    for (std::size_t o = 0; o < element.ops.size(); ++o) {
      const auto& op = element.ops[o];
      ++ops;
      const OpCtx ctx{p,
                      e,
                      o,
                      addr,
                      visit,
                      op.polarity != Polarity::background,
                      op.kind == MarchOpKind::nwrc_write};
      switch (op.kind) {
        case MarchOpKind::write:
        case MarchOpKind::nwrc_write:
          sink.write(ctx);
          break;
        case MarchOpKind::read:
          sink.read(ctx);
          break;
        case MarchOpKind::pause:
          ensure(false, "drive_element: pause in addressed element");
      }
    }
  }
  if constexpr (requires { sink.end_element(p, e); }) {
    sink.end_element(p, e);
  }
}

/// Drives every element of @p test in order through @p sink, calling
/// sink.begin_phase(p, phase) before each phase's elements.
template <typename Sink>
void drive_march(const MarchTest& test, std::uint32_t words,
                 std::uint32_t sweep, std::uint64_t& ops, Sink&& sink) {
  for (std::size_t p = 0; p < test.phases().size(); ++p) {
    sink.begin_phase(p, test.phases()[p]);
    for (std::size_t e = 0; e < test.phases()[p].elements.size(); ++e) {
      drive_element(test, p, e, words, sweep, ops, sink);
    }
  }
}

}  // namespace fastdiag::march
