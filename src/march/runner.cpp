#include "march/runner.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <span>

#include "faults/overlay_slab.h"
#include "util/require.h"
#include "util/simd.h"

namespace fastdiag::march {

std::vector<sram::CellCoord> RunResult::suspect_cells() const {
  std::vector<sram::CellCoord> cells;
  for (const auto& mismatch : mismatches) {
    // Walk the differing bits limb-wise.
    const std::size_t width = mismatch.expected.width();
    for (std::size_t base = 0; base < width; base += 64) {
      std::uint64_t diff = mismatch.expected.word_at(base, 64) ^
                           mismatch.actual.word_at(base, 64);
      while (diff != 0) {
        const auto bit = base + static_cast<std::size_t>(std::countr_zero(diff));
        cells.push_back({mismatch.addr, static_cast<std::uint32_t>(bit)});
        diff &= diff - 1;
      }
    }
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  return cells;
}

namespace {

/// One March operation of the element stream, as seen by a drive_march sink.
struct OpCtx {
  std::size_t phase = 0;
  std::size_t element = 0;
  std::size_t op = 0;
  std::uint32_t addr = 0;
  std::uint32_t visit = 0;
  bool inverse = false;  ///< op polarity differs from the phase background
  bool nwrc = false;     ///< write op uses the NWRC style
};

/// The shared element-loop driver: phase/element iteration, once-element
/// pause handling, the controller's global-index-to-local-address mapping
/// (bisd::LocalAddressGenerator: addr wraps the memory's own capacity,
/// visit counts the wrap-around revisits) and op accounting.  The run
/// entry points differ only in delivery and demux, which live in their
/// sinks: begin_phase(p, phase), pause(ns), write(ctx), read(ctx).
template <typename Sink>
void drive_march(const MarchTest& test, std::uint32_t words,
                 std::uint32_t sweep, std::uint64_t& ops, Sink&& sink) {
  for (std::size_t p = 0; p < test.phases().size(); ++p) {
    const auto& phase = test.phases()[p];
    sink.begin_phase(p, phase);

    for (std::size_t e = 0; e < phase.elements.size(); ++e) {
      const auto& element = phase.elements[e];

      if (element.order == AddrOrder::once) {
        for (const auto& op : element.ops) {
          ensure(op.kind == MarchOpKind::pause,
                 "MarchRunner: non-pause op in once element");
          sink.pause(op.pause_ns);
          ++ops;
        }
        continue;
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
              ensure(false, "MarchRunner: pause in addressed element");
          }
        }
      }
    }
  }
}

/// Wrap-around revisits read back what the previous visit wrote, not the
/// nominal pattern, so the expectation needs a fault-free shadow tracking
/// the exact op stream ("memory size information stored in the BISD
/// controller", Sec. 3.1).  The classical no-wrap run keeps the cheap
/// nominal expectation and no shadow.
std::unique_ptr<sram::Sram> make_golden(const sram::SramConfig& config,
                                        std::uint32_t words,
                                        std::uint32_t sweep) {
  if (sweep <= words) {
    return nullptr;
  }
  auto golden_config = config;
  golden_config.name += ".golden";
  return std::make_unique<sram::Sram>(golden_config);
}

/// The per-memory port loop.  @p on_mismatch(phase, element, op, addr,
/// visit, expected, actual) fires for every mismatching read; the BitVector
/// references are scratch storage valid only for the duration of the call.
template <typename OnMismatch>
void run_loop(const sram::ClockDomain& clock, sram::Sram& memory,
              const MarchTest& test, std::uint32_t global_words,
              std::uint64_t& ops, OnMismatch&& on_mismatch) {
  require(test.width() >= memory.bits(), [&] {
    return "MarchRunner: test narrower than memory '" + memory.config().name +
           "'";
  });
  const std::uint32_t words = memory.words();
  const std::uint32_t sweep = global_words == 0 ? words : global_words;
  require(sweep >= words, "MarchRunner: global_words below the word count");

  struct PortSink {
    PortSink(const sram::ClockDomain& clock, sram::Sram& memory,
             sram::Sram* golden, OnMismatch& on_mismatch)
        : clock(clock), memory(memory), golden(golden),
          on_mismatch(on_mismatch) {}

    const sram::ClockDomain& clock;
    sram::Sram& memory;
    sram::Sram* golden;
    OnMismatch& on_mismatch;
    BitVector bg, bg_inv;
    BitVector actual, golden_scratch;  // scratch reused by every read

    void begin_phase(std::size_t, const MarchPhase& phase) {
      bg = phase.background.low_bits(memory.bits());
      bg_inv = bg.inverted();
    }
    void pause(std::uint64_t ns) { memory.advance_time_ns(ns); }
    void write(const OpCtx& ctx) {
      memory.advance_time_ns(clock.period_ns);
      const BitVector& data = ctx.inverse ? bg_inv : bg;
      if (ctx.nwrc) {
        memory.nwrc_write(ctx.addr, data);
      } else {
        memory.write(ctx.addr, data);
      }
      if (golden != nullptr) {
        golden->write(ctx.addr, data);
      }
    }
    void read(const OpCtx& ctx) {
      memory.advance_time_ns(clock.period_ns);
      memory.read_into(ctx.addr, actual);
      const BitVector* expected = ctx.inverse ? &bg_inv : &bg;
      if (golden != nullptr) {
        golden->read_into(ctx.addr, golden_scratch);
        expected = &golden_scratch;
      }
      if (actual != *expected) {
        on_mismatch(ctx.phase, ctx.element, ctx.op, ctx.addr, ctx.visit,
                    *expected, actual);
      }
    }
  };

  const auto golden = make_golden(memory.config(), words, sweep);
  PortSink sink{clock, memory, golden.get(), on_mismatch};
  drive_march(test, words, sweep, ops, sink);
}

/// One packed pass over a chunk of <= 64 probe lanes: the instance-sliced
/// dictionary-build replay.  Each lane's candidate list compiles into the
/// lane's own fault-site overlay (faults::OverlaySlab); the uniform March
/// stream advances the whole chunk with one overlaid word op per
/// cell-column, and mismatching reads demux straight to per-lane
/// (cell, ReadEvent) streams, handed to @p on_lane lane by lane.
void run_probe_chunk(
    const sram::ClockDomain& clock, const sram::SramConfig& probe_config,
    std::span<const std::vector<faults::FaultInstance>> lanes,
    const MarchTest& test, std::uint32_t sweep,
    const std::function<void(std::size_t, std::span<const LaneRead>)>&
        on_lane) {
  const std::size_t lane_count = lanes.size();
  const std::uint32_t words = probe_config.words;
  const std::uint32_t bits = probe_config.bits;

  // The sink only appends raw (cell, event) observations per lane, in
  // March arrival order; grouping happens in on_lane, after the drive, so
  // the hot read path never touches a caller's result structures.
  struct ProbeSink {
    ProbeSink(const sram::ClockDomain& clock, faults::OverlaySlab& batch,
              std::size_t lane_count, sram::Sram* golden, std::uint32_t bits)
        : clock(clock), batch(batch), events(lane_count), golden(golden),
          bits(bits) {}

    const sram::ClockDomain& clock;
    faults::OverlaySlab& batch;
    std::vector<std::vector<LaneRead>> events;
    sram::Sram* golden;
    std::uint32_t bits;
    std::uint64_t now_ns = 0;
    BitVector bg, bg_inv;
    std::vector<std::uint64_t> bcast_bg, bcast_inv, ebcast;
    BitVector golden_scratch;

    void begin_phase(std::size_t, const MarchPhase& phase) {
      bg = phase.background.low_bits(bits);
      bg_inv = bg.inverted();
      bcast_bg.resize(bits);
      bcast_inv.resize(bits);
      simd::expand_bits(bg.word_data(), bcast_bg.data(), bits);
      simd::expand_bits(bg_inv.word_data(), bcast_inv.data(), bits);
    }
    void pause(std::uint64_t ns) { now_ns += ns; }
    void write(const OpCtx& ctx) {
      now_ns += clock.period_ns;
      const BitVector& data = ctx.inverse ? bg_inv : bg;
      batch.write(ctx.addr, ctx.inverse ? bcast_inv.data() : bcast_bg.data(),
                  ctx.nwrc ? sram::WriteStyle::nwrc : sram::WriteStyle::normal,
                  now_ns);
      if (golden != nullptr) {
        golden->write(ctx.addr, data);
      }
    }
    void read(const OpCtx& ctx) {
      now_ns += clock.period_ns;
      const std::uint64_t* eb =
          ctx.inverse ? bcast_inv.data() : bcast_bg.data();
      if (golden != nullptr) {
        golden->read_into(ctx.addr, golden_scratch);
        ebcast.resize(bits);
        simd::expand_bits(golden_scratch.word_data(), ebcast.data(), bits);
        eb = ebcast.data();
      }
      batch.read(ctx.addr, now_ns);
      if (batch.compare(eb, 0, bits) == 0) {
        return;
      }
      // Only flagged columns are demuxed, lanes in ascending order per
      // column; on_lane regroups a lane's events by cell if it needs to.
      const ReadEvent event{ctx.phase, ctx.element, ctx.visit, ctx.op};
      const std::uint64_t* observed = batch.observed();
      for (std::uint32_t base = 0; base < bits; base += 64) {
        std::uint64_t cols = batch.mismatch_columns(eb, base);
        while (cols != 0) {
          const std::uint32_t bit =
              base + static_cast<std::uint32_t>(std::countr_zero(cols));
          cols &= cols - 1;
          std::uint64_t lanes_mask =
              (observed[bit] ^ eb[bit]) & batch.lane_mask();
          while (lanes_mask != 0) {
            const auto lane =
                static_cast<std::size_t>(std::countr_zero(lanes_mask));
            lanes_mask &= lanes_mask - 1;
            events[lane].push_back({ctx.addr * bits + bit, event});
          }
        }
      }
    }
  };

  faults::OverlaySlab batch(probe_config, lanes.data(), lane_count);
  const auto golden = make_golden(probe_config, words, sweep);

  std::uint64_t ops = 0;
  ProbeSink sink{clock, batch, lane_count, golden.get(), bits};
  drive_march(test, words, sweep, ops, sink);
  for (std::size_t k = 0; k < lane_count; ++k) {
    on_lane(k, std::span<const LaneRead>(sink.events[k]));
  }
}

}  // namespace

RunResult MarchRunner::run(sram::Sram& memory, const MarchTest& test,
                           std::uint32_t global_words) const {
  RunResult result;
  const std::uint64_t start_ns = memory.now_ns();
  run_loop(clock_, memory, test, global_words, result.ops,
           [&result](std::size_t p, std::size_t e, std::size_t o,
                     std::uint32_t addr, std::uint32_t visit,
                     const BitVector& expected, const BitVector& actual) {
             result.mismatches.push_back(
                 Mismatch{p, e, o, addr, visit, expected, actual});
           });
  result.elapsed_ns = memory.now_ns() - start_ns;
  return result;
}

std::map<sram::CellCoord, std::vector<ReadEvent>> MarchRunner::run_per_cell(
    sram::Sram& memory, const MarchTest& test,
    std::uint32_t global_words) const {
  std::map<sram::CellCoord, std::vector<ReadEvent>> by_cell;
  std::uint64_t ops = 0;
  run_loop(clock_, memory, test, global_words, ops,
           [&by_cell](std::size_t p, std::size_t e, std::size_t o,
                      std::uint32_t addr, std::uint32_t visit,
                      const BitVector& expected, const BitVector& actual) {
             const ReadEvent event{p, e, visit, o};
             const std::size_t width = expected.width();
             for (std::size_t base = 0; base < width; base += 64) {
               std::uint64_t diff = expected.word_at(base, 64) ^
                                    actual.word_at(base, 64);
               while (diff != 0) {
                 const auto bit =
                     base + static_cast<std::size_t>(std::countr_zero(diff));
                 diff &= diff - 1;
                 auto& reads =
                     by_cell[{addr, static_cast<std::uint32_t>(bit)}];
                 if (reads.empty() || reads.back() != event) {
                   reads.push_back(event);
                 }
               }
             }
           });
  return by_cell;
}

std::vector<std::map<sram::CellCoord, std::vector<ReadEvent>>>
MarchRunner::run_group_per_cell(
    const sram::SramConfig& probe_config,
    const std::vector<std::vector<faults::FaultInstance>>& lanes,
    const MarchTest& test, std::uint32_t global_words) const {
  require(!lanes.empty(), "MarchRunner: empty probe group");
  // Fold each lane's stream into its (cell -> reads) map exactly as
  // run_per_cell would have: a cell's reads arrive in March order, and a
  // read failing twice on one cell counts once.
  const std::uint32_t bits = probe_config.bits;
  std::vector<std::map<sram::CellCoord, std::vector<ReadEvent>>> results(
      lanes.size());
  for (std::size_t start = 0; start < lanes.size(); start += 64) {
    const std::span<const std::vector<faults::FaultInstance>> chunk(
        lanes.data() + start, std::min<std::size_t>(64, lanes.size() - start));
    run_group_chunk(probe_config, chunk, test, global_words,
                    [&](std::size_t k, std::span<const LaneRead> reads) {
                      auto& by_cell = results[start + k];
                      for (const auto& read : reads) {
                        auto& events = by_cell[{read.cell_id / bits,
                                                read.cell_id % bits}];
                        if (events.empty() || events.back() != read.event) {
                          events.push_back(read.event);
                        }
                      }
                    });
  }
  return results;
}

void MarchRunner::run_group_chunk(
    const sram::SramConfig& probe_config,
    std::span<const std::vector<faults::FaultInstance>> lanes,
    const MarchTest& test, std::uint32_t global_words,
    const std::function<void(std::size_t, std::span<const LaneRead>)>&
        on_lane) const {
  require(!lanes.empty() && lanes.size() <= 64,
          "MarchRunner: a probe chunk holds 1 to 64 lanes");
  require(test.width() >= probe_config.bits, [&] {
    return "MarchRunner: test narrower than memory '" + probe_config.name +
           "'";
  });
  const std::uint32_t sweep =
      global_words == 0 ? probe_config.words : global_words;
  require(sweep >= probe_config.words,
          "MarchRunner: global_words below the word count");
  run_probe_chunk(clock_, probe_config, lanes, test, sweep, on_lane);
}

}  // namespace fastdiag::march
