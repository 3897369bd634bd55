#include "bisd/fast_scheme.h"

#include <algorithm>
#include <array>
#include <bit>
#include <deque>
#include <tuple>
#include <vector>

#include "bisd/comparator.h"
#include "faults/overlay_slab.h"
#include "march/drive.h"
#include "march/library.h"
#include "nwrtm/nwrtm.h"
#include "serial/psc.h"
#include "serial/spc.h"
#include "util/require.h"
#include "util/simd.h"

namespace fastdiag::bisd {
namespace {

using march::AddrOrder;
using march::MarchOpKind;
using march::MarchTest;
using march::Polarity;

/// The single write pattern polarity of an element, if any.  Throws when an
/// element mixes polarities or write styles (one SPC delivery per element).
std::optional<Polarity> element_write_polarity(
    const march::MarchElement& element) {
  std::optional<Polarity> polarity;
  bool has_normal = false;
  bool has_nwrc = false;
  for (const auto& op : element.ops) {
    if (!op.is_any_write()) {
      continue;
    }
    if (polarity && *polarity != op.polarity) {
      require(false,
              "FastScheme: element '" + element.to_string() +
                  "' mixes write polarities (one SPC delivery per element)");
    }
    polarity = op.polarity;
    (op.kind == MarchOpKind::nwrc_write ? has_nwrc : has_normal) = true;
  }
  require(!(has_normal && has_nwrc),
          "FastScheme: element '" + element.to_string() +
              "' mixes normal and NWRC writes (NWRTM is a global mode)");
  return polarity;
}

bool element_has_nwrc(const march::MarchElement& element) {
  for (const auto& op : element.ops) {
    if (op.kind == MarchOpKind::nwrc_write) {
      return true;
    }
  }
  return false;
}

std::size_t nwrc_elements(const MarchTest& test) {
  std::size_t count = 0;
  for (const auto& phase : test.phases()) {
    for (const auto& element : phase.elements) {
      count += element_has_nwrc(element) ? 1 : 0;
    }
  }
  return count;
}

sram::SramConfig golden_config(sram::SramConfig config) {
  config.name += ".golden";
  return config;
}

/// One failing 64-bit batch of a comparator read: mask bit j is a failure
/// of IO bit 64 * limb + j, registered by event.
struct Hit {
  DiagnosisEvent event;
  std::uint64_t mask = 0;
  std::uint32_t memory = 0;
  std::uint32_t addr = 0;
  std::uint32_t limb = 0;
};

/// The shared BISD controller as every execution unit sees it (Fig. 3):
/// the clock, the element in flight's background id, pattern broadcast and
/// NWRTM line, the comparator array, and the failures registered in that
/// element.
struct Controller {
  Controller(std::uint32_t c_max, std::uint64_t period, std::size_t memories)
      : c_max(c_max), period(period), nwrtm(c_max), comparators(memories) {}

  std::uint32_t c_max;
  std::uint64_t period;
  std::uint32_t background = 0;      ///< the phase background's log id
  std::optional<BitVector> pattern;  ///< the element's write pattern
  bool nwrtm_rises = false;  ///< the line rises before this element
  bool nwrtm_falls = false;  ///< the line falls after this element
  nwrtm::NwrtmController nwrtm;
  ComparatorArray comparators;
  std::vector<Hit> hits;
};

/// What each execution unit owns: the local SPC the pattern broadcast
/// fills, the golden shadow whose reads are the wrap-aware expectations,
/// and its own count of controller cycles.  Units are march::drive_element
/// sinks, so the driver's address trigger is their local address
/// generator.
struct Unit {
  Unit(Controller& ctl, const sram::SramConfig& config)
      : ctl(ctl), spc(config.bits), golden(golden_config(config)) {}

  /// Counts @p clocks controller cycles; returns the time they take.
  std::uint64_t tick(std::uint64_t clocks) {
    cycles += clocks;
    return clocks * ctl.period;
  }

  /// Before an element's sweep: the NWRTM line's settle when it rises, and
  /// the pattern delivery into this unit's SPC (c_max clocks, MSB first,
  /// whatever the listener count).
  std::uint64_t enter_element() {
    std::uint64_t clocks = ctl.nwrtm_rises ? ctl.c_max : 0;
    if (ctl.pattern) {
      clocks += spc.deliver(*ctl.pattern);
    }
    return tick(clocks);
  }

  /// After an element's sweep: the NWRTM line's settle when it falls.
  std::uint64_t leave_element() {
    return tick(ctl.nwrtm_falls ? ctl.c_max : 0);
  }

  void require_nwrtm(const march::OpCtx& ctx) const {
    ensure(!ctx.nwrc || ctl.nwrtm.asserted(),
           "FastScheme: NWRC op outside NWRTM bracket");
  }

  /// Registers memory @p m's failing batch at shift clock @p k of the read
  /// whose bit b left the chain at @p read_base + b.
  void fail(std::uint64_t read_base, std::uint32_t k, std::uint64_t mask,
            std::size_t m, const march::OpCtx& ctx) {
    const DiagnosisEvent event{read_base,
                               static_cast<std::uint32_t>(ctx.phase),
                               static_cast<std::uint32_t>(ctx.element),
                               static_cast<std::uint32_t>(ctx.op),
                               ctx.visit,
                               ctl.background,
                               /*serial=*/true};
    ctl.hits.push_back(
        {event, mask, static_cast<std::uint32_t>(m), ctx.addr, k / 64});
  }

  Controller& ctl;
  serial::SerialToParallelConverter spc;
  sram::Sram golden;
  BitVector expected;  ///< golden word of the in-flight read
  std::uint64_t cycles = 0;
  std::uint64_t ops = 0;
};

/// One memory on its own data port, serializing through its own PSC.  Its
/// memory's clock is the unit's clock.
struct Port : Unit {
  Port(Controller& ctl, std::size_t index, sram::Sram& memory)
      : Unit(ctl, memory.config()), index(index), memory(memory),
        psc(memory.bits()) {}

  void begin_element(std::size_t, std::size_t) {
    memory.advance_time_ns(enter_element());
  }
  void end_element(std::size_t, std::size_t) {
    memory.advance_time_ns(leave_element());
  }
  void pause(std::uint64_t ns) { memory.advance_time_ns(ns); }

  void write(const march::OpCtx& ctx) {
    require_nwrtm(ctx);
    memory.advance_time_ns(tick(1));
    const BitVector& data = spc.parallel_out();
    if (ctx.nwrc) {
      memory.nwrc_write(ctx.addr, data);
    } else {
      memory.write(ctx.addr, data);
    }
    // Golden expectation: NWRC == normal write on good cells.
    golden.write(ctx.addr, data);
  }

  void read(const march::OpCtx& ctx) {
    memory.advance_time_ns(tick(1));  // capture into the PSC
    // Bit b of this word leaves the chain at read_base + b.
    const std::uint64_t read_base = cycles + 1;
    memory.read_into(ctx.addr, actual);
    psc.capture(actual);
    golden.read_into(ctx.addr, expected);
    const bool idle = memory.config().has_idle_mode;
    if (idle) {
      memory.set_mode(sram::Mode::idle);
    }
    // Serialize the response back, up to 64 shift clocks per word compare;
    // a PSC narrower than c_max drains into the zero fill.
    for (std::uint32_t k = 0; k < ctl.c_max; k += 64) {
      const std::uint32_t batch = std::min<std::uint32_t>(64, ctl.c_max - k);
      if (idle) {
        memory.advance_time_ns(tick(batch));
      } else {
        // No idle mode: the memory stays in read mode with data ignored,
        // one read per shift clock at that clock's time (Sec. 3.3).
        for (std::uint32_t t = 0; t < batch; ++t) {
          memory.advance_time_ns(tick(1));
          memory.read_into(ctx.addr, actual);
        }
      }
      const std::uint64_t diff = ctl.comparators.compare_word(
          index, expected.word_at(k, batch), psc.shift_out_word(batch), batch);
      if (diff != 0) {
        fail(read_base, k, diff, index, ctx);
      }
    }
    memory.set_mode(sram::Mode::normal);
  }

  std::size_t index;
  sram::Sram& memory;
  serial::ParallelToSerialConverter psc;
  BitVector actual;  ///< read scratch, reused by every read
};

/// One instance-sliced group: the overlaid slab carrying the lanes' cells
/// and fault sites, and the broadcast images the packed write/compare paths
/// consume.  Identical geometry means identical address mapping and
/// identical writes on every lane, so one SPC and one golden shadow serve
/// the whole group.  The lanes' memories take the group's clock and op
/// counts in one deferred advance (land()); until then their fault sites
/// (DRF settling) run on now_ns, the group's clock since the slab was
/// built.
struct Group : Unit {
  Group(Controller& ctl, SliceGroup group,
        const std::vector<sram::Sram*>& lanes)
      : Unit(ctl, lanes.front()->config()),
        info(std::move(group)),
        slab(lanes),
        wbcast(info.bits, 0),
        ebcast(info.bits, 0) {}

  void begin_element(std::size_t, std::size_t) {
    now_ns += enter_element();
    if (ctl.pattern) {
      // Expand the SPC's parallel word into the per-column broadcast image
      // the packed slab writes consume.
      simd::expand_bits(spc.parallel_out().word_data(), wbcast.data(),
                        info.bits);
    }
  }
  void end_element(std::size_t, std::size_t) { now_ns += leave_element(); }
  void pause(std::uint64_t ns) { now_ns += ns; }

  void write(const march::OpCtx& ctx) {
    require_nwrtm(ctx);
    now_ns += tick(1);
    // One packed pulse advances every lane; each lane's fault sites then
    // replay the write exactly.
    slab.write(ctx.addr, wbcast.data(),
               ctx.nwrc ? sram::WriteStyle::nwrc : sram::WriteStyle::normal,
               now_ns);
    golden.write(ctx.addr, spc.parallel_out());
    ++(ctx.nwrc ? lane_ops.nwrc_writes : lane_ops.writes);
  }

  void read(const march::OpCtx& ctx) {
    now_ns += tick(1);  // capture into the PSCs
    const std::uint64_t read_base = cycles + 1;
    // The whole group reads the same address; the packed compare happens
    // during serialization, against the broadcast image of the shared
    // golden word.
    slab.read(ctx.addr, now_ns);
    golden.read_into(ctx.addr, expected);
    simd::expand_bits(expected.word_data(), ebcast.data(), info.bits);
    ++lane_ops.reads;
    const std::uint32_t bits = info.bits;
    for (std::uint32_t k = 0; k < ctl.c_max; k += 64) {
      const std::uint32_t batch = std::min<std::uint32_t>(64, ctl.c_max - k);
      now_ns += tick(batch);
      // One packed compare covers the batch: a per-lane mask, all-zero on
      // clean lanes (the hot case), so the column-wise demux below runs
      // only for a group that mismatched, and only over its flagged
      // columns.
      if (k >= bits ||
          slab.compare(ebcast.data(), k, std::min(k + batch, bits)) == 0) {
        continue;
      }
      const std::uint64_t* observed = slab.observed();
      std::uint64_t failing = 0;
      std::uint64_t cols = slab.mismatch_columns(ebcast.data(), k);
      while (cols != 0) {
        const auto t = static_cast<std::uint32_t>(std::countr_zero(cols));
        cols &= cols - 1;
        std::uint64_t lanes =
            (observed[k + t] ^ ebcast[k + t]) & slab.lane_mask();
        failing |= lanes;
        while (lanes != 0) {
          lane_diff[std::countr_zero(lanes)] |= std::uint64_t{1} << t;
          lanes &= lanes - 1;
        }
      }
      while (failing != 0) {
        const auto lane = static_cast<std::size_t>(std::countr_zero(failing));
        failing &= failing - 1;
        fail(read_base, k, lane_diff[lane], info.members[lane], ctx);
        lane_diff[lane] = 0;
      }
    }
  }

  /// The lanes catch up with the world: the arena and sense latches
  /// scatter back into each lane's memory, and the deferred clock and op
  /// accounting lands, so each lane's observable state (contents, latches,
  /// uptime, counters; retention clocks already live in their FaultSets)
  /// is exactly what running it as a port would have produced.
  void land(SocUnderTest& soc) {
    slab.scatter();
    for (const std::size_t m : info.members) {
      soc.memory(m).advance_time_ns(now_ns);
      soc.memory(m).credit_ops(lane_ops);
    }
  }

  SliceGroup info;
  faults::OverlaySlab slab;
  std::vector<std::uint64_t> wbcast;  ///< write image, refreshed per element
  std::vector<std::uint64_t> ebcast;  ///< expected image, refreshed per read
  std::array<std::uint64_t, 64> lane_diff{};  ///< per-lane masks of a batch
  std::uint64_t now_ns = 0;
  sram::OpCounters lane_ops;  ///< each lane's port traffic
};

}  // namespace

FastScheme::FastScheme(FastSchemeOptions options)
    : options_(std::move(options)) {}

std::string FastScheme::name() const {
  return options_.include_drf ? "fast-spc-psc (March CW+NWRTM)"
                              : "fast-spc-psc (March CW)";
}

MarchTest FastScheme::test_for_width(std::uint32_t c_max) const {
  if (options_.test) {
    // The Data Background Generator serializes patterns exactly c_max wide.
    require(options_.test->width() == c_max, [&] {
      return "FastScheme: override test is " +
             std::to_string(options_.test->width()) +
             " bits wide but the widest memory has " + std::to_string(c_max) +
             " bits";
    });
    return *options_.test;
  }
  return options_.include_drf ? march::march_cw_nwrtm(c_max)
                              : march::march_cw(c_max);
}

std::uint64_t FastScheme::predicted_cycles(const MarchTest& test,
                                           std::uint32_t n_max,
                                           std::uint32_t c_max) {
  std::uint64_t cycles = 0;
  for (const auto& phase : test.phases()) {
    for (const auto& element : phase.elements) {
      if (element.order == AddrOrder::once) {
        continue;  // pauses cost wall-clock, not controller cycles
      }
      if (element_write_polarity(element).has_value()) {
        cycles += c_max;  // serial pattern delivery to the SPCs
      }
      std::uint64_t per_address = 0;
      for (const auto& op : element.ops) {
        per_address += op.is_read() ? (1 + c_max) : 1;
      }
      cycles += static_cast<std::uint64_t>(n_max) * per_address;
    }
  }
  if (nwrc_elements(test) > 0) {
    cycles += 2ull * c_max;  // assert + deassert of the global NWRTM line
  }
  return cycles;
}

DiagnosisResult FastScheme::diagnose(SocUnderTest& soc) {
  const std::uint32_t n_max = soc.max_words();
  const std::uint32_t c_max = soc.max_bits();
  const MarchTest test = test_for_width(c_max);
  const std::size_t memories = soc.memory_count();
  Controller ctl(c_max, options_.clock.period_ns, memories);

  // Execution units.  Instance-sliced groups (every group slice_groups()
  // admits, unless the SoC runs the per_cell reference): identical-geometry
  // memories advance as bit-lanes of one overlaid slab, faulty lanes
  // included — their fault sites patch their own column bits.  Every other
  // memory is a port with its own SPC, PSC and golden shadow.
  std::deque<Group> groups;
  std::deque<Port> ports;
  std::vector<bool> sliced(memories, false);
  if (soc.access_kernel() == sram::AccessKernel::word_parallel) {
    for (auto& info : soc.slice_groups()) {
      std::vector<sram::Sram*> lanes;
      for (const std::size_t m : info.members) {
        lanes.push_back(&soc.memory(m));
        sliced[m] = true;
      }
      groups.emplace_back(ctl, std::move(info), lanes);
    }
  }
  for (std::size_t i = 0; i < memories; ++i) {
    if (!sliced[i]) {
      ports.emplace_back(ctl, i, soc.memory(i));
    }
  }

  const auto each_unit = [&](const auto& f) {
    std::for_each(groups.begin(), groups.end(), f);
    std::for_each(ports.begin(), ports.end(), f);
  };

  // Nothing a unit does depends on another unit or on the data read back,
  // so each unit sweeps a whole element on its own, and the element's
  // failures then merge into the log in the order the PSCs shifted them
  // out: by cycle base, then batch, then memory.  A record's cycle,
  // cycle base + bit, is the exact clock its bit left the chain.  The
  // NWRTM line rises just before the first NWRC element and falls right
  // after the last one.
  const auto shifted_first = [](const Hit& a, const Hit& b) {
    return std::tie(a.event.cycle_base, a.limb, a.memory) <
           std::tie(b.event.cycle_base, b.limb, b.memory);
  };
  DiagnosisResult result;
  std::size_t nwrc_left = nwrc_elements(test);
  for (std::size_t p = 0; p < test.phases().size(); ++p) {
    const auto& phase = test.phases()[p];
    // Every record of this phase shares its background: one table entry.
    ctl.background = result.log.intern(phase.background);
    for (std::size_t e = 0; e < phase.elements.size(); ++e) {
      const auto polarity = element_write_polarity(phase.elements[e]);
      ctl.pattern.reset();
      if (polarity.has_value()) {
        ctl.pattern = *polarity == Polarity::background
                          ? phase.background
                          : phase.background.inverted();
      }
      const bool nwrc = element_has_nwrc(phase.elements[e]);
      nwrc_left -= nwrc ? 1 : 0;
      ctl.nwrtm_rises = nwrc && !ctl.nwrtm.asserted();
      ctl.nwrtm_falls = nwrc && nwrc_left == 0;
      if (ctl.nwrtm_rises) {
        ctl.nwrtm.assert_mode();
      }
      each_unit([&](auto& unit) {
        const auto begin = static_cast<std::ptrdiff_t>(ctl.hits.size());
        march::drive_element(test, p, e, unit.golden.words(), n_max,
                             unit.ops, unit);
        // A unit registers its own failures in that order.
        std::inplace_merge(ctl.hits.begin(), ctl.hits.begin() + begin,
                           ctl.hits.end(), shifted_first);
      });
      if (ctl.nwrtm_falls) {
        ctl.nwrtm.deassert_mode();
      }
      for (const Hit& hit : ctl.hits) {
        result.log.add_word(hit.memory, hit.addr, hit.limb, hit.mask,
                            result.log.intern(hit.event));
      }
      ctl.hits.clear();
    }
  }

  const std::uint64_t cycles = predicted_cycles(test, n_max, c_max);
  each_unit([cycles](const Unit& unit) {
    ensure(unit.cycles == cycles,
           "FastScheme: simulated cycles diverged from the closed form");
  });
  for (auto& group : groups) {
    group.land(soc);
  }

  result.time.add_cycles(cycles);
  result.time.add_pause_ns(test.total_pause_ns());
  result.iterations = 1;
  result.log.seal();
  return result;
}

}  // namespace fastdiag::bisd
