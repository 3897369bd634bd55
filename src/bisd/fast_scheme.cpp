#include "bisd/fast_scheme.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <vector>

#include "bisd/address_gen.h"
#include "bisd/background_gen.h"
#include "bisd/comparator.h"
#include "faults/overlay_slab.h"
#include "march/library.h"
#include "nwrtm/nwrtm.h"
#include "serial/psc.h"
#include "serial/spc.h"
#include "util/require.h"
#include "util/simd.h"

namespace fastdiag::bisd {
namespace {

using march::AddrOrder;
using march::MarchOp;
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

bool test_has_nwrc(const MarchTest& test) {
  for (const auto& phase : test.phases()) {
    for (const auto& element : phase.elements) {
      if (element_has_nwrc(element)) {
        return true;
      }
    }
  }
  return false;
}

sram::SramConfig golden_config(sram::SramConfig config) {
  config.name += ".golden";
  return config;
}

/// What each execution unit of the sweep owns: the local SPC the pattern
/// broadcast fills, the local address generator, and the golden shadow
/// whose reads are the wrap-aware expectations.
struct Unit {
  explicit Unit(const sram::SramConfig& config)
      : spc(config.bits), generator(config.words),
        golden(golden_config(config)) {}

  serial::SerialToParallelConverter spc;
  LocalAddressGenerator generator;
  sram::Sram golden;
  BitVector expected;      ///< golden word of the in-flight read
  std::uint32_t addr = 0;  ///< local address of the current step
};

/// One memory on its own data port, serializing through its own PSC.
struct Port : Unit {
  Port(std::size_t index, sram::Sram& memory)
      : Unit(memory.config()), index(index), memory(memory),
        psc(memory.bits()) {}

  std::size_t index;
  sram::Sram& memory;
  serial::ParallelToSerialConverter psc;
};

/// One instance-sliced group: the overlaid slab carrying the lanes' cells
/// and fault sites, and the broadcast images the packed write/compare paths
/// consume.  Identical geometry means identical address mapping and
/// identical writes on every lane, so one SPC, one address generator and
/// one golden shadow serve the whole group.
struct Group : Unit {
  Group(SliceGroup group, const std::vector<sram::Sram*>& lanes)
      : Unit(lanes.front()->config()),
        info(std::move(group)),
        slab(lanes),
        wbcast(info.bits, 0),
        ebcast(info.bits, 0) {}

  SliceGroup info;
  faults::OverlaySlab slab;
  std::vector<std::uint64_t> wbcast;  ///< write image, refreshed per element
  std::vector<std::uint64_t> ebcast;  ///< expected image, refreshed per read
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
  if (test_has_nwrc(test)) {
    cycles += 2ull * c_max;  // assert + deassert of the global NWRTM line
  }
  return cycles;
}

DiagnosisResult FastScheme::diagnose(SocUnderTest& soc) {
  const std::uint32_t n_max = soc.max_words();
  const std::uint32_t c_max = soc.max_bits();
  const MarchTest test = test_for_width(c_max);
  const std::size_t memories = soc.memory_count();
  const std::uint64_t period = options_.clock.period_ns;

  // Execution units.  Instance-sliced groups (every group slice_groups()
  // admits, unless the SoC runs the per_cell reference): identical-geometry
  // memories advance as bit-lanes of one overlaid slab, faulty lanes
  // included — their fault sites patch their own column bits.  Every other
  // memory is a port with its own SPC, PSC, generator and golden shadow.
  // unit_of names the unit whose address and geometry a memory's records
  // carry; record attribution is the same either way.  Each unit's SPC
  // listens to the pattern broadcast, whose cost is the pattern width
  // whatever the listener count.
  std::deque<Group> groups;
  std::deque<Port> ports;
  std::vector<Unit*> unit_of(memories, nullptr);
  std::vector<serial::SerialToParallelConverter*> listeners;
  if (soc.access_kernel() == sram::AccessKernel::word_parallel) {
    for (auto& info : soc.slice_groups()) {
      std::vector<sram::Sram*> lanes;
      for (const std::size_t m : info.members) {
        lanes.push_back(&soc.memory(m));
      }
      auto& group = groups.emplace_back(std::move(info), lanes);
      for (const std::size_t m : group.info.members) {
        unit_of[m] = &group;
      }
      listeners.push_back(&group.spc);
    }
  }
  for (std::size_t i = 0; i < memories; ++i) {
    if (unit_of[i] == nullptr) {
      auto& port = ports.emplace_back(i, soc.memory(i));
      unit_of[i] = &port;
      listeners.push_back(&port.spc);
    }
  }

  DataBackgroundGenerator generator(c_max);
  ComparatorArray comparators(memories);
  nwrtm::NwrtmController nwrtm_line(/*toggle_cost_cycles=*/c_max);

  // Scratch storage reused by every read op: the hot loop never allocates.
  // diff_scratch is zero outside the batch that sets it; hits lists the
  // memories a batch set, so the rare path walks only those.
  std::vector<std::uint64_t> diff_scratch(memories, 0);
  std::vector<std::size_t> hits;
  hits.reserve(memories);
  BitVector read_scratch;

  DiagnosisResult result;
  // Log capacity: every failing bit of every read can register, so the
  // structural ceiling is read ops across the whole sweep times the summed
  // IO width.  It caps the engine's high-water feedback (which can carry
  // over from a bigger SoC on the same worker slot); a fresh engine starts
  // from a modest floor instead of pre-paying the worst case.
  {
    std::uint64_t total_bits = 0;
    for (std::size_t i = 0; i < memories; ++i) {
      total_bits += soc.config(i).bits;
    }
    const std::uint64_t bound = test.reads_per_address() * n_max * total_bits;
    result.log.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
        bound, std::max<std::uint64_t>(log_capacity_hint_, 256))));
  }
  std::uint64_t cycles = 0;
  // Ports advance with the controller clock.  Group lanes take one
  // deferred advance of the full amount at the end (an O(all memories)
  // walk per cycle would cap the speedup); until then their fault sites
  // (DRF settling) run on deferred_ns, the scheme's running clock since
  // the slabs were built, and lane_ops tallies each lane's port traffic.
  std::uint64_t deferred_ns = 0;
  sram::OpCounters lane_ops;
  const auto advance = [&](std::uint64_t ns) {
    deferred_ns += ns;
    for (auto& port : ports) {
      port.memory.advance_time_ns(ns);
    }
  };
  const auto tick = [&](std::uint64_t n) {
    cycles += n;
    advance(n * period);
  };

  // NWRTM bracket: asserted just before the first NWRC element, released
  // right after the last one.
  std::ptrdiff_t first_nwrc = -1;
  std::ptrdiff_t last_nwrc = -1;
  {
    std::ptrdiff_t index = 0;
    for (const auto& phase : test.phases()) {
      for (const auto& element : phase.elements) {
        if (element_has_nwrc(element)) {
          if (first_nwrc < 0) {
            first_nwrc = index;
          }
          last_nwrc = index;
        }
        ++index;
      }
    }
  }

  std::ptrdiff_t element_index = -1;
  for (std::size_t p = 0; p < test.phases().size(); ++p) {
    const auto& phase = test.phases()[p];
    // Every record of this phase shares its background: one table entry.
    const std::uint32_t background_id = result.log.intern(phase.background);
    for (std::size_t e = 0; e < phase.elements.size(); ++e) {
      const auto& element = phase.elements[e];
      ++element_index;

      if (element.order == AddrOrder::once) {
        for (const auto& op : element.ops) {
          ensure(op.kind == MarchOpKind::pause,
                 "FastScheme: non-pause op in once element");
          result.time.add_pause_ns(op.pause_ns);
          advance(op.pause_ns);
        }
        continue;
      }

      if (element_index == first_nwrc) {
        nwrtm_line.assert_mode();
        tick(c_max);  // control settle across the SoC
      }

      // Pattern delivery for this element's writes.
      const auto polarity = element_write_polarity(element);
      if (polarity.has_value()) {
        const BitVector pattern = *polarity == Polarity::background
                                      ? phase.background
                                      : phase.background.inverted();
        tick(generator.broadcast(pattern, listeners));
        for (auto& group : groups) {
          // Expand the group SPC's parallel word into the per-column
          // broadcast image the packed slab writes consume.
          simd::expand_bits(group.spc.parallel_out().word_data(),
                            group.wbcast.data(), group.info.bits);
        }
      }

      // Address trigger: one full sweep of the largest capacity.
      for (std::uint32_t step = 0; step < n_max; ++step) {
        for (auto& port : ports) {
          port.addr = port.generator.map(step, element.order, n_max);
        }
        for (auto& group : groups) {
          group.addr = group.generator.map(step, element.order, n_max);
        }
        for (std::size_t o = 0; o < element.ops.size(); ++o) {
          const auto& op = element.ops[o];
          switch (op.kind) {
            case MarchOpKind::write:
            case MarchOpKind::nwrc_write: {
              const bool nwrc = op.kind == MarchOpKind::nwrc_write;
              ensure(!nwrc || nwrtm_line.asserted(),
                     "FastScheme: NWRC op outside NWRTM bracket");
              tick(1);
              for (auto& port : ports) {
                const BitVector& data = port.spc.parallel_out();
                if (nwrc) {
                  port.memory.nwrc_write(port.addr, data);
                } else {
                  port.memory.write(port.addr, data);
                }
                // Golden expectation: NWRC == normal write on good cells.
                port.golden.write(port.addr, data);
              }
              for (auto& group : groups) {
                // One packed pulse advances every lane; each lane's fault
                // sites then replay the write exactly.
                group.slab.write(
                    group.addr, group.wbcast.data(),
                    nwrc ? sram::WriteStyle::nwrc : sram::WriteStyle::normal,
                    deferred_ns);
                group.golden.write(group.addr, group.spc.parallel_out());
              }
              ++(nwrc ? lane_ops.nwrc_writes : lane_ops.writes);
              break;
            }
            case MarchOpKind::read: {
              tick(1);  // capture into the PSCs
              for (auto& port : ports) {
                port.memory.read_into(port.addr, read_scratch);
                port.psc.capture(read_scratch);
                port.golden.read_into(port.addr, port.expected);
                if (port.memory.config().has_idle_mode) {
                  port.memory.set_mode(sram::Mode::idle);
                }
              }
              for (auto& group : groups) {
                // The whole group reads the same address; the packed compare
                // happens during serialization, against the broadcast image
                // of the shared golden word.
                group.slab.read(group.addr, deferred_ns);
                group.golden.read_into(group.addr, group.expected);
                simd::expand_bits(group.expected.word_data(),
                                  group.ebcast.data(), group.info.bits);
              }
              ++lane_ops.reads;
              // Serialize the responses back, memories in parallel;
              // narrower PSCs drain into the zero fill.  Up to 64 shift
              // clocks per word compare: records are emitted clock-major
              // (memories in index order within a clock), and
              // record.cycle is the exact clock the mismatching bit left
              // the chain.
              for (std::uint32_t k = 0; k < c_max; k += 64) {
                const auto batch = static_cast<std::size_t>(
                    std::min<std::uint32_t>(64, c_max - k));
                const std::uint64_t batch_start_cycles = cycles;
                cycles += batch;
                deferred_ns += batch * period;
                std::uint64_t any_diff = 0;
                hits.clear();
                for (auto& port : ports) {
                  if (port.memory.config().has_idle_mode) {
                    port.memory.advance_time_ns(batch * period);
                  } else {
                    // No idle mode: the memory stays in read mode with data
                    // ignored, one read per shift clock at that clock's
                    // time (Sec. 3.3).
                    for (std::size_t t = 0; t < batch; ++t) {
                      port.memory.advance_time_ns(period);
                      port.memory.read_into(port.addr, read_scratch);
                    }
                  }
                  const std::uint64_t diff = comparators.compare_word(
                      port.index, port.expected.word_at(k, batch),
                      port.psc.shift_out_word(batch), batch);
                  if (diff != 0) {
                    diff_scratch[port.index] = diff;
                    any_diff |= diff;
                    hits.push_back(port.index);
                  }
                }
                // One packed compare covers each group's batch: the result
                // is a per-lane mask, all-zero on clean lanes (the hot
                // case), so the column-wise demux below runs only for a
                // group that actually mismatched, and only over its
                // flagged columns.
                for (auto& group : groups) {
                  const std::uint32_t gbits = group.info.bits;
                  if (k >= gbits ||
                      group.slab.compare(
                          group.ebcast.data(), k,
                          std::min<std::uint32_t>(
                              k + static_cast<std::uint32_t>(batch),
                              gbits)) == 0) {
                    continue;
                  }
                  const std::uint64_t* observed = group.slab.observed();
                  std::uint64_t cols =
                      group.slab.mismatch_columns(group.ebcast.data(), k);
                  while (cols != 0) {
                    const auto t =
                        static_cast<std::uint32_t>(std::countr_zero(cols));
                    cols &= cols - 1;
                    const std::uint64_t clock_bit = std::uint64_t{1} << t;
                    any_diff |= clock_bit;
                    std::uint64_t lanes_diff =
                        (observed[k + t] ^ group.ebcast[k + t]) &
                        group.slab.lane_mask();
                    while (lanes_diff != 0) {
                      const auto lane = static_cast<std::size_t>(
                          std::countr_zero(lanes_diff));
                      lanes_diff &= lanes_diff - 1;
                      const std::size_t m = group.info.members[lane];
                      if (diff_scratch[m] == 0) {
                        hits.push_back(m);
                      }
                      diff_scratch[m] |= clock_bit;
                    }
                  }
                }
                if (any_diff == 0) {
                  continue;
                }
                // Rare path: walk the mismatching clocks in order, and per
                // clock only the memories that mismatched in this batch,
                // ascending.
                std::sort(hits.begin(), hits.end());
                while (any_diff != 0) {
                  const auto t =
                      static_cast<std::uint32_t>(std::countr_zero(any_diff));
                  any_diff &= any_diff - 1;
                  const std::uint64_t bit_mask = std::uint64_t{1} << t;
                  for (const std::size_t i : hits) {
                    const Unit& unit = *unit_of[i];
                    if ((diff_scratch[i] & bit_mask) == 0 ||
                        k + t >= unit.golden.bits()) {
                      continue;
                    }
                    DiagnosisRecord record;
                    record.memory_index = i;
                    record.addr = unit.addr;
                    record.bit = k + t;
                    record.background = background_id;
                    record.phase = p;
                    record.element = e;
                    record.op = o;
                    record.visit = step / unit.generator.words();
                    record.cycle = batch_start_cycles + t + 1;
                    result.log.add(record);
                  }
                }
                for (const std::size_t i : hits) {
                  diff_scratch[i] = 0;
                }
              }
              for (auto& port : ports) {
                port.memory.set_mode(sram::Mode::normal);
              }
              break;
            }
            case MarchOpKind::pause:
              ensure(false, "FastScheme: pause in addressed element");
          }
        }
      }

      if (element_index == last_nwrc) {
        nwrtm_line.deassert_mode();
        tick(c_max);
      }
    }
  }

  // Group lanes now catch up with the world: the arena and sense latches
  // scatter back into each lane's memory, and the deferred clock/op
  // accounting lands so the lanes' observable state (contents, latches,
  // uptime, counters; retention clocks already live in their FaultSets) is
  // exactly what running each lane as a port would have produced.
  for (auto& group : groups) {
    group.slab.scatter();
    for (const std::size_t m : group.info.members) {
      soc.memory(m).advance_time_ns(deferred_ns);
      soc.memory(m).credit_ops(lane_ops);
    }
  }

  result.time.add_cycles(cycles);
  result.iterations = 1;
  ensure(cycles == predicted_cycles(test, n_max, c_max),
         "FastScheme: simulated cycles diverged from the closed form");
  return result;
}

}  // namespace fastdiag::bisd
