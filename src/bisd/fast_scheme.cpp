#include "bisd/fast_scheme.h"

#include <algorithm>
#include <bit>
#include <memory>
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

/// Runtime state of one instance-sliced group: the overlaid slab carrying
/// the lanes' cells and fault sites, one golden shadow (identical writes
/// reach every lane, so a single fault-free expectation serves the whole
/// group), and the broadcast images the packed write/compare paths consume.
/// The group shares its representative member's SPC and address generator
/// — identical geometry means identical mapping.
struct SlicedGroup {
  SlicedGroup(SliceGroup group, const std::vector<sram::Sram*>& lanes,
              sram::SramConfig golden_config)
      : info(std::move(group)),
        slab(lanes),
        golden(std::make_unique<sram::Sram>(std::move(golden_config))),
        wbcast(info.bits, 0),
        ebcast(info.bits, 0) {}

  SliceGroup info;
  faults::OverlaySlab slab;
  std::unique_ptr<sram::Sram> golden;
  std::vector<std::uint64_t> wbcast;  ///< write image, refreshed per element
  std::vector<std::uint64_t> ebcast;  ///< expected image, refreshed per read
  BitVector expected_scratch;
  std::uint32_t addr = 0;         ///< address of the in-flight read
  std::uint64_t clock_diff = 0;   ///< lane diff of the current shift clock
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
    require(options_.test->width() >= c_max,
            "FastScheme: override test narrower than the widest memory");
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

  // Instance-sliced groups (every group slice_groups() admits, unless the
  // SoC runs the per_cell reference): identical-geometry memories advance
  // as bit-lanes of one overlaid slab, faulty lanes included — their fault
  // sites patch their own column bits.  Every other memory stays on the
  // per-memory ("direct") path; record attribution is the same either way.
  std::vector<std::unique_ptr<SlicedGroup>> groups;
  std::vector<std::ptrdiff_t> group_of(memories, -1);
  std::vector<std::uint32_t> lane_of(memories, 0);
  if (soc.access_kernel() == sram::AccessKernel::word_parallel) {
    for (auto& info : soc.slice_groups()) {
      std::vector<sram::Sram*> lanes;
      lanes.reserve(info.members.size());
      for (std::size_t k = 0; k < info.members.size(); ++k) {
        const std::size_t m = info.members[k];
        group_of[m] = static_cast<std::ptrdiff_t>(groups.size());
        lane_of[m] = static_cast<std::uint32_t>(k);
        lanes.push_back(&soc.memory(m));
      }
      auto golden_config = soc.config(info.members.front());
      golden_config.name += ".golden";
      groups.push_back(std::make_unique<SlicedGroup>(
          std::move(info), lanes, std::move(golden_config)));
    }
  }
  std::vector<std::size_t> direct;
  direct.reserve(memories);
  for (std::size_t i = 0; i < memories; ++i) {
    if (group_of[i] < 0) {
      direct.push_back(i);
    }
  }

  // Per-memory machinery: SPC/PSC local to each e-SRAM, a local address
  // generator, and the golden shadow providing wrap-aware expectations.
  // Sliced members keep their SPC/PSC/generator (the group borrows its
  // representative's, and record fields use the per-memory generators) but
  // skip the golden shadow — the group-level one covers every lane.
  std::vector<serial::SerialToParallelConverter> spcs;
  std::vector<serial::ParallelToSerialConverter> pscs;
  std::vector<LocalAddressGenerator> generators;
  std::vector<std::unique_ptr<sram::Sram>> golden;
  std::vector<serial::SerialToParallelConverter*> spc_ptrs;
  spcs.reserve(memories);
  pscs.reserve(memories);
  for (std::size_t i = 0; i < memories; ++i) {
    const auto& config = soc.config(i);
    spcs.emplace_back(config.bits);
    pscs.emplace_back(config.bits);
    generators.emplace_back(config.words);
    if (group_of[i] < 0) {
      auto golden_config = config;
      golden_config.name += ".golden";
      golden.push_back(std::make_unique<sram::Sram>(golden_config));
    } else {
      golden.push_back(nullptr);
    }
  }
  for (std::size_t i = 0; i < memories; ++i) {
    // Broadcast listeners: direct memories plus one representative per
    // group (the delivery cost is the pattern width, independent of the
    // listener count, so sharing changes no cycle accounting).
    const bool is_rep =
        group_of[i] >= 0 &&
        groups[static_cast<std::size_t>(group_of[i])]->info.members.front() ==
            i;
    if (group_of[i] < 0 || is_rep) {
      spc_ptrs.push_back(&spcs[i]);
    }
  }

  DataBackgroundGenerator generator(c_max);
  ComparatorArray comparators(memories);
  nwrtm::NwrtmController nwrtm_line(/*toggle_cost_cycles=*/c_max);

  // Scratch storage reused by every read op: the hot loop never allocates.
  // diff_scratch is zero outside the batch that sets it; hits lists the
  // memories a batch set, so the rare path walks only those.
  std::vector<BitVector> expected(memories);
  std::vector<std::uint64_t> diff_scratch(memories, 0);
  std::vector<std::size_t> hits;
  hits.reserve(memories);
  BitVector read_scratch;

  // When every memory has an idle mode, nothing touches a data port while
  // the PSCs drain, so the serialization loop can batch up to 64 shift
  // clocks into one word compare.  A memory without idle mode must perform
  // one (data-ignored) read per shift clock at its exact simulated time
  // (Sec. 3.3), which forces the per-clock loop.
  bool all_idle = true;
  for (std::size_t i = 0; i < memories; ++i) {
    all_idle = all_idle && soc.config(i).has_idle_mode;
  }

  DiagnosisResult result;
  // Log capacity: every failing bit of every read can register, so the
  // structural ceiling is read ops across the whole sweep times the summed
  // IO width.  It caps the engine's high-water feedback (which can carry
  // over from a bigger SoC on the same worker slot); a fresh engine starts
  // from a modest floor instead of pre-paying the worst case.
  {
    std::uint64_t read_ops = 0;
    for (const auto& phase : test.phases()) {
      for (const auto& element : phase.elements) {
        if (element.order == AddrOrder::once) {
          continue;
        }
        for (const auto& op : element.ops) {
          read_ops += op.is_read() ? 1 : 0;
        }
      }
    }
    std::uint64_t total_bits = 0;
    for (std::size_t i = 0; i < memories; ++i) {
      total_bits += soc.config(i).bits;
    }
    const std::uint64_t bound = read_ops * n_max * total_bits;
    result.log.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
        bound, std::max<std::uint64_t>(log_capacity_hint_, 256))));
  }
  std::uint64_t cycles = 0;
  // In sliced mode the per-tick clock advance walks only the direct
  // memories (an O(all memories) walk per cycle would cap the speedup).
  // Sliced lanes take one deferred advance of the full amount at the end;
  // until then their fault sites (DRF settling) run on deferred_ns, the
  // scheme's running clock since the slab was built.
  const bool sliced_mode = !groups.empty();
  std::uint64_t deferred_ns = 0;
  sram::OpCounters sliced_tally;  // per-lane op counts, credited at the end
  const auto advance = [&](std::uint64_t ns) {
    if (!sliced_mode) {
      soc.advance_time_ns(ns);
      return;
    }
    deferred_ns += ns;
    for (const std::size_t i : direct) {
      soc.memory(i).advance_time_ns(ns);
    }
  };
  const auto tick = [&](std::uint64_t n) {
    cycles += n;
    advance(n * options_.clock.period_ns);
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
        tick(generator.broadcast(pattern, spc_ptrs));
        for (auto& group : groups) {
          // Expand the representative SPC's parallel word into the
          // per-column broadcast image the packed slab writes consume.
          simd::dispatch().expand_bits(
              spcs[group->info.members.front()].parallel_out().word_data(),
              group->wbcast.data(), group->info.bits);
        }
      }

      // Address trigger: one full sweep of the largest capacity.
      for (std::uint32_t step = 0; step < n_max; ++step) {
        for (std::size_t o = 0; o < element.ops.size(); ++o) {
          const auto& op = element.ops[o];
          switch (op.kind) {
            case MarchOpKind::write:
            case MarchOpKind::nwrc_write: {
              tick(1);
              for (const std::size_t i : direct) {
                const std::uint32_t addr =
                    generators[i].map(step, element.order, n_max);
                const BitVector& data = spcs[i].parallel_out();
                if (op.kind == MarchOpKind::nwrc_write) {
                  ensure(nwrtm_line.asserted(),
                         "FastScheme: NWRC op outside NWRTM bracket");
                  soc.memory(i).nwrc_write(addr, data);
                } else {
                  soc.memory(i).write(addr, data);
                }
                // Golden expectation: NWRC == normal write on good cells.
                golden[i]->write(addr, data);
              }
              for (auto& group : groups) {
                // One packed pulse advances every lane: identical geometry
                // means identical address mapping and identical SPC content;
                // each lane's fault sites then replay the write exactly.
                const std::size_t rep = group->info.members.front();
                const std::uint32_t addr =
                    generators[rep].map(step, element.order, n_max);
                const bool nwrc = op.kind == MarchOpKind::nwrc_write;
                if (nwrc) {
                  ensure(nwrtm_line.asserted(),
                         "FastScheme: NWRC op outside NWRTM bracket");
                }
                group->slab.write(addr, group->wbcast.data(),
                                  nwrc ? sram::WriteStyle::nwrc
                                       : sram::WriteStyle::normal,
                                  deferred_ns);
                group->golden->write(addr, spcs[rep].parallel_out());
              }
              if (sliced_mode) {
                ++(op.kind == MarchOpKind::nwrc_write
                       ? sliced_tally.nwrc_writes
                       : sliced_tally.writes);
              }
              break;
            }
            case MarchOpKind::read: {
              tick(1);  // capture into the PSCs
              for (const std::size_t i : direct) {
                const std::uint32_t addr =
                    generators[i].map(step, element.order, n_max);
                soc.memory(i).read_into(addr, read_scratch);
                pscs[i].capture(read_scratch);
                golden[i]->read_into(addr, expected[i]);
                if (soc.config(i).has_idle_mode) {
                  soc.memory(i).set_mode(sram::Mode::idle);
                }
              }
              for (auto& group : groups) {
                // The whole group reads the same address; the packed compare
                // happens during serialization, against the broadcast image
                // of the shared golden word.
                const std::size_t rep = group->info.members.front();
                group->addr = generators[rep].map(step, element.order, n_max);
                group->slab.read(group->addr, deferred_ns);
                group->golden->read_into(group->addr, group->expected_scratch);
                simd::dispatch().expand_bits(
                    group->expected_scratch.word_data(), group->ebcast.data(),
                    group->info.bits);
              }
              if (sliced_mode) {
                ++sliced_tally.reads;
              }
              // Serialize the responses back, memories in parallel;
              // narrower PSCs drain into the zero fill.
              if (all_idle) {
                // Word-batched: up to 64 shift clocks per compare, with
                // cycle accounting and registration order identical to the
                // per-clock loop — records are emitted clock-major
                // (memories in index order within a clock), and
                // record.cycle reconstructs the exact clock the mismatching
                // bit left the chain.
                for (std::uint32_t k = 0; k < c_max; k += 64) {
                  const auto batch = static_cast<std::size_t>(
                      std::min<std::uint32_t>(64, c_max - k));
                  const std::uint64_t batch_start_cycles = cycles;
                  tick(batch);
                  std::uint64_t any_diff = 0;
                  hits.clear();
                  for (const std::size_t i : direct) {
                    const std::uint64_t observed =
                        pscs[i].shift_out_word(batch);
                    const std::uint64_t expect =
                        expected[i].word_at(k, batch);
                    const std::uint64_t diff =
                        comparators.compare_word(i, expect, observed, batch);
                    if (diff != 0) {
                      diff_scratch[i] = diff;
                      any_diff |= diff;
                      hits.push_back(i);
                    }
                  }
                  // One packed compare covers each group's batch: the result
                  // is a per-lane mask, all-zero on clean lanes (the hot
                  // case), so the column-wise demux below runs only for a
                  // group that actually mismatched, and only over its
                  // flagged columns.
                  for (auto& group : groups) {
                    const std::uint32_t gbits = group->info.bits;
                    if (k >= gbits ||
                        group->slab.compare(
                            group->ebcast.data(), k,
                            std::min<std::uint32_t>(
                                k + static_cast<std::uint32_t>(batch),
                                gbits)) == 0) {
                      continue;
                    }
                    const std::uint64_t* observed = group->slab.observed();
                    std::uint64_t cols =
                        group->slab.mismatch_columns(group->ebcast.data(), k);
                    while (cols != 0) {
                      const auto t =
                          static_cast<std::uint32_t>(std::countr_zero(cols));
                      cols &= cols - 1;
                      const std::uint64_t clock_bit = std::uint64_t{1} << t;
                      any_diff |= clock_bit;
                      std::uint64_t lanes_diff =
                          (observed[k + t] ^ group->ebcast[k + t]) &
                          group->slab.lane_mask();
                      while (lanes_diff != 0) {
                        const auto lane = static_cast<std::size_t>(
                            std::countr_zero(lanes_diff));
                        lanes_diff &= lanes_diff - 1;
                        const std::size_t m = group->info.members[lane];
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
                  // ascending — the per-clock loop's registration order.
                  std::sort(hits.begin(), hits.end());
                  while (any_diff != 0) {
                    const auto t = static_cast<std::uint32_t>(
                        std::countr_zero(any_diff));
                    any_diff &= any_diff - 1;
                    const std::uint64_t bit_mask = std::uint64_t{1} << t;
                    for (const std::size_t i : hits) {
                      if ((diff_scratch[i] & bit_mask) == 0 ||
                          k + t >= soc.config(i).bits) {
                        continue;
                      }
                      DiagnosisRecord record;
                      record.memory_index = i;
                      record.addr =
                          generators[i].map(step, element.order, n_max);
                      record.bit = k + t;
                      record.background = background_id;
                      record.phase = p;
                      record.element = e;
                      record.op = o;
                      record.visit = step / generators[i].words();
                      record.cycle = batch_start_cycles + t + 1;
                      result.log.add(record);
                    }
                  }
                  for (const std::size_t i : hits) {
                    diff_scratch[i] = 0;
                  }
                }
              } else {
                for (std::uint32_t k = 0; k < c_max; ++k) {
                  tick(1);
                  for (auto& group : groups) {
                    // Sliced lanes all have idle mode (a slice_groups()
                    // precondition), so one packed column compare per shift
                    // clock replaces the per-lane PSC/comparator walk.
                    group->clock_diff =
                        k < group->info.bits
                            ? (group->slab.observed()[k] ^ group->ebcast[k]) &
                                  group->slab.lane_mask()
                            : 0;
                  }
                  for (std::size_t i = 0; i < memories; ++i) {
                    if (group_of[i] >= 0) {
                      const auto& group =
                          *groups[static_cast<std::size_t>(group_of[i])];
                      if ((group.clock_diff >> lane_of[i]) & 1) {
                        DiagnosisRecord record;
                        record.memory_index = i;
                        record.addr = group.addr;
                        record.bit = k;
                        record.background = background_id;
                        record.phase = p;
                        record.element = e;
                        record.op = o;
                        record.visit = step / generators[i].words();
                        record.cycle = cycles;
                        result.log.add(record);
                      }
                      continue;
                    }
                    const std::uint32_t bits_i = soc.config(i).bits;
                    if (!soc.config(i).has_idle_mode) {
                      // No idle mode: keep the memory in read mode with data
                      // ignored (Sec. 3.3).
                      const std::uint32_t addr =
                          generators[i].map(step, element.order, n_max);
                      soc.memory(i).read_into(addr, read_scratch);
                    }
                    const bool observed = pscs[i].shift_out();
                    const bool expect =
                        k < bits_i ? expected[i].get(k) : false;
                    if (comparators.compare(i, expect, observed) &&
                        k < bits_i) {
                      DiagnosisRecord record;
                      record.memory_index = i;
                      record.addr =
                          generators[i].map(step, element.order, n_max);
                      record.bit = k;
                      record.background = background_id;
                      record.phase = p;
                      record.element = e;
                      record.op = o;
                      record.visit = step / generators[i].words();
                      record.cycle = cycles;
                      result.log.add(record);
                    }
                  }
                }
              }
              for (const std::size_t i : direct) {
                if (soc.config(i).has_idle_mode) {
                  soc.memory(i).set_mode(sram::Mode::normal);
                }
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

  // Sliced lanes now catch up with the world: the arena and sense latches
  // scatter back into each lane's memory, and the deferred clock/op
  // accounting lands so the lanes' observable state (contents, latches,
  // uptime, counters; retention clocks already live in their FaultSets) is
  // exactly what the per-memory path would have produced.
  for (auto& group : groups) {
    group->slab.scatter();
    for (const std::size_t m : group->info.members) {
      soc.memory(m).advance_time_ns(deferred_ns);
      soc.memory(m).credit_ops(sliced_tally);
    }
  }

  result.time.add_cycles(cycles);
  result.iterations = 1;
  ensure(cycles == predicted_cycles(test, n_max, c_max),
         "FastScheme: simulated cycles diverged from the closed form");
  return result;
}

}  // namespace fastdiag::bisd
