#include "traced.h"

#include <cmath>
#include <cstdio>
#include <exception>

#include "core/engine.h"
#include "service/serialize.h"

namespace perfbench {

using namespace fastdiag;

TracedPhase::TracedPhase(const std::vector<std::uint8_t>& warm_cache) {
  if (!warm_cache.empty()) {
    // A corrupt blob leaves the caches cold; the replica comparison still
    // holds, only the timings would describe a colder server.
    (void)service::decode_classifier_cache(warm_cache.data(),
                                           warm_cache.size(), replica_cache_);
    (void)service::decode_classifier_cache(
        warm_cache.data(), warm_cache.size(), reference_cache_);
  }
  start_stats_ = replica_cache_.stats();
}

std::vector<std::uint8_t> TracedPhase::run(const core::SessionSpec& spec,
                                           std::uint64_t run, Result& result) {
  ++result.attempted;
  try {
    core::Report replica;
    std::vector<std::uint8_t> reference_bytes;
    const auto run_replica = [&] {
      replica = traced_execute(spec, replica_cache_, tracer_, run, counters_);
    };
    const auto run_reference = [&] {
      const Tracer::Scope ref(tracer_, "ref.run", run);
      core::Report reference;
      {
        const Tracer::Scope span(tracer_, "ref.execute", run);
        reference = core::DiagnosisEngine::execute(
            spec, core::SchemeRegistry::global(), &reference_cache_);
      }
      reference_bytes = service::encode_report(reference);
    };
    // Whichever goes first pays the run's first-touch costs; alternating
    // keeps the overhead ratio from charging them to one side.
    if (run % 2 == 0) {
      run_replica();
      run_reference();
    } else {
      run_reference();
      run_replica();
    }
    std::vector<std::uint8_t> bytes;
    {
      const Tracer::Scope span(tracer_, "service.report_encode", run);
      bytes = service::encode_report(replica);
    }
    if (bytes != reference_bytes) {
      ++result.failures.replica_mismatches;
      std::fprintf(stderr, "replica differs from execute on %s\n",
                   spec.label().c_str());
    }
    {
      const Tracer::Scope span(tracer_, "core.fold", run);
      folded_.fold(replica);
    }
    report_bytes_ += bytes.size();
    return bytes;
  } catch (const std::exception& error) {
    ++result.failures.exceptions;
    std::fprintf(stderr, "traced run %llu threw: %s\n",
                 static_cast<unsigned long long>(run), error.what());
    return {};
  }
}

void TracedPhase::finish(Result& result, double wall_ms,
                         double untraced_runs_per_s, std::size_t workers,
                         const ServiceFigures& service,
                         const std::string& trace_path) const {
  const double runs = static_cast<double>(counters_.runs);
  result.check(counters_.runs > 0, "traced phase completed no run");
  result.check(folded_.count == counters_.runs,
               "traced fold count differs from traced runs");
  const auto per_run = [runs](double value) {
    return runs > 0 ? value / runs : 0.0;
  };
  const auto ms = [&](const char* name) {
    return per_run(tracer_.total_ms(name));
  };
  const auto mean_us = [&](const char* name) {
    const std::size_t n = tracer_.count(name);
    return n == 0 ? 0.0 : tracer_.total_ms(name) * 1e3 / static_cast<double>(n);
  };
  const auto ratio = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  const auto count = [&](std::uint64_t value) {
    return per_run(static_cast<double>(value));
  };

  // ---- faults
  const double run_ms = ms("core.run");
  result.add("faults.inject_ms", ms("faults.inject"), "ms");
  result.add("faults.score_ms", ms("faults.score"), "ms");
  result.add("faults.injected", count(counters_.injected), "count");
  result.add("faults.upsets", count(counters_.upsets), "count");
  result.add("faults.ns_per_upset",
             ratio(tracer_.total_ms("core.run") * 1e6,
                   static_cast<double>(counters_.upsets)),
             "ns");

  // ---- bisd
  result.add("bisd.diagnose_ms", ms("bisd.diagnose"), "ms");
  result.add("bisd.records", count(counters_.records), "count");
  result.add("bisd.sim_cycles", count(counters_.sim_cycles), "count");
  result.add("bisd.repair_ms", ms("bisd.repair"), "ms");
  result.add("bisd.retest_ms", ms("bisd.retest"), "ms");
  result.add("bisd.scan_sweeps", count(counters_.scan_sweeps), "count");
  result.add("bisd.scrub_writes", count(counters_.scrub_writes), "count");

  // ---- sram (runs inside bisd.diagnose; measured through its counters)
  result.add("sram.ops", count(counters_.ops), "count");
  result.add("sram.ns_per_op",
             ratio(tracer_.total_ms("bisd.diagnose") * 1e6,
                   static_cast<double>(counters_.ops)),
             "ns");
  result.add("sram.sliced_ratio",
             ratio(static_cast<double>(counters_.sliced_memories),
                   static_cast<double>(counters_.memories)),
             "ratio");
  result.add("sram.ecc_corrected", count(counters_.ecc_corrected), "count");
  result.add("sram.ecc_miscorrected", count(counters_.ecc_miscorrected),
             "count");

  // ---- diagnosis
  const diagnosis::CacheStats end_stats = replica_cache_.stats();
  const double build_ms =
      per_run((end_stats.build_seconds - start_stats_.build_seconds) * 1e3);
  const double classify_ms = ms("diagnosis.classify");
  const auto delta = [&](std::size_t end, std::size_t start) {
    return count(static_cast<std::uint64_t>(end - start));
  };
  const double hits = static_cast<double>(end_stats.hits - start_stats_.hits);
  const double misses =
      static_cast<double>(end_stats.misses - start_stats_.misses);
  result.add("diagnosis.syndrome_ms", ms("diagnosis.syndrome"), "ms");
  result.add("diagnosis.classify_ms", classify_ms, "ms");
  result.add("diagnosis.dict_build_ms", build_ms, "ms");
  result.add("diagnosis.lookup_ms", classify_ms - build_ms, "ms");
  result.add("diagnosis.dict_keys",
             delta(end_stats.dictionary_keys, start_stats_.dictionary_keys),
             "count");
  result.add("diagnosis.probe_replays",
             delta(end_stats.probe_replays, start_stats_.probe_replays),
             "count");
  result.add("diagnosis.slab_batches",
             delta(end_stats.slab_batches, start_stats_.slab_batches),
             "count");
  result.add("diagnosis.slab_lanes",
             delta(end_stats.slab_lanes, start_stats_.slab_lanes), "count");
  result.add("diagnosis.cache_hit_ratio", ratio(hits, hits + misses),
             "ratio");
  result.add("diagnosis.classified_ratio",
             ratio(static_cast<double>(counters_.classified_sites),
                   static_cast<double>(counters_.sites)),
             "ratio");

  // ---- core
  double step_ms = 0.0;  // replica steps: the direct children of core.run
  for (const auto& span : tracer_.spans()) {
    if (span.parent >= 0 &&
        std::string("core.run") ==
            tracer_.spans()[static_cast<std::size_t>(span.parent)].name) {
      step_ms += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    }
  }
  const double execute_ms = ms("ref.execute");
  result.add("core.execute_ms", execute_ms, "ms");
  result.add("core.execute_other_ms", execute_ms - per_run(step_ms), "ms");
  result.add("core.fold_ms", ms("core.fold"), "ms");
  result.add("core.parallel_efficiency",
             ratio(untraced_runs_per_s * run_ms / 1e3,
                   static_cast<double>(workers)),
             "ratio");

  // ---- service
  result.add("service.request_codec_us",
             per_run((tracer_.total_ms("service.request_encode") +
                      tracer_.total_ms("service.request_decode") +
                      tracer_.total_ms("service.to_spec")) *
                     1e3),
             "us");
  result.add("service.report_encode_us", mean_us("service.report_encode"),
             "us");
  result.add("service.report_decode_us", mean_us("service.report_decode"),
             "us");
  result.add("service.report_bytes",
             per_run(static_cast<double>(report_bytes_)), "bytes");
  result.add("service.ping_rtt_us", mean_us("service.ping"), "us");
  result.add("service.server_job_ms", service.server_job_ms, "ms");
  result.add("service.overhead_ms", service.overhead_ms, "ms");

  // ---- accounting: layer self times + reference + unattributed == wall
  const auto self = tracer_.self_ms_by_layer();
  double self_total = 0.0;
  for (const auto& [layer, value] : self) {
    self_total += value;
  }
  const auto layer = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double unattributed = wall_ms - tracer_.root_ms();
  result.check(tracer_.well_nested(), "trace spans are not well nested");
  result.check(std::fabs(self_total - tracer_.root_ms()) <=
                   1e-6 * (1.0 + tracer_.root_ms()),
               "layer self times do not add up to the root spans");
  result.check(unattributed >= 0.0,
               "root spans exceed the traced wall time");
  const char* layers[] = {"faults", "bisd", "diagnosis", "core", "service"};
  double named = layer("ref");
  for (const char* name : layers) {
    result.add(std::string(name) + ".self_ms", per_run(layer(name)), "ms");
    named += layer(name);
  }
  result.check(std::fabs(named - self_total) <= 1e-6 * (1.0 + self_total),
               "a span belongs to no reported layer");
  std::fprintf(stderr,
               "trace accounting per run: layers %.4f + reference %.4f + "
               "unattributed %.4f = wall %.4f ms\n",
               per_run(self_total - layer("ref")), per_run(layer("ref")),
               per_run(unattributed), per_run(wall_ms));

  result.add("trace.traced_runs", runs, "count");
  result.add("trace.wall_ms", per_run(wall_ms), "ms");
  result.add("trace.reference_ms", per_run(layer("ref")), "ms");
  result.add("trace.unattributed_ms", per_run(unattributed), "ms");
  result.add("trace.overhead", ratio(run_ms, execute_ms), "ratio");

  if (!trace_path.empty()) {
    result.check(tracer_.write_chrome_trace(trace_path),
                 "cannot write " + trace_path);
  }
}

}  // namespace perfbench
