// diagd_jobs: an in-process service::JobServer behind the real frame path —
// one pipe pair and one serve_connection thread per client connection,
// exactly diagd's pipe transport — driven by two client threads in a closed
// loop: each sends its next submit_job only after the reply has arrived.
// Jobs are small (~1 ms), so codec, frame, spec and cache-lookup costs are
// a visible share of every reply.
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "model.h"
#include "service/protocol.h"
#include "service/serialize.h"
#include "service/server.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace fastdiag;

constexpr std::size_t kClients = 2;
/// Fewer than the engine workloads' 5: each set-up here warms a server
/// until its cache stops growing (~2 s).
constexpr int kSetupRepetitions = 3;
constexpr std::uint64_t kMinTracedJobs = 8;

/// Jobs at the head of the stream the model outputs and digests cover.
constexpr std::uint64_t kModelPrefix = 512;
/// Every kSampleStride-th prefix job is re-executed locally after the timed
/// phase; an odd stride samples jobs with and without classification.
constexpr std::uint64_t kSampleStride = 15;

/// Warm-up sends rounds of this many jobs until kQuietRounds rounds in a
/// row leave the server's dictionary key count unchanged, or
/// kMaxWarmupRounds have run.  A single quiet round is not enough: rare
/// wrapped rows keep adding keys for a while, and each such build lands in
/// the timed phase's tail.
constexpr std::uint64_t kWarmupRound = 32;
constexpr std::uint64_t kQuietRounds = 4;
constexpr std::uint64_t kMaxWarmupRounds = 200;

/// The traced phase pings the server once every this many jobs.
constexpr std::uint64_t kPingEvery = 8;

bool is_sample(std::uint64_t index) {
  return index < kModelPrefix && index % kSampleStride == 0;
}

/// The 4-memory "mixed" SoC at 1 % defects; three of its memories wrap the
/// 64-step sweep.  Classification on every other job.
service::JobRequest job_request(std::uint64_t seed, std::uint64_t stream,
                                std::uint64_t index) {
  service::JobRequest request;
  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {64, 16}, {48, 12}, {32, 8}, {16, 4}};
  for (const auto& [words, bits] : shapes) {
    sram::SramConfig config;
    config.name = "mixed" + std::to_string(request.configs.size());
    config.words = words;
    config.bits = bits;
    request.configs.push_back(config);
  }
  request.defect_rate = 0.01;
  request.seed = run_seed(seed, stream, index);
  request.classify = index % 2 == 0;
  return request;
}

/// Pins the calling thread to the @p slot-th CPU the process could run on
/// at its first call (nothing when there are fewer than kClients).  Client c
/// and the server thread of connection c share a CPU, and the main thread,
/// which drives warm-up and the traced phase on connection 0, shares
/// server 0's: in a closed loop only one side runs at a time, and a reply
/// then costs a local context switch instead of a cross-CPU wake-up, whose
/// latency belongs to the hypervisor rather than to the program.
void pin_to_cpu(std::size_t slot) {
  // Captured before any thread is pinned; pinned threads' children would
  // otherwise inherit a one-CPU mask.
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
      }
    }
    return out;
  }();
  if (cpus.size() < kClients || slot >= cpus.size()) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[slot], &one);
  (void)pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

/// The client ends of one connection.
struct Connection {
  int request_fd = -1;
  int response_fd = -1;
};

/// A JobServer serving kClients pipe connections, one thread each.  The
/// destructor closes the client request ends; each server thread then
/// reads EOF, returns, and is joined.
class DiagdFixture {
 public:
  DiagdFixture() {
    // Every pipe exists before the first server thread starts, so a failed
    // pipe() never leaves a running thread behind a throwing constructor.
    for (std::size_t c = 0; c < kClients; ++c) {
      int to_server[2];
      int from_server[2];
      if (pipe(to_server) != 0) {
        close_all();
        throw std::runtime_error("pipe failed");
      }
      if (pipe(from_server) != 0) {
        close(to_server[0]);
        close(to_server[1]);
        close_all();
        throw std::runtime_error("pipe failed");
      }
      pipes_.push_back({to_server[0], to_server[1], from_server[0],
                        from_server[1]});
    }
    for (std::size_t c = 0; c < pipes_.size(); ++c) {
      threads_.emplace_back([this, c, in = pipes_[c][0], out = pipes_[c][3]] {
        pin_to_cpu(c);
        (void)server_.serve_connection(in, out);
      });
    }
  }

  ~DiagdFixture() {
    for (const auto& fds : pipes_) {
      close(fds[1]);
    }
    for (auto& thread : threads_) {
      thread.join();
    }
    for (const auto& fds : pipes_) {
      close(fds[0]);
      close(fds[2]);
      close(fds[3]);
    }
  }
  DiagdFixture(const DiagdFixture&) = delete;
  DiagdFixture& operator=(const DiagdFixture&) = delete;

  [[nodiscard]] Connection connection(std::size_t c) const {
    return {pipes_[c][1], pipes_[c][2]};
  }
  [[nodiscard]] const service::JobServer& server() const { return server_; }

 private:
  void close_all() {
    for (const auto& fds : pipes_) {
      for (const int fd : fds) {
        close(fd);
      }
    }
  }

  service::JobServer server_;
  /// to_server read/write, from_server read/write.
  std::vector<std::array<int, 4>> pipes_;
  std::vector<std::thread> threads_;  ///< last: joined before the rest dies
};

bool round_trip(const Connection& connection, service::MessageType type,
                const std::vector<std::uint8_t>& payload,
                service::Frame& response) {
  return service::write_frame(connection.request_fd, type, payload) &&
         service::read_frame(connection.response_fd, response);
}

/// One numeric field of the server's stats JSON (0 when absent).
std::uint64_t stat_field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = json.find(needle);
  return at == std::string::npos
             ? 0
             : std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

std::optional<std::string> get_stats(const Connection& connection) {
  service::Frame response;
  if (!round_trip(connection, service::MessageType::get_stats, {}, response) ||
      response.type != service::MessageType::stats_json) {
    return std::nullopt;
  }
  return std::string(response.payload.begin(), response.payload.end());
}

/// Sends one job and accounts for its reply; returns the decoded report.
std::optional<core::Report> submit(const Connection& connection,
                                   const std::vector<std::uint8_t>& request,
                                   service::Frame& response,
                                   Result& result) {
  ++result.attempted;
  if (!round_trip(connection, service::MessageType::submit_job, request,
                  response)) {
    throw std::runtime_error("diagd connection lost");
  }
  if (response.type != service::MessageType::job_report) {
    ++result.failures.error_frames;
    std::fprintf(stderr, "diagd answered with frame type %d: %s\n",
                 static_cast<int>(response.type),
                 std::string(response.payload.begin(), response.payload.end())
                     .c_str());
    return std::nullopt;
  }
  auto report =
      service::decode_report(response.payload.data(), response.payload.size());
  if (!report) {
    ++result.failures.decode_failures;
    return std::nullopt;
  }
  return std::move(report).value();
}

std::unique_ptr<DiagdFixture> set_up(const Options& options, Result& result) {
  auto fixture = std::make_unique<DiagdFixture>();
  const Connection connection = fixture->connection(0);
  std::uint64_t index = 0;
  std::uint64_t keys = 0;
  std::uint64_t quiet = 0;
  for (std::uint64_t round = 0;
       round < kMaxWarmupRounds && quiet < kQuietRounds; ++round) {
    for (std::uint64_t j = 0; j < kWarmupRound; ++j, ++index) {
      service::Frame response;
      (void)submit(connection,
                   service::encode_job_request(
                       job_request(options.seed, kWarmupStream, index)),
                   response, result);
    }
    const auto stats = get_stats(connection);
    if (!stats) {
      throw std::runtime_error("diagd get_stats failed");
    }
    const std::uint64_t now_keys = stat_field(*stats, "dictionary_keys");
    quiet = round > 0 && now_keys == keys ? quiet + 1 : 0;
    keys = now_keys;
  }
  std::fprintf(stderr, "diagd warm-up: %llu jobs, %llu dictionary keys\n",
               static_cast<unsigned long long>(index),
               static_cast<unsigned long long>(keys));
  return fixture;
}

/// What one client thread saw during the timed phase.
struct ClientLog {
  Result result;  ///< attempted + failures only
  std::vector<double> latencies_ms;  ///< submit_job written -> reply read
  std::vector<Clock::time_point> replied;
  std::map<std::uint64_t, core::Report> prefix;
  std::map<std::uint64_t, std::vector<std::uint8_t>> samples;
  Clock::time_point finished;
};

void client_loop(const Connection& connection, std::size_t client,
                 const Options& options, Clock::time_point deadline,
                 ClientLog& log) {
  pin_to_cpu(client);
  try {
    for (std::uint64_t k = 0;; ++k) {
      const std::uint64_t index = client + k * kClients;
      if (index >= kModelPrefix && Clock::now() >= deadline) {
        break;
      }
      const auto request = service::encode_job_request(
          job_request(options.seed, kTimedStream, index));
      service::Frame response;
      const auto sent = Clock::now();
      auto report = submit(connection, request, response, log.result);
      const auto now = Clock::now();
      log.latencies_ms.push_back(ms_between(sent, now));
      log.replied.push_back(now);
      if (!report) continue;
      if (index < kModelPrefix) {
        log.prefix.emplace(index, std::move(*report));
      }
      if (is_sample(index)) {
        log.samples.emplace(index, std::move(response.payload));
      }
    }
  } catch (const std::exception& error) {
    ++log.result.failures.exceptions;
    std::fprintf(stderr, "client %zu: %s\n", client, error.what());
  }
  log.finished = Clock::now();
}

struct JobsPhase {
  std::uint64_t replies = 0;
  Clock::time_point start;
  double seconds = 0.0;
  std::vector<Clock::time_point> replied;
  std::vector<double> latencies_ms;
  ModelTally model;
  std::map<std::uint64_t, std::vector<std::uint8_t>> samples;
  double server_job_ms = 0.0;

  [[nodiscard]] double jobs_per_s() const {
    return seconds > 0 ? static_cast<double>(replies) / seconds : 0.0;
  }

  /// Median over the phase's whole seconds of the replies completed in
  /// each, so one second slowed by another process on the machine does not
  /// move the figure.
  [[nodiscard]] double median_second_jobs_per_s() const {
    std::vector<double> per_second;
    for (const auto& second : second_latencies()) {
      per_second.push_back(static_cast<double>(second.size()));
    }
    return median(per_second);
  }

  /// Latencies grouped by the whole second of the phase their reply
  /// arrived in.
  [[nodiscard]] std::vector<std::vector<double>> second_latencies() const {
    std::vector<std::vector<double>> by_second(
        static_cast<std::size_t>(seconds));
    for (std::size_t i = 0; i < replied.size(); ++i) {
      const auto slot =
          static_cast<std::size_t>(seconds_between(start, replied[i]));
      if (slot < by_second.size()) {
        by_second[slot].push_back(latencies_ms[i]);
      }
    }
    return by_second;
  }
  [[nodiscard]] double mean_latency_ms() const {
    return latencies_ms.empty()
               ? 0.0
               : std::accumulate(latencies_ms.begin(), latencies_ms.end(),
                                 0.0) /
                     static_cast<double>(latencies_ms.size());
  }
};

JobsPhase jobs_phase(const DiagdFixture& fixture, const Options& options,
                     double seconds, Result& result) {
  const auto before = get_stats(fixture.connection(0));
  std::vector<ClientLog> logs(kClients);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back(client_loop, fixture.connection(c), c,
                           std::cref(options), deadline, std::ref(logs[c]));
    }
  }
  const auto after = get_stats(fixture.connection(0));

  JobsPhase phase;
  phase.start = start;
  Clock::time_point finished = start;
  std::map<std::uint64_t, core::Report> prefix;
  std::uint64_t submitted = 0;
  for (auto& log : logs) {
    finished = std::max(finished, log.finished);
    phase.replies += log.replied.size();
    phase.replied.insert(phase.replied.end(), log.replied.begin(),
                         log.replied.end());
    submitted += log.result.attempted;
    result.attempted += log.result.attempted;
    const Failures& f = log.result.failures;
    result.failures.exceptions += f.exceptions;
    result.failures.error_frames += f.error_frames;
    result.failures.decode_failures += f.decode_failures;
    phase.latencies_ms.insert(phase.latencies_ms.end(),
                              log.latencies_ms.begin(),
                              log.latencies_ms.end());
    prefix.merge(log.prefix);
    phase.samples.merge(log.samples);
  }
  phase.seconds = seconds_between(start, finished);
  for (const auto& [index, report] : prefix) {
    phase.model.add(report);
  }
  result.check(phase.model.runs() == kModelPrefix,
               "the model prefix did not complete");

  result.check(before && after, "diagd get_stats failed");
  if (before && after) {
    const auto delta = [&](const char* key) {
      return stat_field(*after, key) - stat_field(*before, key);
    };
    // Every submit_job sent must come back counted by the server.
    if (delta("jobs_submitted") != submitted ||
        delta("jobs_ok") + delta("jobs_failed") != submitted) {
      ++result.failures.fold_mismatches;
    }
    const std::uint64_t ok = delta("jobs_ok");
    phase.server_job_ms =
        ok == 0 ? 0.0
                : static_cast<double>(delta("total_job_ns")) /
                      static_cast<double>(ok) / 1e6;
  }
  return phase;
}

/// Re-executes each sampled job locally and requires the served bytes.
void verify_samples(const Options& options, const JobsPhase& phase,
                    Result& result) {
  diagnosis::ClassifierCache cache;
  for (const auto& [index, bytes] : phase.samples) {
    ++result.attempted;
    const auto spec =
        job_request(options.seed, kTimedStream, index).to_spec();
    if (!spec) {
      ++result.failures.config_errors;
      continue;
    }
    const auto report = core::DiagnosisEngine::execute(
        spec.value(), core::SchemeRegistry::global(), &cache);
    if (service::encode_report(report) != bytes) {
      ++result.failures.verify_mismatches;
      std::fprintf(stderr, "served job %llu differs from execute\n",
                   static_cast<unsigned long long>(index));
    }
  }
  result.check(phase.samples.size() ==
                   (kModelPrefix + kSampleStride - 1) / kSampleStride,
               "not every verification sample was served");
}

/// Serial jobs on connection 0 with client-side spans around every public
/// call of the frame path, each job also replayed locally through the
/// traced replica (warmed from the server's cache) and compared with the
/// served bytes.
void traced_phase(const DiagdFixture& fixture, const Options& options,
                  const JobsPhase& untraced, Result& result) {
  TracedPhase traced(service::encode_classifier_cache(fixture.server().cache()));
  Tracer& tracer = traced.tracer();
  const Connection connection = fixture.connection(0);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds / 2));
  for (std::uint64_t i = 0; i < kMinTracedJobs || Clock::now() < deadline;
       ++i) {
    const auto request = job_request(options.seed, kTimedStream, i);
    std::vector<std::uint8_t> encoded;
    {
      const Tracer::Scope span(tracer, "service.request_encode", i);
      encoded = service::encode_job_request(request);
    }
    service::Frame response;
    ++result.attempted;
    {
      const Tracer::Scope span(tracer, "service.round_trip", i);
      if (!round_trip(connection, service::MessageType::submit_job, encoded,
                      response)) {
        throw std::runtime_error("diagd connection lost");
      }
    }
    if (response.type != service::MessageType::job_report) {
      ++result.failures.error_frames;
      continue;
    }
    {
      const Tracer::Scope span(tracer, "service.report_decode", i);
      if (!service::decode_report(response.payload.data(),
                                  response.payload.size())) {
        ++result.failures.decode_failures;
      }
    }
    // The server's side of the codec: decode the request, build the spec.
    std::optional<service::JobRequest> decoded;
    {
      const Tracer::Scope span(tracer, "service.request_decode", i);
      auto value = service::decode_job_request(encoded.data(), encoded.size());
      if (value) decoded = std::move(value).value();
    }
    if (!decoded) {
      ++result.failures.decode_failures;
      continue;
    }
    std::optional<core::SessionSpec> spec;
    {
      const Tracer::Scope span(tracer, "service.to_spec", i);
      auto value = decoded->to_spec();
      if (value) spec = std::move(value).value();
    }
    if (!spec) {
      ++result.failures.config_errors;
      continue;
    }
    if (traced.run(*spec, i, result) != response.payload) {
      ++result.failures.verify_mismatches;
      std::fprintf(stderr, "served job %llu differs from the replica\n",
                   static_cast<unsigned long long>(i));
    }
    if (i % kPingEvery == 0) {
      ++result.attempted;
      const Tracer::Scope span(tracer, "service.ping", i);
      if (!round_trip(connection, service::MessageType::ping, {}, response) ||
          response.type != service::MessageType::ok) {
        ++result.failures.error_frames;
      }
    }
  }
  const double wall_ms = ms_between(start, Clock::now());

  ServiceFigures service;
  service.server_job_ms = untraced.server_job_ms;
  service.overhead_ms = untraced.mean_latency_ms() - untraced.server_job_ms;
  const std::string path =
      options.trace_dir.empty()
          ? std::string()
          : options.trace_dir + "/diagd_jobs-seed" +
                std::to_string(options.seed) + ".json";
  traced.finish(result, wall_ms, untraced.jobs_per_s(), kClients, service,
                path);
}

}  // namespace

Result run_diagd_workload(const Options& options) {
  pin_to_cpu(0);
  Result result;
  std::vector<double> setup_s;
  std::unique_ptr<DiagdFixture> fixture;
  const int repetitions = options.trace ? 1 : kSetupRepetitions;
  for (int rep = 0; rep < repetitions; ++rep) {
    fixture.reset();
    release_freed_memory();
    const auto start = rep == 0 ? options.process_start : Clock::now();
    fixture = set_up(options, result);
    setup_s.push_back(seconds_between(start, Clock::now()));
  }

  const double timed_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  const JobsPhase phase = jobs_phase(*fixture, options, timed_seconds, result);
  const double rss_mb = peak_rss_mb();
  std::printf("digest diagd_jobs seed=%llu prefix=%llu: %s\n",
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(kModelPrefix),
              phase.model.digest().c_str());

  if (options.trace) {
    traced_phase(*fixture, options, phase, result);
    return result;
  }

  std::fprintf(stderr,
               "diagd_jobs: %llu replies in %.3f s (%.4f/s overall), %zu "
               "latency samples, server %.4f ms/job\n",
               static_cast<unsigned long long>(phase.replies), phase.seconds,
               phase.jobs_per_s(), phase.latencies_ms.size(),
               phase.server_job_ms);
  fixture.reset();
  verify_samples(options, phase, result);
  result.add("runs_per_s", phase.median_second_jobs_per_s(), "1/s");
  const auto per_second = phase.second_latencies();
  result.add("job_p50_ms", median_slice_percentile(per_second, 50), "ms");
  result.add("job_p99_ms", median_slice_percentile(per_second, 99), "ms");
  result.add("setup_s", median(setup_s), "s");
  result.add("peak_rss_mb", rss_mb, "MB");
  phase.model.add_metrics(result);
  return result;
}

}  // namespace perfbench
