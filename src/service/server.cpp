#include "service/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <poll.h>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "util/json.h"

namespace fastdiag::service {

namespace {

bool read_file(const std::string& path, std::vector<std::uint8_t>& blob) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return false;
  }
  std::uint8_t chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof chunk, file)) > 0) {
    blob.insert(blob.end(), chunk, chunk + got);
  }
  std::fclose(file);
  return true;
}

bool write_file(const std::string& path,
                const std::vector<std::uint8_t>& blob) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  const bool written =
      std::fwrite(blob.data(), 1, blob.size(), file) == blob.size();
  return std::fclose(file) == 0 && written;
}

std::string reader_path(const std::vector<std::uint8_t>& payload,
                        bool& ok) {
  ByteReader reader(payload.data(), payload.size());
  std::string path = reader.str();
  ok = reader.finished() && !path.empty();
  return path;
}

}  // namespace

bool JobServer::serve_connection(int in_fd, int out_fd) {
  Frame frame;
  while (!draining()) {
    if (!read_frame(in_fd, frame)) {
      return false;  // EOF or protocol error: drop this connection only
    }
    if (!is_request(frame.type)) {
      (void)write_frame(out_fd, MessageType::error,
                        std::string("expected a request frame"));
      return false;
    }
    if (frame.type == MessageType::shutdown) {
      draining_.store(true, std::memory_order_release);
      (void)write_frame(out_fd, MessageType::ok, std::string());
      return true;
    }
    if (!handle_request(frame, out_fd)) {
      return false;
    }
  }
  return false;
}

bool JobServer::handle_request(const Frame& request, int out_fd) {
  switch (request.type) {
    case MessageType::ping:
      return write_frame(out_fd, MessageType::ok, std::string());

    case MessageType::submit_job: {
      jobs_submitted_.fetch_add(1, std::memory_order_relaxed);
      auto decoded =
          decode_job_request(request.payload.data(), request.payload.size());
      if (!decoded) {
        jobs_failed_.fetch_add(1, std::memory_order_relaxed);
        return write_frame(out_fd, MessageType::error,
                           decoded.error().message);
      }
      auto spec = decoded.value().to_spec();
      if (!spec) {
        jobs_failed_.fetch_add(1, std::memory_order_relaxed);
        return write_frame(out_fd, MessageType::error,
                           spec.error().to_string());
      }
      const auto started = std::chrono::steady_clock::now();
      const core::Report report =
          core::DiagnosisEngine::execute(spec.value(),
                                         core::SchemeRegistry::global(),
                                         &cache_);
      const auto elapsed = std::chrono::steady_clock::now() - started;
      total_job_ns_.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()),
          std::memory_order_relaxed);
      jobs_ok_.fetch_add(1, std::memory_order_relaxed);
      return write_frame(out_fd, MessageType::job_report,
                         encode_report(report));
    }

    case MessageType::get_stats:
      return write_frame(out_fd, MessageType::stats_json, stats_json());

    case MessageType::save_cache: {
      bool ok = false;
      const std::string name = reader_path(request.payload, ok);
      std::string path;
      if (!ok || !resolve_cache_path(name, path)) {
        return write_frame(
            out_fd, MessageType::error,
            std::string("save_cache: refused (bare file name inside the "
                        "server's --cache-dir required)"));
      }
      if (!save_cache_file(path)) {
        return write_frame(out_fd, MessageType::error,
                           "save_cache: cannot write " + path);
      }
      return write_frame(out_fd, MessageType::ok, std::string());
    }

    case MessageType::load_cache: {
      bool ok = false;
      const std::string name = reader_path(request.payload, ok);
      std::string path;
      if (!ok || !resolve_cache_path(name, path)) {
        return write_frame(
            out_fd, MessageType::error,
            std::string("load_cache: refused (bare file name inside the "
                        "server's --cache-dir required)"));
      }
      const long imported = load_cache_file(path);
      if (imported < 0) {
        return write_frame(out_fd, MessageType::error,
                           "load_cache: cannot import " + path);
      }
      util::JsonObject body;
      body.field("imported", static_cast<std::uint64_t>(imported));
      return write_frame(out_fd, MessageType::stats_json, body.str());
    }

    case MessageType::shutdown:  // handled by serve_connection
    case MessageType::ok:
    case MessageType::job_report:
    case MessageType::stats_json:
    case MessageType::error:
      break;
  }
  return write_frame(out_fd, MessageType::error,
                     std::string("unhandled request type"));
}

// Socket clients run at whatever privilege the daemon holds, so they name
// cache files, never paths: the bare name is resolved inside the configured
// cache directory and anything else is refused.
bool JobServer::resolve_cache_path(const std::string& name,
                                   std::string& resolved) const {
  if (cache_dir_.empty() || name.empty() || name == "." || name == ".." ||
      name.find('/') != std::string::npos) {
    return false;
  }
  resolved = cache_dir_;
  resolved += '/';
  resolved += name;
  return true;
}

bool JobServer::serve_socket(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    return false;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    return false;
  }
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listener, 16) != 0) {
    ::close(listener);
    return false;
  }

  struct Worker {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<Worker> workers;
  const auto reap_finished = [&workers]() {
    for (auto it = workers.begin(); it != workers.end();) {
      if (it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        it = workers.erase(it);
      } else {
        ++it;
      }
    }
  };
  while (!draining()) {
    // Poll with a timeout so a shutdown arriving on another connection
    // stops the accept loop within one tick.
    pollfd pfd{listener, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    // Reap exited workers every tick: a long-lived daemon must not
    // accumulate unjoined threads across its connection history.
    reap_finished();
    if (ready <= 0) {
      continue;
    }
    const int client = ::accept(listener, nullptr, nullptr);
    if (client < 0) {
      continue;
    }
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::thread thread([this, client, done]() {
      (void)serve_connection(client, client);
      ::close(client);
      done->store(true, std::memory_order_release);
    });
    workers.push_back(Worker{std::move(thread), std::move(done)});
  }
  for (auto& worker : workers) {
    worker.thread.join();
  }
  ::close(listener);
  ::unlink(path.c_str());
  return true;
}

long JobServer::load_cache_file(const std::string& path) {
  std::vector<std::uint8_t> blob;
  if (!read_file(path, blob)) {
    return -1;
  }
  auto imported = decode_classifier_cache(blob.data(), blob.size(), cache_);
  if (!imported) {
    return -1;
  }
  return static_cast<long>(imported.value());
}

bool JobServer::save_cache_file(const std::string& path) const {
  return write_file(path, encode_classifier_cache(cache_));
}

std::string JobServer::stats_json() const {
  const diagnosis::CacheStats cache_stats = cache_.stats();
  util::JsonObject body;
  body.field("jobs_submitted",
             jobs_submitted_.load(std::memory_order_relaxed))
      .field("jobs_ok", jobs_ok_.load(std::memory_order_relaxed))
      .field("jobs_failed", jobs_failed_.load(std::memory_order_relaxed))
      .field("total_job_ns", total_job_ns_.load(std::memory_order_relaxed))
      .field("cache_entries", static_cast<std::uint64_t>(cache_.size()))
      .field("cache_hits", static_cast<std::uint64_t>(cache_stats.hits))
      .field("cache_misses", static_cast<std::uint64_t>(cache_stats.misses))
      .field("cache_evictions",
             static_cast<std::uint64_t>(cache_stats.evictions))
      .field("dictionary_keys",
             static_cast<std::uint64_t>(cache_stats.dictionary_keys))
      .field("probe_replays",
             static_cast<std::uint64_t>(cache_stats.probe_replays))
      .field("slab_batches",
             static_cast<std::uint64_t>(cache_stats.slab_batches))
      .field("slab_lanes", static_cast<std::uint64_t>(cache_stats.slab_lanes))
      .field("dictionary_build_seconds", cache_stats.build_seconds, 6)
      .field("dictionary_bytes",
             static_cast<std::uint64_t>(cache_stats.dictionary_bytes));
  return body.str();
}

}  // namespace fastdiag::service
