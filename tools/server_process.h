/// \file server_process.h
/// Process plumbing shared by the server tools (bgls_serve,
/// bgls_fleet): the --log-file/--log-level logger setup and the signal
/// watcher that turns SIGTERM/SIGINT into a graceful shutdown and
/// SIGHUP into a log-file reopen.

#pragma once

#include <csignal>
#include <atomic>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <utility>

#include "obs/log.h"
#include "util/error.h"

namespace bgls::tools {

/// Applies --log-level and --log-file to the process-wide logger
/// (an empty path logs to stderr). Throws ValueError on a bad level or
/// an unopenable file.
inline void configure_logging(const std::string& level,
                              const std::string& file) {
  obs::LogLevel log_level = obs::LogLevel::kInfo;
  BGLS_REQUIRE(obs::parse_log_level(level, &log_level), "unknown --log-level '",
               level, "' (expected debug/info/warn/error)");
  obs::Logger::global().set_level(log_level);
  if (file.empty()) {
    obs::Logger::global().set_stderr_sink(true);
  } else {
    BGLS_REQUIRE(obs::Logger::global().open_file(file),
                 "cannot open --log-file '", file, "'");
  }
}

/// Watches for SIGTERM/SIGINT/SIGHUP (blocked on every thread; polled
/// with sigtimedwait so the watcher can also exit on normal shutdown).
/// TERM/INT call `on_shutdown` (the server's graceful-exit path); HUP
/// reopens the structured-log file so external rotation works.
class SignalWatcher {
 public:
  /// Blocks the watched signals on the calling thread. Must run before
  /// any other thread exists — masks are inherited at thread creation,
  /// and a server *constructor* may already spawn threads (the daemon's
  /// scheduler runners); a thread with the default mask is a valid
  /// delivery target whose default disposition kills the whole process.
  static void block_signals() {
    sigset_t set = watched_set();
    pthread_sigmask(SIG_BLOCK, &set, nullptr);
  }

  /// `tool` prefixes the console line announcing the caught signal.
  SignalWatcher(std::string tool, std::function<void()> on_shutdown)
      : set_(watched_set()) {
    pthread_sigmask(SIG_BLOCK, &set_, nullptr);
    thread_ = std::thread([this, tool = std::move(tool),
                           on_shutdown = std::move(on_shutdown)] {
      const timespec poll_interval{0, 200 * 1000 * 1000};  // 200ms
      while (!done_.load(std::memory_order_acquire)) {
        const int sig = sigtimedwait(&set_, nullptr, &poll_interval);
        if (sig == SIGHUP) {
          obs::Logger::global().reopen();
          continue;
        }
        if (sig == SIGTERM || sig == SIGINT) {
          std::cout << tool << ": caught "
                    << (sig == SIGTERM ? "SIGTERM" : "SIGINT")
                    << ", shutting down gracefully" << std::endl;
          on_shutdown();
          return;
        }
      }
    });
  }

  ~SignalWatcher() {
    done_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  SignalWatcher(const SignalWatcher&) = delete;
  SignalWatcher& operator=(const SignalWatcher&) = delete;

 private:
  static sigset_t watched_set() {
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGTERM);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGHUP);
    return set;
  }

  sigset_t set_{};
  std::atomic<bool> done_{false};
  std::thread thread_;
};

}  // namespace bgls::tools
