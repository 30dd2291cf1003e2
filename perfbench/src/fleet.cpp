#include "fleet.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "service/client.h"

namespace perfbench {

namespace {

std::string worker_socket(int i) { return "w" + std::to_string(i) + ".sock"; }

pid_t spawn(const std::vector<std::string>& argv, const std::string& log) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    execv(args[0], args.data());
    _exit(127);
  }
  return pid;
}

void wait_until_accepting(const bgls::service::Endpoint& endpoint,
                          pid_t pid) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    try {
      bgls::service::ServiceClient client(endpoint);
      (void)client.stats();
      return;
    } catch (const std::exception&) {
      int status = 0;
      if (waitpid(pid, &status, WNOHANG) == pid) {
        throw std::runtime_error("a service process exited during start-up");
      }
      if (std::chrono::steady_clock::now() > deadline) {
        throw std::runtime_error("a service process did not start in 10 s");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

}  // namespace

ServiceFleet::ServiceFleet(const std::string& tools_dir, int workers) {
  try {
    std::vector<std::string> front = {tools_dir + "/bgls_fleet", "--listen",
                                      "unix:fleet.sock", "--log-level",
                                      "warn"};
    for (int i = 0; i < workers; ++i) {
      const std::string journal = "w" + std::to_string(i) + ".journal";
      std::remove(journal.c_str());
      std::remove(worker_socket(i).c_str());
      pids_.push_back(spawn({tools_dir + "/bgls_serve", "--listen",
                             "unix:" + worker_socket(i), "--jobs", "1",
                             "--cache", "512", "--journal", journal,
                             "--log-level", "warn"},
                            "w" + std::to_string(i) + ".log"));
      front.push_back("--worker");
      front.push_back("unix:" + worker_socket(i));
    }
    for (int i = 0; i < workers; ++i) {
      wait_until_accepting(worker(i), pids_[static_cast<std::size_t>(i)]);
    }
    std::remove("fleet.sock");
    pids_.push_back(spawn(front, "fleet.log"));
    wait_until_accepting(this->front(), pids_.back());
  } catch (...) {
    stop();
    throw;
  }
}

ServiceFleet::~ServiceFleet() { stop(); }

bgls::service::Endpoint ServiceFleet::front() const {
  return bgls::service::Endpoint::unix_socket("fleet.sock");
}

bgls::service::Endpoint ServiceFleet::worker(int index) const {
  return bgls::service::Endpoint::unix_socket(worker_socket(index));
}

double ServiceFleet::peak_rss_mib() const {
  double total = 0;
  for (const pid_t pid : pids_) total += process_peak_rss_mib(pid);
  return total;
}

void ServiceFleet::stop() {
  // Front first, so no new work reaches a worker that is going away.
  for (auto it = pids_.rbegin(); it != pids_.rend(); ++it) kill(*it, SIGTERM);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (const pid_t pid : pids_) {
    int status = 0;
    while (waitpid(pid, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        kill(pid, SIGKILL);
        waitpid(pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  pids_.clear();
}

}  // namespace perfbench
