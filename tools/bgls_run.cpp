/// \file bgls_run.cpp
/// The `bgls_run` CLI: OpenQASM 2.0 in, histogram JSON out — the
/// smallest possible service frontend over the runtime API
/// (api/session.h). Reads a circuit, routes it through a bgls::Session
/// (automatic backend selection by default, `--backend` to force one),
/// samples it, and emits a deterministic machine-readable report.
///
///   $ bgls_run --reps 4096 --seed 7 circuit.qasm
///   $ bgls_run --backend mps --threads 8 --out result.json circuit.qasm
///   $ cat circuit.qasm | bgls_run --reps 100 -
///
/// The JSON contains only result-determining fields (seed, streams,
/// repetitions, backend, histograms, scheduling-independent counters),
/// so for a fixed seed the output is byte-identical across runs and
/// across thread counts, 1 included: --threads only decides where the
/// work runs. CI pins both with a checked-in expected file and a
/// 1-vs-2-vs-4-thread diff, batched and --no-batch.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.h"
#include "cli_flags.h"
#include "obs/exposition.h"
#include "qasm/qasm.h"
#include "service/report.h"
#include "util/cancellation.h"
#include "util/error.h"

namespace {

using namespace bgls;
using tools::parse_int_flag;
using tools::parse_u64_flag;

struct CliOptions {
  std::string input;  // path, or "-" for stdin
  std::string output;  // path, or "" for stdout
  std::string backend = "auto";
  std::uint64_t repetitions = 1024;
  std::uint64_t seed = 0;
  int threads = 1;
  std::uint64_t streams = 16;
  bool optimize = false;
  bool no_batch = false;
  std::uint64_t timeout_ms = 0;
  bool verbose = false;
  std::string metrics_json;  // "" = no dump
};

void print_usage(std::ostream& os) {
  os << "usage: bgls_run [options] <circuit.qasm | ->\n"
        "\n"
        "Samples an OpenQASM 2.0 circuit with the BGLS gate-by-gate\n"
        "sampler and prints a histogram report as JSON.\n"
        "\n"
        "options:\n"
        "  --backend NAME   auto (default), statevector/sv,\n"
        "                   densitymatrix/dm, stabilizer/ch, mps, or any\n"
        "                   name registered in the backend registry\n"
        "  --reps N         repetitions to sample (default 1024)\n"
        "  --seed N         RNG seed (default 0)\n"
        "  --threads N      worker threads (default 1; 0 = hardware\n"
        "                   concurrency). Never changes the output: it is\n"
        "                   identical for every thread count, 1 included\n"
        "  --streams N      deterministic RNG streams of a per-trajectory\n"
        "                   run (default 16; this, not --threads, fixes\n"
        "                   its sampled values)\n"
        "  --optimize       run optimize_for_bgls before sampling\n"
        "  --no-batch       disable dictionary batching (per-trajectory\n"
        "                   sampling; draws differ from the batched path)\n"
        "  --timeout-ms N   abort the run after N wall-clock milliseconds\n"
        "                   (exit code 3; see below). 0 = no limit\n"
        "  --out FILE       write the JSON report to FILE (default stdout)\n"
        "  --verbose        print timing/routing detail to stderr (backend,\n"
        "                   selection reason, per-phase wall times, engine\n"
        "                   counters); the stdout report stays byte-stable\n"
        "  --metrics-json FILE  dump the process telemetry registry\n"
        "                   (counters/gauges/histograms) as JSON after the\n"
        "                   run; empty when built without telemetry\n"
        "  --help           this text\n"
        "\n"
        "exit codes: 0 success, 2 usage/runtime error, 3 run cancelled\n"
        "or timed out (--timeout-ms exceeded).\n";
}

/// Parses argv; returns false (after printing usage) on --help.
bool parse_args(int argc, char** argv, CliOptions& options) {
  const auto need_value = [&](int& i, const std::string& flag) -> std::string {
    if (i + 1 >= argc) {
      detail::throw_error<ValueError>("missing value for ", flag);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return false;
    } else if (arg == "--backend") {
      options.backend = need_value(i, arg);
    } else if (arg == "--reps") {
      options.repetitions = parse_u64_flag(arg, need_value(i, arg));
    } else if (arg == "--seed") {
      options.seed = parse_u64_flag(arg, need_value(i, arg));
    } else if (arg == "--threads") {
      options.threads = parse_int_flag(arg, need_value(i, arg));
    } else if (arg == "--streams") {
      options.streams = parse_u64_flag(arg, need_value(i, arg));
    } else if (arg == "--optimize") {
      options.optimize = true;
    } else if (arg == "--no-batch") {
      options.no_batch = true;
    } else if (arg == "--timeout-ms") {
      options.timeout_ms = parse_u64_flag(arg, need_value(i, arg));
    } else if (arg == "--out") {
      options.output = need_value(i, arg);
    } else if (arg == "--verbose" || arg == "-v") {
      options.verbose = true;
    } else if (arg == "--metrics-json") {
      options.metrics_json = need_value(i, arg);
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      detail::throw_error<ValueError>("unknown flag '", arg,
                                      "' (try --help)");
    } else {
      BGLS_REQUIRE(options.input.empty(),
                   "exactly one input circuit expected, got '", options.input,
                   "' and '", arg, "'");
      options.input = arg;
    }
  }
  BGLS_REQUIRE(!options.input.empty(),
               "no input circuit given (path or '-' for stdin; see --help)");
  return true;
}

std::string read_input(const std::string& input) {
  std::ostringstream buffer;
  if (input == "-") {
    buffer << std::cin.rdbuf();
  } else {
    std::ifstream file(input);
    BGLS_REQUIRE(file.good(), "cannot open '", input, "'");
    buffer << file.rdbuf();
  }
  return buffer.str();
}

int run_cli(const CliOptions& options) {
  const Circuit circuit = parse_qasm(read_input(options.input));

  RunRequest request = RunRequest()
                           .with_circuit(circuit)
                           .with_repetitions(options.repetitions)
                           .with_seed(options.seed)
                           .with_threads(options.threads)
                           .with_rng_streams(options.streams)
                           .with_optimization(options.optimize)
                           .with_sample_parallelization(!options.no_batch)
                           .with_deadline_ms(options.timeout_ms);
  // "auto" means kAuto (the RunRequest default); anything else is a
  // registry name — the registry owns the alias table (sv/dm/ch/...),
  // so custom backends work with no CLI changes.
  if (detail::ascii_lower(options.backend) != "auto") {
    request.with_backend(options.backend);
  }

  // The report echoes the knobs that determine the sampled records; it
  // must be built from the submitted request (Session::run consumes its
  // copy). Shared with the bgls_serve daemon, whose result endpoint is
  // byte-identical to this CLI for the same input/seed.
  const service::RunReportContext context =
      service::report_context(request, circuit.num_qubits());

  Session session;
  const RunResult result = session.run(std::move(request));

  if (options.output.empty()) {
    service::write_run_report(std::cout, context, result);
  } else {
    std::ofstream file(options.output);
    BGLS_REQUIRE(file.good(), "cannot write '", options.output, "'");
    service::write_run_report(file, context, result);
  }

  if (options.verbose) {
    // Scheduling-dependent detail goes to stderr only: the stdout
    // report stays byte-identical across runs and thread counts.
    const RunStats& stats = result.stats;
    std::cerr << "bgls_run: backend=" << result.backend_name;
    if (!result.selection_reason.empty()) {
      std::cerr << " (" << result.selection_reason << ")";
    }
    std::cerr << "\n"
              << "bgls_run: wall_ms=" << result.wall_seconds * 1000.0
              << " optimize_ms=" << stats.optimize_ms
              << " evolve_ms=" << stats.evolve_ms
              << " sample_ms=" << stats.sample_ms << "\n"
              << "bgls_run: applies=" << stats.state_applications
              << " prob_evals=" << stats.probability_evaluations
              << " max_dict=" << stats.max_dictionary_size
              << " trajectories=" << stats.trajectories
              << " threads=" << stats.threads_used << "\n";
  }
  if (!options.metrics_json.empty()) {
    std::ofstream file(options.metrics_json);
    BGLS_REQUIRE(file.good(), "cannot write '", options.metrics_json, "'");
    obs::write_metrics_json(file, Session::metrics_snapshot());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  try {
    if (!parse_args(argc, argv, options)) return 0;
    return run_cli(options);
  } catch (const bgls::CancelledError& e) {
    std::cerr << "bgls_run: " << e.what() << "\n";
    return 3;  // documented: run cancelled
  } catch (const bgls::DeadlineExceededError& e) {
    std::cerr << "bgls_run: " << e.what() << "\n";
    return 3;  // documented: --timeout-ms exceeded
  } catch (const bgls::Error& e) {
    std::cerr << "bgls_run: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "bgls_run: " << e.what() << "\n";
    return 2;
  }
}
