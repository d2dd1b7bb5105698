// Copyright 2026 The ARSP Authors.
//
// arsp_cli argument parsing, extracted so tests can cover the exit-code /
// usage hygiene (unknown flags, missing values, conflicting modes) without
// spawning the binary. ParseCliArgs never prints: it fills `error` and the
// caller (main) routes that to stderr + usage + a non-zero exit.

#ifndef ARSP_TOOLS_CLI_ARGS_H_
#define ARSP_TOOLS_CLI_ARGS_H_

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/core/solver.h"
#include "src/net/client.h"

namespace arsp {
namespace cli {

struct CliArgs {
  std::string input;
  std::string constraints;
  std::string batch_file;
  std::string algo = "auto";
  std::vector<std::string> opts;
  bool header = false;
  bool stats = false;
  int repeat = 1;
  /// --threads: intra-query workers per solve (QueryRequest::parallelism).
  /// 0 = engine policy (parallelize large contexts), 1 = force serial,
  /// N >= 2 = request N workers. Results are bit-identical either way.
  int threads = 0;
  std::optional<int> topk;  ///< explicit --topk; kDefaultTopk otherwise
  std::vector<int> subset_pcts;
  static constexpr int kDefaultTopk = 10;
  std::optional<double> threshold;
  std::string instances_out;
  std::string objects_out;
  // Remote mode (--connect host:port): every query runs against an arspd
  // instead of an in-process engine.
  bool remote = false;
  std::string host;
  int port = 0;
  /// Dataset name to register on the daemon; defaults to the --input path.
  std::string remote_name;
  bool ping = false;      ///< --ping: liveness probe, needs --connect
  bool shutdown = false;  ///< --shutdown: drain the daemon, needs --connect
  /// --trace: capture a per-query span tree and print it after results.
  /// Sets want_trace on every request, so the backend (the in-process
  /// engine, or the daemon and, behind a coordinator, the chosen shard)
  /// returns its serialized spans.
  bool trace = false;
};

namespace internal {

/// Whole-string base-10 int; out-of-range values fail instead of wrapping.
inline bool ParseIntStrict(const std::string& text, int* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size()) return false;
  if (errno == ERANGE || v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

inline bool ParseDoubleStrict(const std::string& text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

}  // namespace internal

/// Parses argv into `args`. Returns false with a one-line `error` on any
/// malformed flag, missing value, or conflicting mode combination — the
/// caller prints the error plus usage and exits 2. Flags are validated as
/// far as possible without touching the filesystem (file existence stays a
/// runtime error, exit 1).
inline bool ParseCliArgs(int argc, char** argv, CliArgs* args,
                         std::string* error) {
  error->clear();
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        *error = "flag " + flag + " needs a value";
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--input") {
      const char* v = next();
      if (v == nullptr) return false;
      args->input = v;
    } else if (flag == "--constraints") {
      const char* v = next();
      if (v == nullptr) return false;
      args->constraints = v;
    } else if (flag == "--batch") {
      const char* v = next();
      if (v == nullptr) return false;
      args->batch_file = v;
    } else if (flag == "--algo") {
      const char* v = next();
      if (v == nullptr) return false;
      args->algo = v;
    } else if (flag == "--opt") {
      const char* v = next();
      if (v == nullptr) return false;
      args->opts.push_back(v);
    } else if (flag == "--header") {
      args->header = true;
    } else if (flag == "--stats") {
      args->stats = true;
    } else if (flag == "--trace") {
      args->trace = true;
    } else if (flag == "--ping") {
      args->ping = true;
    } else if (flag == "--shutdown") {
      args->shutdown = true;
    } else if (flag == "--repeat") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!internal::ParseIntStrict(v, &args->repeat) || args->repeat < 1) {
        *error = std::string("--repeat needs an integer >= 1 (got '") + v +
                 "')";
        return false;
      }
    } else if (flag == "--threads") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!internal::ParseIntStrict(v, &args->threads) ||
          args->threads < 0) {
        *error = std::string("--threads needs an integer >= 0 (got '") + v +
                 "')";
        return false;
      }
    } else if (flag == "--subset") {
      const char* v = next();
      if (v == nullptr) return false;
      // Comma-separated percentages, '%' suffix optional: "20,40%,100".
      std::string token;
      const std::string spec = v;
      for (size_t p = 0; p <= spec.size(); ++p) {
        if (p == spec.size() || spec[p] == ',') {
          if (!token.empty() && token.back() == '%') token.pop_back();
          int pct = 0;
          if (!internal::ParseIntStrict(token, &pct) || pct < 1 ||
              pct > 100) {
            *error = "bad --subset percentage '" + token + "'";
            return false;
          }
          args->subset_pcts.push_back(pct);
          token.clear();
        } else {
          token += spec[p];
        }
      }
    } else if (flag == "--topk") {
      const char* v = next();
      if (v == nullptr) return false;
      int k = 0;
      if (!internal::ParseIntStrict(v, &k)) {
        *error = std::string("--topk needs an integer (got '") + v + "')";
        return false;
      }
      args->topk = k;
    } else if (flag == "--threshold") {
      const char* v = next();
      if (v == nullptr) return false;
      double p = 0.0;
      if (!internal::ParseDoubleStrict(v, &p)) {
        *error = std::string("--threshold needs a number (got '") + v + "')";
        return false;
      }
      args->threshold = p;
    } else if (flag == "--instances") {
      const char* v = next();
      if (v == nullptr) return false;
      args->instances_out = v;
    } else if (flag == "--objects") {
      const char* v = next();
      if (v == nullptr) return false;
      args->objects_out = v;
    } else if (flag == "--connect") {
      const char* v = next();
      if (v == nullptr) return false;
      auto host_port = net::ParseHostPort(v);
      if (!host_port.ok()) {
        *error = host_port.status().message();
        return false;
      }
      args->remote = true;
      args->host = host_port->first;
      args->port = host_port->second;
    } else if (flag == "--name") {
      const char* v = next();
      if (v == nullptr) return false;
      args->remote_name = v;
    } else {
      *error = "unknown flag '" + flag + "'";
      return false;
    }
  }

  // Solver names are case-insensitive everywhere (registry and engine);
  // normalize once so the "list"/"auto" handling agrees.
  args->algo = SolverRegistry::Normalize(args->algo);
  if (args->algo == "list") return true;  // no input needed

  // Mode conflicts — caught here so they exit 2 with usage, never half-run.
  if (args->ping && args->shutdown) {
    *error = "--ping and --shutdown are mutually exclusive";
    return false;
  }
  if ((args->ping || args->shutdown) && !args->remote) {
    *error = std::string(args->ping ? "--ping" : "--shutdown") +
             " needs --connect host:port";
    return false;
  }
  if (args->ping || args->shutdown) return true;  // no input needed

  if (!args->remote && !args->remote_name.empty()) {
    *error = "--name only applies with --connect (remote dataset name)";
    return false;
  }
  if (args->input.empty()) {
    // Remote mode can query a dataset the daemon already holds (arspd
    // --load preloads, or an earlier client's registration) by name alone.
    if (!(args->remote && !args->remote_name.empty())) {
      *error = "--input is required (or --connect with --name NAME to query "
               "a dataset already loaded on the daemon)";
      return false;
    }
    if (!args->instances_out.empty() || !args->objects_out.empty()) {
      *error = "--instances/--objects need --input (result CSVs are "
               "formatted against the local copy of the dataset)";
      return false;
    }
  }
  if (args->constraints.empty() && args->batch_file.empty()) {
    *error = "one of --constraints or --batch is required";
    return false;
  }
  if (!args->subset_pcts.empty()) {
    // The sweep prints a per-prefix stats table; flags it cannot honor are
    // rejected loudly — silently dropping a --repeat/--batch/--instances
    // the user typed would misreport what ran.
    if (!args->batch_file.empty() || args->constraints.empty()) {
      *error = "--subset needs exactly one --constraints spec (no --batch)";
      return false;
    }
    if (!args->instances_out.empty() || !args->objects_out.empty() ||
        args->repeat != 1) {
      *error = "--subset is incompatible with --repeat/--instances/--objects "
               "(it prints a per-prefix stats table instead)";
      return false;
    }
  }
  return true;
}

}  // namespace cli
}  // namespace arsp

#endif  // ARSP_TOOLS_CLI_ARGS_H_
