// Copyright 2026 The ARSP Authors.

#include "perfbench/harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include <time.h>

#include "src/cluster/coordinator.h"
#include "src/cluster/remote_shard.h"
#include "src/common/percentile.h"
#include "src/common/stopwatch.h"
#include "src/net/client.h"

namespace perfbench {

using arsp::Status;
using arsp::StatusOr;
using arsp::net::ArspClient;
using arsp::net::ArspServer;
using arsp::net::QueryRequestWire;
using arsp::net::QueryResponseWire;
using arsp::net::ServerOptions;
using arsp::net::ServiceBackend;

namespace {

using Clock = std::chrono::steady_clock;

constexpr char kHost[] = "127.0.0.1";

struct WorkerOut {
  std::vector<Reply> replies;
  std::vector<std::pair<uint64_t, QueryResponseWire>> kept;
  std::string first_error;
};

// When the closed loops stop: at `deadline` once `min_ok` OK replies have
// arrived, else at `hard_deadline`.
struct StopRule {
  Clock::time_point deadline;
  Clock::time_point hard_deadline;
  int64_t min_ok = 0;
  std::atomic<int64_t> ok{0};

  bool Done() const {
    const Clock::time_point now = Clock::now();
    return now >= hard_deadline || (now >= deadline && ok.load() >= min_ok);
  }
};

void RunWorker(ArspClient client, int port, const Workload& workload,
               uint64_t first_index, int connection, bool stamp_trace_ids,
               StopRule* stop, WorkerOut* out) {
  const uint64_t stride = static_cast<uint64_t>(workload.connections);
  for (uint64_t k = 0; !stop->Done(); ++k) {
    Reply reply;
    reply.index = first_index + static_cast<uint64_t>(connection) + k * stride;
    QueryRequestWire request = workload.Request(reply.index);
    if (stamp_trace_ids) request.trace_id = reply.index + 1;
    const Clock::time_point begin = Clock::now();
    StatusOr<QueryResponseWire> answer = client.Query(request);
    reply.latency_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - begin)
            .count();
    if (answer.ok()) {
      reply.outcome = Outcome::kOk;
      stop->ok.fetch_add(1);
      const uint64_t offset = reply.index - first_index;
      const bool sampled = std::binary_search(
          workload.sample.begin(), workload.sample.end(), offset);
      if (workload.check_all || sampled) {
        reply.checked = true;
        reply.answer = AnswerOf(*answer);
      }
      if (sampled) out->kept.emplace_back(reply.index, std::move(*answer));
    } else {
      reply.outcome = answer.status().code() == arsp::StatusCode::kUnavailable
                          ? Outcome::kRetryLater
                          : Outcome::kError;
      if (out->first_error.empty()) {
        out->first_error = answer.status().ToString();
      }
      if (reply.outcome == Outcome::kError) {
        // The stream may be out of step after a transport error: redial.
        auto fresh = ArspClient::Connect(kHost, port);
        if (!fresh.ok()) {
          out->replies.push_back(reply);
          return;
        }
        client = std::move(*fresh);
      }
    }
    out->replies.push_back(reply);
  }
}

}  // namespace

StatusOr<std::unique_ptr<ServingStack>> ServingStack::Start(
    const Workload& workload, const StackOptions& options) {
  const auto wrap = [&options](std::shared_ptr<ServiceBackend> backend,
                               const char* role) {
    return options.wrap ? options.wrap(std::move(backend), role) : backend;
  };
  std::unique_ptr<ServingStack> stack(new ServingStack());
  std::shared_ptr<ServiceBackend> front;
  if (workload.cluster) {
    std::vector<std::shared_ptr<ServiceBackend>> shards;
    std::vector<std::string> names;
    for (int s = 0; s < 2; ++s) {
      ServerOptions shard_options;
      shard_options.backend =
          wrap(std::make_shared<arsp::net::EngineBackend>(), "engine");
      auto server = std::make_unique<ArspServer>(shard_options);
      ARSP_RETURN_IF_ERROR(server->Start());
      auto remote =
          std::make_shared<arsp::cluster::RemoteShard>(kHost, server->port());
      names.push_back(remote->address());
      shards.push_back(wrap(remote, "leg"));
      stack->shards_.push_back(std::move(server));
    }
    // Default placement replicates every dataset onto both shards.
    front = std::make_shared<arsp::cluster::Coordinator>(std::move(shards),
                                                         std::move(names));
  } else {
    front = wrap(std::make_shared<arsp::net::EngineBackend>(), "engine");
  }
  ServerOptions front_options;
  front_options.backend = wrap(std::move(front), "front");
  front_options.query_gate = options.gate;
  stack->front_ = std::make_unique<ArspServer>(front_options);
  ARSP_RETURN_IF_ERROR(stack->front_->Start());
  return stack;
}

StatusOr<double> SetUp(const Workload& workload, Reference& reference,
                       const StackOptions& options, uint64_t trace_base,
                       std::unique_ptr<ServingStack>* stack) {
  std::vector<Answer> expected;
  for (const QueryRequestWire& request : workload.warmup) {
    auto answer = reference.Expected(request);
    if (!answer.ok()) return answer.status();
    expected.push_back(*answer);
  }

  arsp::Stopwatch watch;
  auto started = ServingStack::Start(workload, options);
  if (!started.ok()) return started.status();
  auto client = ArspClient::Connect(kHost, (*started)->port());
  if (!client.ok()) return client.status();
  auto loaded = client->LoadDataset(workload.load);
  if (!loaded.ok()) return loaded.status();
  for (size_t i = 0; i < workload.warmup.size(); ++i) {
    QueryRequestWire request = workload.warmup[i];
    if (trace_base != 0) request.trace_id = trace_base + i;
    auto reply = client->Query(request);
    if (!reply.ok()) return reply.status();
    if (!Matches(expected[i], AnswerOf(*reply), request)) {
      return Status::Internal("warm-up reply " + std::to_string(i) + " (" +
                              request.constraint_spec +
                              ") differs from the serial reference");
    }
  }
  const double seconds = watch.ElapsedSeconds();
  *stack = std::move(*started);
  return seconds;
}

int64_t Window::ok() const {
  return std::count_if(replies.begin(), replies.end(), [](const Reply& r) {
    return r.outcome == Outcome::kOk;
  });
}

std::vector<double> Window::OkLatencies() const {
  std::vector<double> out;
  out.reserve(replies.size());
  for (const Reply& r : replies) {
    if (r.outcome == Outcome::kOk) out.push_back(r.latency_ms);
  }
  return out;
}

Window RunClosedLoop(int port, const Workload& workload, uint64_t first_index,
                     double seconds, int64_t min_ok, bool stamp_trace_ids) {
  Window window;
  std::vector<ArspClient> clients;
  for (int c = 0; c < workload.connections; ++c) {
    auto client = ArspClient::Connect(kHost, port);
    if (!client.ok()) {
      window.first_error = client.status().ToString();
      return window;
    }
    clients.push_back(std::move(*client));
  }
  std::vector<WorkerOut> outs(clients.size());
  const double cpu_before = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const auto after = [start](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  StopRule stop;
  stop.deadline = after(seconds);
  stop.hard_deadline = after(2 * seconds);
  stop.min_ok = min_ok;
  std::vector<std::thread> workers;
  for (size_t c = 0; c < clients.size(); ++c) {
    workers.emplace_back(RunWorker, std::move(clients[c]), port,
                         std::cref(workload), first_index, static_cast<int>(c),
                         stamp_trace_ids, &stop, &outs[c]);
  }
  for (std::thread& worker : workers) worker.join();
  window.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  window.cpu_s = ProcessCpuSeconds() - cpu_before;
  for (WorkerOut& out : outs) {
    window.replies.insert(window.replies.end(), out.replies.begin(),
                          out.replies.end());
    for (auto& kept : out.kept) window.kept.push_back(std::move(kept));
    if (window.first_error.empty()) window.first_error = out.first_error;
  }
  std::sort(window.kept.begin(), window.kept.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return window;
}

Status Tally::Add(const Workload& workload, Reference& reference,
                  const Window& window) {
  if (first_problem.empty()) first_problem = window.first_error;
  for (const Reply& reply : window.replies) {
    ++attempted;
    if (reply.outcome == Outcome::kRetryLater) {
      ++retry_later;
      continue;
    }
    if (reply.outcome == Outcome::kError) {
      ++errors;
      continue;
    }
    ++ok;
    if (!reply.checked) continue;
    ++checked;
    const QueryRequestWire request = workload.Request(reply.index);
    auto expected = reference.Expected(request);
    if (!expected.ok()) return expected.status();
    if (!Matches(*expected, reply.answer, request)) {
      ++mismatched;
      if (first_problem.empty()) {
        first_problem = "reply to request " + std::to_string(reply.index) +
                        " (" + request.constraint_spec +
                        ") differs from the serial reference";
      }
    }
  }
  return Status::OK();
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  return arsp::Percentiles(&samples, {0.5})[0];
}

size_t MinSamplesFor(double q) {
  return static_cast<size_t>(std::llround(10.0 / (1.0 - q)));
}

StatusOr<double> TailPercentile(std::vector<double> samples, double q) {
  if (samples.size() < MinSamplesFor(q)) {
    return Status::FailedPrecondition(
        "percentile " + std::to_string(q) + " needs at least " +
        std::to_string(MinSamplesFor(q)) + " samples, got " +
        std::to_string(samples.size()));
  }
  return arsp::Percentiles(&samples, {q})[0];
}

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace perfbench
