// Copyright 2026 The ARSP Authors.

#include "src/net/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace arsp {
namespace net {

namespace {

// Every multi-byte integer on the wire is little-endian by construction
// (byte shifts, never memcpy of host-order words), so the protocol is
// endian-portable without per-platform code.
void PutU16(std::string& buf, uint16_t v) {
  buf.push_back(static_cast<char>(v & 0xff));
  buf.push_back(static_cast<char>((v >> 8) & 0xff));
}

void PutU32(std::string& buf, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint32_t GetU32(const unsigned char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint16_t GetU16(const unsigned char* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

// Blocking full-buffer write; loops over short writes and EINTR.
// MSG_NOSIGNAL: a peer that vanished mid-response must surface as EPIPE,
// not SIGPIPE-kill the daemon (frame fds are always sockets).
Status WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("write: ") + std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

// Blocking full-buffer read. `*got` reports bytes read before EOF so the
// caller can distinguish a clean close (0 bytes) from a truncated frame.
Status ReadAll(int fd, char* data, size_t size, size_t* got) {
  *got = 0;
  while (*got < size) {
    const ssize_t n = ::read(fd, data + *got, size - *got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) {
      return Status::NotFound("connection closed");
    }
    *got += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kPing: return "PING";
    case MessageType::kLoadDataset: return "LOAD_DATASET";
    case MessageType::kAddView: return "ADD_VIEW";
    case MessageType::kQuery: return "QUERY";
    case MessageType::kStats: return "STATS";
    case MessageType::kDrop: return "DROP";
    case MessageType::kShutdown: return "SHUTDOWN";
    case MessageType::kMetrics: return "METRICS";
    case MessageType::kTraceGet: return "TRACE";
    case MessageType::kOk: return "OK";
    case MessageType::kError: return "ERROR";
    case MessageType::kLoadResult: return "LOAD_RESULT";
    case MessageType::kViewResult: return "VIEW_RESULT";
    case MessageType::kQueryResult: return "QUERY_RESULT";
    case MessageType::kStatsResult: return "STATS_RESULT";
    case MessageType::kRetryLater: return "RETRY_LATER";
    case MessageType::kMetricsResult: return "METRICS_RESULT";
    case MessageType::kTraceResult: return "TRACE_RESULT";
  }
  return "UNKNOWN";
}

// ------------------------------------------------------------- WireWriter

void WireWriter::U16(uint16_t v) { PutU16(buf_, v); }

void WireWriter::U32(uint32_t v) { PutU32(buf_, v); }

void WireWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void WireWriter::F64(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

void WireWriter::F64Vec(const std::vector<double>& v) {
  U32(static_cast<uint32_t>(v.size()));
  for (double x : v) F64(x);
}

void WireWriter::I32Vec(const std::vector<int>& v) {
  U32(static_cast<uint32_t>(v.size()));
  for (int x : v) I32(x);
}

void WireWriter::StrVec(const std::vector<std::string>& v) {
  U32(static_cast<uint32_t>(v.size()));
  for (const std::string& s : v) Str(s);
}

// ------------------------------------------------------------- WireReader

bool WireReader::Need(size_t n) {
  if (!status_.ok()) return false;
  if (buf_.size() - pos_ < n) {
    Fail("truncated payload");
    return false;
  }
  return true;
}

void WireReader::Fail(const std::string& what) {
  if (status_.ok()) {
    status_ = Status::InvalidArgument(
        what + " at offset " + std::to_string(pos_) + " of " +
        std::to_string(buf_.size()) + " bytes");
  }
}

uint8_t WireReader::U8() {
  if (!Need(1)) return 0;
  return static_cast<uint8_t>(buf_[pos_++]);
}

uint16_t WireReader::U16() {
  if (!Need(2)) return 0;
  const uint16_t v =
      GetU16(reinterpret_cast<const unsigned char*>(buf_.data()) + pos_);
  pos_ += 2;
  return v;
}

uint32_t WireReader::U32() {
  if (!Need(4)) return 0;
  const uint32_t v =
      GetU32(reinterpret_cast<const unsigned char*>(buf_.data()) + pos_);
  pos_ += 4;
  return v;
}

uint64_t WireReader::U64() {
  if (!Need(8)) return 0;
  uint64_t v = 0;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buf_.data()) + pos_;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  pos_ += 8;
  return v;
}

double WireReader::F64() {
  const uint64_t bits = U64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::Str() {
  const uint32_t len = U32();
  if (!Need(len)) return std::string();
  std::string s = buf_.substr(pos_, len);
  pos_ += len;
  return s;
}

std::vector<double> WireReader::F64Vec() {
  const uint32_t count = U32();
  // Count-vs-remaining check before allocating: 8 bytes per element.
  if (!status_.ok() || buf_.size() - pos_ < static_cast<size_t>(count) * 8) {
    Fail("f64 vector count exceeds payload");
    return {};
  }
  std::vector<double> v;
  v.reserve(count);
  for (uint32_t i = 0; i < count; ++i) v.push_back(F64());
  return v;
}

std::vector<int> WireReader::I32Vec() {
  const uint32_t count = U32();
  if (!status_.ok() || buf_.size() - pos_ < static_cast<size_t>(count) * 4) {
    Fail("i32 vector count exceeds payload");
    return {};
  }
  std::vector<int> v;
  v.reserve(count);
  for (uint32_t i = 0; i < count; ++i) v.push_back(I32());
  return v;
}

std::vector<std::string> WireReader::StrVec() {
  const uint32_t count = U32();
  // Each element costs at least its 4-byte length prefix.
  if (!status_.ok() || buf_.size() - pos_ < static_cast<size_t>(count) * 4) {
    Fail("string vector count exceeds payload");
    return {};
  }
  std::vector<std::string> v;
  v.reserve(count);
  for (uint32_t i = 0; i < count; ++i) v.push_back(Str());
  return v;
}

Status WireReader::Finish() const {
  if (!status_.ok()) return status_;
  if (pos_ != buf_.size()) {
    return Status::InvalidArgument(
        "trailing garbage: consumed " + std::to_string(pos_) + " of " +
        std::to_string(buf_.size()) + " payload bytes");
  }
  return Status::OK();
}

// ------------------------------------------------------------- messages

std::string LoadDatasetRequest::EncodePayload() const {
  WireWriter w;
  w.Str(name);
  w.U8(static_cast<uint8_t>(source));
  w.Str(payload);
  w.Bool(header);
  return w.Take();
}

Status LoadDatasetRequest::DecodePayload(const std::string& bytes) {
  WireReader r(bytes);
  name = r.Str();
  const uint8_t src = r.U8();
  payload = r.Str();
  header = r.Bool();
  ARSP_RETURN_IF_ERROR(r.Finish());
  if (src > static_cast<uint8_t>(LoadSource::kGenerator)) {
    return Status::InvalidArgument("bad LoadSource " + std::to_string(src));
  }
  source = static_cast<LoadSource>(src);
  return Status::OK();
}

std::string LoadDatasetResponse::EncodePayload() const {
  WireWriter w;
  w.Str(name);
  w.I32(num_objects);
  w.I32(num_instances);
  w.I32(dim);
  w.Bool(reused);
  return w.Take();
}

Status LoadDatasetResponse::DecodePayload(const std::string& bytes) {
  WireReader r(bytes);
  name = r.Str();
  num_objects = r.I32();
  num_instances = r.I32();
  dim = r.I32();
  reused = r.Bool();
  return r.Finish();
}

std::string AddViewRequest::EncodePayload() const {
  WireWriter w;
  w.Str(base_name);
  w.Str(view_name);
  w.U8(static_cast<uint8_t>(spec.kind));
  w.I32(spec.prefix);
  w.I32Vec(spec.objects);
  return w.Take();
}

Status AddViewRequest::DecodePayload(const std::string& bytes) {
  WireReader r(bytes);
  base_name = r.Str();
  view_name = r.Str();
  const uint8_t kind = r.U8();
  spec.prefix = r.I32();
  spec.objects = r.I32Vec();
  ARSP_RETURN_IF_ERROR(r.Finish());
  if (kind > static_cast<uint8_t>(ViewSpec::Kind::kSubset)) {
    return Status::InvalidArgument("bad ViewSpec kind " +
                                   std::to_string(kind));
  }
  spec.kind = static_cast<ViewSpec::Kind>(kind);
  return Status::OK();
}

std::string AddViewResponse::EncodePayload() const {
  WireWriter w;
  w.Str(name);
  w.I32(num_objects);
  w.I32(num_instances);
  w.I32(dim);
  return w.Take();
}

Status AddViewResponse::DecodePayload(const std::string& bytes) {
  WireReader r(bytes);
  name = r.Str();
  num_objects = r.I32();
  num_instances = r.I32();
  dim = r.I32();
  return r.Finish();
}

std::string QueryRequestWire::EncodePayload() const {
  WireWriter w;
  w.Str(dataset);
  w.Str(constraint_spec);
  w.Str(solver);
  w.StrVec(options);
  w.U8(static_cast<uint8_t>(derived_kind));
  w.I32(k);
  w.F64(threshold);
  w.I32(max_objects);
  w.Bool(use_cache);
  w.Bool(allow_pushdown);
  w.Bool(include_instances);
  w.I32(parallelism);
  w.U64(trace_id);
  w.Bool(want_trace);
  return w.Take();
}

Status QueryRequestWire::DecodePayload(const std::string& bytes) {
  WireReader r(bytes);
  dataset = r.Str();
  constraint_spec = r.Str();
  solver = r.Str();
  options = r.StrVec();
  const uint8_t kind = r.U8();
  k = r.I32();
  threshold = r.F64();
  max_objects = r.I32();
  use_cache = r.Bool();
  allow_pushdown = r.Bool();
  include_instances = r.Bool();
  parallelism = r.I32();
  trace_id = r.U64();
  want_trace = r.Bool();
  ARSP_RETURN_IF_ERROR(r.Finish());
  if (kind > static_cast<uint8_t>(WireDerivedKind::kCountControlled)) {
    return Status::InvalidArgument("bad derived kind " +
                                   std::to_string(kind));
  }
  derived_kind = static_cast<WireDerivedKind>(kind);
  return Status::OK();
}

WireSolverStats WireSolverStats::From(const SolverStats& stats) {
  WireSolverStats w;
  w.solver = stats.solver;
  w.setup_millis = stats.setup_millis;
  w.solve_millis = stats.solve_millis;
  w.dominance_tests = stats.dominance_tests;
  w.nodes_visited = stats.nodes_visited;
  w.nodes_pruned = stats.nodes_pruned;
  w.index_probes = stats.index_probes;
  w.objects_pruned = stats.objects_pruned;
  w.bound_refinements = stats.bound_refinements;
  w.early_exit_depth = stats.early_exit_depth;
  w.index_bytes_resident = stats.index_bytes_resident;
  w.index_bytes_mapped = stats.index_bytes_mapped;
  w.peak_rss_bytes = stats.peak_rss_bytes;
  w.tasks_spawned = stats.tasks_spawned;
  w.tasks_stolen = stats.tasks_stolen;
  w.parallel_workers = stats.parallel_workers;
  return w;
}

SolverStats WireSolverStats::ToSolverStats() const {
  SolverStats s;
  s.solver = solver;
  s.setup_millis = setup_millis;
  s.solve_millis = solve_millis;
  s.dominance_tests = dominance_tests;
  s.nodes_visited = nodes_visited;
  s.nodes_pruned = nodes_pruned;
  s.index_probes = index_probes;
  s.objects_pruned = objects_pruned;
  s.bound_refinements = bound_refinements;
  s.early_exit_depth = early_exit_depth;
  s.index_bytes_resident = index_bytes_resident;
  s.index_bytes_mapped = index_bytes_mapped;
  s.peak_rss_bytes = peak_rss_bytes;
  s.tasks_spawned = tasks_spawned;
  s.tasks_stolen = tasks_stolen;
  s.parallel_workers = parallel_workers;
  return s;
}

void WireSolverStats::Encode(WireWriter& w) const {
  w.Str(solver);
  w.F64(setup_millis);
  w.F64(solve_millis);
  w.I64(dominance_tests);
  w.I64(nodes_visited);
  w.I64(nodes_pruned);
  w.I64(index_probes);
  w.I64(objects_pruned);
  w.I64(bound_refinements);
  w.I64(early_exit_depth);
  w.I64(index_bytes_resident);
  w.I64(index_bytes_mapped);
  w.I64(peak_rss_bytes);
  w.I64(tasks_spawned);
  w.I64(tasks_stolen);
  w.I64(parallel_workers);
}

void WireSolverStats::Decode(WireReader& r) {
  solver = r.Str();
  setup_millis = r.F64();
  solve_millis = r.F64();
  dominance_tests = r.I64();
  nodes_visited = r.I64();
  nodes_pruned = r.I64();
  index_probes = r.I64();
  objects_pruned = r.I64();
  bound_refinements = r.I64();
  early_exit_depth = r.I64();
  index_bytes_resident = r.I64();
  index_bytes_mapped = r.I64();
  peak_rss_bytes = r.I64();
  tasks_spawned = r.I64();
  tasks_stolen = r.I64();
  parallel_workers = r.I64();
}

std::string QueryResponseWire::EncodePayload() const {
  WireWriter w;
  w.Str(solver);
  w.Bool(cache_hit);
  w.Bool(pushdown);
  w.Bool(complete);
  w.Str(goal);
  w.I32(result_size);
  w.U32(static_cast<uint32_t>(ranked.size()));
  for (const RankedEntry& e : ranked) {
    w.I32(e.object_id);
    w.Str(e.name);
    w.F64(e.prob);
  }
  w.F64(count_threshold);
  stats.Encode(w);
  w.F64Vec(instance_probs);
  w.U64(trace_id);
  w.Str(trace_spans);
  return w.Take();
}

Status QueryResponseWire::DecodePayload(const std::string& bytes) {
  WireReader r(bytes);
  solver = r.Str();
  cache_hit = r.Bool();
  pushdown = r.Bool();
  complete = r.Bool();
  goal = r.Str();
  result_size = r.I32();
  const uint32_t count = r.U32();
  // Each ranked entry costs at least 16 bytes (i32 + empty string + f64).
  if (r.status().ok() && count <= bytes.size() / 16 + 1) {
    ranked.clear();
    ranked.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      RankedEntry e;
      e.object_id = r.I32();
      e.name = r.Str();
      e.prob = r.F64();
      ranked.push_back(std::move(e));
    }
  } else if (r.status().ok()) {
    return Status::InvalidArgument("ranked entry count exceeds payload");
  }
  count_threshold = r.F64();
  stats.Decode(r);
  instance_probs = r.F64Vec();
  trace_id = r.U64();
  trace_spans = r.Str();
  return r.Finish();
}

std::string RetryLaterResponse::EncodePayload() const {
  WireWriter w;
  w.U32(retry_after_ms);
  w.Str(reason);
  return w.Take();
}

Status RetryLaterResponse::DecodePayload(const std::string& bytes) {
  WireReader r(bytes);
  retry_after_ms = r.U32();
  reason = r.Str();
  return r.Finish();
}

std::string StatsRequest::EncodePayload() const {
  WireWriter w;
  w.Str(dataset);
  return w.Take();
}

Status StatsRequest::DecodePayload(const std::string& bytes) {
  WireReader r(bytes);
  dataset = r.Str();
  return r.Finish();
}

std::string StatsResponse::EncodePayload() const {
  WireWriter w;
  w.I64(cache_hits);
  w.I64(cache_misses);
  w.U64(cache_entries);
  w.U64(pooled_contexts);
  w.I64(latency_count);
  w.I64(latency_window);
  w.F64(latency_min_ms);
  w.F64(latency_mean_ms);
  w.F64(latency_p50_ms);
  w.F64(latency_p95_ms);
  w.U32(static_cast<uint32_t>(datasets.size()));
  for (const DatasetInfo& d : datasets) {
    w.Str(d.name);
    w.I32(d.num_objects);
    w.I32(d.num_instances);
    w.I32(d.dim);
    w.Bool(d.is_view);
  }
  w.Bool(has_index_stats);
  w.I64(kdtree_builds);
  w.I64(rtree_builds);
  w.I64(score_maps);
  w.I64(score_reuses);
  w.I64(parent_index_hits);
  w.Str(kernel_arch);
  w.I64(index_bytes_resident);
  w.I64(index_bytes_mapped);
  w.I64(peak_rss_bytes);
  w.I64(query_threads);
  w.F64(latency_p99_ms);
  w.F64(latency_p999_ms);
  return w.Take();
}

Status StatsResponse::DecodePayload(const std::string& bytes) {
  WireReader r(bytes);
  cache_hits = r.I64();
  cache_misses = r.I64();
  cache_entries = r.U64();
  pooled_contexts = r.U64();
  latency_count = r.I64();
  latency_window = r.I64();
  latency_min_ms = r.F64();
  latency_mean_ms = r.F64();
  latency_p50_ms = r.F64();
  latency_p95_ms = r.F64();
  const uint32_t count = r.U32();
  // Each dataset entry costs at least 17 bytes.
  if (r.status().ok() && count <= bytes.size() / 17 + 1) {
    datasets.clear();
    datasets.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      DatasetInfo d;
      d.name = r.Str();
      d.num_objects = r.I32();
      d.num_instances = r.I32();
      d.dim = r.I32();
      d.is_view = r.Bool();
      datasets.push_back(std::move(d));
    }
  } else if (r.status().ok()) {
    return Status::InvalidArgument("dataset entry count exceeds payload");
  }
  has_index_stats = r.Bool();
  kdtree_builds = r.I64();
  rtree_builds = r.I64();
  score_maps = r.I64();
  score_reuses = r.I64();
  parent_index_hits = r.I64();
  kernel_arch = r.Str();
  index_bytes_resident = r.I64();
  index_bytes_mapped = r.I64();
  peak_rss_bytes = r.I64();
  query_threads = r.I64();
  latency_p99_ms = r.F64();
  latency_p999_ms = r.F64();
  return r.Finish();
}

std::string DropRequest::EncodePayload() const {
  WireWriter w;
  w.Str(name);
  return w.Take();
}

Status DropRequest::DecodePayload(const std::string& bytes) {
  WireReader r(bytes);
  name = r.Str();
  return r.Finish();
}

std::string MetricsResponse::EncodePayload() const {
  WireWriter w;
  w.Str(text);
  return w.Take();
}

Status MetricsResponse::DecodePayload(const std::string& bytes) {
  WireReader r(bytes);
  text = r.Str();
  return r.Finish();
}

std::string TraceResponse::EncodePayload() const {
  WireWriter w;
  w.U64(trace_id);
  w.Str(spans);
  return w.Take();
}

Status TraceResponse::DecodePayload(const std::string& bytes) {
  WireReader r(bytes);
  trace_id = r.U64();
  spans = r.Str();
  return r.Finish();
}

ErrorResponse ErrorResponse::From(const Status& status) {
  ErrorResponse e;
  e.code = status.code();
  e.message = status.message();
  return e;
}

Status ErrorResponse::ToStatus() const {
  switch (code) {
    case StatusCode::kOk:
      return Status::Internal("error response carried OK code: " + message);
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case StatusCode::kNotFound:
      return Status::NotFound(message);
    case StatusCode::kInternal:
      return Status::Internal(message);
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(message);
    case StatusCode::kUnavailable:
      return Status::Unavailable(message);
  }
  return Status::Internal(message);
}

std::string ErrorResponse::EncodePayload() const {
  WireWriter w;
  w.U8(static_cast<uint8_t>(code));
  w.Str(message);
  return w.Take();
}

Status ErrorResponse::DecodePayload(const std::string& bytes) {
  WireReader r(bytes);
  const uint8_t c = r.U8();
  message = r.Str();
  ARSP_RETURN_IF_ERROR(r.Finish());
  if (c > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::InvalidArgument("bad status code " + std::to_string(c));
  }
  code = static_cast<StatusCode>(c);
  return Status::OK();
}

// ----------------------------------------------------------------- framing

Status SendFrame(int fd, MessageType type, const std::string& payload) {
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxPayloadBytes) +
        "-byte max-frame guard");
  }
  std::string header;
  header.reserve(8);
  PutU32(header, static_cast<uint32_t>(payload.size()));
  PutU16(header, kWireMagic);
  header.push_back(static_cast<char>(kWireVersion));
  header.push_back(static_cast<char>(type));
  ARSP_RETURN_IF_ERROR(WriteAll(fd, header.data(), header.size()));
  return WriteAll(fd, payload.data(), payload.size());
}

StatusOr<Frame> RecvFrame(int fd) {
  char header[8];
  size_t got = 0;
  const Status hs = ReadAll(fd, header, sizeof(header), &got);
  if (!hs.ok()) {
    // EOF exactly on a frame boundary is the clean end of a connection;
    // EOF mid-header is a truncated frame.
    if (hs.code() == StatusCode::kNotFound && got > 0) {
      return Status::InvalidArgument("truncated frame header");
    }
    return hs;
  }
  const unsigned char* h = reinterpret_cast<const unsigned char*>(header);
  const uint32_t length = GetU32(h);
  const uint16_t magic = GetU16(h + 4);
  const uint8_t version = h[6];
  const uint8_t type = h[7];
  if (magic != kWireMagic) {
    return Status::InvalidArgument("bad frame magic (not an arspd peer?)");
  }
  if (version != kWireVersion) {
    return Status::InvalidArgument(
        "peer speaks protocol version " + std::to_string(version) +
        ", this build speaks " + std::to_string(kWireVersion));
  }
  if (length > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        "frame of " + std::to_string(length) + " bytes exceeds the " +
        std::to_string(kMaxPayloadBytes) + "-byte max-frame guard");
  }
  Frame frame;
  frame.type = static_cast<MessageType>(type);
  frame.payload.resize(length);
  if (length > 0) {
    const Status ps = ReadAll(fd, frame.payload.data(), length, &got);
    if (!ps.ok()) {
      if (ps.code() == StatusCode::kNotFound) {
        return Status::InvalidArgument("truncated frame payload");
      }
      return ps;
    }
  }
  return frame;
}

}  // namespace net
}  // namespace arsp
