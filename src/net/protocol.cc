// Copyright 2026 The ARSP Authors.

#include "src/net/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <concepts>
#include <cstring>
#include <type_traits>

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
    case MessageType::kOk: return "OK";
    case MessageType::kError: return "ERROR";
    case MessageType::kLoadResult: return "LOAD_RESULT";
    case MessageType::kViewResult: return "VIEW_RESULT";
    case MessageType::kQueryResult: return "QUERY_RESULT";
    case MessageType::kStatsResult: return "STATS_RESULT";
    case MessageType::kRetryLater: return "RETRY_LATER";
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
//
// Each message's layout is written once, as Fields(codec, message): the
// fields in wire order. Encoder walks that list over a WireWriter and
// Decoder walks it over a WireReader, so the two sides cannot disagree.
// Every decode guard sits on the decode side of the walk: WireReader's
// sticky truncation error and exact-length Finish, and Decoder::Get's
// vector-count, enum-range and span count and depth checks. Field types
// map to the wire as bool → u8, enum → u8, 4- and 8-byte integers → u32
// and u64, double → f64, string → u32 length + bytes, vector → u32 count
// + elements; any other field is a struct with a field list of its own.

namespace {

template <class M, class T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

void Fields(auto& c, Is<LoadDatasetRequest> auto& m) {
  c(m.name, m.source, m.payload, m.header);
}

void Fields(auto& c, Is<LoadDatasetResponse> auto& m) {
  c(m.name, m.num_objects, m.num_instances, m.dim, m.reused);
}

void Fields(auto& c, Is<AddViewRequest> auto& m) {
  c(m.base_name, m.view_name, m.num_objects);
}

void Fields(auto& c, Is<AddViewResponse> auto& m) {
  c(m.name, m.num_objects, m.num_instances, m.dim);
}

void Fields(auto& c, Is<QueryRequestWire> auto& m) {
  c(m.dataset, m.constraint_spec, m.solver, m.options, m.derived_kind, m.k,
    m.threshold, m.max_objects, m.use_cache, m.allow_pushdown,
    m.include_instances, m.parallelism, m.trace_id, m.want_trace);
}

void Fields(auto& c, Is<SolverStats> auto& m) {
  c(m.solver, m.setup_millis, m.solve_millis, m.dominance_tests,
    m.nodes_visited, m.nodes_pruned, m.index_probes, m.objects_pruned,
    m.bound_refinements, m.early_exit_depth, m.index_bytes_resident,
    m.index_bytes_mapped, m.peak_rss_bytes, m.tasks_spawned, m.tasks_stolen,
    m.parallel_workers);
}

void Fields(auto& c, Is<RankedEntry> auto& m) {
  c(m.object_id, m.name, m.prob);
}

void Fields(auto& c, Is<std::pair<std::string, std::string>> auto& m) {
  c(m.first, m.second);
}

void Fields(auto& c, Is<obs::Span> auto& m) {
  c(m.name, m.start_ns, m.end_ns, m.annotations, m.children);
}

void Fields(auto& c, Is<QueryResponseWire> auto& m) {
  c(m.solver, m.cache_hit, m.pushdown, m.complete, m.goal, m.result_size,
    m.ranked, m.count_threshold, m.stats, m.instance_probs, m.trace_id,
    m.trace_spans);
}

void Fields(auto& c, Is<RetryLaterResponse> auto& m) {
  c(m.retry_after_ms, m.reason);
}

void Fields(auto& c, Is<StatsRequest> auto& m) { c(m.dataset); }

void Fields(auto& c, Is<DatasetInfo> auto& m) {
  c(m.name, m.num_objects, m.num_instances, m.dim, m.is_view);
}

void Fields(auto& c, Is<ExecutionContext::IndexBuildStats> auto& m) {
  c(m.kdtree_builds, m.rtree_builds, m.score_maps, m.snapshot_hits);
}

void Fields(auto& c, Is<ColumnBytes> auto& m) { c(m.resident, m.mapped); }

void Fields(auto& c, Is<StatsResponse> auto& m) {
  c(m.cache_hits, m.cache_misses, m.cache_entries, m.pooled_contexts,
    m.latency_count, m.latency_mean_ms, m.latency_p50_ms, m.latency_p95_ms,
    m.latency_p99_ms, m.latency_p999_ms, m.datasets, m.has_index_stats,
    m.index_work, m.index_memory, m.kernel_arch, m.peak_rss_bytes);
}

void Fields(auto& c, Is<DropRequest> auto& m) { c(m.name); }

void Fields(auto& c, Is<ErrorResponse> auto& m) { c(m.code, m.message); }

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <class T>
inline constexpr bool kIs4ByteInt = std::is_integral_v<T> && sizeof(T) == 4;
template <class T>
inline constexpr bool kIs8ByteInt = std::is_integral_v<T> && sizeof(T) == 8;

class Encoder {
 public:
  template <class... T>
  void operator()(const T&... fields) {
    (Put(fields), ...);
  }

  std::string Take() { return w_.Take(); }

 private:
  template <class T>
  void Put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      w_.Bool(v);
    } else if constexpr (std::is_enum_v<T>) {
      w_.U8(static_cast<uint8_t>(v));
    } else if constexpr (kIs4ByteInt<T>) {
      w_.U32(static_cast<uint32_t>(v));
    } else if constexpr (kIs8ByteInt<T>) {
      w_.U64(static_cast<uint64_t>(v));
    } else if constexpr (std::is_same_v<T, double>) {
      w_.F64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.Str(v);
    } else if constexpr (kIsVector<T>) {
      w_.U32(static_cast<uint32_t>(v.size()));
      for (const auto& element : v) Put(element);
    } else {
      Fields(*this, v);
    }
  }

  WireWriter w_;
};

// The fewest bytes one T can encode to: a default T's, since the only
// variable-length parts (strings, vectors) start empty — 8 per f64, 4 per
// string, 16 per ranked entry, 17 per dataset listing, 28 per span.
template <class T>
size_t MinEncodedBytes() {
  static const size_t bytes = [] {
    Encoder encoder;
    encoder(T{});
    return encoder.Take().size();
  }();
  return bytes;
}

// The last valid value and the error name of each enum on the wire.
struct EnumRange {
  int last;
  const char* name;
};
EnumRange RangeOf(LoadSource) {
  return {static_cast<int>(LoadSource::kGenerator), "LoadSource"};
}
EnumRange RangeOf(DerivedKind) {
  return {static_cast<int>(DerivedKind::kCountControlled), "derived kind"};
}
EnumRange RangeOf(StatusCode) {
  return {static_cast<int>(StatusCode::kUnavailable), "status code"};
}

class Decoder {
 public:
  explicit Decoder(const std::string& bytes) : r_(bytes) {}

  template <class... T>
  void operator()(T&... fields) {
    (Get(fields), ...);
  }

  Status Finish() const { return r_.Finish(); }

 private:
  template <class T>
  void Get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = r_.Bool();
    } else if constexpr (std::is_enum_v<T>) {
      const uint8_t raw = r_.U8();
      const EnumRange range = RangeOf(T{});
      if (raw > range.last) {
        r_.Fail(std::string("bad ") + range.name + " " +
                std::to_string(raw));
      } else {
        v = static_cast<T>(raw);
      }
    } else if constexpr (kIs4ByteInt<T>) {
      v = static_cast<T>(r_.U32());
    } else if constexpr (kIs8ByteInt<T>) {
      v = static_cast<T>(r_.U64());
    } else if constexpr (std::is_same_v<T, double>) {
      v = r_.F64();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = r_.Str();
    } else if constexpr (kIsVector<T>) {
      using Element = typename T::value_type;
      const uint32_t count = r_.U32();
      // Count-versus-remaining check before allocating, so a forged count
      // cannot OOM the daemon.
      if (static_cast<uint64_t>(count) * MinEncodedBytes<Element>() >
          r_.remaining()) {
        r_.Fail("vector count " + std::to_string(count) +
                " exceeds payload");
        return;
      }
      // Spans count toward the reply's cap when a list announces them, so
      // the cap bounds the reservation below as well.
      if constexpr (std::is_same_v<Element, obs::Span>) {
        spans_ += count;
        if (spans_ > kMaxTraceSpans) {
          r_.Fail("more than " + std::to_string(kMaxTraceSpans) +
                  " trace spans");
          return;
        }
      }
      // Annotations likewise, against their own cap.
      if constexpr (std::is_same_v<Element,
                                   std::pair<std::string, std::string>>) {
        annotations_ += count;
        if (annotations_ > kMaxTraceAnnotations) {
          r_.Fail("more than " + std::to_string(kMaxTraceAnnotations) +
                  " trace annotations");
          return;
        }
      }
      // A query's solver options are the only string list, and each costs
      // 32 bytes decoded for its 4 on the wire.
      if constexpr (std::is_same_v<Element, std::string>) {
        if (count > kMaxQueryOptions) {
          r_.Fail("more than " + std::to_string(kMaxQueryOptions) +
                  " solver options");
          return;
        }
      }
      v.clear();
      v.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        Element element{};
        Get(element);
        v.push_back(std::move(element));
      }
    } else if constexpr (std::is_same_v<T, obs::Span>) {
      // A span's children recurse through this walk, so a hostile reply
      // could nest them deep enough to overflow the stack.
      if (depth_ == kMaxTraceDepth) {
        r_.Fail("trace spans nested deeper than " +
                std::to_string(kMaxTraceDepth));
        return;
      }
      ++depth_;
      Fields(*this, v);
      --depth_;
    } else {
      Fields(*this, v);
    }
  }

  WireReader r_;
  size_t spans_ = 0;        // spans announced so far
  size_t annotations_ = 0;  // span annotations announced so far
  int depth_ = 0;     // spans open on the walk's stack
};

template <class M>
std::string EncodeFields(const M& message) {
  Encoder encoder;
  Fields(encoder, message);
  return encoder.Take();
}

template <class M>
Status DecodeFields(const std::string& bytes, M& message) {
  Decoder decoder(bytes);
  Fields(decoder, message);
  return decoder.Finish();
}

}  // namespace

#define ARSP_WIRE_CODEC(Message)                              \
  std::string Message::EncodePayload() const {                \
    return EncodeFields(*this);                               \
  }                                                           \
  Status Message::DecodePayload(const std::string& bytes) {   \
    return DecodeFields(bytes, *this);                        \
  }

ARSP_WIRE_CODEC(LoadDatasetRequest)
ARSP_WIRE_CODEC(LoadDatasetResponse)
ARSP_WIRE_CODEC(AddViewRequest)
ARSP_WIRE_CODEC(AddViewResponse)
ARSP_WIRE_CODEC(QueryRequestWire)
ARSP_WIRE_CODEC(QueryResponseWire)
ARSP_WIRE_CODEC(RetryLaterResponse)
ARSP_WIRE_CODEC(StatsRequest)
ARSP_WIRE_CODEC(StatsResponse)
ARSP_WIRE_CODEC(DropRequest)
ARSP_WIRE_CODEC(ErrorResponse)

#undef ARSP_WIRE_CODEC

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
