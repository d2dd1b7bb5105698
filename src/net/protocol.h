// Copyright 2026 The ARSP Authors.
//
// The arspd wire protocol: length-prefixed, versioned frames carrying typed
// request/response messages between a thin client (arsp_cli --connect, or
// any ArspClient user) and the long-lived daemon holding one ArspEngine.
//
// Frame layout (all integers little-endian, independent of host order):
//
//   +-------------+-------------+-----------+----------+-----------------+
//   | u32 length  | u16 magic   | u8 version| u8 type  | payload bytes   |
//   +-------------+-------------+-----------+----------+-----------------+
//   length = number of payload bytes (magic/version/type excluded)
//   magic  = kWireMagic, rejects non-arspd peers and stream desync
//   version= kWireVersion; both sides reject any other version
//   type   = MessageType
//
// Payloads are flat sequences of primitives encoded by WireWriter and
// decoded by WireReader: u8/u32/u64/i32/f64, strings as u32 length + bytes,
// vectors as u32 count + elements, enums as one u8. WireReader is
// bounds-checked with a sticky error, so a truncated or hostile payload can
// never read out of range — decoding either succeeds completely or returns
// InvalidArgument. Frames larger than kMaxPayloadBytes are rejected before
// any allocation (the max-frame guard: a garbage length prefix must not OOM
// the daemon), a reply's span tree is bounded in size, annotations and
// depth (kMaxTraceSpans, kMaxTraceAnnotations, kMaxTraceDepth: a hostile
// tree must not overflow the decoding thread's stack), and a query's
// solver options are bounded in number (kMaxQueryOptions).
//
// Every message is a plain struct with EncodePayload()/DecodePayload(), so
// the protocol is testable without sockets (tests/protocol_test.cc) and the
// server/client share one serialization path. Each message's layout is
// written once, as a field list in protocol.cc that encoding and decoding
// both walk. SendFrame/RecvFrame are the blocking fd-level framing helpers
// both sides use.

#ifndef ARSP_NET_PROTOCOL_H_
#define ARSP_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/column.h"
#include "src/common/status.h"
#include "src/core/engine.h"
#include "src/core/solver.h"
#include "src/obs/trace.h"
#include "src/uncertain/dataset_view.h"

namespace arsp {
namespace net {

/// Frame magic ("AR" little-endian-ish constant); rejects stream desync and
/// non-arspd peers at the first frame.
inline constexpr uint16_t kWireMagic = 0xA75F;

/// Protocol version; bumped on any incompatible message change. Both sides
/// reject frames carrying any other version: decoders know one layout, so
/// an older frame would otherwise fail as truncation or trailing garbage.
/// v2: StatsResponse grew kernel_arch (the daemon's simd dispatch arch).
/// v3 (cluster): QueryRequestWire grew an evaluation scope, QueryResponseWire
///     grew per-object reports + a shipped-instance offset (shard partial
///     results), and RETRY_LATER became a typed overload reply.
/// v4 (out-of-core): the reply's SolverStats grew the data-plane memory
///     fields (index_bytes_resident / index_bytes_mapped / peak_rss_bytes),
///     and StatsResponse grew the same per-dataset index footprint plus the
///     daemon's process peak RSS — so a client can see whether a dataset is
///     served from heap-built indexes or a mapped snapshot.
/// v5 (intra-query parallelism): QueryRequestWire grew `parallelism` (the
///     per-query worker request), the reply's SolverStats grew the
///     executor counters (tasks_spawned / tasks_stolen / parallel_workers),
///     and StatsResponse grew the daemon's intra-query worker policy.
/// v6 (observability): QueryRequestWire grew `trace_id` + `want_trace`
///     (distributed tracing: the coordinator stamps its trace id into
///     scattered frames), QueryResponseWire grew `trace_id` + `trace_spans`
///     (the server-side span subtree, then a byte string in a span format
///     of its own),
///     StatsResponse grew the tail latency percentiles (p99 / p99.9), and
///     the METRICS / TRACE message pair was added (Prometheus text dump and
///     most-recent-trace fetch).
/// v7 (routing): the coordinator forwards each query whole to one holder,
///     so QueryRequestWire lost the evaluation scope and QueryResponseWire
///     lost the per-object reports and the instance offset.
/// v8 (one latency record): STATS latency comes from the server's
///     arsp_query_latency_ms histogram, so StatsResponse lost
///     latency_window and latency_min_ms, and its latency fields are
///     encoded as one block.
/// v9 (one field list): the METRICS / TRACE pair was deleted (HTTP
///     /metrics serves the same text; type numbers 8, 9, 135 and 136 stay
///     unassigned), and StatsResponse lost the intra-query worker policy,
///     whose only value in use was the default.
/// v10 (one codec): QueryResponseWire's `trace_spans` is a list of
///     obs::Span fields instead of a byte string (an untraced reply keeps
///     its bytes: an empty list encodes like an empty string), and
///     StatsResponse carries the index counters and memory as the engine's
///     own IndexBuildStats (snapshot_hits included) and ColumnBytes.
inline constexpr uint8_t kWireVersion = 10;

/// Max payload bytes a peer will accept (the max-frame guard). Large enough
/// for a multi-million-instance probability vector, small enough that a
/// corrupt length prefix cannot OOM the process.
inline constexpr uint32_t kMaxPayloadBytes = 256u * 1024u * 1024u;

/// Span guards of a decoded reply: at most kMaxTraceSpans spans in all, and
/// no span nested deeper than kMaxTraceDepth (the roots are at depth 1).
/// A real tree has a handful of spans and is at most 5 deep (coordinator →
/// forward → engine query → solve → index setup); the depth bound keeps the
/// recursive decoder off the end of its thread's stack.
inline constexpr size_t kMaxTraceSpans = size_t{1} << 16;
inline constexpr int kMaxTraceDepth = 64;

/// Span annotations a decoded reply may carry, over all its spans. A traced
/// coordinator reply carries fewer than 100. The cap matters because a
/// decoded annotation (two std::strings) takes 64 bytes against its 8 on
/// the wire: without it, 32 MiB of empty annotations decode to 256 MiB. At
/// the cap the annotations themselves take 4 MiB.
inline constexpr size_t kMaxTraceAnnotations = size_t{1} << 16;

/// Solver options a decoded QUERY may carry. QueryRequestWire::options is
/// the only string list on the wire, and no solver accepts more than three
/// keys. The cap matters because a decoded std::string takes 32 bytes
/// against its 4-byte length prefix: without it, one frame at the max-frame
/// guard could ask for about 2 GiB.
inline constexpr size_t kMaxQueryOptions = 64;

/// Wire message types. Requests and responses share one numbering space;
/// responses start at 128.
enum class MessageType : uint8_t {
  // Client → server.
  kPing = 1,          ///< liveness probe; empty payload
  kLoadDataset = 2,   ///< LoadDatasetRequest
  kAddView = 3,       ///< AddViewRequest
  kQuery = 4,         ///< QueryRequestWire
  kStats = 5,         ///< StatsRequest
  kDrop = 6,          ///< DropRequest
  kShutdown = 7,      ///< drain and stop the daemon; empty payload
  // Server → client.
  kOk = 128,          ///< generic success (ping, drop, shutdown)
  kError = 129,       ///< ErrorResponse
  kLoadResult = 130,  ///< LoadDatasetResponse
  kViewResult = 131,  ///< AddViewResponse
  kQueryResult = 132, ///< QueryResponseWire
  kStatsResult = 133, ///< StatsResponse
  /// Typed overload reply (RetryLaterResponse): the admission controller
  /// rejected the request; retry after the suggested delay. Distinct from
  /// kError so well-behaved clients can back off without parsing text.
  /// Since wire v3.
  kRetryLater = 134,
};

/// Human-readable message-type name for logs and errors.
const char* MessageTypeName(MessageType type);

// ---------------------------------------------------------------- encoding

/// Appends little-endian primitives to a growing byte buffer.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  /// IEEE-754 bit pattern, little-endian.
  void F64(double v);
  /// u32 byte length + raw bytes.
  void Str(const std::string& s);

  const std::string& bytes() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian reader with a sticky error: after any
/// failed read, every subsequent read returns zero values and status() is
/// non-OK. Decoders therefore read unconditionally and check once at the
/// end. String reads validate the length against the bytes actually
/// remaining before allocating, and the message decoder does the same for
/// vector counts, so a hostile length cannot OOM.
class WireReader {
 public:
  explicit WireReader(const std::string& bytes) : buf_(bytes) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  bool Bool() { return U8() != 0; }
  double F64();
  std::string Str();

  /// Payload bytes not yet read.
  size_t remaining() const { return buf_.size() - pos_; }
  /// Records `what` (plus the offset) as the sticky error, unless an
  /// earlier read already failed.
  void Fail(const std::string& what);
  /// OK iff every read so far stayed in bounds.
  const Status& status() const { return status_; }
  /// InvalidArgument unless the payload was consumed exactly and fully —
  /// the per-message decode postcondition.
  Status Finish() const;

 private:
  bool Need(size_t n);

  const std::string& buf_;
  size_t pos_ = 0;
  Status status_;
};

// ---------------------------------------------------------------- messages

/// How a LOAD_DATASET payload names its data.
enum class LoadSource : uint8_t {
  kCsvText = 0,   ///< `payload` is CSV text shipped inline
  kCsvFile = 1,   ///< `payload` is a path readable by the *server*
  kGenerator = 2, ///< `payload` is a GenerateFromSpec spec ("iip:n=...")
};

/// Registers a dataset under a name. Loading an already-registered name is
/// idempotent when the content fingerprint matches (the existing handle is
/// returned, `reused` set); a mismatch is an error — names are immutable
/// bindings, exactly like engine handles.
struct LoadDatasetRequest {
  std::string name;
  LoadSource source = LoadSource::kCsvText;
  std::string payload;
  bool header = false;  ///< CSV sources: skip the first data line

  std::string EncodePayload() const;
  Status DecodePayload(const std::string& bytes);
};

struct LoadDatasetResponse {
  std::string name;
  int32_t num_objects = 0;
  int32_t num_instances = 0;
  int32_t dim = 0;
  bool reused = false;  ///< an identical registration already existed

  std::string EncodePayload() const;
  Status DecodePayload(const std::string& bytes);
};

/// Registers a named view over a named base dataset (first-class handle:
/// queryable, droppable, with its own stats).
struct AddViewRequest {
  std::string base_name;
  std::string view_name;
  ViewSpec spec;

  std::string EncodePayload() const;
  Status DecodePayload(const std::string& bytes);
};

struct AddViewResponse {
  std::string name;
  int32_t num_objects = 0;
  int32_t num_instances = 0;
  int32_t dim = 0;

  std::string EncodePayload() const;
  Status DecodePayload(const std::string& bytes);
};

/// One query against a named dataset or view — the wire form of the
/// engine's QueryRequest: constraint spec + solver + goal + options.
struct QueryRequestWire {
  std::string dataset;          ///< registered dataset or view name
  std::string constraint_spec;  ///< ParseConstraintSpec syntax
  std::string solver = "auto";
  std::vector<std::string> options;  ///< raw "key=value" pairs (CLI --opt)
  DerivedKind derived_kind = DerivedKind::kNone;
  int32_t k = 10;
  double threshold = 0.5;
  int32_t max_objects = 10;
  bool use_cache = true;
  bool allow_pushdown = true;
  /// Ship the full instance-probability vector back (complete results
  /// only); off by default — it is O(n) bytes.
  bool include_instances = false;
  /// Intra-query worker request (QueryRequest::parallelism): 0 = server
  /// policy, 1 = force serial, N >= 2 = request N workers. Results are
  /// bit-identical to serial either way. Since wire v5.
  int32_t parallelism = 0;
  /// Distributed tracing (since wire v6). `want_trace` asks the server to
  /// trace this request and return its span subtree in the reply;
  /// `trace_id` propagates the caller's trace id (0 = mint one server-side
  /// when want_trace is set). The coordinator stamps its own id into the
  /// frame it forwards, so one id correlates the whole cross-process
  /// timeline. Tracing never changes results (bit-identity contract).
  uint64_t trace_id = 0;
  bool want_trace = false;

  std::string EncodePayload() const;
  Status DecodePayload(const std::string& bytes);
};

// The engine's own types travel on the wire: DerivedKind in a QUERY,
// SolverStats in its reply. Their former wire names stay as aliases
// because perfbench/ still uses them.
using WireSolverStats = SolverStats;
using WireDerivedKind = DerivedKind;

/// One ranked answer entry: base object id, the server-side object name
/// (CSV key or generator name; empty when unnamed), and Pr_rsky.
struct RankedEntry {
  int32_t object_id = 0;
  std::string name;
  double prob = 0.0;
};

struct QueryResponseWire {
  std::string solver;       ///< resolved concrete solver
  bool cache_hit = false;
  bool pushdown = false;
  bool complete = true;     ///< result->is_complete()
  std::string goal;         ///< QueryGoal::ToString() of the served goal
  /// CountNonZero for complete results; -1 for goal-pruned partials (no
  /// full vector exists to count).
  int32_t result_size = -1;
  std::vector<RankedEntry> ranked;
  double count_threshold = 0.0;
  SolverStats stats;
  /// Per-instance probabilities: the full vector when the request asked
  /// for include_instances and the result is complete, else empty.
  std::vector<double> instance_probs;
  /// Distributed tracing (since wire v6): the trace id this reply belongs
  /// to (0 = untraced) and the server-side span tree (one root; empty =
  /// untraced). A coordinator stitches the chosen shard's tree under its
  /// own forward span.
  uint64_t trace_id = 0;
  std::vector<obs::Span> trace_spans;

  std::string EncodePayload() const;
  Status DecodePayload(const std::string& bytes);
};

/// Typed overload reply (kRetryLater): the server refused admission.
/// Since wire v3.
struct RetryLaterResponse {
  uint32_t retry_after_ms = 0;  ///< suggested backoff; 0 = "soon"
  std::string reason;           ///< which budget rejected (quota, pending)

  std::string EncodePayload() const;
  Status DecodePayload(const std::string& bytes);
};

struct StatsRequest {
  /// Empty = engine-level stats only; a registered name additionally fills
  /// the index-work counters for that dataset (bases aggregate their views).
  std::string dataset;

  std::string EncodePayload() const;
  Status DecodePayload(const std::string& bytes);
};

/// One registered dataset/view in a STATS listing.
struct DatasetInfo {
  std::string name;
  int32_t num_objects = 0;
  int32_t num_instances = 0;
  int32_t dim = 0;
  bool is_view = false;
};

struct StatsResponse {
  // Engine result cache.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  uint64_t cache_entries = 0;
  /// ExecutionContexts pooled right now, a live gauge: mostly those of
  /// cache-off requests and view bases, since a cacheable miss releases
  /// its context once its result is cached.
  uint64_t pooled_contexts = 0;
  /// The answering server's arsp_query_latency_ms histogram (ArspServer
  /// fills these for every backend, a coordinator's own hop included):
  /// answered QUERYs since the process started, their mean wall time, and
  /// quantiles interpolated inside quarter-octave buckets
  /// (obs::Histogram::Quantile), each within 19% of the ranked sample from
  /// 3.9 µs to 8.2 s.
  int64_t latency_count = 0;
  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_p999_ms = 0.0;
  std::vector<DatasetInfo> datasets;
  /// True iff a name was given and known; the two fields below then cover
  /// the requested dataset plus every view registered over it. A
  /// coordinator sums them over the holders.
  bool has_index_stats = false;
  /// Index work counted since each was loaded, whether or not the
  /// contexts that did it are still pooled (ArspEngine::index_stats). The
  /// counts never decrease while the views stay registered.
  ExecutionContext::IndexBuildStats index_work;
  /// Index/score memory of their pooled contexts right now, heap-resident
  /// vs snapshot-mapped (ArspEngine::index_memory): a live gauge like
  /// pooled_contexts, not a total like index_work. Since wire v4.
  ColumnBytes index_memory;
  /// The daemon's active simd kernel dispatch arch (simd::ActiveArchName:
  /// "scalar" or "avx2") — the server process's, which may differ from
  /// the client's. Since wire v2.
  std::string kernel_arch;
  /// The answering process's peak RSS (always filled; 0 when the platform
  /// cannot report it). Since wire v4.
  int64_t peak_rss_bytes = 0;

  std::string EncodePayload() const;
  Status DecodePayload(const std::string& bytes);
};

struct DropRequest {
  std::string name;

  std::string EncodePayload() const;
  Status DecodePayload(const std::string& bytes);
};

/// Error reply: the server-side Status, code and message, so the client can
/// reconstruct an equivalent Status.
struct ErrorResponse {
  StatusCode code = StatusCode::kInternal;
  std::string message;

  static ErrorResponse From(const Status& status);
  Status ToStatus() const;
  std::string EncodePayload() const;
  Status DecodePayload(const std::string& bytes);
};

// ----------------------------------------------------------------- framing

/// A received frame: type + raw payload (decode with the matching message).
struct Frame {
  MessageType type = MessageType::kError;
  std::string payload;
};

/// Writes one complete frame to a blocking socket/pipe fd, looping over
/// short writes. InvalidArgument if the payload exceeds kMaxPayloadBytes;
/// Internal on write errors (EPIPE included — callers treat any error as a
/// dead connection).
Status SendFrame(int fd, MessageType type, const std::string& payload);

/// Reads one complete frame from a blocking fd. Validates magic, version,
/// and the max-frame guard before allocating the payload. A clean EOF
/// before any header byte returns NotFound("connection closed") — the
/// normal end of a connection; every other failure is InvalidArgument
/// (protocol violation) or Internal (I/O error).
StatusOr<Frame> RecvFrame(int fd);

}  // namespace net
}  // namespace arsp

#endif  // ARSP_NET_PROTOCOL_H_
