#ifndef SEQ_NET_WIRE_H_
#define SEQ_NET_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "storage/access_stats.h"
#include "types/record.h"
#include "types/schema.h"
#include "types/span.h"
#include "types/value.h"

namespace seq {

// ---------------------------------------------------------------------------
// The seqserved wire protocol (docs/server.md).
//
// Every frame is a 4-byte little-endian payload length followed by the
// payload: u64 request id, u8 opcode, opcode-specific body. Request ids
// are chosen by the client and echoed on every reply; each request is
// terminated by exactly one DONE frame (row-batch / schema / text frames
// may precede it). All integers are little-endian; strings are u32 length
// + bytes. The protocol version is exchanged in HELLO and must match
// exactly — there is no cross-version negotiation.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kWireProtocolVersion = 1;

/// Upper bound on a declared payload length. A length above this is a
/// protocol error and closes the connection — it is far more likely a
/// desynchronized or malicious stream than a real frame, and accepting it
/// would let one client commit the server to an arbitrary allocation.
inline constexpr uint32_t kMaxFrameBytes = 16u * 1024 * 1024;

/// Row-batch flush thresholds for streaming result delivery.
inline constexpr size_t kRowBatchRows = 256;
inline constexpr size_t kRowBatchBytes = 64 * 1024;

enum class Opcode : uint8_t {
  // Requests.
  kHello = 1,
  kQuery = 2,
  kPrepare = 3,
  kExecutePrepared = 4,
  kCloseStatement = 5,
  kSuspend = 6,
  kResume = 7,
  kTelemetry = 8,
  kCommand = 9,
  kGoodbye = 10,
  // Replies.
  kReplyHello = 64,
  kReplyText = 65,
  kReplySchema = 66,
  kReplyRows = 67,
  kReplyDone = 68,
};

/// The remote-safe execution options carried on every query-bearing
/// request: the subset of ExecOptions a client may set per session
/// (budgets, driving mode, parallelism share, priority, checkpointing).
/// Pointer-valued knobs (sinks, fault injectors, telemetry, cancel flags)
/// never cross the wire — the server owns those.
struct WireRunOptions {
  bool use_batch = true;
  uint64_t batch_capacity = 0;  ///< 0 = server default
  int64_t max_rows = 0;
  int64_t max_pages = 0;
  int64_t max_wall_ms = 0;
  int64_t max_cache_bytes = 0;
  int32_t parallelism = 1;
  uint8_t priority = 1;  ///< QueryPriority enum value
  int64_t admission_timeout_ms = 0;
  bool use_plan_cache = true;
  bool checkpoint_enabled = false;
  int64_t checkpoint_chunk = 0;
  int64_t checkpoint_every = 0;
  std::string checkpoint_path;
  bool collect_stats = false;
};

/// Captures the wire-transportable subset of `opts` (and the session's
/// stats toggle); ApplyWireRunOptions rebuilds ExecOptions server-side.
WireRunOptions CaptureWireRunOptions(const RunOptions& opts,
                                     bool collect_stats);
void ApplyWireRunOptions(const WireRunOptions& wire, ExecOptions* exec);

// ---------------------------------------------------------------------------
// Payload encoding. A WireWriter accumulates one frame's payload; a
// WireCursor decodes one with bounds-checked reads — every malformed or
// truncated body surfaces as a Status, never as out-of-bounds access.
// ---------------------------------------------------------------------------

class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { AppendLe(v); }
  void U32(uint32_t v) { AppendLe(v); }
  void U64(uint64_t v) { AppendLe(v); }
  void I64(int64_t v) { AppendLe(static_cast<uint64_t>(v)); }
  void F64(double v);
  void Str(std::string_view s);
  void Value(const class Value& v);
  void Stats(const AccessStats& stats);

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  template <typename T>
  void AppendLe(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  std::string buf_;
};

class WireCursor {
 public:
  explicit WireCursor(const std::string& payload)
      : data_(payload.data()), size_(payload.size()) {}
  WireCursor(const char* data, size_t size) : data_(data), size_(size) {}

  Status U8(uint8_t* v);
  Status U16(uint16_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status I64(int64_t* v);
  Status F64(double* v);
  Status Str(std::string* s);
  Status Value(class Value* v);
  Status Stats(AccessStats* stats);

  size_t remaining() const { return size_ - off_; }
  bool Exhausted() const { return off_ == size_; }

 private:
  Status Need(size_t n);
  const char* data_;
  size_t size_;
  size_t off_ = 0;
};

/// Options blob used inside request bodies.
void EncodeRunOptions(const WireRunOptions& o, WireWriter* w);
Status DecodeRunOptions(WireCursor* c, WireRunOptions* o);

/// Schema frame body.
void EncodeSchema(const Schema& schema, WireWriter* w);
Result<SchemaPtr> DecodeSchema(WireCursor* c);

/// One row inside a ROWS frame: i64 position, u32 field count, values.
void EncodeRow(Position pos, const Record& rec, WireWriter* w);
Status DecodeRow(WireCursor* c, PosRecord* row);

/// The DONE frame body terminating every request: u8 status code, str
/// message, u64 value (statement id for PREPARE, row count for
/// row-bearing requests, else 0), u8 is_rows, u8 has_stats [+ stats].
struct DoneReply {
  uint8_t code = 0;
  std::string message;
  uint64_t value = 0;
  bool is_rows = false;
  bool has_stats = false;
  AccessStats stats;
};

std::string EncodeDone(const Status& status, uint64_t value, bool is_rows,
                       const AccessStats* stats);
Status DecodeDone(WireCursor* c, DoneReply* done);

/// Reconstructs the request's Status from a decoded DONE body.
Status DoneToStatus(const DoneReply& done);

// ---------------------------------------------------------------------------
// Framed socket I/O. Both sides block; short reads/writes are retried
// until complete. Writes use MSG_NOSIGNAL so a dead peer surfaces as a
// Status, not SIGPIPE.
// ---------------------------------------------------------------------------

struct Frame {
  uint64_t request_id = 0;
  uint8_t opcode = 0;
  std::string body;  ///< payload after the request id + opcode header
};

/// Writes one frame. `payload` must already start with the request id and
/// opcode (BuildFrame composes it).
Status WriteFrame(int fd, const std::string& payload);

/// Composes a frame payload: request id + opcode + body.
std::string BuildFrame(uint64_t request_id, Opcode opcode, std::string body);

/// Reads one frame. Distinguishes the three failure shapes the server
/// cares about: clean EOF between frames (`*clean_eof` set, NotFound
/// status), a truncated prefix or body (DataLoss), and an oversized
/// declared length (InvalidArgument — the connection must close, the
/// stream cannot be resynchronized).
Status ReadFrame(int fd, Frame* frame, bool* clean_eof);

}  // namespace seq

#endif  // SEQ_NET_WIRE_H_
