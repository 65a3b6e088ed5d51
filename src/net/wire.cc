#include "net/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "exec/scheduler.h"

namespace seq {

WireRunOptions CaptureWireRunOptions(const RunOptions& opts,
                                     bool collect_stats) {
  WireRunOptions w;
  w.use_batch = opts.exec.use_batch;
  w.batch_capacity = opts.exec.batch_capacity;
  w.max_rows = opts.exec.guards.max_rows;
  w.max_pages = opts.exec.guards.max_pages;
  w.max_wall_ms = opts.exec.guards.max_wall_ms;
  w.max_cache_bytes = opts.exec.guards.max_cache_bytes;
  w.parallelism = opts.exec.parallelism;
  w.priority = static_cast<uint8_t>(opts.exec.priority);
  w.admission_timeout_ms = opts.exec.admission_timeout_ms;
  w.use_plan_cache = opts.exec.use_plan_cache;
  w.checkpoint_enabled = opts.exec.checkpoint.enabled;
  w.checkpoint_chunk = opts.exec.checkpoint.chunk;
  w.checkpoint_every = opts.exec.checkpoint.suspend_every_chunks;
  w.checkpoint_path = opts.exec.checkpoint.path;
  w.collect_stats = collect_stats;
  return w;
}

void ApplyWireRunOptions(const WireRunOptions& wire, ExecOptions* exec) {
  exec->use_batch = wire.use_batch;
  if (wire.batch_capacity > 0) {
    exec->batch_capacity = static_cast<size_t>(wire.batch_capacity);
  }
  exec->guards.max_rows = wire.max_rows;
  exec->guards.max_pages = wire.max_pages;
  exec->guards.max_wall_ms = wire.max_wall_ms;
  exec->guards.max_cache_bytes = wire.max_cache_bytes;
  // Clamp instead of trusting the peer: a negative or absurd share cap
  // must not reach the scheduler.
  exec->parallelism = wire.parallelism < 1 ? 1 : wire.parallelism;
  exec->priority = wire.priority <= static_cast<uint8_t>(QueryPriority::kHigh)
                       ? static_cast<QueryPriority>(wire.priority)
                       : QueryPriority::kNormal;
  exec->admission_timeout_ms = wire.admission_timeout_ms;
  exec->use_plan_cache = wire.use_plan_cache;
  exec->checkpoint.enabled = wire.checkpoint_enabled;
  exec->checkpoint.chunk = wire.checkpoint_chunk < 0 ? 0 : wire.checkpoint_chunk;
  exec->checkpoint.suspend_every_chunks =
      wire.checkpoint_every < 0 ? 0 : wire.checkpoint_every;
  exec->checkpoint.path = wire.checkpoint_path;
}

// --------------------------------------------------------------------------
// WireWriter
// --------------------------------------------------------------------------

void WireWriter::F64(double v) {
  // Bit-pattern transport: the client reassembles the exact double, so
  // remote rows stay byte-identical to local execution.
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

void WireWriter::Value(const seq::Value& v) {
  U8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case TypeId::kInt64:
      I64(v.int64());
      break;
    case TypeId::kDouble:
      F64(v.dbl());
      break;
    case TypeId::kBool:
      U8(v.boolean() ? 1 : 0);
      break;
    case TypeId::kString:
      Str(v.str_view());
      break;
  }
}

void WireWriter::Stats(const AccessStats& stats) {
  I64(stats.stream_records);
  I64(stats.stream_pages);
  I64(stats.probes);
  I64(stats.probe_pages);
  I64(stats.cache_stores);
  I64(stats.cache_hits);
  I64(stats.predicate_evals);
  I64(stats.agg_steps);
  I64(stats.records_output);
  F64(stats.simulated_cost);
}

// --------------------------------------------------------------------------
// WireCursor
// --------------------------------------------------------------------------

Status WireCursor::Need(size_t n) {
  if (size_ - off_ < n) {
    return Status::DataLoss("truncated frame body: need " + std::to_string(n) +
                            " more bytes, have " +
                            std::to_string(size_ - off_));
  }
  return Status::OK();
}

Status WireCursor::U8(uint8_t* v) {
  SEQ_RETURN_IF_ERROR(Need(1));
  *v = static_cast<uint8_t>(data_[off_++]);
  return Status::OK();
}

Status WireCursor::U16(uint16_t* v) {
  SEQ_RETURN_IF_ERROR(Need(2));
  uint16_t out = 0;
  for (size_t i = 0; i < 2; ++i) {
    out |= static_cast<uint16_t>(static_cast<unsigned char>(data_[off_ + i]))
           << (8 * i);
  }
  off_ += 2;
  *v = out;
  return Status::OK();
}

Status WireCursor::U32(uint32_t* v) {
  SEQ_RETURN_IF_ERROR(Need(4));
  uint32_t out = 0;
  for (size_t i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<unsigned char>(data_[off_ + i]))
           << (8 * i);
  }
  off_ += 4;
  *v = out;
  return Status::OK();
}

Status WireCursor::U64(uint64_t* v) {
  SEQ_RETURN_IF_ERROR(Need(8));
  uint64_t out = 0;
  for (size_t i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<unsigned char>(data_[off_ + i]))
           << (8 * i);
  }
  off_ += 8;
  *v = out;
  return Status::OK();
}

Status WireCursor::I64(int64_t* v) {
  uint64_t u = 0;
  SEQ_RETURN_IF_ERROR(U64(&u));
  *v = static_cast<int64_t>(u);
  return Status::OK();
}

Status WireCursor::F64(double* v) {
  uint64_t bits = 0;
  SEQ_RETURN_IF_ERROR(U64(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status WireCursor::Str(std::string* s) {
  uint32_t len = 0;
  SEQ_RETURN_IF_ERROR(U32(&len));
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument("string length " + std::to_string(len) +
                                   " exceeds the frame limit");
  }
  SEQ_RETURN_IF_ERROR(Need(len));
  s->assign(data_ + off_, len);
  off_ += len;
  return Status::OK();
}

Status WireCursor::Value(seq::Value* v) {
  uint8_t tag = 0;
  SEQ_RETURN_IF_ERROR(U8(&tag));
  switch (static_cast<TypeId>(tag)) {
    case TypeId::kInt64: {
      int64_t i = 0;
      SEQ_RETURN_IF_ERROR(I64(&i));
      *v = seq::Value::Int64(i);
      return Status::OK();
    }
    case TypeId::kDouble: {
      double d = 0;
      SEQ_RETURN_IF_ERROR(F64(&d));
      *v = seq::Value::Double(d);
      return Status::OK();
    }
    case TypeId::kBool: {
      uint8_t b = 0;
      SEQ_RETURN_IF_ERROR(U8(&b));
      *v = seq::Value::Bool(b != 0);
      return Status::OK();
    }
    case TypeId::kString: {
      std::string s;
      SEQ_RETURN_IF_ERROR(Str(&s));
      *v = seq::Value::String(std::move(s));
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown value type tag " +
                                 std::to_string(tag));
}

Status WireCursor::Stats(AccessStats* stats) {
  SEQ_RETURN_IF_ERROR(I64(&stats->stream_records));
  SEQ_RETURN_IF_ERROR(I64(&stats->stream_pages));
  SEQ_RETURN_IF_ERROR(I64(&stats->probes));
  SEQ_RETURN_IF_ERROR(I64(&stats->probe_pages));
  SEQ_RETURN_IF_ERROR(I64(&stats->cache_stores));
  SEQ_RETURN_IF_ERROR(I64(&stats->cache_hits));
  SEQ_RETURN_IF_ERROR(I64(&stats->predicate_evals));
  SEQ_RETURN_IF_ERROR(I64(&stats->agg_steps));
  SEQ_RETURN_IF_ERROR(I64(&stats->records_output));
  SEQ_RETURN_IF_ERROR(F64(&stats->simulated_cost));
  return Status::OK();
}

// --------------------------------------------------------------------------
// Blob helpers
// --------------------------------------------------------------------------

void EncodeRunOptions(const WireRunOptions& o, WireWriter* w) {
  w->U8(o.use_batch ? 1 : 0);
  w->U64(o.batch_capacity);
  w->I64(o.max_rows);
  w->I64(o.max_pages);
  w->I64(o.max_wall_ms);
  w->I64(o.max_cache_bytes);
  w->I64(o.parallelism);
  w->U8(o.priority);
  w->I64(o.admission_timeout_ms);
  w->U8(o.use_plan_cache ? 1 : 0);
  w->U8(o.checkpoint_enabled ? 1 : 0);
  w->I64(o.checkpoint_chunk);
  w->I64(o.checkpoint_every);
  w->Str(o.checkpoint_path);
  w->U8(o.collect_stats ? 1 : 0);
}

Status DecodeRunOptions(WireCursor* c, WireRunOptions* o) {
  uint8_t b = 0;
  SEQ_RETURN_IF_ERROR(c->U8(&b));
  o->use_batch = b != 0;
  SEQ_RETURN_IF_ERROR(c->U64(&o->batch_capacity));
  SEQ_RETURN_IF_ERROR(c->I64(&o->max_rows));
  SEQ_RETURN_IF_ERROR(c->I64(&o->max_pages));
  SEQ_RETURN_IF_ERROR(c->I64(&o->max_wall_ms));
  SEQ_RETURN_IF_ERROR(c->I64(&o->max_cache_bytes));
  int64_t parallelism = 0;
  SEQ_RETURN_IF_ERROR(c->I64(&parallelism));
  o->parallelism = static_cast<int32_t>(parallelism);
  SEQ_RETURN_IF_ERROR(c->U8(&o->priority));
  SEQ_RETURN_IF_ERROR(c->I64(&o->admission_timeout_ms));
  SEQ_RETURN_IF_ERROR(c->U8(&b));
  o->use_plan_cache = b != 0;
  SEQ_RETURN_IF_ERROR(c->U8(&b));
  o->checkpoint_enabled = b != 0;
  SEQ_RETURN_IF_ERROR(c->I64(&o->checkpoint_chunk));
  SEQ_RETURN_IF_ERROR(c->I64(&o->checkpoint_every));
  SEQ_RETURN_IF_ERROR(c->Str(&o->checkpoint_path));
  SEQ_RETURN_IF_ERROR(c->U8(&b));
  o->collect_stats = b != 0;
  return Status::OK();
}

void EncodeSchema(const Schema& schema, WireWriter* w) {
  w->U32(static_cast<uint32_t>(schema.num_fields()));
  for (const Field& f : schema.fields()) {
    w->Str(f.name);
    w->U8(static_cast<uint8_t>(f.type));
  }
}

Result<SchemaPtr> DecodeSchema(WireCursor* c) {
  uint32_t n = 0;
  SEQ_RETURN_IF_ERROR(c->U32(&n));
  if (n > kMaxFrameBytes / 5) {
    return Status::InvalidArgument("schema field count " + std::to_string(n) +
                                   " exceeds the frame limit");
  }
  std::vector<Field> fields;
  fields.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Field f;
    SEQ_RETURN_IF_ERROR(c->Str(&f.name));
    uint8_t type = 0;
    SEQ_RETURN_IF_ERROR(c->U8(&type));
    if (type > static_cast<uint8_t>(TypeId::kString)) {
      return Status::InvalidArgument("unknown field type tag " +
                                     std::to_string(type));
    }
    f.type = static_cast<TypeId>(type);
    fields.push_back(std::move(f));
  }
  return Schema::Make(std::move(fields));
}

void EncodeRow(Position pos, const Record& rec, WireWriter* w) {
  w->I64(pos);
  w->U32(static_cast<uint32_t>(rec.size()));
  for (const seq::Value& v : rec) w->Value(v);
}

Status DecodeRow(WireCursor* c, PosRecord* row) {
  SEQ_RETURN_IF_ERROR(c->I64(&row->pos));
  uint32_t n = 0;
  SEQ_RETURN_IF_ERROR(c->U32(&n));
  if (n > kMaxFrameBytes / 2) {
    return Status::InvalidArgument("row field count " + std::to_string(n) +
                                   " exceeds the frame limit");
  }
  row->rec.clear();
  row->rec.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    seq::Value v;
    SEQ_RETURN_IF_ERROR(c->Value(&v));
    row->rec.push_back(std::move(v));
  }
  return Status::OK();
}

std::string EncodeDone(const Status& status, uint64_t value, bool is_rows,
                       const AccessStats* stats) {
  WireWriter w;
  w.U8(static_cast<uint8_t>(status.code()));
  w.Str(status.ok() ? std::string() : status.message());
  w.U64(value);
  w.U8(is_rows ? 1 : 0);
  w.U8(stats != nullptr ? 1 : 0);
  if (stats != nullptr) w.Stats(*stats);
  return w.Take();
}

Status DecodeDone(WireCursor* c, DoneReply* done) {
  SEQ_RETURN_IF_ERROR(c->U8(&done->code));
  SEQ_RETURN_IF_ERROR(c->Str(&done->message));
  SEQ_RETURN_IF_ERROR(c->U64(&done->value));
  uint8_t b = 0;
  SEQ_RETURN_IF_ERROR(c->U8(&b));
  done->is_rows = b != 0;
  SEQ_RETURN_IF_ERROR(c->U8(&b));
  done->has_stats = b != 0;
  if (done->has_stats) SEQ_RETURN_IF_ERROR(c->Stats(&done->stats));
  return Status::OK();
}

Status DoneToStatus(const DoneReply& done) {
  if (done.code == 0) return Status::OK();
  if (done.code > static_cast<uint8_t>(StatusCode::kFailedPrecondition)) {
    return Status::Internal("server sent unknown status code " +
                            std::to_string(done.code) + ": " + done.message);
  }
  return Status(static_cast<StatusCode>(done.code), done.message);
}

// --------------------------------------------------------------------------
// Framed socket I/O
// --------------------------------------------------------------------------

namespace {

Status WriteAll(int fd, const char* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("socket write failed: ") +
                                 std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Reads exactly `size` bytes. `*got` reports how many arrived before an
/// EOF, so the caller can tell "closed between frames" from "truncated
/// mid-frame".
Status ReadAll(int fd, char* data, size_t size, size_t* got) {
  *got = 0;
  while (*got < size) {
    const ssize_t n = ::recv(fd, data + *got, size - *got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("socket read failed: ") +
                                 std::strerror(errno));
    }
    if (n == 0) {
      return Status::DataLoss("connection closed mid-read");
    }
    *got += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

std::string BuildFrame(uint64_t request_id, Opcode opcode, std::string body) {
  WireWriter header;
  header.U64(request_id);
  header.U8(static_cast<uint8_t>(opcode));
  return header.Take() + body;
}

Status WriteFrame(int fd, const std::string& payload) {
  WireWriter prefix;
  prefix.U32(static_cast<uint32_t>(payload.size()));
  SEQ_RETURN_IF_ERROR(WriteAll(fd, prefix.buffer().data(), 4));
  return WriteAll(fd, payload.data(), payload.size());
}

Status ReadFrame(int fd, Frame* frame, bool* clean_eof) {
  *clean_eof = false;
  char prefix[4];
  size_t got = 0;
  Status r = ReadAll(fd, prefix, 4, &got);
  if (!r.ok()) {
    if (got == 0 && r.code() == StatusCode::kDataLoss) {
      // EOF on a frame boundary: the peer hung up cleanly.
      *clean_eof = true;
      return Status::NotFound("connection closed");
    }
    if (r.code() == StatusCode::kDataLoss) {
      return Status::DataLoss("truncated length prefix (" +
                              std::to_string(got) + " of 4 bytes)");
    }
    return r;
  }
  uint32_t length = 0;
  for (size_t i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(static_cast<unsigned char>(prefix[i]))
              << (8 * i);
  }
  if (length > kMaxFrameBytes) {
    return Status::InvalidArgument(
        "declared frame length " + std::to_string(length) +
        " exceeds the limit (" + std::to_string(kMaxFrameBytes) +
        "); closing desynchronized stream");
  }
  if (length < 9) {
    return Status::InvalidArgument("frame too short for request id + opcode (" +
                                   std::to_string(length) + " bytes)");
  }
  std::string payload(length, '\0');
  SEQ_RETURN_IF_ERROR(ReadAll(fd, payload.data(), length, &got));
  WireCursor cursor(payload);
  SEQ_RETURN_IF_ERROR(cursor.U64(&frame->request_id));
  SEQ_RETURN_IF_ERROR(cursor.U8(&frame->opcode));
  frame->body.assign(payload, 9, payload.size() - 9);
  return Status::OK();
}

}  // namespace seq
