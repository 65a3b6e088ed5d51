#include "storage/checkpoint_file.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "types/value.h"

namespace seq {
namespace {

constexpr char kMagic[8] = {'S', 'E', 'Q', 'C', 'K', 'P', 'T', '1'};
constexpr uint32_t kFormatVersion = 1;
constexpr uint32_t kMaxStringLen = 1u << 20;
constexpr uint64_t kMaxListLen = 1u << 26;
constexpr uint32_t kMaxRowValues = 1u << 10;
constexpr uint64_t kMaxOpStateLen = 1u << 28;

uint64_t Fnv1a64(const char* data, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
void WritePod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

void WriteString(std::ostream& out, std::string_view s) {
  WritePod<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

bool ReadString(std::istream& in, std::string* s) {
  uint32_t len = 0;
  if (!ReadPod(in, &len) || len > kMaxStringLen) return false;
  s->resize(len);
  in.read(s->data(), len);
  return static_cast<bool>(in);
}

void WriteValue(std::ostream& out, const Value& v) {
  WritePod<uint8_t>(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case TypeId::kInt64:
      WritePod<int64_t>(out, v.int64());
      break;
    case TypeId::kDouble:
      WritePod<double>(out, v.dbl());
      break;
    case TypeId::kBool:
      WritePod<uint8_t>(out, v.boolean() ? 1 : 0);
      break;
    case TypeId::kString:
      WriteString(out, v.str_view());
      break;
  }
}

bool ReadValue(std::istream& in, Value* out) {
  uint8_t tag = 0;
  if (!ReadPod(in, &tag) || tag > static_cast<uint8_t>(TypeId::kString)) {
    return false;
  }
  switch (static_cast<TypeId>(tag)) {
    case TypeId::kInt64: {
      int64_t v;
      if (!ReadPod(in, &v)) return false;
      *out = Value::Int64(v);
      return true;
    }
    case TypeId::kDouble: {
      double v;
      if (!ReadPod(in, &v)) return false;
      *out = Value::Double(v);
      return true;
    }
    case TypeId::kBool: {
      uint8_t v;
      if (!ReadPod(in, &v)) return false;
      *out = Value::Bool(v != 0);
      return true;
    }
    case TypeId::kString: {
      std::string v;
      if (!ReadString(in, &v)) return false;
      *out = Value::String(std::move(v));
      return true;
    }
  }
  return false;
}

std::string SerializeBody(const CheckpointImage& image) {
  std::ostringstream body(std::ios::binary);
  WritePod<uint64_t>(body, image.catalog_version);
  WriteString(body, image.options_fingerprint);
  WriteString(body, image.plan_signature);
  WriteString(body, image.query_text);
  WritePod<uint8_t>(body, image.probed ? 1 : 0);
  WritePod<uint8_t>(body, image.has_range ? 1 : 0);
  WritePod<int64_t>(body, image.span_start);
  WritePod<int64_t>(body, image.span_end);
  WritePod<uint64_t>(body, static_cast<uint64_t>(image.positions.size()));
  for (int64_t p : image.positions) WritePod<int64_t>(body, p);
  WriteString(body, image.position_sequence);
  WritePod<int64_t>(body, image.watermark);
  WritePod<int64_t>(body, image.next_index);
  WritePod<int64_t>(body, image.chunks_done);
  WritePod<int64_t>(body, image.chunk_len);
  WritePod<int64_t>(body, image.stats.stream_records);
  WritePod<int64_t>(body, image.stats.stream_pages);
  WritePod<int64_t>(body, image.stats.probes);
  WritePod<int64_t>(body, image.stats.probe_pages);
  WritePod<int64_t>(body, image.stats.cache_stores);
  WritePod<int64_t>(body, image.stats.cache_hits);
  WritePod<int64_t>(body, image.stats.predicate_evals);
  WritePod<int64_t>(body, image.stats.agg_steps);
  WritePod<int64_t>(body, image.stats.records_output);
  WritePod<double>(body, image.stats.simulated_cost);
  WritePod<uint64_t>(body, static_cast<uint64_t>(image.rows.size()));
  for (const PosRecord& pr : image.rows) {
    WritePod<int64_t>(body, pr.pos);
    WritePod<uint32_t>(body, static_cast<uint32_t>(pr.rec.size()));
    for (const Value& v : pr.rec) WriteValue(body, v);
  }
  WritePod<uint64_t>(body, static_cast<uint64_t>(image.op_state.size()));
  body.write(image.op_state.data(),
             static_cast<std::streamsize>(image.op_state.size()));
  return body.str();
}

Status Torn(const std::string& path, const char* what) {
  return Status::DataLoss("checkpoint '" + path + "': " + what);
}

}  // namespace

Status SaveCheckpoint(const CheckpointImage& image, const std::string& path,
                      const std::function<Status()>& fault) {
  std::string body = SerializeBody(image);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open checkpoint '" + path +
                                   "' for writing");
  }
  out.write(kMagic, sizeof(kMagic));
  WritePod<uint32_t>(out, kFormatVersion);
  WritePod<uint64_t>(out, Fnv1a64(body.data(), body.size()));
  WritePod<uint64_t>(out, static_cast<uint64_t>(body.size()));
  if (fault) {
    Status injected = fault();
    if (!injected.ok()) {
      // Model a torn write faithfully: half the body reaches disk, then
      // the failure. A later LoadCheckpoint of this file must fail closed
      // (size/checksum mismatch -> DataLoss), never resume wrong rows.
      out.write(body.data(), static_cast<std::streamsize>(body.size() / 2));
      out.flush();
      return injected;
    }
  }
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  out.flush();
  if (!out) {
    return Status::DataLoss("write to checkpoint '" + path + "' failed");
  }
  return Status::OK();
}

Result<CheckpointImage> LoadCheckpoint(const std::string& path,
                                       const std::function<Status()>& fault) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open checkpoint '" + path + "'");
  }
  if (fault) {
    Status injected = fault();
    if (!injected.ok()) return injected;
  }
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(kMagic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("'" + path + "' is not a SEQCKPT1 file");
  }
  uint32_t version = 0;
  uint64_t checksum = 0;
  uint64_t body_size = 0;
  if (!ReadPod(in, &version) || !ReadPod(in, &checksum) ||
      !ReadPod(in, &body_size)) {
    return Torn(path, "truncated header");
  }
  if (version != kFormatVersion) {
    return Status::FailedPrecondition(
        "checkpoint '" + path + "': format version " +
        std::to_string(version) + " not supported (expected " +
        std::to_string(kFormatVersion) + ")");
  }
  if (body_size > (kMaxOpStateLen + (kMaxListLen * 16))) {
    return Torn(path, "implausible body size");
  }
  std::string body(body_size, '\0');
  in.read(body.data(), static_cast<std::streamsize>(body_size));
  if (!in || static_cast<uint64_t>(in.gcount()) != body_size) {
    return Torn(path, "truncated body (torn write?)");
  }
  if (Fnv1a64(body.data(), body.size()) != checksum) {
    return Torn(path, "body checksum mismatch (corrupt or torn write)");
  }
  std::istringstream bin(body, std::ios::binary);
  CheckpointImage image;
  uint8_t probed = 0;
  uint8_t has_range = 0;
  uint64_t n_positions = 0;
  if (!ReadPod(bin, &image.catalog_version) ||
      !ReadString(bin, &image.options_fingerprint) ||
      !ReadString(bin, &image.plan_signature) ||
      !ReadString(bin, &image.query_text) || !ReadPod(bin, &probed) ||
      !ReadPod(bin, &has_range) || !ReadPod(bin, &image.span_start) ||
      !ReadPod(bin, &image.span_end) || !ReadPod(bin, &n_positions) ||
      n_positions > kMaxListLen) {
    return Torn(path, "corrupt query section");
  }
  image.probed = probed != 0;
  image.has_range = has_range != 0;
  image.positions.reserve(n_positions);
  for (uint64_t i = 0; i < n_positions; ++i) {
    int64_t p = 0;
    if (!ReadPod(bin, &p)) return Torn(path, "truncated position list");
    image.positions.push_back(p);
  }
  if (!ReadString(bin, &image.position_sequence)) {
    return Torn(path, "corrupt position-sequence name");
  }
  if (!ReadPod(bin, &image.watermark) || !ReadPod(bin, &image.next_index) ||
      !ReadPod(bin, &image.chunks_done) || !ReadPod(bin, &image.chunk_len) ||
      !ReadPod(bin, &image.stats.stream_records) ||
      !ReadPod(bin, &image.stats.stream_pages) ||
      !ReadPod(bin, &image.stats.probes) ||
      !ReadPod(bin, &image.stats.probe_pages) ||
      !ReadPod(bin, &image.stats.cache_stores) ||
      !ReadPod(bin, &image.stats.cache_hits) ||
      !ReadPod(bin, &image.stats.predicate_evals) ||
      !ReadPod(bin, &image.stats.agg_steps) ||
      !ReadPod(bin, &image.stats.records_output) ||
      !ReadPod(bin, &image.stats.simulated_cost)) {
    return Torn(path, "corrupt resume-point section");
  }
  uint64_t n_rows = 0;
  if (!ReadPod(bin, &n_rows) || n_rows > kMaxListLen) {
    return Torn(path, "corrupt row count");
  }
  image.rows.reserve(n_rows);
  for (uint64_t r = 0; r < n_rows; ++r) {
    PosRecord pr;
    uint32_t n_values = 0;
    if (!ReadPod(bin, &pr.pos) || !ReadPod(bin, &n_values) ||
        n_values > kMaxRowValues) {
      return Torn(path, "corrupt row header");
    }
    pr.rec.reserve(n_values);
    for (uint32_t v = 0; v < n_values; ++v) {
      Value value;
      if (!ReadValue(bin, &value)) return Torn(path, "corrupt row value");
      pr.rec.push_back(std::move(value));
    }
    image.rows.push_back(std::move(pr));
  }
  uint64_t op_state_len = 0;
  if (!ReadPod(bin, &op_state_len) || op_state_len > kMaxOpStateLen) {
    return Torn(path, "corrupt operator-state length");
  }
  image.op_state.resize(op_state_len);
  bin.read(image.op_state.data(),
           static_cast<std::streamsize>(op_state_len));
  if (!bin || static_cast<uint64_t>(bin.gcount()) != op_state_len) {
    return Torn(path, "truncated operator state");
  }
  return image;
}

}  // namespace seq
