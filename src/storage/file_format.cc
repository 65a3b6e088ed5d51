#include "storage/file_format.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <set>

namespace seq {
namespace {

constexpr char kMagic[4] = {'S', 'E', 'Q', '1'};
constexpr uint32_t kMaxStringLen = 1u << 20;
constexpr uint32_t kMaxFields = 1u << 10;
constexpr uint32_t kMaxRecordsPerPage = 1u << 20;

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

}  // namespace

Status SaveSequence(const BaseSequenceStore& store, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open '" + path + "' for writing");
  }
  out.write(kMagic, 4);
  WritePod<uint32_t>(out, static_cast<uint32_t>(store.records_per_page()));
  WritePod<double>(out, store.costs().page_cost);
  WritePod<double>(out, store.costs().probe_cost);
  WritePod<uint8_t>(out, store.costs().clustered ? 1 : 0);
  WritePod<int64_t>(out, store.span().start);
  WritePod<int64_t>(out, store.span().end);
  const Schema& schema = *store.schema();
  WritePod<uint32_t>(out, static_cast<uint32_t>(schema.num_fields()));
  for (const Field& f : schema.fields()) {
    WriteString(out, f.name);
    WritePod<uint8_t>(out, static_cast<uint8_t>(f.type));
  }
  WritePod<uint64_t>(out, static_cast<uint64_t>(store.num_records()));
  for (const PosRecord& pr : store.records()) {
    WritePod<int64_t>(out, pr.pos);
    for (const Value& v : pr.rec) {
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
  }
  out.flush();
  if (!out) {
    return Status::Internal("write to '" + path + "' failed");
  }
  return Status::OK();
}

Result<BaseSequencePtr> LoadSequence(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("'" + path + "' is not a SEQ1 file");
  }
  uint32_t records_per_page = 0;
  AccessCosts costs;
  uint8_t clustered = 1;
  int64_t span_start = 0;
  int64_t span_end = 0;
  if (!ReadPod(in, &records_per_page) || records_per_page == 0 ||
      !ReadPod(in, &costs.page_cost) || !ReadPod(in, &costs.probe_cost) ||
      !ReadPod(in, &clustered) || !ReadPod(in, &span_start) ||
      !ReadPod(in, &span_end)) {
    return Status::DataLoss("'" + path + "': truncated header");
  }
  // The store takes records_per_page as a positive int; a corrupt value
  // above INT_MAX would otherwise wrap negative and trip its invariant
  // check (an abort — never acceptable on file input).
  if (records_per_page > kMaxRecordsPerPage) {
    return Status::DataLoss("'" + path + "': implausible records_per_page " +
                            std::to_string(records_per_page));
  }
  costs.clustered = clustered != 0;
  uint32_t num_fields = 0;
  if (!ReadPod(in, &num_fields) || num_fields == 0 ||
      num_fields > kMaxFields) {
    return Status::DataLoss("'" + path + "': bad field count");
  }
  std::vector<Field> fields;
  fields.reserve(num_fields);
  std::set<std::string> names;
  for (uint32_t i = 0; i < num_fields; ++i) {
    Field f;
    uint8_t type = 0;
    if (!ReadString(in, &f.name) || !ReadPod(in, &type) ||
        type > static_cast<uint8_t>(TypeId::kString)) {
      return Status::DataLoss("'" + path + "': bad field header");
    }
    // Schema::Make treats duplicate names as a programming error (abort);
    // reject them here so a corrupt file cannot reach it.
    if (!names.insert(f.name).second) {
      return Status::DataLoss("'" + path + "': duplicate field name '" +
                              f.name + "'");
    }
    f.type = static_cast<TypeId>(type);
    fields.push_back(std::move(f));
  }
  SchemaPtr schema = Schema::Make(std::move(fields));
  auto store = std::make_shared<BaseSequenceStore>(
      schema, static_cast<int>(records_per_page), costs);
  uint64_t num_records = 0;
  if (!ReadPod(in, &num_records)) {
    return Status::DataLoss("'" + path + "': truncated record count");
  }
  for (uint64_t r = 0; r < num_records; ++r) {
    int64_t pos = 0;
    if (!ReadPod(in, &pos)) {
      return Status::DataLoss("'" + path + "': truncated records");
    }
    Record rec;
    rec.reserve(schema->num_fields());
    for (const Field& f : schema->fields()) {
      switch (f.type) {
        case TypeId::kInt64: {
          int64_t v;
          if (!ReadPod(in, &v)) {
            return Status::DataLoss("'" + path + "': truncated value");
          }
          rec.push_back(Value::Int64(v));
          break;
        }
        case TypeId::kDouble: {
          double v;
          if (!ReadPod(in, &v)) {
            return Status::DataLoss("'" + path + "': truncated value");
          }
          rec.push_back(Value::Double(v));
          break;
        }
        case TypeId::kBool: {
          uint8_t v;
          if (!ReadPod(in, &v)) {
            return Status::DataLoss("'" + path + "': truncated value");
          }
          rec.push_back(Value::Bool(v != 0));
          break;
        }
        case TypeId::kString: {
          std::string v;
          if (!ReadString(in, &v)) {
            return Status::DataLoss("'" + path + "': truncated value");
          }
          rec.push_back(Value::String(std::move(v)));
          break;
        }
      }
    }
    SEQ_RETURN_IF_ERROR(store->Append(pos, std::move(rec)));
  }
  if (!Span::Of(span_start, span_end).IsEmpty()) {
    SEQ_RETURN_IF_ERROR(store->DeclareSpan(Span::Of(span_start, span_end)));
  }
  return store;
}

}  // namespace seq
