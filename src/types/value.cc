#include "types/value.h"

#include <functional>
#include <new>

#include "common/string_util.h"

namespace seq {

const char* TypeName(TypeId type) {
  switch (type) {
    case TypeId::kInt64:
      return "int64";
    case TypeId::kDouble:
      return "double";
    case TypeId::kBool:
      return "bool";
    case TypeId::kString:
      return "string";
  }
  return "unknown";
}

bool IsNumeric(TypeId type) {
  return type == TypeId::kInt64 || type == TypeId::kDouble;
}

namespace {

int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

}  // namespace

Value Value::String(std::string_view s) {
  Value v;
  v.raw_[kTypeByte] = static_cast<uint8_t>(TypeId::kString);
  if (s.size() <= kInlineCapacity) {
    if (!s.empty()) std::memcpy(v.raw_, s.data(), s.size());
    v.raw_[kLenByte] = static_cast<uint8_t>(s.size());
    return v;
  }
  void* block = ::operator new(sizeof(HeapString) + s.size());
  HeapString* h = new (block) HeapString{{1}, s.size()};
  std::memcpy(reinterpret_cast<char*>(h + 1), s.data(), s.size());
  std::memcpy(v.raw_, &h, sizeof(h));
  v.raw_[kLenByte] = kHeapLen;
  return v;
}

void Value::Release() noexcept {
  HeapString* h = heap();
  if (h->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    h->~HeapString();
    ::operator delete(h);
  }
}

int Value::Compare(const Value& other) const {
  if (IsNumeric(type()) && IsNumeric(other.type())) {
    if (type() == TypeId::kInt64 && other.type() == TypeId::kInt64) {
      int64_t a = int64();
      int64_t b = other.int64();
      return (a < b) ? -1 : (a > b) ? 1 : 0;
    }
    return CompareDoubles(AsDouble(), other.AsDouble());
  }
  SEQ_CHECK_MSG(type() == other.type(),
                "comparing incompatible value types " << TypeName(type())
                                                      << " and "
                                                      << TypeName(other.type()));
  switch (type()) {
    case TypeId::kBool: {
      int a = boolean() ? 1 : 0;
      int b = other.boolean() ? 1 : 0;
      return a - b;
    }
    case TypeId::kString: {
      int c = str_view().compare(other.str_view());
      return c < 0 ? -1 : c > 0 ? 1 : 0;
    }
    default:
      SEQ_CHECK(false);
  }
  return 0;
}

size_t Value::Hash() const {
  switch (type()) {
    case TypeId::kInt64:
      return std::hash<double>()(static_cast<double>(int64()));
    case TypeId::kDouble:
      return std::hash<double>()(dbl());
    case TypeId::kBool:
      return std::hash<bool>()(boolean());
    case TypeId::kString:
      return std::hash<std::string_view>()(str_view());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case TypeId::kInt64:
      return std::to_string(int64());
    case TypeId::kDouble:
      return FormatDouble(dbl());
    case TypeId::kBool:
      return boolean() ? "true" : "false";
    case TypeId::kString:
      return "\"" + str() + "\"";
  }
  return "?";
}

}  // namespace seq
