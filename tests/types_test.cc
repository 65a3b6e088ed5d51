// Unit tests for the types module: Span arithmetic, Value semantics,
// Schema operations, Record helpers.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "types/record.h"
#include "types/schema.h"
#include "types/span.h"
#include "types/value.h"

namespace seq {
namespace {

using namespace std::string_literals;

// --- Span -------------------------------------------------------------------

TEST(SpanTest, DefaultIsEmpty) {
  Span s;
  EXPECT_TRUE(s.IsEmpty());
  EXPECT_EQ(s.Length(), 0);
}

TEST(SpanTest, BasicProperties) {
  Span s = Span::Of(10, 20);
  EXPECT_FALSE(s.IsEmpty());
  EXPECT_FALSE(s.IsUnbounded());
  EXPECT_EQ(s.Length(), 11);
  EXPECT_TRUE(s.Contains(10));
  EXPECT_TRUE(s.Contains(20));
  EXPECT_FALSE(s.Contains(9));
  EXPECT_FALSE(s.Contains(21));
}

TEST(SpanTest, PointSpan) {
  Span s = Span::Point(5);
  EXPECT_EQ(s.Length(), 1);
  EXPECT_TRUE(s.Contains(5));
}

TEST(SpanTest, UnboundedProperties) {
  Span u = Span::Unbounded();
  EXPECT_TRUE(u.IsUnbounded());
  EXPECT_FALSE(u.IsEmpty());
  EXPECT_TRUE(u.Contains(0));
  EXPECT_TRUE(u.Contains(kMaxPosition));
}

TEST(SpanTest, IntersectOverlapping) {
  EXPECT_EQ(Span::Of(1, 10).Intersect(Span::Of(5, 20)), Span::Of(5, 10));
}

TEST(SpanTest, IntersectDisjointIsEmpty) {
  EXPECT_TRUE(Span::Of(1, 4).Intersect(Span::Of(5, 9)).IsEmpty());
}

TEST(SpanTest, IntersectWithEmpty) {
  EXPECT_TRUE(Span::Of(1, 10).Intersect(Span::Empty()).IsEmpty());
  EXPECT_TRUE(Span::Empty().Intersect(Span::Of(1, 10)).IsEmpty());
}

TEST(SpanTest, IntersectWithUnbounded) {
  EXPECT_EQ(Span::Of(3, 7).Intersect(Span::Unbounded()), Span::Of(3, 7));
}

TEST(SpanTest, HullMergesAndIgnoresEmpty) {
  EXPECT_EQ(Span::Of(1, 3).Hull(Span::Of(10, 12)), Span::Of(1, 12));
  EXPECT_EQ(Span::Empty().Hull(Span::Of(2, 4)), Span::Of(2, 4));
  EXPECT_EQ(Span::Of(2, 4).Hull(Span::Empty()), Span::Of(2, 4));
}

TEST(SpanTest, ShiftMovesBothBounds) {
  EXPECT_EQ(Span::Of(5, 10).Shift(3), Span::Of(8, 13));
  EXPECT_EQ(Span::Of(5, 10).Shift(-5), Span::Of(0, 5));
}

TEST(SpanTest, ShiftKeepsSentinelsSticky) {
  Span u = Span::Unbounded();
  EXPECT_TRUE(u.Shift(1000).IsUnbounded());
  Span half = Span::Of(kMinPosition, 100);
  Span shifted = half.Shift(10);
  EXPECT_EQ(shifted.start, kMinPosition);
  EXPECT_EQ(shifted.end, 110);
}

TEST(SpanTest, ExtendEnd) {
  EXPECT_EQ(Span::Of(1, 5).ExtendEnd(3), Span::Of(1, 8));
  EXPECT_TRUE(Span::Empty().ExtendEnd(3).IsEmpty());
}

TEST(SpanTest, EqualityTreatsAllEmptyAsEqual) {
  EXPECT_EQ(Span::Empty(), Span::Of(10, 5));
  EXPECT_NE(Span::Of(1, 2), Span::Of(1, 3));
}

TEST(SpanTest, ToStringForms) {
  EXPECT_EQ(Span::Of(1, 5).ToString(), "[1,5]");
  EXPECT_EQ(Span::Empty().ToString(), "(empty)");
  EXPECT_EQ(Span::Unbounded().ToString(), "[-inf,+inf]");
}

// --- Value ------------------------------------------------------------------

TEST(ValueTest, TypeAccessors) {
  EXPECT_EQ(Value::Int64(3).int64(), 3);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).dbl(), 2.5);
  EXPECT_TRUE(Value::Bool(true).boolean());
  EXPECT_EQ(Value::String("abc").str(), "abc");
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Int64(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int64(3).Compare(Value::Double(3.5)), 0);
  EXPECT_GT(Value::Double(4.0).Compare(Value::Int64(3)), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::String("apple").Compare(Value::String("banana")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, BoolComparison) {
  EXPECT_LT(Value::Bool(false).Compare(Value::Bool(true)), 0);
  EXPECT_EQ(Value::Bool(true), Value::Bool(true));
}

TEST(ValueTest, EqualNumericsHashEqual) {
  EXPECT_EQ(Value::Int64(7).Hash(), Value::Double(7.0).Hash());
}

TEST(ValueTest, AsDoubleCoercesIntegers) {
  EXPECT_DOUBLE_EQ(Value::Int64(4).AsDouble(), 4.0);
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Int64(42).ToString(), "42");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::String("hi").ToString(), "\"hi\"");
}

TEST(ValueTest, TypeNames) {
  EXPECT_STREQ(TypeName(TypeId::kInt64), "int64");
  EXPECT_STREQ(TypeName(TypeId::kString), "string");
  EXPECT_TRUE(IsNumeric(TypeId::kDouble));
  EXPECT_FALSE(IsNumeric(TypeId::kBool));
}

static_assert(sizeof(Value) == 16);

TEST(ValueTest, StringInlineHeapBoundary) {
  // 0 and 14 bytes live inline (no heap block); 15 bytes is the first
  // heap-backed length.
  for (size_t len : {size_t{0}, size_t{1}, Value::kInlineCapacity,
                     Value::kInlineCapacity + 1, size_t{200}}) {
    const std::string s(len, 'x');
    Value v = Value::String(s);
    EXPECT_EQ(v.type(), TypeId::kString);
    EXPECT_EQ(v.str(), s) << len;
    EXPECT_EQ(v.str_view().size(), len);
    EXPECT_EQ(v.HeapBytes() == 0, len <= Value::kInlineCapacity) << len;
  }
  EXPECT_EQ(Value::kInlineCapacity, 14u);
  // Every generated label fits inline.
  EXPECT_EQ(Value::String("volcano123456").HeapBytes(), 0u);
}

TEST(ValueTest, StringsKeepEmbeddedNuls) {
  for (const std::string& s :
       {"a\0b"s, "\0"s, "long string with a \0 inside it"s}) {
    Value v = Value::String(s);
    EXPECT_EQ(v.str(), s);
    EXPECT_EQ(v.str_view().size(), s.size());
    Value copy = v;
    EXPECT_EQ(copy.Compare(v), 0);
  }
  EXPECT_LT(Value::String("a\0a"s).Compare(Value::String("a\0b"s)), 0);
  EXPECT_NE(Value::String("a\0"s), Value::String("a"));
}

std::vector<Value> OneOfEachKind() {
  return {Value::Int64(-7),
          Value::Double(2.25),
          Value::Bool(true),
          Value::String("short"),
          Value::String(""),
          Value::String("a string well past the inline capacity")};
}

void ExpectSameValue(const Value& a, const Value& b, const std::string& ctx) {
  ASSERT_EQ(a.type(), b.type()) << ctx;
  EXPECT_EQ(a.Compare(b), 0) << ctx;
  EXPECT_EQ(a.Hash(), b.Hash()) << ctx;
}

TEST(ValueTest, CopyMoveAndSwapAcrossEveryTypePair) {
  const std::vector<Value> kinds = OneOfEachKind();
  for (size_t i = 0; i < kinds.size(); ++i) {
    for (size_t j = 0; j < kinds.size(); ++j) {
      const std::string ctx = kinds[i].ToString() + " <- " +
                              kinds[j].ToString();
      // Copy construction and copy assignment over a live value.
      Value copied(kinds[j]);
      ExpectSameValue(copied, kinds[j], ctx + " copy-construct");
      Value assigned = kinds[i];
      assigned = kinds[j];
      ExpectSameValue(assigned, kinds[j], ctx + " copy-assign");
      // Move construction and move assignment; the source stays usable.
      Value source = kinds[j];
      Value moved(std::move(source));
      ExpectSameValue(moved, kinds[j], ctx + " move-construct");
      source = kinds[i];
      ExpectSameValue(source, kinds[i], ctx + " reuse moved-from");
      Value target = kinds[i];
      Value donor = kinds[j];
      target = std::move(donor);
      ExpectSameValue(target, kinds[j], ctx + " move-assign");
      // Swap both ways.
      Value a = kinds[i];
      Value b = kinds[j];
      std::swap(a, b);
      ExpectSameValue(a, kinds[j], ctx + " swap a");
      ExpectSameValue(b, kinds[i], ctx + " swap b");
    }
    // The originals are untouched by everything above.
    ExpectSameValue(kinds[i], OneOfEachKind()[i], "original");
  }
}

TEST(ValueTest, SelfAssignment) {
  for (const Value& kind : OneOfEachKind()) {
    Value v = kind;
    Value& alias = v;
    v = alias;
    ExpectSameValue(v, kind, kind.ToString() + " self copy");
    v = std::move(alias);
    ExpectSameValue(v, kind, kind.ToString() + " self move");
  }
}

TEST(ValueTest, StringHashMatchesStdHash) {
  for (const std::string& s :
       {std::string(), std::string("region7"), std::string(14, 'q'),
        std::string(15, 'q'), "x\0y"s,
        std::string(100, 'z')}) {
    EXPECT_EQ(Value::String(s).Hash(), std::hash<std::string>{}(s)) << s;
  }
}

TEST(ValueTest, CompareInlineAgainstHeapStrings) {
  const Value inline_short = Value::String("abc");             // inline
  const Value inline_full = Value::String("abcdefghijklmn");   // 14, inline
  const Value heap_longer = Value::String("abcdefghijklmno");  // 15, heap
  const Value heap_other = Value::String("abcdefghijklmnp");   // 15, heap
  EXPECT_LT(inline_short.Compare(heap_longer), 0);
  EXPECT_GT(heap_longer.Compare(inline_short), 0);
  EXPECT_LT(inline_full.Compare(heap_longer), 0);  // proper prefix
  EXPECT_GT(heap_longer.Compare(inline_full), 0);
  EXPECT_LT(heap_longer.Compare(heap_other), 0);
  EXPECT_GT(Value::String("b").Compare(heap_longer), 0);
  EXPECT_EQ(heap_longer.Compare(Value::String("abcdefghijklmno")), 0);
}

TEST(ValueTest, LongStringSharedAcrossThreads) {
  const std::string text(64, 'L');
  const Value shared = Value::String(text);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&shared, &text] {
      std::vector<Value> copies;
      for (int i = 0; i < 20000; ++i) {
        copies.push_back(shared);
        if (copies.size() == 64) {
          EXPECT_EQ(copies.back().str_view(), text);
          copies.clear();
        }
        Value moved = shared;
        Value sink = std::move(moved);
        sink = Value::Int64(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(shared.str(), text);
}

// --- Schema -----------------------------------------------------------------

SchemaPtr TwoFields() {
  return Schema::Make(
      {Field{"a", TypeId::kInt64}, Field{"b", TypeId::kDouble}});
}

TEST(SchemaTest, FindField) {
  SchemaPtr s = TwoFields();
  EXPECT_EQ(*s->FindField("a"), 0u);
  EXPECT_EQ(*s->FindField("b"), 1u);
  EXPECT_FALSE(s->FindField("c").has_value());
}

TEST(SchemaTest, FieldIndexErrors) {
  SchemaPtr s = TwoFields();
  EXPECT_TRUE(s->FieldIndex("a").ok());
  auto missing = s->FieldIndex("zzz");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, ProjectReordersAndRenames) {
  SchemaPtr s = TwoFields();
  SchemaPtr p = s->Project({1, 0}, {"bee", ""});
  ASSERT_EQ(p->num_fields(), 2u);
  EXPECT_EQ(p->field(0).name, "bee");
  EXPECT_EQ(p->field(0).type, TypeId::kDouble);
  EXPECT_EQ(p->field(1).name, "a");
}

TEST(SchemaTest, ConcatWithoutClash) {
  SchemaPtr l = TwoFields();
  SchemaPtr r = Schema::Make({Field{"c", TypeId::kBool}});
  SchemaPtr c = Schema::Concat(*l, *r);
  ASSERT_EQ(c->num_fields(), 3u);
  EXPECT_EQ(c->field(2).name, "c");
}

TEST(SchemaTest, ConcatRenamesClashes) {
  SchemaPtr l = TwoFields();
  SchemaPtr c = Schema::Concat(*l, *l);
  ASSERT_EQ(c->num_fields(), 4u);
  EXPECT_EQ(c->field(2).name, "a_r");
  EXPECT_EQ(c->field(3).name, "b_r");
}

TEST(SchemaTest, ConcatRenamesRepeatedClashes) {
  SchemaPtr one = Schema::Make({Field{"x", TypeId::kInt64}});
  SchemaPtr two = Schema::Concat(*one, *one);  // x, x_r
  SchemaPtr three = Schema::Concat(*two, *one);
  ASSERT_EQ(three->num_fields(), 3u);
  EXPECT_EQ(three->field(2).name, "x_r2");
}

TEST(SchemaTest, ConcatFieldsTrackOrigins) {
  SchemaPtr l = TwoFields();
  SchemaPtr r = Schema::Make({Field{"a", TypeId::kBool}});
  auto origins = Schema::ConcatFields(*l, *r);
  ASSERT_EQ(origins.size(), 3u);
  EXPECT_EQ(origins[0].side, 0);
  EXPECT_EQ(origins[0].out_name, "a");
  EXPECT_EQ(origins[2].side, 1);
  EXPECT_EQ(origins[2].index, 0u);
  EXPECT_EQ(origins[2].out_name, "a_r");
}

TEST(SchemaTest, ToStringListsFields) {
  EXPECT_EQ(TwoFields()->ToString(), "<a:int64, b:double>");
}

// --- Record -----------------------------------------------------------------

TEST(RecordTest, MatchesSchema) {
  SchemaPtr s = TwoFields();
  Record good{Value::Int64(1), Value::Double(2.0)};
  Record wrong_arity{Value::Int64(1)};
  Record wrong_type{Value::Int64(1), Value::Bool(true)};
  EXPECT_TRUE(RecordMatchesSchema(good, *s));
  EXPECT_FALSE(RecordMatchesSchema(wrong_arity, *s));
  EXPECT_FALSE(RecordMatchesSchema(wrong_type, *s));
}

TEST(RecordTest, ToStringIncludesNamesAndPosition) {
  SchemaPtr s = TwoFields();
  PosRecord pr{7, Record{Value::Int64(1), Value::Double(2.5)}};
  EXPECT_EQ(PosRecordToString(pr, *s), "7: (a=1, b=2.5)");
}

}  // namespace
}  // namespace seq
