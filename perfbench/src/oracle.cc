#include "oracle.h"

#include <cmath>

#include "core/views.h"
#include "parser/parser.h"
#include "tests/reference_eval.h"

namespace seq::perfbench {

bool SameAnswer(const std::vector<PosRecord>& got,
                const std::vector<PosRecord>& want, std::string* why) {
  if (got.size() != want.size()) {
    *why = "row count " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const PosRecord& a = got[i];
    const PosRecord& b = want[i];
    if (a.pos != b.pos || a.rec.size() != b.rec.size()) {
      *why = "row " + std::to_string(i) + ": position or arity differs";
      return false;
    }
    for (size_t j = 0; j < a.rec.size(); ++j) {
      const Value& va = a.rec[j];
      const Value& vb = b.rec[j];
      const bool dbl =
          va.type() == TypeId::kDouble || vb.type() == TypeId::kDouble;
      const bool same =
          dbl ? std::abs(va.AsDouble() - vb.AsDouble()) <=
                    1e-6 * (1.0 + std::abs(vb.AsDouble()))
              : va.Compare(vb) == 0;
      if (!same) {
        *why = "position " + std::to_string(a.pos) + " column " +
               std::to_string(j) + ": " + va.ToString() +
               " != " + vb.ToString();
        return false;
      }
    }
  }
  return true;
}

bool OracleCheck(LocalSession* session, const Request& request, Span range,
                 std::vector<PosRecord>* rows, std::string* why) {
  Result<ParsedProgram> program = ParseSequin(request.text);
  if (!program.ok()) {
    *why = program.status().ToString();
    return false;
  }
  Result<LogicalOpPtr> graph =
      InlineViews(program->main, program->definitions);
  if (!graph.ok()) {
    *why = graph.status().ToString();
    return false;
  }
  const RowSink sink = session->options().sink;
  session->options().sink = nullptr;
  session->range() = range;
  rows->clear();
  Result<uint64_t> id = session->Prepare(request.text);
  Status status = id.status();
  if (id.ok()) {
    Result<ExecuteReply> reply = session->ExecutePrepared(*id);
    status = reply.status();
    if (reply.ok()) *rows = std::move(reply->rows);
    Status closed = session->CloseStatement(*id);
    if (status.ok()) status = closed;
  }
  session->options().sink = sink;
  if (!status.ok()) {
    *why = status.ToString();
    return false;
  }
  // Horizon: the catalog's spans with slack, so unbounded-scope operators
  // (value offsets) search far enough back for exact answers.
  Span horizon = range;
  for (const std::string& name : session->engine().catalog().ListSequences()) {
    Result<const CatalogEntry*> entry = session->engine().catalog().Lookup(name);
    if (entry.ok() && (*entry)->kind == CatalogEntry::Kind::kBase) {
      const Span s = (*entry)->store->span();
      horizon = Span::Of(std::min(horizon.start, s.start),
                         std::max(horizon.end, s.end));
    }
  }
  horizon = Span::Of(horizon.start - 64, horizon.end + 64);
  testing::ReferenceEvaluator reference(&session->engine().catalog(), horizon);
  Result<std::vector<PosRecord>> want = reference.Materialize(**graph, range);
  if (!want.ok()) {
    *why = "reference: " + want.status().ToString();
    return false;
  }
  return SameAnswer(*rows, *want, why);
}

bool SelfTestRejectsCorruption(const std::vector<PosRecord>& rows) {
  std::vector<PosRecord> corrupted = rows;
  Record& rec = corrupted[corrupted.size() / 2].rec;
  if (rec.empty()) {
    corrupted[corrupted.size() / 2].pos += 1;
  } else if (rec[0].type() == TypeId::kDouble) {
    rec[0] = Value::Double(rec[0].dbl() + 0.5);
  } else if (rec[0].type() == TypeId::kInt64) {
    rec[0] = Value::Int64(rec[0].int64() + 1);
  } else if (rec[0].type() == TypeId::kString) {
    rec[0] = Value::String(rec[0].str() + "~");
  } else {
    rec[0] = Value::Bool(!rec[0].boolean());
  }
  std::string why;
  return !SameAnswer(corrupted, rows, &why);
}

}  // namespace seq::perfbench
