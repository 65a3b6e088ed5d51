#include "parser/unparse.h"

#include <charconv>
#include <sstream>
#include <string_view>

#include "common/logging.h"

namespace seq {
namespace {

/// Writes a double literal so that the parser reads back the same bits:
/// the shortest round-trip digits in fixed notation (the lexer has no
/// exponent syntax), with ".0" added to whole numbers so they lex as
/// doubles rather than int64s. FormatDouble's 6-significant-digit display
/// form would change the literal.
void UnparseDouble(double v, std::ostringstream* out) {
  // Fixed notation of any finite double fits: at most 309 integer digits,
  // or "0." plus 323 fraction digits.
  char buf[400];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::fixed);
  SEQ_CHECK(ec == std::errc());
  std::string_view text(buf, static_cast<size_t>(end - buf));
  *out << text;
  if (text.find_first_not_of("-0123456789") == std::string_view::npos) {
    *out << ".0";
  }
}

void UnparseExprImpl(const Expr& expr, std::ostringstream* out) {
  switch (expr.kind()) {
    case ExprKind::kColumn:
      if (expr.side() == 1) {
        *out << "right." << expr.column_name();
      } else {
        *out << expr.column_name();
      }
      return;
    case ExprKind::kLiteral: {
      const Value& v = expr.literal();
      if (v.type() == TypeId::kString) {
        *out << "\"" << v.str_view() << "\"";
      } else if (v.type() == TypeId::kDouble) {
        UnparseDouble(v.dbl(), out);
      } else {
        *out << v.ToString();
      }
      return;
    }
    case ExprKind::kPosition:
      *out << "pos()";
      return;
    case ExprKind::kUnary:
      switch (expr.unary_op()) {
        case UnaryOp::kNot:
          *out << "not ";
          UnparseExprImpl(*expr.operand(), out);
          return;
        case UnaryOp::kNeg:
          *out << "-";
          UnparseExprImpl(*expr.operand(), out);
          return;
        case UnaryOp::kAbs:
          *out << "abs(";
          UnparseExprImpl(*expr.operand(), out);
          *out << ")";
          return;
      }
      return;
    case ExprKind::kBinary:
      *out << "(";
      UnparseExprImpl(*expr.left(), out);
      *out << " " << BinaryOpName(expr.binary_op()) << " ";
      UnparseExprImpl(*expr.right(), out);
      *out << ")";
      return;
  }
}

Status UnparseOp(const LogicalOp& op, std::ostringstream* out) {
  switch (op.kind()) {
    case OpKind::kBaseRef:
      *out << op.seq_name();
      return Status::OK();
    case OpKind::kConstantRef:
      *out << "const(" << op.seq_name() << ")";
      return Status::OK();
    case OpKind::kSelect:
      *out << "select(";
      SEQ_RETURN_IF_ERROR(UnparseOp(*op.input(), out));
      *out << ", " << UnparseExpr(*op.predicate()) << ")";
      return Status::OK();
    case OpKind::kProject: {
      *out << "project(";
      SEQ_RETURN_IF_ERROR(UnparseOp(*op.input(), out));
      for (size_t i = 0; i < op.columns().size(); ++i) {
        *out << ", " << op.columns()[i];
        if (i < op.renames().size() && !op.renames()[i].empty() &&
            op.renames()[i] != op.columns()[i]) {
          *out << " as " << op.renames()[i];
        }
      }
      *out << ")";
      return Status::OK();
    }
    case OpKind::kPositionalOffset:
      *out << "offset(";
      SEQ_RETURN_IF_ERROR(UnparseOp(*op.input(), out));
      *out << ", " << op.offset() << ")";
      return Status::OK();
    case OpKind::kValueOffset:
      if (op.offset() == -1) {
        *out << "prev(";
        SEQ_RETURN_IF_ERROR(UnparseOp(*op.input(), out));
        *out << ")";
      } else if (op.offset() == 1) {
        *out << "next(";
        SEQ_RETURN_IF_ERROR(UnparseOp(*op.input(), out));
        *out << ")";
      } else {
        *out << "voffset(";
        SEQ_RETURN_IF_ERROR(UnparseOp(*op.input(), out));
        *out << ", " << op.offset() << ")";
      }
      return Status::OK();
    case OpKind::kWindowAgg: {
      *out << AggFuncName(op.agg_func()) << "(";
      SEQ_RETURN_IF_ERROR(UnparseOp(*op.input(), out));
      *out << ", " << op.agg_column() << ", ";
      switch (op.window_kind()) {
        case WindowKind::kTrailing:
          *out << "over " << op.window();
          break;
        case WindowKind::kRunning:
          *out << "running";
          break;
        case WindowKind::kAll:
          *out << "over all";
          break;
      }
      if (!op.output_name().empty()) {
        *out << ", as " << op.output_name();
      }
      *out << ")";
      return Status::OK();
    }
    case OpKind::kCompose:
      *out << "compose(";
      SEQ_RETURN_IF_ERROR(UnparseOp(*op.input(0), out));
      *out << ", ";
      SEQ_RETURN_IF_ERROR(UnparseOp(*op.input(1), out));
      if (op.predicate() != nullptr) {
        *out << ", " << UnparseExpr(*op.predicate());
      }
      *out << ")";
      return Status::OK();
    case OpKind::kCollapse:
      *out << "collapse(";
      SEQ_RETURN_IF_ERROR(UnparseOp(*op.input(), out));
      *out << ", " << op.collapse_factor() << ", "
           << AggFuncName(op.agg_func()) << ", " << op.agg_column();
      if (!op.output_name().empty()) {
        *out << ", as " << op.output_name();
      }
      *out << ")";
      return Status::OK();
    case OpKind::kExpand:
      *out << "expand(";
      SEQ_RETURN_IF_ERROR(UnparseOp(*op.input(), out));
      *out << ", " << op.expand_factor() << ")";
      return Status::OK();
  }
  return Status::Internal("unknown operator kind");
}

}  // namespace

std::string UnparseExpr(const Expr& expr) {
  std::ostringstream out;
  UnparseExprImpl(expr, &out);
  return out.str();
}

Result<std::string> UnparseQuery(const LogicalOp& graph,
                                 const std::string& name) {
  std::ostringstream out;
  out << name << " = ";
  SEQ_RETURN_IF_ERROR(UnparseOp(graph, &out));
  out << ";";
  return out.str();
}

}  // namespace seq
