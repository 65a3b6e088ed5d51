#include "parser/lexer.h"

#include <cctype>
#include <charconv>
#include <system_error>

namespace seq {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& source) {
  std::vector<Token> tokens;
  size_t i = 0;
  size_t line = 1;
  size_t col = 1;
  auto advance = [&](size_t n) {
    for (size_t k = 0; k < n; ++k) {
      if (i < source.size() && source[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
      ++i;
    }
  };
  while (i < source.size()) {
    char c = source[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }
    if (c == '#') {
      while (i < source.size() && source[i] != '\n') advance(1);
      continue;
    }
    Token tok;
    tok.line = line;
    tok.column = col;
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < source.size() && IsIdentChar(source[i])) advance(1);
      tok.kind = TokKind::kIdent;
      tok.text = source.substr(start, i - start);
      tokens.push_back(std::move(tok));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      bool is_double = false;
      while (i < source.size() &&
             (std::isdigit(static_cast<unsigned char>(source[i])) ||
              source[i] == '.')) {
        if (source[i] == '.') {
          // Distinguish "1.5" from "seq.field": a dot not followed by a
          // digit ends the number.
          if (i + 1 >= source.size() ||
              !std::isdigit(static_cast<unsigned char>(source[i + 1]))) {
            break;
          }
          is_double = true;
        }
        advance(1);
      }
      std::string text = source.substr(start, i - start);
      // from_chars accepts subnormal doubles, so an unparsed denorm_min
      // reads back, and reports a value that cannot be represented, such
      // as a 40-digit integer or a 400-digit double, as an error.
      const char* first = text.data();
      const char* last = first + text.size();
      std::from_chars_result parsed;
      if (is_double) {
        tok.kind = TokKind::kDouble;
        parsed = std::from_chars(first, last, tok.double_value);
      } else {
        tok.kind = TokKind::kInt;
        parsed = std::from_chars(first, last, tok.int_value);
      }
      if (parsed.ec != std::errc() || parsed.ptr != last) {
        return Status::ParseError("numeric literal '" + text +
                                  "' out of range at line " +
                                  std::to_string(tok.line) + ", column " +
                                  std::to_string(tok.column));
      }
      tok.text = std::move(text);
      tokens.push_back(std::move(tok));
      continue;
    }
    if (c == '"') {
      advance(1);
      std::string body;
      while (i < source.size() && source[i] != '"') {
        body.push_back(source[i]);
        advance(1);
      }
      if (i >= source.size()) {
        return Status::ParseError("unterminated string literal at line " +
                                  std::to_string(tok.line));
      }
      advance(1);  // closing quote
      tok.kind = TokKind::kString;
      tok.text = std::move(body);
      tokens.push_back(std::move(tok));
      continue;
    }
    // Two-character operators first.
    auto two = source.substr(i, 2);
    if (two == "<=" || two == ">=" || two == "==" || two == "!=") {
      tok.kind = TokKind::kSymbol;
      tok.text = two;
      advance(2);
      tokens.push_back(std::move(tok));
      continue;
    }
    static const std::string kSingles = "(),;=.<>+-*/";
    if (kSingles.find(c) != std::string::npos) {
      tok.kind = TokKind::kSymbol;
      tok.text = std::string(1, c);
      advance(1);
      tokens.push_back(std::move(tok));
      continue;
    }
    return Status::ParseError("unexpected character '" + std::string(1, c) +
                              "' at line " + std::to_string(line) +
                              ", column " + std::to_string(col));
  }
  Token end;
  end.kind = TokKind::kEnd;
  end.line = line;
  end.column = col;
  tokens.push_back(std::move(end));
  return tokens;
}

}  // namespace seq
