#include "engine/sql_parser.h"

#include <cstdlib>

#include "common/string_util.h"
#include "engine/sql_lexer.h"

namespace maxson::engine {

namespace {

using storage::Value;

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStatement> ParseSelect() {
    MAXSON_RETURN_NOT_OK(ExpectKeyword("select"));
    SelectStatement stmt;
    if (PeekKeyword("distinct")) {
      stmt.distinct = true;
      Advance();
    }

    // Projection list.
    while (true) {
      SelectItem item;
      MAXSON_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (PeekKeyword("as")) {
        Advance();
        MAXSON_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
      } else if (Peek().Is(TokenKind::kIdentifier) && !PeekAnyClauseKeyword()) {
        // Bare alias without AS.
        item.alias = Peek().text;
        Advance();
      }
      stmt.items.push_back(std::move(item));
      if (PeekOperator(",")) {
        Advance();
        continue;
      }
      break;
    }

    MAXSON_RETURN_NOT_OK(ExpectKeyword("from"));
    MAXSON_ASSIGN_OR_RETURN(stmt.from, ParseTableRef());

    if (PeekKeyword("join") || PeekKeyword("inner")) {
      if (PeekKeyword("inner")) Advance();
      MAXSON_RETURN_NOT_OK(ExpectKeyword("join"));
      MAXSON_ASSIGN_OR_RETURN(TableRef right, ParseTableRef());
      stmt.join = std::move(right);
      MAXSON_RETURN_NOT_OK(ExpectKeyword("on"));
      MAXSON_ASSIGN_OR_RETURN(stmt.join_condition, ParseExpr());
    }

    if (PeekKeyword("where")) {
      Advance();
      MAXSON_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }

    if (PeekKeyword("group")) {
      Advance();
      MAXSON_RETURN_NOT_OK(ExpectKeyword("by"));
      while (true) {
        MAXSON_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        stmt.group_by.push_back(std::move(e));
        if (PeekOperator(",")) {
          Advance();
          continue;
        }
        break;
      }
    }

    if (PeekKeyword("having")) {
      if (stmt.group_by.empty()) return Error("HAVING requires GROUP BY");
      Advance();
      MAXSON_ASSIGN_OR_RETURN(stmt.having, ParseExpr());
    }

    if (PeekKeyword("order")) {
      Advance();
      MAXSON_RETURN_NOT_OK(ExpectKeyword("by"));
      while (true) {
        OrderKey key;
        MAXSON_ASSIGN_OR_RETURN(key.expr, ParseExpr());
        if (PeekKeyword("desc")) {
          key.descending = true;
          Advance();
        } else if (PeekKeyword("asc")) {
          Advance();
        }
        stmt.order_by.push_back(std::move(key));
        if (PeekOperator(",")) {
          Advance();
          continue;
        }
        break;
      }
    }

    if (PeekKeyword("limit")) {
      Advance();
      if (!Peek().Is(TokenKind::kInteger)) {
        return Error("LIMIT expects an integer");
      }
      stmt.limit = std::strtoll(Peek().text.c_str(), nullptr, 10);
      Advance();
    }

    // Optional trailing semicolon token never produced by the lexer; just
    // require end of input.
    if (!Peek().Is(TokenKind::kEnd)) {
      return Error("unexpected trailing input: '" + Peek().text + "'");
    }
    return stmt;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  Status Error(const std::string& what) const {
    return Status::ParseError(what + " (near offset " +
                              std::to_string(Peek().offset) + ")");
  }

  bool PeekKeyword(std::string_view keyword) const {
    return Peek().IsKeyword(keyword);
  }
  bool PeekOperator(std::string_view op) const {
    return Peek().Is(TokenKind::kOperator) && Peek().text == op;
  }
  bool PeekAnyClauseKeyword() const {
    static const char* kClauses[] = {"from",  "where", "group", "order",
                                     "limit", "join",  "inner", "on",
                                     "and",   "or",    "as",    "asc",
                                     "desc",  "between"};
    for (const char* kw : kClauses) {
      if (Peek().IsKeyword(kw)) return true;
    }
    return false;
  }

  Status ExpectKeyword(std::string_view keyword) {
    if (!PeekKeyword(keyword)) {
      return Error("expected " + std::string(keyword));
    }
    Advance();
    return Status::Ok();
  }

  Status ExpectOperator(std::string_view op) {
    if (!PeekOperator(op)) {
      return Error("expected '" + std::string(op) + "'");
    }
    Advance();
    return Status::Ok();
  }

  Result<std::string> ExpectIdentifier() {
    if (!Peek().Is(TokenKind::kIdentifier)) {
      return Error("expected identifier");
    }
    std::string name = Peek().text;
    Advance();
    return name;
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    MAXSON_ASSIGN_OR_RETURN(std::string first, ExpectIdentifier());
    if (PeekOperator(".")) {
      Advance();
      MAXSON_ASSIGN_OR_RETURN(ref.table, ExpectIdentifier());
      ref.database = std::move(first);
    } else {
      ref.table = std::move(first);
    }
    if (Peek().Is(TokenKind::kIdentifier) && !PeekAnyClauseKeyword()) {
      ref.alias = Peek().text;
      Advance();
    }
    return ref;
  }

  // Expression grammar (precedence climbing):
  //   expr       := or_expr
  //   or_expr    := and_expr (OR and_expr)*
  //   and_expr   := not_expr (AND not_expr)*
  //   not_expr   := NOT not_expr | predicate
  //   predicate  := additive (cmp additive | BETWEEN a AND b
  //                 | IS [NOT] NULL)?
  //   additive   := term ((+|-) term)*
  //   term       := unary ((*|/|%) unary)*
  //   unary      := - unary | primary
  //   primary    := literal | call | column | ( expr ) | *
  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    MAXSON_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (PeekKeyword("or")) {
      Advance();
      MAXSON_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = Expr::Binary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    MAXSON_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (PeekKeyword("and")) {
      Advance();
      MAXSON_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = Expr::Binary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (PeekKeyword("not")) {
      Advance();
      MAXSON_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return Expr::Unary(UnaryOp::kNot, std::move(operand));
    }
    return ParsePredicate();
  }

  Result<ExprPtr> ParsePredicate() {
    MAXSON_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    if (Peek().Is(TokenKind::kOperator)) {
      const std::string& op = Peek().text;
      BinaryOp bin;
      if (op == "=") {
        bin = BinaryOp::kEq;
      } else if (op == "!=") {
        bin = BinaryOp::kNe;
      } else if (op == "<") {
        bin = BinaryOp::kLt;
      } else if (op == "<=") {
        bin = BinaryOp::kLe;
      } else if (op == ">") {
        bin = BinaryOp::kGt;
      } else if (op == ">=") {
        bin = BinaryOp::kGe;
      } else {
        return lhs;
      }
      Advance();
      MAXSON_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      return Expr::Binary(bin, std::move(lhs), std::move(rhs));
    }
    if (PeekKeyword("between")) {
      Advance();
      MAXSON_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      MAXSON_RETURN_NOT_OK(ExpectKeyword("and"));
      MAXSON_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      // a BETWEEN lo AND hi  ==>  a >= lo AND a <= hi
      ExprPtr ge = Expr::Binary(BinaryOp::kGe, lhs->Clone(), std::move(lo));
      ExprPtr le = Expr::Binary(BinaryOp::kLe, std::move(lhs), std::move(hi));
      return Expr::Binary(BinaryOp::kAnd, std::move(ge), std::move(le));
    }
    // [NOT] IN (list) and [NOT] LIKE 'pattern'.
    {
      bool negated = false;
      if (PeekKeyword("not") &&
          (Peek(1).IsKeyword("in") || Peek(1).IsKeyword("like"))) {
        negated = true;
        Advance();
      }
      if (PeekKeyword("in")) {
        Advance();
        MAXSON_RETURN_NOT_OK(ExpectOperator("("));
        std::vector<ExprPtr> args;
        args.push_back(std::move(lhs));
        while (true) {
          MAXSON_ASSIGN_OR_RETURN(ExprPtr item, ParseExpr());
          args.push_back(std::move(item));
          if (PeekOperator(",")) {
            Advance();
            continue;
          }
          break;
        }
        MAXSON_RETURN_NOT_OK(ExpectOperator(")"));
        ExprPtr in = Expr::Function("in", std::move(args));
        return negated ? Expr::Unary(UnaryOp::kNot, std::move(in))
                       : std::move(in);
      }
      if (PeekKeyword("like")) {
        Advance();
        MAXSON_ASSIGN_OR_RETURN(ExprPtr pattern, ParseAdditive());
        std::vector<ExprPtr> args;
        args.push_back(std::move(lhs));
        args.push_back(std::move(pattern));
        ExprPtr like = Expr::Function("like", std::move(args));
        return negated ? Expr::Unary(UnaryOp::kNot, std::move(like))
                       : std::move(like);
      }
      if (negated) return Error("dangling NOT");
    }
    if (PeekKeyword("is")) {
      Advance();
      bool negated = false;
      if (PeekKeyword("not")) {
        negated = true;
        Advance();
      }
      MAXSON_RETURN_NOT_OK(ExpectKeyword("null"));
      return Expr::Unary(negated ? UnaryOp::kIsNotNull : UnaryOp::kIsNull,
                         std::move(lhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    MAXSON_ASSIGN_OR_RETURN(ExprPtr lhs, ParseTerm());
    while (PeekOperator("+") || PeekOperator("-")) {
      const BinaryOp op =
          Peek().text == "+" ? BinaryOp::kAdd : BinaryOp::kSub;
      Advance();
      MAXSON_ASSIGN_OR_RETURN(ExprPtr rhs, ParseTerm());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseTerm() {
    MAXSON_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (PeekOperator("*") || PeekOperator("/") || PeekOperator("%")) {
      BinaryOp op = BinaryOp::kMul;
      if (Peek().text == "/") op = BinaryOp::kDiv;
      if (Peek().text == "%") op = BinaryOp::kMod;
      Advance();
      MAXSON_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (PeekOperator("-")) {
      Advance();
      MAXSON_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      const bool numeric_literal = operand->kind == ExprKind::kLiteral &&
                                   (operand->literal.is_int64() ||
                                    operand->literal.is_double());
      ExprPtr negated = Expr::Unary(UnaryOp::kNeg, std::move(operand));
      if (!numeric_literal) return negated;
      // Fold `-literal` to the literal evaluating it yields, so a predicate
      // such as `x > -2.2` reaches ExtractSargs as `column op literal`.
      MAXSON_ASSIGN_OR_RETURN(Value folded,
                              EvaluateExpr(*negated, EvalContext{}));
      return Expr::Literal(std::move(folded));
    }
    return ParsePrimary();
  }

  static bool IsAggregateName(const std::string& name, AggKind* agg) {
    if (EqualsIgnoreCase(name, "count")) {
      *agg = AggKind::kCount;
    } else if (EqualsIgnoreCase(name, "sum")) {
      *agg = AggKind::kSum;
    } else if (EqualsIgnoreCase(name, "avg")) {
      *agg = AggKind::kAvg;
    } else if (EqualsIgnoreCase(name, "min")) {
      *agg = AggKind::kMin;
    } else if (EqualsIgnoreCase(name, "max")) {
      *agg = AggKind::kMax;
    } else {
      return false;
    }
    return true;
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& token = Peek();
    switch (token.kind) {
      case TokenKind::kInteger: {
        ExprPtr e = Expr::Literal(
            Value::Int64(std::strtoll(token.text.c_str(), nullptr, 10)));
        Advance();
        return e;
      }
      case TokenKind::kFloat: {
        ExprPtr e = Expr::Literal(
            Value::Double(std::strtod(token.text.c_str(), nullptr)));
        Advance();
        return e;
      }
      case TokenKind::kString: {
        ExprPtr e = Expr::Literal(Value::String(token.text));
        Advance();
        return e;
      }
      case TokenKind::kOperator:
        if (token.text == "(") {
          Advance();
          MAXSON_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
          MAXSON_RETURN_NOT_OK(ExpectOperator(")"));
          return inner;
        }
        if (token.text == "*") {
          Advance();
          return Expr::Star();
        }
        return Error("unexpected token '" + token.text + "'");
      case TokenKind::kIdentifier: {
        if (token.IsKeyword("true") || token.IsKeyword("false")) {
          ExprPtr e = Expr::Literal(Value::Bool(token.IsKeyword("true")));
          Advance();
          return e;
        }
        if (token.IsKeyword("null")) {
          Advance();
          return Expr::Literal(Value::Null());
        }
        std::string name = token.text;
        Advance();
        if (PeekOperator("(")) {
          Advance();
          AggKind agg;
          std::vector<ExprPtr> args;
          if (!PeekOperator(")")) {
            while (true) {
              MAXSON_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
              args.push_back(std::move(arg));
              if (PeekOperator(",")) {
                Advance();
                continue;
              }
              break;
            }
          }
          MAXSON_RETURN_NOT_OK(ExpectOperator(")"));
          if (IsAggregateName(name, &agg)) {
            if (args.empty()) return Error(name + "() needs an argument");
            if (args.size() != 1) return Error(name + "() takes one argument");
            // COUNT(*) arrives as a kStar argument.
            if (args[0]->kind == ExprKind::kStar) {
              if (agg != AggKind::kCount) {
                return Error("'*' only valid in count(*)");
              }
              return Expr::Aggregate(AggKind::kCount, nullptr);
            }
            return Expr::Aggregate(agg, std::move(args[0]));
          }
          return Expr::Function(ToLower(name), std::move(args));
        }
        // Qualified column "a.b".
        if (PeekOperator(".")) {
          Advance();
          MAXSON_ASSIGN_OR_RETURN(std::string member, ExpectIdentifier());
          return Expr::ColumnRef(name + "." + member);
        }
        return Expr::ColumnRef(std::move(name));
      }
      case TokenKind::kEnd:
        return Error("unexpected end of input");
    }
    return Error("unexpected token");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

namespace {

/// Trims whitespace and a trailing semicolon, then tokenizes.
Result<std::vector<Token>> TokenizeStatement(std::string_view sql) {
  std::string_view trimmed = StripWhitespace(sql);
  if (!trimmed.empty() && trimmed.back() == ';') {
    trimmed = StripWhitespace(trimmed.substr(0, trimmed.size() - 1));
  }
  return Tokenize(trimmed);
}

}  // namespace

Result<SelectStatement> ParseSql(std::string_view sql) {
  MAXSON_ASSIGN_OR_RETURN(std::vector<Token> tokens, TokenizeStatement(sql));
  Parser parser(std::move(tokens));
  return parser.ParseSelect();
}

Result<Statement> ParseStatement(std::string_view sql) {
  MAXSON_ASSIGN_OR_RETURN(std::vector<Token> tokens, TokenizeStatement(sql));
  Statement stmt;
  // Peel an EXPLAIN [ANALYZE] prefix off the token stream, then hand the
  // remainder to the SELECT grammar.
  size_t skip = 0;
  if (!tokens.empty() && tokens[0].IsKeyword("explain")) {
    stmt.kind = StatementKind::kExplain;
    skip = 1;
    if (tokens.size() > 1 && tokens[1].IsKeyword("analyze")) {
      stmt.kind = StatementKind::kExplainAnalyze;
      skip = 2;
    }
  }
  if (skip > 0) tokens.erase(tokens.begin(), tokens.begin() + skip);
  Parser parser(std::move(tokens));
  MAXSON_ASSIGN_OR_RETURN(stmt.select, parser.ParseSelect());
  return stmt;
}

}  // namespace maxson::engine
