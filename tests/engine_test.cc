#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "engine/engine.h"
#include "engine/planner.h"
#include "engine/sql_parser.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "storage/corc_writer.h"
#include "storage/file_system.h"

namespace maxson::engine {
namespace {

using storage::CorcWriter;
using storage::CorcWriterOptions;
using storage::FileSystem;
using storage::Schema;
using storage::TypeKind;
using storage::Value;

// ---------- SQL parser unit tests ----------

TEST(SqlLexerViaParserTest, RejectsBadInput) {
  EXPECT_FALSE(ParseSql("SELECT 'unterminated FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT ~ FROM t").ok());
  EXPECT_FALSE(ParseSql("").ok());
  EXPECT_FALSE(ParseSql("INSERT INTO t VALUES (1)").ok());
}

TEST(SqlParserTest, ParsesSimpleSelect) {
  auto stmt = ParseSql("SELECT a, b AS bee FROM mydb.T;");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_EQ(stmt->items.size(), 2u);
  EXPECT_EQ(stmt->items[0].expr->column, "a");
  EXPECT_TRUE(stmt->items[0].alias.empty());
  EXPECT_EQ(stmt->items[1].alias, "bee");
  EXPECT_EQ(stmt->from.database, "mydb");
  EXPECT_EQ(stmt->from.table, "T");
  EXPECT_EQ(stmt->limit, -1);
}

TEST(SqlParserTest, ParsesGetJsonObjectCalls) {
  auto stmt = ParseSql(
      "select mall_id, get_json_object(sale_logs, '$.item_id') as item_id "
      "from mydb.T where date between '20190101' and '20190103' "
      "order by get_json_object(sale_logs, '$.turnover') limit 1");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_EQ(stmt->items.size(), 2u);
  const Expr* call = stmt->items[1].expr.get();
  EXPECT_EQ(call->kind, ExprKind::kFunction);
  EXPECT_EQ(call->func_name, "get_json_object");
  ASSERT_EQ(call->children.size(), 2u);
  EXPECT_EQ(call->children[1]->literal.string_value(), "$.item_id");
  ASSERT_NE(stmt->where, nullptr);
  // BETWEEN desugars to (date >= lo AND date <= hi).
  EXPECT_EQ(stmt->where->bin_op, BinaryOp::kAnd);
  ASSERT_EQ(stmt->order_by.size(), 1u);
  EXPECT_FALSE(stmt->order_by[0].descending);
  EXPECT_EQ(stmt->limit, 1);
}

TEST(SqlParserTest, ParsesAggregatesAndGroupBy) {
  auto stmt = ParseSql(
      "SELECT k, COUNT(*), sum(v) FROM t GROUP BY k ORDER BY k DESC");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->items[1].expr->kind, ExprKind::kAggregate);
  EXPECT_EQ(stmt->items[1].expr->agg, AggKind::kCount);
  EXPECT_TRUE(stmt->items[1].expr->children.empty());  // COUNT(*)
  EXPECT_EQ(stmt->items[2].expr->agg, AggKind::kSum);
  ASSERT_EQ(stmt->group_by.size(), 1u);
  ASSERT_EQ(stmt->order_by.size(), 1u);
  EXPECT_TRUE(stmt->order_by[0].descending);
}

TEST(SqlParserTest, ParsesJoin) {
  auto stmt = ParseSql(
      "SELECT a.x FROM db.T a JOIN db.T b ON a.k = b.k AND a.j = b.j "
      "WHERE a.x > 5");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_TRUE(stmt->join.has_value());
  EXPECT_EQ(stmt->from.alias, "a");
  EXPECT_EQ(stmt->join->alias, "b");
  ASSERT_NE(stmt->join_condition, nullptr);
  ASSERT_NE(stmt->where, nullptr);
}

TEST(SqlParserTest, OperatorPrecedence) {
  auto stmt = ParseSql("SELECT 1 + 2 * 3 FROM t");
  ASSERT_TRUE(stmt.ok());
  // Must parse as 1 + (2 * 3).
  const Expr* e = stmt->items[0].expr.get();
  EXPECT_EQ(e->bin_op, BinaryOp::kAdd);
  EXPECT_EQ(e->children[1]->bin_op, BinaryOp::kMul);

  auto cmp = ParseSql("SELECT x FROM t WHERE a = 1 OR b = 2 AND c = 3");
  ASSERT_TRUE(cmp.ok());
  // OR is the top-level node: a=1 OR (b=2 AND c=3).
  EXPECT_EQ(cmp->where->bin_op, BinaryOp::kOr);
}

TEST(SqlParserTest, IsNullAndNot) {
  auto stmt = ParseSql("SELECT x FROM t WHERE x IS NOT NULL AND NOT y IS NULL");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->where->bin_op, BinaryOp::kAnd);
  EXPECT_EQ(stmt->where->children[0]->un_op, UnaryOp::kIsNotNull);
  EXPECT_EQ(stmt->where->children[1]->un_op, UnaryOp::kNot);
}

TEST(SqlParserTest, StringEscapes) {
  auto stmt = ParseSql("SELECT x FROM t WHERE s = 'it''s'");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where->children[1]->literal.string_value(), "it's");
}

// ---------- Expression evaluation unit tests ----------

TEST(ExprEvalTest, ArithmeticAndComparison) {
  EvalContext ctx;  // no batch: only literals
  auto eval = [&](ExprPtr e) { return EvaluateExpr(*e, ctx); };

  EXPECT_EQ(eval(Expr::Binary(BinaryOp::kAdd,
                              Expr::Literal(Value::Int64(2)),
                              Expr::Literal(Value::Int64(3))))
                ->int64_value(),
            5);
  EXPECT_DOUBLE_EQ(eval(Expr::Binary(BinaryOp::kDiv,
                                     Expr::Literal(Value::Int64(7)),
                                     Expr::Literal(Value::Int64(2))))
                       ->double_value(),
                   3.5);
  EXPECT_TRUE(eval(Expr::Binary(BinaryOp::kLt,
                                Expr::Literal(Value::Int64(1)),
                                Expr::Literal(Value::Double(1.5))))
                  ->bool_value());
  // Division by zero yields NULL, not a crash.
  EXPECT_TRUE(eval(Expr::Binary(BinaryOp::kDiv,
                                Expr::Literal(Value::Int64(1)),
                                Expr::Literal(Value::Int64(0))))
                  ->is_null());
  // NULL propagates through comparisons.
  EXPECT_TRUE(eval(Expr::Binary(BinaryOp::kEq, Expr::Literal(Value::Null()),
                                Expr::Literal(Value::Int64(1))))
                  ->is_null());
}

TEST(ExprEvalTest, BooleanLogic) {
  EvalContext ctx;
  auto T = [] { return Expr::Literal(Value::Bool(true)); };
  auto F = [] { return Expr::Literal(Value::Bool(false)); };
  EXPECT_TRUE(
      EvaluateExpr(*Expr::Binary(BinaryOp::kOr, F(), T()), ctx)->bool_value());
  EXPECT_FALSE(
      EvaluateExpr(*Expr::Binary(BinaryOp::kAnd, T(), F()), ctx)->bool_value());
  EXPECT_TRUE(EvaluateExpr(*Expr::Unary(UnaryOp::kNot, F()), ctx)->bool_value());
  EXPECT_TRUE(EvaluateExpr(*Expr::Unary(UnaryOp::kIsNull,
                                        Expr::Literal(Value::Null())),
                           ctx)
                  ->bool_value());
}

TEST(ExprEvalTest, UnboundColumnFails) {
  EvalContext ctx;
  auto e = Expr::ColumnRef("x");
  EXPECT_FALSE(EvaluateExpr(*e, ctx).ok());
}

TEST(ExprTest, CloneIsDeep) {
  ExprPtr original = Expr::Binary(BinaryOp::kAdd, Expr::ColumnRef("a"),
                                  Expr::Literal(Value::Int64(1)));
  ExprPtr copy = original->Clone();
  copy->children[0]->column = "b";
  EXPECT_EQ(original->children[0]->column, "a");
  EXPECT_EQ(original->ToString(), "(a + 1)");
}

TEST(ExprTest, ContainsAggregate) {
  ExprPtr agg = Expr::Binary(
      BinaryOp::kMul, Expr::Aggregate(AggKind::kSum, Expr::ColumnRef("x")),
      Expr::Literal(Value::Int64(2)));
  EXPECT_TRUE(agg->ContainsAggregate());
  EXPECT_FALSE(Expr::ColumnRef("x")->ContainsAggregate());
}

// ---------- End-to-end engine tests over a real warehouse ----------

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    warehouse_ = (std::filesystem::temp_directory_path() /
                  ("maxson_engine_test_" + std::to_string(::getpid())))
                     .string();
    ASSERT_TRUE(FileSystem::RemoveAll(warehouse_).ok());
    ASSERT_TRUE(catalog_.CreateDatabase("mydb").ok());

    // Table mydb.T: 2 part files of sales rows with a JSON payload column.
    Schema schema;
    schema.AddField("mall_id", TypeKind::kString);
    schema.AddField("date", TypeKind::kInt64);
    schema.AddField("sale_logs", TypeKind::kString);
    const std::string dir = warehouse_ + "/mydb/T";
    ASSERT_TRUE(FileSystem::MakeDirs(dir).ok());
    int row_id = 0;
    for (int file = 0; file < 2; ++file) {
      CorcWriterOptions options;
      options.rows_per_group = 4;
      CorcWriter writer(dir + "/" + FileSystem::PartFileName(file), schema,
                        options);
      ASSERT_TRUE(writer.Open().ok());
      for (int i = 0; i < 10; ++i, ++row_id) {
        const std::string json =
            "{\"item_id\":" + std::to_string(row_id) +
            ",\"item_name\":\"item" + std::to_string(row_id % 3) +
            "\",\"sale_count\":" + std::to_string(10 + row_id) +
            ",\"turnover\":" + std::to_string(row_id * 5) + "}";
        ASSERT_TRUE(writer
                        .AppendRow({Value::String("m" + std::to_string(file)),
                                    Value::Int64(20190101 + row_id % 3),
                                    Value::String(json)})
                        .ok());
      }
      ASSERT_TRUE(writer.Close().ok());
    }
    catalog::TableInfo info;
    info.database = "mydb";
    info.name = "T";
    info.schema = schema;
    info.location = dir;
    ASSERT_TRUE(catalog_.CreateTable(info).ok());
  }

  void TearDown() override {
    ASSERT_TRUE(FileSystem::RemoveAll(warehouse_).ok());
  }

  QueryResult MustExecute(QueryEngine* engine, const std::string& sql) {
    auto result = engine->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  std::string warehouse_;
  catalog::Catalog catalog_;
};

TEST_F(EngineTest, SimpleProjection) {
  QueryEngine engine(&catalog_, EngineConfig{});
  QueryResult r = MustExecute(&engine, "SELECT mall_id, date FROM mydb.T");
  EXPECT_EQ(r.batch.num_rows(), 20u);
  EXPECT_EQ(r.batch.schema().field(0).name, "mall_id");
  EXPECT_EQ(r.batch.column(0).GetString(0), "m0");
}

TEST_F(EngineTest, FilterOnPlainColumn) {
  QueryEngine engine(&catalog_, EngineConfig{});
  QueryResult r = MustExecute(
      &engine, "SELECT mall_id FROM mydb.T WHERE mall_id = 'm1'");
  EXPECT_EQ(r.batch.num_rows(), 10u);
}

TEST_F(EngineTest, GetJsonObjectProjection) {
  QueryEngine engine(&catalog_, EngineConfig{});
  QueryResult r = MustExecute(
      &engine,
      "SELECT get_json_object(sale_logs, '$.item_id') AS item_id FROM mydb.T");
  ASSERT_EQ(r.batch.num_rows(), 20u);
  EXPECT_EQ(r.batch.column(0).GetValue(0).ToString(), "0");
  EXPECT_EQ(r.batch.column(0).GetValue(19).ToString(), "19");
  EXPECT_GT(r.metrics.parse_seconds, 0.0);
  EXPECT_EQ(r.metrics.parse.records_parsed, 20u);
}

TEST_F(EngineTest, GetJsonObjectMisonBackendAgrees) {
  QueryEngine dom(&catalog_, EngineConfig{JsonBackend::kDom, "mydb"});
  EngineConfig mison_config;
  mison_config.json_backend = JsonBackend::kMison;
  QueryEngine mison(&catalog_, mison_config);
  const std::string sql =
      "SELECT get_json_object(sale_logs, '$.item_name') AS n FROM mydb.T";
  QueryResult a = MustExecute(&dom, sql);
  QueryResult b = MustExecute(&mison, sql);
  ASSERT_EQ(a.batch.num_rows(), b.batch.num_rows());
  for (size_t i = 0; i < a.batch.num_rows(); ++i) {
    EXPECT_EQ(a.batch.column(0).GetValue(i).ToString(),
              b.batch.column(0).GetValue(i).ToString());
  }
}

TEST_F(EngineTest, WhereOverJsonValue) {
  QueryEngine engine(&catalog_, EngineConfig{});
  QueryResult r = MustExecute(
      &engine,
      "SELECT get_json_object(sale_logs, '$.item_id') FROM mydb.T "
      "WHERE to_int(get_json_object(sale_logs, '$.turnover')) >= 50");
  // turnover = row_id * 5 >= 50 -> row_id >= 10, i.e. 10 rows.
  EXPECT_EQ(r.batch.num_rows(), 10u);
}

TEST_F(EngineTest, GroupByWithAggregates) {
  QueryEngine engine(&catalog_, EngineConfig{});
  QueryResult r = MustExecute(
      &engine,
      "SELECT get_json_object(sale_logs, '$.item_name') AS name, COUNT(*) AS "
      "cnt, sum(to_int(get_json_object(sale_logs, '$.sale_count'))) AS total "
      "FROM mydb.T GROUP BY get_json_object(sale_logs, '$.item_name') "
      "ORDER BY name");
  ASSERT_EQ(r.batch.num_rows(), 3u);  // item0, item1, item2
  EXPECT_EQ(r.batch.column(0).GetValue(0).ToString(), "item0");
  // 20 rows, names cycle with period 3: item0 gets rows 0,3,...,18 -> 7 rows.
  EXPECT_EQ(r.batch.column(1).GetValue(0).int64_value(), 7);
  EXPECT_EQ(r.batch.column(1).GetValue(1).int64_value(), 7);
  EXPECT_EQ(r.batch.column(1).GetValue(2).int64_value(), 6);
}

TEST_F(EngineTest, CountStarWithoutColumnReferences) {
  // Regression: a scan referencing no columns must still see every row.
  QueryEngine engine(&catalog_, EngineConfig{});
  QueryResult r = MustExecute(&engine, "SELECT COUNT(*) FROM mydb.T");
  ASSERT_EQ(r.batch.num_rows(), 1u);
  EXPECT_EQ(r.batch.column(0).GetValue(0).int64_value(), 20);
}

TEST_F(EngineTest, AggregateWithoutGroupBy) {
  QueryEngine engine(&catalog_, EngineConfig{});
  QueryResult r = MustExecute(
      &engine,
      "SELECT COUNT(*), min(date), max(date), avg(date) FROM mydb.T");
  ASSERT_EQ(r.batch.num_rows(), 1u);
  EXPECT_EQ(r.batch.column(0).GetValue(0).int64_value(), 20);
  EXPECT_EQ(r.batch.column(1).GetValue(0).int64_value(), 20190101);
  EXPECT_EQ(r.batch.column(2).GetValue(0).int64_value(), 20190103);
}

TEST_F(EngineTest, OrderByAndLimit) {
  QueryEngine engine(&catalog_, EngineConfig{});
  QueryResult r = MustExecute(
      &engine,
      "SELECT get_json_object(sale_logs, '$.item_id') AS id FROM mydb.T "
      "ORDER BY to_int(get_json_object(sale_logs, '$.item_id')) DESC LIMIT 3");
  ASSERT_EQ(r.batch.num_rows(), 3u);
  EXPECT_EQ(r.batch.column(0).GetValue(0).ToString(), "19");
  EXPECT_EQ(r.batch.column(0).GetValue(1).ToString(), "18");
  EXPECT_EQ(r.batch.column(0).GetValue(2).ToString(), "17");
}

TEST_F(EngineTest, SelfEquiJoin) {
  QueryEngine engine(&catalog_, EngineConfig{});
  // Join on item_name: each name bucket has 7/7/6 rows across 20 rows,
  // so the join yields 7*7 + 7*7 + 6*6 = 134 pairs.
  QueryResult r = MustExecute(
      &engine,
      "SELECT a.mall_id FROM mydb.T a JOIN mydb.T b ON "
      "get_json_object(a.sale_logs, '$.item_name') = "
      "get_json_object(b.sale_logs, '$.item_name')");
  EXPECT_EQ(r.batch.num_rows(), 134u);
}

TEST_F(EngineTest, SargPushdownReducesBytesRead) {
  QueryEngine engine(&catalog_, EngineConfig{});
  QueryResult all = MustExecute(&engine, "SELECT date FROM mydb.T");
  QueryResult none = MustExecute(
      &engine, "SELECT date FROM mydb.T WHERE date > 99999999");
  EXPECT_EQ(none.batch.num_rows(), 0u);
  // All row groups excluded via statistics: nothing read.
  EXPECT_EQ(none.metrics.read.rows_read, 0u);
  EXPECT_GT(all.metrics.read.rows_read, 0u);
  EXPECT_LT(none.metrics.read.bytes_read, all.metrics.read.bytes_read);
}

TEST_F(EngineTest, DefaultDatabaseResolution) {
  EngineConfig config;
  config.default_database = "mydb";
  QueryEngine engine(&catalog_, config);
  QueryResult r = MustExecute(&engine, "SELECT mall_id FROM T LIMIT 5");
  EXPECT_EQ(r.batch.num_rows(), 5u);
}

TEST_F(EngineTest, ErrorsSurfaceCleanly) {
  QueryEngine engine(&catalog_, EngineConfig{});
  EXPECT_EQ(engine.Execute("SELECT x FROM mydb.missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.Execute("SELECT nosuchcol FROM mydb.T").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Execute("SELECT nosuchfunc(mall_id) FROM mydb.T")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine.Execute("garbage").ok());
}

TEST_F(EngineTest, PlanExposesScanColumns) {
  QueryEngine engine(&catalog_, EngineConfig{});
  auto plan = engine.Plan(
      "SELECT get_json_object(sale_logs, '$.item_id') FROM mydb.T "
      "WHERE date = 20190101");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Scan must read exactly the referenced columns.
  ASSERT_EQ(plan->scan.columns.size(), 2u);
  EXPECT_EQ(plan->scan.columns[0], "date");
  EXPECT_EQ(plan->scan.columns[1], "sale_logs");
  // The date predicate must be extracted as a raw SARG.
  ASSERT_EQ(plan->scan.raw_sarg.leaves().size(), 1u);
  EXPECT_EQ(plan->scan.raw_sarg.leaves()[0].column, "date");
}

TEST_F(EngineTest, SargsArePushedOnlyInTheFiltersOrder) {
  // `date` is int64 and `sale_logs` a string: only comparisons the bounds
  // order like the residual filter are pushed, casts recorded on the leaf.
  QueryEngine engine(&catalog_, EngineConfig{});
  auto plan = engine.Plan(
      "SELECT date FROM mydb.T WHERE to_int(date) > 5 AND date < '9' AND "
      "sale_logs > 5 AND to_double(sale_logs) <= 2.5 AND sale_logs = 'x' "
      "AND to_int(sale_logs) = 'x'");
  ASSERT_TRUE(plan.ok()) << plan.status();
  const auto& leaves = plan->scan.raw_sarg.leaves();
  ASSERT_EQ(leaves.size(), 3u);
  EXPECT_EQ(leaves[0].column, "date");
  EXPECT_EQ(leaves[0].cast, storage::SargCast::kToInt);
  EXPECT_EQ(leaves[1].column, "sale_logs");
  EXPECT_EQ(leaves[1].cast, storage::SargCast::kToDouble);
  EXPECT_EQ(leaves[2].column, "sale_logs");
  EXPECT_EQ(leaves[2].cast, storage::SargCast::kNone);
  EXPECT_TRUE(leaves[2].literal.is_string());
}

TEST_F(EngineTest, MetricsBreakdownIsConsistent) {
  // mydb.Big: 3,000 rows in two files, so every row-oriented operator over
  // it fans out over three chunks.
  Schema schema;
  schema.AddField("id", TypeKind::kInt64);
  schema.AddField("mall_id", TypeKind::kString);
  schema.AddField("sale_logs", TypeKind::kString);
  const std::string dir = warehouse_ + "/mydb/Big";
  ASSERT_TRUE(FileSystem::MakeDirs(dir).ok());
  for (int file = 0, id = 0; file < 2; ++file) {
    CorcWriter writer(dir + "/" + FileSystem::PartFileName(file), schema,
                      CorcWriterOptions{});
    ASSERT_TRUE(writer.Open().ok());
    for (int i = 0; i < 1500; ++i, ++id) {
      const std::string json = "{\"item_id\":" + std::to_string(id) +
                               ",\"turnover\":" + std::to_string(id % 97) +
                               "}";
      ASSERT_TRUE(writer
                      .AppendRow({Value::Int64(id),
                                  Value::String("m" + std::to_string(id % 7)),
                                  Value::String(json)})
                      .ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  catalog::TableInfo info;
  info.database = "mydb";
  info.name = "Big";
  info.schema = schema;
  info.location = dir;
  ASSERT_TRUE(catalog_.CreateTable(info).ok());

  const std::string join_sql =
      "SELECT a.mall_id, COUNT(*) AS n FROM mydb.Big a JOIN mydb.Big b ON "
      "a.id = b.id WHERE to_int(get_json_object(a.sale_logs, '$.turnover')) "
      ">= 50 GROUP BY a.mall_id ORDER BY n DESC";
  const std::string project_sql =
      "SELECT get_json_object(sale_logs, '$.item_id') AS item FROM mydb.Big";
  for (size_t threads : {1u, 4u}) {
    EngineConfig config;
    config.num_threads = threads;
    QueryEngine engine(&catalog_, config);
    obs::TraceRecorder tracer;
    tracer.set_enabled(true);
    engine.set_tracer(&tracer);
    for (const std::string& sql : {join_sql, project_sql}) {
      tracer.Clear();
      QueryResult r = MustExecute(&engine, sql);
      const QueryMetrics& m = r.metrics;
      EXPECT_GT(m.read.bytes_read, 0u);
      EXPECT_GT(m.parse_seconds, 0.0);
      // The split is computed from the records: it adds up to their cpu.
      double cpu = 0;
      for (const OperatorStats& op : m.operators) {
        EXPECT_GE(op.parse_seconds, 0.0) << op.name;
        EXPECT_LE(op.parse_seconds, op.cpu_seconds) << op.name;
        cpu += op.cpu_seconds;
      }
      EXPECT_NEAR(m.read_seconds + m.parse_seconds + m.compute_seconds, cpu,
                  1e-9)
          << sql << " at " << threads << " threads";
      if (threads == 4) {
        EXPECT_GT(m.compute_seconds, 0.0) << sql;
      }
      // One trace event per record, named and sized like it, then the
      // whole execution.
      const std::vector<obs::TraceEvent> events = tracer.Snapshot();
      ASSERT_EQ(events.size(), m.operators.size() + 1) << sql;
      for (size_t i = 0; i < m.operators.size(); ++i) {
        EXPECT_EQ(events[i].name, m.operators[i].name);
        EXPECT_EQ(events[i].duration_us,
                  static_cast<uint64_t>(
                      std::llround(m.operators[i].wall_seconds * 1e6)));
      }
      EXPECT_EQ(events.back().name, "execute");
    }
  }

  QueryEngine engine(&catalog_, EngineConfig{});
  QueryResult r = MustExecute(
      &engine,
      "SELECT get_json_object(sale_logs, '$.item_id') FROM mydb.T");
  EXPECT_EQ(r.metrics.parse.records_parsed, 20u);
}

}  // namespace
}  // namespace maxson::engine
