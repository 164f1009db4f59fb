#ifndef MAXSON_ENGINE_PLANNER_H_
#define MAXSON_ENGINE_PLANNER_H_

#include <string>

#include "catalog/catalog.h"
#include "common/result.h"
#include "engine/plan.h"
#include "engine/sql_ast.h"

namespace maxson::engine {

/// Lowers a parsed SELECT into a physical plan:
///   1. resolves tables against the catalog and collects required columns,
///   2. invokes the optional PlanRewriter (Maxson's Algorithm 1),
///   3. extracts SARGs from conjunctive WHERE comparisons,
///   4. binds every column reference to an index in the executor's input
///      schema (scan output, or joined schema when a join is present).
class Planner {
 public:
  Planner(const catalog::Catalog* catalog, std::string default_database)
      : catalog_(catalog), default_database_(std::move(default_database)) {}

  /// `rewriter` may be null (plain Spark-like planning).
  Result<PhysicalPlan> Plan(const SelectStatement& stmt,
                            PlanRewriter* rewriter) const;

 private:
  Result<ScanNode> BuildScan(const TableRef& ref, bool qualify) const;

  const catalog::Catalog* catalog_;
  std::string default_database_;
};

/// Schema of a scan node's output batch: requested raw columns (with their
/// table types, qualified when the scan has a qualifier) followed by cache
/// columns (kString). Shared by the planner's binder and the executor.
storage::Schema ScanOutputSchema(const ScanNode& scan);

/// Resolves column reference `name` against `schema`: exact match first,
/// then unique suffix match on ".name" (so "mall_id" finds "a.mall_id").
/// Returns -1 when unresolved or ambiguous.
int ResolveColumn(const storage::Schema& schema, const std::string& name);

/// Binds all column refs in `expr` to `schema` indexes. Fails on unknown or
/// ambiguous names.
Status BindExpr(Expr* expr, const storage::Schema& schema);

/// Extracts SARG-able conjuncts (`column cmp literal`, the column plain or
/// under `to_int`/`to_double`) from `where` into the scan's raw or cache
/// SARG when the bounds order them like the residual filter compares
/// (storage::PrunesInFilterOrder). Non-extractable conjuncts are simply
/// left to the residual filter; extraction never removes anything from
/// `where`.
void ExtractSargs(const Expr* where, ScanNode* scan);

}  // namespace maxson::engine

#endif  // MAXSON_ENGINE_PLANNER_H_
