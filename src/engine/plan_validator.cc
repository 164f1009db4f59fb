#include "engine/plan_validator.h"

#include <string_view>
#include <utility>
#include <vector>

#include "engine/explain.h"
#include "engine/planner.h"

namespace maxson::engine {

namespace {

using storage::Schema;

/// Builds the structured failure Status: the violated invariant, the
/// offending node's rendering, and the EXPLAIN tree of the whole plan so
/// the report stands on its own in a test log or a production error.
///
/// Validation runs on every plan, so the success path must stay
/// allocation-light (the fig13 planning-latency budget allows it <1% of
/// plan time): sites are passed as string_views and every message below is
/// built only after a violation is found.
Status Violation(const PhysicalPlan& plan, std::string_view invariant,
                 const std::string& detail) {
  std::string message = "plan validation failed [";
  message += invariant;
  message += "]: ";
  message += detail;
  message += "\nplan:";
  for (const std::string& line : RenderPlanTree(plan, nullptr)) {
    message += "\n  " + line;
  }
  return Status::Internal(std::move(message));
}

std::string Site(std::string_view site, std::string_view arg) {
  std::string text(site);
  if (!arg.empty()) {
    text += " '";
    text += arg;
    text += "'";
  }
  return text;
}

/// One pass over an expression tree checking structural well-formedness
/// (node arities match their kinds, function nodes carry a name), aggregate
/// placement (disallowed in WHERE, GROUP BY, join keys, and scans, which
/// evaluate row-at-a-time and would misfire on one), and column resolution:
/// every reference bound to an in-range index that agrees with what its own
/// text resolves to in `schema` — a stale index (schema changed after
/// binding) is exactly the Filter/Project mismatch class. A single Visit
/// does all three because validation runs on every plan.
/// `saw_aggregate` (may be null) is OR-ed with whether any aggregate node
/// appeared.
Status CheckExpr(const PhysicalPlan& plan, const Expr& root,
                 const Schema& schema, std::string_view site,
                 std::string_view site_arg, bool allow_aggregates,
                 bool* saw_aggregate = nullptr) {
  Status status;
  root.Visit([&](const Expr* node) {
    if (!status.ok()) return;
    const size_t arity = node->children.size();
    switch (node->kind) {
      case ExprKind::kLiteral:
      case ExprKind::kStar:
        if (arity != 0) {
          status = Violation(plan, "expr-shape",
                             Site(site, site_arg) + ": leaf node has " +
                                 std::to_string(arity) + " children in " +
                                 root.ToString());
        }
        break;
      case ExprKind::kColumnRef: {
        if (arity != 0) {
          status = Violation(plan, "expr-shape",
                             Site(site, site_arg) + ": column ref '" +
                                 node->column + "' has children");
          return;
        }
        if (node->column_index < 0) {
          status = Violation(plan, "column-resolution",
                             Site(site, site_arg) + ": unbound column '" +
                                 node->column + "'");
          return;
        }
        const size_t index = static_cast<size_t>(node->column_index);
        if (index >= schema.num_fields()) {
          status = Violation(
              plan, "column-resolution",
              Site(site, site_arg) + ": column '" + node->column +
                  "' bound to index " + std::to_string(node->column_index) +
                  " outside the " + std::to_string(schema.num_fields()) +
                  "-column input schema");
          return;
        }
        const int resolved = ResolveColumn(schema, node->column);
        if (resolved != node->column_index) {
          status = Violation(
              plan, "column-resolution",
              Site(site, site_arg) + ": column '" + node->column +
                  "' bound to index " + std::to_string(node->column_index) +
                  " ('" + schema.field(index).name + "') but resolves to " +
                  std::to_string(resolved) + " in the input schema");
        }
        break;
      }
      case ExprKind::kBinary:
        if (arity != 2) {
          status = Violation(plan, "expr-shape",
                             Site(site, site_arg) + ": binary node has " +
                                 std::to_string(arity) + " children in " +
                                 root.ToString());
        }
        break;
      case ExprKind::kUnary:
        if (arity != 1) {
          status = Violation(plan, "expr-shape",
                             Site(site, site_arg) + ": unary node has " +
                                 std::to_string(arity) + " children in " +
                                 root.ToString());
        }
        break;
      case ExprKind::kFunction:
        if (node->func_name.empty()) {
          status = Violation(plan, "expr-shape",
                             Site(site, site_arg) +
                                 ": function node without a name in " +
                                 root.ToString());
        }
        break;
      case ExprKind::kAggregate:
        if (arity > 1) {
          status = Violation(plan, "expr-shape",
                             Site(site, site_arg) + ": aggregate node has " +
                                 std::to_string(arity) + " children in " +
                                 root.ToString());
        } else if (!allow_aggregates) {
          status = Violation(plan, "aggregate-placement",
                             Site(site, site_arg) +
                                 ": aggregate not allowed here: " +
                                 root.ToString());
        } else if (saw_aggregate != nullptr) {
          *saw_aggregate = true;
        }
        break;
    }
  });
  return status;
}

/// Scan-level invariants: requested raw columns exist in the table schema,
/// cache requests are well formed, dual-reader alignment preconditions
/// hold, and both SARGs reference only columns their reader can see.
Status CheckScan(const PhysicalPlan& plan, const ScanNode& scan,
                 std::string_view side,
                 const std::vector<CacheBinding>* bindings) {
  if (scan.table_dir.empty()) {
    return Violation(plan, "scan-target",
                     Site(side, {}) + ": empty table directory");
  }
  for (const std::string& column : scan.columns) {
    if (scan.table_schema.FindField(column) < 0) {
      return Violation(plan, "scan-columns",
                       Site(side, {}) + ": requested raw column '" + column +
                           "' is not in the table schema");
    }
  }

  // Cache requests: complete fields, one cache table per scan (the value
  // combiner opens cache_columns[0]'s directory for every split), distinct
  // from the raw table, no duplicate output positions. Plans have a handful
  // of output columns, so duplicate detection is a linear probe; qualified
  // names are only materialized when the scan actually has a qualifier.
  std::vector<std::string_view> output_names;
  std::vector<std::string> qualified_storage;
  output_names.reserve(scan.columns.size() + scan.cache_columns.size());
  if (scan.qualifier.empty()) {
    for (const std::string& column : scan.columns) {
      output_names.push_back(column);
    }
  } else {
    qualified_storage.reserve(scan.columns.size());
    for (const std::string& column : scan.columns) {
      qualified_storage.push_back(scan.OutputName(column));
      output_names.push_back(qualified_storage.back());
    }
  }
  const auto taken = [&output_names](std::string_view name) {
    for (std::string_view existing : output_names) {
      if (existing == name) return true;
    }
    return false;
  };
  for (const CacheColumnRequest& req : scan.cache_columns) {
    if (req.cache_table_dir.empty() || req.cache_field.empty() ||
        req.output_name.empty()) {
      return Violation(plan, "cache-binding",
                       Site(side, {}) +
                           ": incomplete cache column request (dir='" +
                           req.cache_table_dir + "', field='" +
                           req.cache_field + "', output='" + req.output_name +
                           "')");
    }
    if (req.cache_table_dir != scan.cache_columns[0].cache_table_dir) {
      return Violation(
          plan, "dual-reader-alignment",
          Site(side, {}) + ": cache columns span two cache tables ('" +
              scan.cache_columns[0].cache_table_dir + "' and '" +
              req.cache_table_dir +
              "'); the value combiner reads one cache file per split");
    }
    if (req.cache_table_dir == scan.table_dir) {
      return Violation(plan, "dual-reader-alignment",
                       Site(side, {}) +
                           ": cache table directory equals the raw table "
                           "directory '" +
                           scan.table_dir + "'");
    }
    if (taken(req.output_name)) {
      return Violation(plan, "cache-binding",
                       Site(side, {}) + ": duplicate scan output name '" +
                           req.output_name + "'");
    }
    output_names.push_back(req.output_name);
    // Fallback-source invariant: when a request names the raw column it was
    // derived from, that column must exist in the raw table schema as a
    // string — otherwise the corruption fallback would re-parse garbage (or
    // nothing) and silently return wrong rows. Empty sources are legal
    // (hand-built plans); they just forfeit degraded mode.
    if (!req.source_column.empty()) {
      const int src = scan.table_schema.FindField(req.source_column);
      if (src < 0) {
        return Violation(plan, "fallback-source",
                         Site(side, {}) + ": fallback source column '" +
                             req.source_column +
                             "' is not in the raw table schema");
      }
      if (scan.table_schema.field(static_cast<size_t>(src)).type !=
          storage::TypeKind::kString) {
        return Violation(plan, "fallback-source",
                         Site(side, {}) + ": fallback source column '" +
                             req.source_column + "' is not a string column");
      }
      if (req.source_path.empty()) {
        return Violation(plan, "fallback-source",
                         Site(side, {}) + ": fallback source column '" +
                             req.source_column + "' has no source path");
      }
    }
    if (bindings != nullptr) {
      bool bound = false;
      // Field first: fields are short and differ early, directories share a
      // long common prefix, so this order rejects most candidates cheaply.
      for (const CacheBinding& binding : *bindings) {
        if (binding.cache_field == req.cache_field &&
            binding.cache_table_dir == req.cache_table_dir) {
          bound = true;
          break;
        }
      }
      if (!bound) {
        return Violation(plan, "cache-binding",
                         Site(side, {}) + ": cache column '" +
                             req.cache_field + "' in '" +
                             req.cache_table_dir +
                             "' has no live registry entry");
      }
    }
  }

  // Pushdown soundness. Raw SARG leaves must name raw table columns; cache
  // SARG leaves must name cache fields this scan actually requests — a
  // predicate pushed to the cache reader for an uncached path would prune
  // row groups on a column the cache file does not carry values for. And
  // bounds must order each leaf as the residual filter compares it (a
  // numeric literal on a cache field only through a cast).
  const auto check_order = [&](const storage::SargLeaf& leaf,
                               storage::TypeKind type) -> Status {
    if (storage::PrunesInFilterOrder(type, leaf)) return Status::Ok();
    return Violation(plan, "pushdown-soundness",
                     Site(side, {}) + ": SARG on '" + leaf.column +
                         "' compares in an order its bounds do not follow");
  };
  for (const storage::SargLeaf& leaf : scan.raw_sarg.leaves()) {
    const int idx = scan.table_schema.FindField(leaf.column);
    if (idx < 0) {
      return Violation(plan, "pushdown-soundness",
                       Site(side, {}) + ": raw SARG on '" + leaf.column +
                           "', which is not a raw table column");
    }
    MAXSON_RETURN_NOT_OK(check_order(
        leaf, scan.table_schema.field(static_cast<size_t>(idx)).type));
  }
  for (const storage::SargLeaf& leaf : scan.cache_sarg.leaves()) {
    bool cached = false;
    for (const CacheColumnRequest& req : scan.cache_columns) {
      if (req.cache_field == leaf.column) {
        cached = true;
        break;
      }
    }
    if (!cached) {
      return Violation(plan, "pushdown-soundness",
                       Site(side, {}) + ": cache SARG on '" + leaf.column +
                           "', which is not a cache field requested by the "
                           "scan");
    }
    MAXSON_RETURN_NOT_OK(check_order(leaf, storage::TypeKind::kString));
  }
  return Status::Ok();
}

}  // namespace

Status ValidatePlan(const PhysicalPlan& plan,
                    const std::vector<CacheBinding>* bindings) {
  // ---- Scan invariants (both sides of a join) ----
  MAXSON_RETURN_NOT_OK(CheckScan(plan, plan.scan, "scan", bindings));
  if (plan.join_scan.has_value()) {
    MAXSON_RETURN_NOT_OK(
        CheckScan(plan, *plan.join_scan, "join scan", bindings));
  }

  // ---- Operator schema agreement ----
  if (plan.projections.empty()) {
    return Violation(plan, "operator-schema", "plan has no projections");
  }
  if (plan.projections.size() != plan.projection_names.size()) {
    return Violation(plan, "operator-schema",
                     std::to_string(plan.projections.size()) +
                         " projections but " +
                         std::to_string(plan.projection_names.size()) +
                         " projection names");
  }
  if (plan.join_keys_left.size() != plan.join_keys_right.size()) {
    return Violation(plan, "operator-schema",
                     std::to_string(plan.join_keys_left.size()) +
                         " left join keys vs " +
                         std::to_string(plan.join_keys_right.size()) +
                         " right join keys");
  }
  if (!plan.join_scan.has_value() && !plan.join_keys_left.empty()) {
    return Violation(plan, "operator-schema",
                     "join keys present without a join scan");
  }
  if (plan.limit < -1) {
    return Violation(plan, "operator-schema",
                     "negative limit " + std::to_string(plan.limit));
  }

  // ---- Expression resolution against the executor's input schema ----
  // Filter, Project, Aggregate and Sort all evaluate against the (joined)
  // scan output; join keys bind against their own side only.
  Schema input = ScanOutputSchema(plan.scan);
  if (plan.join_scan.has_value()) {
    const Schema right = ScanOutputSchema(*plan.join_scan);
    for (size_t k = 0; k < plan.join_keys_left.size(); ++k) {
      MAXSON_RETURN_NOT_OK(CheckExpr(plan, *plan.join_keys_left[k], input,
                                     "join key", {}, false));
      MAXSON_RETURN_NOT_OK(CheckExpr(plan, *plan.join_keys_right[k], right,
                                     "join key", {}, false));
    }
    for (const storage::Field& field : right.fields()) {
      input.AddField(field.name, field.type);
    }
  }

  bool any_aggregate = false;
  for (size_t p = 0; p < plan.projections.size(); ++p) {
    MAXSON_RETURN_NOT_OK(CheckExpr(plan, *plan.projections[p], input,
                                   "projection", plan.projection_names[p],
                                   true, &any_aggregate));
  }
  if (plan.where != nullptr) {
    MAXSON_RETURN_NOT_OK(
        CheckExpr(plan, *plan.where, input, "WHERE", {}, false));
  }
  if (plan.having != nullptr) {
    MAXSON_RETURN_NOT_OK(CheckExpr(plan, *plan.having, input, "HAVING", {},
                                   true, &any_aggregate));
  }
  for (const ExprPtr& expr : plan.group_by) {
    MAXSON_RETURN_NOT_OK(
        CheckExpr(plan, *expr, input, "GROUP BY", {}, false));
  }
  for (const auto& [expr, descending] : plan.order_by) {
    (void)descending;
    MAXSON_RETURN_NOT_OK(
        CheckExpr(plan, *expr, input, "ORDER BY", {}, true));
  }

  // The executor dispatches on has_aggregates; an unset flag with aggregate
  // projections would evaluate aggregate nodes row-at-a-time.
  if (any_aggregate && !plan.has_aggregates) {
    return Violation(plan, "aggregate-placement",
                     "plan contains aggregates but has_aggregates is false");
  }
  return Status::Ok();
}

}  // namespace maxson::engine
