#include "engine/explain.h"

#include <cstdio>
#include <deque>
#include <map>

#include "simd/isa.h"

namespace maxson::engine {

namespace {

std::string FormatMillis(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fms", seconds * 1e3);
  return buf;
}

const char* SargOpText(storage::SargOp op) {
  switch (op) {
    case storage::SargOp::kEq: return "=";
    case storage::SargOp::kNe: return "!=";
    case storage::SargOp::kLt: return "<";
    case storage::SargOp::kLe: return "<=";
    case storage::SargOp::kGt: return ">";
    case storage::SargOp::kGe: return ">=";
    case storage::SargOp::kIsNull: return "IS NULL";
    case storage::SargOp::kIsNotNull: return "IS NOT NULL";
  }
  return "?";
}

std::string RenderSarg(const storage::SearchArgument& sarg) {
  std::string out;
  for (const storage::SargLeaf& leaf : sarg.leaves()) {
    if (!out.empty()) out += " AND ";
    using storage::SargCast;
    const char* cast = leaf.cast == SargCast::kToInt      ? "to_int("
                       : leaf.cast == SargCast::kToDouble ? "to_double("
                                                          : "";
    out += cast + leaf.column + (*cast != '\0' ? ")" : "");
    out += ' ';
    out += SargOpText(leaf.op);
    if (leaf.op != storage::SargOp::kIsNull &&
        leaf.op != storage::SargOp::kIsNotNull) {
      out += ' ';
      out += leaf.literal.is_string() ? "'" + leaf.literal.string_value() + "'"
                                      : leaf.literal.ToString();
    }
  }
  return out;
}

/// Hands out the executor's OperatorStats by operator name, in recording
/// order — the executor emits them in pipeline order, and the renderer
/// consumes them in the same order (scan before join scan, etc.).
class StatsPool {
 public:
  explicit StatsPool(const QueryMetrics* metrics) {
    if (metrics == nullptr) return;
    for (const OperatorStats& op : metrics->operators) {
      by_name_[op.name].push_back(&op);
    }
  }

  const OperatorStats* Take(const std::string& name) {
    auto it = by_name_.find(name);
    if (it == by_name_.end() || it->second.empty()) return nullptr;
    const OperatorStats* op = it->second.front();
    it->second.pop_front();
    return op;
  }

 private:
  std::map<std::string, std::deque<const OperatorStats*>> by_name_;
};

/// One rendered node: static label plus optional runtime annotation.
std::string Annotate(std::string label, const OperatorStats* stats,
                     bool is_scan) {
  if (stats == nullptr) return label;
  label += " [";
  if (is_scan) {
    label += "rows=" + std::to_string(stats->rows_out);
    label += " splits=" + std::to_string(stats->units);
    if (stats->cache_columns > 0) {
      label += " cache_columns=" + std::to_string(stats->cache_columns);
    }
  } else {
    label += "rows_in=" + std::to_string(stats->rows_in);
    label += " rows_out=" + std::to_string(stats->rows_out);
    if (stats->units > 0) label += " chunks=" + std::to_string(stats->units);
  }
  label += " wall=" + FormatMillis(stats->wall_seconds);
  if (stats->cpu_seconds > 0) {
    label += " cpu=" + FormatMillis(stats->cpu_seconds);
  }
  label += "]";
  return label;
}

std::string ScanLabel(const ScanNode& scan) {
  std::string label = "Scan " + TableDisplayName(scan.table_dir);
  if (!scan.qualifier.empty()) label += " AS " + scan.qualifier;
  std::string detail;
  if (!scan.columns.empty()) {
    detail += "columns: ";
    for (size_t i = 0; i < scan.columns.size(); ++i) {
      if (i > 0) detail += ", ";
      detail += scan.columns[i];
    }
  }
  if (!scan.cache_columns.empty()) {
    if (!detail.empty()) detail += "; ";
    detail += "cache: ";
    for (size_t i = 0; i < scan.cache_columns.size(); ++i) {
      if (i > 0) detail += ", ";
      detail += scan.cache_columns[i].cache_field;
    }
  }
  if (!scan.raw_sarg.empty()) {
    if (!detail.empty()) detail += "; ";
    detail += "sarg: " + RenderSarg(scan.raw_sarg);
  }
  if (!scan.cache_sarg.empty()) {
    if (!detail.empty()) detail += "; ";
    detail += "cache sarg: " + RenderSarg(scan.cache_sarg);
  }
  if (!detail.empty()) label += " (" + detail + ")";
  return label;
}

}  // namespace

std::string TableDisplayName(const std::string& table_dir) {
  std::string trimmed = table_dir;
  while (!trimmed.empty() && trimmed.back() == '/') trimmed.pop_back();
  const size_t slash = trimmed.find_last_of('/');
  return slash == std::string::npos ? trimmed : trimmed.substr(slash + 1);
}

std::vector<std::string> RenderPlanTree(const PhysicalPlan& plan,
                                        const QueryMetrics* metrics) {
  StatsPool stats(metrics);

  // Build the operator chain top-down; each entry is one tree level. The
  // scan level is special-cased at the end (a join has two children).
  struct Level {
    std::string label;
  };
  std::vector<Level> chain;

  if (plan.limit >= 0) {
    chain.push_back({Annotate("Limit (" + std::to_string(plan.limit) + ")",
                              stats.Take("Limit"), false)});
  }
  if (plan.distinct) {
    chain.push_back({Annotate("Distinct", stats.Take("Distinct"), false)});
  }
  if (!plan.order_by.empty()) {
    std::string keys;
    for (size_t i = 0; i < plan.order_by.size(); ++i) {
      if (i > 0) keys += ", ";
      keys += plan.order_by[i].first->ToString();
      if (plan.order_by[i].second) keys += " DESC";
    }
    chain.push_back(
        {Annotate("Sort (" + keys + ")", stats.Take("Sort"), false)});
  }
  if (plan.has_aggregates || !plan.group_by.empty()) {
    std::string detail;
    if (!plan.group_by.empty()) {
      detail = "group by ";
      for (size_t i = 0; i < plan.group_by.size(); ++i) {
        if (i > 0) detail += ", ";
        detail += plan.group_by[i]->ToString();
      }
      if (plan.having != nullptr) {
        detail += "; having " + plan.having->ToString();
      }
    }
    std::string label = "Aggregate";
    if (!detail.empty()) label += " (" + detail + ")";
    chain.push_back({Annotate(std::move(label), stats.Take("Aggregate"),
                              false)});
  } else {
    std::string names;
    for (size_t i = 0; i < plan.projection_names.size(); ++i) {
      if (i > 0) names += ", ";
      names += plan.projection_names[i];
    }
    chain.push_back({Annotate("Project (" + names + ")",
                              stats.Take("Project"), false)});
  }
  if (plan.where != nullptr) {
    chain.push_back({Annotate("Filter (" + plan.where->ToString() + ")",
                              stats.Take("Filter"), false)});
  }

  std::vector<std::string> lines;
  std::string indent;
  for (const Level& level : chain) {
    if (lines.empty()) {
      lines.push_back(level.label);
    } else {
      lines.push_back(indent + "+- " + level.label);
      indent += "   ";
    }
  }

  // Scan level: the main scan's stats entry was recorded first, the join
  // scan's second (execution order).
  const OperatorStats* main_scan_stats = stats.Take("Scan");
  const OperatorStats* join_scan_stats = stats.Take("Scan");
  auto push_leaf = [&](const std::string& label) {
    if (lines.empty()) {
      lines.push_back(label);
    } else {
      lines.push_back(indent + "+- " + label);
    }
  };
  if (plan.join_scan.has_value()) {
    std::string keys;
    for (size_t i = 0; i < plan.join_keys_left.size(); ++i) {
      if (i > 0) keys += " AND ";
      keys += plan.join_keys_left[i]->ToString() + " = " +
              plan.join_keys_right[i]->ToString();
    }
    push_leaf(Annotate("HashJoin (" + keys + ")", stats.Take("HashJoin"),
                       false));
    indent += "   ";
    lines.push_back(indent + "+- " +
                    Annotate(ScanLabel(plan.scan), main_scan_stats, true));
    lines.push_back(indent + "+- " +
                    Annotate(ScanLabel(*plan.join_scan), join_scan_stats,
                             true));
  } else {
    push_leaf(Annotate(ScanLabel(plan.scan), main_scan_stats, true));
  }

  // Cache-effectiveness footer: visible in plain EXPLAIN (plan-time rewrite
  // counters) and extended with runtime counters under ANALYZE.
  lines.push_back("");
  lines.push_back("cache: hits=" + std::to_string(plan.rewrite_cache_hits) +
                  " misses=" + std::to_string(plan.rewrite_cache_misses) +
                  " fallbacks=" +
                  std::to_string(plan.rewrite_cache_fallbacks));
  if (metrics != nullptr) {
    lines.push_back(
        "read: bytes=" + std::to_string(metrics->read.bytes_read) +
        " rows=" + std::to_string(metrics->read.rows_read) +
        " groups_read=" + std::to_string(metrics->read.row_groups_read) +
        " groups_skipped=" +
        std::to_string(metrics->read.row_groups_skipped) +
        " shared_skips=" + std::to_string(metrics->shared_skips));
    lines.push_back(
        "parse: records=" + std::to_string(metrics->parse.records_parsed) +
        " bytes=" + std::to_string(metrics->parse.bytes_parsed) +
        " cache_columns_read=" + std::to_string(metrics->cache_columns_read) +
        " raw_filtered_rows=" + std::to_string(metrics->raw_filtered_rows));
    lines.push_back("time: plan=" + FormatMillis(metrics->plan_seconds) +
                    " read(cpu)=" + FormatMillis(metrics->read_seconds) +
                    " parse(cpu)=" + FormatMillis(metrics->parse_seconds) +
                    " compute(cpu)=" + FormatMillis(metrics->compute_seconds));
    lines.push_back(std::string("simd: isa=") +
                    simd::IsaName(simd::ActiveIsa()));
  }
  return lines;
}

}  // namespace maxson::engine
