// Side-effect-free replays of the traced run: each times one layer's
// public call on the workload's own state, after the timed stream.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "json/dom_parser.h"
#include "json/json_path.h"
#include "json/mison_parser.h"
#include "json/ondemand_parser.h"
#include "serve/canonicalizer.h"
#include "storage/corc_reader.h"
#include "storage/file_system.h"

namespace perfbench {

namespace {

double MillisSince(Clock::time_point start) { return SecondsSince(start) * 1e3; }

std::vector<std::string> RawFiles(Bench* b, Deployment* dep, size_t tmpl) {
  const auto& spec = b->templates[tmpl].query.table_spec;
  auto table = dep->catalog.GetTable(spec.database, spec.table);
  Require(table.status(), "table " + spec.table);
  return CorcFiles((*table)->location);
}

std::vector<std::string> ReadPayloads(const std::vector<std::string>& files) {
  std::vector<std::string> payloads;
  for (const std::string& file : files) {
    maxson::storage::CorcReader reader(file);
    Require(reader.Open(), "open " + file);
    auto batch = reader.ReadAll(nullptr);
    Require(batch.status(), "read " + file);
    const int column = reader.schema().FindField("payload");
    if (column < 0) Fatal("no payload column in " + file);
    const auto& values = batch->column(static_cast<size_t>(column));
    for (size_t i = 0; i < values.size(); ++i) {
      if (!values.IsNull(i)) payloads.push_back(values.GetString(i));
    }
  }
  return payloads;
}

/// MiB/s of CorcReader::Open + ReadAll over `files`, median of `reps`.
double DecodeMibPerSecond(Tracer* tracer, const char* span_name,
                          const std::vector<std::string>& files, int reps) {
  uint64_t bytes = 0;
  for (const std::string& f : files) bytes += std::filesystem::file_size(f);
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    ScopedSpan span(tracer, span_name);
    const auto start = Clock::now();
    for (const std::string& file : files) {
      maxson::storage::CorcReader reader(file);
      Require(reader.Open(), "open " + file);
      Require(reader.ReadAll(nullptr).status(), "decode " + file);
    }
    seconds.push_back(SecondsSince(start));
  }
  const double median = Median(seconds);
  return median > 0 ? static_cast<double>(bytes) / (1 << 20) / median : 0;
}

}  // namespace

void ReplayPlans(Bench* b, Deployment* dep) {
  const size_t n = b->templates.size();
  std::vector<std::vector<double>> plan(n), plain(n);
  for (int rep = 0; rep < b->sizing->replay_reps; ++rep) {
    for (const Request& r : b->distinct) {
      {
        ScopedSpan span(b->tracing(), "engine.plan");
        const auto start = Clock::now();
        Require(dep->session->Plan(r.sql).status(), "plan");
        plan[static_cast<size_t>(r.tmpl)].push_back(MillisSince(start));
      }
      {
        ScopedSpan span(b->tracing(), "engine.plan_without_cache");
        const auto start = Clock::now();
        Require(dep->session->PlanWithoutCache(r.sql).status(), "plan");
        plain[static_cast<size_t>(r.tmpl)].push_back(MillisSince(start));
      }
    }
  }
  std::vector<double> plan_medians;
  double rewrite_sum = 0;
  for (size_t t = 0; t < n; ++t) {
    plan_medians.push_back(Median(plan[t]));
    rewrite_sum += Median(plan[t]) - Median(plain[t]);
  }
  b->rec.replays.plan_ms_by_template = plan_medians;
  b->rec.replays.plan_ms = Geomean(plan_medians);
  b->rec.replays.rewrite_ms = rewrite_sum / static_cast<double>(n);
}

void ReplayCanonicalize(Bench* b) {
  std::vector<double> micros;
  for (int rep = 0; rep < b->sizing->replay_reps; ++rep) {
    for (const Request& r : b->distinct) {
      ScopedSpan span(b->tracing(), "serve.canonicalize");
      const auto start = Clock::now();
      Require(maxson::serve::Canonicalize(r.sql).status(), "canonicalize");
      micros.push_back(SecondsSince(start) * 1e6);
    }
  }
  b->rec.replays.canonicalize_us = Median(micros);
}

void ReplayPredictScore(Bench* b, Deployment* dep, maxson::DateId day) {
  std::vector<double> predict_ms, score_s;
  for (int rep = 0; rep < b->sizing->replay_reps; ++rep) {
    std::vector<std::string> predicted;
    {
      ScopedSpan span(b->tracing(), "core.predict");
      const auto start = Clock::now();
      predicted = dep->session->PredictMpjps(day);
      predict_ms.push_back(MillisSince(start));
    }
    ScopedSpan span(b->tracing(), "core.score");
    const auto start = Clock::now();
    Require(dep->session->ScoreCandidates(predicted, day).status(), "score");
    score_s.push_back(SecondsSince(start));
  }
  b->rec.replays.predict_ms = Median(predict_ms);
  b->rec.replays.score_s = Median(score_s);
}

void ReplayParsers(Bench* b, Deployment* dep) {
  Tracer* tracer = b->tracing();
  std::vector<double> dom_ns, ondemand_ns, mison_ns;
  uint64_t sink = 0;
  for (size_t t = 0; t < b->templates.size(); ++t) {
    const std::vector<std::string> payloads =
        ReadPayloads(RawFiles(b, dep, t));
    if (payloads.empty()) Fatal("empty table");
    std::vector<maxson::json::JsonPath> paths;
    for (const auto& location : b->templates[t].query.paths) {
      auto path = maxson::json::JsonPath::Parse(location.path);
      Require(path.status(), "path " + location.path);
      paths.push_back(std::move(*path));
    }
    const double records = static_cast<double>(payloads.size());
    std::vector<double> dom, ondemand, mison;
    for (int rep = 0; rep < b->sizing->replay_reps; ++rep) {
      {
        ScopedSpan span(tracer, "json.dom");
        const auto start = Clock::now();
        for (const std::string& text : payloads) {
          auto root = maxson::json::ParseJson(text);
          if (!root.ok()) continue;
          for (const auto& path : paths) {
            const maxson::json::JsonValue* value = path.Evaluate(*root);
            if (value != nullptr) {
              sink += maxson::json::RenderGetJsonObjectResult(*value).size();
            }
          }
        }
        dom.push_back(SecondsSince(start) * 1e9 / records);
      }
      {
        ScopedSpan span(tracer, "json.ondemand");
        maxson::json::OndemandParser parser;
        std::vector<maxson::Result<std::string>> out;
        const auto start = Clock::now();
        for (const std::string& text : payloads) {
          out.clear();
          if (!parser.ExtractAll(text, paths, &out).ok()) continue;
          for (const auto& value : out) {
            if (value.ok()) sink += value->size();
          }
        }
        ondemand.push_back(SecondsSince(start) * 1e9 / records);
      }
      {
        ScopedSpan span(tracer, "json.mison");
        maxson::json::MisonParser parser;
        const auto start = Clock::now();
        for (const std::string& text : payloads) {
          for (const auto& path : paths) {
            auto value = parser.Extract(text, path);
            if (value.ok()) sink += value->size();
          }
        }
        mison.push_back(SecondsSince(start) * 1e9 / records);
      }
    }
    dom_ns.push_back(Median(dom));
    ondemand_ns.push_back(Median(ondemand));
    mison_ns.push_back(Median(mison));
  }
  std::printf("parser replay checksum %llu\n",
              static_cast<unsigned long long>(sink));
  b->rec.replays.dom_ns = Geomean(dom_ns);
  b->rec.replays.ondemand_ns = Geomean(ondemand_ns);
  b->rec.replays.mison_ns = Geomean(mison_ns);
}

void ReplayDecode(Bench* b, Deployment* dep) {
  std::vector<std::string> raw;
  for (size_t t = 0; t < b->templates.size(); ++t) {
    for (const std::string& f : RawFiles(b, dep, t)) raw.push_back(f);
  }
  const int reps = b->sizing->replay_reps;
  b->rec.replays.raw_decode_mib_s =
      DecodeMibPerSecond(b->tracing(), "storage.raw_decode", raw, reps);
  const std::vector<std::string> cache =
      CorcFiles(dep->session->config().cache_root);
  if (cache.empty()) Fatal("no cache files to decode");
  b->rec.replays.cache_decode_mib_s =
      DecodeMibPerSecond(b->tracing(), "storage.cache_decode", cache, reps);
}

}  // namespace perfbench
