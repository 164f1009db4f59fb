// Shared declarations of the end-to-end benchmark (see README.md): run
// options, sizing, the request set, the answer checker, and the record of
// everything a run measures.
#ifndef MAXSON_PERFBENCH_BENCH_H_
#define MAXSON_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/maxson.h"
#include "engine/plan.h"
#include "serve/server.h"
#include "spans.h"
#include "workload/query_templates.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Prints `what` and exits with code 2: the run cannot produce a result.
[[noreturn]] void Fatal(const std::string& what);

/// Fails the run unless `status` is OK.
void Require(const maxson::Status& status, const std::string& what);

// ---- statistics -----------------------------------------------------------

double Median(std::vector<double> values);
/// Mean of the middle half of `values` (the samples from the first to the
/// third quartile by rank).
double InterquartileMean(std::vector<double> values);
/// Quantile by Python's statistics.quantiles(method="exclusive").
double Quantile(std::vector<double> values, double p);
double Geomean(const std::vector<double>& values);

// ---- options and sizing ---------------------------------------------------

enum class Workload { kColdScan, kDashboard, kDailyCycle };

struct Options {
  Workload workload = Workload::kColdScan;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scale = "full";
  bool corrupt_reference = false;
  std::string workdir;
  std::string trace_out;
  std::string git_sha = "unknown";
  size_t threads = 4;  // engine pool: min(4, nproc), fixed per host
};

/// Data and repetition sizes of one scale: "full" (the benchmark),
/// "tiny" (the self-test) or "short_splits" (the self-test's probe of a
/// known program defect, see README.md).
struct Sizing {
  uint64_t bytes_per_table;  // raw JSON per table before any daily load
  uint64_t min_rows;         // floor on rows per table
  uint64_t files_per_table;  // part files (= splits) per table at set-up
  int setups;                // set-ups per run; setup_s is their median
  int min_rounds;            // cold_scan: rounds before the stream may stop
  int days;                  // daily_cycle: simulated days per run
  int nights;                // cold_scan: cycles after the stream
  int replay_reps;           // repetitions of each traced-run replay
  int probe_steps_log2;      // host probe: log2 of pointer-chase steps
};

/// The sizing of `scale`, or null for an unknown scale.
const Sizing* SizingFor(const std::string& scale);

/// Day numbering of the recorded query history: the predictor trains on
/// target days [kTrainFirst, kTrainLast] and the first cache serves
/// kFirstDay.
constexpr maxson::DateId kTrainFirst = 8;
constexpr maxson::DateId kTrainLast = 13;
constexpr maxson::DateId kFirstDay = 14;

// ---- requests -------------------------------------------------------------

/// One Table II template with its literal variants; variants[0] is the
/// Table II query itself. Every variant reads the same JSONPaths.
struct Template {
  maxson::workload::BenchmarkQuery query;
  std::vector<std::string> variants;
};

/// One distinct request of a workload: a template index and one variant.
struct Request {
  int tmpl = 0;
  std::string sql;
};

// ---- checker --------------------------------------------------------------

/// Compares answers with engine::FingerprintBatch hashes of references
/// computed by ExecuteWithoutCache. Counts every checked answer; safe to
/// call from several client threads once the references are set.
class Checker {
 public:
  void SetReference(const std::string& sql, const maxson::storage::RecordBatch& batch);
  /// Flips one reference so every answer to `sql` mismatches (self-test).
  void CorruptReference(const std::string& sql);
  /// Records one answer: an error, a rejection, a mismatch or a match.
  /// Returns true for a match.
  bool Check(const std::string& sql, const maxson::Status& status,
             const maxson::storage::RecordBatch* batch);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t mismatches() const { return mismatches_; }
  uint64_t rejected() const { return rejected_; }

 private:
  std::map<std::string, uint64_t> references_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> mismatches_{0};
  std::atomic<uint64_t> rejected_{0};
  std::mutex log_mutex_;
  int logged_ = 0;
};

// ---- measurements ---------------------------------------------------------

/// One timed request.
struct Sample {
  int tmpl = 0;
  double ms = 0;
  bool hit = false;     // answered from the serving result cache
  bool traced = false;  // ran in a traced block of the traced run
  bool stale = false;   // daily_cycle: ran right after a load
};

/// Work counts of executed requests, summed from QueryMetrics and from
/// SessionStats deltas.
struct Counts {
  uint64_t requests = 0;
  uint64_t bytes_parsed = 0;
  uint64_t bytes_read = 0;
  uint64_t records_parsed = 0;
  uint64_t rows_read = 0;
  uint64_t groups_read = 0;
  uint64_t groups_skipped = 0;
  uint64_t cache_columns = 0;
  uint64_t pool_tasks = 0;
  uint64_t registry_lookups = 0;
  uint64_t registry_hits = 0;
  uint64_t shared_passes = 0;
  uint64_t shared_coalesced = 0;

  void AddQuery(const maxson::engine::QueryMetrics& m);
  /// Adds the session-counter growth from `before` to `after`.
  void AddSessionDelta(const maxson::core::SessionStats& before,
                       const maxson::core::SessionStats& after);
  void Add(const Counts& other);
};

/// One midnight cycle.
struct Night {
  double seconds = 0;
  uint64_t rows_parsed = 0;
  bool in_setup = false;
};

/// Results of the traced run's side-effect-free replays.
struct Replays {
  double plan_ms = 0;
  double rewrite_ms = 0;
  std::vector<double> plan_ms_by_template;
  double canonicalize_us = 0;
  double predict_ms = 0;
  double score_s = 0;
  double dom_ns = 0;
  double ondemand_ns = 0;
  double mison_ns = 0;
  double raw_decode_mib_s = 0;
  double cache_decode_mib_s = 0;
};

/// Everything one run measures.
struct Record {
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<double> load_s;
  std::vector<double> train_s;
  std::vector<Night> nights;
  maxson::core::MidnightReport last_report;
  std::vector<Sample> samples;
  double stream_seconds = 0;
  Counts counts;  // count rounds (single client) or the whole stream
  std::vector<Counts> counts_by_template;  // the same requests, per template
  uint64_t stale_requests = 0;
  uint64_t stale_fallbacks = 0;
  uint64_t result_cache_hits = 0;
  uint64_t result_cache_misses = 0;
  double cache_mib = 0;
  Replays replays;
};

// ---- deployment -----------------------------------------------------------

/// One generated warehouse with its session (and server, for dashboard).
struct Deployment {
  std::string dir;
  maxson::catalog::Catalog catalog;
  std::unique_ptr<maxson::core::MaxsonSession> session;
  std::unique_ptr<maxson::serve::MaxsonServer> server;
  std::vector<uint64_t> rows;       // per template table
  std::vector<uint64_t> next_file;  // per template table: next part index

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment();
};

/// A whole run: options, requests, tracer, checker and the record.
struct Bench {
  Options opt;
  const Sizing* sizing = nullptr;
  maxson::workload::BenchmarkSuiteOptions suite;
  std::vector<Template> templates;
  std::vector<Request> distinct;
  Tracer tracer{3};
  Checker checker;
  Record rec;
  std::atomic<int64_t> next_request{0};

  /// The tracer when this is the traced run, else null.
  Tracer* tracing() { return opt.trace ? &tracer : nullptr; }
};

// ---- set-up and daily operations (setup.cc) --------------------------------

std::vector<Template> MakeTemplates(const Sizing& sizing, uint64_t seed,
                                    maxson::workload::BenchmarkSuiteOptions* suite);
maxson::serve::ServeOptions BenchServeOptions();
/// daily_cycle's history runs these templates once a day, so their paths
/// are not MPJPs and the predictor leaves them out of the cache. They are
/// the small-document ones, which Eq. 1's score also ranks last. The cache
/// budget itself covers every predicted MPJP: a budget that binds makes the
/// selection follow measured parse times, and with it latency and cache
/// size vary from run to run.
inline const std::set<std::string> kAdHocInDailyCycle = {"Q1", "Q2", "Q5",
                                                         "Q7", "Q8"};

/// Records one day of history: every template's paths, twice (once for
/// daily_cycle's ad-hoc templates).
void RecordDay(Bench* b, Deployment* dep, maxson::DateId day);
void TrainPredictor(Bench* b, Deployment* dep);
/// Runs RunMidnightCycle(`day`) and records it.
void RunNight(Bench* b, Deployment* dep, maxson::DateId day, bool in_setup);
/// One full set-up of the workload; the returned deployment is live.
std::unique_ptr<Deployment> SetUp(Bench* b, int repetition);
/// (Re)computes the reference answer of every distinct request.
void ComputeReferences(Bench* b, Deployment* dep);
/// The daily load: one more part file per table (a quarter of its set-up
/// rows), then Catalog::TouchTable.
void AppendDay(Bench* b, Deployment* dep, int64_t timestamp);
/// On-disk bytes of every file under `dir`.
uint64_t DirectoryBytes(const std::string& dir);
/// Every regular *.corc file under `dir`, sorted.
std::vector<std::string> CorcFiles(const std::string& dir);

// ---- traced-run replays (replays.cc) ---------------------------------------

void ReplayPlans(Bench* b, Deployment* dep);
void ReplayCanonicalize(Bench* b);
void ReplayPredictScore(Bench* b, Deployment* dep, maxson::DateId day);
void ReplayParsers(Bench* b, Deployment* dep);
void ReplayDecode(Bench* b, Deployment* dep);

}  // namespace perfbench

#endif  // MAXSON_PERFBENCH_BENCH_H_
