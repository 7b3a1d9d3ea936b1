#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "checks.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/corpus.h"
#include "exec/executor.h"
#include "featurize/zeroshot_featurizer.h"
#include "models/zeroshot_model.h"
#include "nn/optimizer.h"
#include "optimizer/optimizer.h"
#include "plan/fingerprint.h"
#include "report.h"
#include "runtime/simulator.h"
#include "spans.h"
#include "sql/parser.h"
#include "stats.h"
#include "train/dataset.h"
#include "train/trainer.h"
#include "whatif/index_advisor.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"
#include "zeroshot/estimator.h"

namespace e2ebench {

using namespace zerodb;  // NOLINT: the benchmark drives every module.
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Inputs. The 19 training databases and the IMDB-like database are fixed
// data, as in the paper; --seed draws every query that runs against them:
// the training workloads, the served queries, the advisor workloads and
// the evaluation set.
constexpr uint64_t kDataSeed = 42;

// Served model, trained in set-up: 100 queries per corpus database (1,900
// records), 12 epochs. Its training queries are drawn from a fixed seed, so
// every run serves the same model, as a deployment would; --seed varies
// what it is asked to price.
constexpr size_t kServedQueriesPerDb = 100;
constexpr size_t kServedEpochs = 12;

// One training-pipeline unit: CollectCorpusRecords at 50 queries per
// database (950 records), then TrainModel for 4 epochs. A unit's cost
// depends on the few heavy queries it draws, so where training is a side
// phase (the whatif workload) the units replay a fixed sequence of
// workloads; only the train workload draws them from --seed.
constexpr size_t kUnitQueriesPerDb = 50;
constexpr size_t kUnitEpochs = 4;

// Serving stream: this many queries from each of the three IMDB generators
// (synthetic, scale, job-light), priced in passes over the stream.
constexpr size_t kServeQueriesPerGenerator = 1000;

// What-if sessions: one 100-query workload each.
constexpr size_t kSessionQueries = 100;
constexpr size_t kResumEvery = 8;  ///< sessions between re-sum checks

// Every workload runs all three phases (training, serving, advising), so
// that every run reports every metric; the workload's own phase gets this
// share of --seconds and the two others split the rest. The phases take
// turns in kRounds rounds, so that each metric samples the whole run rather
// than one stretch of it: a shared host's speed drifts by tens of percent
// over seconds.
constexpr double kFocusShare = 0.6;
constexpr size_t kRounds = 11;

// Model initialisation and trainer shuffling use fixed seeds; --seed varies
// the queries. Model quality then varies less from seed to seed.
constexpr uint64_t kModelSeed = 7;

// Seed streams.
enum Stream : uint64_t {
  kServedStream = 1,
  kUnitStream,
  kServeStream,
  kSessionStream,
  kEvalStream,
  kDecomposeStream,
};

uint64_t Derive(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull ^ (stream << 40) ^ index;
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

zeroshot::ZeroShotConfig PipelineConfig(uint64_t seed, size_t queries_per_db,
                                        size_t epochs) {
  zeroshot::ZeroShotConfig config;
  config.queries_per_database = queries_per_db;
  config.seed = seed;
  config.collect.noise_seed = seed ^ 0x5bd1e995u;
  config.trainer.max_epochs = epochs;
  // Early stopping off: every unit trains exactly `epochs` epochs.
  config.trainer.early_stop_patience = epochs + 1;
  config.trainer.seed = kModelSeed;
  config.model.init_seed = kModelSeed;
  return config;
}

std::vector<double> TrainLosses(const train::TrainResult& result) {
  std::vector<double> losses;
  for (const obs::EpochStat& stat : result.history) {
    losses.push_back(stat.train_loss);
  }
  return losses;
}

/// Pricing calls one Recommend session makes: the baseline, then every
/// remaining candidate in each greedy round the advisor ran.
size_t PricingCalls(size_t candidates, size_t chosen, size_t max_indexes) {
  const size_t rounds =
      chosen + (chosen < max_indexes && candidates > chosen ? 1 : 0);
  size_t calls = 1;
  for (size_t r = 0; r < rounds; ++r) calls += candidates - r;
  return calls;
}

std::string IndexKey(const std::string& table, size_t column_index) {
  return table + "." + std::to_string(column_index);
}

optimizer::PlannerOptions WithIndexes(
    const std::vector<whatif::IndexCandidate>& indexes) {
  optimizer::PlannerOptions options;
  for (const whatif::IndexCandidate& index : indexes) {
    options.hypothetical_indexes.push_back(
        optimizer::HypotheticalIndex{index.table, index.column_index});
  }
  return options;
}

/// Paces one slice of a phase: units run while the next, expected to take
/// as long as the last, would end within the budget; at least one measured
/// unit runs.
class SlicePacer {
 public:
  explicit SlicePacer(double budget_s)
      : budget_s_(budget_s), start_(Clock::now()), unit_start_(start_) {}

  bool Continue(size_t measured) {
    const Clock::time_point now = Clock::now();
    const double last_unit_s = Seconds(unit_start_, now);
    unit_start_ = now;
    return measured == 0 || Seconds(start_, now) + last_unit_s <= budget_s_;
  }

 private:
  double budget_s_;
  Clock::time_point start_;
  Clock::time_point unit_start_;
};

/// Moves the calling thread from core to core, in turn over the cores the
/// process may use, and gives the thread back the process's own mask when
/// destroyed. On a shared host a core runs slower while its neighbours are
/// busy, and the scheduler keeps a single busy thread on one core, so an
/// unmoved closed loop would measure whichever core the run landed on.
/// Where the mask cannot be read or set, units stay where the scheduler
/// puts them.
class CoreRotation {
 public:
  CoreRotation() {
    CPU_ZERO(&process_mask_);
    if (sched_getaffinity(0, sizeof(process_mask_), &process_mask_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &process_mask_)) cpus_.push_back(cpu);
    }
  }
  ~CoreRotation() {
    if (!cpus_.empty()) {
      sched_setaffinity(0, sizeof(process_mask_), &process_mask_);
    }
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  /// Pins the calling thread to the next core in turn for `step`.
  void MoveTo(size_t step) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[step % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t process_mask_;
  std::vector<int> cpus_;
};

train::QueryRecord MakeRecord(const datagen::DatabaseEnv& env,
                              const plan::QuerySpec& query,
                              plan::PhysicalPlan plan) {
  train::QueryRecord record;
  record.env = &env;
  record.db_name = env.db->name();
  record.query = query;
  record.plan = std::move(plan);
  record.opt_cost = record.plan.root->est_cost;
  return record;
}

class Bench {
 public:
  Bench(const BenchOptions& options, Clock::time_point process_start)
      : options_(options), process_start_(process_start) {
    if (options_.trace) spans_ = std::make_unique<SpanRecorder>();
  }

  int Run();

 private:
  // --- phases -------------------------------------------------------------
  void Setup();
  // Each call runs one slice of its phase, paced by SlicePacer. The first
  // unit of a phase warms up.
  void TrainPhase(double budget_s);
  void ServePhase(double budget_s);
  void WhatifPhase(double budget_s);
  void Checks();

  // --- traced-run decompositions: the layers timed one call at a time ----
  void DecomposeCollection(size_t unit);
  void DecomposeEpoch(const std::vector<train::QueryRecord>& records,
                      uint64_t seed);
  void DecomposeThreads(const std::vector<train::QueryRecord>& records,
                        uint64_t seed);
  void DecomposeServe(const plan::QuerySpec& query, uint64_t request);
  void DecomposeSession(const std::vector<plan::QuerySpec>& workload,
                        const whatif::AdvisorResult& result,
                        uint64_t request);

  void Expect(bool ok, const std::string& what);
  /// The recorder when spans are on for the current unit, else null.
  SpanRecorder* spans() const { return spans_on_ ? spans_.get() : nullptr; }
  double PhaseBudget(const std::string& phase) const;
  void Add(const std::string& name, double value, const std::string& unit) {
    result_.metrics.push_back(Metric{name, value, unit});
  }
  void AddSpanMedian(const std::string& metric, const std::string& span,
                     double scale, const std::string& unit) {
    Add(metric, Median(spans_->DurationsUs(span)) * scale, unit);
  }
  void ReportEndToEnd();
  void ReportPerLayer();

  BenchOptions options_;
  Clock::time_point process_start_;
  RunResult result_;
  std::unique_ptr<SpanRecorder> spans_;
  bool spans_on_ = false;
  uint64_t next_request_ = 1;
  size_t train_units_ = 0, serve_passes_ = 0, sessions_ = 0;

  std::vector<datagen::DatabaseEnv> corpus_;
  datagen::DatabaseEnv imdb_;
  std::unique_ptr<zeroshot::ZeroShotEstimator> estimator_;
  std::vector<plan::QuerySpec> serve_queries_;
  std::vector<std::string> serve_sql_;
  double setup_s_ = 0.0;
  double corpus_s_ = 0.0;

  // Untraced figures (traced units are kept apart for the overhead).
  std::vector<double> collect_rates_, train_rates_;
  std::vector<double> estimate_us_, estimates_ms_;
  // Indexed by the session's generator (0 synthetic, 1 job-light).
  std::vector<std::vector<double>> session_ms_{2}, priced_rates_{2};
  std::vector<double> traced_focus_, untraced_focus_;
  int64_t serve_hits_ = 0, serve_misses_ = 0;
  int64_t session_hits_ = 0, session_misses_ = 0;
  double qerror_median_ = 0.0;

  // Traced-run counters.
  int64_t exec_attempted_ = 0, exec_accepted_ = 0;
  std::vector<double> pricing_calls_, forward_batch_plans_;
  std::vector<double> epoch_4t_s_, epoch_1t_s_;
};

void Bench::Expect(bool ok, const std::string& what) {
  if (ok) return;
  result_.correct = false;
  std::cerr << "e2ebench: check failed: " << what << "\n";
}

double Bench::PhaseBudget(const std::string& phase) const {
  const double share =
      phase == options_.workload ? kFocusShare : (1.0 - kFocusShare) / 2.0;
  return options_.seconds * share;
}

// ---------------------------------------------------------------------------
// Set-up: the fixed databases, the served model and the serving stream.

void Bench::Setup() {
  ThreadPool::SetGlobalThreads(options_.threads);
  {
    const Clock::time_point t0 = Clock::now();
    ScopedSpan span(spans_.get(), "datagen.corpus");
    corpus_ = datagen::MakeTrainingCorpus(kDataSeed);
    imdb_ = datagen::MakeImdbEnv(kDataSeed);
    corpus_s_ = Seconds(t0, Clock::now());
  }
  const zeroshot::ZeroShotConfig served = PipelineConfig(
      Derive(kDataSeed, kServedStream, 0), kServedQueriesPerDb, kServedEpochs);
  estimator_ = std::make_unique<zeroshot::ZeroShotEstimator>(
      zeroshot::ZeroShotEstimator::Train(corpus_, served));
  const workload::BenchmarkWorkload generators[] = {
      workload::BenchmarkWorkload::kSynthetic,
      workload::BenchmarkWorkload::kScale,
      workload::BenchmarkWorkload::kJobLight};
  for (size_t g = 0; g < 3; ++g) {
    std::vector<plan::QuerySpec> queries = workload::MakeBenchmark(
        generators[g], imdb_, kServeQueriesPerGenerator,
        Derive(options_.seed, kServeStream, g));
    for (plan::QuerySpec& query : queries) {
      serve_sql_.push_back(query.ToSql(*imdb_.db));
      serve_queries_.push_back(std::move(query));
    }
  }
  // Interleave the generators so every pass mixes them evenly.
  Rng shuffle_rng(Derive(options_.seed, kServeStream, 99));
  std::vector<size_t> order(serve_sql_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  shuffle_rng.Shuffle(&order);
  std::vector<plan::QuerySpec> queries;
  std::vector<std::string> sql;
  for (size_t i : order) {
    queries.push_back(std::move(serve_queries_[i]));
    sql.push_back(std::move(serve_sql_[i]));
  }
  serve_queries_ = std::move(queries);
  serve_sql_ = std::move(sql);
  setup_s_ = Seconds(process_start_, Clock::now());
}

// ---------------------------------------------------------------------------
// Training pipeline: CollectCorpusRecords, then TrainModel (through
// ZeroShotEstimator::TrainFromRecords), unit after unit. Unit 0 warms up.

void Bench::TrainPhase(double budget_s) {
  SlicePacer pacer(budget_s);
  for (size_t measured = 0; pacer.Continue(measured);) {
    const size_t unit = train_units_++;
    const bool warmup = unit == 0;
    if (!warmup) ++measured;
    // A traced run alternates traced and untraced units, so the tracing
    // overhead is measured on the same run.
    spans_on_ = spans_ != nullptr && unit % 2 == 1;
    const uint64_t unit_seed = Derive(
        options_.workload == "train" ? options_.seed : kDataSeed, kUnitStream,
        unit);
    const zeroshot::ZeroShotConfig config =
        PipelineConfig(unit_seed, kUnitQueriesPerDb, kUnitEpochs);
    const uint64_t request = next_request_++;
    ScopedSpan unit_span(spans(), "train.unit", 0, request);

    const Clock::time_point t0 = Clock::now();
    std::vector<train::QueryRecord> records;
    {
      ScopedSpan span(spans(), "zeroshot.collect", unit_span.id(), request);
      records = zeroshot::CollectCorpusRecords(corpus_, config);
    }
    const Clock::time_point t1 = Clock::now();
    ++result_.attempted;
    if (records.empty()) {
      ++result_.failed;
      continue;
    }
    const double n = static_cast<double>(records.size());
    std::unique_ptr<zeroshot::ZeroShotEstimator> trained;
    {
      ScopedSpan span(spans(), "train.train_model", unit_span.id(), request);
      trained = std::make_unique<zeroshot::ZeroShotEstimator>(
          zeroshot::ZeroShotEstimator::TrainFromRecords(std::move(records),
                                                        config));
    }
    const Clock::time_point t2 = Clock::now();
    ++result_.attempted;
    Expect(LossDecreased(TrainLosses(trained->train_result())),
           "train: last epoch's loss is below the first's");
    if (warmup) continue;
    const double collect_rate = n / Seconds(t0, t1);
    const double train_rate =
        n * static_cast<double>(kUnitEpochs) / Seconds(t1, t2);
    if (spans_ == nullptr || !spans_on_) {
      collect_rates_.push_back(collect_rate);
      train_rates_.push_back(train_rate);
    }
    if (options_.workload == "train") {
      (spans_on_ ? traced_focus_ : untraced_focus_)
          .push_back(Seconds(t0, t2));
    }
    if (spans_ != nullptr && !spans_on_) {
      // Decompose on the untraced unit's records, outside its timing.
      spans_on_ = true;
      DecomposeCollection(unit);
      DecomposeEpoch(trained->training_records(), unit_seed);
      DecomposeThreads(trained->training_records(), unit_seed);
    }
  }
  spans_on_ = false;
}

// ---------------------------------------------------------------------------
// Serving: a closed loop of ParseQuery + EstimateQueryMs over the stream.
// The prediction cache is cleared before every pass (outside the timing),
// so the stream's queries miss it as first-seen queries would. Pass 0 warms
// up.

void Bench::ServePhase(double budget_s) {
  CoreRotation cores;
  SlicePacer pacer(budget_s);
  for (size_t measured = 0; pacer.Continue(measured);) {
    const size_t pass = serve_passes_++;
    const bool warmup = pass == 0;
    if (!warmup) ++measured;
    spans_on_ = spans_ != nullptr && pass % 2 == 1;
    // Traced and untraced passes take turns, so both move as a pair.
    cores.MoveTo(pass / 2);
    estimator_->InvalidatePredictionCache();
    const int64_t hits0 = estimator_->predict_cache()->hits();
    const int64_t misses0 = estimator_->predict_cache()->misses();
    std::vector<double> latencies;
    latencies.reserve(serve_sql_.size());
    for (size_t i = 0; i < serve_sql_.size(); ++i) {
      const uint64_t request = next_request_++;
      const Clock::time_point t0 = Clock::now();
      ScopedSpan query_span(spans(), "serve.query", 0, request);
      StatusOr<plan::QuerySpec> query = [&] {
        ScopedSpan span(spans(), "sql.parse", query_span.id(), request);
        return sql::ParseQuery(serve_sql_[i], *imdb_.db);
      }();
      ++result_.attempted;
      if (!query.ok()) {
        ++result_.failed;
        continue;
      }
      StatusOr<Millis> estimate = [&] {
        ScopedSpan span(spans(), "zeroshot.estimate", query_span.id(),
                        request);
        return estimator_->EstimateQueryMs(imdb_, *query);
      }();
      const Clock::time_point t1 = Clock::now();
      if (!estimate.ok()) {
        ++result_.failed;
        continue;
      }
      estimates_ms_.push_back(estimate->value());
      latencies.push_back(std::chrono::duration<double, std::micro>(t1 - t0)
                              .count());
    }
    serve_hits_ += estimator_->predict_cache()->hits() - hits0;
    serve_misses_ += estimator_->predict_cache()->misses() - misses0;
    if (warmup) continue;
    if (spans_ == nullptr || !spans_on_) {
      estimate_us_.insert(estimate_us_.end(), latencies.begin(),
                          latencies.end());
    }
    if (spans_ != nullptr && !spans_on_) {
      spans_on_ = true;
      // A slice of the stream per pass keeps the decomposition's share of
      // the phase small.
      for (size_t i = 0; i < serve_queries_.size(); i += 7) {
        DecomposeServe(serve_queries_[i], next_request_++);
      }
    }
  }
  spans_on_ = false;
}

// ---------------------------------------------------------------------------
// What-if: one Recommend session per generated 100-query workload
// (alternating synthetic and job-light), each starting from an empty
// prediction cache. Session 0 warms up.

void Bench::WhatifPhase(double budget_s) {
  whatif::IndexAdvisor advisor(estimator_.get());
  const whatif::IndexAdvisorOptions advisor_options;
  CoreRotation cores;
  SlicePacer pacer(budget_s);
  for (size_t measured = 0; pacer.Continue(measured);) {
    const size_t session = sessions_++;
    const bool warmup = session == 0;
    if (!warmup) ++measured;
    // A traced and an untraced pair of (synthetic, job-light) sessions take
    // turns, so the four move together and each kind meets every core.
    cores.MoveTo(session / 4);
    // Traced and untraced sessions alternate in pairs, so both halves get
    // synthetic and job-light workloads alike.
    spans_on_ = spans_ != nullptr && (session / 2) % 2 == 1;
    const size_t generator = session % 2;
    const std::vector<plan::QuerySpec> workload = workload::MakeBenchmark(
        generator == 0 ? workload::BenchmarkWorkload::kSynthetic
                       : workload::BenchmarkWorkload::kJobLight,
        imdb_, kSessionQueries, Derive(options_.seed, kSessionStream, session));
    std::vector<whatif::IndexCandidate> candidates;
    {
      ScopedSpan span(spans(), "whatif.enumerate");
      candidates = advisor.EnumerateCandidates(imdb_, workload);
    }
    estimator_->InvalidatePredictionCache();
    const int64_t hits0 = estimator_->predict_cache()->hits();
    const int64_t misses0 = estimator_->predict_cache()->misses();
    const uint64_t request = next_request_++;
    const Clock::time_point t0 = Clock::now();
    whatif::AdvisorResult result;
    {
      ScopedSpan span(spans(), "whatif.session", 0, request);
      result = advisor.Recommend(imdb_, workload);
    }
    const double session_s = Seconds(t0, Clock::now());
    ++result_.attempted;
    session_hits_ += estimator_->predict_cache()->hits() - hits0;
    session_misses_ += estimator_->predict_cache()->misses() - misses0;

    std::vector<std::string> candidate_keys, chosen_keys;
    for (const whatif::IndexCandidate& c : candidates) {
      candidate_keys.push_back(IndexKey(c.table, c.column_index));
    }
    for (const whatif::IndexCandidate& c : result.chosen) {
      chosen_keys.push_back(IndexKey(c.table, c.column_index));
    }
    Expect(AdvisorResultValid(result.baseline_total_ms.value(),
                              result.final_total_ms.value(), chosen_keys,
                              advisor_options.max_indexes, candidate_keys),
           "whatif: final <= baseline, <= max_indexes chosen, all candidates");
    if (session % kResumEvery == 0) {
      // Re-price the workload query by query on an empty cache.
      estimator_->InvalidatePredictionCache();
      double baseline = 0.0, final_total = 0.0;
      const optimizer::PlannerOptions chosen_options =
          WithIndexes(result.chosen);
      for (const plan::QuerySpec& query : workload) {
        StatusOr<Millis> base = estimator_->EstimateQueryMs(imdb_, query);
        StatusOr<Millis> with =
            estimator_->EstimateQueryMs(imdb_, query, chosen_options);
        if (base.ok()) baseline += base->value();
        if (with.ok()) final_total += with->value();
      }
      Expect(AllRelClose({baseline, final_total},
                         {result.baseline_total_ms.value(),
                          result.final_total_ms.value()},
                         1e-4),
             "whatif: per-query EstimateQueryMs sums equal the advisor's "
             "totals");
    }
    if (warmup) continue;
    const double priced = static_cast<double>(
        PricingCalls(candidates.size(), result.chosen.size(),
                     advisor_options.max_indexes) *
        workload.size());
    if (options_.workload == "whatif") {
      (spans_on_ ? traced_focus_ : untraced_focus_).push_back(session_s);
    }
    if (spans_ == nullptr || !spans_on_) {
      session_ms_[generator].push_back(session_s * 1000.0);
      priced_rates_[generator].push_back(priced / session_s);
    }
    if (spans_ != nullptr && !spans_on_) {
      spans_on_ = true;
      DecomposeSession(workload, result, next_request_++);
    }
  }
  spans_on_ = false;
}

// ---------------------------------------------------------------------------
// Decompositions (traced runs only).

void Bench::DecomposeCollection(size_t unit) {
  // One database per unit, round robin, 40 queries, serially: generate,
  // plan, execute, simulate.
  const datagen::DatabaseEnv& env = corpus_[unit % corpus_.size()];
  const uint64_t seed = Derive(options_.seed, kDecomposeStream, unit);
  workload::QueryGenerator generator(&env, workload::TrainingWorkloadConfig(),
                                     seed);
  optimizer::Planner planner(env.db.get(), &env.stats);
  exec::Executor executor(env.db.get());
  runtime::RuntimeSimulator simulator;
  Rng noise(seed);
  for (size_t i = 0; i < 40; ++i) {
    const uint64_t request = next_request_++;
    plan::QuerySpec query;
    {
      ScopedSpan span(spans(), "workload.generate", 0, request);
      query = generator.Next();
    }
    StatusOr<plan::PhysicalPlan> plan = [&] {
      ScopedSpan span(spans(), "optimizer.plan.collect", 0, request);
      return planner.Plan(query);
    }();
    if (!plan.ok()) continue;
    ++exec_attempted_;
    StatusOr<exec::ExecutionResult> executed = [&] {
      ScopedSpan span(spans(), "exec.execute", 0, request);
      return executor.Execute(&*plan);
    }();
    if (!executed.ok()) continue;
    ++exec_accepted_;
    ScopedSpan span(spans(), "runtime.simulate", 0, request);
    const double ms = simulator.NoisyPlanMs(*plan, *executed, &noise);
    Expect(std::isfinite(ms) && ms > 0.0, "runtime: simulated time > 0");
  }
}

void Bench::DecomposeEpoch(const std::vector<train::QueryRecord>& records,
                           uint64_t seed) {
  // One epoch driven by hand, serially, over the unit's records.
  models::ZeroShotCostModel model(
      PipelineConfig(seed, kUnitQueriesPerDb, 1).model);
  const std::vector<const train::QueryRecord*> view = train::MakeView(records);
  {
    ScopedSpan span(spans(), "models.prepare");
    model.Prepare(view);
  }
  const train::TrainerOptions trainer;
  nn::Adam adam(model.Parameters(), trainer.learning_rate, 0.9f, 0.999f, 1e-8f,
                trainer.weight_decay);
  Rng rng(seed);
  for (size_t begin = 0; begin < view.size(); begin += trainer.batch_size) {
    const size_t end = std::min(view.size(), begin + trainer.batch_size);
    const std::vector<const train::QueryRecord*> batch(
        view.begin() + static_cast<std::ptrdiff_t>(begin),
        view.begin() + static_cast<std::ptrdiff_t>(end));
    adam.ZeroGrad();
    nn::Tensor loss;
    {
      ScopedSpan span(spans(), "models.loss_on_batch");
      loss = model.LossOnBatch(batch, /*training=*/true, &rng);
    }
    {
      ScopedSpan span(spans(), "nn.backward");
      loss.Backward();
    }
    ScopedSpan span(spans(), "nn.adam_step");
    adam.Step();
  }
}

void Bench::DecomposeThreads(const std::vector<train::QueryRecord>& records,
                             uint64_t seed) {
  // One TrainModel epoch at the pool's thread count, then at one thread.
  const std::vector<const train::QueryRecord*> view = train::MakeView(records);
  for (size_t threads : {size_t{0}, size_t{1}}) {
    zeroshot::ZeroShotConfig config =
        PipelineConfig(seed, kUnitQueriesPerDb, 1);
    config.trainer.num_threads = threads;
    models::ZeroShotCostModel model(config.model);
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(spans(), threads == 0 ? "train.epoch" : "train.epoch_1t");
      (void)train::TrainModel(&model, view, config.trainer);
    }
    (threads == 0 ? epoch_4t_s_ : epoch_1t_s_)
        .push_back(Seconds(t0, Clock::now()));
  }
}

void Bench::DecomposeServe(const plan::QuerySpec& query, uint64_t request) {
  optimizer::Planner planner(imdb_.db.get(), &imdb_.stats);
  StatusOr<plan::PhysicalPlan> plan = [&] {
    ScopedSpan span(spans(), "optimizer.plan.serve", 0, request);
    return planner.Plan(query);
  }();
  if (!plan.ok()) return;
  {
    ScopedSpan span(spans(), "plan.fingerprint", 0, request);
    volatile uint64_t fingerprint = plan::FingerprintPlan(*plan);
    (void)fingerprint;
  }
  const featurize::ZeroShotFeaturizer featurizer(
      featurize::CardinalityMode::kEstimated);
  {
    ScopedSpan span(spans(), "featurize.plan", 0, request);
    featurize::PlanGraph graph = featurizer.Featurize(*plan->root, imdb_);
    (void)graph;
  }
  const train::QueryRecord record = MakeRecord(imdb_, query, std::move(*plan));
  ScopedSpan span(spans(), "models.forward_batch1", 0, request);
  (void)estimator_->model().ForwardBatch({&record});
}

void Bench::DecomposeSession(const std::vector<plan::QuerySpec>& workload,
                             const whatif::AdvisorResult& result,
                             uint64_t request) {
  // Replays the advisor's greedy search: the same candidate sets, in the
  // same order, from an empty cache. Each set is priced through
  // EstimateQueryBatchMs, then planned and forwarded by hand, with the
  // cache's misses emulated by a set of plan fingerprints seen so far.
  whatif::IndexAdvisor advisor(estimator_.get());
  std::vector<whatif::IndexCandidate> remaining =
      advisor.EnumerateCandidates(imdb_, workload);
  const size_t max_indexes = whatif::IndexAdvisorOptions().max_indexes;
  std::vector<std::vector<whatif::IndexCandidate>> trials = {{}};
  std::vector<whatif::IndexCandidate> chosen;
  for (size_t round = 0;
       round < max_indexes && !remaining.empty() &&
       round <= result.chosen.size();
       ++round) {
    for (const whatif::IndexCandidate& c : remaining) {
      std::vector<whatif::IndexCandidate> trial = chosen;
      trial.push_back(c);
      trials.push_back(std::move(trial));
    }
    if (round == result.chosen.size()) break;
    const whatif::IndexCandidate& pick = result.chosen[round];
    chosen.push_back(pick);
    const auto picked = std::find_if(
        remaining.begin(), remaining.end(),
        [&](const whatif::IndexCandidate& c) {
          return c.table == pick.table && c.column_index == pick.column_index;
        });
    if (picked == remaining.end()) {
      Expect(false, "whatif: replayed pick is a remaining candidate");
      return;
    }
    remaining.erase(picked);
  }
  pricing_calls_.push_back(static_cast<double>(trials.size()));
  Expect(trials.size() == PricingCalls(advisor.EnumerateCandidates(imdb_,
                                                                   workload)
                                           .size(),
                                       result.chosen.size(), max_indexes),
         "whatif: the replay prices as many candidate sets as the session");

  estimator_->InvalidatePredictionCache();
  std::unordered_set<uint64_t> seen;
  for (const std::vector<whatif::IndexCandidate>& trial : trials) {
    const optimizer::PlannerOptions planner_options = WithIndexes(trial);
    {
      ScopedSpan span(spans(), "zeroshot.estimate_batch", 0, request);
      (void)estimator_->EstimateQueryBatchMs(imdb_, workload, planner_options);
    }
    optimizer::Planner planner(imdb_.db.get(), &imdb_.stats,
                               optimizer::CostParams(), planner_options);
    std::vector<train::QueryRecord> misses;
    for (const plan::QuerySpec& query : workload) {
      StatusOr<plan::PhysicalPlan> plan = [&] {
        ScopedSpan span(spans(), "optimizer.plan_hypothetical", 0, request);
        return planner.Plan(query);
      }();
      if (!plan.ok()) continue;
      if (seen.insert(plan::FingerprintPlan(*plan)).second) {
        misses.push_back(MakeRecord(imdb_, query, std::move(*plan)));
      }
    }
    if (misses.empty()) continue;
    forward_batch_plans_.push_back(static_cast<double>(misses.size()));
    ScopedSpan span(spans(), "models.forward_batch", 0, request);
    (void)estimator_->model().ForwardBatch(train::MakeView(misses));
  }
}

// ---------------------------------------------------------------------------
// Checks made once per run, outside every timed region.

void Bench::Checks() {
  // The held-out, executed IMDB set the model is evaluated on, against two
  // baselines fitted on the executed corpus records the model was trained
  // on (a disjoint set), so that all three meet IMDB unseen: the best
  // constant (geometric mean runtime), which the model must beat, and the
  // scaled optimizer cost (least squares of log runtime on log cost), which
  // is reported beside it (README.md, "Correctness checks").
  std::vector<plan::QuerySpec> eval_queries;
  const workload::BenchmarkWorkload generators[] = {
      workload::BenchmarkWorkload::kSynthetic,
      workload::BenchmarkWorkload::kScale,
      workload::BenchmarkWorkload::kJobLight};
  for (size_t g = 0; g < 3; ++g) {
    std::vector<plan::QuerySpec> part = workload::MakeBenchmark(
        generators[g], imdb_, 100, Derive(options_.seed, kEvalStream, g));
    eval_queries.insert(eval_queries.end(), part.begin(), part.end());
  }
  train::CollectOptions collect;
  collect.noise_seed = Derive(options_.seed, kEvalStream, 7);
  const std::vector<train::QueryRecord> eval =
      train::CollectRecords(imdb_, eval_queries, collect);
  const std::vector<train::QueryRecord>& fit = estimator_->training_records();
  std::vector<double> model_pred;
  for (const Millis& ms :
       estimator_->model().PredictMs(train::MakeView(eval))) {
    model_pred.push_back(ms.value());
  }
  std::vector<double> log_cost, log_runtime;
  for (const train::QueryRecord& r : fit) {
    log_cost.push_back(std::log(std::max(r.opt_cost, 1e-9)));
    log_runtime.push_back(std::log(std::max(r.runtime_ms, 1e-9)));
  }
  const LineFit line = FitLine(log_cost, log_runtime);
  const LineFit constant = FitLine({}, log_runtime);
  std::vector<double> model_q, constant_q, scaled_q;
  for (size_t i = 0; i < eval.size(); ++i) {
    const double truth = eval[i].runtime_ms;
    const double cost = std::log(std::max(eval[i].opt_cost, 1e-9));
    model_q.push_back(QError(model_pred[i], truth));
    constant_q.push_back(QError(std::exp(constant.intercept), truth));
    scaled_q.push_back(
        QError(std::exp(line.intercept + line.slope * cost), truth));
  }
  qerror_median_ = Median(model_q);
  std::cerr << "e2ebench: IMDB median q-error: model " << qerror_median_
            << ", constant " << Median(constant_q) << ", scaled optimizer cost "
            << Median(scaled_q) << " (" << eval.size() << " queries)\n";
  Expect(eval.size() >= 200, "train: executed IMDB evaluation set has >= 200");
  Expect(ModelBeatsBaseline(qerror_median_, Median(constant_q)),
         "train: model median q-error below the constant baseline's");

  // Plans with and without index access paths return the same rows.
  const std::vector<train::QueryRecord>& collected =
      estimator_->training_records();
  size_t compared = 0, agreed = 0, sampled = 0;
  optimizer::PlannerOptions seq_only;
  seq_only.enable_index_scan = false;
  seq_only.enable_index_nl_join = false;
  const size_t stride = std::max<size_t>(1, collected.size() / 200);
  for (size_t i = 0; i < collected.size() && sampled < 200; i += stride) {
    ++sampled;
    const train::QueryRecord& record = collected[i];
    const datagen::DatabaseEnv& env = *record.env;
    optimizer::Planner planner(env.db.get(), &env.stats);
    optimizer::Planner seq_planner(env.db.get(), &env.stats,
                                   optimizer::CostParams(), seq_only);
    StatusOr<plan::PhysicalPlan> a = planner.Plan(record.query);
    StatusOr<plan::PhysicalPlan> b = seq_planner.Plan(record.query);
    if (!a.ok() || !b.ok()) continue;
    exec::Executor executor(env.db.get());
    StatusOr<exec::ExecutionResult> ra = executor.Execute(&*a);
    StatusOr<exec::ExecutionResult> rb = executor.Execute(&*b);
    if (!ra.ok() || !rb.ok()) continue;
    ++compared;
    if (SameResultMultiset(ra->output, rb->output)) ++agreed;
  }
  Expect(compared * 10 >= sampled * 9 && agreed == compared,
         "train: index and seq-scan plans agree on " +
             std::to_string(agreed) + " of " + std::to_string(compared) +
             " compared (" + std::to_string(sampled) + " sampled)");

  // The trainer's loss history does not depend on the thread count.
  {
    const std::vector<const train::QueryRecord*> all =
        train::MakeView(collected);
    const std::vector<const train::QueryRecord*> view(
        all.begin(), all.begin() + static_cast<std::ptrdiff_t>(
                                       std::min<size_t>(256, all.size())));
    std::vector<std::vector<obs::EpochStat>> histories;
    for (size_t threads : {options_.threads, size_t{1}}) {
      zeroshot::ZeroShotConfig config =
          PipelineConfig(Derive(options_.seed, kUnitStream, 999), 1, 2);
      config.trainer.num_threads = threads;
      models::ZeroShotCostModel model(config.model);
      histories.push_back(
          train::TrainModel(&model, view, config.trainer).history);
    }
    Expect(BitIdenticalHistory(histories[0], histories[1]),
           "train: loss history at " + std::to_string(options_.threads) +
               " threads is bit-identical to 1 thread");
  }

  // Serving.
  Expect(AllFinitePositive(estimates_ms_), "serve: estimates finite and > 0");
  {
    optimizer::Planner planner(imdb_.db.get(), &imdb_.stats);
    std::vector<uint64_t> direct, reparsed;
    for (size_t i = 0; i < serve_queries_.size(); ++i) {
      StatusOr<plan::PhysicalPlan> a = planner.Plan(serve_queries_[i]);
      StatusOr<plan::QuerySpec> parsed =
          sql::ParseQuery(serve_queries_[i].ToSql(*imdb_.db), *imdb_.db);
      if (!a.ok() || !parsed.ok()) {
        Expect(false, "serve: query " + std::to_string(i) +
                          " plans and its SQL parses");
        continue;
      }
      StatusOr<plan::PhysicalPlan> b = planner.Plan(*parsed);
      if (!b.ok()) {
        Expect(false, "serve: parsed query " + std::to_string(i) + " plans");
        continue;
      }
      direct.push_back(plan::FingerprintPlan(*a));
      reparsed.push_back(plan::FingerprintPlan(*b));
    }
    Expect(AllEqual(direct, reparsed),
           "serve: ParseQuery(ToSql(q)) plans to the fingerprint of q");

    std::vector<train::QueryRecord> records;
    std::vector<double> estimated;
    estimator_->InvalidatePredictionCache();
    for (size_t i = 0; i < serve_queries_.size() && records.size() < 64;
         i += 13) {
      StatusOr<plan::PhysicalPlan> plan = planner.Plan(serve_queries_[i]);
      StatusOr<Millis> ms = estimator_->EstimateQueryMs(imdb_, serve_queries_[i]);
      if (!plan.ok() || !ms.ok()) continue;
      records.push_back(MakeRecord(imdb_, serve_queries_[i], std::move(*plan)));
      estimated.push_back(ms->value());
    }
    std::vector<double> batched;
    for (const Millis& ms :
         estimator_->model().ForwardBatch(train::MakeView(records))) {
      batched.push_back(ms.value());
    }
    Expect(AllRelClose(batched, estimated, 1e-5),
           "serve: one batched ForwardBatch matches EstimateQueryMs");
  }
}

// ---------------------------------------------------------------------------
// Reporting.

void Bench::ReportEndToEnd() {
  Expect(TailSupported(estimate_us_.size(), 0.99),
         "serve: at least ten latencies lie beyond the p99");
  Add("setup_s", setup_s_, "s");
  Add("collect_records_per_s", Median(collect_rates_), "records/s");
  Add("train_plans_per_s", Median(train_rates_), "plans/s");
  Add("qerror_median", qerror_median_, "ratio");
  Add("estimate_p50_us", Median(estimate_us_), "us");
  Add("estimate_p99_us", Quantile(estimate_us_, 0.99), "us");
  // Job-light sessions take about a quarter longer than synthetic ones, so
  // each generator's sessions are summarised apart (MeanOfStratumMedians).
  Add("advise_session_p50_ms", MeanOfStratumMedians(session_ms_), "ms");
  Add("priced_plans_per_s", MeanOfStratumMedians(priced_rates_), "plans/s");
}

void Bench::ReportPerLayer() {
  Add("datagen.corpus_s", corpus_s_, "s");
  AddSpanMedian("workload.generate_us", "workload.generate", 1.0, "us");
  std::vector<double> plan_us = spans_->DurationsUs("optimizer.plan.collect");
  const std::vector<double> serve_plan_us =
      spans_->DurationsUs("optimizer.plan.serve");
  plan_us.insert(plan_us.end(), serve_plan_us.begin(), serve_plan_us.end());
  Add("optimizer.plan_us", Median(plan_us), "us");
  AddSpanMedian("exec.execute_us", "exec.execute", 1.0, "us");
  Add("exec.accepted_ratio",
      exec_attempted_ == 0 ? 0.0
                           : static_cast<double>(exec_accepted_) /
                                 static_cast<double>(exec_attempted_),
      "ratio");
  AddSpanMedian("runtime.simulate_us", "runtime.simulate", 1.0, "us");
  AddSpanMedian("models.prepare_s", "models.prepare", 1e-6, "s");
  AddSpanMedian("models.loss_on_batch_ms", "models.loss_on_batch", 1e-3, "ms");
  AddSpanMedian("nn.backward_ms", "nn.backward", 1e-3, "ms");
  AddSpanMedian("nn.adam_step_us", "nn.adam_step", 1.0, "us");
  Add("train.epoch_s", Median(epoch_4t_s_), "s");
  Add("train.serial_epoch_s", Median(epoch_1t_s_), "s");
  Add("train.thread_speedup",
      Median(epoch_4t_s_) > 0.0 ? Median(epoch_1t_s_) / Median(epoch_4t_s_)
                                : 0.0,
      "x");
  AddSpanMedian("sql.parse_us", "sql.parse", 1.0, "us");
  AddSpanMedian("plan.fingerprint_us", "plan.fingerprint", 1.0, "us");
  AddSpanMedian("featurize.plan_us", "featurize.plan", 1.0, "us");
  AddSpanMedian("models.forward_batch1_us", "models.forward_batch1", 1.0,
                "us");
  const double estimate = Median(spans_->DurationsUs("zeroshot.estimate"));
  Add("zeroshot.estimate_us", estimate, "us");
  Add("zeroshot.unattributed_us",
      estimate - Median(serve_plan_us) -
          Median(spans_->DurationsUs("plan.fingerprint")) -
          Median(spans_->DurationsUs("models.forward_batch1")),
      "us");
  auto ratio = [](int64_t hits, int64_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  };
  Add("zeroshot.cache_hit_ratio", ratio(session_hits_, session_misses_),
      "ratio");
  Add("zeroshot.serve_cache_hit_ratio", ratio(serve_hits_, serve_misses_),
      "ratio");
  AddSpanMedian("whatif.enumerate_us", "whatif.enumerate", 1.0, "us");
  Add("whatif.pricing_calls", Median(pricing_calls_), "count");
  AddSpanMedian("zeroshot.estimate_batch_ms", "zeroshot.estimate_batch", 1e-3,
                "ms");
  AddSpanMedian("optimizer.plan_hypothetical_us", "optimizer.plan_hypothetical",
                1.0, "us");
  AddSpanMedian("models.forward_batch_us", "models.forward_batch", 1.0, "us");
  Add("models.forward_batch_plans", Median(forward_batch_plans_), "count");
  const double untraced = Median(untraced_focus_);
  Add("trace.overhead_pct",
      untraced > 0.0 ? (Median(traced_focus_) - untraced) / untraced * 100.0
                     : 0.0,
      "%");
}

int Bench::Run() {
  Setup();
  // The workload's own phase leads each round.
  const std::string order[2][3] = {{"train", "serve", "whatif"},
                                   {"whatif", "train", "serve"}};
  const size_t row = options_.workload == "train" ? 0 : 1;
  for (size_t round = 0; round < kRounds; ++round) {
    for (const std::string& phase : order[row]) {
      const double budget = PhaseBudget(phase) / kRounds;
      if (phase == "train") TrainPhase(budget);
      if (phase == "serve") ServePhase(budget);
      if (phase == "whatif") WhatifPhase(budget);
    }
  }
  Checks();
  if (spans_ != nullptr) {
    ReportPerLayer();
    if (!options_.span_path.empty()) {
      const Status written = spans_->WriteJsonLines(options_.span_path);
      Expect(written.ok(), "spans written to " + options_.span_path);
      std::cerr << "e2ebench: " << spans_->spans().size() << " spans in "
                << options_.span_path << "\n";
    }
  } else {
    ReportEndToEnd();
  }
  for (const Metric& metric : result_.metrics) {
    Expect(std::isfinite(metric.value), metric.name + " is finite");
  }
  std::cout << FormatResultLine(result_) << std::endl;
  return result_.correct ? 0 : 1;
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "train" || name == "whatif";
}

int RunBenchmark(const BenchOptions& options,
                 Clock::time_point process_start) {
  Bench bench(options, process_start);
  return bench.Run();
}

}  // namespace e2ebench
