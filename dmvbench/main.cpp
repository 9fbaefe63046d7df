// dmv benchmark.
//
//   dmvbench --workload NAME --seed N --seconds S --trace 0|1
//            [--max-steps N] [--commit SHA] [--src-digest HEX]
//
// Drives dmv::serve::Server::handle() in-process with closed-loop
// viewer clients (workloads.hpp), then checks every step checksum
// against a lone single-threaded Session. With --trace 0 it prints the
// end-to-end metrics; with --trace 1 it replays the same requests one
// layer down at a time (Server, Session, MetricPipeline, standalone
// passes) and prints per-layer metrics. The last stdout line is the
// result object; the line before it is the run record. See README.md.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dmv/analysis/analysis.hpp"
#include "dmv/ir/json_reader.hpp"
#include "dmv/ir/serialize.hpp"
#include "dmv/par/par.hpp"
#include "dmv/serve/server.hpp"
#include "dmv/session/session.hpp"
#include "dmv/sim/pipeline.hpp"
#include "dmv/sim/trace_plan.hpp"
#include "dmv/util/json.hpp"
#include "workloads.hpp"

#ifndef DMVBENCH_BUILD_TYPE
#define DMVBENCH_BUILD_TYPE "unknown"
#endif
#ifndef DMVBENCH_COMPILER
#define DMVBENCH_COMPILER "unknown"
#endif

namespace dmvbench {
namespace {

using Clock = std::chrono::steady_clock;
using dmv::json::Value;

constexpr int kSetupReps = 21;

double ms_since(Clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - begin)
      .count();
}

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

/// Nearest-rank percentile of an unsorted sample (p in (0, 100]).
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double median(std::vector<double> values) { return percentile(values, 50); }

double ratio(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void require_ok(const std::string& response, const std::string& what) {
  const Value value = dmv::json::parse(response);
  if (!value.has("result")) {
    throw std::runtime_error(what + " failed: " + response);
  }
}

std::string session_name(int client) { return "c" + std::to_string(client); }

/// Runs body(0..clients-1), one thread per client (inline for one), and
/// rethrows the first exception once every thread has joined.
void run_clients(int clients, const std::function<void(int)>& body) {
  if (clients == 1) {
    body(0);
    return;
  }
  std::mutex error_mutex;
  std::exception_ptr error;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        body(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (error) std::rethrow_exception(error);
}

// --- Layer 1: Server::handle -----------------------------------------

struct StepRecord {
  double ms = 0;
  /// Traced runs only: the session's simulate_ms + metrics_ms growth
  /// over this step, read through a `stats` request after it.
  double pipeline_ms = 0;
  bool error = false;
  std::string served_by;
  bool coalesced = false;
  std::string checksum;
};

/// What one client sent and saw in one round.
struct ClientTrace {
  std::vector<Opening> setup;
  std::vector<StepSpec> specs;
  std::vector<StepRecord> records;
};

struct RoundTrace {
  std::vector<ClientTrace> clients;
  double wall_s = 0;  ///< Timed phase only.
  dmv::serve::ServerStats stats;
};

struct ServeRun {
  std::vector<RoundTrace> rounds;
  std::vector<double> setup_s;
  double peak_rss_mb = 0;
  std::uint64_t busy_fallbacks = 0;  ///< pool fallbacks during timed phase.
  std::int64_t steps() const {
    std::int64_t n = 0;
    for (const RoundTrace& round : rounds) {
      for (const ClientTrace& client : round.clients) {
        n += static_cast<std::int64_t>(client.records.size());
      }
    }
    return n;
  }
};

/// Sends one client's set-up requests: open_program + subscribe per
/// opening.
void send_setup(dmv::serve::Server& server, const Workload& workload,
                int client, const std::vector<Opening>& openings) {
  for (const Opening& opening : openings) {
    const Program& program = workload.programs[opening.program];
    require_ok(server.handle(open_request(session_name(client), program,
                                          &opening.binding)),
               "open_program");
    require_ok(server.handle(subscribe_request(session_name(client),
                                               workload.subscription)),
               "subscribe");
  }
}

double session_pipeline_ms(dmv::serve::Server& server,
                           const std::string& session) {
  const Value response = dmv::json::parse(server.handle(
      "{\"id\":5,\"method\":\"stats\",\"params\":{\"session\":" +
      dmv::json::escape(session) + "}}"));
  if (!response.has("result")) return 0.0;
  const Value& stats = response.at("result").at("session");
  return stats.at("simulate_ms").as_number() +
         stats.at("metrics_ms").as_number();
}

StepRecord send_step(dmv::serve::Server& server, const Workload& workload,
                     int client, const StepSpec& step, bool traced) {
  const std::string name = session_name(client);
  const Program& program = workload.programs[step.program];
  bool preamble_failed = false;
  auto untimed = [&](const std::string& line) {
    const Value response = dmv::json::parse(server.handle(line));
    if (!response.has("result")) preamble_failed = true;
  };
  if (step.reopen) {
    untimed(open_request(name, program, nullptr));
    untimed(subscribe_request(name, workload.subscription));
  }
  if (step.edit) untimed(edit_request(name, program));
  const double pipeline_before = traced ? session_pipeline_ms(server, name) : 0;

  const std::string request = step_request(name, step);
  const Clock::time_point begin = Clock::now();
  const std::string line = server.handle(request);
  StepRecord record;
  record.ms = ms_since(begin);
  const Value response = dmv::json::parse(line);
  if (!response.has("result") || preamble_failed) {
    record.error = true;
    return record;
  }
  const Value& result = response.at("result");
  record.checksum = result.at("checksum").as_string();
  record.served_by = result.at("served_by").as_string();
  record.coalesced = result.at("coalesced").as_bool();
  if (traced) {
    record.pipeline_ms = session_pipeline_ms(server, name) - pipeline_before;
  }
  return record;
}

/// Stop rule of the timed phase: run at least `seconds` and at least
/// `min_steps` steps, never past `max_steps` or the hard time cap.
struct Budget {
  double seconds = 10;
  std::int64_t min_steps = 0;
  std::int64_t max_steps = 0;  ///< 0 = unlimited.
  double hard_cap_s = 120;

  bool done(double elapsed_s, std::int64_t steps) const {
    if (max_steps > 0 && steps >= max_steps) return true;
    if (elapsed_s >= hard_cap_s) return true;
    return elapsed_s >= seconds && steps >= min_steps;
  }
};

double measure_setup(const Workload& workload) {
  const Clock::time_point begin = Clock::now();
  dmv::serve::Server server;
  for (int c = 0; c < workload.clients; ++c) {
    send_setup(server, workload, c, workload.stream(c, 0)->setup());
  }
  return seconds_since(begin);
}

/// Set-up is sampled throughout the timed phase rather than in one burst
/// before it, so its median sees the same machine conditions as the
/// steps. Samples are taken between steps (one client) or between
/// rounds (several clients), and their time is left out of the timed
/// wall time.
class SetupSampler {
 public:
  SetupSampler(const Workload& workload, double seconds, bool enabled)
      : workload_(workload),
        interval_s_(seconds / kSetupReps),
        enabled_(enabled),
        start_(Clock::now()) {}

  /// Takes a sample if one is due; returns the seconds it took.
  double maybe_sample(std::vector<double>& samples) {
    if (!enabled_) return 0.0;
    const double due = interval_s_ * static_cast<double>(samples.size());
    if (seconds_since(start_) < due) return 0.0;
    samples.push_back(measure_setup(workload_));
    return samples.back();
  }

 private:
  const Workload& workload_;
  double interval_s_;
  bool enabled_;
  Clock::time_point start_;
};

ServeRun run_serve(const Workload& workload, const Budget& budget,
                   bool traced) {
  ServeRun run;
  SetupSampler sampler(workload, budget.seconds, !traced);
  sampler.maybe_sample(run.setup_s);
  const std::uint64_t busy_before = dmv::par::busy_fallbacks();
  const Clock::time_point start = Clock::now();
  std::int64_t steps = 0;
  for (int round = 0; !budget.done(seconds_since(start), steps); ++round) {
    if (workload.clients > 1) sampler.maybe_sample(run.setup_s);
    dmv::serve::Server server;
    RoundTrace trace;
    trace.clients.resize(workload.clients);
    std::vector<std::unique_ptr<Stream>> streams;
    for (int c = 0; c < workload.clients; ++c) {
      streams.push_back(workload.stream(c, round));
      trace.clients[c].setup = streams[c]->setup();
      send_setup(server, workload, c, trace.clients[c].setup);
    }
    const std::int64_t steps_before = steps;
    double paused_s = 0;
    auto drive = [&](int c) {
      ClientTrace& client = trace.clients[c];
      for (std::int64_t i = 0;; ++i) {
        if (workload.round_steps > 0) {
          if (i == workload.round_steps) break;
        } else if (budget.done(seconds_since(start), steps_before + i)) {
          break;
        }
        if (workload.clients == 1) paused_s += sampler.maybe_sample(run.setup_s);
        client.specs.push_back(streams[c]->next());
        client.records.push_back(
            send_step(server, workload, c, client.specs.back(), traced));
      }
    };
    const Clock::time_point round_begin = Clock::now();
    run_clients(workload.clients, drive);
    trace.wall_s = seconds_since(round_begin) - paused_s;
    trace.stats = server.stats();
    for (const ClientTrace& client : trace.clients) {
      steps += static_cast<std::int64_t>(client.records.size());
    }
    run.rounds.push_back(std::move(trace));
  }
  run.busy_fallbacks = dmv::par::busy_fallbacks() - busy_before;
  run.peak_rss_mb = peak_rss_mib();
  // Short runs (the self-test) may end before many samples were due.
  while (!traced && run.setup_s.size() < 5) {
    run.setup_s.push_back(measure_setup(workload));
  }
  return run;
}

// --- Correctness gate --------------------------------------------------

/// Reference checksums: every distinct (program, binding) is evaluated
/// by a lone Session with the pool at one thread and no shared tier.
/// Distinct keys are spread over independent worker threads, each with
/// its own Session per program.
class Reference {
 public:
  explicit Reference(const Workload& workload) : workload_(workload) {}

  void want(int program, const dmv::symbolic::SymbolMap& binding) {
    const std::string key = artifact_key(workload_.programs[program], binding);
    if (checksums_.emplace(key, std::string()).second) {
      pending_.push_back({program, binding, key});
    }
  }

  void compute(int workers) {
    dmv::par::ThreadScope serial(1);
    std::atomic<std::size_t> next{0};
    std::vector<std::string> results(pending_.size());
    auto work = [&] {
      dmv::session::SessionConfig config =
          workload_.subscription.session_config();
      config.prefetch = false;
      std::map<int, std::unique_ptr<dmv::session::Session>> sessions;
      for (std::size_t i = next++; i < pending_.size(); i = next++) {
        const Pending& item = pending_[i];
        auto& session = sessions[item.program];
        if (!session) {
          session = std::make_unique<dmv::session::Session>(
              workload_.programs[item.program].sdfg, config);
        }
        session->set_binding(item.binding);
        results[i] =
            std::to_string(dmv::serve::result_checksum(*session->metrics()));
      }
    };
    run_clients(std::max(1, workers), [&](int) { work(); });
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      checksums_[pending_[i].key] = results[i];
    }
    pending_.clear();
  }

  const std::string& checksum(int program,
                              const dmv::symbolic::SymbolMap& binding) const {
    return checksums_.at(artifact_key(workload_.programs[program], binding));
  }

  std::size_t size() const { return checksums_.size(); }

 private:
  struct Pending {
    int program;
    dmv::symbolic::SymbolMap binding;
    std::string key;
  };
  const Workload& workload_;
  std::map<std::string, std::string> checksums_;
  std::vector<Pending> pending_;
};

struct Verdict {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;      ///< Error responses.
  std::int64_t mismatched = 0;  ///< Checksums differing from reference.
};

Verdict verify_serve(const ServeRun& run, const Reference& reference) {
  Verdict verdict;
  for (const RoundTrace& round : run.rounds) {
    for (const ClientTrace& client : round.clients) {
      for (std::size_t i = 0; i < client.records.size(); ++i) {
        ++verdict.attempted;
        const StepRecord& record = client.records[i];
        if (record.error) {
          ++verdict.failed;
        } else if (record.checksum !=
                   reference.checksum(client.specs[i].program,
                                      client.specs[i].binding)) {
          ++verdict.mismatched;
        }
      }
    }
  }
  return verdict;
}

// --- Layer 2: Session ----------------------------------------------

struct SessionStepRecord {
  double ms = 0;           ///< set_symbol/set_binding + metrics + bytes.
  double pipeline_ms = 0;  ///< SessionStats simulate_ms + metrics_ms delta.
  std::string checksum;
};

struct SessionTotals {
  dmv::session::SessionStats sum;  ///< Counters summed over sessions.
  double cache_bytes_peak = 0;
  double shared_bytes_peak = 0;
  std::int64_t shared_hits = 0;
  std::int64_t shared_lookups = 0;

  void add(const dmv::session::SessionStats& s) {
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.prefetch_issued += s.prefetch_issued;
    sum.prefetch_hits += s.prefetch_hits;
    sum.shared_hits += s.shared_hits;
    sum.evictions += s.evictions;
    sum.steps_full_hit += s.steps_full_hit;
    sum.steps_symbolic += s.steps_symbolic;
    sum.steps_chunk_delta += s.steps_chunk_delta;
    sum.steps_cold += s.steps_cold;
  }
};

struct SessionLayer {
  /// [round][client][step], aligned with ServeRun.
  std::vector<std::vector<std::vector<SessionStepRecord>>> steps;
  SessionTotals totals;
};

SessionLayer run_session_layer(const Workload& workload, const ServeRun& run) {
  using dmv::session::Session;
  SessionLayer layer;
  std::mutex totals_mutex;
  const dmv::session::SessionConfig base =
      workload.subscription.session_config();
  for (const RoundTrace& round : run.rounds) {
    // One shared tier per round, as one Server per round.
    auto shared = std::make_shared<dmv::session::SharedArtifactCache>(
        dmv::serve::ServerConfig{}.shared_cache);
    dmv::session::SessionConfig config = base;
    config.shared_cache = shared;
    std::vector<std::vector<SessionStepRecord>> clients(round.clients.size());
    auto drive = [&](int c) {
      const ClientTrace& trace = round.clients[c];
      SessionTotals local;
      std::unique_ptr<Session> session;
      auto open = [&](int program, const dmv::symbolic::SymbolMap* binding) {
        if (session) local.add(session->stats());
        session = std::make_unique<Session>(workload.programs[program].sdfg,
                                            config);
        if (binding != nullptr && !binding->empty()) {
          session->set_binding(*binding);
        }
      };
      for (const Opening& opening : trace.setup) {
        open(opening.program, &opening.binding);
      }
      for (const StepSpec& step : trace.specs) {
        if (step.reopen) open(step.program, nullptr);
        if (step.edit) session->set_program(workload.programs[step.program].sdfg);
        const dmv::session::SessionStats before = session->stats();
        const Clock::time_point begin = Clock::now();
        if (step.symbol.empty()) {
          session->set_binding(step.binding);
        } else {
          session->set_symbol(step.symbol, step.value);
        }
        auto result = session->metrics();
        session->movement_bytes();
        SessionStepRecord record;
        record.ms = ms_since(begin);
        const dmv::session::SessionStats after = session->stats();
        record.pipeline_ms = (after.simulate_ms - before.simulate_ms) +
                             (after.metrics_ms - before.metrics_ms);
        record.checksum =
            std::to_string(dmv::serve::result_checksum(*result));
        local.cache_bytes_peak = std::max(
            local.cache_bytes_peak, static_cast<double>(after.cache_bytes));
        local.shared_bytes_peak =
            std::max(local.shared_bytes_peak,
                     static_cast<double>(shared->stats().bytes));
        clients[c].push_back(std::move(record));
      }
      if (session) local.add(session->stats());
      std::lock_guard<std::mutex> lock(totals_mutex);
      layer.totals.add(local.sum);
      layer.totals.cache_bytes_peak =
          std::max(layer.totals.cache_bytes_peak, local.cache_bytes_peak);
      layer.totals.shared_bytes_peak =
          std::max(layer.totals.shared_bytes_peak, local.shared_bytes_peak);
    };
    run_clients(static_cast<int>(round.clients.size()), drive);
    const dmv::session::SharedCacheStats shared_stats = shared->stats();
    layer.totals.shared_hits += shared_stats.hits;
    layer.totals.shared_lookups += shared_stats.hits + shared_stats.misses;
    layer.steps.push_back(std::move(clients));
  }
  return layer;
}

// --- Layer 3: MetricPipeline::run_delta ---------------------------------

struct PipelineStepRecord {
  double ms = 0;
  dmv::sim::PhaseTimings timings;
  dmv::sim::DeltaOutcome outcome;
  std::int64_t events = 0;
  int program = 0;
  dmv::symbolic::SymbolMap binding;
  std::string checksum;
};

/// Replays the served (program, binding) sequence through one
/// MetricPipeline per session until `budget_s` is spent.
std::vector<PipelineStepRecord> run_pipeline_layer(const Workload& workload,
                                                   const ServeRun& run,
                                                   double budget_s) {
  const dmv::session::SessionConfig config =
      workload.subscription.session_config();
  std::vector<PipelineStepRecord> records;
  std::mutex records_mutex;
  const Clock::time_point start = Clock::now();
  for (const RoundTrace& round : run.rounds) {
    if (seconds_since(start) >= budget_s && !records.empty()) break;
    auto drive = [&](int c) {
      const ClientTrace& trace = round.clients[c];
      auto pipeline = std::make_unique<dmv::sim::MetricPipeline>(config.pipeline);
      std::vector<PipelineStepRecord> local;
      for (const StepSpec& step : trace.specs) {
        if (seconds_since(start) >= budget_s && !local.empty()) break;
        if (step.reopen) {
          pipeline = std::make_unique<dmv::sim::MetricPipeline>(config.pipeline);
        }
        const Program& program = workload.programs[step.program];
        PipelineStepRecord record;
        const Clock::time_point begin = Clock::now();
        const dmv::sim::PipelineResult result =
            pipeline->run_delta(program.sdfg, program.version, step.binding,
                                config.simulation, &record.outcome);
        record.ms = ms_since(begin);
        record.timings = pipeline->last_timings();
        record.events = result.events;
        record.program = step.program;
        record.binding = step.binding;
        record.checksum = std::to_string(dmv::serve::result_checksum(result));
        local.push_back(std::move(record));
      }
      std::lock_guard<std::mutex> lock(records_mutex);
      for (PipelineStepRecord& record : local) {
        records.push_back(std::move(record));
      }
    };
    run_clients(static_cast<int>(round.clients.size()), drive);
  }
  return records;
}

// --- Layer 4: standalone passes on distinct cold keys ---------------------

struct StandaloneTotals {
  std::int64_t keys = 0;
  double events = 0;
  double plan_ms = 0, generate_ms = 0, lines_ms = 0;
  double counts_ms = 0, distances_ms = 0, misses_ms = 0;
  double element_stats_ms = 0, movement_ms = 0, fused_ms = 0;
  double pipeline_ms = 0;  ///< Cold run_delta on a fresh pipeline.
  std::vector<double> closed_form_ms;
  std::int64_t mismatched = 0;
  /// Per-program split of the heaviest passes, for the run record.
  struct ProgramSplit {
    double events = 0, distances_ms = 0, element_stats_ms = 0, fused_ms = 0,
           pipeline_ms = 0;
  };
  std::map<std::string, ProgramSplit> by_program;
};

StandaloneTotals run_standalone_layer(
    const Workload& workload,
    const std::vector<std::pair<int, dmv::symbolic::SymbolMap>>& keys,
    const Reference& reference, double budget_s) {
  const dmv::session::SessionConfig config =
      workload.subscription.session_config();
  const dmv::sim::SimulationOptions& options = config.simulation;
  const int line_size = config.pipeline.line_size;
  StandaloneTotals totals;
  const Clock::time_point start = Clock::now();
  for (const auto& [program_index, binding] : keys) {
    if (seconds_since(start) >= budget_s && totals.keys >= 2) break;
    const dmv::ir::Sdfg& sdfg = workload.programs[program_index].sdfg;
    const Program& program = workload.programs[program_index];

    StandaloneTotals::ProgramSplit& split = totals.by_program[program.id];
    Clock::time_point begin = Clock::now();
    {
      dmv::sim::MetricPipeline pipeline(config.pipeline);
      pipeline.run_delta(sdfg, program.version, binding, options);
    }
    const double pipeline_ms = ms_since(begin);
    totals.pipeline_ms += pipeline_ms;
    split.pipeline_ms += pipeline_ms;

    begin = Clock::now();
    const dmv::sim::TracePlan plan = dmv::sim::plan_trace(sdfg, binding, options);
    totals.plan_ms += ms_since(begin);

    begin = Clock::now();
    const dmv::sim::AccessTrace trace = dmv::sim::simulate(sdfg, binding, options);
    totals.generate_ms += ms_since(begin);
    totals.events += static_cast<double>(trace.events.size());
    split.events += static_cast<double>(trace.events.size());

    begin = Clock::now();
    const dmv::sim::LineTable table = dmv::sim::build_line_table(trace, line_size);
    totals.lines_ms += ms_since(begin);

    begin = Clock::now();
    const dmv::sim::AccessCounts counts = dmv::sim::count_accesses(trace);
    totals.counts_ms += ms_since(begin);

    begin = Clock::now();
    const dmv::sim::StackDistanceResult distances =
        dmv::sim::stack_distances(trace, table);
    const double distances_ms = ms_since(begin);
    totals.distances_ms += distances_ms;
    split.distances_ms += distances_ms;

    begin = Clock::now();
    const dmv::sim::MissReport misses = dmv::sim::classify_misses(
        trace, distances, config.pipeline.miss_threshold_lines);
    totals.misses_ms += ms_since(begin);

    begin = Clock::now();
    for (int c = 0; c < static_cast<int>(trace.containers.size()); ++c) {
      dmv::sim::element_distance_stats(trace, distances, c);
    }
    const double element_stats_ms = ms_since(begin);
    totals.element_stats_ms += element_stats_ms;
    split.element_stats_ms += element_stats_ms;

    begin = Clock::now();
    dmv::sim::physical_movement(trace, misses, line_size);
    totals.movement_ms += ms_since(begin);

    begin = Clock::now();
    const dmv::sim::PipelineResult fused =
        dmv::sim::MetricPipeline(config.pipeline).run(trace);
    const double fused_ms = ms_since(begin);
    totals.fused_ms += fused_ms;
    split.fused_ms += fused_ms;
    if (std::to_string(dmv::serve::result_checksum(fused)) !=
            reference.checksum(program_index, binding) ||
        plan.total_events != static_cast<std::int64_t>(trace.events.size()) ||
        counts.reads.size() != trace.containers.size()) {
      ++totals.mismatched;
    }

    begin = Clock::now();
    const dmv::analysis::ClosedFormMetrics closed =
        dmv::analysis::closed_form_metrics(sdfg, options.wcr_reads);
    if (closed.exact) dmv::analysis::evaluate_closed_form(closed, binding);
    totals.closed_form_ms.push_back(ms_since(begin));
    ++totals.keys;
  }
  return totals;
}

double from_json_ms(const Workload& workload) {
  std::vector<double> samples;
  for (const Program& program : workload.programs) {
    const std::string text = program.sdfg_json.empty()
                                 ? dmv::ir::to_json(program.sdfg)
                                 : program.sdfg_json;
    for (int rep = 0; rep < 5; ++rep) {
      const Clock::time_point begin = Clock::now();
      dmv::ir::from_json(text);
      samples.push_back(ms_since(begin));
    }
  }
  return median(samples);
}

// --- Output ----------------------------------------------------------------

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    entries_.push_back({name, value, unit});
  }

  std::string json() const {
    std::string out = "{";
    for (const Entry& entry : entries_) {
      if (out.size() > 1) out += ", ";
      char number[64];
      std::snprintf(number, sizeof(number), "%.17g", entry.value);
      out += dmv::json::escape(entry.name) + ": {\"value\": " + number +
             ", \"unit\": " + dmv::json::escape(entry.unit) + "}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::int64_t max_steps = 0;
  std::string commit = "unknown";
  std::string src_digest = "unknown";
};

Options parse_args(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--max-steps") {
      options.max_steps = std::stoll(value);
    } else if (arg == "--commit") {
      options.commit = value;
    } else if (arg == "--src-digest") {
      options.src_digest = value;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(options.seconds > 0)) throw std::invalid_argument("bad --seconds");
  return options;
}

std::vector<double> step_latencies(const ServeRun& run) {
  std::vector<double> latencies;
  for (const RoundTrace& round : run.rounds) {
    for (const ClientTrace& client : round.clients) {
      for (const StepRecord& record : client.records) {
        latencies.push_back(record.ms);
      }
    }
  }
  return latencies;
}

/// The run record: machine, build, and the wire-level path mix.
std::string run_record(const Options& options, const Workload& workload,
                       const ServeRun& run, const Verdict& verdict,
                       std::size_t reference_keys, const Value& layers) {
  std::map<std::string, std::int64_t> served_by;
  std::int64_t coalesced = 0;
  double wall_s = 0;
  for (const RoundTrace& round : run.rounds) {
    wall_s += round.wall_s;
    for (const ClientTrace& client : round.clients) {
      for (const StepRecord& record : client.records) {
        if (!record.error) ++served_by[record.served_by];
        if (record.coalesced) ++coalesced;
      }
    }
  }
  const std::vector<double> latencies = step_latencies(run);
  Value record = Value::make_object();
  record["workload"] = Value::of(options.workload);
  record["seed"] = Value::of(static_cast<std::int64_t>(options.seed));
  record["trace"] = Value::of(options.trace);
  record["nproc"] = Value::of(dmv::par::hardware_threads());
  record["par_threads"] = Value::of(dmv::par::num_threads());
  record["clients"] = Value::of(workload.clients);
  record["build_type"] = Value::of(DMVBENCH_BUILD_TYPE);
  record["compiler"] = Value::of(DMVBENCH_COMPILER);
  record["commit"] = Value::of(options.commit);
  record["src_digest"] = Value::of(options.src_digest);
  record["rounds"] = Value::of(static_cast<std::int64_t>(run.rounds.size()));
  record["steps"] = Value::of(run.steps());
  record["timed_wall_s"] = Value::of(wall_s);
  record["step_p99_ms"] = Value::of(percentile(latencies, 99));
  record["steps_beyond_p99"] = Value::of(static_cast<std::int64_t>(
      latencies.size() -
      static_cast<std::size_t>(std::ceil(0.99 * latencies.size()))));
  record["failed_share"] = Value::of(ratio(
      static_cast<double>(verdict.failed), static_cast<double>(verdict.attempted)));
  record["checksum_mismatches"] = Value::of(verdict.mismatched);
  record["reference_keys"] =
      Value::of(static_cast<std::int64_t>(reference_keys));
  Value mix = Value::make_object();
  for (const auto& [path, count] : served_by) mix[path] = Value::of(count);
  record["served_by"] = std::move(mix);
  record["coalesced"] = Value::of(coalesced);
  if (!layers.is_null()) record["layers"] = layers;
  return dmv::json::dump(record);
}

void add_end_to_end(Metrics& metrics, const ServeRun& run) {
  const std::vector<double> latencies = step_latencies(run);
  double wall_s = 0;
  for (const RoundTrace& round : run.rounds) wall_s += round.wall_s;
  metrics.add("step_p50_ms", percentile(latencies, 50), "ms");
  metrics.add("step_p90_ms", percentile(latencies, 90), "ms");
  metrics.add("steps_per_s",
              ratio(static_cast<double>(latencies.size()), wall_s), "1/s");
  metrics.add("peak_rss_mb", run.peak_rss_mb, "MiB");
  metrics.add("setup_s", median(run.setup_s), "s");
}

/// Runs layers 2-4 and adds every per-layer metric; `detail` receives
/// the per-program split of the standalone passes. Returns the number
/// of cross-layer checksum mismatches.
std::int64_t add_per_layer(Metrics& metrics, const Workload& workload,
                           const ServeRun& run, const Reference& reference,
                           double seconds, Value& detail) {
  std::int64_t mismatched = 0;

  // Layer 2 — Session.
  const SessionLayer session = run_session_layer(workload, run);
  std::vector<double> serve_self, session_self;
  for (std::size_t r = 0; r < run.rounds.size(); ++r) {
    for (std::size_t c = 0; c < run.rounds[r].clients.size(); ++c) {
      const ClientTrace& client = run.rounds[r].clients[c];
      for (std::size_t i = 0; i < client.records.size(); ++i) {
        const SessionStepRecord& step = session.steps[r][c][i];
        // Self time inside one call: its total minus the pipeline time
        // the session accounted during it; serve is what remains once the
        // session's own self time is taken off.
        const double session_ms = step.ms - step.pipeline_ms;
        const StepRecord& served = client.records[i];
        serve_self.push_back(served.ms - served.pipeline_ms - session_ms);
        session_self.push_back(session_ms);
        if (step.checksum != reference.checksum(client.specs[i].program,
                                                client.specs[i].binding)) {
          ++mismatched;
        }
      }
    }
  }
  const double steps = static_cast<double>(run.steps());
  std::int64_t coalesced = 0;
  for (const RoundTrace& round : run.rounds) coalesced += round.stats.coalesced;
  const dmv::session::SessionStats& s = session.totals.sum;
  const double classified = static_cast<double>(
      s.steps_full_hit + s.steps_symbolic + s.steps_chunk_delta + s.steps_cold);
  metrics.add("serve.self_ms_p50", median(serve_self), "ms");
  metrics.add("serve.coalesced_share", ratio(coalesced, steps), "ratio");
  metrics.add("par.busy_fallbacks_per_step",
              ratio(static_cast<double>(run.busy_fallbacks), steps),
              "count/step");
  metrics.add("session.self_ms_p50", median(session_self), "ms");
  metrics.add("session.local_hit_share",
              ratio(static_cast<double>(s.hits - s.shared_hits),
                    static_cast<double>(s.hits + s.misses)),
              "ratio");
  metrics.add("session.shared_hit_share",
              ratio(static_cast<double>(session.totals.shared_hits),
                    static_cast<double>(session.totals.shared_lookups)),
              "ratio");
  metrics.add("session.prefetch_issued_per_step",
              ratio(static_cast<double>(s.prefetch_issued), steps),
              "count/step");
  metrics.add("session.prefetch_useful_share",
              ratio(static_cast<double>(s.prefetch_hits),
                    static_cast<double>(s.prefetch_issued)),
              "ratio");
  metrics.add("session.evictions_per_step",
              ratio(static_cast<double>(s.evictions), steps), "count/step");
  metrics.add("session.step_cold_share",
              ratio(static_cast<double>(s.steps_cold), classified), "ratio");
  metrics.add("session.step_chunk_delta_share",
              ratio(static_cast<double>(s.steps_chunk_delta), classified),
              "ratio");
  metrics.add("session.step_symbolic_share",
              ratio(static_cast<double>(s.steps_symbolic), classified),
              "ratio");
  metrics.add("session.step_full_hit_share",
              ratio(static_cast<double>(s.steps_full_hit), classified),
              "ratio");
  metrics.add("session.cache_bytes_peak",
              session.totals.cache_bytes_peak / (1024.0 * 1024.0), "MiB");
  metrics.add("session.shared_bytes_peak",
              session.totals.shared_bytes_peak / (1024.0 * 1024.0), "MiB");

  // Layer 3 — MetricPipeline::run_delta.
  const std::vector<PipelineStepRecord> pipeline =
      run_pipeline_layer(workload, run, 0.25 * seconds);
  std::vector<double> pipeline_ms, simulate_ms, metrics_ms, partitions, events;
  double chunks_dirty = 0, chunks_total = 0, chunk_steps = 0, resumed = 0,
         cold = 0;
  for (const PipelineStepRecord& record : pipeline) {
    pipeline_ms.push_back(record.ms);
    simulate_ms.push_back(record.timings.simulate_ms);
    metrics_ms.push_back(record.timings.metrics_ms);
    partitions.push_back(record.timings.partitions);
    events.push_back(static_cast<double>(record.events));
    using Path = dmv::sim::DeltaOutcome::Path;
    if (record.outcome.path == Path::kCold) ++cold;
    if (record.outcome.path == Path::kChunkDelta) {
      ++chunk_steps;
      if (record.outcome.resumed) ++resumed;
      chunks_dirty += static_cast<double>(record.outcome.chunks_dirty);
      chunks_total += static_cast<double>(record.outcome.chunks_total);
    }
    if (record.checksum != reference.checksum(record.program, record.binding)) {
      ++mismatched;
    }
  }
  metrics.add("sim.pipeline_ms_p50", median(pipeline_ms), "ms");
  metrics.add("sim.simulate_ms_p50", median(simulate_ms), "ms");
  metrics.add("sim.metrics_ms_p50", median(metrics_ms), "ms");
  metrics.add("sim.metric_partitions", median(partitions), "count");
  metrics.add("sim.delta.dirty_chunk_share", ratio(chunks_dirty, chunks_total),
              "ratio");
  metrics.add("sim.delta.resumed_share", ratio(resumed, chunk_steps), "ratio");
  metrics.add("sim.delta.cold_share",
              ratio(cold, static_cast<double>(pipeline.size())), "ratio");
  metrics.add("sim.events_per_step", median(events), "count");

  // Layer 4 — standalone passes over the distinct keys, first-seen order.
  std::vector<std::pair<int, dmv::symbolic::SymbolMap>> keys;
  std::set<std::string> seen;
  for (const RoundTrace& round : run.rounds) {
    for (const ClientTrace& client : round.clients) {
      for (const StepSpec& spec : client.specs) {
        if (seen.insert(artifact_key(workload.programs[spec.program],
                                     spec.binding))
                .second) {
          keys.emplace_back(spec.program, spec.binding);
        }
      }
    }
  }
  const StandaloneTotals standalone =
      run_standalone_layer(workload, keys, reference, 0.15 * seconds);
  mismatched += standalone.mismatched;
  detail = Value::make_object();
  for (const auto& [id, split] : standalone.by_program) {
    const double scale = split.events > 0 ? 1e6 / split.events : 0;
    Value entry = Value::make_object();
    entry["events"] = Value::of(split.events);
    entry["distances_ns_per_event"] = Value::of(split.distances_ms * scale);
    entry["element_stats_ns_per_event"] =
        Value::of(split.element_stats_ms * scale);
    entry["fused_ns_per_event"] = Value::of(split.fused_ms * scale);
    entry["pipeline_ns_per_event"] = Value::of(split.pipeline_ms * scale);
    detail[id] = std::move(entry);
  }
  const double ns = 1e6;
  const double per_event = standalone.events > 0 ? ns / standalone.events : 0;
  metrics.add("sim.plan.ns_per_event", standalone.plan_ms * per_event, "ns/event");
  metrics.add("sim.generate.ns_per_event", standalone.generate_ms * per_event,
              "ns/event");
  metrics.add("sim.lines.ns_per_event", standalone.lines_ms * per_event,
              "ns/event");
  metrics.add("sim.counts.ns_per_event", standalone.counts_ms * per_event,
              "ns/event");
  metrics.add("sim.distances.ns_per_event",
              standalone.distances_ms * per_event, "ns/event");
  metrics.add("sim.misses.ns_per_event", standalone.misses_ms * per_event,
              "ns/event");
  metrics.add("sim.element_stats.ns_per_event",
              standalone.element_stats_ms * per_event, "ns/event");
  metrics.add("sim.movement.ns_per_event", standalone.movement_ms * per_event,
              "ns/event");
  metrics.add("sim.fused.ns_per_event", standalone.fused_ms * per_event,
              "ns/event");
  metrics.add("sim.unattributed_share",
              1.0 - ratio(standalone.plan_ms + standalone.generate_ms +
                              standalone.fused_ms,
                          standalone.pipeline_ms),
              "ratio");
  metrics.add("analysis.closed_form_ms_p50", median(standalone.closed_form_ms),
              "ms");
  metrics.add("ir.from_json_ms", from_json_ms(workload), "ms");
  return mismatched;
}

int run(const Options& options) {
  const int nproc = dmv::par::hardware_threads();
  dmv::par::set_num_threads(nproc);
  const Workload workload = make_workload(options.workload, options.seed, nproc);

  Budget budget;
  budget.seconds = options.trace ? 0.3 * options.seconds : options.seconds;
  budget.min_steps = options.trace ? 0 : workload.min_steps;
  budget.max_steps = options.max_steps;
  budget.hard_cap_s = 2.5 * options.seconds + 5;
  const ServeRun run = run_serve(workload, budget, options.trace);

  Reference reference(workload);
  for (const RoundTrace& round : run.rounds) {
    for (const ClientTrace& client : round.clients) {
      for (const StepSpec& spec : client.specs) {
        reference.want(spec.program, spec.binding);
      }
    }
  }
  reference.compute(nproc);
  Verdict verdict = verify_serve(run, reference);

  Metrics metrics;
  Value layers = Value::null();
  if (options.trace) {
    Value by_program;
    verdict.mismatched += add_per_layer(metrics, workload, run, reference,
                                        options.seconds, by_program);
    layers = Value::make_object();
    layers["standalone_by_program"] = std::move(by_program);
  } else {
    add_end_to_end(metrics, run);
  }

  std::printf("%s\n",
              run_record(options, workload, run, verdict, reference.size(),
                         layers)
                  .c_str());
  const bool correct = verdict.mismatched == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(verdict.attempted),
      static_cast<long long>(verdict.failed), metrics.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dmvbench

int main(int argc, char** argv) {
  try {
    return dmvbench::run(dmvbench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dmvbench: %s\n", error.what());
    return 2;
  }
}
