#include "workloads.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "dmv/ir/json_reader.hpp"
#include "dmv/ir/serialize.hpp"
#include "dmv/serve/server.hpp"
#include "dmv/util/json.hpp"
#include "dmv/workloads/workloads.hpp"

namespace dmvbench {

namespace {

using dmv::symbolic::SymbolMap;

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

Program builtin(const std::string& id) {
  dmv::ir::Sdfg sdfg = dmv::serve::workload_by_name(id);
  const std::uint64_t version = fnv1a(dmv::ir::to_json(sdfg));
  return Program{id, "\"workload\":" + dmv::json::escape(id), "",
                 std::move(sdfg), version};
}

Program inline_program(const std::string& id, const dmv::ir::Sdfg& built) {
  std::string text = dmv::ir::to_json(built);
  dmv::ir::Sdfg sdfg = dmv::ir::from_json(text);
  const std::uint64_t version = fnv1a(text);
  return Program{id, "\"sdfg\":" + text, text, std::move(sdfg), version};
}

std::string binding_json(const SymbolMap& binding) {
  std::string out = "{";
  for (const auto& [symbol, value] : binding) {
    if (out.size() > 1) out += ",";
    out += dmv::json::escape(symbol) + ":" + std::to_string(value);
  }
  return out + "}";
}

std::int64_t uniform(std::mt19937_64& rng, std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
}

double unit(std::mt19937_64& rng) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng);
}

/// Per-(workload, client, round) generator seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::seed_seq seq{seed, seed >> 32, a, b};
  std::uint32_t words[2];
  seq.generate(words, words + 2);
  return (std::uint64_t{words[0]} << 32) | words[1];
}

/// One slider walk on [lo, hi]: +-1 moves in the current direction,
/// seeded reversals (which revisit values) and occasional jumps.
/// Bounces off the ends.
class SliderWalk {
 public:
  SliderWalk(std::mt19937_64& rng, std::int64_t lo, std::int64_t hi,
             double reverse, double jump)
      : rng_(rng), lo_(lo), hi_(hi), reverse_(reverse), jump_(jump) {
    value_ = uniform(rng_, lo_, hi_);
    direction_ = unit(rng_) < 0.5 ? -1 : 1;
  }

  std::int64_t value() const { return value_; }

  std::int64_t next() {
    const double u = unit(rng_);
    if (u < jump_) {
      std::int64_t target = value_;
      while (target == value_) target = uniform(rng_, lo_, hi_);
      value_ = target;
      return value_;
    }
    if (u < jump_ + reverse_) direction_ = -direction_;
    if (value_ + direction_ < lo_ || value_ + direction_ > hi_) {
      direction_ = -direction_;
    }
    value_ += direction_;
    return value_;
  }

 private:
  std::mt19937_64& rng_;
  std::int64_t lo_, hi_;
  double reverse_, jump_;
  std::int64_t value_ = 0;
  int direction_ = 1;
};

// --- explore_cold ------------------------------------------------------

/// Binding domains of the paper's case-study stages, sized so a cold
/// step of every program costs within about 3x of the others.
SymbolMap explore_binding(const std::string& id, std::mt19937_64& rng) {
  if (id.rfind("hdiff", 0) == 0) {
    return {{"I", uniform(rng, 28, 36)},
            {"J", uniform(rng, 28, 36)},
            {"K", uniform(rng, 8, 14)}};
  }
  if (id.rfind("bert", 0) == 0) {
    return {{"B", 1}, {"H", 2},
            {"I", 4 * uniform(rng, 3, 4)},
            {"P", 2 * uniform(rng, 3, 4)},
            {"SM", uniform(rng, 12, 32)},
            {"emb", 8 * uniform(rng, 2, 8)}};
  }
  return {{"M", uniform(rng, 32, 44)},
          {"N", uniform(rng, 32, 44)},
          {"K", uniform(rng, 32, 44)}};
}

class ExploreStream : public Stream {
 public:
  ExploreStream(const Workload& workload, std::uint64_t seed)
      : workload_(workload), rng_(seed) {
    for (int p = 0; p < static_cast<int>(workload.programs.size()); ++p) {
      order_.push_back(p);
    }
    position_ = order_.size();
  }

  std::vector<Opening> setup() const override {
    std::vector<Opening> openings;
    for (int p = 0; p < static_cast<int>(workload_.programs.size()); ++p) {
      openings.push_back({p, {}});
    }
    return openings;
  }

  StepSpec next() override {
    // Blocks of one step per program in seeded order keep the program
    // mix exactly balanced at every run length.
    if (position_ == order_.size()) {
      std::shuffle(order_.begin(), order_.end(), rng_);
      position_ = 0;
    }
    StepSpec step;
    step.program = order_[position_++];
    step.reopen = true;
    const Program& program = workload_.programs[step.program];
    for (int attempt = 0;; ++attempt) {
      if (attempt == 10000) {
        throw std::runtime_error("explore_cold ran out of fresh bindings");
      }
      step.binding = explore_binding(program.id, rng_);
      if (used_.insert(artifact_key(program, step.binding)).second) break;
    }
    return step;
  }

 private:
  const Workload& workload_;
  std::mt19937_64 rng_;
  std::vector<int> order_;
  std::size_t position_ = 0;
  std::set<std::string> used_;
};

// --- drag_delta --------------------------------------------------------

constexpr std::int64_t kDragIJ = 64;
constexpr std::int64_t kDragKMax = 40;
/// Sweeps start in [kDragStartLow, kDragStartHigh] and end at kDragTop,
/// which keeps the prefetcher's look-ahead (two values) within KMAX.
constexpr std::int64_t kDragStartLow = 8;
constexpr std::int64_t kDragStartHigh = 14;
constexpr std::int64_t kDragTop = kDragKMax - 2;

/// The viewer sweeps K upward in legs of 8-12 steps, each followed by
/// 1-2 steps back over values just visited. At the top of the range
/// (every 30-40 steps) it applies the other transform variant with
/// edit_program (Reordered <-> Padded) and the slider jumps back to a
/// seeded low value to sweep again: the apply-a-transform-and-look loop.
///
/// Why upward sweeps: moving K up appends events, so the delta engine
/// resumes its metric state, while moving down replays it; the two cost
/// about 10x apart. A walk that drifted both ways would put the median
/// on whichever side the seed favoured. Fixed leg lengths keep the mix
/// of step kinds (prefetched drag, revisit, edit + jump) the same for
/// every seed.
class DragStream : public Stream {
 public:
  explicit DragStream(std::uint64_t seed) : rng_(seed) {
    k_ = uniform(rng_, kDragStartLow, kDragStartHigh);
    leg_left_ = uniform(rng_, 8, 12);
    initial_ = binding(k_);
  }

  std::vector<Opening> setup() const override { return {{0, initial_}}; }

  StepSpec next() override {
    StepSpec step;
    if (leg_left_ == 0) {
      back_ = !back_;
      leg_left_ = back_ ? uniform(rng_, 1, 2) : uniform(rng_, 8, 12);
    }
    if (!back_ && k_ == kDragTop) {
      program_ = 1 - program_;
      step.edit = true;
      k_ = uniform(rng_, kDragStartLow, kDragStartHigh);
      leg_left_ = uniform(rng_, 8, 12);
    } else {
      k_ += back_ ? -1 : 1;
      --leg_left_;
    }
    step.program = program_;
    step.symbol = "K";
    step.value = k_;
    step.binding = binding(k_);
    return step;
  }

 private:
  static SymbolMap binding(std::int64_t k) {
    return {{"I", kDragIJ}, {"J", kDragIJ}, {"K", k}, {"KMAX", kDragKMax}};
  }

  std::mt19937_64 rng_;
  SymbolMap initial_;
  std::int64_t k_ = 0;
  bool back_ = false;
  std::int64_t leg_left_ = 0;
  int program_ = 0;
};

// --- team_share --------------------------------------------------------

/// Even clients drag K on hdiff (I=J=24), odd clients drag N on matmul
/// (M=K=24). Each client's range is a seeded window of one shared span,
/// so clients on the same program overlap on most keys.
class TeamStream : public Stream {
 public:
  TeamStream(int client, std::uint64_t seed)
      : program_(client % 2), rng_(seed) {
    const std::int64_t lo = program_ == 0 ? uniform(rng_, 4, 10)
                                          : uniform(rng_, 8, 16);
    walk_.emplace(rng_, lo, lo + 15, 0.15, 0.05);
  }

  std::vector<Opening> setup() const override {
    return {{program_, binding(walk_->value())}};
  }

  StepSpec next() override {
    StepSpec step;
    step.program = program_;
    step.symbol = program_ == 0 ? "K" : "N";
    step.value = walk_->next();
    step.binding = binding(step.value);
    return step;
  }

 private:
  SymbolMap binding(std::int64_t value) const {
    if (program_ == 0) return {{"I", 24}, {"J", 24}, {"K", value}};
    return {{"M", 24}, {"K", 24}, {"N", value}};
  }

  int program_;
  std::mt19937_64 rng_;
  std::optional<SliderWalk> walk_;
};

}  // namespace

std::string Subscription::json() const {
  return std::string("\"miss_threshold_lines\":") +
         std::to_string(miss_threshold_lines) +
         ",\"element_stats\":" + (element_stats ? "true" : "false") +
         ",\"movement\":" + (movement ? "true" : "false") +
         ",\"prefetch\":" + (prefetch ? "true" : "false");
}

dmv::session::SessionConfig Subscription::session_config() const {
  // The server's default session template, adjusted exactly as the
  // `subscribe` handler adjusts it.
  dmv::session::SessionConfig config = dmv::serve::ServerConfig{}.session_defaults;
  config.pipeline.miss_threshold_lines = miss_threshold_lines;
  config.pipeline.element_stats = element_stats;
  config.pipeline.movement = movement;
  config.prefetch = prefetch;
  return config;
}

std::unique_ptr<Stream> Workload::stream(int client, int round) const {
  const std::uint64_t stream_seed = mix(seed, client, round);
  if (name == "explore_cold") {
    return std::make_unique<ExploreStream>(*this, stream_seed);
  }
  if (name == "drag_delta") return std::make_unique<DragStream>(stream_seed);
  return std::make_unique<TeamStream>(client, stream_seed);
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       int nproc) {
  using dmv::workloads::HdiffVariant;
  Workload workload;
  workload.name = name;
  workload.seed = seed;
  if (name == "explore_cold") {
    for (const char* id : {"hdiff", "hdiff_reshaped", "hdiff_reordered",
                           "hdiff_padded", "bert", "bert_fused1",
                           "bert_fused2", "matmul"}) {
      workload.programs.push_back(builtin(id));
    }
    workload.subscription = {512, true, true, false};
    return workload;
  }
  if (name == "drag_delta") {
    const std::map<std::string, std::string> capacity{{"K", "KMAX"}};
    workload.programs.push_back(inline_program(
        "hdiff_reordered_fixed",
        dmv::workloads::fixed_capacity(
            dmv::workloads::hdiff(HdiffVariant::Reordered), capacity)));
    workload.programs.push_back(inline_program(
        "hdiff_padded_fixed",
        dmv::workloads::fixed_capacity(
            dmv::workloads::hdiff(HdiffVariant::Padded), capacity)));
    workload.subscription = {512, false, false, true};
    return workload;
  }
  if (name == "team_share") {
    workload.programs.push_back(builtin("hdiff"));
    workload.programs.push_back(builtin("matmul"));
    workload.subscription = {512, false, false, true};
    workload.clients = std::max(1, std::min(4, nproc));
    workload.round_steps = 40;
    workload.min_steps = 1000;
    return workload;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string open_request(const std::string& session, const Program& program,
                         const SymbolMap* binding) {
  std::string line =
      "{\"id\":1,\"method\":\"open_program\",\"params\":{\"session\":" +
      dmv::json::escape(session) + "," + program.open_param;
  if (binding != nullptr && !binding->empty()) {
    line += ",\"binding\":" + binding_json(*binding);
  }
  return line + "}}";
}

std::string subscribe_request(const std::string& session,
                              const Subscription& subscription) {
  return "{\"id\":2,\"method\":\"subscribe\",\"params\":{\"session\":" +
         dmv::json::escape(session) + "," + subscription.json() + "}}";
}

std::string edit_request(const std::string& session, const Program& program) {
  return "{\"id\":3,\"method\":\"edit_program\",\"params\":{\"session\":" +
         dmv::json::escape(session) + "," + program.open_param + "}}";
}

std::string step_request(const std::string& session, const StepSpec& step) {
  std::string line = "{\"id\":4,\"method\":\"step\",\"params\":{\"session\":" +
                     dmv::json::escape(session) + ",";
  if (step.symbol.empty()) {
    line += "\"binding\":" + binding_json(step.binding);
  } else {
    line += "\"symbol\":" + dmv::json::escape(step.symbol) +
            ",\"value\":" + std::to_string(step.value);
  }
  return line + "}}";
}

std::string artifact_key(const Program& program, const SymbolMap& binding) {
  std::string key = program.id + "|";
  for (const auto& [symbol, value] : binding) {
    key += symbol + "=" + std::to_string(value) + ",";
  }
  return key;
}

}  // namespace dmvbench
