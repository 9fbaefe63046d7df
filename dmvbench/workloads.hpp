#pragma once

// Seeded request generation for the dmv benchmark.
//
// A workload is a set of closed-loop viewer clients. Each client owns
// one session on one dmv::serve::Server and replays a request stream:
// set-up requests (open_program, subscribe) before the timed phase,
// then slider steps, some preceded by an untimed open_program or
// edit_program. Everything a client sends is generated here from the
// workload seed; the server receives only these generated requests.

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "dmv/ir/sdfg.hpp"
#include "dmv/session/session.hpp"

namespace dmvbench {

/// One program a client can open: how it goes on the wire and the IR
/// the lower layers of the traced run drive directly.
struct Program {
  std::string id;          ///< Stable name, e.g. "hdiff_padded".
  std::string open_param;  ///< `"workload":"..."` or `"sdfg":{...}`.
  std::string sdfg_json;   ///< Inline SDFG text; empty for built-ins.
  dmv::ir::Sdfg sdfg;
  std::uint64_t version = 0;  ///< FNV-1a of the canonical JSON.
};

/// The subscription a client sends; applied on top of the server's
/// session defaults it gives the SessionConfig the lower layers use.
struct Subscription {
  std::int64_t miss_threshold_lines = 512;
  bool element_stats = false;
  bool movement = false;
  bool prefetch = true;

  std::string json() const;
  dmv::session::SessionConfig session_config() const;
};

/// One slider step of one client.
struct StepSpec {
  int program = 0;       ///< Index into Workload::programs.
  bool reopen = false;   ///< open_program + subscribe a fresh session first.
  bool edit = false;     ///< edit_program to `program` first.
  std::string symbol;    ///< Slider moved; empty = wholesale `binding`.
  std::int64_t value = 0;
  dmv::symbolic::SymbolMap binding;  ///< Full binding after the step.
};

/// One open_program + subscribe of the set-up phase.
struct Opening {
  int program = 0;
  dmv::symbolic::SymbolMap binding;  ///< Empty: open without a binding.
};

/// Request stream of one client in one round.
class Stream {
 public:
  virtual ~Stream() = default;
  /// Sessions opened (in order, under the client's one session name)
  /// before the first timed step.
  virtual std::vector<Opening> setup() const = 0;
  /// The next step; the sequence depends only on the seed.
  virtual StepSpec next() = 0;
};

struct Workload {
  std::string name;
  std::vector<Program> programs;
  Subscription subscription;
  int clients = 1;
  /// Steps each client runs in one round; 0 = one round of unlimited
  /// length (the run ends it by time).
  int round_steps = 0;
  /// Fewest steps a run measures (percentile sample floor).
  int min_steps = 100;
  std::uint64_t seed = 0;

  std::unique_ptr<Stream> stream(int client, int round) const;
};

/// Builds a workload by name; throws std::invalid_argument for an
/// unknown one. `nproc` caps the client count of team_share.
Workload make_workload(const std::string& name, std::uint64_t seed, int nproc);

/// Request lines. `id` only tags the line; responses are matched by
/// call order.
std::string open_request(const std::string& session, const Program& program,
                         const dmv::symbolic::SymbolMap* binding);
std::string subscribe_request(const std::string& session,
                              const Subscription& subscription);
std::string edit_request(const std::string& session, const Program& program);
std::string step_request(const std::string& session, const StepSpec& step);

/// Canonical "program|sym=value,..." key of one (program, binding).
std::string artifact_key(const Program& program,
                         const dmv::symbolic::SymbolMap& binding);

}  // namespace dmvbench
