// Serving-layer tests: protocol behavior, cross-session cache sharing,
// request coalescing, and the determinism contract under concurrency.
//
// All suites are named Serve* so the CI determinism and TSan gates
// (-R '...|Serve') pick them up: the concurrency tests here are the
// only place multiple client threads drive one process, which is
// exactly the surface those gates exist for.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dmv/builder/program_builder.hpp"
#include "dmv/ir/serialize.hpp"
#include "dmv/par/par.hpp"
#include "dmv/serve/server.hpp"
#include "dmv/session/session.hpp"
#include "dmv/util/json.hpp"
#include "dmv/workloads/workloads.hpp"

namespace {

using dmv::json::Value;
using dmv::serve::Server;
using dmv::serve::ServerConfig;

Value parse_line(const std::string& line) { return dmv::json::parse(line); }

std::string open_request(const std::string& session,
                         const std::string& workload) {
  return "{\"id\":1,\"method\":\"open_program\",\"params\":{\"session\":\"" +
         session + "\",\"workload\":\"" + workload +
         "\",\"binding\":{\"I\":8,\"J\":8,\"K\":5}}}";
}

std::string step_request(const std::string& session, const std::string& symbol,
                         std::int64_t value) {
  return "{\"id\":2,\"method\":\"step\",\"params\":{\"session\":\"" + session +
         "\",\"symbol\":\"" + symbol + "\",\"value\":" +
         std::to_string(value) + "}}";
}

/// Drives the drag sequence through a lone single-threaded Session —
/// the reference the server must match bit for bit.
std::vector<std::string> reference_checksums(
    const std::vector<std::int64_t>& values) {
  dmv::session::SessionConfig config;
  config.prefetch = false;
  dmv::session::Session session(
      dmv::workloads::hdiff(dmv::workloads::HdiffVariant::Baseline),
      std::move(config));
  session.set_binding({{"I", 8}, {"J", 8}, {"K", 5}});
  std::vector<std::string> checksums;
  for (const std::int64_t value : values) {
    session.set_symbol("K", value);
    checksums.push_back(
        std::to_string(dmv::serve::result_checksum(*session.metrics())));
  }
  return checksums;
}

/// The one-map program B[i] = A[i / D] over i in 0:N-1 (A and B of
/// shape N, symbols N and D declared).
dmv::ir::Sdfg div_program() {
  dmv::builder::ProgramBuilder program("div");
  program.symbols({"N", "D"});
  program.array("A", {"N"});
  program.array("B", {"N"});
  program.state("s");
  program.mapped_tasklet("t", {{"i", "0:N-1"}}, {{"a", "A", "i / D"}},
                         "b = a", {{"b", "B", "i"}});
  return program.take();
}

std::string open_inline_request(const std::string& session,
                                const std::string& sdfg_json,
                                const std::string& binding) {
  return "{\"id\":1,\"method\":\"open_program\",\"params\":{\"session\":\"" +
         session + "\",\"sdfg\":" + sdfg_json + ",\"binding\":" + binding +
         "}}";
}

// ---------------------------------------------------------------------
// Protocol basics and error shapes.

TEST(ServeProtocolTest, OpenBindStepRoundtrip) {
  Server server;
  const Value opened = parse_line(server.handle(open_request("a", "hdiff")));
  ASSERT_TRUE(opened.has("result")) << dmv::json::dump(opened);
  EXPECT_EQ(opened.at("result").at("program").as_string(), "hdiff");
  EXPECT_EQ(opened.at("result").at("symbols").as_array().size(), 3u);

  const Value stepped = parse_line(server.handle(step_request("a", "K", 6)));
  ASSERT_TRUE(stepped.has("result")) << dmv::json::dump(stepped);
  const Value& result = stepped.at("result");
  EXPECT_EQ(result.at("served_by").as_string(), "compute");
  EXPECT_GT(result.at("executions").as_int(), 0);
  EXPECT_FALSE(result.at("checksum").as_string().empty());

  // Same step again: served from this session's local cache.
  const Value repeat = parse_line(server.handle(step_request("a", "K", 6)));
  EXPECT_EQ(repeat.at("result").at("served_by").as_string(), "cache");
  EXPECT_EQ(repeat.at("result").at("checksum").as_string(),
            result.at("checksum").as_string());
}

TEST(ServeProtocolTest, MalformedRequestsGetErrorResponses) {
  // Inline programs that fail to build (rank-0 strides) or to validate
  // (a cycle, a zero element size, an undeclared symbol) are rejected at
  // open_program, before any step can run them.
  const Value valid = dmv::json::parse(dmv::ir::to_json(div_program()));
  auto node_id = [&](const char* data) {
    for (const Value& node :
         valid.at("states").as_array()[0].at("nodes").as_array()) {
      if (node.has("data") && node.at("data").as_string() == data) {
        return node.at("id").as_int();
      }
    }
    ADD_FAILURE() << "no access node for " << data;
    return std::int64_t{-1};
  };
  auto open_inline = [](const Value& sdfg) {
    return open_inline_request("p", dmv::json::dump(sdfg),
                               "{\"N\":16,\"D\":2}");
  };
  Value rank0_strides = valid;
  rank0_strides["containers"].array[0]["strides"] = Value::make_array();
  Value cyclic = valid;
  Value back_edge = Value::make_object();
  back_edge["src"] = Value::of(node_id("B"));
  back_edge["dst"] = Value::of(node_id("A"));
  cyclic["states"].array[0]["edges"].push(back_edge);
  Value zero_element = valid;
  zero_element["containers"].array[0]["element_size"] = Value::of(0);
  Value undeclared = valid;
  undeclared["symbols"] = Value::make_array();
  undeclared["symbols"].push(Value::of("N"));

  Server server;
  struct Case {
    std::string line;
    const char* code;
    const char* message = "";
  };
  const Case cases[] = {
      {"not json at all", "parse_error"},
      {"{\"id\":1}", "bad_request"},  // No method.
      {"{\"id\":2,\"method\":\"frobnicate\"}", "unknown_method"},
      {"{\"id\":3,\"method\":\"step\",\"params\":{\"session\":\"ghost\","
       "\"symbol\":\"K\",\"value\":5}}",
       "unknown_session"},
      {"{\"id\":4,\"method\":\"open_program\",\"params\":{\"session\":\"a\","
       "\"workload\":\"no_such_workload\"}}",
       "bad_program"},
      {"{\"id\":5,\"method\":\"open_program\",\"params\":{\"session\":\"a\"}}",
       "bad_request"},  // Neither workload nor sdfg.
      {open_inline(rank0_strides), "bad_program",
       "shape/strides rank mismatch"},
      {open_inline(cyclic), "bad_program", "cyclic"},
      {open_inline(zero_element), "bad_program", "non-positive element size"},
      {open_inline(undeclared), "bad_program", "undeclared symbol 'D'"},
  };
  for (const Case& c : cases) {
    const Value response = parse_line(server.handle(c.line));
    ASSERT_TRUE(response.has("error")) << c.line;
    EXPECT_EQ(response.at("error").at("code").as_string(), c.code) << c.line;
    const std::string& message = response.at("error").at("message").as_string();
    EXPECT_FALSE(message.empty());
    EXPECT_NE(message.find(c.message), std::string::npos) << message;
  }
  // Error handling must not have corrupted anything: valid requests
  // still work.
  const Value ok = parse_line(server.handle(open_request("a", "hdiff")));
  EXPECT_TRUE(ok.has("result"));
  EXPECT_TRUE(parse_line(server.handle(open_inline(valid))).has("result"));
  EXPECT_EQ(server.stats().errors, 10);
}

TEST(ServeProtocolTest, StepWithBadParamsReportsBadRequest) {
  Server server;
  server.handle(open_request("a", "hdiff"));
  const Value missing = parse_line(
      server.handle("{\"id\":1,\"method\":\"step\",\"params\":"
                    "{\"session\":\"a\"}}"));
  EXPECT_EQ(missing.at("error").at("code").as_string(), "bad_request");
  const Value bad_type = parse_line(
      server.handle("{\"id\":2,\"method\":\"bind\",\"params\":"
                    "{\"session\":\"a\",\"binding\":{\"K\":\"five\"}}}"));
  EXPECT_EQ(bad_type.at("error").at("code").as_string(), "bad_request");
}

TEST(ServeProtocolTest, BadStepBindingIsBadRequest) {
  // A binding the program cannot run under is the client's fault: a
  // negative extent, a symbol left unbound, a slider moved past a fixed
  // capacity, and a division by zero all map to bad_request.
  Server server;
  server.handle(open_request("a", "hdiff"));
  const dmv::ir::Sdfg fixed = dmv::workloads::fixed_capacity(
      dmv::workloads::hdiff(dmv::workloads::HdiffVariant::Reordered),
      {{"K", "KMAX"}});
  const std::string in_capacity = "{\"I\":8,\"J\":8,\"K\":6,\"KMAX\":10}";
  server.handle(
      "{\"id\":1,\"method\":\"open_program\",\"params\":{\"session\":"
      "\"b\",\"sdfg\":" +
      dmv::ir::to_json(fixed) + ",\"binding\":" + in_capacity + "}}");
  const std::string divisible = "{\"N\":16,\"D\":2}";
  server.handle(
      open_inline_request("c", dmv::ir::to_json(div_program()), divisible));
  struct Case {
    const char* session;
    const char* binding;
    const char* message;
  };
  const Case cases[] = {
      {"a", "{\"I\":-5,\"J\":8,\"K\":4}", "non-positive extent"},
      {"a", "{\"I\":8,\"J\":8}", "unbound symbol in evaluation: K"},
      {"b", "{\"I\":8,\"J\":8,\"K\":12,\"KMAX\":10}",
       "access out of bounds"},
      {"c", "{\"N\":16,\"D\":0}", "division by zero"},
  };
  for (const Case& c : cases) {
    const Value response = parse_line(server.handle(
        std::string("{\"id\":3,\"method\":\"step\",\"params\":"
                    "{\"session\":\"") +
        c.session + "\",\"binding\":" + c.binding + "}}"));
    ASSERT_TRUE(response.has("error")) << c.binding;
    EXPECT_EQ(response.at("error").at("code").as_string(), "bad_request")
        << c.binding;
    EXPECT_NE(response.at("error").at("message").as_string().find(c.message),
              std::string::npos)
        << dmv::json::dump(response);
  }
  // Both sessions still serve a valid step, bit-identical to a lone
  // Session at that binding.
  const Value stepped = parse_line(server.handle(step_request("a", "K", 6)));
  ASSERT_TRUE(stepped.has("result")) << dmv::json::dump(stepped);
  EXPECT_EQ(stepped.at("result").at("checksum").as_string(),
            reference_checksums({6}).front());
  const Value back = parse_line(server.handle(
      "{\"id\":4,\"method\":\"step\",\"params\":{\"session\":\"b\","
      "\"binding\":" +
      in_capacity + "}}"));
  ASSERT_TRUE(back.has("result")) << dmv::json::dump(back);
  dmv::session::SessionConfig config;
  config.prefetch = false;
  dmv::session::Session lone(fixed, std::move(config));
  lone.set_binding({{"I", 8}, {"J", 8}, {"K", 6}, {"KMAX", 10}});
  EXPECT_EQ(back.at("result").at("checksum").as_string(),
            std::to_string(dmv::serve::result_checksum(*lone.metrics())));
  const Value divided = parse_line(server.handle(
      "{\"id\":5,\"method\":\"step\",\"params\":{\"session\":\"c\","
      "\"binding\":" +
      divisible + "}}"));
  ASSERT_TRUE(divided.has("result")) << dmv::json::dump(divided);
  dmv::session::SessionConfig div_config;
  div_config.prefetch = false;
  dmv::session::Session lone_div(div_program(), std::move(div_config));
  lone_div.set_binding({{"N", 16}, {"D", 2}});
  EXPECT_EQ(divided.at("result").at("checksum").as_string(),
            std::to_string(dmv::serve::result_checksum(*lone_div.metrics())));
  EXPECT_EQ(server.stats().errors, 4);
}

TEST(ServeProtocolTest, OutOfRangeIntegersAreBadRequest) {
  // 2^63 parses as a double that no int64 holds; it used to be cast
  // anyway, and the step that followed crashed the server. Subscribe
  // integers are range-checked before they are narrowed, and
  // prefetch_depth is capped at the protocol limit of 8.
  Server server;
  server.handle(open_request("a", "hdiff"));
  const std::string subscribe =
      "{\"id\":1,\"method\":\"subscribe\",\"params\":{\"session\":\"a\",";
  const std::string requests[] = {
      "{\"id\":1,\"method\":\"bind\",\"params\":{\"session\":\"a\","
      "\"binding\":{\"I\":9223372036854775807}}}",
      "{\"id\":1,\"method\":\"step\",\"params\":{\"session\":\"a\","
      "\"symbol\":\"K\",\"value\":9223372036854775808}}",
      subscribe + "\"prefetch_depth\":9}}",
      subscribe + "\"prefetch_depth\":1099511627776}}",
      subscribe + "\"prefetch_depth\":-1}}",
      subscribe + "\"cache_budget_bytes\":-1}}",
      subscribe + "\"line_size\":0}}",
      subscribe + "\"line_size\":4294967360}}",
  };
  for (const std::string& request : requests) {
    const Value response = parse_line(server.handle(request));
    ASSERT_TRUE(response.has("error")) << request;
    EXPECT_EQ(response.at("error").at("code").as_string(), "bad_request")
        << dmv::json::dump(response);
  }
  EXPECT_EQ(server.stats().errors, 8);
  // The session kept its binding and subscription and still serves a
  // step bit-identical to a lone Session.
  const Value stepped = parse_line(server.handle(step_request("a", "K", 6)));
  ASSERT_TRUE(stepped.has("result")) << dmv::json::dump(stepped);
  EXPECT_EQ(stepped.at("result").at("checksum").as_string(),
            reference_checksums({6}).front());
  const Value limit = parse_line(server.handle(subscribe +
                                               "\"prefetch_depth\":8}}"));
  ASSERT_TRUE(limit.has("result")) << dmv::json::dump(limit);
  EXPECT_EQ(limit.at("result").at("prefetch_depth").as_int(), 8);
}

std::string binding_step(const std::string& session,
                         const std::string& binding) {
  return "{\"id\":3,\"method\":\"step\",\"params\":{\"session\":\"" +
         session + "\",\"binding\":" + binding + "}}";
}

TEST(ServeProtocolTest, OverflowingEventCountIsBadRequestFast) {
  // Both bindings describe hdiff traces longer than int64 can count.
  // The planner derives the chunk boundaries of a uniform map by
  // arithmetic and checks every count, so each step is refused at once
  // instead of looping over 4e12 or 2^62 outer trips.
  Server server;
  server.handle(open_request("a", "hdiff"));
  server.handle(step_request("a", "K", 6));  // Arms the delta checkpoint.
  for (const char* binding : {"{\"I\":4e12,\"J\":4e12,\"K\":5}",
                              "{\"I\":4611686018427387904,\"J\":8,\"K\":5}"}) {
    const auto start = std::chrono::steady_clock::now();
    const Value response =
        parse_line(server.handle(binding_step("a", binding)));
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(response.has("error")) << binding;
    EXPECT_EQ(response.at("error").at("code").as_string(), "bad_request")
        << dmv::json::dump(response);
    EXPECT_NE(response.at("error").at("message").as_string().find("overflow"),
              std::string::npos)
        << dmv::json::dump(response);
    EXPECT_LT(elapsed, std::chrono::seconds(5)) << binding;
  }
  const Value stepped = parse_line(
      server.handle(binding_step("a", "{\"I\":8,\"J\":8,\"K\":5}")));
  ASSERT_TRUE(stepped.has("result")) << dmv::json::dump(stepped);
  EXPECT_EQ(stepped.at("result").at("checksum").as_string(),
            reference_checksums({5}).front());
}

/// B[i] = A[0:N-1:S] over i in 0:N-1: every point reads a strided row.
dmv::ir::Sdfg strided_program() {
  dmv::builder::ProgramBuilder program("strided");
  program.symbols({"N", "S"});
  program.array("A", {"N"});
  program.array("B", {"N"});
  program.state("s");
  program.mapped_tasklet("t", {{"i", "0:N-1"}}, {{"a", "A", "0:N-1:S"}},
                         "b = a", {{"b", "B", "i"}});
  return program.take();
}

TEST(ServeProtocolTest, ZeroSubsetStepIsBadRequestBeforeGeneration) {
  // A zero subset step would emit the first element forever; the
  // planner refuses it before any event is generated.
  Server server;
  const Value opened = parse_line(server.handle(open_inline_request(
      "s", dmv::ir::to_json(strided_program()), "{\"N\":64,\"S\":1}")));
  ASSERT_TRUE(opened.has("result")) << dmv::json::dump(opened);
  const auto start = std::chrono::steady_clock::now();
  const Value refused = parse_line(server.handle(step_request("s", "S", 0)));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  ASSERT_TRUE(refused.has("error")) << dmv::json::dump(refused);
  EXPECT_EQ(refused.at("error").at("code").as_string(), "bad_request");
  EXPECT_NE(refused.at("error").at("message").as_string().find(
                "non-positive subset step"),
            std::string::npos)
      << dmv::json::dump(refused);

  const Value stepped = parse_line(server.handle(step_request("s", "S", 2)));
  ASSERT_TRUE(stepped.has("result")) << dmv::json::dump(stepped);
  dmv::session::SessionConfig config;
  config.prefetch = false;
  dmv::session::Session lone(strided_program(), std::move(config));
  lone.set_binding({{"N", 64}, {"S", 2}});
  EXPECT_EQ(stepped.at("result").at("checksum").as_string(),
            std::to_string(dmv::serve::result_checksum(*lone.metrics())));
  EXPECT_EQ(stepped.at("result").at("executions").as_int(), 64);
}

TEST(ServeJsonTest, AsIntRejectsTwoToTheSixtyThree) {
  EXPECT_THROW(dmv::json::parse("9223372036854775808").as_int(),
               dmv::json::ParseError);
  EXPECT_THROW(dmv::json::parse("9223372036854775807").as_int(),
               dmv::json::ParseError);  // Rounds to 2^63 as a double.
  EXPECT_EQ(dmv::json::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(dmv::json::parse("9223372036854774784").as_int(),
            std::int64_t{9223372036854774784});  // Largest double < 2^63.
}

TEST(ServeProtocolTest, SubscribeRebuildsSessionPreservingBinding) {
  Server server;
  server.handle(open_request("a", "hdiff"));
  server.handle(step_request("a", "K", 6));
  const Value subscribed = parse_line(server.handle(
      "{\"id\":1,\"method\":\"subscribe\",\"params\":{\"session\":\"a\","
      "\"element_stats\":true,\"miss_threshold_lines\":64,\"prefetch\":"
      "false}}"));
  ASSERT_TRUE(subscribed.has("result")) << dmv::json::dump(subscribed);
  EXPECT_TRUE(subscribed.at("result").at("element_stats").as_bool());
  EXPECT_EQ(subscribed.at("result").at("miss_threshold_lines").as_int(), 64);

  // The rebuilt session kept the binding, and the new subscription
  // matches a lone Session configured the same way.
  const Value stepped = parse_line(server.handle(step_request("a", "K", 7)));
  ASSERT_TRUE(stepped.has("result")) << dmv::json::dump(stepped);

  dmv::session::SessionConfig config;
  config.prefetch = false;
  config.pipeline.element_stats = true;
  config.pipeline.miss_threshold_lines = 64;
  dmv::session::Session reference(
      dmv::workloads::hdiff(dmv::workloads::HdiffVariant::Baseline),
      std::move(config));
  reference.set_binding({{"I", 8}, {"J", 8}, {"K", 7}});
  EXPECT_EQ(stepped.at("result").at("checksum").as_string(),
            std::to_string(
                dmv::serve::result_checksum(*reference.metrics())));
}

TEST(ServeProtocolTest, EditProgramSwitchesVariants) {
  Server server;
  server.handle(open_request("a", "hdiff"));
  const Value baseline = parse_line(server.handle(step_request("a", "K", 6)));
  const Value edited = parse_line(server.handle(
      "{\"id\":1,\"method\":\"edit_program\",\"params\":{\"session\":\"a\","
      "\"workload\":\"hdiff_reordered\"}}"));
  ASSERT_TRUE(edited.has("result")) << dmv::json::dump(edited);
  EXPECT_EQ(edited.at("result").at("program").as_string(), "hdiff_reordered");
  const Value reordered = parse_line(server.handle(step_request("a", "K", 6)));
  ASSERT_TRUE(reordered.has("result"));
  // Different program version, same binding: a fresh computation, and
  // the artifact is keyed by the new content hash.
  EXPECT_EQ(reordered.at("result").at("served_by").as_string(), "compute");
  EXPECT_EQ(baseline.at("result").at("executions").as_int(),
            reordered.at("result").at("executions").as_int());
}

// ---------------------------------------------------------------------
// Cross-session sharing.

TEST(ServeSharedCacheTest, SecondSessionHitsSharedTier) {
  ServerConfig config;
  config.session_defaults.prefetch = false;
  Server server(config);
  server.handle(open_request("alice", "hdiff"));
  server.handle(open_request("bob", "hdiff"));

  const Value first = parse_line(server.handle(step_request("alice", "K", 6)));
  EXPECT_EQ(first.at("result").at("served_by").as_string(), "compute");

  const Value second = parse_line(server.handle(step_request("bob", "K", 6)));
  EXPECT_EQ(second.at("result").at("served_by").as_string(), "shared_cache");
  EXPECT_EQ(second.at("result").at("checksum").as_string(),
            first.at("result").at("checksum").as_string());

  // The hit is visible in both accounting layers.
  const Value stats = parse_line(server.handle(
      "{\"id\":9,\"method\":\"stats\",\"params\":{\"session\":\"bob\"}}"));
  EXPECT_GT(stats.at("result").at("session").at("shared_hits").as_int(), 0);
  EXPECT_GT(stats.at("result").at("shared_cache").at("hits").as_int(), 0);
  EXPECT_GT(server.shared_cache_stats().hits, 0);

  // The per-phase pipeline breakdown is serialized alongside the cache
  // counters. alice computed, so her stats carry the evaluation.
  const Value alice = parse_line(server.handle(
      "{\"id\":10,\"method\":\"stats\",\"params\":{\"session\":\"alice\"}}"));
  const Value& session = alice.at("result").at("session");
  EXPECT_GE(session.at("simulate_ms").as_number() +
                session.at("metrics_ms").as_number(),
            0.0);
  EXPECT_GE(session.at("metric_partitions").as_int(), 1);
}

// ---------------------------------------------------------------------
// Concurrency: bit-identity, coalescing, graceful shutdown.

/// N client threads, each with its own session, drag the same slider
/// sequence with interleaved steps. Every response checksum must equal
/// the serial single-session reference, the coalescing invariant must
/// hold (exactly one "compute" per distinct binding, process-wide), and
/// the shared tier must show cross-session hits.
void run_concurrent_drag(int threads_knob) {
  dmv::par::ThreadScope scope(threads_knob);
  const std::vector<std::int64_t> values = {6, 7, 8, 9, 6, 8};
  const std::vector<std::string> reference = reference_checksums(values);
  const std::set<std::int64_t> distinct(values.begin(), values.end());

  ServerConfig config;
  config.session_defaults.prefetch = false;  // Exact compute accounting.
  Server server(config);
  constexpr int kClients = 8;
  for (int c = 0; c < kClients; ++c) {
    const Value opened = parse_line(
        server.handle(open_request("client" + std::to_string(c), "hdiff")));
    ASSERT_TRUE(opened.has("result"));
  }

  std::vector<std::vector<std::string>> checksums(kClients);
  std::atomic<int> computes{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::string session = "client" + std::to_string(c);
      for (const std::int64_t value : values) {
        const Value response =
            parse_line(server.handle(step_request(session, "K", value)));
        ASSERT_TRUE(response.has("result")) << dmv::json::dump(response);
        checksums[c].push_back(
            response.at("result").at("checksum").as_string());
        if (response.at("result").at("served_by").as_string() == "compute") {
          computes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  // Bit-identity: every client saw exactly the serial reference.
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(checksums[c], reference) << "client " << c;
  }
  // Coalescing invariant: one simulation per distinct binding — no
  // matter the interleaving, every other request was served by a cache
  // tier or waited on the leader's flight.
  EXPECT_EQ(computes.load(), static_cast<int>(distinct.size()));
  const dmv::serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.steps, static_cast<std::int64_t>(kClients * values.size()));
  EXPECT_LT(stats.coalesced, stats.steps);
  EXPECT_GT(server.shared_cache_stats().hits, 0);
}

TEST(ServeDeterminismTest, ConcurrentClientsBitIdenticalSerialPool) {
  run_concurrent_drag(1);
}

TEST(ServeDeterminismTest, ConcurrentClientsBitIdenticalParallelPool) {
  run_concurrent_drag(4);
}

TEST(ServeDeterminismTest, PoolBusyFallbackKeepsResultsIdentical) {
  // Two threads race whole parallel jobs; whichever finds the pool busy
  // degrades to serial inline and must produce the same sum.
  dmv::par::ThreadScope scope(4);
  const std::size_t n = 1 << 14;
  auto sum_squares = [&] {
    return dmv::par::parallel_reduce<std::int64_t>(
        n, 128, 0,
        [](std::size_t begin, std::size_t end) {
          std::int64_t sum = 0;
          for (std::size_t i = begin; i < end; ++i) {
            sum += static_cast<std::int64_t>(i * i);
          }
          return sum;
        },
        [](std::int64_t& into, std::int64_t part) { into += part; });
  };
  const std::int64_t expected = sum_squares();
  std::vector<std::int64_t> results(8, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int repeat = 0; repeat < 16; ++repeat) results[t] = sum_squares();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::int64_t result : results) EXPECT_EQ(result, expected);
}

TEST(ServeShutdownTest, GracefulWithInFlightRequests) {
  Server server;
  server.handle(open_request("a", "hdiff"));
  std::vector<std::string> responses(4);
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      responses[t] = server.handle(step_request("a", "K", 6 + t));
    });
  }
  server.shutdown();  // Must drain in-flight requests, then return.
  for (std::thread& client : clients) client.join();
  for (const std::string& line : responses) {
    const Value response = parse_line(line);
    // Every request either completed normally (admitted before the
    // shutdown) or was cleanly rejected — never dropped or corrupted.
    if (response.has("error")) {
      EXPECT_EQ(response.at("error").at("code").as_string(), "shutting_down");
    } else {
      EXPECT_TRUE(response.has("result"));
    }
  }
  EXPECT_TRUE(server.shutting_down());
  const Value rejected = parse_line(server.handle(step_request("a", "K", 20)));
  EXPECT_EQ(rejected.at("error").at("code").as_string(), "shutting_down");
}

// ---------------------------------------------------------------------
// The shared JSON module's writer (the parser is exercised by every
// protocol test and by the SDFG reader suite).

TEST(ServeJsonTest, DumpIsCanonicalAndRoundTrips) {
  Value object = Value::make_object();
  object["zeta"] = Value::of(std::int64_t{1} << 52);
  object["alpha"] = Value::of("line\nbreak \"quoted\"");
  object["mid"] = Value::make_array();
  object["mid"].push(Value::of(true));
  object["mid"].push(Value::null());
  object["mid"].push(Value::of(2.5));
  const std::string text = dmv::json::dump(object);
  // Keys sorted, integral doubles without fraction, escapes intact.
  EXPECT_EQ(text,
            "{\"alpha\":\"line\\nbreak \\\"quoted\\\"\","
            "\"mid\":[true,null,2.5],\"zeta\":4503599627370496}");
  const Value reparsed = dmv::json::parse(text);
  EXPECT_EQ(dmv::json::dump(reparsed), text);
  EXPECT_EQ(reparsed.at("zeta").as_int(), std::int64_t{1} << 52);
}

}  // namespace
