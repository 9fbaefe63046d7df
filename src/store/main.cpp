// dmv_store — offline tooling for the columnar trace store
// (docs/storage.md).
//
//   dmv_store pack --workload NAME [--set S=V ...] [--chunk-events N] -o F
//   dmv_store pack --from-text FILE [--chunk-events N] -o F
//                                        (a dmvtrace 1 or 2 text trace)
//   dmv_store unpack FILE [-o FILE]      text (dmvtrace 2) debug export
//   dmv_store verify FILE                decode every chunk, check sums
//   dmv_store ls FILE                    header + chunk directory
//   dmv_store warm --workload NAME --cache-dir DIR --sweep S=LO:HI[:STEP]
//                  [--set S=V ...]       precompute the dmv_serve
//                                        warm-start tier offline
//
// `pack --workload` simulates the named workload (the dmv_serve
// registry) at its default binding, overridable per symbol with --set,
// and writes the plan-aligned compressed store file. `warm` runs a
// slider sweep through a Session wired to the same persistent disk
// tier dmv_serve uses (--cache-dir), so a server started against that
// directory serves the sweep without simulating anything.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dmv/serve/server.hpp"
#include "dmv/session/session.hpp"
#include "dmv/sim/trace_io.hpp"
#include "dmv/sim/trace_plan.hpp"
#include "dmv/store/artifact_store.hpp"
#include "dmv/store/trace_store.hpp"
#include "dmv/workloads/workloads.hpp"

namespace {

using dmv::symbolic::SymbolMap;

int usage() {
  std::cerr
      << "usage: dmv_store <command> [args]\n"
         "  pack --workload NAME [--set S=V ...] [--chunk-events N] -o F\n"
         "  pack --from-text FILE [--chunk-events N] -o F"
         "   (dmvtrace 1 or 2)\n"
         "  unpack FILE [-o FILE]   (writes dmvtrace 2)\n"
         "  verify FILE\n"
         "  ls FILE\n"
         "  warm --workload NAME --cache-dir DIR --sweep S=LO:HI[:STEP]"
         " [--set S=V ...]\n";
  return 2;
}

/// Default binding of each registry workload — the same parameter sets
/// the tests and docs use for that workload family.
SymbolMap default_binding(const std::string& workload) {
  if (workload.rfind("hdiff", 0) == 0) return dmv::workloads::hdiff_local();
  if (workload.rfind("bert", 0) == 0) return dmv::workloads::bert_small();
  if (workload == "matmul") return dmv::workloads::matmul_fig5();
  if (workload == "conv2d") return dmv::workloads::conv2d_fig4();
  if (workload == "outer_product") {
    return dmv::workloads::outer_product_fig3();
  }
  return {};
}

void apply_set(SymbolMap& binding, const std::string& spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::runtime_error("bad --set '" + spec + "' (want SYM=VALUE)");
  }
  binding[spec.substr(0, eq)] = std::stoll(spec.substr(eq + 1));
}

struct Sweep {
  std::string symbol;
  std::int64_t lo = 0, hi = 0, step = 1;
};

Sweep parse_sweep(const std::string& spec) {
  Sweep sweep;
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw std::runtime_error("bad --sweep '" + spec +
                             "' (want SYM=LO:HI[:STEP])");
  }
  sweep.symbol = spec.substr(0, eq);
  std::string range = spec.substr(eq + 1);
  std::replace(range.begin(), range.end(), ':', ' ');
  std::istringstream fields(range);
  if (!(fields >> sweep.lo >> sweep.hi)) {
    throw std::runtime_error("bad --sweep range in '" + spec + "'");
  }
  fields >> sweep.step;
  if (sweep.step <= 0) sweep.step = 1;
  return sweep;
}

int cmd_pack(int argc, char** argv) {
  std::string workload, from_text, output;
  SymbolMap overrides;
  dmv::store::StoreOptions options;
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(arg, "--workload") == 0 && has_value) {
      workload = argv[++i];
    } else if (std::strcmp(arg, "--from-text") == 0 && has_value) {
      from_text = argv[++i];
    } else if (std::strcmp(arg, "--set") == 0 && has_value) {
      apply_set(overrides, argv[++i]);
    } else if (std::strcmp(arg, "--chunk-events") == 0 && has_value) {
      options.chunk_events = std::atoll(argv[++i]);
    } else if (std::strcmp(arg, "-o") == 0 && has_value) {
      output = argv[++i];
    } else {
      return usage();
    }
  }
  if (output.empty() || (workload.empty() == from_text.empty())) {
    return usage();
  }

  if (!from_text.empty()) {
    std::ifstream in(from_text);
    if (!in) {
      std::cerr << "dmv_store: cannot open " << from_text << "\n";
      return 1;
    }
    dmv::sim::AccessTrace trace = dmv::sim::read_trace(in);
    dmv::store::write_trace_file(trace, output, options);
    std::cout << "packed " << trace.events.size() << " events -> " << output
              << "\n";
    return 0;
  }

  dmv::ir::Sdfg sdfg = dmv::serve::workload_by_name(workload);
  SymbolMap binding = default_binding(workload);
  for (const auto& [symbol, value] : overrides) binding[symbol] = value;
  dmv::sim::SimulationOptions sim_options;
  dmv::sim::AccessTrace trace = dmv::sim::simulate(sdfg, binding, sim_options);
  // Fixed chunks-per-map (the default derives from the thread count):
  // a packed file must be byte-identical no matter which machine ran
  // the CLI, since store files are meant to be precomputed and shipped.
  constexpr int kPlanChunksPerMap = 16;
  dmv::sim::TracePlan plan =
      dmv::sim::plan_trace(sdfg, binding, sim_options, kPlanChunksPerMap);
  dmv::store::write_trace_file(trace, output, options, &plan);
  dmv::store::TraceStoreReader reader(output);
  std::cout << "packed " << trace.events.size() << " events ("
            << trace.events.used_bytes() << " bytes raw) -> " << output
            << " (" << reader.file_bytes() << " bytes, "
            << reader.chunk_count() << " chunks)\n";
  return 0;
}

int cmd_unpack(int argc, char** argv) {
  std::string input, output;
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(arg, "-o") == 0 && has_value) {
      output = argv[++i];
    } else if (std::strcmp(arg, "--text") == 0) {
      // The default (and only) export format.
    } else if (input.empty() && arg[0] != '-') {
      input = arg;
    } else {
      return usage();
    }
  }
  if (input.empty()) return usage();
  dmv::store::TraceStoreReader reader(input);
  dmv::sim::AccessTrace trace = reader.read_trace();
  if (output.empty()) {
    dmv::sim::write_trace(trace, std::cout);
  } else {
    std::ofstream out(output);
    if (!out) {
      std::cerr << "dmv_store: cannot write " << output << "\n";
      return 1;
    }
    dmv::sim::write_trace(trace, out);
  }
  return 0;
}

int cmd_verify(int argc, char** argv) {
  if (argc != 1) return usage();
  dmv::store::TraceStoreReader reader(argv[0]);
  reader.verify();
  std::cout << "ok: " << reader.total_events() << " events, "
            << reader.chunk_count() << " chunks, checksums match\n";
  return 0;
}

int cmd_ls(int argc, char** argv) {
  if (argc != 1) return usage();
  dmv::store::TraceStoreReader reader(argv[0]);
  std::cout << "dmvs v" << dmv::store::kTraceFormatVersion << ": "
            << reader.total_events() << " events, "
            << reader.executions() << " executions, "
            << reader.containers().size() << " containers, "
            << reader.chunk_count() << " chunks, " << reader.file_bytes()
            << " file bytes (" << reader.payload_bytes() << " payload)\n";
  for (std::size_t c = 0; c < reader.containers().size(); ++c) {
    std::cout << "  container " << c << ": " << reader.containers()[c]
              << "\n";
  }
  for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
    const dmv::store::ChunkInfo& chunk = reader.chunk(c);
    std::cout << "  chunk " << c << ": events [" << chunk.event_offset
              << ", " << chunk.event_offset + chunk.event_count
              << ") executions [" << chunk.execution_offset << ", "
              << chunk.execution_offset + chunk.execution_count << ") "
              << chunk.payload_size << " bytes\n";
  }
  return 0;
}

int cmd_warm(int argc, char** argv) {
  std::string workload, cache_dir, sweep_spec;
  SymbolMap overrides;
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(arg, "--workload") == 0 && has_value) {
      workload = argv[++i];
    } else if (std::strcmp(arg, "--cache-dir") == 0 && has_value) {
      cache_dir = argv[++i];
    } else if (std::strcmp(arg, "--sweep") == 0 && has_value) {
      sweep_spec = argv[++i];
    } else if (std::strcmp(arg, "--set") == 0 && has_value) {
      apply_set(overrides, argv[++i]);
    } else {
      return usage();
    }
  }
  if (workload.empty() || cache_dir.empty() || sweep_spec.empty()) {
    return usage();
  }
  const Sweep sweep = parse_sweep(sweep_spec);

  // Same tier wiring as dmv_serve --cache-dir: artifacts this run
  // computes land in the directory a later server re-serves from.
  dmv::session::SharedArtifactCache::Config shared_config;
  shared_config.disk_dir = cache_dir;
  // dmv_serve defaults minus prefetch: speculative neighbors outside the
  // sweep would be simulated and persisted although nobody asked for
  // them.
  dmv::session::SessionConfig session_config;
  session_config.prefetch = false;
  session_config.shared_cache =
      std::make_shared<dmv::session::SharedArtifactCache>(shared_config);

  dmv::session::Session session(dmv::serve::workload_by_name(workload),
                                std::move(session_config));
  SymbolMap binding = default_binding(workload);
  for (const auto& [symbol, value] : overrides) binding[symbol] = value;
  session.set_binding(binding);

  std::int64_t steps = 0;
  for (std::int64_t value = sweep.lo; value <= sweep.hi;
       value += sweep.step) {
    session.set_symbol(sweep.symbol, value);
    session.metrics();
    ++steps;
  }
  const dmv::session::SharedCacheStats stats =
      session.config().shared_cache->stats();
  std::cout << "warmed " << steps << " bindings of " << workload << "."
            << sweep.symbol << " -> " << cache_dir << " ("
            << stats.disk_writes << " artifacts written, "
            << stats.disk_bytes << " bytes on disk)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "pack") return cmd_pack(argc - 2, argv + 2);
    if (command == "unpack") return cmd_unpack(argc - 2, argv + 2);
    if (command == "verify") return cmd_verify(argc - 2, argv + 2);
    if (command == "ls") return cmd_ls(argc - 2, argv + 2);
    if (command == "warm") return cmd_warm(argc - 2, argv + 2);
  } catch (const std::exception& error) {
    std::cerr << "dmv_store: " << error.what() << "\n";
    return 1;
  }
  return usage();
}
