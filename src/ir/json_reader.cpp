#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dmv/ir/json_reader.hpp"
#include "dmv/symbolic/parser.hpp"
#include "dmv/util/json.hpp"

namespace dmv::ir {

namespace {

// ---------------------------------------------------------------------
// SDFG reconstruction on top of the shared dmv::json parser. Every
// json::ParseError (both lexical errors and schema-level type/key
// mismatches from the checked accessors) is rethrown as ir::JsonError
// at the from_json boundary so callers keep a single exception type.

using json::Value;

/// An int-sized field (element size, node id): a non-integral or
/// out-of-range number is a schema error, never a narrowing cast.
int int_field(const Value& object, const char* key) {
  const std::int64_t value = object.at(key).as_int();
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    throw JsonError(std::string("'") + key + "' out of range");
  }
  return static_cast<int>(value);
}

symbolic::Expr parse_expr(const Value& value) {
  return symbolic::parse(value.as_string());
}

NodeKind node_kind_from(const std::string& name) {
  if (name == "access") return NodeKind::Access;
  if (name == "tasklet") return NodeKind::Tasklet;
  if (name == "map_entry") return NodeKind::MapEntry;
  if (name == "map_exit") return NodeKind::MapExit;
  throw JsonError("unknown node kind '" + name + "'");
}

Wcr wcr_from(const std::string& name) {
  if (name == "sum") return Wcr::Sum;
  if (name == "min") return Wcr::Min;
  if (name == "max") return Wcr::Max;
  if (name == "none") return Wcr::None;
  throw JsonError("unknown wcr '" + name + "'");
}

void read_containers(const Value& document, Sdfg& sdfg) {
  for (const Value& entry : document.at("containers").as_array()) {
    DataDescriptor descriptor;
    descriptor.name = entry.at("name").as_string();
    for (const Value& extent : entry.at("shape").as_array()) {
      descriptor.shape.push_back(parse_expr(extent));
    }
    for (const Value& stride : entry.at("strides").as_array()) {
      descriptor.strides.push_back(parse_expr(stride));
    }
    descriptor.element_size = int_field(entry, "element_size");
    descriptor.transient = entry.at("transient").as_bool();
    sdfg.add_array(std::move(descriptor));
  }
}

void read_state(const Value& entry, Sdfg& sdfg) {
  State& state = sdfg.add_state(entry.at("name").as_string());
  for (const Value& node_value : entry.at("nodes").as_array()) {
    Node node;
    node.id = int_field(node_value, "id");
    node.kind = node_kind_from(node_value.at("kind").as_string());
    node.label = node_value.at("label").as_string();
    if (node_value.has("data")) {
      node.data = node_value.at("data").as_string();
    }
    if (node_value.has("code")) {
      node.code = parse_tasklet(node_value.at("code").as_string());
    }
    if (node.kind == NodeKind::MapEntry) {
      node.map.label = node.label;
      for (const Value& param : node_value.at("params").as_array()) {
        node.map.params.push_back(param.as_string());
      }
      for (const Value& range : node_value.at("ranges").as_array()) {
        Subset parsed = Subset::parse(range.as_string());
        if (parsed.rank() != 1) throw JsonError("bad map range");
        node.map.ranges.push_back(parsed.ranges[0]);
      }
    }
    if (node_value.has("paired")) {
      node.paired = int_field(node_value, "paired");
    }
    if (node_value.has("scope")) {
      node.scope_parent = int_field(node_value, "scope");
    }
    state.add_raw(std::move(node));
  }
  for (const Value& edge_value : entry.at("edges").as_array()) {
    Memlet memlet;
    if (edge_value.has("data")) {
      memlet.data = edge_value.at("data").as_string();
      memlet.subset = Subset::parse(edge_value.at("subset").as_string());
      memlet.volume = parse_expr(edge_value.at("volume"));
      if (edge_value.has("other_subset")) {
        memlet.other_subset =
            Subset::parse(edge_value.at("other_subset").as_string());
      }
      if (edge_value.has("wcr")) {
        memlet.wcr = wcr_from(edge_value.at("wcr").as_string());
      }
    }
    state.add_edge(
        int_field(edge_value, "src"), int_field(edge_value, "dst"),
        std::move(memlet),
        edge_value.has("src_conn") ? edge_value.at("src_conn").as_string()
                                   : "",
        edge_value.has("dst_conn") ? edge_value.at("dst_conn").as_string()
                                   : "");
  }
}

}  // namespace

Sdfg from_json(std::string_view text) {
  try {
    Value document = json::parse(text);
    Sdfg sdfg(document.at("name").as_string());
    for (const Value& symbol : document.at("symbols").as_array()) {
      sdfg.add_symbol(symbol.as_string());
    }
    read_containers(document, sdfg);
    for (const Value& state : document.at("states").as_array()) {
      read_state(state, sdfg);
    }
    return sdfg;
  } catch (const json::ParseError& error) {
    throw JsonError(error.what());
  } catch (const symbolic::ParseError& error) {
    throw JsonError(std::string("bad expression: ") + error.what());
  } catch (const TaskletParseError& error) {
    throw JsonError(std::string("bad tasklet code: ") + error.what());
  }
}

}  // namespace dmv::ir
