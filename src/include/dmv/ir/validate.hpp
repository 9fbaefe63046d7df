#pragma once

// Structural validation of SDFGs.
//
// Catches malformed graphs early with actionable messages: dangling node
// references, memlets over undeclared containers, rank mismatches between
// subsets and descriptors, unmatched map entry/exit pairs, edges that
// cross scope boundaries without passing through the scope's entry/exit
// nodes, cyclic dataflow within a state, and symbols that a shape,
// stride, offset, map range, memlet subset or volume reads but the
// program never declares (map parameters excepted).

#include <string>
#include <vector>

#include "dmv/ir/sdfg.hpp"

namespace dmv::ir {

struct ValidationIssue {
  std::string state;    ///< State name ("" for SDFG-level issues).
  std::string message;  ///< Human-readable description.
};

/// Returns all issues found (empty = valid).
std::vector<ValidationIssue> validate(const Sdfg& sdfg);

/// Throws std::runtime_error listing every issue if the SDFG is invalid.
void validate_or_throw(const Sdfg& sdfg);

}  // namespace dmv::ir
