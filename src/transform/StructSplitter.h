//===- transform/StructSplitter.h - Automatic split transform --*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An automatic structure-splitting rewriter over the IR — the
/// "compiler pass such as ROSE" consumer the paper's conclusion
/// envisions for StructSlim's output. It handles the array-of-
/// structures pattern: a token-annotated allocation plus scaled
/// (base + index * structsize + fieldoffset) accesses within the same
/// function. The allocation is fissioned into one array per advice
/// cluster and every access is retargeted to its field's new array,
/// scale, and offset. The base may also cross functions through a
/// constant-address mailbox slot (an untokened 8-byte store of the base,
/// and such loads in any function), as the parallel workloads hand their
/// array to worker threads: the split publishes and subscribes one base
/// per group at consecutive 8-byte slots from the original one. Any
/// other escape of the base is rejected with a diagnostic.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_TRANSFORM_STRUCTSPLITTER_H
#define STRUCTSLIM_TRANSFORM_STRUCTSPLITTER_H

#include "core/Advice.h"
#include "ir/Program.h"
#include "ir/StructLayout.h"

#include <memory>
#include <string>

namespace structslim {
namespace transform {

/// Deep copy of a program (instructions keep their IPs).
std::unique_ptr<ir::Program> cloneProgram(const ir::Program &In);

/// Applies \p Plan to every allocation and access annotated with
/// \p Token. Returns the rewritten program, or nullptr with a
/// diagnostic in \p Error when the pattern is not rewritable.
std::unique_ptr<ir::Program>
splitArrayOfStructs(const ir::Program &In, uint32_t Token,
                    const ir::StructLayout &Original,
                    const core::SplitPlan &Plan, std::string *Error);

} // namespace transform
} // namespace structslim

#endif // STRUCTSLIM_TRANSFORM_STRUCTSPLITTER_H
