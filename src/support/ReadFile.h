//===- support/ReadFile.h - Whole-file reads --------------------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-file reads for profile ingestion. A regular file is read in
/// one copy into a string sized by fstat; a non-seekable input (a pipe
/// or FIFO, e.g. bash's `<(cat shard)`) is read to EOF. The v3 decoder
/// then slices sections out of that one buffer, length-checking every
/// slice against the declared section sizes.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_SUPPORT_READFILE_H
#define STRUCTSLIM_SUPPORT_READFILE_H

#include <optional>
#include <string>

namespace structslim {
namespace support {

/// Returns the contents of \p Path. Returns nullopt and fills \p Error
/// (when non-null) with a reason that does not repeat the path:
/// "is a directory", "cannot open file" or "cannot read file".
std::optional<std::string> readFile(const std::string &Path,
                                    std::string *Error);

} // namespace support
} // namespace structslim

#endif // STRUCTSLIM_SUPPORT_READFILE_H
