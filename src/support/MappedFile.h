//===- support/MappedFile.h - Read-only memory-mapped files ----*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RAII read-only file mapping for zero-copy profile ingestion. The v3
/// decoder slices sections straight out of the mapping, so a 64-shard
/// merge never copies shard bytes through a stream buffer first.
///
/// Mapping is best-effort: when mmap is unavailable, fails, the file is
/// empty, or STRUCTSLIM_NO_MMAP is set in the environment, open() falls
/// back to a buffered read into an owned string and bytes() serves that
/// instead. Callers only see a contiguous byte range either way;
/// isMapped() exists for benchmarks and diagnostics, not correctness.
///
/// The decoder must never read past bytes().size(): a shard truncated
/// after open() would otherwise fault (SIGBUS) on the mapped tail. The
/// v3 reader length-checks every slice against the declared section
/// sizes before touching it, which keeps that contract.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_SUPPORT_MAPPEDFILE_H
#define STRUCTSLIM_SUPPORT_MAPPEDFILE_H

#include <optional>
#include <string>
#include <string_view>

namespace structslim {
namespace support {

/// A read-only view of a whole file, mmap-backed when possible and an
/// owned buffer otherwise. Move-only; unmaps on destruction.
class MappedFile {
public:
  /// Opens \p Path read-only. Returns nullopt (and fills \p Error with
  /// a reason that does not repeat the path) when \p Path is a
  /// directory or cannot be opened or read at all; mapping failures are
  /// not errors, they degrade to the buffered fallback.
  static std::optional<MappedFile> open(const std::string &Path,
                                        std::string *Error);

  MappedFile(MappedFile &&Other) noexcept;
  MappedFile &operator=(MappedFile &&Other) noexcept;
  MappedFile(const MappedFile &) = delete;
  MappedFile &operator=(const MappedFile &) = delete;
  ~MappedFile();

  /// The file contents. Valid for the lifetime of this object.
  std::string_view bytes() const {
    return MapBase ? std::string_view(static_cast<const char *>(MapBase),
                                      MapSize)
                   : std::string_view(Fallback);
  }

  /// True when bytes() is served by an actual mapping rather than the
  /// buffered fallback.
  bool isMapped() const { return MapBase != nullptr; }

private:
  MappedFile() = default;
  void reset();

  void *MapBase = nullptr; ///< mmap base, or nullptr in fallback mode.
  size_t MapSize = 0;      ///< mapped length (zero-size files fall back).
  std::string Fallback;    ///< owned contents when not mapped.
};

} // namespace support
} // namespace structslim

#endif // STRUCTSLIM_SUPPORT_MAPPEDFILE_H
