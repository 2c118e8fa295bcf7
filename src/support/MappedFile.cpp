//===- support/MappedFile.cpp ---------------------------------*- C++ -*-===//

#include "support/MappedFile.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define STRUCTSLIM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

using namespace structslim;
using namespace structslim::support;

namespace {

bool fail(std::string *Error, const char *Message) {
  if (Error)
    *Error = Message;
  return false;
}

/// Buffered fallback: reads the whole file into \p Out. Returns false
/// (with \p Error filled) when the file cannot be opened or read.
bool readWholeFile(const std::string &Path, std::string &Out,
                   std::string *Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return fail(Error, "cannot open file");
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  if (In.bad())
    return fail(Error, "cannot read file");
  Out = Buffer.str();
  return true;
}

bool mmapDisabledByEnv() {
  // Checked per open so benchmarks can toggle paths with setenv.
  const char *Env = std::getenv("STRUCTSLIM_NO_MMAP");
  return Env && *Env && *Env != '0';
}

} // namespace

std::optional<MappedFile> MappedFile::open(const std::string &Path,
                                           std::string *Error) {
  // Both ::open and std::ifstream accept a directory and then read
  // nothing, which would pass for an empty file.
  std::error_code Ec;
  if (std::filesystem::is_directory(Path, Ec)) {
    fail(Error, "is a directory");
    return std::nullopt;
  }
  MappedFile File;
#if STRUCTSLIM_HAVE_MMAP
  if (!mmapDisabledByEnv()) {
    int Fd = ::open(Path.c_str(), O_RDONLY);
    if (Fd < 0) {
      fail(Error, "cannot open file");
      return std::nullopt;
    }
    struct stat St;
    if (::fstat(Fd, &St) == 0 && S_ISREG(St.st_mode)) {
      if (St.st_size == 0) {
        // Empty regular file: nothing to map, nothing to read.
        ::close(Fd);
        return File;
      }
      void *Base = ::mmap(nullptr, static_cast<size_t>(St.st_size), PROT_READ,
                          MAP_PRIVATE, Fd, 0);
      if (Base != MAP_FAILED) {
        ::madvise(Base, static_cast<size_t>(St.st_size), MADV_SEQUENTIAL);
        File.MapBase = Base;
        File.MapSize = static_cast<size_t>(St.st_size);
        ::close(Fd);
        return File;
      }
    }
    ::close(Fd);
    // Mapping failed (or not a plain file): degrade to buffered read.
  }
#endif
  if (!readWholeFile(Path, File.Fallback, Error))
    return std::nullopt;
  return File;
}

MappedFile::MappedFile(MappedFile &&Other) noexcept
    : MapBase(Other.MapBase), MapSize(Other.MapSize),
      Fallback(std::move(Other.Fallback)) {
  Other.MapBase = nullptr;
  Other.MapSize = 0;
}

MappedFile &MappedFile::operator=(MappedFile &&Other) noexcept {
  if (this != &Other) {
    reset();
    MapBase = Other.MapBase;
    MapSize = Other.MapSize;
    Fallback = std::move(Other.Fallback);
    Other.MapBase = nullptr;
    Other.MapSize = 0;
  }
  return *this;
}

MappedFile::~MappedFile() { reset(); }

void MappedFile::reset() {
#if STRUCTSLIM_HAVE_MMAP
  if (MapBase)
    ::munmap(MapBase, MapSize);
#endif
  MapBase = nullptr;
  MapSize = 0;
}
