//===- support/ReadFile.cpp -----------------------------------*- C++ -*-===//

#include "support/ReadFile.h"

#include <algorithm>
#include <cerrno>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace {

/// Growth step for inputs whose size fstat cannot tell (pipes, FIFOs).
constexpr size_t StreamChunk = 64 * 1024;

/// Owns an open descriptor and closes it on every return path.
class Descriptor {
public:
  explicit Descriptor(int Fd) : Fd(Fd) {}
  Descriptor(const Descriptor &) = delete;
  Descriptor &operator=(const Descriptor &) = delete;
  ~Descriptor() {
    if (Fd >= 0)
      ::close(Fd);
  }
  int get() const { return Fd; }

private:
  int Fd;
};

std::optional<std::string> fail(std::string *Error, const char *Message) {
  if (Error)
    *Error = Message;
  return std::nullopt;
}

/// Reads \p Fd to EOF. For a regular file \p Out arrives sized to the
/// file plus one byte, so the whole file lands in one read and the
/// next read returns 0 without growing the buffer.
bool readToEof(int Fd, std::string &Out) {
  size_t Len = 0;
  for (;;) {
    if (Len == Out.size())
      Out.resize(std::max(2 * Out.size(), StreamChunk));
    ssize_t N = ::read(Fd, Out.data() + Len, Out.size() - Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      break;
    Len += static_cast<size_t>(N);
  }
  Out.resize(Len);
  return true;
}

} // namespace

std::optional<std::string>
structslim::support::readFile(const std::string &Path, std::string *Error) {
  Descriptor Fd(::open(Path.c_str(), O_RDONLY | O_CLOEXEC));
  if (Fd.get() < 0)
    return fail(Error, "cannot open file");
  struct stat St;
  if (::fstat(Fd.get(), &St) != 0)
    return fail(Error, "cannot read file");
  // open() accepts a directory; name it rather than let the read's
  // EISDIR surface as "cannot read file".
  if (S_ISDIR(St.st_mode))
    return fail(Error, "is a directory");
  std::string Out;
  if (S_ISREG(St.st_mode))
    Out.resize(static_cast<size_t>(St.st_size) + 1);
  if (!readToEof(Fd.get(), Out))
    return fail(Error, "cannot read file");
  return Out;
}
