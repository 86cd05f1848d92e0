#include "support/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

namespace firmres::support {

std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  struct stat st {};
  std::string out;
  // One spare byte lets the read that sees end-of-file land without
  // growing the buffer.
  if (::fstat(fd, &st) == 0 && st.st_size > 0)
    out.resize(static_cast<std::size_t>(st.st_size) + 1);
  std::size_t len = 0;
  while (true) {
    if (len == out.size()) out.resize(out.empty() ? 4096 : out.size() * 2);
    const ssize_t n = ::read(fd, out.data() + len, out.size() - len);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return std::nullopt;
    }
    len += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out.resize(len);
  return out;
}

}  // namespace firmres::support
