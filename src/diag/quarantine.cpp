#include "diag/quarantine.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace hidisc::diag {

bool publish_file(const std::string& path,
                  const std::function<void(std::ostream&)>& write) {
  const int lock_fd =
      ::open((path + ".lock").c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (lock_fd >= 0) ::flock(lock_fd, LOCK_EX);
  std::ostringstream tmp;
  tmp << path << ".tmp." << ::getpid() << '.' << std::this_thread::get_id();
  std::ofstream out(tmp.str(), std::ios::trunc | std::ios::binary);
  if (out) write(out);
  out.close();  // flushes; a failed open, write or flush leaves out false
  std::error_code ec;
  if (out) std::filesystem::rename(tmp.str(), path, ec);
  const bool ok = out && !ec;
  if (!ok) std::remove(tmp.str().c_str());
  if (lock_fd >= 0) {
    ::flock(lock_fd, LOCK_UN);
    ::close(lock_fd);
  }
  return ok;
}

std::string quarantine_path_for(const std::string& path) {
  static std::atomic<unsigned> counter{0};
  std::ostringstream dest;
  dest << path << ".corrupt." << ::getpid() << '.'
       << counter.fetch_add(1, std::memory_order_relaxed);
  return dest.str();
}

std::string quarantine_file(const std::string& path) {
  const std::string dest = quarantine_path_for(path);
  std::error_code ec;
  std::filesystem::rename(path, dest, ec);
  return ec ? std::string() : dest;
}

}  // namespace hidisc::diag
