#include "common/page_alloc.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include <cstdlib>

namespace perfq {

namespace {
std::size_t round_up_pages(std::size_t bytes) {
#if defined(__linux__)
  static const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
#else
  constexpr std::size_t page = 4096;
#endif
  if (bytes == 0) bytes = 1;
  return (bytes + page - 1) / page * page;
}
}  // namespace

void* map_pages(std::size_t bytes) {
  const std::size_t len = round_up_pages(bytes);
#if defined(__linux__)
  void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc{};
  return p;
#else
  void* p = std::calloc(1, len);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
#endif
}

void unmap_pages(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
#if defined(__linux__)
  ::munmap(p, round_up_pages(bytes));
#else
  (void)bytes;
  std::free(p);
#endif
}

}  // namespace perfq
