#include "esam/util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace esam::util {

std::size_t resolve_workers(std::size_t requested, std::size_t items) {
  const std::size_t want =
      requested != 0 ? requested : std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, std::min({want, items, kMaxWorkers}));
}

void parallel_for(
    std::size_t count, std::size_t workers,
    const std::function<void(std::size_t worker, std::size_t index)>& fn) {
  workers = std::min(workers, count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(0, i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(workers);
  const auto work = [&](std::size_t w) {
    try {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        fn(w, i);
      }
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    try {
      pool.emplace_back(work, w);
    } catch (const std::system_error&) {
      // Out of OS threads: the claimed-index loop lets the workers already
      // running cover the rest.
      break;
    }
  }
  work(0);
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace esam::util
