// Replication-level parallelism over the persistent pool.
//
// The simulation kernel is single-threaded by design; throughput comes
// from running independent replications concurrently. This follows the
// shared-nothing discipline of the HPC guides: tasks read an immutable
// description, build their entire world privately, and return results
// by value. The only shared state is the atomic work index and the
// pre-sized results vector, where each task writes exclusively to its
// own slot.
//
// parallel_try_map is crash-safe: each task's outcome (value or
// captured exception) lands in its own TaskResult slot; a throwing
// task taints its slot instead of std::terminate-ing the process, so a
// multi-hour sweep finishes with partial results. The caller decides
// the failure policy.
//
// Results are boxed in TaskResult even for bool-returning callables:
// a plain std::vector<bool> would pack results into shared words and
// concurrent slot writes would race (caught by TSan); the box keeps
// every slot a distinct object.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <latch>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "exp/pool.hpp"

namespace wmn::exp {

// Outcome of one task: exactly one of `value` or `error` is populated.
template <typename T>
struct TaskResult {
  std::optional<T> value;        // engaged iff the task completed
  std::string error;             // what() text of the captured exception
  std::exception_ptr exception;  // same failure, rethrowable

  [[nodiscard]] bool ok() const { return value.has_value(); }
};

// Evaluate fn(0..n-1) on `pool` with at most `width` tasks in flight
// for this call; returns per-task outcomes in index order. Fn is shared
// across workers and must be const-callable concurrently. Exceptions
// thrown by fn are captured per task, never propagated.
template <typename Fn>
auto parallel_try_map(ThreadPool& pool, std::size_t n, unsigned width, Fn fn)
    -> std::vector<TaskResult<std::decay_t<decltype(fn(std::size_t{0}))>>> {
  using Result = std::decay_t<decltype(fn(std::size_t{0}))>;
  static_assert(!std::is_void_v<Result>, "tasks must return a value");

  std::vector<TaskResult<Result>> results(n);
  if (n == 0) return results;

  const auto run_one = [&results, &fn](std::size_t i) noexcept {
    TaskResult<Result>& slot = results[i];
    try {
      slot.value.emplace(fn(i));
    } catch (const std::exception& e) {
      slot.error = e.what();
      slot.exception = std::current_exception();
    } catch (...) {
      slot.error = "unknown exception";
      slot.exception = std::current_exception();
    }
  };

  if (width <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) run_one(i);
    return results;
  }

  // Drain-task model: k long-lived pool workers race an atomic index
  // instead of queueing n closures. The latch's count_down/wait pair
  // publishes every slot write to the caller.
  const unsigned drains = static_cast<unsigned>(std::min<std::size_t>(
      {static_cast<std::size_t>(width), static_cast<std::size_t>(pool.size()),
       n}));
  std::atomic<std::size_t> next{0};
  std::latch done(drains);
  for (unsigned d = 0; d < drains; ++d) {
    pool.submit([&results, &fn, &next, &done, n, run_one] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        run_one(i);
      }
      done.count_down();
    });
  }
  done.wait();
  return results;
}

}  // namespace wmn::exp
