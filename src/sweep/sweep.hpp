// Parallel parameter sweeps for the benchmark harness.
//
// Each sweep point runs a fresh deterministic simulation; points are
// independent, so they fan out across a thread pool and come back in
// input order.
#pragma once

#include <type_traits>
#include <vector>

#include "sweep/thread_pool.hpp"

namespace sweep {

// Runs fn(point) for every point on `pool`, in parallel, preserving
// input order.
template <typename P, typename F,
          typename R = std::invoke_result_t<F&, const P&>>
[[nodiscard]] std::vector<R> map(const std::vector<P>& points, F fn,
                                 ThreadPool& pool) {
  std::vector<std::future<R>> futures;
  futures.reserve(points.size());
  for (const P& p : points) {
    futures.push_back(pool.enqueue([&fn, p] { return fn(p); }));
  }
  std::vector<R> out;
  out.reserve(points.size());
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

}  // namespace sweep
