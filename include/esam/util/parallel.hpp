// The simulator's one deterministic executor: an index-space fan-out over a
// bounded set of host worker threads.
//
// Every parallel stage of the library (batched inference shards, online-
// training window forwards, fleet dies) is a loop over independent indices
// whose outputs land in pre-sized per-index slots and are merged in index
// order by the caller. The schedule -- which worker ran which index -- is
// therefore invisible in the results, and worker counts are a pure
// simulation-software knob.
#pragma once

#include <cstddef>
#include <functional>

namespace esam::util {

/// Sanity bound on any worker-pool size: deliberate oversubscription is
/// allowed (it cannot change results), but a garbage request like
/// (size_t)-1 must not exhaust OS threads.
inline constexpr std::size_t kMaxWorkers = 256;

/// Worker count for `items` units of work: `requested` 0 means the host's
/// hardware concurrency; the result is clamped to [1, min(items,
/// kMaxWorkers)].
[[nodiscard]] std::size_t resolve_workers(std::size_t requested,
                                          std::size_t items);

/// Calls fn(worker, index) once for every index in [0, count), spread over
/// min(workers, count) workers that claim indices through one atomic
/// counter. Worker 0 runs on the calling thread; workers 1.. are spawned
/// for this call and joined before it returns, so `worker` can index
/// caller-owned per-worker state (e.g. a cloned tile pipeline). If any
/// call throws, that worker stops claiming indices; after every worker has
/// joined, the exception of the lowest-numbered failed worker is rethrown.
void parallel_for(
    std::size_t count, std::size_t workers,
    const std::function<void(std::size_t worker, std::size_t index)>& fn);

}  // namespace esam::util
