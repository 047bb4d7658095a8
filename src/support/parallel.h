/**
 * @file
 * Fork-join parallel loop for per-function compilation.
 *
 * parallelFor() starts its threads, runs one batch of tasks and joins
 * them before it returns; nothing persists between calls, so calls
 * may nest (a task may itself call parallelFor()) and may come from
 * any thread.
 *
 * Determinism contract: only that every task runs exactly once and
 * parallelFor() returns after all have finished — never anything
 * about execution order across threads.  Callers that need
 * deterministic output give each task its own output slot (indexed by
 * task) and merge the slots in task order afterwards; see
 * `compileSource()` for the canonical use.
 */
#ifndef CASH_SUPPORT_PARALLEL_H
#define CASH_SUPPORT_PARALLEL_H

#include <cstddef>
#include <functional>

namespace cash {

/** std::thread::hardware_concurrency(), never less than 1. */
int hardwareThreads();

/**
 * Run fn(i) for every i in [0, n), blocking until all have finished.
 *
 * @p workers is the thread count including the caller; 0 (or less)
 * means hardwareThreads(), and the count is capped at @p n.  With at
 * most one worker the tasks run inline on the caller in index order
 * and no thread is started; otherwise the caller and `workers - 1`
 * threads take indices from one shared counter (if the system refuses
 * a thread, the ones started and the caller take them all).
 *
 * Every task runs even when some throw; afterwards the exception of
 * the lowest failing index is rethrown on the caller, so which failure
 * surfaces does not depend on scheduling or on @p workers.
 */
void parallelFor(size_t n, int workers,
                 const std::function<void(size_t)>& fn);

} // namespace cash

#endif // CASH_SUPPORT_PARALLEL_H
