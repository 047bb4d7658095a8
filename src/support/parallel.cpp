#include "support/parallel.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace cash {

int
hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

void
parallelFor(size_t n, int workers, const std::function<void(size_t)>& fn)
{
    if (n == 0)
        return;
    if (workers <= 0)
        workers = hardwareThreads();
    if (static_cast<size_t>(workers) > n)
        workers = static_cast<int>(n);

    std::atomic<size_t> next{0};
    std::mutex errMu;
    size_t errTask = n;
    std::exception_ptr error;
    auto drain = [&] {
        while (true) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errMu);
                if (i < errTask) {
                    errTask = i;
                    error = std::current_exception();
                }
            }
        }
    };

    // The caller is worker 0: at one worker this is a plain loop.
    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    try {
        for (int w = 1; w < workers; w++)
            threads.emplace_back(drain);
    } catch (const std::system_error&) {
        // No more threads to be had: the ones started and the caller
        // still take every index, and each started thread is joined.
    }
    drain();
    for (std::thread& t : threads)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace cash
