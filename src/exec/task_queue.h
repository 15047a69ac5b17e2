/**
 * @file
 * Bounded multi-producer single-consumer task queue.
 *
 * Each stage worker owns one inbox of this type; the upstream stage,
 * the downstream stage (returning gradients) and the coordinator all
 * push into it, and only the owning worker pops. Pushes block when
 * the queue is full — the classic bounded-buffer backpressure — but
 * the parallel runtime sizes every inbox to at least the in-flight
 * subnet limit, and a CSP subnet holds exactly one live pipeline
 * token at a time, so a push can never participate in a cyclic wait
 * (see DESIGN.md, "Parallel executor").
 */

#ifndef NASPIPE_EXEC_TASK_QUEUE_H
#define NASPIPE_EXEC_TASK_QUEUE_H

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/lock_rank.h"

namespace naspipe {

/**
 * Bounded MPSC FIFO. All methods are thread-safe; pop-side methods
 * must only be called from the single consumer thread.
 */
template <typename T>
class BoundedTaskQueue
{
  public:
    /** @param capacity maximum queued items (>= 1). */
    explicit BoundedTaskQueue(std::size_t capacity)
        : _capacity(capacity < 1 ? 1 : capacity)
    {
    }

    BoundedTaskQueue(const BoundedTaskQueue &) = delete;
    BoundedTaskQueue &operator=(const BoundedTaskQueue &) = delete;

    /**
     * Blocking push; waits while the queue is at capacity. A push
     * into a closed queue drops the item silently — the consumer is
     * gone (crashed or aborted) and the coordinator will rebuild the
     * pipeline state from a checkpoint anyway.
     */
    void
    push(T item)
    {
        std::unique_lock<RankedMutex> lock(_queueMu);
        _space.wait(lock, [this] {
            return _closed || _items.size() < _capacity;
        });
        if (_closed)
            return;
        _items.push_back(std::move(item));
        _ready.notify_one();
    }

    /**
     * Close the queue: subsequent pushes drop their item and any
     * producer blocked on a full queue is released. A dead consumer
     * closes its own inbox so no producer can wait on it forever.
     * pop() semantics are unchanged — only close queues whose
     * consumer will never pop again.
     */
    void
    close()
    {
        {
            std::lock_guard<RankedMutex> lock(_queueMu);
            _closed = true;
        }
        _space.notify_all();
        _ready.notify_all();
    }

    /**
     * Pop one item (consumer thread only). Without @p timeout the
     * wait is unbounded; with one, nothing is returned when the queue
     * stayed empty that long (a zero timeout polls without waiting).
     */
    std::optional<T>
    pop(std::optional<std::chrono::duration<double>> timeout =
            std::nullopt)
    {
        std::unique_lock<RankedMutex> lock(_queueMu);
        auto ready = [this] { return !_items.empty(); };
        if (!timeout)
            _ready.wait(lock, ready);
        else if (!_ready.wait_for(lock, *timeout, ready))
            return std::nullopt;
        T item = std::move(_items.front());
        _items.pop_front();
        _space.notify_one();
        return item;
    }

    /**
     * Move every queued item into @p out (appended) without blocking;
     * returns the number drained. Consumer thread only.
     */
    template <typename Container>
    std::size_t
    drainInto(Container &out)
    {
        std::lock_guard<RankedMutex> lock(_queueMu);
        std::size_t n = _items.size();
        for (auto &item : _items)
            out.push_back(std::move(item));
        _items.clear();
        if (n > 0)
            _space.notify_all();
        return n;
    }

    std::size_t
    size() const
    {
        std::lock_guard<RankedMutex> lock(_queueMu);
        return _items.size();
    }

    bool empty() const { return size() == 0; }

  private:
    const std::size_t _capacity;
    mutable RankedMutex _queueMu{LockRank::ExecQueue};
    std::condition_variable_any _ready;
    std::condition_variable_any _space;
    std::deque<T> _items;
    bool _closed = false;
};

} // namespace naspipe

#endif // NASPIPE_EXEC_TASK_QUEUE_H
