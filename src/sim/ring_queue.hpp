/**
 * @file
 * Fixed-capacity power-of-two ring buffer.
 *
 * The simulator's hot loops (router flit buffers, MWSR VOQs) are bounded
 * FIFOs whose capacity is known at construction.  std::deque pays for
 * unbounded growth with chunked heap storage and per-push allocation
 * checks; RingQueue allocates its slots exactly once and turns every
 * queue operation into an index mask and an assignment.
 *
 * The capacity is rounded up to the next power of two so the head index
 * wraps with a bitwise AND instead of a modulo.  Overflow is a logic
 * error (callers gate on full()/size() first — FlitBuffer by flit
 * accounting, the VOQs by depth), enforced by PEARL_ASSERT.
 */

#ifndef PEARL_SIM_RING_QUEUE_HPP
#define PEARL_SIM_RING_QUEUE_HPP

#include <cstddef>
#include <utility>
#include <vector>

#include "common/log.hpp"

namespace pearl {
namespace sim {

/** Bounded FIFO over a single allocation; deque-compatible API subset. */
template <typename T>
class RingQueue
{
  public:
    /** @param min_capacity elements the queue must be able to hold;
     *  rounded up to the next power of two. */
    explicit RingQueue(std::size_t min_capacity)
        : mask_(roundUpPow2(min_capacity) - 1), storage_(mask_ + 1)
    {
        PEARL_ASSERT(min_capacity > 0);
    }

    std::size_t capacity() const { return mask_ + 1; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == capacity(); }

    /** Append; the caller must have checked full() (asserted). */
    void
    push_back(T value)
    {
        PEARL_ASSERT(!full());
        storage_[(head_ + size_) & mask_] = std::move(value);
        ++size_;
    }

    T &
    front()
    {
        PEARL_ASSERT(!empty());
        return storage_[head_];
    }

    const T &
    front() const
    {
        PEARL_ASSERT(!empty());
        return storage_[head_];
    }

    T &
    back()
    {
        PEARL_ASSERT(!empty());
        return storage_[(head_ + size_ - 1) & mask_];
    }

    const T &
    back() const
    {
        PEARL_ASSERT(!empty());
        return storage_[(head_ + size_ - 1) & mask_];
    }

    void
    pop_front()
    {
        PEARL_ASSERT(!empty());
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /** Double the capacity, keeping the queued elements in order.  For
     *  the FIFOs with no static bound (parked network arrivals): they
     *  call it when full(), so storage follows the high-water mark and
     *  the steady state stays allocation-free. */
    void
    grow()
    {
        std::vector<T> bigger(2 * capacity());
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move(storage_[(head_ + i) & mask_]);
        storage_ = std::move(bigger);
        mask_ = storage_.size() - 1;
        head_ = 0;
    }

    /** Drop everything; slots keep their storage (no reallocation). */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    static std::size_t
    roundUpPow2(std::size_t n)
    {
        std::size_t p = 1;
        while (p < n)
            p <<= 1;
        return p;
    }

    std::size_t mask_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::vector<T> storage_;
};

} // namespace sim
} // namespace pearl

#endif // PEARL_SIM_RING_QUEUE_HPP
