/**
 * @file
 * Ring: a growable power-of-two circular buffer — the double-ended
 * queue of the simulator's hot paths (the oracle stream, each thread's
 * front end and ROB).
 *
 * Unlike std::deque it never frees or allocates once it has reached
 * its high-water capacity (a deque churns a block allocation every few
 * hundred pushes), and indexing is one mask instead of a block
 * lookup. The capacity only ever doubles; growing relinearizes the
 * live elements, so references do not survive a push_back.
 */

#ifndef SMT_COMMON_RING_HH
#define SMT_COMMON_RING_HH

#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace smt
{

template <typename T>
class Ring
{
  public:
    /** `initial_capacity` (a power of two) is allocated on the first
     *  push, not here. */
    explicit Ring(std::size_t initial_capacity = 16)
        : initialCapacity_(initial_capacity)
    {
        smt_assert(initial_capacity > 0 &&
                       (initial_capacity & (initial_capacity - 1)) == 0,
                   "ring capacity %zu is not a power of two",
                   initial_capacity);
    }

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }
    std::size_t capacity() const { return buf_.size(); }

    /** Element `i` counted from the front (0 = oldest). */
    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }
    T &back() { return (*this)[count_ - 1]; }
    const T &back() const { return (*this)[count_ - 1]; }

    void
    push_back(const T &v)
    {
        if (count_ == buf_.size())
            grow();
        buf_[(head_ + count_) & mask_] = v;
        ++count_;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & mask_;
        --count_;
    }

    void pop_back() { --count_; }

    /** Read-only front-to-back iteration. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = const T *;
        using reference = const T &;

        const_iterator(const Ring *ring, std::size_t i) : ring_(ring), i_(i)
        {
        }
        reference operator*() const { return (*ring_)[i_]; }
        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool
        operator==(const const_iterator &o) const
        {
            return i_ == o.i_;
        }

      private:
        const Ring *ring_;
        std::size_t i_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, count_}; }

  private:
    void
    grow()
    {
        const std::size_t cap =
            buf_.empty() ? initialCapacity_ : buf_.size() * 2;
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < count_; ++i)
            next[i] = (*this)[i];
        buf_ = std::move(next);
        head_ = 0;
        mask_ = cap - 1;
    }

    std::size_t initialCapacity_;
    std::vector<T> buf_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;  ///< buffer offset of the front element.
    std::size_t count_ = 0; ///< live elements.
};

} // namespace smt

#endif // SMT_COMMON_RING_HH
