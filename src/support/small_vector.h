/**
 * @file
 * A vector of trivially copyable elements whose first N live inline.
 *
 * Node operand and use lists, location sets and other short lists the
 * compile path builds and copies by the thousand are almost always
 * short: keeping the first N elements inside the owning object means
 * creating, copying and clearing them costs no heap allocation.  A
 * list that outgrows N spills to one heap buffer, which it keeps
 * until it is destroyed or move-assigned over, so a copy into a list
 * that already has room (the undo journal's saved copies) allocates
 * nothing either.
 *
 * Element order is exactly std::vector's for the same sequence of
 * operations.  Only trivially copyable element types are supported:
 * elements move by memcpy and are never destroyed.
 */
#ifndef CASH_SUPPORT_SMALL_VECTOR_H
#define CASH_SUPPORT_SMALL_VECTOR_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace cash {

template <typename T, uint32_t N>
class SmallVector
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "SmallVector elements are copied with memcpy");
    static_assert(N > 0, "SmallVector needs inline room");

  public:
    using value_type = T;
    using iterator = T*;
    using const_iterator = const T*;

    SmallVector() = default;

    SmallVector(const SmallVector& o) { *this = o; }

    SmallVector(SmallVector&& o) noexcept { *this = std::move(o); }

    ~SmallVector() { release(); }

    /** Copy @p o's elements, reusing this list's buffer when it has
     *  room. */
    SmallVector&
    operator=(const SmallVector& o)
    {
        if (this != &o)
            copyIn(o.data_, o.size_);
        return *this;
    }

    /** Take @p o's heap buffer, or copy its inline elements; either
     *  way this list gives up a heap buffer of its own.  @p o is left
     *  empty and inline. */
    SmallVector&
    operator=(SmallVector&& o) noexcept
    {
        if (this == &o)
            return *this;
        release();
        if (o.spilled()) {
            data_ = o.data_;
            size_ = o.size_;
            cap_ = o.cap_;
            o.data_ = o.inlineData();
            o.cap_ = N;
        } else {
            copyIn(o.data_, o.size_);
        }
        o.size_ = 0;
        return *this;
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Whether the elements live in a heap buffer. */
    bool spilled() const { return data_ != inlineData(); }

    T* data() { return data_; }
    const T* data() const { return data_; }
    T* begin() { return data_; }
    T* end() { return data_ + size_; }
    const T* begin() const { return data_; }
    const T* end() const { return data_ + size_; }

    T& operator[](size_t i) { return data_[i]; }
    const T& operator[](size_t i) const { return data_[i]; }
    T& back() { return data_[size_ - 1]; }
    const T& back() const { return data_[size_ - 1]; }

    void
    push_back(const T& v)
    {
        if (size_ == cap_) {
            // @p v may live in this list: copy it before regrowing.
            const T copy = v;
            regrow(grownCapacity(size_ + 1), size_);
            data_[size_++] = copy;
            return;
        }
        data_[size_++] = v;
    }

    void pop_back() { size_--; }

    /** Drop every element; the buffer is kept. */
    void clear() { size_ = 0; }

    void
    reserve(size_t n)
    {
        if (n > cap_)
            regrow(static_cast<uint32_t>(n), size_);
    }

    /** Shrink to @p n elements, or grow with copies of @p v. */
    void
    resize(size_t n, const T& v = T())
    {
        const T fill = v;  // @p v may live in this list
        reserve(n);
        for (size_t i = size_; i < n; i++)
            data_[i] = fill;
        size_ = static_cast<uint32_t>(n);
    }

    /** Insert @p v before @p pos; returns the inserted element. */
    T*
    insert(const T* pos, const T& v)
    {
        const size_t at = static_cast<size_t>(pos - data_);
        const T copy = v;
        if (size_ == cap_)
            regrow(grownCapacity(size_ + 1), size_);
        std::memmove(static_cast<void*>(data_ + at + 1), data_ + at,
                     (size_ - at) * sizeof(T));
        data_[at] = copy;
        size_++;
        return data_ + at;
    }

  private:
    T* data_ = inlineData();
    uint32_t size_ = 0;
    uint32_t cap_ = N;
    alignas(T) unsigned char inline_[N * sizeof(T)];

    T* inlineData() { return reinterpret_cast<T*>(inline_); }
    const T*
    inlineData() const
    {
        return reinterpret_cast<const T*>(inline_);
    }

    uint32_t
    grownCapacity(uint32_t need) const
    {
        return std::max(need, 2 * cap_);
    }

    /** Move to a heap buffer of @p cap elements keeping the first
     *  @p keep. */
    void
    regrow(uint32_t cap, uint32_t keep)
    {
        T* fresh = static_cast<T*>(::operator new(cap * sizeof(T)));
        if (keep)
            std::memcpy(static_cast<void*>(fresh), data_, keep * sizeof(T));
        release();
        data_ = fresh;
        cap_ = cap;
    }

    /** Give a heap buffer back and return to the inline storage. */
    void
    release()
    {
        if (spilled()) {
            ::operator delete(data_);
            data_ = inlineData();
            cap_ = N;
        }
    }

    /** Overwrite the elements with @p n from @p src (fits in cap_). */
    void
    copyIn(const T* src, uint32_t n)
    {
        if (n > cap_)
            regrow(n, 0);
        if (n)
            std::memcpy(static_cast<void*>(data_), src, n * sizeof(T));
        size_ = n;
    }
};

template <typename T, uint32_t N>
bool
operator==(const SmallVector<T, N>& a, const SmallVector<T, N>& b)
{
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

} // namespace cash

#endif // CASH_SUPPORT_SMALL_VECTOR_H
