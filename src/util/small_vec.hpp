/**
 * @file
 * SmallVec: a vector with inline storage for its first N elements.
 *
 * The scheduling hot path builds one option-per-task vector per job
 * decision; real applications have a handful of tasks per job, so a
 * heap allocation per decision is pure overhead. SmallVec keeps up
 * to N elements in the object itself and only touches the heap when
 * a pathological configuration exceeds the inline capacity.
 *
 * Restricted to trivially copyable element types: growth and copies
 * are memcpy, destructors never run per element, and moved-from
 * objects are simply empty. That covers the index/flag vectors the
 * hot path needs without re-implementing std::vector.
 */

#ifndef QUETZAL_UTIL_SMALL_VEC_HPP
#define QUETZAL_UTIL_SMALL_VEC_HPP

#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <vector>

namespace quetzal {
namespace util {

template <typename T, std::size_t N>
class SmallVec
{
    static_assert(std::is_trivially_copyable<T>::value,
                  "SmallVec is restricted to trivially copyable types");
    static_assert(N > 0, "SmallVec needs a positive inline capacity");

  public:
    /** User-provided, so value-initialization (`{}`, a defaulted
     *  argument) does not zero the inline buffer first. */
    SmallVec() {}

    SmallVec(std::size_t count, const T &value) { assign(count, value); }

    SmallVec(std::initializer_list<T> init)
    {
        reserve(init.size());
        for (const T &v : init)
            elems[used++] = v;
    }

    SmallVec(const SmallVec &other) { *this = other; }

    SmallVec(SmallVec &&other) noexcept { *this = std::move(other); }

    SmallVec &
    operator=(const SmallVec &other)
    {
        if (this == &other)
            return *this;
        used = 0;
        reserve(other.used);
        std::memcpy(elems, other.elems, other.used * sizeof(T));
        used = other.used;
        return *this;
    }

    SmallVec &
    operator=(SmallVec &&other) noexcept
    {
        if (this == &other)
            return *this;
        release();
        if (other.heap != nullptr) {
            // Steal the heap block; the donor reverts to inline.
            heap = other.heap;
            cap = other.cap;
            used = other.used;
            elems = heap;
            other.heap = nullptr;
            other.cap = N;
            other.used = 0;
            other.elems = other.inlineBuf;
        } else {
            std::memcpy(inlineBuf, other.inlineBuf,
                        other.used * sizeof(T));
            used = other.used;
            other.used = 0;
        }
        return *this;
    }

    ~SmallVec() { release(); }

    std::size_t size() const { return used; }
    bool empty() const { return used == 0; }
    std::size_t capacity() const { return cap; }

    T *data() { return elems; }
    const T *data() const { return elems; }

    T *begin() { return elems; }
    T *end() { return elems + used; }
    const T *begin() const { return elems; }
    const T *end() const { return elems + used; }

    T &operator[](std::size_t i) { return elems[i]; }
    const T &operator[](std::size_t i) const { return elems[i]; }

    void clear() { used = 0; }

    void
    reserve(std::size_t want)
    {
        if (want <= cap)
            return;
        std::size_t grown = cap * 2;
        if (grown < want)
            grown = want;
        T *const block = new T[grown];
        std::memcpy(block, elems, used * sizeof(T));
        delete[] heap;
        heap = block;
        elems = block;
        cap = grown;
    }

    void
    push_back(const T &value)
    {
        reserve(used + 1);
        elems[used++] = value;
    }

    /** Resize; new elements are value-initialized (zeroed). */
    void
    resize(std::size_t count)
    {
        reserve(count);
        if (count > used)
            std::memset(elems + used, 0, (count - used) * sizeof(T));
        used = count;
    }

    void
    assign(std::size_t count, const T &value)
    {
        reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            elems[i] = value;
        used = count;
    }

  private:
    void
    release()
    {
        delete[] heap;
        heap = nullptr;
        cap = N;
        elems = inlineBuf;
        used = 0;
    }

    T inlineBuf[N];
    T *heap = nullptr;
    T *elems = inlineBuf;
    std::size_t used = 0;
    std::size_t cap = N;
};

template <typename T, std::size_t N>
bool
operator==(const SmallVec<T, N> &a, const SmallVec<T, N> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!(a[i] == b[i]))
            return false;
    }
    return true;
}

template <typename T, std::size_t N>
bool
operator!=(const SmallVec<T, N> &a, const SmallVec<T, N> &b)
{
    return !(a == b);
}

/** Element-wise comparison with std::vector (test convenience). */
template <typename T, std::size_t N>
bool
operator==(const SmallVec<T, N> &a, const std::vector<T> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!(a[i] == b[i]))
            return false;
    }
    return true;
}

template <typename T, std::size_t N>
bool
operator==(const std::vector<T> &a, const SmallVec<T, N> &b)
{
    return b == a;
}

} // namespace util
} // namespace quetzal

#endif // QUETZAL_UTIL_SMALL_VEC_HPP
