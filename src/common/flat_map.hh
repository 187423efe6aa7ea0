/**
 * @file
 * FlatMap: an open-addressed hash table keyed by 64-bit addresses,
 * for the simulator's hot per-line and per-set metadata.
 *
 * Linear probing over a power-of-two table, slots chosen by a
 * Fibonacci hash of the key. Keys and values live in two parallel
 * arrays, so a probe scans 8-byte keys and touches one value. The
 * table grows by doubling once it is three quarters full. An empty
 * slot holds invalid_addr, which therefore cannot be a key.
 *
 * There is no erase: users mark entries dead in the value or drop
 * everything with clear(). Slot order is not insertion order, so a
 * forEach walk must be order-independent (sums, ORs) or sort its
 * output. Growth moves values, so a pointer from find() or
 * tryEmplace() is valid only until the next insertion.
 */

#ifndef CARVE_COMMON_FLAT_MAP_HH
#define CARVE_COMMON_FLAT_MAP_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace carve {

template <typename V>
class FlatMap
{
  public:
    /** Value of @p key, or nullptr when absent. */
    V *
    find(Addr key)
    {
        if (size_ == 0)
            return nullptr;
        const std::size_t i = slotOf(key);
        // The probe for the sentinel ends on an empty slot.
        return keys_[i] == key && key != invalid_addr ? &values_[i]
                                                       : nullptr;
    }

    const V *
    find(Addr key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    /**
     * Value of @p key, inserting a value-initialized V when absent.
     * @return the value and whether it was inserted
     */
    std::pair<V *, bool>
    tryEmplace(Addr key)
    {
        carve_assert(key != invalid_addr);
        std::size_t i = 0;
        if (!keys_.empty()) {
            i = slotOf(key);
            if (keys_[i] == key)
                return {&values_[i], false};
        }
        if ((size_ + 1) * 4 > keys_.size() * 3) {
            rehash(keys_.empty() ? min_capacity : keys_.size() * 2);
            i = slotOf(key);
        }
        keys_[i] = key;
        values_[i] = V{};
        ++size_;
        return {&values_[i], true};
    }

    V &operator[](Addr key) { return *tryEmplace(key).first; }

    /**
     * Grow so that @p n entries fit without a rehash. Call it before
     * copying another table in: that table's walk visits keys in hash
     * order, and inserting them in that order into a table that keeps
     * doubling piles them into one probe run, costing quadratic time.
     */
    void
    reserve(std::size_t n)
    {
        std::size_t capacity = keys_.empty() ? min_capacity : keys_.size();
        while (n * 4 > capacity * 3)
            capacity *= 2;
        if (capacity != keys_.size())
            rehash(capacity);
    }

    /** Drop every entry; the table keeps its capacity. */
    void
    clear()
    {
        std::fill(keys_.begin(), keys_.end(), invalid_addr);
        size_ = 0;
    }

    std::size_t size() const { return size_; }

    /** Call @p f(key, value) once per entry, in slot order. */
    template <typename F>
    void
    forEach(F &&f)
    {
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != invalid_addr)
                f(keys_[i], values_[i]);
        }
    }

    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != invalid_addr)
                f(keys_[i], std::as_const(values_[i]));
        }
    }

  private:
    static constexpr std::size_t min_capacity = 16;

    /** Slot holding @p key, or the empty slot where it would go.
     * Requires a non-empty table; the load bound keeps a slot free. */
    std::size_t
    slotOf(Addr key) const
    {
        const std::size_t mask = keys_.size() - 1;
        std::size_t i = static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ull) >> shift_);
        while (keys_[i] != key && keys_[i] != invalid_addr)
            i = (i + 1) & mask;
        return i;
    }

    void
    rehash(std::size_t capacity)
    {
        const std::vector<Addr> old_keys =
            std::exchange(keys_, std::vector<Addr>(capacity, invalid_addr));
        std::vector<V> old_values =
            std::exchange(values_, std::vector<V>(capacity));
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
        for (std::size_t j = 0; j < old_keys.size(); ++j) {
            if (old_keys[j] == invalid_addr)
                continue;
            const std::size_t i = slotOf(old_keys[j]);
            keys_[i] = old_keys[j];
            values_[i] = std::move(old_values[j]);
        }
    }

    std::vector<Addr> keys_;
    std::vector<V> values_;
    std::size_t size_ = 0;
    unsigned shift_ = 64;
};

} // namespace carve

#endif // CARVE_COMMON_FLAT_MAP_HH
