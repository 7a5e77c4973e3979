/**
 * @file
 * Chunked bump allocator backing the optimizer's long-lived
 * growing arrays (walk-trace steps).
 *
 * The build/walk paths used to grow many small std::vectors whose
 * churn (allocate, copy, free, repeat) showed up in the cold-run
 * profile. An Arena replaces that with pointer-bump allocation from
 * chunked blocks: allocation is a few instructions, freed memory is
 * reclaimed all at once when the owner dies, and bytesReserved() gives
 * exact accounting for the SessionRegistry byte budget.
 *
 * Ownership follows the data, not the table: PartitionTrace owns the
 * arena behind its step log, because traces are shared (via the
 * TradeoffCurveCache and the FrontierCache) beyond the lifetime of
 * the optimizer run that grew them — a table-owned arena would
 * dangle. (A ShapeFrontier, written once at its final size, owns one
 * plain exact-size block instead.) See docs/ARCHITECTURE.md ("Hot
 * paths and memory layout").
 *
 * Not thread safe; guard an arena by whatever lock guards its owner
 * (the frontier-row mutex, the trace mutex).
 */

#ifndef MCLP_UTIL_ARENA_H
#define MCLP_UTIL_ARENA_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace mclp {
namespace util {

class Arena
{
  public:
    Arena() = default;

    /** @p chunk_bytes sizes new blocks (exact-fit for larger asks). */
    explicit Arena(size_t chunk_bytes) : chunkBytes_(chunk_bytes) {}

    Arena(Arena &&) noexcept = default;
    Arena &operator=(Arena &&) noexcept = default;
    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Bump-allocate @p bytes aligned to @p align (a power of two). */
    void *
    allocate(size_t bytes, size_t align = alignof(std::max_align_t))
    {
        size_t cur = (cursor_ + align - 1) & ~(align - 1);
        if (!chunks_.empty() && cur + bytes <= chunks_.back().size) {
            cursor_ = cur + bytes;
            return chunks_.back().data.get() + cur;
        }
        size_t size = bytes > chunkBytes_ ? bytes : chunkBytes_;
        Chunk chunk;
        chunk.data = std::make_unique<unsigned char[]>(size);
        chunk.size = size;
        reserved_ += size;
        chunks_.push_back(std::move(chunk));
        cursor_ = bytes;
        return chunks_.back().data.get();
    }

    /** Typed array allocation; T must be trivially copyable. */
    template <typename T>
    T *
    allocateArray(size_t count)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        return static_cast<T *>(
            allocate(count * sizeof(T), alignof(T)));
    }

    /** Total bytes of all chunks (the owner's resident footprint). */
    size_t bytesReserved() const { return reserved_; }

    /** Drop every chunk (invalidates all outstanding pointers). */
    void
    clear()
    {
        chunks_.clear();
        cursor_ = 0;
        reserved_ = 0;
    }

  private:
    struct Chunk
    {
        std::unique_ptr<unsigned char[]> data;
        size_t size = 0;
    };

    std::vector<Chunk> chunks_;
    size_t cursor_ = 0;     ///< bump offset within chunks_.back()
    size_t reserved_ = 0;
    size_t chunkBytes_ = 4096;
};

/**
 * Contiguous grow-only array of trivially copyable T backed by an
 * Arena. Growth allocates a doubled block and memcpys — the old block
 * stays in the arena until the owner dies, which is the deal an arena
 * makes: a little slack for allocation at pointer-bump speed and
 * wholesale reclamation. Storage stays contiguous so binary searches
 * and SIMD scans read it directly.
 */
template <typename T>
class ArenaVector
{
    static_assert(std::is_trivially_copyable_v<T>);

  public:
    ArenaVector() = default;

    /** Bind to the backing arena; call before the first push_back. */
    void attach(Arena *arena) { arena_ = arena; }

    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }
    const T *data() const { return data_; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const T &operator[](size_t i) const { return data_[i]; }
    T &operator[](size_t i) { return data_[i]; }
    const T &back() const { return data_[size_ - 1]; }
    size_t capacity() const { return capacity_; }

    void
    push_back(const T &value)
    {
        if (size_ == capacity_)
            grow(size_ + 1);
        data_[size_++] = value;
    }

    /** Replace the contents with a copy of [src, src + count). */
    void
    assign(const T *src, size_t count)
    {
        if (count > capacity_)
            grow(count);
        if (count > 0)
            std::memcpy(data_, src, count * sizeof(T));
        size_ = count;
    }

    void clear() { size_ = 0; }

  private:
    void
    grow(size_t need)
    {
        size_t cap = capacity_ ? capacity_ * 2 : 16;
        if (cap < need)
            cap = need;
        T *bigger = arena_->allocateArray<T>(cap);
        if (size_ > 0)
            std::memcpy(bigger, data_, size_ * sizeof(T));
        data_ = bigger;
        capacity_ = cap;
    }

    Arena *arena_ = nullptr;
    T *data_ = nullptr;
    size_t size_ = 0;
    size_t capacity_ = 0;
};

} // namespace util
} // namespace mclp

#endif // MCLP_UTIL_ARENA_H
