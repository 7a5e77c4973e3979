/**
 * @file
 * Shared-memory primitives for the persistent cache: read-only file
 * mappings and atomic whole-file publication.
 *
 * The frontier-cache segment (core/frontier_cache_segment.h) is the
 * cache's only on-disk form: an immutable image that every worker
 * process on a host maps read-only, so N workers share one page-cache
 * copy of the staircase bytes instead of N private decoded heaps.
 * Immutability is what makes the sharing trivially safe — a segment
 * file is never modified in place; publishers write a complete new
 * image to "<path>.tmp" and rename it over the old one
 * (publishFileAtomic), so a reader either maps the previous complete
 * generation or the new complete generation, never a torn mix.
 * Existing mappings keep the *old* inode alive until they unmap
 * (POSIX rename semantics), so a publish never invalidates a worker
 * mid-read; workers pick up new generations by re-opening
 * (MappedFile::map) and checking the embedded generation stamp.
 */

#ifndef MCLP_UTIL_SHM_H
#define MCLP_UTIL_SHM_H

#include <cstddef>
#include <string>
#include <string_view>

namespace mclp {
namespace util {

/**
 * A read-only shared mapping of a whole file (PROT_READ, MAP_SHARED).
 * The fd is closed right after mmap — the mapping keeps the inode
 * alive — so a mapped segment costs no descriptor. Movable, not
 * copyable; unmaps on destruction.
 */
class MappedFile
{
  public:
    MappedFile() = default;
    ~MappedFile() { unmap(); }
    MappedFile(MappedFile &&other) noexcept
        : addr_(other.addr_), size_(other.size_)
    {
        other.addr_ = nullptr;
        other.size_ = 0;
    }
    MappedFile &operator=(MappedFile &&other) noexcept
    {
        if (this != &other) {
            unmap();
            addr_ = other.addr_;
            size_ = other.size_;
            other.addr_ = nullptr;
            other.size_ = 0;
        }
        return *this;
    }
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /**
     * Map @p path read-only in its entirety. An absent, empty, or
     * unmappable file yields an invalid (empty) mapping — callers
     * treat that as "no segment", never an error.
     */
    static MappedFile map(const std::string &path);

    bool valid() const { return addr_ != nullptr; }
    const unsigned char *data() const
    {
        return static_cast<const unsigned char *>(addr_);
    }
    size_t size() const { return size_; }
    std::string_view view() const
    {
        return {static_cast<const char *>(addr_), size_};
    }

  private:
    void unmap();

    void *addr_ = nullptr;
    size_t size_ = 0;
};

/**
 * Publish @p bytes as the complete new contents of @p path: write to
 * "<path>.tmp", fsync, rename atomically. On any failure the previous
 * file survives untouched and false is returned. Readers holding a
 * mapping of the old file keep reading the old (complete) image.
 */
bool publishFileAtomic(const std::string &path, std::string_view bytes);

} // namespace util
} // namespace mclp

#endif // MCLP_UTIL_SHM_H
