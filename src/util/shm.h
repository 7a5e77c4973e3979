/**
 * @file
 * Shared-memory primitives for the persistent cache: read-only file
 * mappings, atomic whole-file publication, and nameless scratch files.
 *
 * The frontier-cache segment (core/frontier_cache_segment.h) is the
 * cache's only on-disk form: an immutable image that every worker
 * process on a host maps read-only, so N workers share one page-cache
 * copy of the staircase bytes instead of N private decoded heaps.
 * Immutability is what makes the sharing trivially safe — a segment
 * file is never modified in place; publishers stream a complete new
 * image into "<path>.tmp" and rename it over the old one
 * (publishFileAtomic), so a reader either maps the previous complete
 * generation or the new complete generation, never a torn mix. The
 * image is written as its producer hands over its pieces, so a
 * publisher never holds a whole image in memory.
 * Existing mappings keep the *old* inode alive until they unmap
 * (POSIX rename semantics), so a publish never invalidates a worker
 * mid-read; workers pick up new generations by re-opening
 * (MappedFile::map) and checking the embedded generation stamp.
 */

#ifndef MCLP_UTIL_SHM_H
#define MCLP_UTIL_SHM_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
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
     * treat that as "no segment", never an error — with errno saying
     * why (EINVAL for an empty file, ENOMEM for a full address space).
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

/** Takes the next bytes of a file being written; false once a write
 * has failed. */
using ByteSink = std::function<bool(std::string_view)>;

/**
 * Publish the bytes @p write hands to its sink, in order, as the
 * complete new contents of @p path: they are written to "<path>.tmp"
 * through a buffer as they arrive, then the file is fsync'd and
 * renamed atomically over @p path. When a write fails, @p write
 * returns false or throws (the exception is rethrown), the tmp file is
 * removed and the previous file survives untouched; false is returned
 * for every failure that does not throw. Readers holding a mapping of
 * the old file keep reading the old (complete) image.
 */
bool publishFileAtomic(const std::string &path,
                       const std::function<bool(const ByteSink &)> &write);

/** publishFileAtomic() of one buffer. */
bool publishFileAtomic(const std::string &path, std::string_view bytes);

/**
 * A read-write scratch file in a directory that no name there points
 * at once create() returns: opened O_TMPFILE, or, where the filesystem
 * refuses that, made by mkostemp and unlinked at once; O_CLOEXEC
 * either way. Its bytes go with the descriptor, which closes with the
 * object, so no exit of the process, SIGKILL included, leaves it
 * behind. Reads and writes are positional, so threads may read while
 * one writes elsewhere in the file.
 */
class ScratchFile
{
  public:
    /** A new empty scratch file in @p dir, or null with errno set. */
    static std::shared_ptr<const ScratchFile> create(const std::string &dir);

    ~ScratchFile();
    ScratchFile(const ScratchFile &) = delete;
    ScratchFile &operator=(const ScratchFile &) = delete;

    /** Write all of @p bytes at @p offset; false with errno set
     * (EFBIG past a file-size limit, ENOSPC on a full disk). */
    bool write(uint64_t offset, std::string_view bytes) const;

    /** Read exactly @p count bytes at @p offset into @p out; false on
     * an error or past the end of the file. */
    bool read(uint64_t offset, char *out, size_t count) const;

  private:
    ScratchFile() = default;

    int fd_ = -1;
};

} // namespace util
} // namespace mclp

#endif // MCLP_UTIL_SHM_H
