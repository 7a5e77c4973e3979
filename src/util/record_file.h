/**
 * @file
 * Byte-level building blocks of the persistent frontier cache
 * (core/frontier_cache.h): a little-endian writer/reader pair for
 * payloads, the FNV-1a checksum that guards the mmap'd segment image,
 * and the advisory lock that serializes flushes across processes.
 *
 * Integers are serialized little-endian regardless of host order;
 * doubles as their IEEE-754 bit patterns, so values round-trip
 * bit-exactly — a requirement for the cache's byte-for-byte
 * warm-vs-cold parity invariant. Whole-file publication (tmp file,
 * fsync, atomic rename) lives next to the mapping it feeds, in
 * util/shm.h.
 */

#ifndef MCLP_UTIL_RECORD_FILE_H
#define MCLP_UTIL_RECORD_FILE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mclp {
namespace util {

/**
 * The image checksum: FNV-1a folding eight bytes per step (plus a
 * byte-wise tail), so checking a multi-megabyte cache segment costs
 * milliseconds, not tens of them. Not the canonical byte-wise FNV —
 * this is an internal integrity checksum, not an interchange hash.
 */
uint64_t fnv1aBytes(const void *data, size_t count);

/**
 * ZigZag mapping for signed deltas: small magnitudes of either sign
 * become small unsigned values, so a varint of a staircase delta
 * (strictly positive DSP steps, strictly negative cycle steps) costs
 * one or two bytes instead of eight.
 */
constexpr uint64_t
zigzagEncode(int64_t value)
{
    return (static_cast<uint64_t>(value) << 1) ^
           static_cast<uint64_t>(value >> 63);
}

constexpr int64_t
zigzagDecode(uint64_t value)
{
    return static_cast<int64_t>(value >> 1) ^
           -static_cast<int64_t>(value & 1);
}

/** Append-only little-endian serializer for cache payloads. */
class ByteWriter
{
  public:
    void u8(uint8_t value);
    void u16(uint16_t value);
    void u32(uint32_t value);
    void u64(uint64_t value);
    void i64(int64_t value) { u64(static_cast<uint64_t>(value)); }
    /** IEEE-754 bit pattern; round-trips bit-exactly. */
    void f64(double value);
    /** Bulk little-endian i64 block (one memcpy on LE hosts). */
    void i64Words(const int64_t *words, size_t count);
    /** LEB128 varint, 1-10 bytes (the delta codec's workhorse). */
    void varint(uint64_t value);

    const std::string &bytes() const { return buf_; }

  private:
    std::string buf_;
};

/**
 * Bounds-checked little-endian deserializer. Every read reports
 * success; once a read runs past the end the reader latches !ok() and
 * all further reads fail, so decode loops need only one final check.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view data) : data_(data) {}

    bool u8(uint8_t &value);
    bool u16(uint16_t &value);
    bool u32(uint32_t &value);
    bool u64(uint64_t &value);
    bool i64(int64_t &value);
    bool f64(double &value);
    /** LEB128 varint; fails (latching !ok()) past 10 bytes. */
    bool varint(uint64_t &value);

    bool ok() const { return ok_; }
    bool atEnd() const { return ok_ && pos_ == data_.size(); }

  private:
    bool take(void *out, size_t count);

    std::string_view data_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/**
 * Blocking advisory file lock (flock) for cross-process exclusion.
 * The lock file is created if absent and never deleted; the lock is
 * released on destruction (or process death — kernel-managed, so a
 * crashed holder never wedges other CLIs).
 */
class FileLock
{
  public:
    explicit FileLock(const std::string &path);
    ~FileLock();

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

    /** False when the lock file could not be created or locked. */
    bool locked() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
};

} // namespace util
} // namespace mclp

#endif // MCLP_UTIL_RECORD_FILE_H
