/**
 * @file
 * Byte-level building blocks of the persistent frontier cache
 * (core/frontier_cache.h): a little-endian writer/reader pair for
 * payloads, the lane fold that checks the mmap'd segment's slot table
 * and each of its records, and the advisory lock that serializes
 * flushes across processes.
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
#include <cstring>
#include <string>
#include <string_view>

namespace mclp {
namespace util {

/**
 * FNV-1a folding eight bytes per step (plus a byte-wise tail): the
 * shard router's hash of a request signature. Not the canonical
 * byte-wise FNV — an internal hash, not an interchange one.
 */
uint64_t fnv1aBytes(const void *data, size_t count);

/**
 * The segment's integrity check: bytes read as host-order 64-bit
 * words (a short last word zero-padded) and folded into four
 * independent lanes, so the multiplies of neighbouring words overlap
 * and a check runs at several bytes a cycle — a fraction of what
 * decoding the same bytes costs. Bytes may arrive in any number of
 * add() calls as long as every call but the last passes whole words;
 * a writer and a checker that split the input alike agree. It catches
 * damage, not forgery.
 */
class WordFold
{
  public:
    explicit WordFold(uint64_t seed);

    void add(const void *data, size_t count);
    uint64_t finish() const;

  private:
    uint64_t lanes_[4];
    uint64_t words_ = 0;  ///< words folded so far
    uint64_t bytes_ = 0;  ///< bytes added so far
};

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
 * The byte-sized reads are inline: the row decoder calls them once
 * per lane entry.
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
    /** Bytes left to read (0 once a read has failed). */
    size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }

  private:
    bool take(void *out, size_t count);

    std::string_view data_;
    size_t pos_ = 0;
    bool ok_ = true;
};

inline bool
ByteReader::take(void *out, size_t count)
{
    if (!ok_ || data_.size() - pos_ < count) {
        ok_ = false;
        return false;
    }
    std::memcpy(out, data_.data() + pos_, count);
    pos_ += count;
    return true;
}

inline bool
ByteReader::u8(uint8_t &value)
{
    return take(&value, 1);
}

inline bool
ByteReader::u16(uint16_t &value)
{
    unsigned char raw[2];
    if (!take(raw, sizeof(raw)))
        return false;
    value = static_cast<uint16_t>(raw[0] |
                                  (static_cast<uint16_t>(raw[1]) << 8));
    return true;
}

inline bool
ByteReader::varint(uint64_t &value)
{
    value = 0;
    for (int shift = 0; shift < 70; shift += 7) {
        uint8_t byte;
        if (!take(&byte, 1))
            return false;
        value |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return true;
    }
    ok_ = false;  // 11+ continuation bytes: not a valid varint
    return false;
}

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
