#include "util/record_file.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <bit>
#include <cstring>

namespace mclp {
namespace util {

uint64_t
fnv1aBytes(const void *data, size_t count)
{
    const unsigned char *bytes = static_cast<const unsigned char *>(data);
    uint64_t hash = 1469598103934665603ULL;
    size_t i = 0;
    for (; i + 8 <= count; i += 8) {
        uint64_t word;
        std::memcpy(&word, bytes + i, sizeof(word));
        hash ^= word;
        hash *= 1099511628211ULL;
    }
    for (; i < count; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ULL;
    }
    return hash;
}

namespace {

void
putLe(std::string &buf, uint64_t value, size_t bytes)
{
    for (size_t i = 0; i < bytes; ++i)
        buf.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

} // namespace

void
ByteWriter::u8(uint8_t value)
{
    putLe(buf_, value, 1);
}

void
ByteWriter::u16(uint16_t value)
{
    putLe(buf_, value, 2);
}

void
ByteWriter::u32(uint32_t value)
{
    putLe(buf_, value, 4);
}

void
ByteWriter::u64(uint64_t value)
{
    putLe(buf_, value, 8);
}

void
ByteWriter::f64(double value)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    u64(bits);
}

void
ByteWriter::i64Words(const int64_t *words, size_t count)
{
    if constexpr (std::endian::native == std::endian::little) {
        buf_.append(reinterpret_cast<const char *>(words),
                    count * sizeof(int64_t));
    } else {
        for (size_t i = 0; i < count; ++i)
            i64(words[i]);
    }
}

void
ByteWriter::varint(uint64_t value)
{
    while (value >= 0x80) {
        buf_.push_back(static_cast<char>((value & 0x7f) | 0x80));
        value >>= 7;
    }
    buf_.push_back(static_cast<char>(value));
}

bool
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

bool
ByteReader::u8(uint8_t &value)
{
    return take(&value, 1);
}

bool
ByteReader::u16(uint16_t &value)
{
    unsigned char raw[2];
    if (!take(raw, sizeof(raw)))
        return false;
    value = static_cast<uint16_t>(raw[0] |
                                  (static_cast<uint16_t>(raw[1]) << 8));
    return true;
}

bool
ByteReader::u32(uint32_t &value)
{
    unsigned char raw[4];
    if (!take(raw, sizeof(raw)))
        return false;
    value = 0;
    for (size_t i = 0; i < sizeof(raw); ++i)
        value |= static_cast<uint32_t>(raw[i]) << (8 * i);
    return true;
}

bool
ByteReader::u64(uint64_t &value)
{
    unsigned char raw[8];
    if (!take(raw, sizeof(raw)))
        return false;
    value = 0;
    for (size_t i = 0; i < sizeof(raw); ++i)
        value |= static_cast<uint64_t>(raw[i]) << (8 * i);
    return true;
}

bool
ByteReader::i64(int64_t &value)
{
    uint64_t raw;
    if (!u64(raw))
        return false;
    value = static_cast<int64_t>(raw);
    return true;
}

bool
ByteReader::f64(double &value)
{
    uint64_t bits;
    if (!u64(bits))
        return false;
    std::memcpy(&value, &bits, sizeof(value));
    return true;
}

bool
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

FileLock::FileLock(const std::string &path)
{
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0)
        return;
    if (::flock(fd_, LOCK_EX) != 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

FileLock::~FileLock()
{
    if (fd_ >= 0) {
        ::flock(fd_, LOCK_UN);
        ::close(fd_);
    }
}

} // namespace util
} // namespace mclp
