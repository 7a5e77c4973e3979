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

// The lane round and constants of xxHash64: a multiply, a rotate and
// a multiply per word, with no dependency between lanes.
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;

inline uint64_t
foldRound(uint64_t lane, uint64_t word)
{
    return std::rotl(lane + word * kPrime2, 31) * kPrime1;
}

inline uint64_t
loadWord(const unsigned char *bytes)
{
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    return word;
}

} // namespace

WordFold::WordFold(uint64_t seed)
    : lanes_{seed + kPrime1 + kPrime2, seed + kPrime2, seed, seed - kPrime1}
{
}

void
WordFold::add(const void *data, size_t count)
{
    const unsigned char *bytes = static_cast<const unsigned char *>(data);
    size_t words = count / 8;
    size_t i = 0;
    // Finish the lane group a previous call left open, then take whole
    // groups with the four lanes in registers.
    for (; i < words && (words_ & 3) != 0; ++i, ++words_)
        lanes_[words_ & 3] = foldRound(lanes_[words_ & 3],
                                       loadWord(bytes + 8 * i));
    uint64_t a = lanes_[0], b = lanes_[1], c = lanes_[2], d = lanes_[3];
    size_t grouped = i;
    for (; i + 4 <= words; i += 4) {
        a = foldRound(a, loadWord(bytes + 8 * i));
        b = foldRound(b, loadWord(bytes + 8 * i + 8));
        c = foldRound(c, loadWord(bytes + 8 * i + 16));
        d = foldRound(d, loadWord(bytes + 8 * i + 24));
    }
    lanes_[0] = a;
    lanes_[1] = b;
    lanes_[2] = c;
    lanes_[3] = d;
    words_ += i - grouped;
    for (; i < words; ++i, ++words_)
        lanes_[words_ & 3] = foldRound(lanes_[words_ & 3],
                                       loadWord(bytes + 8 * i));
    if (size_t tail = count % 8) {
        uint64_t word = 0;
        std::memcpy(&word, bytes + 8 * words, tail);
        lanes_[words_ & 3] = foldRound(lanes_[words_ & 3], word);
        ++words_;
    }
    bytes_ += count;
}

uint64_t
WordFold::finish() const
{
    uint64_t hash = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
                    std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
    hash ^= bytes_ * kPrime1;
    hash ^= hash >> 33;
    hash *= kPrime2;
    hash ^= hash >> 29;
    hash *= kPrime3;
    hash ^= hash >> 32;
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
