#include "core/frontier_cache_segment.h"

#include <unistd.h>

#include <cstring>

#include "util/record_file.h"

namespace mclp {
namespace core {

namespace {

/** Fixed header size; the layout below must stay within it. */
constexpr size_t kHeaderBytes = 64;
/** Slot: u64 hash | u32 keyOff | u32 kind<<24|keyWords | u32
 * payloadOff | u32 payloadLen | u32 hits | u32 lastGen. kindWords
 * == 0 marks an empty slot (keys are never empty). */
constexpr size_t kSlotBytes = 32;

uint64_t
slotHash(uint8_t kind, const int64_t *words, size_t count)
{
    // Prefix the kind so a row and a trace with identical key words
    // (impossible today, cheap to rule out forever) never collide.
    uint64_t hash = 1469598103934665603ULL;
    hash ^= kind;
    hash *= 1099511628211ULL;
    for (size_t i = 0; i < count; ++i) {
        hash ^= static_cast<uint64_t>(words[i]);
        hash *= 1099511628211ULL;
    }
    return hash;
}

/** Slots for @p records: a power of two, at most half full, so every
 * probe chain ends at an empty slot. */
uint32_t
slotCountFor(size_t records)
{
    uint32_t slot_count = 8;
    while (slot_count < 2 * records)
        slot_count *= 2;
    return slot_count;
}

uint64_t
loadU64(const unsigned char *bytes)
{
    uint64_t value = 0;
    for (size_t i = 0; i < 8; ++i)
        value |= static_cast<uint64_t>(bytes[i]) << (8 * i);
    return value;
}

uint32_t
loadU32(const unsigned char *bytes)
{
    uint32_t value = 0;
    for (size_t i = 0; i < 4; ++i)
        value |= static_cast<uint32_t>(bytes[i]) << (8 * i);
    return value;
}

int64_t
loadI64(const unsigned char *bytes)
{
    return static_cast<int64_t>(loadU64(bytes));
}

void
storeU64(char *bytes, uint64_t value)
{
    for (size_t i = 0; i < 8; ++i)
        bytes[i] = static_cast<char>(value >> (8 * i));
}

void
storeU32(char *bytes, uint32_t value)
{
    for (size_t i = 0; i < 4; ++i)
        bytes[i] = static_cast<char>(value >> (8 * i));
}

} // namespace

FrontierCacheSegment
FrontierCacheSegment::open(const std::string &path, uint64_t fingerprint)
{
    FrontierCacheSegment segment;
    util::MappedFile map = util::MappedFile::map(path);
    if (!map.valid()) {
        // Absent is a clean cold start; present but unmappable (empty,
        // unreadable) is damage.
        if (::access(path.c_str(), F_OK) == 0)
            segment.state_ = SegmentState::Damaged;
        return segment;
    }
    segment.state_ = SegmentState::Damaged;
    const unsigned char *base = map.data();
    if (map.size() < 12 || loadU64(base) != kFrontierSegmentMagic)
        return segment;
    // Our file under another layout version (v1 images included) is an
    // expected invalidation, as is another binary's model fingerprint.
    if (loadU32(base + 8) != kFrontierSegmentVersion) {
        segment.state_ = SegmentState::Stale;
        return segment;
    }
    if (map.size() < kHeaderBytes)
        return segment;
    if (loadU64(base + 16) != fingerprint) {
        segment.state_ = SegmentState::Stale;
        return segment;
    }
    uint32_t slot_count = loadU32(base + 12);
    uint64_t generation = loadU64(base + 24);
    uint64_t entry_count = loadU64(base + 32);
    uint64_t key_words = loadU64(base + 40);
    uint64_t file_bytes = loadU64(base + 48);
    uint64_t checksum = loadU64(base + 56);
    if (file_bytes != map.size())
        return segment;
    if (util::fnv1aBytes(base + kHeaderBytes,
                         map.size() - kHeaderBytes) != checksum)
        return segment;
    // Geometry: power-of-two slot table, then 8-aligned key blob,
    // then payloads to end of file.
    if (slot_count == 0 || (slot_count & (slot_count - 1)) != 0)
        return segment;
    size_t slots_off = kHeaderBytes;
    size_t key_off = slots_off + size_t{slot_count} * kSlotBytes;
    if (key_off > map.size() || key_words > (map.size() - key_off) / 8)
        return segment;
    size_t payload_off = key_off + static_cast<size_t>(key_words) * 8;
    size_t payload_bytes = map.size() - payload_off;

    // Validate every slot once so find() and forEach() can trust
    // offsets blindly.
    size_t live = 0;
    for (uint32_t s = 0; s < slot_count; ++s) {
        const unsigned char *slot = base + slots_off + s * kSlotBytes;
        uint32_t kind_words = loadU32(slot + 12);
        if (kind_words == 0)
            continue;
        uint32_t words = kind_words & 0xffffff;
        uint32_t k_off = loadU32(slot + 8);
        uint32_t p_off = loadU32(slot + 16);
        uint32_t p_len = loadU32(slot + 20);
        if (words == 0 || k_off > key_words ||
            words > key_words - k_off || p_off > payload_bytes ||
            p_len > payload_bytes - p_off)
            return segment;
        ++live;
    }
    // A full table would leave find() no empty slot to stop at.
    if (live != entry_count || live == slot_count)
        return segment;

    segment.map_ = std::move(map);
    segment.state_ = SegmentState::Valid;
    segment.generation_ = generation;
    segment.slotCount_ = slot_count;
    segment.entryCount_ = static_cast<size_t>(entry_count);
    segment.keyWordsOff_ = key_off;
    segment.payloadOff_ = payload_off;
    return segment;
}

std::string_view
FrontierCacheSegment::find(uint8_t kind, const std::vector<int64_t> &key,
                           uint32_t *slot_out) const
{
    if (!valid() || key.empty() || key.size() > 0xffffff)
        return {};
    const unsigned char *base = map_.data();
    uint64_t hash = slotHash(kind, key.data(), key.size());
    uint32_t mask = slotCount_ - 1;
    for (uint32_t probe = 0; probe < slotCount_; ++probe) {
        uint32_t s = (static_cast<uint32_t>(hash) + probe) & mask;
        const unsigned char *slot = base + kHeaderBytes + s * kSlotBytes;
        uint32_t kind_words = loadU32(slot + 12);
        if (kind_words == 0)
            return {};  // empty slot terminates the probe chain
        if (loadU64(slot) != hash ||
            (kind_words >> 24) != kind ||
            (kind_words & 0xffffff) != key.size())
            continue;
        const unsigned char *stored =
            base + keyWordsOff_ + size_t{loadU32(slot + 8)} * 8;
        bool match = true;
        for (size_t i = 0; match && i < key.size(); ++i)
            match = loadI64(stored + i * 8) == key[i];
        if (!match)
            continue;
        if (slot_out)
            *slot_out = s;
        return {reinterpret_cast<const char *>(base) + payloadOff_ +
                    loadU32(slot + 16),
                loadU32(slot + 20)};
    }
    return {};
}

bool
FrontierCacheSegment::entryAt(uint32_t s, Entry &entry) const
{
    if (s >= slotCount_)
        return false;
    const unsigned char *base = map_.data();
    const unsigned char *slot = base + kHeaderBytes + s * kSlotBytes;
    uint32_t kind_words = loadU32(slot + 12);
    if (kind_words == 0)
        return false;
    const unsigned char *stored =
        base + keyWordsOff_ + size_t{loadU32(slot + 8)} * 8;
    entry.kind = static_cast<uint8_t>(kind_words >> 24);
    entry.key.resize(kind_words & 0xffffff);
    for (size_t i = 0; i < entry.key.size(); ++i)
        entry.key[i] = loadI64(stored + i * 8);
    entry.payload = {reinterpret_cast<const char *>(base) + payloadOff_ +
                         loadU32(slot + 16),
                     loadU32(slot + 20)};
    entry.hits = loadU32(slot + 24);
    entry.lastGen = loadU32(slot + 28);
    return true;
}

void
FrontierCacheSegment::forEach(
    const std::function<void(const Entry &)> &fn) const
{
    Entry entry;
    for (uint32_t s = 0; s < slotCount_; ++s)
        if (entryAt(s, entry))
            fn(entry);
}

size_t
FrontierCacheSegment::imageBytes(size_t records, size_t key_words,
                                 size_t payload_bytes)
{
    return kHeaderBytes + size_t{slotCountFor(records)} * kSlotBytes +
           key_words * 8 + payload_bytes;
}

std::string
FrontierCacheSegment::build(uint64_t fingerprint, uint64_t generation,
                            const std::vector<SegmentRecord> &records)
{
    size_t key_words = 0;
    size_t payload_bytes = 0;
    for (const SegmentRecord &record : records) {
        key_words += record.key.size();
        payload_bytes += record.payload.size();
    }
    uint32_t slot_count = slotCountFor(records.size());
    // One exact-size allocation, filled in place: the flush's peak
    // memory is this image plus the payloads it copies, nothing more.
    std::string image(imageBytes(records.size(), key_words, payload_bytes),
                      '\0');
    char *slots = image.data() + kHeaderBytes;
    char *keys = slots + size_t{slot_count} * kSlotBytes;
    char *payloads = keys + key_words * 8;

    uint32_t mask = slot_count - 1;
    std::vector<bool> taken(slot_count);
    uint32_t key_off = 0;
    uint32_t payload_off = 0;
    for (const SegmentRecord &record : records) {
        std::span<const int64_t> key = record.key;
        uint64_t hash = slotHash(record.kind, key.data(), key.size());
        uint32_t s = static_cast<uint32_t>(hash) & mask;
        while (taken[s])
            s = (s + 1) & mask;
        taken[s] = true;
        char *slot = slots + s * kSlotBytes;
        storeU64(slot, hash);
        storeU32(slot + 8, key_off);
        storeU32(slot + 12, (static_cast<uint32_t>(record.kind) << 24) |
                                static_cast<uint32_t>(key.size()));
        storeU32(slot + 16, payload_off);
        storeU32(slot + 20, static_cast<uint32_t>(record.payload.size()));
        storeU32(slot + 24, record.hits);
        storeU32(slot + 28, record.lastGen);
        for (int64_t word : key) {
            storeU64(keys + size_t{key_off} * 8,
                     static_cast<uint64_t>(word));
            ++key_off;
        }
        if (!record.payload.empty())
            std::memcpy(payloads + payload_off, record.payload.data(),
                        record.payload.size());
        payload_off += static_cast<uint32_t>(record.payload.size());
    }

    char *header = image.data();
    storeU64(header, kFrontierSegmentMagic);
    storeU32(header + 8, kFrontierSegmentVersion);
    storeU32(header + 12, slot_count);
    storeU64(header + 16, fingerprint);
    storeU64(header + 24, generation);
    storeU64(header + 32, records.size());
    storeU64(header + 40, key_words);
    storeU64(header + 48, image.size());
    storeU64(header + 56, util::fnv1aBytes(image.data() + kHeaderBytes,
                                           image.size() - kHeaderBytes));
    return image;
}

} // namespace core
} // namespace mclp
