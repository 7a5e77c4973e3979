#include "core/frontier_cache_segment.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/logging.h"
#include "util/record_file.h"

namespace mclp {
namespace core {

// Key words go between memory and the image as they lie, and the
// record check folds host-order words, while the header and the slots
// are written little-endian: the two agree on little-endian hosts only.
static_assert(std::endian::native == std::endian::little,
              "segment images copy key words as they lie in memory");

namespace {

/** Fixed header size; the layout below must stay within it. */
constexpr size_t kHeaderBytes = 64;
/** The header bytes before its checksum, which folds them first. */
constexpr size_t kHeaderCheckedBytes = 56;
/** Slot: u64 hash | u32 keyOff | u32 kind<<24|keyWords | u32
 * payloadOff | u32 payloadLen | u32 hits | u32 lastGen. keyOff (in
 * words) names the record's check word, which its key words follow.
 * kindWords == 0 marks an empty slot (keys are never empty). */
constexpr size_t kSlotBytes = 32;

uint64_t
slotHash(uint8_t kind, std::span<const int64_t> key)
{
    // Prefix the kind so a row and a trace with identical key words
    // (impossible today, cheap to rule out forever) never collide.
    uint64_t hash = 1469598103934665603ULL;
    hash ^= kind;
    hash *= 1099511628211ULL;
    for (int64_t word : key) {
        hash ^= static_cast<uint64_t>(word);
        hash *= 1099511628211ULL;
    }
    return hash;
}

/** A record's check word: its kind, key words and payload, folded. */
uint64_t
recordCheck(uint8_t kind, std::span<const int64_t> key,
            std::string_view payload)
{
    util::WordFold fold(kind);
    fold.add(key.data(), key.size_bytes());
    fold.add(payload.data(), payload.size());
    return fold.finish();
}

/** Slots for @p records: a power of two, at most half full, so every
 * probe chain ends at an empty slot. */
uint64_t
slotCountFor(uint64_t records)
{
    uint64_t slot_count = 8;
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

// ------------------------------------------------------------- writer

SegmentPlan::SegmentPlan(size_t capacity)
    : index_(slotCountFor(capacity))
{
    entries_.reserve(capacity);
}

size_t
SegmentPlan::probe(uint8_t kind, std::span<const int64_t> key,
                   uint64_t hash) const
{
    size_t mask = index_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
        if (index_[i] == 0)
            return i;
        const Entry &entry = entries_[index_[i] - 1];
        if (entry.hash == hash && entry.record.kind == kind &&
            std::ranges::equal(entry.record.key, key))
            return i;
    }
}

size_t
SegmentPlan::find(uint8_t kind, std::span<const int64_t> key) const
{
    uint32_t at = index_[probe(kind, key, slotHash(kind, key))];
    return at == 0 ? npos : at - 1;
}

size_t
SegmentPlan::add(const SegmentRecord &record)
{
    uint64_t hash = slotHash(record.kind, record.key);
    size_t pos = probe(record.kind, record.key, hash);
    if (index_[pos] != 0)
        return index_[pos] - 1;
    // A full index would leave probe() no empty position to stop at.
    if (2 * (entries_.size() + 1) > index_.size())
        util::panic("SegmentPlan: more than its capacity of %zu records",
                    index_.size() / 2);
    entries_.push_back({record, hash});
    index_[pos] = static_cast<uint32_t>(entries_.size());
    ++live_;
    keyWords_ += 1 + record.key.size();
    payloadBytes_ += record.payload.size();
    return entries_.size() - 1;
}

void
SegmentPlan::setPayload(size_t index, std::string_view payload)
{
    Entry &entry = entries_[index];
    if (!entry.dropped)
        payloadBytes_ += payload.size() - entry.record.payload.size();
    entry.record.payload = payload;
}

void
SegmentPlan::setCounters(size_t index, uint32_t hits, uint32_t last_gen)
{
    entries_[index].record.hits = hits;
    entries_[index].record.lastGen = last_gen;
}

uint64_t
SegmentPlan::imageBytes() const
{
    return kHeaderBytes + slotCountFor(live_) * kSlotBytes +
           keyWords_ * 8 + payloadBytes_;
}

size_t
SegmentPlan::fitTo(uint64_t budget)
{
    uint64_t limit = std::min(budget, kFrontierSegmentMaxBytes);
    if (imageBytes() <= limit)
        return 0;
    std::vector<uint32_t> order;
    order.reserve(live_);
    for (size_t i = 0; i < entries_.size(); ++i)
        if (!entries_[i].dropped)
            order.push_back(static_cast<uint32_t>(i));
    auto bytes = [](const SegmentRecord &r) {
        return 8 * r.key.size() + r.payload.size();
    };
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        const SegmentRecord &x = entries_[a].record;
        const SegmentRecord &y = entries_[b].record;
        if (x.lastGen != y.lastGen)
            return x.lastGen < y.lastGen;
        if (x.hits != y.hits)
            return x.hits < y.hits;
        if (bytes(x) != bytes(y))
            return bytes(x) > bytes(y);
        if (x.kind != y.kind)
            return x.kind < y.kind;
        return std::ranges::lexicographical_compare(x.key, y.key);
    });
    size_t dropped = 0;
    for (uint32_t i : order) {
        if (imageBytes() <= limit)
            break;
        Entry &entry = entries_[i];
        entry.dropped = true;
        --live_;
        keyWords_ -= 1 + entry.record.key.size();
        payloadBytes_ -= entry.record.payload.size();
        ++dropped;
    }
    return dropped;
}

bool
SegmentPlan::write(uint64_t fingerprint, uint64_t generation,
                   const util::ByteSink &sink) const
{
    uint64_t image_bytes = imageBytes();
    if (image_bytes > kFrontierSegmentMaxBytes)
        return false;
    // Place the live records; any linear-probe placement serves find().
    // The blobs keep the order records were planned in: a flush's rows
    // in the order they were built, which is roughly the order a
    // restarted process reads them back, so its reads stay close
    // together. Each record's offsets are fixed first, in 64 bits; the
    // size check above is what lets every one fit its 32-bit field.
    uint32_t slot_count = static_cast<uint32_t>(slotCountFor(live_));
    uint32_t mask = slot_count - 1;
    std::vector<uint32_t> at(slot_count);  ///< entry index + 1, or 0
    std::vector<uint64_t> offsets(entries_.size());  ///< key << 32 | payload
    uint64_t key_off = 0;
    uint64_t payload_off = 0;
    for (size_t i = 0; i < entries_.size(); ++i) {
        const Entry &entry = entries_[i];
        if (entry.dropped)
            continue;
        uint32_t s = static_cast<uint32_t>(entry.hash) & mask;
        while (at[s] != 0)
            s = (s + 1) & mask;
        at[s] = static_cast<uint32_t>(i + 1);
        offsets[i] = key_off << 32 | payload_off;
        key_off += 1 + entry.record.key.size();
        payload_off += entry.record.payload.size();
    }

    char header[kHeaderBytes] = {};
    storeU64(header, kFrontierSegmentMagic);
    storeU32(header + 8, kFrontierSegmentVersion);
    storeU32(header + 12, slot_count);
    storeU64(header + 16, fingerprint);
    storeU64(header + 24, generation);
    storeU64(header + 32, live_);
    storeU64(header + 40, keyWords_);
    storeU64(header + 48, image_bytes);

    // The slot table goes out twice: once into the header checksum,
    // which leads the file, then to the sink.
    auto slots = [&](const util::ByteSink &out) {
        char slot[kSlotBytes];
        for (uint32_t s = 0; s < slot_count; ++s) {
            std::memset(slot, 0, sizeof slot);
            if (at[s] != 0) {
                const Entry &entry = entries_[at[s] - 1];
                const SegmentRecord &record = entry.record;
                storeU64(slot, entry.hash);
                storeU32(slot + 8,
                         static_cast<uint32_t>(offsets[at[s] - 1] >> 32));
                storeU32(slot + 12,
                         (static_cast<uint32_t>(record.kind) << 24) |
                             static_cast<uint32_t>(record.key.size()));
                storeU32(slot + 16,
                         static_cast<uint32_t>(offsets[at[s] - 1]));
                storeU32(slot + 20,
                         static_cast<uint32_t>(record.payload.size()));
                storeU32(slot + 24, record.hits);
                storeU32(slot + 28, record.lastGen);
            }
            if (!out({slot, kSlotBytes}))
                return false;
        }
        return true;
    };
    util::WordFold checksum(0);
    checksum.add(header, kHeaderCheckedBytes);
    slots([&](std::string_view slot) {
        checksum.add(slot.data(), slot.size());
        return true;
    });
    storeU64(header + kHeaderCheckedBytes, checksum.finish());
    if (!sink({header, kHeaderBytes}) || !slots(sink))
        return false;

    for (const Entry &entry : entries_) {
        if (entry.dropped)
            continue;
        const SegmentRecord &record = entry.record;
        char check[8];
        storeU64(check,
                 recordCheck(record.kind, record.key, record.payload));
        if (!sink({check, sizeof check}) ||
            !sink({reinterpret_cast<const char *>(record.key.data()),
                   record.key.size_bytes()}))
            return false;
    }
    for (const Entry &entry : entries_)
        if (!entry.dropped && !sink(entry.record.payload))
            return false;
    return true;
}

std::string
FrontierCacheSegment::build(uint64_t fingerprint, uint64_t generation,
                            const std::vector<SegmentRecord> &records)
{
    SegmentPlan plan(records.size());
    for (const SegmentRecord &record : records)
        plan.add(record);
    std::string image;
    if (plan.imageBytes() <= kFrontierSegmentMaxBytes)
        image.reserve(plan.imageBytes());
    plan.write(fingerprint, generation, [&](std::string_view bytes) {
        image.append(bytes);
        return true;
    });
    return image;
}

// ------------------------------------------------------------- reader

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
    // Our file under another layout version (v1 and v2 images
    // included) is an expected invalidation, as is another binary's
    // model fingerprint.
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
    uint64_t checksum = loadU64(base + kHeaderCheckedBytes);
    if (file_bytes != map.size())
        return segment;
    // Geometry: power-of-two slot table, then 8-aligned key blob,
    // then payloads to end of file.
    if (slot_count == 0 || (slot_count & (slot_count - 1)) != 0 ||
        slot_count > (map.size() - kHeaderBytes) / kSlotBytes)
        return segment;
    size_t slots_off = kHeaderBytes;
    size_t key_off = slots_off + size_t{slot_count} * kSlotBytes;
    if (key_words > (map.size() - key_off) / 8)
        return segment;
    size_t payload_off = key_off + static_cast<size_t>(key_words) * 8;
    size_t payload_bytes = map.size() - payload_off;
    util::WordFold fold(0);
    fold.add(base, kHeaderCheckedBytes);
    fold.add(base + slots_off, size_t{slot_count} * kSlotBytes);
    if (fold.finish() != checksum)
        return segment;

    // Validate every slot once so find() and forEach() can trust
    // offsets blindly; the records themselves are checked when read.
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
            key_words - k_off < uint64_t{words} + 1 ||
            p_off > payload_bytes || p_len > payload_bytes - p_off)
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
FrontierCacheSegment::find(uint8_t kind, std::span<const int64_t> key,
                           uint32_t *slot_out, bool *damaged) const
{
    if (!valid() || key.empty() || key.size() > 0xffffff)
        return {};
    uint64_t hash = slotHash(kind, key);
    uint32_t mask = slotCount_ - 1;
    for (uint32_t probe = 0; probe < slotCount_; ++probe) {
        uint32_t s = (static_cast<uint32_t>(hash) + probe) & mask;
        const unsigned char *slot =
            map_.data() + kHeaderBytes + s * kSlotBytes;
        uint32_t kind_words = loadU32(slot + 12);
        if (kind_words == 0)
            return {};  // empty slot terminates the probe chain
        if (loadU64(slot) != hash ||
            (kind_words >> 24) != kind ||
            (kind_words & 0xffffff) != key.size())
            continue;
        // The slot's hash is @p key's. A record holding other key
        // words under it is either a 64-bit collision, which passes
        // its check, or @p key's record with damaged key words.
        Entry entry;
        uint64_t check = 0;
        readSlot(s, entry, check);
        bool same_key = std::ranges::equal(entry.key, key);
        if (recordCheck(kind, entry.key, entry.payload) != check) {
            if (damaged)
                *damaged = true;
            if (same_key)
                return {};
            continue;
        }
        if (!same_key)
            continue;
        if (slot_out)
            *slot_out = s;
        return entry.payload;
    }
    return {};
}

bool
FrontierCacheSegment::readSlot(uint32_t s, Entry &entry,
                               uint64_t &check) const
{
    const unsigned char *base = map_.data();
    const unsigned char *slot = base + kHeaderBytes + s * kSlotBytes;
    uint32_t kind_words = loadU32(slot + 12);
    if (kind_words == 0)
        return false;
    const unsigned char *record =
        base + keyWordsOff_ + size_t{loadU32(slot + 8)} * 8;
    entry.kind = static_cast<uint8_t>(kind_words >> 24);
    // Key words are read in place: the key blob is 8-aligned in a
    // page-aligned mapping that, like memory from malloc, holds no
    // other objects, and nothing writes it.
    entry.key = {reinterpret_cast<const int64_t *>(record + 8),
                 kind_words & 0xffffff};
    entry.payload = {reinterpret_cast<const char *>(base) + payloadOff_ +
                         loadU32(slot + 16),
                     loadU32(slot + 20)};
    entry.hits = loadU32(slot + 24);
    entry.lastGen = loadU32(slot + 28);
    check = loadU64(record);
    return true;
}

bool
FrontierCacheSegment::entryAt(uint32_t s, Entry &entry) const
{
    uint64_t check = 0;
    return s < slotCount_ && readSlot(s, entry, check) &&
           recordCheck(entry.kind, entry.key, entry.payload) == check;
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

} // namespace core
} // namespace mclp
