#include "core/frontier_cache_segment.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>

#include "util/logging.h"
#include "util/record_file.h"

namespace mclp {
namespace core {

// The record check folds key and payload bytes as host-order words,
// while the header and the slots are written little-endian: the two
// agree on little-endian hosts only.
static_assert(std::endian::native == std::endian::little,
              "segment record checks fold host-order words");

namespace {

/** Fixed header size; the layout below must stay within it. */
constexpr size_t kHeaderBytes = 64;
/** The header bytes before its checksum, which folds them first. */
constexpr size_t kHeaderCheckedBytes = 56;
/** Slot: u64 hash | u32 keyOff | u32 kind<<24|keyBytes | u32
 * payloadOff | u32 payloadLen | u32 hits | u32 lastGen. keyOff (in
 * words) names the record's check word, which its packed key follows,
 * zero-padded to a word. kindBytes == 0 marks an empty slot (keys are
 * never empty). */
constexpr size_t kSlotBytes = 32;

/** Largest key a slot's 24-bit length field holds. */
constexpr size_t kMaxKeyBytes = 0xffffff;

/** Key blob words a record of a @p key_bytes-byte key takes: its
 * check word and its key, padded. */
constexpr uint64_t
recordWords(uint64_t key_bytes)
{
    return 1 + (key_bytes + 7) / 8;
}

/**
 * A record's check word: its kind and key length, its key padded to a
 * word, then its payload, folded. @p tail is the key's last word as
 * the image holds it, padding included — the mapping's own bytes for
 * a reader, so nonzero padding fails the check, and a zero-filled
 * copy for the writer; unused when the key ends on a word.
 */
uint64_t
recordCheck(uint8_t kind, std::string_view key, const char *tail,
            std::string_view payload)
{
    util::WordFold fold(uint64_t{kind} << 24 | key.size());
    size_t whole = key.size() & ~size_t{7};
    fold.add(key.data(), whole);
    if (whole < key.size())
        fold.add(tail, 8);
    fold.add(payload.data(), payload.size());
    return fold.finish();
}

/** @p key's last partial word, zero-padded (all zero when the key
 * ends on a word), as the writer lays it out. */
void
paddedTail(std::string_view key, char (&tail)[8])
{
    std::memset(tail, 0, sizeof tail);
    size_t whole = key.size() & ~size_t{7};
    std::memcpy(tail, key.data() + whole, key.size() - whole);
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
SegmentPlan::probe(uint8_t kind, std::string_view key, uint64_t hash) const
{
    size_t mask = index_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
        if (index_[i] == 0)
            return i;
        const SegmentRecord &record = entries_[index_[i] - 1].record;
        if (record.hash == hash && record.kind == kind && record.key == key)
            return i;
    }
}

size_t
SegmentPlan::find(uint8_t kind, std::string_view key, uint64_t hash) const
{
    uint32_t at = index_[probe(kind, key, hash)];
    return at == 0 ? npos : at - 1;
}

size_t
SegmentPlan::add(const SegmentRecord &record)
{
    if (record.key.empty() || record.key.size() > kMaxKeyBytes)
        return npos;  // no slot can hold it: it stays out of the image
    size_t pos = probe(record.kind, record.key, record.hash);
    if (index_[pos] != 0)
        return index_[pos] - 1;
    // A full index would leave probe() no empty position to stop at.
    if (2 * (entries_.size() + 1) > index_.size())
        util::panic("SegmentPlan: more than its capacity of %zu records",
                    index_.size() / 2);
    entries_.push_back({record});
    index_[pos] = static_cast<uint32_t>(entries_.size());
    ++live_;
    keyWords_ += recordWords(record.key.size());
    payloadBytes_ += record.payloadBytes();
    return entries_.size() - 1;
}

void
SegmentPlan::setPayload(size_t index, std::string_view payload,
                        const SpilledPayload *spilled)
{
    Entry &entry = entries_[index];
    if (!entry.dropped)
        payloadBytes_ -= entry.record.payloadBytes();
    entry.record.payload = payload;
    entry.record.spilled = spilled;
    if (!entry.dropped)
        payloadBytes_ += entry.record.payloadBytes();
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
        return 8 * recordWords(r.key.size()) + r.payloadBytes();
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
        return x.key < y.key;
    });
    size_t dropped = 0;
    for (uint32_t i : order) {
        if (imageBytes() <= limit)
            break;
        Entry &entry = entries_[i];
        entry.dropped = true;
        --live_;
        keyWords_ -= recordWords(entry.record.key.size());
        payloadBytes_ -= entry.record.payloadBytes();
        ++dropped;
    }
    return dropped;
}

bool
SegmentPlan::write(uint64_t fingerprint, uint64_t generation,
                   const util::ByteSink &sink,
                   const SpillReader &spill) const
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
        uint32_t s = static_cast<uint32_t>(entry.record.hash) & mask;
        while (at[s] != 0)
            s = (s + 1) & mask;
        at[s] = static_cast<uint32_t>(i + 1);
        offsets[i] = key_off << 32 | payload_off;
        key_off += recordWords(entry.record.key.size());
        payload_off += entry.record.payloadBytes();
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
                const SegmentRecord &record = entries_[at[s] - 1].record;
                storeU64(slot, record.hash);
                storeU32(slot + 8,
                         static_cast<uint32_t>(offsets[at[s] - 1] >> 32));
                storeU32(slot + 12,
                         (static_cast<uint32_t>(record.kind) << 24) |
                             static_cast<uint32_t>(record.key.size()));
                storeU32(slot + 16,
                         static_cast<uint32_t>(offsets[at[s] - 1]));
                storeU32(slot + 20,
                         static_cast<uint32_t>(record.payloadBytes()));
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

    // A record's payload: its view, or its bytes read from the spill.
    auto payloadOf = [&](const SegmentRecord &record,
                         std::string_view &bytes) {
        if (!record.spilled) {
            bytes = record.payload;
            return true;
        }
        return spill && spill(*record.spilled, bytes) &&
               bytes.size() == record.spilled->bytes;
    };
    std::string_view payload;
    for (const Entry &entry : entries_) {
        if (entry.dropped)
            continue;
        const SegmentRecord &record = entry.record;
        if (!payloadOf(record, payload))
            return false;
        char tail[8];
        paddedTail(record.key, tail);
        char check[8];
        storeU64(check, recordCheck(record.kind, record.key, tail, payload));
        size_t whole = record.key.size() & ~size_t{7};
        if (!sink({check, sizeof check}) ||
            !sink(record.key.substr(0, whole)) ||
            (whole < record.key.size() && !sink({tail, sizeof tail})))
            return false;
    }
    for (const Entry &entry : entries_)
        if (!entry.dropped &&
            (!payloadOf(entry.record, payload) || !sink(payload)))
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
        // unreadable) is damage, unless the address space is what ran
        // out, which says nothing about the file.
        int error = errno;
        if (::access(path.c_str(), F_OK) == 0)
            segment.state_ = error == ENOMEM ? SegmentState::Unmapped
                                             : SegmentState::Damaged;
        return segment;
    }
    segment.state_ = SegmentState::Damaged;
    const unsigned char *base = map.data();
    if (map.size() < 12 || loadU64(base) != kFrontierSegmentMagic)
        return segment;
    // Our file under another layout version (v1 to v3 images, v3's
    // word keys included) is an expected invalidation, as is another
    // binary's model fingerprint.
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
    // Geometry: power-of-two slot table, then the key blob in whole
    // words, then payloads to end of file.
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
        uint32_t kind_bytes = loadU32(slot + 12);
        if (kind_bytes == 0)
            continue;
        uint32_t bytes = kind_bytes & kMaxKeyBytes;
        uint32_t k_off = loadU32(slot + 8);
        uint32_t p_off = loadU32(slot + 16);
        uint32_t p_len = loadU32(slot + 20);
        if (bytes == 0 || k_off > key_words ||
            key_words - k_off < recordWords(bytes) ||
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
    segment.keyBlobOff_ = key_off;
    segment.payloadOff_ = payload_off;
    return segment;
}

std::string_view
FrontierCacheSegment::find(uint8_t kind, std::string_view key,
                           uint64_t hash, uint32_t *slot_out,
                           bool *damaged) const
{
    if (!valid() || key.empty() || key.size() > kMaxKeyBytes)
        return {};
    uint32_t mask = slotCount_ - 1;
    for (uint32_t probe = 0; probe < slotCount_; ++probe) {
        uint32_t s = (static_cast<uint32_t>(hash) + probe) & mask;
        const unsigned char *slot =
            map_.data() + kHeaderBytes + s * kSlotBytes;
        uint32_t kind_bytes = loadU32(slot + 12);
        if (kind_bytes == 0)
            return {};  // empty slot terminates the probe chain
        if (loadU64(slot) != hash || (kind_bytes >> 24) != kind)
            continue;
        // The slot's hash is @p key's. A record holding other key
        // bytes under it — another length included — is either a
        // 64-bit collision, which passes its check, or @p key's record
        // with damaged key bytes or length.
        Entry entry;
        const char *tail = nullptr;
        uint64_t check = 0;
        readSlot(s, entry, tail, check);
        bool same_key = entry.key == key;
        if (recordCheck(kind, entry.key, tail, entry.payload) != check) {
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
FrontierCacheSegment::readSlot(uint32_t s, Entry &entry, const char *&tail,
                               uint64_t &check) const
{
    const unsigned char *base = map_.data();
    const unsigned char *slot = base + kHeaderBytes + s * kSlotBytes;
    uint32_t kind_bytes = loadU32(slot + 12);
    if (kind_bytes == 0)
        return false;
    const char *record = reinterpret_cast<const char *>(base) +
                         keyBlobOff_ + size_t{loadU32(slot + 8)} * 8;
    size_t key_bytes = kind_bytes & kMaxKeyBytes;
    entry.kind = static_cast<uint8_t>(kind_bytes >> 24);
    entry.key = {record + 8, key_bytes};
    entry.hash = loadU64(slot);
    entry.payload = {reinterpret_cast<const char *>(base) + payloadOff_ +
                         loadU32(slot + 16),
                     loadU32(slot + 20)};
    entry.hits = loadU32(slot + 24);
    entry.lastGen = loadU32(slot + 28);
    tail = record + 8 + (key_bytes & ~size_t{7});
    check = loadU64(reinterpret_cast<const unsigned char *>(record));
    return true;
}

bool
FrontierCacheSegment::entryAt(uint32_t s, Entry &entry) const
{
    const char *tail = nullptr;
    uint64_t check = 0;
    return s < slotCount_ && readSlot(s, entry, tail, check) &&
           recordCheck(entry.kind, entry.key, tail, entry.payload) == check;
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
