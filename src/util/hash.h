/**
 * @file
 * The int64-sequence hash shared by the optimizer's memo tables.
 *
 * The in-process memo caches of the memory optimizer (tiling options,
 * tradeoff curves, walk traces) key entries by a flattened sequence of
 * layer dimensions; this is the one hash they all use. Frontier rows
 * and everything persisted key by packed bytes instead, with the hash
 * of core/frontier_codec.h.
 */

#ifndef MCLP_UTIL_HASH_H
#define MCLP_UTIL_HASH_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mclp {
namespace util {

/** FNV-1a over an int64 sequence; the memo tables' shared hash. */
inline size_t
hashInt64Words(const int64_t *words, size_t count)
{
    uint64_t hash = 1469598103934665603ULL;
    for (size_t i = 0; i < count; ++i) {
        hash ^= static_cast<uint64_t>(words[i]);
        hash *= 1099511628211ULL;
    }
    return static_cast<size_t>(hash);
}

/** Hash functor for std::vector<int64_t> map keys. */
struct Int64VectorHash
{
    size_t
    operator()(const std::vector<int64_t> &words) const
    {
        return hashInt64Words(words.data(), words.size());
    }
};

} // namespace util
} // namespace mclp

#endif // MCLP_UTIL_HASH_H
