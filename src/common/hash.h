/**
 * @file
 * Shared hash utilities for content-keyed caches. One definition of
 * the mixing recipe so every subsystem's keys (operator work hashes,
 * run setups, gating params, cache keys) stay consistent.
 */

#ifndef REGATE_COMMON_HASH_H
#define REGATE_COMMON_HASH_H

#include <cstddef>
#include <cstdint>
#include <functional>

namespace regate {

/**
 * 64-bit FNV-1a over a byte range: a hash whose value is fixed across
 * processes and platforms, unlike std::hash, whose value is
 * unspecified.
 */
inline std::uint64_t
fnv1a64(const void *data, std::size_t len)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** boost::hash_combine-style mixing. */
inline void
hashCombine(std::size_t &seed, std::size_t v)
{
    seed ^= v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
}

/** Combine a value's std::hash into @p seed. */
template <typename T>
inline void
hashField(std::size_t &seed, const T &v)
{
    hashCombine(seed, std::hash<T>{}(v));
}

}  // namespace regate

#endif  // REGATE_COMMON_HASH_H
