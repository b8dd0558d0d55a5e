// Hashing for the model checker's visited-state sets, where states are flat
// vectors of 32-bit words. HashWords is the hot path (called once per stored
// state) and mixes a 64-bit lane at a time, xxhash/wyhash-style; its parts
// let a caller resume the chain after an unchanged prefix. HashWordsWide runs
// the same round on four lanes at once for in-memory placement only.
// HashBytes keeps the byte-at-a-time FNV-1a for odd-sized callers.

#ifndef SRC_SUPPORT_HASH_H_
#define SRC_SUPPORT_HASH_H_

#include <cstdint>
#include <span>

namespace efeu {

inline constexpr uint64_t kHashSeed = 0xcbf29ce484222325ull;

inline uint64_t HashBytes(const void* data, size_t size, uint64_t seed = kHashSeed) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint64_t hash = seed;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// Finalizer with full avalanche (the 64-bit murmur3/splitmix mix): every
// input bit flips each output bit with probability ~1/2.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

// One multiply-xor-rotate round over a 64-bit lane (two 32-bit state words).
inline uint64_t HashRound(uint64_t hash, uint64_t lane) {
  hash = (hash ^ lane) * 0xd6e8feb86659fd93ull;
  return (hash << 27) | (hash >> 37);
}

// The lane of words[0] (low half) and words[1] (high half).
inline uint64_t HashLane(const int32_t* words) {
  return static_cast<uint64_t>(static_cast<uint32_t>(words[0])) |
         (static_cast<uint64_t>(static_cast<uint32_t>(words[1])) << 32);
}

// HashWords in three parts, so a caller that knows a prefix of the words is
// unchanged can resume the chain after it (StateCodec::FullStateHash):
// start with the total word count, feed the lanes in order from any even
// split, and finish with the odd last word, if any.
inline uint64_t HashWordsStart(size_t size, uint64_t seed = kHashSeed) {
  return seed ^ (static_cast<uint64_t>(size) * 0x9e3779b97f4a7c15ull);
}

// Feeds words[0, 2k) as k lanes; words.size() must be even.
inline uint64_t HashWordsLanes(uint64_t hash, std::span<const int32_t> words) {
  for (size_t i = 0; i + 2 <= words.size(); i += 2) {
    hash = HashRound(hash, HashLane(&words[i]));
  }
  return hash;
}

// `tail` is the odd last word, or empty.
inline uint64_t HashWordsFinish(uint64_t hash, std::span<const int32_t> tail) {
  if (!tail.empty()) {
    hash = (hash ^ static_cast<uint32_t>(tail[0])) * 0xd6e8feb86659fd93ull;
  }
  return Mix64(hash);
}

// Word-at-a-time state fingerprint: consumes two 32-bit state words per
// multiply-xor-rotate round instead of FNV's one-multiply-per-byte, then runs
// the final avalanche mix. Roughly 8x fewer multiplies per state than the
// byte-at-a-time loop on the visited-set hot path.
inline uint64_t HashWords(std::span<const int32_t> words, uint64_t seed = kHashSeed) {
  const size_t even = words.size() & ~size_t{1};
  return HashWordsFinish(HashWordsLanes(HashWordsStart(words.size(), seed), words.first(even)),
                         words.subspan(even));
}

// The same round over four independent accumulators, so four multiplies are
// in flight instead of one chained one. For indexes that only place entries
// and compare the words exactly (CollapseTable): its values differ from
// HashWords's, so nothing may store or sample them.
inline uint64_t HashWordsWide(std::span<const int32_t> words) {
  const size_t size = words.size();
  uint64_t h0 = HashWordsStart(size);
  uint64_t h1 = h0 ^ 0x9e3779b97f4a7c15ull;
  uint64_t h2 = h0 ^ 0xbf58476d1ce4e5b9ull;
  uint64_t h3 = h0 ^ 0x94d049bb133111ebull;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    h0 = HashRound(h0, HashLane(&words[i]));
    h1 = HashRound(h1, HashLane(&words[i + 2]));
    h2 = HashRound(h2, HashLane(&words[i + 4]));
    h3 = HashRound(h3, HashLane(&words[i + 6]));
  }
  for (; i + 2 <= size; i += 2) {
    h0 = HashRound(h0, HashLane(&words[i]));
  }
  if (i < size) {
    h1 = HashRound(h1, static_cast<uint32_t>(words[i]));
  }
  return Mix64(HashRound(HashRound(HashRound(h0, h1), h2), h3));
}

}  // namespace efeu

#endif  // SRC_SUPPORT_HASH_H_
