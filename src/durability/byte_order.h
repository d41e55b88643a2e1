// Internal: the little-endian integer encoding shared by the WAL and snapshot
// formats (wal.cc, snapshot.cc). Every field is written byte by byte, so the
// on-disk layout does not depend on the host's byte order.
#ifndef WH_SRC_DURABILITY_BYTE_ORDER_H_
#define WH_SRC_DURABILITY_BYTE_ORDER_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace wh::durability {

inline void PutU32(std::string* b, uint32_t v) {
  b->push_back(static_cast<char>(v & 0xff));
  b->push_back(static_cast<char>((v >> 8) & 0xff));
  b->push_back(static_cast<char>((v >> 16) & 0xff));
  b->push_back(static_cast<char>((v >> 24) & 0xff));
}

inline void PutU64(std::string* b, uint64_t v) {
  PutU32(b, static_cast<uint32_t>(v & 0xffffffffu));
  PutU32(b, static_cast<uint32_t>(v >> 32));
}

// Overwrites the 4 bytes at b[pos] (a field reserved by an earlier PutU32).
inline void PatchU32(std::string* b, size_t pos, uint32_t v) {
  (*b)[pos] = static_cast<char>(v & 0xff);
  (*b)[pos + 1] = static_cast<char>((v >> 8) & 0xff);
  (*b)[pos + 2] = static_cast<char>((v >> 16) & 0xff);
  (*b)[pos + 3] = static_cast<char>((v >> 24) & 0xff);
}

inline uint32_t GetU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

inline uint64_t GetU64(const char* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

}  // namespace wh::durability

#endif  // WH_SRC_DURABILITY_BYTE_ORDER_H_
