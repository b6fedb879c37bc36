#ifndef ZEROBAK_COMMON_CODING_H_
#define ZEROBAK_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace zerobak {

// Little-endian fixed-width and length-prefixed encodings used by the WAL,
// journal records, page formats and checkpoint images. All decoders take a
// string_view cursor and return false on underflow instead of reading past
// the end.

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

inline void EncodeFixed32(char* dst, uint32_t v) { std::memcpy(dst, &v, 4); }
inline void EncodeFixed64(char* dst, uint64_t v) { std::memcpy(dst, &v, 8); }

inline uint32_t DecodeFixed32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t DecodeFixed64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline bool GetFixed32(std::string_view* in, uint32_t* v) {
  if (in->size() < 4) return false;
  *v = DecodeFixed32(in->data());
  in->remove_prefix(4);
  return true;
}

inline bool GetFixed64(std::string_view* in, uint64_t* v) {
  if (in->size() < 8) return false;
  *v = DecodeFixed64(in->data());
  in->remove_prefix(8);
  return true;
}

// LEB128 varints, used where values are usually small (wire-format record
// headers, compressed-block sizes). 7 bits per byte, high bit = continue.

// Writes `v` at `dst`, which must have room for 10 bytes, and returns the
// end of what it wrote.
inline char* EncodeVarint64(char* dst, uint64_t v) {
  while (v >= 0x80) {
    *dst++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *dst++ = static_cast<char>(v);
  return dst;
}

inline void PutVarint64(std::string* dst, uint64_t v) {
  char buf[10];
  dst->append(buf, EncodeVarint64(buf, v) - buf);
}

inline void PutVarint32(std::string* dst, uint32_t v) {
  PutVarint64(dst, v);
}

inline bool GetVarint64(std::string_view* in, uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && !in->empty(); shift += 7) {
    const uint8_t byte = static_cast<uint8_t>(in->front());
    in->remove_prefix(1);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
  }
  return false;  // Underflow or more than 10 continuation bytes.
}

inline bool GetVarint32(std::string_view* in, uint32_t* v) {
  uint64_t wide;
  if (!GetVarint64(in, &wide) || wide > UINT32_MAX) return false;
  *v = static_cast<uint32_t>(wide);
  return true;
}

inline int VarintLength(uint64_t v) {
  int n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

// Length-prefixed string: fixed32 length followed by the bytes.
inline void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutFixed32(dst, static_cast<uint32_t>(value.size()));
  dst->append(value.data(), value.size());
}

inline bool GetLengthPrefixed(std::string_view* in, std::string_view* value) {
  uint32_t len;
  if (!GetFixed32(in, &len)) return false;
  if (in->size() < len) return false;
  *value = in->substr(0, len);
  in->remove_prefix(len);
  return true;
}

inline bool GetLengthPrefixed(std::string_view* in, std::string* value) {
  std::string_view sv;
  if (!GetLengthPrefixed(in, &sv)) return false;
  value->assign(sv.data(), sv.size());
  return true;
}

}  // namespace zerobak

#endif  // ZEROBAK_COMMON_CODING_H_
