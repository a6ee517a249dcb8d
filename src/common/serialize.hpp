// Minimal binary serialization helpers used by the checkpointing support
// (src/rcs/checkpoint.hpp). Little-endian, host-format PODs with explicit
// sizes; every reader checks the stream and fails loudly.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.hpp"

namespace refit::ser {

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
  REFIT_CHECK_MSG(os.good(), "serialization write failed");
}

template <typename T>
T read_pod(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  REFIT_CHECK_MSG(is.good(), "serialization read failed");
  return v;
}

template <typename T>
void write_vec(std::ostream& os, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod<std::uint64_t>(os, v.size());
  if (!v.empty()) {
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
    REFIT_CHECK_MSG(os.good(), "serialization write failed");
  }
}

template <typename T>
std::vector<T> read_vec(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto n = read_pod<std::uint64_t>(is);
  // Bound n by the bytes the stream still holds, before allocating: a
  // corrupt length must throw here rather than overflow n·sizeof(T) or ask
  // for more memory than the stream can fill.
  const std::streampos here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streampos end = is.tellg();
  is.seekg(here);
  REFIT_CHECK_MSG(here != std::streampos(-1) && end != std::streampos(-1) &&
                      is.good(),
                  "serialization read needs a seekable stream");
  const auto left = static_cast<std::uint64_t>(end - here);
  REFIT_CHECK_MSG(n <= left / sizeof(T),
                  "serialized length " << n << " exceeds the " << left
                                       << " bytes left in the stream");
  std::vector<T> v(n);
  if (n > 0) {
    is.read(reinterpret_cast<char*>(v.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
    REFIT_CHECK_MSG(is.good(), "serialization read failed");
  }
  return v;
}

/// Write/check a 8-byte section tag — catches format drift early.
inline void write_tag(std::ostream& os, std::uint64_t tag) {
  write_pod(os, tag);
}
inline void expect_tag(std::istream& is, std::uint64_t tag) {
  const auto got = read_pod<std::uint64_t>(is);
  REFIT_CHECK_MSG(got == tag, "serialization tag mismatch: expected "
                                  << tag << ", got " << got);
}

}  // namespace refit::ser
