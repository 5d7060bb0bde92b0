#ifndef PQE_UTIL_STR_CAT_H_
#define PQE_UTIL_STR_CAT_H_

#include <string>
#include <string_view>
#include <type_traits>

namespace pqe {

namespace internal {

inline void AppendPiece(std::string* out, std::string_view piece) {
  out->append(piece);
}

template <typename T,
          typename = std::enable_if_t<std::is_integral_v<T> &&
                                      !std::is_same_v<T, bool> &&
                                      !std::is_same_v<T, char>>>
void AppendPiece(std::string* out, T value) {
  out->append(std::to_string(value));
}

}  // namespace internal

/// Concatenates strings and integers by appending left to right, e.g.
/// StrCat("R", i, "_", d). Prefer it to `"R" + std::to_string(i)`: that
/// operator+ inserts the literal in front of the temporary, which GCC 12's
/// -Wrestrict misreads as an overlapping memcpy at -O3 (a false positive
/// that breaks Release -Werror builds).
template <typename... Pieces>
std::string StrCat(const Pieces&... pieces) {
  std::string out;
  (internal::AppendPiece(&out, pieces), ...);
  return out;
}

}  // namespace pqe

#endif  // PQE_UTIL_STR_CAT_H_
