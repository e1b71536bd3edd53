#include "shuffle/shuffle.h"

namespace horam::shuffle {

bool is_permutation(const permutation& pi) {
  std::vector<bool> seen(pi.size(), false);
  for (const std::uint64_t target : pi) {
    if (target >= pi.size() || seen[target]) {
      return false;
    }
    seen[target] = true;
  }
  return true;
}

}  // namespace horam::shuffle
