#include "broadcast/disk_config.h"

#include <numeric>

#include "common/string_util.h"

namespace bcast {

uint64_t DiskLayout::TotalPages() const {
  return std::accumulate(sizes.begin(), sizes.end(), uint64_t{0});
}

std::string DiskLayout::ToString() const {
  std::vector<std::string> size_strs;
  std::vector<std::string> freq_strs;
  size_strs.reserve(sizes.size());
  for (uint64_t s : sizes) size_strs.push_back(std::to_string(s));
  for (uint64_t f : rel_freqs) freq_strs.push_back(std::to_string(f));
  // Appended piecewise: `"<" + std::string` trips GCC 12's -Wrestrict
  // false positive at -O3.
  std::string out = "<";
  out += Join(size_strs, ",");
  out += ">@freqs{";
  out += Join(freq_strs, ",");
  out += "}";
  return out;
}

Status ValidateLayout(const DiskLayout& layout) {
  if (layout.sizes.empty()) {
    return Status::InvalidArgument("layout needs at least one disk");
  }
  if (layout.sizes.size() != layout.rel_freqs.size()) {
    return Status::InvalidArgument(
        "layout sizes and rel_freqs must have equal length");
  }
  for (uint64_t s : layout.sizes) {
    if (s == 0) return Status::InvalidArgument("disk sizes must be positive");
  }
  for (size_t i = 0; i < layout.rel_freqs.size(); ++i) {
    if (layout.rel_freqs[i] == 0) {
      return Status::InvalidArgument("relative frequencies must be positive");
    }
    if (i > 0 && layout.rel_freqs[i] > layout.rel_freqs[i - 1]) {
      return Status::InvalidArgument(
          "relative frequencies must be non-increasing (disk 0 is fastest)");
    }
  }
  return Status::OK();
}

Result<DiskLayout> MakeDeltaLayout(std::vector<uint64_t> sizes,
                                   uint64_t delta) {
  const uint64_t n = sizes.size();
  std::vector<uint64_t> freqs(n);
  for (uint64_t i = 0; i < n; ++i) {
    freqs[i] = (n - 1 - i) * delta + 1;
  }
  return MakeLayout(std::move(sizes), std::move(freqs));
}

Result<DiskLayout> MakeLayout(std::vector<uint64_t> sizes,
                              std::vector<uint64_t> rel_freqs) {
  DiskLayout layout{std::move(sizes), std::move(rel_freqs)};
  BCAST_RETURN_IF_ERROR(ValidateLayout(layout));
  return layout;
}

}  // namespace bcast
