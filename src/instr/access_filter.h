// The runtime half of the ATOM instrumentation (§4): the analysis routine
// that every instrumented load/store calls. It decides — by comparing the
// access address against the shared data segment bounds — whether the access
// touches shared memory; the caller then sets the per-interval access bitmap
// bit for the access's page/word. Page sizes are powers of two, so the
// page/word split is a shift and a mask.
//
// The simulated process address space places the shared segment and private
// (but not statically provable private) data at disjoint ranges, so the
// check is the same bounds comparison the paper performs.
#ifndef CVM_INSTR_ACCESS_FILTER_H_
#define CVM_INSTR_ACCESS_FILTER_H_

#include <bit>
#include <cstdint>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/instr/counters.h"

namespace cvm {

// Simulated virtual-address layout.
inline constexpr uint64_t kSharedSegmentBase = 0x4000'0000ull;
inline constexpr uint64_t kPrivateHeapBase = 0x8000'0000'0000ull;

inline constexpr uint64_t SharedVa(GlobalAddr addr) { return kSharedSegmentBase + addr; }

class AccessFilter {
 public:
  AccessFilter(uint64_t page_size, uint64_t shared_bytes)
      : page_shift_(static_cast<uint32_t>(std::countr_zero(page_size))),
        page_mask_(page_size - 1),
        shared_limit_(kSharedSegmentBase + shared_bytes) {
    CVM_CHECK(std::has_single_bit(page_size))
        << "page size " << page_size << " must be a power of two";
  }

  // Where a shared access lands: its page and its word within the page.
  struct Location {
    PageId page = -1;
    uint32_t word = 0;
  };

  // The analysis routine body: the bounds check. True iff `va` lies in the
  // shared segment. Counters record the call either way (the majority of
  // runtime calls are for private data — §5.1).
  bool OnAccess(uint64_t va, bool is_write) {
    ++counters_.instrumented_calls;
    if (va < kSharedSegmentBase || va >= shared_limit_) {
      ++counters_.private_accesses;
      return false;
    }
    ++counters_.shared_accesses;
    if (is_write) {
      ++counters_.shared_writes;
    } else {
      ++counters_.shared_reads;
    }
    return true;
  }

  // Page/word of a shared-segment offset: a shift and a mask. Apart from
  // OnAccess so that every shared access, instrumented or not, splits its
  // address exactly once.
  Location Locate(GlobalAddr offset) const {
    return Location{static_cast<PageId>(offset >> page_shift_), WordInPage(offset & page_mask_)};
  }

  const AccessCounters& counters() const { return counters_; }
  void ResetCounters() { counters_ = AccessCounters{}; }

 private:
  uint32_t page_shift_;
  uint64_t page_mask_;
  uint64_t shared_limit_;
  AccessCounters counters_;
};

}  // namespace cvm

#endif  // CVM_INSTR_ACCESS_FILTER_H_
