// Per-node view of the shared segment: one PageEntry per page, holding the
// node's private copy (if any), its protection state, the single-writer
// ownership hint, and the multi-writer twin.
#ifndef CVM_MEM_PAGE_TABLE_H_
#define CVM_MEM_PAGE_TABLE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"

namespace cvm {

// Protection state of a node's copy of one page. Transitions mirror the
// page-fault behaviour of a mprotect-based DSM:
//   kInvalid -> (read fault, fetch) -> kReadOnly -> (write fault) -> kReadWrite
// and write notices received at acquires knock pages back to kInvalid.
enum class PageState : uint8_t {
  kInvalid,    // No usable copy; any access faults.
  kReadOnly,   // Valid copy; writes fault.
  kReadWrite,  // Valid, locally writable copy.
};

const char* PageStateName(PageState state);

struct PageEntry {
  PageState state = PageState::kInvalid;
  std::vector<uint8_t> data;            // Empty until first fetched.
  NodeId probable_owner = kNoNode;      // Single-writer ownership hint.
  std::optional<std::vector<uint8_t>> twin;  // Multi-writer twin, if write-faulted.
};

class PageTable {
 public:
  PageTable(int num_pages, uint64_t page_size);

  int num_pages() const { return static_cast<int>(entries_.size()); }
  uint64_t page_size() const { return page_size_; }

  // Optional observability sinks (any may be null, all owned by the caller):
  // twin creation emits a trace instant, installs/invalidations bump the
  // counters. Compiled to nothing under -DCVM_OBS=OFF.
  void AttachObservability(obs::Tracer* tracer, NodeId node, obs::Counter* twins,
                           obs::Counter* installs, obs::Counter* invalidations);

  PageEntry& entry(PageId page) {
    CheckPage(page);
    return entries_[page];
  }
  const PageEntry& entry(PageId page) const {
    CheckPage(page);
    return entries_[page];
  }

  bool Readable(PageId page) const { return entry(page).state != PageState::kInvalid; }
  bool Writable(PageId page) const { return entry(page).state == PageState::kReadWrite; }

  // Reads/writes one aligned word of the node's copy. The page must be in a
  // state permitting the access (the caller handles faults first).
  uint32_t ReadWord(PageId page, uint32_t word) const;
  void WriteWord(PageId page, uint32_t word, uint32_t value);

  // Installs fetched contents and sets the state.
  void Install(PageId page, std::vector<uint8_t> data, PageState state);

  // Every page this table has ever held data for, in first-install order.
  // Data is never dropped (invalidation keeps the stale copy), so the list
  // only grows, and a page is in it exactly when its entry's data is
  // non-empty.
  const std::vector<PageId>& cached_pages() const { return cached_; }

  // Invalidate per an incoming write notice. Keeps the (stale) data so tests
  // can observe weak-memory staleness, but faults will refetch.
  void Invalidate(PageId page);

  // Multi-writer helpers.
  void MakeTwin(PageId page);
  void DropTwin(PageId page) { entry(page).twin.reset(); }

 private:
  // The range check behind entry(). Its failure report is out of line so
  // that entry() stays two compares, small enough to inline into every
  // shared access.
  void CheckPage(PageId page) const {
    if (page < 0 || page >= num_pages()) {
      PageOutOfRange(page);
    }
  }
  [[noreturn]] void PageOutOfRange(PageId page) const;

  uint64_t page_size_;
  std::vector<PageEntry> entries_;
  std::vector<PageId> cached_;

  obs::Tracer* tracer_ = nullptr;
  NodeId obs_node_ = 0;
  obs::Counter* twins_counter_ = nullptr;
  obs::Counter* installs_counter_ = nullptr;
  obs::Counter* invalidations_counter_ = nullptr;
};

}  // namespace cvm

#endif  // CVM_MEM_PAGE_TABLE_H_
