#include "src/mem/page_table.h"

#include <cstring>

namespace cvm {

const char* PageStateName(PageState state) {
  switch (state) {
    case PageState::kInvalid:
      return "invalid";
    case PageState::kReadOnly:
      return "read-only";
    case PageState::kReadWrite:
      return "read-write";
  }
  return "?";
}

PageTable::PageTable(int num_pages, uint64_t page_size) : page_size_(page_size) {
  CVM_CHECK_GT(num_pages, 0);
  entries_.resize(num_pages);
}

void PageTable::PageOutOfRange(PageId page) const {
  CVM_CHECK(false) << "page " << page << " outside [0, " << num_pages() << ")";
}

uint32_t PageTable::ReadWord(PageId page, uint32_t word) const {
  const PageEntry& e = entry(page);
  CVM_CHECK(e.state != PageState::kInvalid) << "read of invalid page " << page;
  CVM_CHECK_EQ(e.data.size(), page_size_);
  CVM_CHECK_LT(static_cast<uint64_t>(word) * kWordSize, page_size_);
  uint32_t value;
  std::memcpy(&value, e.data.data() + word * kWordSize, kWordSize);
  return value;
}

void PageTable::WriteWord(PageId page, uint32_t word, uint32_t value) {
  PageEntry& e = entry(page);
  CVM_CHECK(e.state == PageState::kReadWrite) << "write to non-writable page " << page;
  CVM_CHECK_EQ(e.data.size(), page_size_);
  CVM_CHECK_LT(static_cast<uint64_t>(word) * kWordSize, page_size_);
  std::memcpy(e.data.data() + word * kWordSize, &value, kWordSize);
}

void PageTable::AttachObservability(obs::Tracer* tracer, NodeId node, obs::Counter* twins,
                                    obs::Counter* installs, obs::Counter* invalidations) {
  if constexpr (!obs::kObsCompiledIn) {
    return;
  }
  tracer_ = tracer;
  obs_node_ = node;
  twins_counter_ = twins;
  installs_counter_ = installs;
  invalidations_counter_ = invalidations;
}

void PageTable::Install(PageId page, std::vector<uint8_t> data, PageState state) {
  CVM_CHECK_EQ(data.size(), page_size_);
  PageEntry& e = entry(page);
  if (e.data.empty()) {
    cached_.push_back(page);
  }
  e.data = std::move(data);
  e.state = state;
  if constexpr (obs::kObsCompiledIn) {
    if (installs_counter_ != nullptr) {
      installs_counter_->Increment();
    }
  }
}

void PageTable::Invalidate(PageId page) {
  entry(page).state = PageState::kInvalid;
  if constexpr (obs::kObsCompiledIn) {
    if (invalidations_counter_ != nullptr) {
      invalidations_counter_->Increment();
    }
  }
}

void PageTable::MakeTwin(PageId page) {
  PageEntry& e = entry(page);
  CVM_CHECK(e.state != PageState::kInvalid);
  CVM_CHECK(!e.twin.has_value()) << "twin already exists for page " << page;
  e.twin = e.data;
  if constexpr (obs::kObsCompiledIn) {
    if (twins_counter_ != nullptr) {
      twins_counter_->Increment();
    }
    if (tracer_ != nullptr) {
      obs::TraceEvent event;
      event.name = "twin.create";
      event.cat = "mem";
      event.phase = 'i';
      event.node = obs_node_;
      event.arg_name = "page";
      event.arg_value = static_cast<uint64_t>(page);
      tracer_->Emit(event);
    }
  }
}

}  // namespace cvm
