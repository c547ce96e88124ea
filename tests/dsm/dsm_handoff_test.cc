// Liveness of the app thread's hold on the node mutex (src/dsm/node.h,
// "Lock discipline"). The app thread keeps the mutex while it runs app
// code and hands it to the service thread only at a DSM call, so a node
// whose app thread never blocks must still serve its peers between two of
// its accesses.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/dsm/dsm.h"
#include "src/dsm/handles.h"

namespace cvm {
namespace {

constexpr uint64_t kPageSize = 1024;
constexpr size_t kWordsPerPage = kPageSize / kWordSize;
constexpr int kNodes = 2;
constexpr LockId kLock = 0;  // Managed by node 0 (lock % nodes), so its token starts there.

class HandoffTest : public ::testing::TestWithParam<ProtocolKind> {};

// Node 0 loops on accesses to a page it owns and never blocks. Meanwhile
// node 1 faults on a page homed at node 0 and then takes a lock whose token
// starts at node 0. Node 0's service thread must answer both while node 0's
// app thread is still looping; host-side flags record that it did.
TEST_P(HandoffTest, PeerIsServedWhileOwnerLoopsOnAccesses) {
  DsmOptions options;
  options.num_nodes = kNodes;
  options.page_size = kPageSize;
  options.protocol = GetParam();
  DsmSystem system(options);
  auto data = SharedArray<int32_t>::Alloc(system, "data", 4 * kWordsPerPage);
  // Two distinct pages homed at node 0 (page % nodes == 0): node 0 loops on
  // the first, node 1 faults on the second.
  std::vector<size_t> home0;
  for (size_t word = 0; word < data.size(); word += kWordsPerPage) {
    if ((data.addr(word) / kPageSize) % kNodes == 0) {
      home0.push_back(word);
    }
  }
  ASSERT_GE(home0.size(), 2u);
  const size_t loop_base = home0[0];
  const size_t fault_word = home0[1];

  std::atomic<bool> looping{false};
  std::atomic<bool> peer_done{false};
  std::atomic<bool> served_while_looping{false};
  std::atomic<bool> timed_out{false};
  std::atomic<uint64_t> peer_faults{0};
  std::atomic<uint64_t> loop_accesses{0};

  system.Run([&](NodeContext& ctx) {
    if (ctx.id() == 0) {
      data.Set(ctx, loop_base, 1);  // Owned and writable from here on.
      looping.store(true);
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
      uint64_t i = 0;
      while (!peer_done.load()) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out.store(true);  // Node 1 starved: fail instead of hanging.
          break;
        }
        const size_t word = loop_base + i % kWordsPerPage;
        data.Set(ctx, word, data.Get(ctx, word) + 1);
        ++i;
      }
      loop_accesses.store(2 * i);
      looping.store(false);
      return;
    }
    while (!looping.load()) {
      std::this_thread::yield();
    }
    (void)data.Get(ctx, fault_word);  // Fetched through node 0, the page's home.
    peer_faults.store(ctx.page_faults());
    ctx.Lock(kLock);  // Granted by node 0, which holds the token.
    ctx.Unlock(kLock);
    served_while_looping.store(looping.load());
    peer_done.store(true);
  });

  EXPECT_FALSE(timed_out.load()) << "node 1 was not served within 60 s";
  EXPECT_TRUE(served_while_looping.load());
  EXPECT_GE(peer_faults.load(), 1u);
  EXPECT_GT(loop_accesses.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, HandoffTest,
                         ::testing::Values(ProtocolKind::kSingleWriterLrc,
                                           ProtocolKind::kMultiWriterHomeLrc,
                                           ProtocolKind::kEagerRcInvalidate),
                         [](const ::testing::TestParamInfo<ProtocolKind>& param_info) {
                           return ProtocolKindName(param_info.param);
                         });

// A node's API belongs to its app thread: once that thread holds the node
// mutex, a call from any other thread is a fatal misuse, not a deadlock.
TEST(HandoffDeathTest, ApiCallOffTheAppThreadAborts) {
  EXPECT_DEATH(
      {
        DsmOptions options;
        options.num_nodes = 1;
        DsmSystem system(options);
        system.Run([](NodeContext& ctx) {
          ctx.Compute(1);  // Takes the app thread's hold.
          std::thread other([&ctx] { ctx.Compute(1); });
          other.join();
        });
      },
      "off its app thread");
}

}  // namespace
}  // namespace cvm
