// Barrier engine, extracted from the node monolith: barrier arrival/release
// bookkeeping (master = node 0 collects arrivals, merges interval logs,
// releases workers) and the orchestration of the barrier-time race-detection
// pipeline in both modes — the paper's serial master round (BitmapRequest /
// BitmapReply) and the distributed compare (CompareRequest / BitmapShip /
// CompareReply). One BarrierCoordinator per node; master-side state is only
// exercised on node 0.
#ifndef CVM_DSM_BARRIER_COORDINATOR_H_
#define CVM_DSM_BARRIER_COORDINATOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/bitmap.h"
#include "src/common/types.h"
#include "src/mem/page_table.h"
#include "src/net/dispatch.h"
#include "src/net/message.h"
#include "src/obs/metrics.h"
#include "src/protocol/interval.h"
#include "src/race/detector.h"
#include "src/vc/vector_clock.h"

namespace cvm {

class Node;

// Detection-pipeline accounting for one run, collected on the barrier master
// (node 0): how much of the check ran off-master and what the compressed
// bitmap wire format saved. The ablation bench reports these side by side
// for serial vs distributed.
struct PipelineStats {
  uint64_t detect_epochs = 0;          // Epochs with a non-empty check list.
  double detect_ns = 0;                // Master sim time inside the barrier check.
  uint64_t bitmap_bytes_raw = 0;       // Bitmap-round payloads at legacy raw size.
  uint64_t bitmap_bytes_wire = 0;      // Actual bytes (== raw in the serial round).
  uint64_t remote_pairs_compared = 0;  // Bitmap pairs compared off-master.
  uint64_t remote_reports = 0;         // Race reports shipped back by peers.
};

// Hit/miss accounting for the bitmap-interning cache of the distributed
// pipeline's BitmapShip round: a hit replaces a full bitmap shipment with a
// 'same as before' token; an invalidation is a re-shipment because the
// page's bitmap changed since the cached epoch (page redirtied differently).
// An unchanged bitmap whose compressed encoding is smaller than the token
// ships that encoding and counts as neither.
struct InternStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;
  uint64_t bytes_saved = 0;  // Compressed size minus token size, over hits.
};

class BarrierCoordinator {
 public:
  explicit BarrierCoordinator(Node& node);

  BarrierCoordinator(const BarrierCoordinator&) = delete;
  BarrierCoordinator& operator=(const BarrierCoordinator&) = delete;

  // Registers barrier and detection-round handlers (service thread).
  void RegisterHandlers(MessageDispatcher& dispatcher);

  // Resolves the coordinator's metric handles; called from the node's
  // observability init (no-op when metrics are disabled or compiled out).
  void InitObservability(obs::MetricsRegistry* metrics);

  // The barrier body, called by the app thread with the node mutex held and
  // the in-barrier interval already published. Master path: wait for every
  // arrival, merge logs, run the detection pipeline, release workers.
  // Worker path: send the arrival, wait for the release, apply its records.
  void RunBarrier(std::unique_lock<std::mutex>& lk, EpochId epoch);

  // Meaningful on node 0 only (the barrier master runs the pipeline).
  const PipelineStats& pipeline_stats() const { return pipeline_stats_; }

  // This node's sender-side interning accounting (zeros under the serial
  // pipeline; every node that ships bitmaps contributes).
  const InternStats& intern_stats() const { return intern_stats_; }

  // The page interest a node's tree arrival lists (one bit per page): every
  // page `pages` has ever cached, plus every page homed at `self`. Equal to
  // a scan of the whole page table for pages that are home, valid, or hold
  // data, without the scan.
  static Bitmap TreeInterest(const PageTable& pages, NodeId self, int num_nodes);

 private:
  void MasterRunBarrier(std::unique_lock<std::mutex>& lk, EpochId epoch);
  void RunRaceDetection(std::unique_lock<std::mutex>& lk, EpochId epoch,
                        const std::vector<IntervalRecord>& epoch_intervals);

  // ---- Hierarchical (k-ary combine tree) barrier (--barrier-tree) ----
  // The node's barrier body in tree mode: wait for the child subtrees, merge
  // their logs / clocks / check-list fragments, build the pairs whose LCA is
  // this node, then either forward the combined arrival up (interior/leaf)
  // or run detection and start the release wave (root).
  void TreeRunBarrier(std::unique_lock<std::mutex>& lk, EpochId epoch);
  // Sends each child subtree its tailored release: records unseen by the
  // subtree's min VC whose write notices intersect the subtree's page
  // interest, read notices stripped (node mutex held, log not yet GC'd).
  void SendTreeReleasesLocked(EpochId epoch, const std::vector<NodeId>& children);

  // This epoch's records only — the input of a tree node's claimed-pair
  // build.
  std::vector<IntervalRecord> CurrentEpochRecords(EpochId epoch) const;
  // Shared detection tail for the flat and tree masters: computes the bitmap
  // entries the pairs need, then runs the pipeline's compare round.
  void DispatchDetection(std::unique_lock<std::mutex>& lk, EpochId epoch,
                         const std::vector<CheckPair>& pairs);
  // kSerial step 4 + 5: one raw bitmap-retrieval round over `needed`, then
  // the word compares on the master.
  void CompareSerial(std::unique_lock<std::mutex>& lk, EpochId epoch,
                     const std::vector<CheckPair>& pairs,
                     const std::vector<std::pair<IntervalId, PageId>>& needed);

  // ---- Bitmap interning (BitmapShip only) ----
  // Encodes one side of a ship entry through the per-destination cache:
  // returns a kInterned token when `dest` already holds identical content
  // and the token is no larger than the compressed encoding, that encoding
  // otherwise (cache-updating when the content changed).
  EncodedBitmap EncodeInterned(NodeId dest, PageId page, bool is_write, const Bitmap& bitmap);
  // Inverse: resolves kInterned tokens against the mirror of what `src`
  // last sent us and keeps the mirror current on full shipments.
  Bitmap DecodeInterned(NodeId src, PageId page, bool is_write, const EncodedBitmap& encoded);

  // kDistributed step 5: partition the check pairs over their member nodes,
  // orchestrate the ship/compare/reply round, merge remote reports back into
  // serial order. Returns the merged, ordered reports.
  std::vector<RaceReport> RunDistributedCompare(std::unique_lock<std::mutex>& lk, EpochId epoch,
                                                const std::vector<CheckPair>& pairs,
                                                size_t checklist_entries);
  // Emits reports (addr/symbol resolution + trace) and hands them to the
  // system. Shared tail of both pipelines.
  void PublishReports(std::vector<RaceReport> reports);
  // Constituent side of the distributed compare: runs once this node has the
  // master's CompareRequest AND all expected inbound ships for `epoch`.
  void TryFinishRemoteCompare(EpochId epoch);

  void OnBarrierArrive(const Message& msg);
  void OnBarrierRelease(const Message& msg);
  void OnTreeArrive(const Message& msg);
  void OnTreeRelease(const Message& msg);
  void OnBitmapRequest(const Message& msg);
  void OnBitmapReply(const Message& msg);
  void OnCompareRequest(const Message& msg);
  void OnBitmapShip(const Message& msg);
  void OnCompareReply(const Message& msg);

  Node& node_;

  // Worker-side release slot.
  std::optional<Received<BarrierReleaseMsg>> barrier_release_;

  // ---- Combine-tree state ----
  std::map<EpochId, std::map<NodeId, Received<BarrierTreeArriveMsg>>> tree_arrivals_;
  // Non-root release slot (parent -> this subtree).
  std::optional<Received<BarrierTreeReleaseMsg>> tree_release_;
  // Per-child release-tailoring state for the barrier in flight: the child
  // subtree's min VC and page-interest set, captured from its arrival.
  struct TreeChildState {
    VectorClock min_vc;
    Bitmap interest;
  };
  std::map<NodeId, TreeChildState> tree_child_state_;

  // Dense-probe scratch for this node's claimed-pair builds (tree mode);
  // interior nodes build concurrently, so the shared detector's arenas are
  // off limits here.
  OverlapScratch tree_scratch_;

  // ---- Interning caches ----
  // Sender side: what each destination currently holds for (page, is_write),
  // with a generation stamp bumped on every content change. Receiver side:
  // the mirror of what each source last sent. Both sides process entries in
  // message order, so the caches stay in lock-step.
  struct InternSlot {
    Bitmap content;
    uint32_t generation = 0;
  };
  using InternKey = std::tuple<NodeId, PageId, bool>;
  std::map<InternKey, InternSlot> intern_out_;
  std::map<InternKey, InternSlot> intern_in_;
  InternStats intern_stats_;

  // Barrier master state.
  std::map<EpochId, std::map<NodeId, Received<BarrierArriveMsg>>> arrivals_;

  // Master-side bitmap collection for the current detection round.
  std::map<std::pair<IntervalId, PageId>, PageAccessBitmaps> collected_bitmaps_;
  int bitmap_replies_pending_ = 0;
  uint64_t bitmap_round_bytes_ = 0;

  // Master-side state for the distributed compare round (kDistributed).
  struct CompareReplyInfo {
    CompareReplyMsg msg;
    size_t wire_bytes = 0;
  };
  std::vector<CompareReplyInfo> compare_replies_;
  int compare_replies_pending_ = 0;
  int master_ships_pending_ = 0;          // BitmapShipMsg rounds inbound to master.
  double master_ship_target_ns_ = 0;      // Latest modeled ship-arrival time.
  uint64_t master_ship_bytes_wire_ = 0;
  uint64_t master_ship_bytes_raw_ = 0;

  // Constituent-node state for the distributed compare, keyed by epoch:
  // ships can arrive before the master's CompareRequest (sources race each
  // other), so both handlers funnel into TryFinishRemoteCompare.
  struct RemoteCompareState {
    bool have_request = false;
    CompareRequestMsg request;
    uint32_t ships_received = 0;
    std::map<std::pair<IntervalId, PageId>, PageAccessBitmaps> shipped;
    uint64_t ship_bytes_wire = 0;  // Entry bytes this node shipped out.
    uint64_t ship_bytes_raw = 0;
  };
  std::map<EpochId, RemoteCompareState> remote_compare_;

  PipelineStats pipeline_stats_;  // Node 0 only.

  // Detection metric handles (null when metrics are disabled; the whole
  // block is dead code under -DCVM_OBS=OFF).
  struct MetricHandles {
    obs::Counter* check_pairs = nullptr;
    obs::Counter* checklist_entries = nullptr;
    obs::Counter* bitmap_pairs_compared = nullptr;
    obs::Counter* races_reported = nullptr;
    obs::Counter* bitmap_bytes_raw = nullptr;
    obs::Counter* bitmap_bytes_wire = nullptr;
    obs::Counter* bitmap_bytes_saved = nullptr;
    obs::Counter* remote_pairs = nullptr;
    obs::Counter* remote_reports = nullptr;
    obs::Counter* tree_up_bytes = nullptr;
    obs::Counter* tree_down_bytes = nullptr;
    obs::Counter* tree_fragments = nullptr;
    obs::Counter* tree_height = nullptr;
    obs::Counter* intern_hits = nullptr;
    obs::Counter* intern_misses = nullptr;
    obs::Counter* intern_invalidations = nullptr;
  };
  MetricHandles mh_;
  bool have_metrics_ = false;
};

}  // namespace cvm

#endif  // CVM_DSM_BARRIER_COORDINATOR_H_
