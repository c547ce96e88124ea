// The coherence-protocol strategy layer. A CoherenceProtocol owns every
// protocol-specific decision the node used to branch on: page-fault handling,
// interval-end actions (diff flushing vs page downgrade vs eager pushes),
// write-notice application at acquires, and the protocol's share of the
// message vocabulary (page traffic, diff flushes, ERC updates). The node
// core talks to the protocol only through this interface; the protocol talks
// back through ProtocolHost, the narrow view of node state it is allowed to
// touch.
//
// Threading contract: everything here runs under the host's mutex. Methods
// taking a `Lk&` run on the app thread, which holds the mutex through that
// lock, and may block through ProtocolHost::Wait (page fetches, flush/ack
// rounds); all others must not block. Message handlers (registered
// via RegisterHandlers) run on the node's service thread and acquire the
// host mutex themselves through NodeMutex::lock(), which asks the app thread
// to hand it over at its next DSM call; they never block on the network —
// the property that keeps the node graph deadlock-free.
#ifndef CVM_PROTOCOL_COHERENCE_H_
#define CVM_PROTOCOL_COHERENCE_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "src/common/node_mutex.h"
#include "src/common/types.h"
#include "src/mem/diff.h"
#include "src/mem/page_table.h"
#include "src/net/dispatch.h"
#include "src/net/message.h"
#include "src/obs/tracer.h"
#include "src/protocol/interval.h"
#include "src/protocol/protocol_kind.h"
#include "src/sim/cost_model.h"

namespace cvm {

// The slice of node state and services a coherence protocol may use. The
// node implements this; keeping it an interface (rather than handing the
// protocol the whole Node) is what makes the protocol layer independently
// testable and keeps src/protocol/ free of src/dsm/ includes.
class ProtocolHost {
 public:
  virtual ~ProtocolHost() = default;

  virtual NodeId self() const = 0;
  virtual int num_nodes() const = 0;
  virtual uint64_t page_size() const = 0;
  virtual const CostParams& costs() const = 0;
  virtual WriteDetection write_detection() const = 0;

  // Node-wide lock and its condition variable. Handlers filling reply slots
  // notify the cv; blocking protocol operations (fetches, flush rounds) park
  // on it through Wait() only.
  virtual NodeMutex& mu() = 0;
  virtual std::condition_variable& cv() = 0;

  // The one blocking wait (app thread, mu() held through `lk`). Returns as
  // soon as pred() holds, even when the run has been aborted meanwhile: the
  // awaited event wins, and the abort surfaces at the next wait or DSM call.
  // Throws RunAbortError (src/common/abort.h) only when the run is aborted
  // and pred() is false. While a crash plan is armed the wait wakes every
  // suspicion interval and heartbeat-probes every peer (a forwarded
  // request's answering owner cannot be named), so a dead peer surfaces as
  // kPeerUnreachable and aborts the run instead of leaving the wait parked
  // forever. `awaiting` names the awaited message kind (a string
  // literal) for the wait.abort trace instant.
  virtual void Wait(std::unique_lock<std::mutex>& lk, const char* awaiting,
                    const std::function<bool()>& pred) = 0;

  virtual PageTable& pages() = 0;
  virtual BitmapStore& bitmaps() = 0;
  virtual IntervalLog& log() = 0;
  virtual NodeTiming& timing() = 0;

  virtual IntervalIndex current_interval() const = 0;
  virtual EpochId current_epoch() const = 0;
  // Pages written in the current interval (the pending write notices),
  // ascending. A flat sorted set: Clear() keeps its storage, so steady-state
  // intervals track writes without allocating (see src/perf/arena.h).
  virtual const perf::FlatIdSet<PageId>& current_writes() const = 0;
  // Adds `page` to the current interval's write-notice set.
  virtual void NoteWrite(PageId page) = 0;

  virtual void Send(NodeId to, Payload payload) = 0;
  // Charges one message's modeled cost to the node clock, splitting off the
  // read-notice share into the paper's "CVM Mods" bucket.
  virtual void ChargeMessage(size_t bytes, size_t read_notice_bytes) = 0;

  // Pristine initial contents of `page` (for lazily materialized homes).
  virtual std::vector<uint8_t> InitialPageData(PageId page) = 0;

  // Observability (null/no-op when disabled).
  virtual obs::Tracer* tracer() = 0;
  virtual DiffObs* diff_obs() = 0;
  virtual void CountPageFetch() = 0;
  virtual void TraceInstant(const char* name, const char* cat, const char* arg_name = nullptr,
                            uint64_t arg_value = 0) = 0;
};

class CoherenceProtocol {
 public:
  using Lk = std::unique_lock<std::mutex>;

  static std::unique_ptr<CoherenceProtocol> Make(ProtocolKind kind, ProtocolHost& host);

  virtual ~CoherenceProtocol();

  CoherenceProtocol(const CoherenceProtocol&) = delete;
  CoherenceProtocol& operator=(const CoherenceProtocol&) = delete;

  virtual ProtocolKind kind() const = 0;
  const char* name() const { return ProtocolKindName(kind()); }

  // True for protocols using single-writer data movement (LRC-lazy or ERC):
  // ownership transfer, page served by its current owner. False for the
  // home-based multi-writer protocol.
  virtual bool single_writer_data() const = 0;

  // Registers this protocol's message handlers. The base registers the
  // PageReply slot-filler; subclasses add their request/diff/update traffic.
  // Kinds a protocol does not register are surfaced by the dispatcher as
  // unhandled rather than silently dropped.
  virtual void RegisterHandlers(MessageDispatcher& dispatcher);

  // Page-fault paths, called from the app thread with the fault prologue
  // (fault count, span, page_fault_ns) already charged. May block on fetches.
  virtual void OnReadFault(Lk& lk, PageId page) = 0;
  virtual void OnWriteFault(Lk& lk, PageId page) = 0;

  // Called by the app thread after each completed shared access, while still
  // holding the host mutex. The single-writer family drains page requests
  // that were parked behind an in-flight ownership transfer.
  virtual void OnAccessComplete(PageId page) { (void)page; }

  // Interval-end hook, invoked BEFORE the interval record is built: the
  // multi-writer protocol flushes diffs here (possibly mining write notices
  // into the record), the single-writer family downgrades written pages so
  // the next interval's first write faults again.
  virtual void OnIntervalEnd(Lk& lk) = 0;

  // Invoked AFTER the record is built, logged, and charged. ERC pushes the
  // record to every node here and blocks for acknowledgements.
  virtual void OnIntervalPublished(Lk& lk, const IntervalRecord& record) {
    (void)lk;
    (void)record;
  }

  // Applies one freshly-logged remote record's write notices (invalidation).
  virtual void ApplyWriteNotices(const IntervalRecord& record) = 0;

  // A record already in the log arrived again on an acquire. ERC re-applies
  // notices that had only been seen via an eager push (an eager invalidation
  // can be overtaken by an in-flight fetch install).
  virtual void OnDuplicateRecord(const IntervalRecord& record) { (void)record; }

  // Epoch garbage collection: drop protocol bookkeeping dominated by `vc`.
  virtual void OnGarbageCollect(const VectorClock& vc) { (void)vc; }

 protected:
  explicit CoherenceProtocol(ProtocolHost& host);

  NodeId HomeOf(PageId page) const { return page % host_.num_nodes(); }

  // Lazily initializes (or locally revalidates) this node's home frame.
  void MaterializeHome(PageId page);

  // Blocking fetch through the page's home: sends the request, waits for the
  // reply slot, charges the round trip, installs with `install_state`.
  // Returns true if the reply granted single-writer ownership.
  bool FetchPage(Lk& lk, PageId page, bool want_write, PageState install_state);

  ProtocolHost& host_;

 private:
  void OnPageReply(const Message& msg);

  std::vector<bool> home_materialized_;  // Home frames lazily initialized.
  // Reply slot for the single outstanding fetch (the app thread is the only
  // requester). The handler tolerates replies matching no outstanding fetch.
  std::optional<PageReplyMsg> page_reply_;
  PageId page_fetch_pending_ = -1;
};

}  // namespace cvm

#endif  // CVM_PROTOCOL_COHERENCE_H_
