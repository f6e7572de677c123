// FaultTransport: deterministic fault injection at the transport seam.
//
// Wraps any net::Transport and kills a PE (or severs one link) when a
// chosen operation count is reached, exercising exactly the failure paths
// a real dead process or unplugged cable would: the victim's own call
// throws net::CommError (its SPMD body unwinds as if the process died),
// the underlying transport's KillPe/KillLink poisons the affected
// channels, and every surviving PE's pending or future Wait/Take on the
// victim raises CommError — no hang, no abort. The trigger counts only the
// victim's own operations (issued from the victim's single application
// thread), but how many of them a phase takes varies between runs: the
// streaming exchange sizes chunks and flushes credits from run-time
// measurements. So a kill aimed at a phase is anchored on the phase, not
// on a count from the start: ArmAfter, called on the victim's thread at a
// known point (its previous phase's checkpoint commit, say), fires the kill
// a fixed number of the victim's operations later — inside the intended
// phase on every run, on every backend.
//
// For supervised-restart testing the injector holds a SCHEDULE of events,
// each armed in a specific epoch (0 = first launch, 1 = first relaunch,
// ...): kill rank A at op N of epoch 0, then rank B at op M of epoch 1,
// exercising a second failure during recovery. The harness calls
// AdvanceEpoch() between epochs — no traffic in flight — to reset the
// per-PE operation clocks and arm the next epoch's events.
//
// Usage:
//  * In-process fabric: one FaultTransport wraps the shared Fabric and
//    serves all PEs.
//  * TCP: each rank wraps its own endpoint; the wrappers share one
//    FaultInjector (the loopback thread harness) or simply give the
//    victim's rank its own injector (separate processes) — only the
//    victim's wrapper ever fires.
#ifndef DEMSORT_NET_FAULT_TRANSPORT_H_
#define DEMSORT_NET_FAULT_TRANSPORT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/transport.h"
#include "util/logging.h"

namespace demsort::net {

/// The shared trigger: counts every PE's transport operations (Isend and
/// Irecv alike) on per-PE clocks and fires each scheduled event exactly
/// once, at the configured count in the configured epoch.
class FaultInjector {
 public:
  /// Per-PE operation clocks are fixed-size so counting is a single
  /// wait-free atomic increment.
  static constexpr int kMaxPes = 256;

  struct Spec {
    /// PE-failure mode: this PE "dies" at its fail_at_op-th operation.
    /// Negative = no PE failure.
    int victim_pe = -1;
    /// Link-failure mode: the (link_src → link_dst) link is severed (both
    /// directions) when link_src's fail_at_op-th send on it is issued.
    /// Negative = no link failure. Mutually exclusive with victim_pe.
    int link_src = -1;
    int link_dst = -1;
    /// 1-based operation count that triggers the fault.
    uint64_t fail_at_op = 1;
    /// Supervised epoch in which the event is armed: 0 = the first launch,
    /// r = the r-th relaunch (see AdvanceEpoch).
    int epoch = 0;
    /// Human-readable tag carried into every resulting CommError.
    std::string reason = "injected fault";
  };

  /// Deterministically derives a PE failure from a seed: victim =
  /// h(seed) mod P, fail_at_op in [1, max_op] — a cheap way for a smoke
  /// sweep to cover many failure points without enumerating them.
  static Spec PeFailureFromSeed(uint64_t seed, int num_pes,
                                uint64_t max_op = 64) {
    DEMSORT_CHECK_GT(num_pes, 0);
    DEMSORT_CHECK_GT(max_op, 0u);
    // splitmix64: decorrelates consecutive seeds.
    uint64_t h = seed + 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
    Spec spec;
    spec.victim_pe = static_cast<int>(h % static_cast<uint64_t>(num_pes));
    spec.fail_at_op = 1 + (h >> 32) % max_op;
    spec.reason = "injected fault (seed " + std::to_string(seed) + ")";
    return spec;
  }

  explicit FaultInjector(Spec spec)
      : FaultInjector(std::vector<Spec>{std::move(spec)}) {}

  explicit FaultInjector(std::vector<Spec> events)
      : events_(std::move(events)),
        fired_(std::make_unique<std::atomic<bool>[]>(events_.size())),
        link_ops_(std::make_unique<std::atomic<uint64_t>[]>(events_.size())),
        fail_at_(std::make_unique<std::atomic<uint64_t>[]>(events_.size())) {
    DEMSORT_CHECK(!events_.empty());
    for (size_t i = 0; i < events_.size(); ++i) {
      const Spec& s = events_[i];
      DEMSORT_CHECK(s.victim_pe < 0 || s.link_src < 0)
          << "configure a PE failure or a link failure, not both";
      DEMSORT_CHECK_GT(s.fail_at_op, 0u);
      DEMSORT_CHECK_GE(s.epoch, 0);
      DEMSORT_CHECK_LT(s.victim_pe, kMaxPes);
      fired_[i].store(false, std::memory_order_relaxed);
      link_ops_[i].store(0, std::memory_order_relaxed);
      fail_at_[i].store(s.fail_at_op, std::memory_order_relaxed);
    }
    for (auto& c : pe_ops_) c.store(0, std::memory_order_relaxed);
  }

  /// The first scheduled event (compatibility accessor for single-event
  /// harnesses).
  const Spec& spec() const { return events_.front(); }
  const std::vector<Spec>& events() const { return events_; }

  /// Called by supervised harnesses between epochs, when no traffic is in
  /// flight: restarts every PE's operation clock from zero — a relaunched
  /// epoch replays the same deterministic op sequence — and arms the next
  /// epoch's events.
  void AdvanceEpoch() {
    for (auto& c : pe_ops_) c.store(0, std::memory_order_relaxed);
    for (size_t i = 0; i < events_.size(); ++i) {
      link_ops_[i].store(0, std::memory_order_relaxed);
    }
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }

  int epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// `pe`'s operation clock in the current epoch.
  uint64_t OpCount(int pe) const {
    DEMSORT_CHECK_GE(pe, 0);
    DEMSORT_CHECK_LT(pe, kMaxPes);
    return pe_ops_[pe].load(std::memory_order_relaxed);
  }

  /// Re-targets PE-failure event `event` to fire `ops` operations after
  /// its victim's current clock (1 = the victim's next operation). Call it
  /// on the victim's own thread, at the point the kill is anchored to —
  /// e.g. from RecoveryRuntime::on_phase_checkpoint.
  void ArmAfter(size_t event, uint64_t ops) {
    DEMSORT_CHECK_LT(event, events_.size());
    DEMSORT_CHECK_GE(events_[event].victim_pe, 0);
    DEMSORT_CHECK_GT(ops, 0u);
    fail_at_[event].store(OpCount(events_[event].victim_pe) + ops,
                          std::memory_order_relaxed);
  }

  /// Counts one operation of `pe`; returns true exactly once per armed
  /// event, on the operation that should observe the fault.
  bool CountPeOp(int pe) {
    DEMSORT_CHECK_GE(pe, 0);
    DEMSORT_CHECK_LT(pe, kMaxPes);
    uint64_t op = pe_ops_[pe].fetch_add(1, std::memory_order_relaxed) + 1;
    int now = epoch();
    for (size_t i = 0; i < events_.size(); ++i) {
      const Spec& s = events_[i];
      if (s.victim_pe != pe || s.epoch != now ||
          op != fail_at_[i].load(std::memory_order_relaxed)) {
        continue;
      }
      if (fired_[i].exchange(true, std::memory_order_relaxed)) continue;
      last_fired_.store(static_cast<int>(i), std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// Counts one (src → dst) message; true exactly once per armed event at
  /// its trigger.
  bool CountLinkMessage(int src, int dst) {
    int now = epoch();
    for (size_t i = 0; i < events_.size(); ++i) {
      const Spec& s = events_[i];
      if (s.link_src != src || s.link_dst != dst) continue;
      uint64_t op = link_ops_[i].fetch_add(1, std::memory_order_relaxed) + 1;
      if (s.epoch != now || op != s.fail_at_op) continue;
      if (fired_[i].exchange(true, std::memory_order_relaxed)) continue;
      last_fired_.store(static_cast<int>(i), std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  Status FaultStatus() const {
    int idx = last_fired_.load(std::memory_order_relaxed);
    const size_t i = idx < 0 ? 0 : static_cast<size_t>(idx);
    const Spec& s = events_[i];
    if (s.victim_pe >= 0) {
      return Status::IoError(
          s.reason + ": PE " + std::to_string(s.victim_pe) + " killed at op " +
          std::to_string(fail_at_[i].load(std::memory_order_relaxed)) +
          " (epoch " + std::to_string(s.epoch) + ")");
    }
    return Status::IoError(s.reason + ": link " +
                           std::to_string(s.link_src) + "->" +
                           std::to_string(s.link_dst) +
                           " severed at message " +
                           std::to_string(s.fail_at_op) + " (epoch " +
                           std::to_string(s.epoch) + ")");
  }

 private:
  std::vector<Spec> events_;
  std::array<std::atomic<uint64_t>, kMaxPes> pe_ops_;
  std::unique_ptr<std::atomic<bool>[]> fired_;
  std::unique_ptr<std::atomic<uint64_t>[]> link_ops_;
  /// Per-event PE-failure trigger: Spec::fail_at_op until ArmAfter moves it.
  std::unique_ptr<std::atomic<uint64_t>[]> fail_at_;
  std::atomic<int> epoch_{0};
  std::atomic<int> last_fired_{-1};
};

/// The wrapping Transport. Pass-through except at the trigger:
///  * PE failure — the base transport's KillPe(victim) poisons every
///    channel touching the victim, then the victim's own call throws
///    CommError (it never issues the operation, like a process that died
///    between two MPI calls).
///  * Link failure — the base's KillLink severs the pair, then the
///    triggering Isend proceeds and fails like any send on a dead link.
class FaultTransport : public Transport {
 public:
  FaultTransport(Transport* base, std::shared_ptr<FaultInjector> injector)
      : base_(base), injector_(std::move(injector)) {
    DEMSORT_CHECK(base_ != nullptr);
    DEMSORT_CHECK(injector_ != nullptr);
  }

  int num_pes() const override { return base_->num_pes(); }

  SendRequest Isend(int src, int dst, int tag, const void* data,
                    size_t bytes) override {
    MaybeKillPe(src);
    if (injector_->CountLinkMessage(src, dst)) {
      base_->KillLink(src, dst, injector_->FaultStatus());
    }
    return base_->Isend(src, dst, tag, data, bytes);
  }

  SendRequest IsendGather(int src, int dst, int tag, const void* header,
                          size_t header_bytes, const void* data,
                          size_t bytes) override {
    // Same trigger semantics as Isend (one gathered send = one operation),
    // then the base's single-copy path.
    MaybeKillPe(src);
    if (injector_->CountLinkMessage(src, dst)) {
      base_->KillLink(src, dst, injector_->FaultStatus());
    }
    return base_->IsendGather(src, dst, tag, header, header_bytes, data,
                              bytes);
  }

  SendRequest IsendFrame(int src, int dst, int tag, Frame frame) override {
    // One frame send = one operation, preserving the base's zero-copy path.
    MaybeKillPe(src);
    if (injector_->CountLinkMessage(src, dst)) {
      base_->KillLink(src, dst, injector_->FaultStatus());
    }
    return base_->IsendFrame(src, dst, tag, std::move(frame));
  }

  RecvRequest Irecv(int dst, int src, int tag) override {
    MaybeKillPe(dst);
    return base_->Irecv(dst, src, tag);
  }

  void KillPe(int pe, const Status& status) override {
    base_->KillPe(pe, status);
  }
  void KillLink(int a, int b, const Status& status) override {
    base_->KillLink(a, b, status);
  }

  NetStats& stats(int pe) override { return base_->stats(pe); }

 private:
  void MaybeKillPe(int pe) {
    if (!injector_->CountPeOp(pe)) return;
    Status status = injector_->FaultStatus();
    base_->KillPe(pe, status);
    throw CommError(status);
  }

  Transport* base_;
  std::shared_ptr<FaultInjector> injector_;
};

}  // namespace demsort::net

#endif  // DEMSORT_NET_FAULT_TRANSPORT_H_
