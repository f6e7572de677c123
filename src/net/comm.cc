#include "net/comm.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <deque>
#include <thread>
#include <utility>

#include "obs/trace.h"
#include "util/timer.h"

namespace demsort::net {

void Comm::Send(int dst, int tag, const void* data, size_t bytes) {
  Isend(dst, tag, data, bytes).Wait();
}

std::vector<uint8_t> Comm::Recv(int src, int tag) {
  return Irecv(src, tag).Take();
}

void Comm::Barrier() {
  TRACE_SPAN("net", "barrier");
  if (TwoLevelActive()) {
    BarrierTwoLevel();
    return;
  }
  // Dissemination barrier: in round k, PE i signals (i + 2^k) mod P and
  // waits for (i - 2^k) mod P. O(log P) rounds, no central bottleneck.
  // The receive is posted before the send so a capped fabric always has a
  // drain in place.
  int tag = AllocateCollectiveTag();
  for (int step = 1; step < size_; step <<= 1) {
    int to = (rank_ + step) % size_;
    // step < size_ here, so (rank_ - step) needs only one +size_ to stay
    // non-negative; reducing step first would be a no-op that reads as if
    // it mattered.
    int from = (rank_ - step + size_) % size_;
    RecvRequest rr = Irecv(from, tag);
    uint8_t token = 1;
    Isend(to, tag, &token, 1).Wait();
    rr.Wait();
  }
}

void Comm::Broadcast(int root, std::vector<uint8_t>& data) {
  if (TwoLevelActive()) {
    BroadcastTwoLevel(root, data);
    return;
  }
  // Binomial tree rooted at `root`, in root-relative rank space: PE `rel`
  // receives from `rel` with its highest set bit cleared, then forwards to
  // rel + b for every power of two b above its own highest bit. Forwarding
  // uses nonblocking sends: both children receive concurrently.
  int tag = AllocateCollectiveTag();
  int rel = (rank_ - root + size_) % size_;
  int first_child_bit = 1;
  if (rel != 0) {
    int high = 1;
    while ((high << 1) <= rel) high <<= 1;
    int parent = ((rel & ~high) + root) % size_;
    data = Recv(parent, tag);
    first_child_bit = high << 1;
  }
  std::vector<SendRequest> forwards;
  for (int b = first_child_bit; rel + b < size_; b <<= 1) {
    int dst = (rel + b + root) % size_;
    forwards.push_back(Isend(dst, tag, data.data(), data.size()));
  }
  for (SendRequest& f : forwards) f.Wait();
}

namespace {

/// Length-prefixed (rank, payload) list — the wire form the gather-shaped
/// collectives pass around: [u32 count] then per entry [u32 rank]
/// [u64 len][len bytes]. Shared by the tree allgather and the two-level
/// (node-blob) allgather.
std::vector<uint8_t> PackRankedParts(
    const std::vector<std::pair<uint32_t, std::vector<uint8_t>>>& entries) {
  std::vector<uint8_t> blob;
  uint32_t count = static_cast<uint32_t>(entries.size());
  blob.insert(blob.end(), reinterpret_cast<uint8_t*>(&count),
              reinterpret_cast<uint8_t*>(&count) + sizeof(count));
  for (const auto& [rank, bytes] : entries) {
    uint32_t r = rank;
    uint64_t n = bytes.size();
    blob.insert(blob.end(), reinterpret_cast<uint8_t*>(&r),
                reinterpret_cast<uint8_t*>(&r) + sizeof(r));
    blob.insert(blob.end(), reinterpret_cast<uint8_t*>(&n),
                reinterpret_cast<uint8_t*>(&n) + sizeof(n));
    blob.insert(blob.end(), bytes.begin(), bytes.end());
  }
  return blob;
}

void UnpackRankedParts(
    const std::vector<uint8_t>& blob,
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>>* out) {
  size_t offset = 0;
  uint32_t count;
  std::memcpy(&count, blob.data(), sizeof(count));
  offset += sizeof(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t r;
    uint64_t n;
    std::memcpy(&r, blob.data() + offset, sizeof(r));
    offset += sizeof(r);
    std::memcpy(&n, blob.data() + offset, sizeof(n));
    offset += sizeof(n);
    out->emplace_back(r, std::vector<uint8_t>(blob.begin() + offset,
                                              blob.begin() + offset + n));
    offset += n;
  }
  DEMSORT_CHECK_EQ(offset, blob.size());
}

}  // namespace

std::vector<std::vector<uint8_t>> Comm::AllgatherBytes(
    const std::vector<uint8_t>& local) {
  if (TwoLevelActive()) return AllgatherBytesTwoLevel(local);
  // Algorithm switch by payload size, like tuned MPI implementations:
  //  * small contributions: binomial-tree gather to rank 0 + binomial
  //    broadcast — O(log P) rounds, latency-optimal;
  //  * large contributions: direct exchange — every PE ships its own part
  //    to every peer, so the volume (P-1)*|local| is perfectly balanced
  //    instead of concentrating log(P)*P*|local| at the tree root.
  // Contribution sizes may differ across PEs, so the path is agreed on via
  // the (collectively known) MAXIMUM size — learned with a cheap tree
  // exchange, the moral equivalent of the count exchange every real
  // MPI_Allgatherv caller performs first.
  if (size_ > 1) {
    uint64_t my_size = local.size();
    std::vector<uint8_t> size_bytes(sizeof(my_size));
    std::memcpy(size_bytes.data(), &my_size, sizeof(my_size));
    uint64_t max_size = 0;
    for (const std::vector<uint8_t>& part : TreeAllgatherBytes(size_bytes)) {
      uint64_t s;
      DEMSORT_CHECK_EQ(part.size(), sizeof(s));
      std::memcpy(&s, part.data(), sizeof(s));
      max_size = std::max(max_size, s);
    }
    if (max_size > kAllgatherDirectThresholdBytes) {
      // Direct exchange on the nonblocking layer: receives posted first,
      // sends rank-rotated, then drain in arrival-friendly rotated order.
      int tag = AllocateCollectiveTag();
      std::vector<RecvRequest> recvs(size_);
      for (int p = 0; p < size_; ++p) {
        if (p != rank_) recvs[p] = Irecv(p, tag);
      }
      std::vector<SendRequest> sends;
      sends.reserve(size_ - 1);
      for (int off = 1; off < size_; ++off) {
        int p = (rank_ + off) % size_;
        sends.push_back(Isend(p, tag, local.data(), local.size()));
      }
      std::vector<std::vector<uint8_t>> out(size_);
      out[rank_] = local;
      for (int off = 1; off < size_; ++off) {
        int p = (rank_ - off + size_) % size_;
        out[p] = recvs[p].Take();
      }
      for (SendRequest& s : sends) s.Wait();
      return out;
    }
  }
  return TreeAllgatherBytes(local);
}

std::vector<std::vector<uint8_t>> Comm::TreeAllgatherBytes(
    const std::vector<uint8_t>& local) {
  int tag = AllocateCollectiveTag();

  // parts this PE has accumulated so far, keyed by contributor rank.
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> parts;
  parts.emplace_back(static_cast<uint32_t>(rank_), local);

  for (int bit = 1; bit < size_; bit <<= 1) {
    if ((rank_ & bit) != 0) {
      std::vector<uint8_t> blob = PackRankedParts(parts);
      Send(rank_ - bit, tag, blob.data(), blob.size());
      parts.clear();
      break;
    }
    if (rank_ + bit < size_) {
      std::vector<uint8_t> blob = Recv(rank_ + bit, tag);
      UnpackRankedParts(blob, &parts);
    }
  }

  std::vector<uint8_t> packed;
  if (rank_ == 0) {
    DEMSORT_CHECK_EQ(parts.size(), static_cast<size_t>(size_));
    packed = PackRankedParts(parts);
  }
  Broadcast(0, packed);

  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> all;
  UnpackRankedParts(packed, &all);
  std::vector<std::vector<uint8_t>> out(size_);
  for (auto& [rank, bytes] : all) {
    DEMSORT_CHECK_LT(rank, static_cast<uint32_t>(size_));
    out[rank] = std::move(bytes);
  }
  return out;
}

namespace {

/// Posted chunk receives per source: 2 double-buffers arrival against
/// consumption while keeping untaken payloads at O(chunk) per source.
constexpr uint64_t kStreamRecvLookahead = 2;

/// Short local name for the credit window (documented in comm.h).
constexpr uint64_t kStreamSendCredit = Comm::kStreamSendCreditChunks;

/// Credits (in chunks) a receiver may owe before it must return them in a
/// standalone message when no data frame is carrying them: the whole
/// window, the largest threshold that stays live (see the protocol comment
/// above AlltoallvStream).
constexpr uint64_t kStreamCreditFlushChunks = kStreamSendCredit;
static_assert(kStreamCreditFlushChunks >= 2,
              "a flush must return a credit after keeping one back");

/// Event-driven pacing for the streaming poll loops. Every receive a loop
/// posts hooks its completion (RecvRequest::OnDone) to Signal(), so an
/// idle pass sleeps on the eventcount and wakes the instant ANY hooked
/// receive lands — on an oversubscribed host it is the nap quantum, not
/// bandwidth, that otherwise bounds every chunk round-trip. The wait stays
/// TIMED because not every gate is a receive (send-window reclaim on a
/// remote transport, a peer whose consumer stalls): the fallback nap
/// preserves the old polling loop's liveness exactly. Snapshot() is taken
/// BEFORE the poll pass, so a receive that completes mid-pass makes the
/// next IdleWait return immediately — no wakeup is lost. The eventcount
/// lives behind a shared_ptr because hooks run on the COMPLETING thread
/// (a shared-memory sender, the demux reactor): one may still be inside
/// Signal() after the waiter observed done() and moved on.
class RecvSignal {
 public:
  /// Completion hook to attach to every receive the loop waits on.
  std::function<void()> Hook() const {
    return [s = s_] {
      s->seq.fetch_add(1);  // seq_cst: orders against the waiter's flag
      if (s->waiting.load()) {
        std::lock_guard<std::mutex> lock(s->mu);
        s->cv.notify_all();
      }
    };
  }
  uint64_t Snapshot() const { return s_->seq.load(); }
  void Reset() { idle_polls_ = 0; }
  void IdleWait(uint64_t seen) {
    if (s_->seq.load() != seen) return;
    if (++idle_polls_ <= kSpinPolls) {
      std::this_thread::yield();
      return;
    }
    std::unique_lock<std::mutex> lock(s_->mu);
    s_->waiting.store(true);
    s_->cv.wait_for(lock, std::chrono::microseconds(100),
                    [&] { return s_->seq.load() != seen; });
    s_->waiting.store(false);
  }

 private:
  static constexpr int kSpinPolls = 16;
  struct State {
    std::atomic<uint64_t> seq{0};
    std::atomic<bool> waiting{false};
    std::mutex mu;
    std::condition_variable cv;
  };
  std::shared_ptr<State> s_ = std::make_shared<State>();
  int idle_polls_ = 0;
};

}  // namespace

Comm::ResolvedStreamTuning Comm::ResolveStreamTuning(
    const StreamOptions& options) const {
  ResolvedStreamTuning t;
  t.align_bytes = std::max<uint64_t>(1, options.align_bytes);
  uint64_t base =
      options.chunk_bytes != 0 ? options.chunk_bytes : stream_chunk_bytes_;
  t.base_chunk_bytes =
      std::max(t.align_bytes, base / t.align_bytes * t.align_bytes);
  // An explicit max is a memory CAP: the base (and therefore every wire
  // chunk) is clamped into it, never the cap raised to the base —
  // bench_util's watermark guidance relies on this.
  if (options.max_chunk_bytes != 0) {
    uint64_t cap = std::max(t.align_bytes, options.max_chunk_bytes /
                                               t.align_bytes * t.align_bytes);
    t.base_chunk_bytes = std::min(t.base_chunk_bytes, cap);
  }
  uint64_t min = options.min_chunk_bytes != 0
                     ? options.min_chunk_bytes
                     : t.base_chunk_bytes / kStreamAutoRangeFactor;
  min = std::max(t.align_bytes, min / t.align_bytes * t.align_bytes);
  t.min_chunk_bytes = std::min(min, t.base_chunk_bytes);
  uint64_t max = options.max_chunk_bytes != 0
                     ? options.max_chunk_bytes
                     : t.base_chunk_bytes * kStreamAutoRangeFactor;
  max = std::max(t.align_bytes, max / t.align_bytes * t.align_bytes);
  t.max_chunk_bytes = std::max(max, t.base_chunk_bytes);
  t.credit_unit = std::max<uint64_t>(1, options.credit_unit);
  return t;
}

// The streaming exchange engine. P-1 symmetric pairwise rounds: in round r
// this PE exchanges full-duplex chunked streams with exactly the partner
// that is exchanging with it (XOR partners at power-of-two P, tournament
// pairing (r - rank) mod P otherwise; the one round whose partner is the
// PE itself delivers the self payload zero-copy). Symmetry is what makes
// credit piggybacking possible: while I stream chunks to my partner, the
// credits I owe it for ITS chunks ride my outgoing frame headers.
//
// Per-direction wire protocol (tags shared across rounds — each ordered PE
// pair meets in exactly one round, so per-(src, tag) FIFO keeps streams
// separate): StreamSizeHeader, then chunk messages (StreamChunkHeader +
// payload), each chunk <= the resolved max chunk so the receiver can bound
// its posted lookahead without knowing the adaptive controller's choices.
// Credits: one earned per consumed chunk. They ride the header of the next
// outgoing data frame to the partner. A standalone StreamCreditMsg goes out
// only (a) when kStreamCreditFlushChunks credits are owed and no data frame
// took them — our own stream is finished, or this pass could not send —
// and (b) once at the end of the stream. While our stream still has frames
// to send, (a) keeps one chunk's credit back for the next of them. Without
// that, two partners that exhaust their windows at the same moment both
// flush, both refill their windows with frames that carry nothing, and
// repeat in lockstep with every credit standalone; the one credit held
// back lets each refill return a credit, which un-gates the partner's next
// frame, which carries the partner's debt, and the exchange piggybacks
// from then on. The receiver's LAST credit-tag message carries
// kStreamCreditCloseFlag (sent when it has consumed the stream), which is
// how the sender knows to stop re-posting credit receives — every posted
// receive is matched, no probe primitive needed, nothing leaks.
//
// Why withholding up to a full window is live: the partner's sender blocks
// on us only at its credit gate, i.e. with kStreamSendCredit chunks sent
// beyond the credits it has received. Credits in flight arrive on their
// own, so count only what we owe: if we owe fewer than a window, some of
// its un-credited chunks are not consumed yet — they are in flight to us
// or waiting in our mailbox, and our poll loop consumes them without
// needing anything from the partner, raising what we owe. So either the
// partner is not blocked on us, or we reach a full window owed and flush
// at least one credit (the window is >= 2), which lets it send again. Any
// threshold up to a full window is live; the full window is the one that
// sends the fewest standalone messages.
//
// No indefinite blocking wait is taken inside a round — every gate
// (partner credits, send-window admission, incoming chunks) is polled
// while the other directions keep progressing; a pass that makes no
// progress applies the flush rule above, then sleeps on the RecvSignal
// eventcount, woken by the next receive completion or by the timed
// fallback for the gates that are not receives.
// Rounds of different PEs need not be synchronized: a fast PE's header and
// first credit-window chunks simply queue at the future partner (bounded
// by O(credit x chunk) per source), and a waiting chain always ends at a
// pair that is in its mutual round, which makes progress.
void Comm::AlltoallvStream(const StreamSendProvider& send_for,
                           const ChunkConsumer& consumer,
                           const StreamSizeCallback& on_size,
                           const StreamOptions& options) {
  if (TwoLevelActive()) {
    AlltoallvStreamTwoLevel(send_for, consumer, on_size, options);
    return;
  }
  AlltoallvStreamFlat(send_for, consumer, on_size, options);
}

void Comm::AlltoallvStreamFlat(const StreamSendProvider& send_for,
                               const ChunkConsumer& consumer,
                               const StreamSizeCallback& on_size,
                               const StreamOptions& options,
                               const FrameConsumer& frame_consumer,
                               const SegmentedSendProvider& seg_send_for) {
  const ResolvedStreamTuning tune = ResolveStreamTuning(options);
  DEMSORT_CHECK_GT(tune.base_chunk_bytes, 0u);
  TRACE_SPAN2("net", "a2a.stream", "pes", size_, "base_chunk",
              tune.base_chunk_bytes);

  // Self delivery is zero-copy: the provider's span goes straight to the
  // consumer in chunk-size pieces (local memory traffic, like self-sends).
  auto deliver_self = [&] {
    std::span<const uint8_t> mine;
    if (seg_send_for) {
      for (std::span<const uint8_t> seg : seg_send_for(rank_)) {
        DEMSORT_CHECK(seg.empty())
            << "segmented delivery requires an empty self stream";
      }
    } else {
      mine = send_for(rank_);
    }
    if (on_size) on_size(rank_, mine.size());
    if (mine.empty()) {
      if (frame_consumer) {
        frame_consumer(rank_, Frame(), true);
      } else {
        consumer(rank_, {}, true);
      }
      return;
    }
    DEMSORT_CHECK(!frame_consumer)
        << "framed delivery requires an empty self stream";
    const uint64_t chunk = tune.base_chunk_bytes;
    for (uint64_t off = 0; off < mine.size(); off += chunk) {
      uint64_t n = std::min<uint64_t>(chunk, mine.size() - off);
      consumer(rank_, mine.subspan(off, n), off + n == mine.size());
    }
  };
  if (size_ == 1) {
    deliver_self();
    return;
  }

  const int data_tag = AllocateCollectiveTag();
  const int credit_tag = AllocateCollectiveTag();
  NetStats& my_stats = transport_->stats(rank_);
  if (stream_tuning_.size() != static_cast<size_t>(size_)) {
    stream_tuning_.assign(size_, StreamPeerTuning{});
  }

  // Nonblocking send window shared across rounds: completed volume is
  // reclaimed oldest-first; a full window defers the next chunk instead of
  // parking the thread, so consumption continues while waiting.
  std::deque<std::pair<SendRequest, size_t>> outstanding;
  size_t inflight_bytes = 0;
  auto reclaim_sends = [&] {
    while (!outstanding.empty() && outstanding.front().first.done()) {
      inflight_bytes -= outstanding.front().second;
      outstanding.pop_front();
    }
  };
  auto track_send = [&](SendRequest sr, size_t n) {
    inflight_bytes += n;
    outstanding.emplace_back(std::move(sr), n);
  };

  // Credit intakes of FINISHED rounds whose close has not arrived yet (the
  // partner is still consuming our tail): polled opportunistically during
  // later rounds, hard-absorbed at the end. Their counts are stale (our
  // stream to that partner is fully sent) but every message must be taken
  // or it would sit in the mailbox forever.
  // Declared before every container of hooked receives so the hooks'
  // shared state outlives them (see RecvSignal).
  RecvSignal signal;
  struct PendingClose {
    int peer;
    RecvRequest rr;
  };
  std::vector<PendingClose> closes;
  // Taken as a Frame (not a detached vector) so the tiny credit buffers
  // recycle into the pool instead of costing a fresh allocation each.
  auto absorb_credit_msg = [&](Frame msg, uint64_t* credits_out) -> bool {
    DEMSORT_CHECK_EQ(msg.size(), sizeof(StreamCreditMsg));
    StreamCreditMsg cm;
    std::memcpy(&cm, msg.data(), sizeof(cm));
    if (credits_out != nullptr) *credits_out += cm.credits;
    return (cm.flags & kStreamCreditCloseFlag) != 0;
  };
  auto poll_closes = [&]() -> bool {
    bool progress = false;
    for (size_t i = 0; i < closes.size();) {
      if (!closes[i].rr.done()) {
        ++i;
        continue;
      }
      progress = true;
      if (absorb_credit_msg(closes[i].rr.TakeFrame(), nullptr)) {
        closes.erase(closes.begin() + i);
      } else {
        closes[i].rr = Irecv(closes[i].peer, credit_tag);
        closes[i].rr.OnDone(signal.Hook());
        ++i;
      }
    }
    return progress;
  };

  const bool pow2 = (size_ & (size_ - 1)) == 0;

  for (int r = 0; r < size_; ++r) {
    const int q = pow2 ? (rank_ ^ r) : (r - rank_ + 2 * size_) % size_;
    TRACE_SPAN2("net", "stream.round", "partner", q, "round", r);
    if (q == rank_) {
      deliver_self();
      continue;
    }

    StreamPeerTuning& tuning = stream_tuning_[q];
    uint64_t chunk = std::clamp(
        tuning.chunk_bytes != 0 ? tuning.chunk_bytes : tune.base_chunk_bytes,
        tune.min_chunk_bytes, tune.max_chunk_bytes);
    chunk = std::max(tune.align_bytes,
                     chunk / tune.align_bytes * tune.align_bytes);

    // ---- outgoing stream: a list of segments walked in order (the plain
    // provider's span is one segment); chunks are cut at segment
    // boundaries, which the segmented callers keep record-aligned.
    std::array<std::span<const uint8_t>, 1> one_seg;
    StreamSegments segs;
    if (seg_send_for) {
      segs = seg_send_for(q);
    } else {
      one_seg[0] = send_for(q);
      segs = one_seg;
    }
    uint64_t total_out = 0;
    for (std::span<const uint8_t> s : segs) total_out += s.size();
    size_t seg_i = 0;
    uint64_t seg_off = 0;
    uint64_t sent_bytes = 0;
    uint64_t chunks_sent = 0;
    uint64_t credits_in = 0;  // cumulative credits q granted this round
    bool header_sent = false;
    int64_t stall_started_ns = -1;

    // ---- credit intake (one posted receive until the close arrives).
    RecvRequest credit_rr = Irecv(q, credit_tag);
    credit_rr.OnDone(signal.Hook());
    bool close_seen = false;

    // ---- incoming stream.
    RecvRequest header_rr = Irecv(q, data_tag);
    header_rr.OnDone(signal.Hook());
    bool size_known = false;
    uint64_t total_in = 0;
    uint64_t taken_bytes = 0;
    std::deque<RecvRequest> inflight;
    uint64_t pending_credits = 0;  // owed to q, not yet returned
    bool close_sent = false;

    // Sends q's credits standalone: all of them when closing (the
    // mandatory last credit message of the stream), otherwise only once a
    // full flush threshold is owed (the flush rule above) — keeping one
    // chunk's credit back for our next data frame while there is one.
    const uint64_t flush_threshold =
        kStreamCreditFlushChunks * tune.credit_unit;
    auto flush_credits = [&](bool closing) {
      if (close_sent || (!closing && pending_credits < flush_threshold)) {
        return;
      }
      const bool frames_left = !header_sent || sent_bytes < total_out;
      const uint64_t n =
          pending_credits - (!closing && frames_left ? tune.credit_unit : 0);
      DEMSORT_CHECK_LE(n, uint64_t{UINT32_MAX});
      StreamCreditMsg cm{static_cast<uint32_t>(n),
                         closing ? kStreamCreditCloseFlag : 0u};
      pending_credits -= n;
      track_send(Isend(q, credit_tag, &cm, sizeof(cm)), sizeof(cm));
      my_stats.RecordCreditMsg();
      if (closing) close_sent = true;
    };

    // Posted chunk receives: bounded by the number of messages PROVABLY
    // still to arrive — ceil(remaining / max_chunk) — so the adaptive
    // sender can choose any chunk sizes <= max without a posted receive
    // ever going unmatched.
    auto post_recvs = [&] {
      if (!size_known || total_in == 0) return;
      uint64_t remaining = total_in - taken_bytes;
      uint64_t guaranteed =
          (remaining + tune.max_chunk_bytes - 1) / tune.max_chunk_bytes;
      while (inflight.size() <
             std::min<uint64_t>(kStreamRecvLookahead, guaranteed)) {
        inflight.push_back(Irecv(q, data_tag));
        inflight.back().OnDone(signal.Hook());
      }
    };

    auto poll_credits = [&]() -> bool {
      bool progress = false;
      while (!close_seen && credit_rr.done()) {
        progress = true;
        close_seen = absorb_credit_msg(credit_rr.TakeFrame(), &credits_in);
        if (!close_seen) {
          credit_rr = Irecv(q, credit_tag);
          credit_rr.OnDone(signal.Hook());
        }
      }
      return progress;
    };

    auto poll_recv = [&]() -> bool {
      bool progress = false;
      if (!size_known) {
        if (!header_rr.done()) return false;
        Frame hdr = header_rr.TakeFrame();
        DEMSORT_CHECK_EQ(hdr.size(), sizeof(StreamSizeHeader));
        StreamSizeHeader h;
        std::memcpy(&h, hdr.data(), sizeof(h));
        total_in = h.total_bytes;
        credits_in += h.credits;
        size_known = true;
        progress = true;
        if (on_size) on_size(q, total_in);
        if (total_in == 0) {
          if (frame_consumer) {
            frame_consumer(q, Frame(), true);
          } else {
            consumer(q, {}, true);
          }
          flush_credits(/*closing=*/true);
        } else {
          post_recvs();
        }
      }
      while (taken_bytes < total_in && !inflight.empty() &&
             inflight.front().done()) {
        // The chunk stays a pooled Frame end to end: the header is
        // Consumed (an offset bump, no memmove) and framed consumers get
        // the frame itself, moved.
        Frame data = inflight.front().TakeFrame();
        inflight.pop_front();
        DEMSORT_CHECK_GT(data.size(), sizeof(StreamChunkHeader));
        StreamChunkHeader ch;
        std::memcpy(&ch, data.data(), sizeof(ch));
        credits_in += ch.credits;
        data.Consume(sizeof(StreamChunkHeader));
        size_t n = data.size();
        DEMSORT_CHECK_LE(n, tune.max_chunk_bytes);
        DEMSORT_CHECK_LE(taken_bytes + n, total_in);
        taken_bytes += n;
        bool last = taken_bytes == total_in;
        if (frame_consumer) {
          frame_consumer(q, std::move(data), last);
        } else {
          consumer(q, data.span(), last);
        }
        pending_credits += tune.credit_unit;
        progress = true;
        if (last) {
          flush_credits(/*closing=*/true);
        } else {
          post_recvs();
          // No data frame left to carry them: return a full threshold now.
          if (header_sent && sent_bytes == total_out) {
            flush_credits(/*closing=*/false);
          }
        }
      }
      return progress;
    };

    // Moves the owed credits onto the data frame about to go out.
    auto take_carried = [&]() -> uint32_t {
      uint32_t carried = static_cast<uint32_t>(
          std::min<uint64_t>(pending_credits, UINT32_MAX));
      pending_credits -= carried;
      if (carried > 0) my_stats.RecordPiggybackedCredits(carried);
      return carried;
    };

    auto try_send = [&]() -> bool {
      bool progress = false;
      if (!header_sent) {
        StreamSizeHeader h{total_out, take_carried(), 0};
        track_send(Isend(q, data_tag, &h, sizeof(h)), sizeof(h));
        header_sent = true;
        progress = true;
      }
      while (sent_bytes < total_out) {
        if (chunks_sent >= kStreamSendCredit + credits_in / tune.credit_unit) {
          // Credit-gated: the consumer's pace, not the transport's
          // admission, is what must throttle this stream.
          if (stall_started_ns < 0) stall_started_ns = NowNanos();
          break;
        }
        if (stall_started_ns >= 0) {
          // The credit gate just reopened: the whole wait was consumer
          // pacing, the exact signal the trace exists to make visible.
          TRACE_COMPLETE1("net", "stream.credit_stall", stall_started_ns,
                          NowNanos() - stall_started_ns, "partner", q);
          // A long stall means the consumer is the bottleneck — halve for
          // finer pacing.
          if (NowNanos() - stall_started_ns > kStreamShrinkStallNs) {
            chunk = std::max(tune.min_chunk_bytes,
                             chunk / 2 / tune.align_bytes * tune.align_bytes);
            tuning.fast_streak = 0;
          }
          stall_started_ns = -1;
        } else if (chunks_sent >= kStreamSendCredit) {
          // Credit was already waiting once the window applied at all:
          // the consumer keeps up — amortize per-chunk overhead.
          if (++tuning.fast_streak >= kStreamGrowStreak) {
            chunk = std::min(tune.max_chunk_bytes, chunk * 2);
            tuning.fast_streak = 0;
          }
        }
        reclaim_sends();
        while (seg_i < segs.size() && seg_off == segs[seg_i].size()) {
          ++seg_i;
          seg_off = 0;
        }
        DEMSORT_CHECK_LT(seg_i, segs.size());
        size_t n = static_cast<size_t>(
            std::min<uint64_t>(chunk, segs[seg_i].size() - seg_off));
        size_t frame = sizeof(StreamChunkHeader) + n;
        if (send_window_bytes_ != 0 && !outstanding.empty() &&
            inflight_bytes + frame > send_window_bytes_) {
          break;  // admission-gated; not a consumer-pace signal
        }
        StreamChunkHeader ch{take_carried(), 0};
        track_send(IsendGather(q, data_tag, &ch, sizeof(ch),
                               segs[seg_i].data() + seg_off, n),
                   frame);
        seg_off += n;
        sent_bytes += n;
        ++chunks_sent;
        progress = true;
      }
      return progress;
    };

    while (!(header_sent && sent_bytes == total_out && size_known &&
             taken_bytes == total_in)) {
      const uint64_t seen = signal.Snapshot();
      bool progress = try_send();
      progress |= poll_recv();
      progress |= poll_credits();
      progress |= poll_closes();
      if (progress) {
        signal.Reset();
        continue;
      }
      // Blocked with nothing to do: a full threshold of owed credits goes
      // back now — the partner may be stalled on exactly these.
      flush_credits(/*closing=*/false);
      signal.IdleWait(seen);
    }
    DEMSORT_CHECK(close_sent);
    DEMSORT_CHECK(inflight.empty());
    poll_credits();
    if (!close_seen) {
      closes.push_back(PendingClose{q, std::move(credit_rr)});
    }
    tuning.chunk_bytes = chunk;
    my_stats.SetStreamChunkBytes(chunk);
  }

  // Absorb the remaining closes. Safe to block: a pending close only needs
  // its sender to finish consuming our (fully sent) stream, which requires
  // nothing further from this PE.
  for (PendingClose& pc : closes) {
    while (!absorb_credit_msg(pc.rr.TakeFrame(), nullptr)) {
      pc.rr = Irecv(pc.peer, credit_tag);
    }
  }
  for (auto& [sr, n] : outstanding) sr.Wait();
}

// ---------------------------------------------------------------------------
// Two-level (node-aware) collectives: node-local traffic stays on the
// shared-memory path, only the node leaders cross node boundaries. See the
// README's "Topology & hierarchy" section.

namespace {

/// The leader sub-communicator's transport view: sub rank n is node n's
/// leader on the underlying full transport; tags pass through unchanged
/// (the sub-comm draws them from its own half of the collective window).
class LeaderTransport : public Transport {
 public:
  LeaderTransport(Transport* base, const Topology* topo)
      : base_(base), topo_(topo) {}

  int num_pes() const override { return topo_->num_nodes(); }
  SendRequest Isend(int src, int dst, int tag, const void* data,
                    size_t bytes) override {
    return base_->Isend(g(src), g(dst), tag, data, bytes);
  }
  SendRequest IsendGather(int src, int dst, int tag, const void* header,
                          size_t header_bytes, const void* data,
                          size_t bytes) override {
    return base_->IsendGather(g(src), g(dst), tag, header, header_bytes,
                              data, bytes);
  }
  RecvRequest Irecv(int dst, int src, int tag) override {
    return base_->Irecv(g(dst), g(src), tag);
  }
  void KillPe(int pe, const Status& status) override {
    base_->KillPe(g(pe), status);
  }
  void KillLink(int a, int b, const Status& status) override {
    base_->KillLink(g(a), g(b), status);
  }
  NetStats& stats(int pe) override { return base_->stats(g(pe)); }

 private:
  int g(int sub) const { return topo_->leader_of(sub); }

  Transport* base_;
  const Topology* topo_;
};

/// Framing of every node-local delivery of the two-level streaming
/// exchange: the one direct frame a PE sends each same-node peer, and the
/// pieces the leader forwards as cross-node chunks land.
struct HierForwardHeader {
  uint32_t src = 0;          ///< global source PE
  uint32_t last = 0;         ///< 1 = final piece of (src -> this PE)
  uint64_t total_bytes = 0;  ///< the (src -> this PE) payload size
};
static_assert(sizeof(HierForwardHeader) == 16);
static_assert(std::is_trivially_copyable_v<HierForwardHeader>);

/// One (src PE, dst PE) segment of a node-to-node aggregate stream. The
/// aggregate is [u64 count][count entries][payloads in entry order].
struct HierAggEntry {
  uint32_t src = 0;
  uint32_t dst = 0;
  uint64_t bytes = 0;
};
static_assert(sizeof(HierAggEntry) == 16);
static_assert(std::is_trivially_copyable_v<HierAggEntry>);

/// Zero bytes after the entry table that bring the aggregate header to an
/// `align` multiple, so with the engine chunking at `align` granularity
/// every chunk boundary — and hence every forwarded piece — falls on a
/// record boundary. Deterministic from (count, align) on both sides.
size_t AggHeaderPad(uint64_t entry_count, uint64_t align) {
  const uint64_t head =
      sizeof(uint64_t) + entry_count * sizeof(HierAggEntry);
  return static_cast<size_t>((align - head % align) % align);
}

}  // namespace

Comm& Comm::LeaderComm() {
  DEMSORT_CHECK(TwoLevelActive());
  const Topology& topo = *topology_;
  DEMSORT_CHECK(topo.is_leader(rank_));
  if (leader_comm_ == nullptr) {
    leader_transport_ =
        std::make_unique<LeaderTransport>(transport_, topology_);
    leader_comm_ = std::make_unique<Comm>(
        topo.node_of(rank_), topo.num_nodes(), leader_transport_.get());
    leader_comm_->tag_offset_ = kCollectiveTagSpace / 2;
    leader_comm_->tag_limit_ = kCollectiveTagSpace / 2;
  }
  // Keep the sub-comm's tuning in lockstep with the parent's knobs (the
  // adaptive-chunk state persists on the sub-comm itself).
  leader_comm_->send_window_bytes_ = send_window_bytes_;
  leader_comm_->stream_chunk_bytes_ = stream_chunk_bytes_;
  return *leader_comm_;
}

void Comm::BarrierTwoLevel() {
  // Local arrival fan-in to the leader, dissemination barrier among the
  // leaders, shared-memory release fan-out.
  const Topology& topo = *topology_;
  const int tag = AllocateCollectiveTag();
  const int my_node = topo.node_of(rank_);
  const int node_leader = topo.leader_of(my_node);
  uint8_t token = 1;
  if (rank_ != node_leader) {
    RecvRequest release = Irecv(node_leader, tag);
    Isend(node_leader, tag, &token, 1).Wait();
    release.Wait();
    return;
  }
  const int first = topo.node_first(my_node);
  const int k = topo.node_size(my_node);
  std::vector<RecvRequest> arrivals;
  arrivals.reserve(k - 1);
  for (int q = first; q < first + k; ++q) {
    if (q != rank_) arrivals.push_back(Irecv(q, tag));
  }
  for (RecvRequest& rr : arrivals) rr.Wait();
  LeaderComm().Barrier();
  std::vector<SendRequest> releases;
  releases.reserve(k - 1);
  for (int q = first; q < first + k; ++q) {
    if (q != rank_) releases.push_back(Isend(q, tag, &token, 1));
  }
  for (SendRequest& s : releases) s.Wait();
}

void Comm::BroadcastTwoLevel(int root, std::vector<uint8_t>& data) {
  // Three hops: a non-leader root hands the payload to its node leader,
  // the leaders run the binomial tree among themselves (sub rank == node),
  // and every leader fans out over shared memory.
  const Topology& topo = *topology_;
  const int tag = AllocateCollectiveTag();
  const int root_node = topo.node_of(root);
  const int root_leader = topo.leader_of(root_node);
  const int my_node = topo.node_of(rank_);
  const int my_leader = topo.leader_of(my_node);
  if (rank_ == root && root != root_leader) {
    Send(root_leader, tag, data.data(), data.size());
  }
  if (rank_ == root_leader && root != root_leader) {
    data = Recv(root, tag);
  }
  if (rank_ == my_leader) {
    LeaderComm().Broadcast(root_node, data);
    std::vector<SendRequest> fans;
    const int first = topo.node_first(my_node);
    for (int q = first; q < first + topo.node_size(my_node); ++q) {
      if (q == rank_ || q == root) continue;  // the root already has it
      fans.push_back(Isend(q, tag, data.data(), data.size()));
    }
    for (SendRequest& s : fans) s.Wait();
  } else if (rank_ != root) {
    data = Recv(my_leader, tag);
  }
}

std::vector<std::vector<uint8_t>> Comm::AllgatherBytesTwoLevel(
    const std::vector<uint8_t>& local) {
  // Node gather over shared memory, ONE rank-framed blob per node among
  // the leaders, full-result fan-out over shared memory: the uplink moves
  // each node's contribution once per peer node instead of once per peer
  // PE pair.
  const Topology& topo = *topology_;
  const int up_tag = AllocateCollectiveTag();
  const int down_tag = AllocateCollectiveTag();
  const int my_node = topo.node_of(rank_);
  const int node_leader = topo.leader_of(my_node);
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> all;
  if (rank_ != node_leader) {
    Send(node_leader, up_tag, local.data(), local.size());
    UnpackRankedParts(Recv(node_leader, down_tag), &all);
  } else {
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> parts;
    parts.emplace_back(static_cast<uint32_t>(rank_), local);
    const int first = topo.node_first(my_node);
    for (int q = first; q < first + topo.node_size(my_node); ++q) {
      if (q != rank_) {
        parts.emplace_back(static_cast<uint32_t>(q), Recv(q, up_tag));
      }
    }
    std::vector<std::vector<uint8_t>> node_blobs =
        LeaderComm().AllgatherV<uint8_t>(PackRankedParts(parts));
    for (const std::vector<uint8_t>& blob : node_blobs) {
      UnpackRankedParts(blob, &all);
    }
    std::vector<uint8_t> full = PackRankedParts(all);
    std::vector<SendRequest> fans;
    for (int q = first; q < first + topo.node_size(my_node); ++q) {
      if (q != rank_) {
        fans.push_back(Isend(q, down_tag, full.data(), full.size()));
      }
    }
    for (SendRequest& s : fans) s.Wait();
  }
  DEMSORT_CHECK_EQ(all.size(), static_cast<size_t>(size_));
  std::vector<std::vector<uint8_t>> out(size_);
  for (auto& [rank, bytes] : all) {
    DEMSORT_CHECK_LT(rank, static_cast<uint32_t>(size_));
    out[rank] = std::move(bytes);
  }
  return out;
}

// The two-level streaming exchange. Intra-node payloads travel whole over
// shared memory (cut to chunk-size spans only at the consumer); cross-node
// payloads flow to the node leader as one pooled segment frame per
// (source PE, remote destination) pair, are streamed leader-to-leader by
// the flat engine as per-node aggregates — the credit-piggyback protocol
// runs between the node leaders — and are scattered to their
// destination PEs AS THE CHUNKS LAND. Every byte crosses its node
// boundary exactly once, and the uplink carries N-1 aggregate streams per
// node instead of one stream per PE pair.
//
// Memory: the SEND side holds the node's outgoing cross-node payload on
// the leader (like the paper's bulk-synchronous sub-step buffers bound it
// per sub-step) — but as the landed segment frames themselves, streamed
// from in place via the engine's segmented provider, never concatenated;
// the RECEIVE side stays streamed end to end — the engine's
// O(credit x chunk) bound holds per source NODE, and landed pieces leave
// the leader for their destination PE immediately.
void Comm::AlltoallvStreamTwoLevel(const StreamSendProvider& send_for,
                                   const ChunkConsumer& consumer,
                                   const StreamSizeCallback& on_size,
                                   const StreamOptions& options) {
  const ResolvedStreamTuning tune = ResolveStreamTuning(options);
  DEMSORT_CHECK_GT(tune.base_chunk_bytes, 0u);
  const Topology& topo = *topology_;
  const int P = size_;
  const int me = rank_;
  const int my_node = topo.node_of(me);
  const int node_leader = topo.leader_of(my_node);
  const int first = topo.node_first(my_node);
  const int k = topo.node_size(my_node);
  const int N = topo.num_nodes();
  const int pack_tag = AllocateCollectiveTag();
  const int fwd_tag = AllocateCollectiveTag();

  // Consumer-side bookkeeping: the size announcement once per source, at
  // most one last, pieces cut to the <= max-chunk contract (align-safe:
  // the base chunk is an align multiple and forwarded pieces are cut at
  // record boundaries).
  std::vector<char> announced(P, 0);
  std::vector<char> closed(P, 0);
  int open_sources = P;
  auto dispatch = [&](int src, std::span<const uint8_t> piece, bool last,
                      uint64_t total) {
    DEMSORT_CHECK(!closed[src]) << "piece after last from " << src;
    if (!announced[src]) {
      announced[src] = 1;
      if (on_size) on_size(src, total);
    }
    if (piece.empty()) {
      if (last) {
        consumer(src, {}, true);
        closed[src] = 1;
        --open_sources;
      }
      return;
    }
    const uint64_t cut = tune.base_chunk_bytes;
    for (uint64_t off = 0; off < piece.size(); off += cut) {
      const uint64_t n = std::min<uint64_t>(cut, piece.size() - off);
      consumer(src, piece.subspan(off, n), last && off + n == piece.size());
    }
    if (last) {
      closed[src] = 1;
      --open_sources;
    }
  };

  // ---- 1. Visit every destination exactly once (the provider's span is
  // only valid until the next call, so each is consumed immediately):
  // self zero-copy, same-node peers as one direct shared-memory frame
  // each, remote destinations appended to the per-node pack.
  //
  // The LEADER skips the pack scratch entirely and lays the aggregate
  // header out in its final wire form up front: the aggregate for node nd
  // always holds exactly k x node_size(nd) entries (one per
  // local-PE/remote-PE pair, empty segments included), so the header
  // region can be sized before any peer pack arrives. The leader's own
  // payload is written once, directly behind the entry table; local
  // peers' payloads are never copied on the leader at all — their pack
  // frames become send segments in step 3a. Entry slots are filled in
  // stream order: the leader's own segments first, then each local
  // peer's in rank order.
  std::vector<SendRequest> sends;
  std::vector<std::vector<uint8_t>> agg(N);   // leader only
  std::vector<size_t> agg_entry_off(N, 0);    // next unfilled entry slot
  if (me == node_leader) {
    for (int nd = 0; nd < N; ++nd) {
      if (nd == my_node) continue;
      const uint64_t count =
          static_cast<uint64_t>(k) * static_cast<uint64_t>(topo.node_size(nd));
      // Padded to the record size, so the engine's align-granular chunk
      // boundaries land on record boundaries throughout the payload
      // region (the demux fast path).
      const size_t head = sizeof(uint64_t) +
                          static_cast<size_t>(count) * sizeof(HierAggEntry);
      agg[nd].resize(head + AggHeaderPad(count, tune.align_bytes), uint8_t{0});
      std::memcpy(agg[nd].data(), &count, sizeof(count));
      agg_entry_off[nd] = sizeof(uint64_t);
    }
  }
  auto agg_put_entry = [&](int nd, const HierAggEntry& e) {
    std::memcpy(agg[nd].data() + agg_entry_off[nd], &e, sizeof(e));
    agg_entry_off[nd] += sizeof(e);
  };
  for (int dst = 0; dst < P; ++dst) {
    if (dst == me) {
      std::span<const uint8_t> mine = send_for(me);
      dispatch(me, mine, /*last=*/true, mine.size());
      continue;
    }
    std::span<const uint8_t> payload = send_for(dst);
    if (topo.same_node(dst, me)) {
      HierForwardHeader hdr{static_cast<uint32_t>(me), 1, payload.size()};
      sends.push_back(IsendGather(dst, fwd_tag, &hdr, sizeof(hdr),
                                  payload.data(), payload.size()));
      continue;
    }
    const int nd = topo.node_of(dst);
    const HierAggEntry e{static_cast<uint32_t>(me), static_cast<uint32_t>(dst),
                         payload.size()};
    if (me == node_leader) {
      agg_put_entry(nd, e);
      agg[nd].insert(agg[nd].end(), payload.begin(), payload.end());
    } else {
      // ---- 2. Non-leaders ship each segment to the leader NOW, one
      // frame per remote destination ([HierAggEntry | payload], one copy,
      // straight into the pooled frame — no pack scratch), in destination
      // order (the leader reads them back FIFO). A store-and-forward hop,
      // not logical traffic: the byte is counted where it really travels,
      // on the uplink.
      sends.push_back(IsendGatherForward(node_leader, pack_tag, &e, sizeof(e),
                                         payload.data(), payload.size()));
    }
  }

  if (me == node_leader) {
    // ---- 3a. Land each local peer's segment frames (peer rank order,
    // destinations ascending within a peer — exactly the order step 1
    // sent them): the entry goes into its pre-sized header slot, the
    // entry header is Consume'd off the pooled frame, and the frame
    // itself becomes a send segment the engine streams from directly —
    // a local peer's payload is never copied on the leader.
    std::vector<std::vector<Frame>> packs(N);  // per nd, in stream order
    for (int q = first; q < first + k; ++q) {
      if (q == me) continue;
      for (int nd = 0; nd < N; ++nd) {
        if (nd == my_node) continue;
        for (int j = 0; j < topo.node_size(nd); ++j) {
          // Taken as a Frame so the buffer recycles into the pool.
          Frame seg = Irecv(q, pack_tag).TakeFrame();
          DEMSORT_CHECK_GE(seg.size(), sizeof(HierAggEntry));
          HierAggEntry e;
          std::memcpy(&e, seg.data(), sizeof(e));
          DEMSORT_CHECK_EQ(static_cast<int>(e.src), q);
          DEMSORT_CHECK_EQ(topo.node_of(static_cast<int>(e.dst)), nd);
          DEMSORT_CHECK_EQ(seg.size(), sizeof(e) + e.bytes);
          agg_put_entry(nd, e);
          seg.Consume(sizeof(e));
          // Zero-copy only pays for segments worth at least one per-pair
          // chunk: the engine cuts wire chunks at segment boundaries, so
          // keeping a tiny payload as its own segment would cost a wire
          // message where flat pays one chunk. Tiny segments coalesce
          // into the aggregate buffer instead (stream order allows it
          // only while no frame segment precedes them).
          if (seg.size() < tune.base_chunk_bytes && packs[nd].empty()) {
            agg[nd].insert(agg[nd].end(), seg.data(),
                           seg.data() + seg.size());
          } else {
            packs[nd].push_back(std::move(seg));
          }
        }
      }
    }
    // The aggregate stream for node nd: [header + own payload] followed by
    // each peer's pack payload, in place. Segment boundaries are record
    // boundaries (payload sizes are whole records), so the engine's cuts
    // keep the demux fast path intact.
    std::vector<std::vector<std::span<const uint8_t>>> agg_segs(N);
    for (int nd = 0; nd < N; ++nd) {
      if (nd == my_node) continue;
      agg_segs[nd].reserve(1 + packs[nd].size());
      agg_segs[nd].push_back(std::span<const uint8_t>(agg[nd]));
      for (const Frame& f : packs[nd]) {
        agg_segs[nd].push_back(f.span());
      }
    }

    // ---- 3b. Leader-to-leader streaming rounds. Each landed chunk is
    // demuxed against the aggregate's entry table and forwarded (or, for
    // this leader's own traffic, consumed) piece by piece. Chunks arrive
    // as pooled frames and are parsed IN PLACE: a chunk that lies entirely
    // within one segment moves to its destination PE whole (the forward
    // header Prepend'ed into the frame's headroom — zero copy); only
    // segment-straddling cuts and partial framing units are copied.
    struct NodeDemux {
      bool have_count = false;
      uint64_t entry_count = 0;
      uint64_t pad_left = 0;  // header pad (see AggHeaderPad) still to skip
      std::vector<HierAggEntry> entries;
      size_t entry_idx = 0;
      uint64_t seg_sent = 0;
      std::vector<uint8_t> buf;  // a split tail awaiting the next chunk
    };
    std::vector<NodeDemux> demux(N);
    const uint64_t align = tune.align_bytes;
    auto forward = [&](const HierAggEntry& e, std::span<const uint8_t> piece,
                       bool piece_last) {
      const int dst = static_cast<int>(e.dst);
      DEMSORT_CHECK(topo.same_node(dst, me))
          << "aggregate entry for PE " << dst << " misrouted to node "
          << my_node;
      if (dst == me) {
        dispatch(static_cast<int>(e.src), piece, piece_last, e.bytes);
        return;
      }
      HierForwardHeader hdr{e.src, piece_last ? 1u : 0u, e.bytes};
      SendRequest sr = IsendGatherForward(dst, fwd_tag, &hdr, sizeof(hdr),
                                          piece.data(), piece.size());
      if (sr.done()) {
        // Shared-memory sends complete inline — including the FAILED
        // completion of a send to a dead local PE, which must surface as
        // CommError here, not be dropped.
        sr.Wait();
      } else {
        sends.push_back(std::move(sr));
      }
    };
    // Whole-frame forward: the chunk frame itself moves to the destination
    // PE's mailbox, the forward header written into the headroom the
    // uplink and chunk headers left behind. Falls back to the copying
    // span path for this leader's own traffic and headroom-less frames.
    auto forward_frame = [&](const HierAggEntry& e, Frame frame,
                             bool piece_last) {
      const int dst = static_cast<int>(e.dst);
      if (dst == me || frame.headroom() < sizeof(HierForwardHeader)) {
        forward(e, frame.span(), piece_last);
        return;
      }
      HierForwardHeader hdr{e.src, piece_last ? 1u : 0u, e.bytes};
      frame.Prepend(&hdr, sizeof(hdr));
      SendRequest sr = IsendFrameForward(dst, fwd_tag, std::move(frame));
      if (sr.done()) {
        sr.Wait();
      } else {
        sends.push_back(std::move(sr));
      }
    };
    // In-place demux of one landed chunk frame — the one aggregate parser.
    // Framing units — count, entry table, header pad — are parsed with
    // Frame::Consume; payload bytes are forwarded either as the moved frame
    // (chunk entirely inside one segment, the common case with aligned
    // streams) or as a span cut at the segment boundary. Whatever cannot
    // make whole-unit progress is stashed into dx.buf; the node's next
    // chunk is appended to it and the joined bytes come back here as one
    // frame.
    auto in_place = [&](NodeDemux& dx, Frame frame) {
      auto stash_rest = [&](Frame& f) {
        dx.buf.insert(dx.buf.end(), f.data(), f.data() + f.size());
      };
      if (!dx.have_count) {
        if (frame.size() < sizeof(uint64_t)) {
          stash_rest(frame);
          return;
        }
        std::memcpy(&dx.entry_count, frame.data(), sizeof(uint64_t));
        frame.Consume(sizeof(uint64_t));
        dx.have_count = true;
        dx.entries.reserve(static_cast<size_t>(dx.entry_count));
        dx.pad_left = AggHeaderPad(dx.entry_count, align);
      }
      while (dx.entries.size() < dx.entry_count &&
             frame.size() >= sizeof(HierAggEntry)) {
        HierAggEntry e;
        std::memcpy(&e, frame.data(), sizeof(e));
        frame.Consume(sizeof(e));
        dx.entries.push_back(e);
      }
      if (dx.entries.size() < dx.entry_count) {
        stash_rest(frame);
        return;
      }
      if (dx.pad_left > 0) {
        const size_t skip =
            std::min<size_t>(static_cast<size_t>(dx.pad_left), frame.size());
        frame.Consume(skip);
        dx.pad_left -= skip;
        if (dx.pad_left > 0) return;
      }
      while (dx.entry_idx < dx.entries.size()) {
        const HierAggEntry& e = dx.entries[dx.entry_idx];
        if (e.bytes == 0) {
          forward(e, {}, true);
          ++dx.entry_idx;
          continue;
        }
        if (frame.empty()) return;
        const uint64_t remaining = e.bytes - dx.seg_sent;
        if (frame.size() <= remaining) {
          // The whole rest of the frame belongs to this one segment.
          const bool seg_last = frame.size() == remaining;
          if (!seg_last && frame.size() % align != 0) {
            // Misaligned mid-segment tail (an unaligned final engine
            // chunk): forward whole records, buffer the fragment.
            const uint64_t take = frame.size() / align * align;
            if (take > 0) {
              forward(e, frame.span().subspan(0, take), false);
              frame.Consume(static_cast<size_t>(take));
              dx.seg_sent += take;
            }
            stash_rest(frame);
            return;
          }
          dx.seg_sent += frame.size();
          if (seg_last) {
            ++dx.entry_idx;
            dx.seg_sent = 0;
          }
          forward_frame(e, std::move(frame), seg_last);
          // Zero-byte segments after the moved frame need no bytes.
          while (dx.entry_idx < dx.entries.size() &&
                 dx.entries[dx.entry_idx].bytes == 0) {
            forward(dx.entries[dx.entry_idx], {}, true);
            ++dx.entry_idx;
          }
          return;
        }
        // The frame runs past this segment: complete it with a span cut —
        // the one remaining copy of the demux.
        forward(e, frame.span().subspan(0, static_cast<size_t>(remaining)),
                true);
        frame.Consume(static_cast<size_t>(remaining));
        ++dx.entry_idx;
        dx.seg_sent = 0;
      }
      DEMSORT_CHECK(frame.empty())
          << "trailing aggregate bytes past the entry table";
    };
    // The chunk knob is sized for ONE pair stream, but a leader-to-leader
    // aggregate multiplexes every pair flow between the two nodes (up to
    // k x k_peer of them) into one stream — cutting it at the per-pair
    // chunk would put k^2 more serial chunks on the credit-gated critical
    // path than any flat pair exchange pays. Scale the engine's chunk by
    // the aggregation factor (capped so the O(credit x chunk) receive
    // bound per source node stays modest) so a leader round costs about
    // as many credit round-trips as a flat round; downstream contracts
    // are unaffected because forwarded pieces are re-cut to the per-PE
    // chunk before reaching any consumer.
    constexpr uint64_t kLeaderChunkCapBytes = uint64_t{1} << 20;
    // The scaled options are a two-sided protocol: chunk_bytes bounds what
    // the receiving engine accepts and credit_unit denominates the credits
    // both ends exchange, so EVERY leader must resolve identical values —
    // the factor is derived from the topology-global shape (the product of
    // the two largest node sizes, an upper bound on k_src x k_dst over all
    // leader pairs), never from this leader's own k: on uneven shapes like
    // {1,2,2} a local factor would differ per leader and the mismatched
    // credit units deadlock the stream.
    uint64_t top1 = 1, top2 = 1;
    for (int nd = 0; nd < N; ++nd) {
      const uint64_t s = static_cast<uint64_t>(topo.node_size(nd));
      if (s > top1) {
        top2 = top1;
        top1 = s;
      } else if (s > top2) {
        top2 = s;
      }
    }
    const uint64_t agg_factor = top1 * (N > 1 ? top2 : uint64_t{1});
    auto scale_chunk = [&](uint64_t per_pair_chunk) {
      return std::min(kLeaderChunkCapBytes,
                      std::max(per_pair_chunk, per_pair_chunk * agg_factor));
    };
    StreamOptions engine_options;
    engine_options.chunk_bytes = scale_chunk(tune.base_chunk_bytes);
    // Chunk at record granularity (the header is padded to match), so
    // chunk boundaries fall on record boundaries and landed frames can
    // move to their destination PE whole.
    engine_options.align_bytes = tune.align_bytes;
    engine_options.min_chunk_bytes = scale_chunk(tune.min_chunk_bytes);
    engine_options.max_chunk_bytes = scale_chunk(tune.max_chunk_bytes);
    // Coarser wire chunks must not shrink the credit economy: denominate
    // credits in per-pair chunks (one wire chunk carries agg_factor of
    // them), so cluster-wide credit totals — and the piggyback ratio the
    // counters report — match the flat engine's for the same payload.
    engine_options.credit_unit = std::max<uint64_t>(
        1, engine_options.chunk_bytes / tune.base_chunk_bytes);
    LeaderComm().AlltoallvStreamFlat(
        /*send_for=*/nullptr,
        /*consumer=*/nullptr,
        /*on_size=*/nullptr, engine_options,
        [&](int nd, Frame chunk, bool last) {
          if (nd == my_node) {
            DEMSORT_CHECK(chunk.empty());
            return;
          }
          NodeDemux& dx = demux[nd];
          if (dx.buf.empty()) {
            in_place(dx, std::move(chunk));
          } else {
            // A split tail is stashed: complete it with this chunk and parse
            // the joined bytes as one frame (its own leftover re-stashes).
            std::vector<uint8_t> joined = std::move(dx.buf);
            dx.buf.clear();
            joined.insert(joined.end(), chunk.data(),
                          chunk.data() + chunk.size());
            in_place(dx, Frame(std::move(joined)));
          }
          if (last) {
            DEMSORT_CHECK(dx.have_count);
            DEMSORT_CHECK_EQ(dx.pad_left, 0u);
            DEMSORT_CHECK(dx.buf.empty())
                << "trailing aggregate bytes from node " << nd;
            DEMSORT_CHECK_EQ(dx.entry_idx, dx.entries.size());
            DEMSORT_CHECK_EQ(dx.entries.size(), dx.entry_count);
          }
        },
        [&](int nd) { return StreamSegments(agg_segs[nd]); });

    // ---- 3c. The local peers' direct frames to this leader waited in
    // shared memory while the engine ran: exactly one per peer.
    for (int q = first; q < first + k; ++q) {
      if (q == me) continue;
      Frame frame = Irecv(q, fwd_tag).TakeFrame();
      DEMSORT_CHECK_GE(frame.size(), sizeof(HierForwardHeader));
      HierForwardHeader hdr;
      std::memcpy(&hdr, frame.data(), sizeof(hdr));
      frame.Consume(sizeof(hdr));
      dispatch(static_cast<int>(hdr.src), frame.span(), hdr.last != 0,
               hdr.total_bytes);
    }
  } else {
    // ---- 3'. Non-leaders drain their node-local channels: one direct
    // frame per same-node peer, plus the leader's forwarded pieces of
    // every remote source (the leader's own direct frame shares its
    // channel; the headers demux). Polled so consumption streams across
    // sources as pieces land.
    std::vector<int> peers;
    peers.reserve(k - 1);
    for (int q = first; q < first + k; ++q) {
      if (q != me) peers.push_back(q);
    }
    RecvSignal signal;
    std::vector<RecvRequest> rr(peers.size());
    std::vector<char> chan_done(peers.size(), 0);
    for (size_t i = 0; i < peers.size(); ++i) {
      rr[i] = Irecv(peers[i], fwd_tag);
      rr[i].OnDone(signal.Hook());
    }
    int remote_left = P - k;
    size_t done_count = 0;
    while (done_count < peers.size()) {
      const uint64_t seen = signal.Snapshot();
      bool progress = false;
      for (size_t i = 0; i < peers.size(); ++i) {
        while (!chan_done[i] && rr[i].done()) {
          Frame frame = rr[i].TakeFrame();
          DEMSORT_CHECK_GE(frame.size(), sizeof(HierForwardHeader));
          HierForwardHeader hdr;
          std::memcpy(&hdr, frame.data(), sizeof(hdr));
          frame.Consume(sizeof(hdr));
          const int src = static_cast<int>(hdr.src);
          dispatch(src, frame.span(), hdr.last != 0, hdr.total_bytes);
          progress = true;
          if (hdr.last != 0 && !topo.same_node(src, me)) --remote_left;
          const bool channel_drained =
              peers[i] == node_leader
                  ? (closed[node_leader] != 0 && remote_left == 0)
                  : true;  // a non-leader peer sends exactly one frame
          if (channel_drained) {
            chan_done[i] = 1;
            ++done_count;
          } else {
            rr[i] = Irecv(peers[i], fwd_tag);
            rr[i].OnDone(signal.Hook());
          }
        }
      }
      if (progress) {
        signal.Reset();
      } else {
        signal.IdleWait(seen);
      }
    }
  }

  DEMSORT_CHECK_EQ(open_sources, 0)
      << "two-level exchange ended with open sources";
  for (SendRequest& s : sends) s.Wait();
}

uint64_t Comm::ExclusiveScanSum(uint64_t local) {
  std::vector<uint64_t> all = Allgather(local);
  uint64_t acc = 0;
  for (int p = 0; p < rank_; ++p) acc += all[p];
  return acc;
}

NetStatsSnapshot Comm::StatsSnapshot() const {
  return transport_->stats(rank_).Snapshot();
}

}  // namespace demsort::net
