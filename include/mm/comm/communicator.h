// Communicator: MPI-flavored typed point-to-point and collective operations
// over the simulated World. Collectives use binomial-tree algorithms
// (paper §III-C "Collective": tree-based patterns similar to MPICH
// allgather) so fan-in/fan-out costs scale as log(p).
//
// All operations are expressed against a *group* of world ranks, so
// sub-communicators (Split) behave like MPI_Comm_split — DBSCAN and Random
// Forest use them to recurse over left/right partitions.
//
// Failure handling (DESIGN.md §13): the blocking Recv* and plain
// collective calls assume immortal peers and abort (MM_CHECK) if a peer dies
// mid-wait. RecvBytesOr/RecvOr/RecvValueOr, AllReduceOr and BarrierOr are
// deadline-bounded: they return kPeerDead once the failure detector
// declares an expected peer dead (charging the detection latency to the
// virtual clock). Every collective propagates the verdict through its tree
// as poison envelopes, so no rank ever hangs. After a kPeerDead verdict,
// survivors call Revoke() + ShrinkAfterFailure() (or
// ckpt::CollectiveRecover) to fence the dead and continue on a shrunk
// communicator.
#pragma once

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "mm/comm/world.h"
#include "mm/util/status.h"

namespace mm::comm {

class Communicator {
 public:
  /// World communicator for `ctx`.
  explicit Communicator(RankContext* ctx);

  /// Sub-communicator over `group` (world ranks); `ctx->rank()` must be in
  /// the group.
  Communicator(RankContext* ctx, std::vector<int> group);

  int rank() const { return my_index_; }
  int size() const { return static_cast<int>(group_.size()); }
  int WorldRank(int index) const { return group_[index]; }
  RankContext& ctx() { return *ctx_; }

  // ---- point-to-point (ranks are communicator-local indices) ----

  /// Sends `bytes` to `dst`. The sender's clock advances past egress; the
  /// message is stamped with its simulated delivery time and a per-channel
  /// sequence number (injected duplicates are deduped by the receiver).
  void SendBytes(int dst, int tag, const void* data, std::size_t size);

  /// Blocking receive from `src` (or kAnySource). Advances the receiver's
  /// clock to the delivery time. Returns the payload. Aborts (MM_CHECK) if
  /// the peer dies while waiting — use RecvBytesOr on paths that must
  /// survive node death.
  std::vector<std::uint8_t> RecvBytes(int src, int tag,
                                      int* actual_src = nullptr);

  /// Deadline-bounded receive: returns kPeerDead once every rank that could
  /// still satisfy the match is declared dead by the failure detector (or
  /// the world is revoked by a survivor running recovery). The death
  /// verdict charges miss_threshold heartbeat intervals to the caller's
  /// virtual clock.
  StatusOr<std::vector<std::uint8_t>> RecvBytesOr(int src, int tag,
                                                  int* actual_src = nullptr);

  /// Typed convenience wrappers for trivially copyable element types.
  template <typename T>
  void Send(int dst, int tag, const std::vector<T>& data) {
    static_assert(std::is_trivially_copyable_v<T>);
    SendBytes(dst, tag, data.data(), data.size() * sizeof(T));
  }

  template <typename T>
  void SendValue(int dst, int tag, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    SendBytes(dst, tag, &value, sizeof(T));
  }

  /// Typed receive that degrades instead of aborting: kPeerDead when the
  /// sender died, kDataLoss when the payload is malformed (truncated or not
  /// a whole number of elements).
  template <typename T>
  StatusOr<std::vector<T>> RecvOr(int src, int tag, int* actual_src = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto bytes = RecvBytesOr(src, tag, actual_src);
    if (!bytes.ok()) return bytes.status();
    if (bytes->size() % sizeof(T) != 0) {
      return DataLoss("malformed payload: " + std::to_string(bytes->size()) +
                      " bytes is not a whole number of " +
                      std::to_string(sizeof(T)) + "-byte elements");
    }
    std::vector<T> out(bytes->size() / sizeof(T));
    std::memcpy(out.data(), bytes->data(), bytes->size());
    return out;
  }

  template <typename T>
  StatusOr<T> RecvValueOr(int src, int tag, int* actual_src = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto bytes = RecvBytesOr(src, tag, actual_src);
    if (!bytes.ok()) return bytes.status();
    if (bytes->size() != sizeof(T)) {
      return DataLoss("malformed payload: got " +
                      std::to_string(bytes->size()) + " bytes, want " +
                      std::to_string(sizeof(T)));
    }
    T value;
    std::memcpy(&value, bytes->data(), sizeof(T));
    return value;
  }

  template <typename T>
  std::vector<T> Recv(int src, int tag, int* actual_src = nullptr) {
    auto out = RecvOr<T>(src, tag, actual_src);
    MM_CHECK_MSG(out.ok(), out.status().ToString());
    return std::move(out).value();
  }

  template <typename T>
  T RecvValue(int src, int tag, int* actual_src = nullptr) {
    auto out = RecvValueOr<T>(src, tag, actual_src);
    MM_CHECK_MSG(out.ok(), out.status().ToString());
    return std::move(out).value();
  }

  // ---- collectives ----
  //
  // Each collective has one implementation: a binomial tree (or a root
  // fan-out/fan-in) whose messages carry a one-byte verdict header. A rank
  // whose parent or subtree failed still forwards a poison envelope to its
  // children, so the tree always unwinds and nobody hangs. The plain forms
  // abort (MM_CHECK) on a kPeerDead verdict; AllReduceOr and BarrierOr
  // return it, with the data partial or garbage, so the caller can run
  // recovery and redo the collective on the shrunk communicator.

  /// Synchronizes all communicator members and their virtual clocks. On
  /// the world communicator a rank death releases the survivors; on a
  /// sub-group it aborts.
  void Barrier();

  /// Death-aware barrier: synchronizes the *live* members and returns
  /// kPeerDead when any member of this communicator is dead at release —
  /// the caller must run recovery before trusting collective results.
  [[nodiscard]] Status BarrierOr();

  /// Barrier whose last-arriving member runs `serial` alone — with every
  /// other rank still parked — before anyone is released (see
  /// World::Barrier). Only valid on the world communicator: a sub-group
  /// cannot quiesce the whole job. The checkpoint collective is built on
  /// this.
  [[nodiscard]] Status BarrierSerial(
      const std::function<sim::SimTime(sim::SimTime)>& serial);

  /// Binomial-tree broadcast from `root` (communicator-local index).
  template <typename T>
  void Bcast(std::vector<T>& data, int root) {
    CheckCollective(BcastTree(data, root, StatusCode::kOk));
  }

  /// Tree reduction of per-rank vectors with `op` applied elementwise;
  /// result is valid on `root` only.
  template <typename T, typename Op>
  void Reduce(std::vector<T>& data, int root, Op op) {
    CheckCollective(ReduceTree(data, root, op));
  }

  /// Reduce + Bcast.
  template <typename T, typename Op>
  void AllReduce(std::vector<T>& data, Op op) {
    CheckCollective(AllReduceOr(data, op));
  }

  /// Death-aware AllReduce: kPeerDead on every survivor when a member died
  /// mid-collective.
  template <typename T, typename Op>
  [[nodiscard]] Status AllReduceOr(std::vector<T>& data, Op op) {
    Status rs = ReduceTree(data, /*root=*/0, op);
    // The root seeds the broadcast with the reduction's verdict so every
    // survivor learns the collective failed, not just the root.
    Status bs = BcastTree(data, /*root=*/0,
                          my_index_ == 0 ? rs.code() : StatusCode::kOk);
    return !rs.ok() ? rs : bs;
  }

  /// Gathers variable-length vectors to `root`; result on root is indexed by
  /// communicator-local rank.
  template <typename T>
  std::vector<std::vector<T>> GatherV(const std::vector<T>& mine, int root);

  /// GatherV + Bcast of the concatenation.
  template <typename T>
  std::vector<T> AllGatherV(const std::vector<T>& mine);

  /// Scatters `parts[i]` from root to rank i.
  template <typename T>
  std::vector<T> ScatterV(const std::vector<std::vector<T>>& parts, int root);

  /// Creates a sub-communicator: ranks sharing `color` form a group ordered
  /// by current rank. Collective over this communicator.
  Communicator Split(int color);

  // ---- recovery (DESIGN.md §13 fencing protocol) ----

  /// Marks the world revoked: all pending/future cancellable receives
  /// return kPeerDead, pulling every survivor out of half-finished
  /// collectives and into the recovery barrier. Call on a kPeerDead
  /// verdict, before ShrinkAfterFailure / ckpt::CollectiveRecover.
  void Revoke() { ctx_->world().Revoke(); }

  /// Survivor communicator: the live members of this group in order, with a
  /// fresh tag epoch so stale in-flight messages from the failed epoch can
  /// never match. Purely local — membership is shared state, so all
  /// survivors compute the same group without communicating. Call only
  /// after a synchronization point (ShrinkAfterFailure does it for you).
  Communicator Shrink();

  /// Post-failure membership reconciliation on the world communicator:
  /// synchronizes all live ranks, fences the dead (purges their undelivered
  /// messages), clears the revocation, and returns the survivor
  /// communicator.
  StatusOr<Communicator> ShrinkAfterFailure();

 private:
  /// One collective message as received: the verdict byte, then the
  /// payload.
  struct Envelope {
    std::vector<std::uint8_t> bytes;
    int src_world = -1;
    StatusCode code() const { return static_cast<StatusCode>(bytes[0]); }
  };

  int TagFor(int user_tag) const {
    // A user tag must fit the low 16 bits; anything wider would silently
    // collide with another Split generation's tag space.
    MM_CHECK_MSG(user_tag >= 0 && (user_tag & ~0xFFFF) == 0,
                 "comm tag must be within [0, 65535]");
    return (color_epoch_ << 16) | user_tag;
  }

  /// Comm-op entry hook: triggers the configured self-kill and stops
  /// already-dead (zombie) ranks from sending. Throws RankDeathError.
  void CheckAlive();

  /// Core bounded receive: blocks for a message with `wire_tag` from any of
  /// `srcs_world` (all group members but me when empty); cancels with
  /// kPeerDead when every candidate is dead or the world is revoked.
  StatusOr<std::vector<std::uint8_t>> RecvBytesMatch(
      const std::vector<int>& srcs_world, int wire_tag, int* actual_src_world);

  /// SendBytes over an already-built payload, which becomes the message.
  void SendMessage(int dst, int tag, std::vector<std::uint8_t> payload);

  /// Shared barrier body: the World barrier on the world communicator, an
  /// empty tree all-reduce on a sub-group.
  Status SyncMembers();

  static void CheckCollective(const Status& st) {
    MM_CHECK_MSG(st.ok(), st.ToString());
  }

  /// Envelope plumbing for the collectives (dst/pending are
  /// communicator-local indices). The verdict byte and the payload are
  /// copied into the message once.
  void SendEnvelope(int dst, int tag, StatusCode code, const void* data,
                    std::size_t size);
  StatusOr<Envelope> RecvEnvelope(const std::vector<int>& pending, int tag);

  template <typename T>
  void SendEnvelopeVec(int dst, int tag, StatusCode code,
                       const std::vector<T>& data) {
    static_assert(std::is_trivially_copyable_v<T>);
    SendEnvelope(dst, tag, code, data.data(), data.size() * sizeof(T));
  }

  /// Copies the payload straight from the received bytes into `*out`,
  /// whatever the verdict; kDataLoss when it is not whole elements.
  template <typename T>
  static Status DecodePayload(const Envelope& env, std::vector<T>* out) {
    const std::size_t size = env.bytes.size() - 1;
    if (size % sizeof(T) != 0) {
      return DataLoss("malformed envelope payload");
    }
    out->resize(size / sizeof(T));
    if (size > 0) std::memcpy(out->data(), env.bytes.data() + 1, size);
    return Status::Ok();
  }

  /// DecodePayload of an Ok envelope; kPeerDead for a poisoned one.
  template <typename T>
  static Status DecodeEnvelope(const Envelope& env, std::vector<T>* out) {
    if (env.code() != StatusCode::kOk) {
      return PeerDead("poisoned subtree: " +
                      std::string(StatusCodeName(env.code())));
    }
    return DecodePayload(env, out);
  }

  /// Binomial-tree broadcast of (verdict, data); `seed` lets the root
  /// originate a poison verdict (AllReduceOr).
  template <typename T>
  Status BcastTree(std::vector<T>& data, int root, StatusCode seed);

  /// Binomial-tree fan-in; each partial aggregate carries its subtree's
  /// verdict so a poisoned subtree is visible at the root.
  template <typename T, typename Op>
  Status ReduceTree(std::vector<T>& data, int root, Op op);

  RankContext* ctx_;
  std::vector<int> group_;   // communicator index -> world rank
  std::vector<int> world_to_index_;  // world rank -> index (-1: not a member)
  int my_index_;
  int color_epoch_ = 0;      // disambiguates tags across Split generations
  telemetry::Counter* retransmit_counter_;      // mm.net.retransmit_count
  telemetry::Counter* heartbeat_miss_counter_;  // mm.net.heartbeat_miss_count
};

// ---- template implementations ----

template <typename T>
std::vector<std::vector<T>> Communicator::GatherV(const std::vector<T>& mine,
                                                  int root) {
  int n = size();
  constexpr int kTag = 0x3D;
  std::vector<std::vector<T>> all;
  if (my_index_ != root) {
    SendEnvelopeVec(root, kTag, StatusCode::kOk, mine);
    return all;
  }
  all.resize(static_cast<std::size_t>(n));
  all[root] = mine;
  std::vector<int> pending;
  pending.reserve(static_cast<std::size_t>(n) - 1);
  for (int i = 0; i < n; ++i) {
    if (i != root) pending.push_back(i);
  }
  // Waiting on the members not yet heard from (not on any source) keeps a
  // fast member's next contribution out of this gather, and turns a dead
  // member into an abort rather than a hang.
  while (!pending.empty()) {
    auto env = RecvEnvelope(pending, kTag);
    CheckCollective(env.status());
    int idx = world_to_index_[env->src_world];
    MM_CHECK(idx >= 0);
    CheckCollective(DecodeEnvelope(*env, &all[idx]));
    pending.erase(std::find(pending.begin(), pending.end(), idx));
  }
  return all;
}

template <typename T>
std::vector<T> Communicator::AllGatherV(const std::vector<T>& mine) {
  auto parts = GatherV(mine, /*root=*/0);
  std::vector<T> flat;
  if (my_index_ == 0) {
    for (auto& part : parts) {
      flat.insert(flat.end(), part.begin(), part.end());
    }
  }
  Bcast(flat, /*root=*/0);
  return flat;
}

template <typename T>
std::vector<T> Communicator::ScatterV(const std::vector<std::vector<T>>& parts,
                                      int root) {
  constexpr int kTag = 0x4E;
  int n = size();
  if (my_index_ == root) {
    MM_CHECK(static_cast<int>(parts.size()) == n);
    for (int i = 0; i < n; ++i) {
      if (i != root) SendEnvelopeVec(i, kTag, StatusCode::kOk, parts[i]);
    }
    return parts[root];
  }
  auto env = RecvEnvelope({root}, kTag);
  CheckCollective(env.status());
  std::vector<T> mine;
  CheckCollective(DecodeEnvelope(*env, &mine));
  return mine;
}

template <typename T>
Status Communicator::BcastTree(std::vector<T>& data, int root,
                               StatusCode seed) {
  // Binomial tree rooted at `root`. In relative ranks, a nonzero rank
  // receives from its parent (lowest set bit cleared) and then forwards to
  // rel + 2^j for j below its lowest set bit.
  int n = size();
  if (n == 1) return seed == StatusCode::kOk
                         ? Status::Ok()
                         : PeerDead("collective poisoned at root");
  int rel = (my_index_ - root + n) % n;
  constexpr int kTag = 0x1B;
  int rounds = 0;
  while ((1 << rounds) < n) ++rounds;
  Status st = Status::Ok();
  int start_j;
  if (rel != 0) {
    int low = __builtin_ctz(static_cast<unsigned>(rel));
    int parent_rel = rel & (rel - 1);
    auto env = RecvEnvelope({(parent_rel + root) % n}, kTag);
    if (!env.ok()) {
      st = env.status();  // parent dead: this subtree is poisoned
    } else {
      st = DecodeEnvelope(*env, &data);
    }
    start_j = low - 1;
  } else {
    if (seed != StatusCode::kOk) {
      st = PeerDead("collective poisoned at root");
    }
    start_j = rounds - 1;
  }
  // Forward either the data or the poison — children must never hang.
  for (int j = start_j; j >= 0; --j) {
    int child_rel = rel + (1 << j);
    if (child_rel < n) {
      if (st.ok()) {
        SendEnvelopeVec((child_rel + root) % n, kTag, StatusCode::kOk, data);
      } else {
        SendEnvelope((child_rel + root) % n, kTag, StatusCode::kPeerDead,
                     nullptr, 0);
      }
    }
  }
  if (!st.ok()) data.clear();
  return st;
}

template <typename T, typename Op>
Status Communicator::ReduceTree(std::vector<T>& data, int root, Op op) {
  int n = size();
  if (n == 1) return Status::Ok();
  int rel = (my_index_ - root + n) % n;
  constexpr int kTag = 0x2C;
  Status st = Status::Ok();
  // Binomial-tree fan-in: at round k, ranks with bit k set send to rel-2^k.
  for (int k = 0; (1 << k) < n; ++k) {
    if (rel & (1 << k)) {
      // Contribute upward, tagging the partial aggregate with our verdict
      // so a poisoned subtree is visible at the root.
      SendEnvelopeVec(((rel ^ (1 << k)) + root) % n, kTag, st.code(), data);
      return st;
    }
    int peer_rel = rel | (1 << k);
    if (peer_rel < n) {
      auto env = RecvEnvelope({(peer_rel + root) % n}, kTag);
      if (!env.ok()) {
        st = env.status();  // peer died: its whole subtree is missing
        continue;
      }
      if (env->code() != StatusCode::kOk) {
        st = PeerDead("poisoned subtree contribution");
      }
      std::vector<T> theirs;
      Status decode = DecodePayload(*env, &theirs);
      if (!decode.ok() || theirs.size() != data.size()) {
        st = !decode.ok() ? decode : PeerDead("partial subtree contribution");
        continue;
      }
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = op(data[i], theirs[i]);
      }
    }
  }
  return st;
}

}  // namespace mm::comm
