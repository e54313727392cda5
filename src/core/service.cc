#include "mm/core/service.h"

#include <pthread.h>

#include <algorithm>
#include <cstdio>

#include "mm/sim/cost_model.h"
#include "mm/telemetry/critpath.h"
#include "mm/telemetry/flightrec.h"
#include "mm/util/logging.h"

namespace mm::core {

namespace {
constexpr std::uint64_t kControlBytes = 64;  // task request envelope
// Reads and scores strictly below this size take the low-latency worker
// group (paper §III-B: 16 KB).
constexpr std::uint64_t kLowLatencyThreshold = 16 * kKiB;
// Score hints between Data Organizer rebalance sweeps (counted in hints,
// not in the batches that carry them).
constexpr std::uint64_t kOrganizeEvery = 64;
// Flight-recorder ring capacity in spans (most recent kept).
constexpr std::size_t kFlightRecCapacity = 256;

void Merge(sim::SimTime end, sim::SimTime* done) {
  if (done != nullptr) *done = std::max(*done, end);
}

const char* TaskKindName(MemoryTask::Kind kind) {
  switch (kind) {
    case MemoryTask::Kind::kGetPage:
      return "get_page";
    case MemoryTask::Kind::kWritePartial:
      return "write_partial";
    case MemoryTask::Kind::kScore:
      return "score";
    case MemoryTask::Kind::kStageOut:
      return "stage_out";
    case MemoryTask::Kind::kErase:
      return "erase";
    case MemoryTask::Kind::kBarrier:
      return "barrier";
  }
  return "task";
}

// Names are spelt out per kind so they stay literal (lint rule MML006
// validates literals).
telemetry::Histogram* TaskHistogram(telemetry::NodeSink sink,
                                    MemoryTask::Kind kind) {
  std::vector<double> bounds = telemetry::LatencyBoundsNs();
  switch (kind) {
    case MemoryTask::Kind::kGetPage:
      return sink.metrics->GetHistogram("mm.task.get_page_ns",
                                        std::move(bounds));
    case MemoryTask::Kind::kWritePartial:
      return sink.metrics->GetHistogram("mm.task.write_partial_ns",
                                        std::move(bounds));
    case MemoryTask::Kind::kScore:
      return sink.metrics->GetHistogram("mm.task.score_ns", std::move(bounds));
    case MemoryTask::Kind::kStageOut:
      return sink.metrics->GetHistogram("mm.task.stage_out_ns",
                                        std::move(bounds));
    case MemoryTask::Kind::kBarrier:
      return sink.metrics->GetHistogram("mm.task.barrier_ns",
                                        std::move(bounds));
    default:
      return sink.metrics->GetHistogram("mm.task.erase_ns", std::move(bounds));
  }
}

telemetry::Gauge* TierUsedGauge(telemetry::MetricsRegistry& reg,
                                sim::TierKind kind) {
  switch (kind) {
    case sim::TierKind::kDram:
      return reg.GetGauge("mm.tier.dram_used_bytes");
    case sim::TierKind::kNvme:
      return reg.GetGauge("mm.tier.nvme_used_bytes");
    case sim::TierKind::kSsd:
      return reg.GetGauge("mm.tier.ssd_used_bytes");
    case sim::TierKind::kHdd:
      return reg.GetGauge("mm.tier.hdd_used_bytes");
    default:
      return reg.GetGauge("mm.tier.pfs_used_bytes");
  }
}
}  // namespace

// ---------------------------------------------------------------------------
// NodeRuntime
// ---------------------------------------------------------------------------

NodeRuntime::NodeRuntime(Service* service, std::size_t node_id,
                         const ServiceOptions& options,
                         const std::vector<storage::TierGrant>& grants)
    : service_(service),
      node_id_(node_id),
      options_(options),
      tel_(service->telemetry_sink(node_id)),
      task_executed_(tel_.metrics->GetCounter("mm.task.executed_count")),
      queue_depth_(tel_.metrics->GetGauge("mm.task.queue_depth_count")),
      stager_read_bytes_(tel_.metrics->GetCounter("mm.stager.read_bytes")),
      stager_write_bytes_(tel_.metrics->GetCounter("mm.stager.write_bytes")),
      stager_errors_(tel_.metrics->GetCounter("mm.stager.errors_count")),
      stager_retries_(tel_.metrics->GetCounter("mm.stager.retries_count")),
      task_latency_{TaskHistogram(tel_, MemoryTask::Kind::kGetPage),
                    TaskHistogram(tel_, MemoryTask::Kind::kWritePartial),
                    TaskHistogram(tel_, MemoryTask::Kind::kScore),
                    TaskHistogram(tel_, MemoryTask::Kind::kStageOut),
                    TaskHistogram(tel_, MemoryTask::Kind::kErase),
                    TaskHistogram(tel_, MemoryTask::Kind::kBarrier)},
      ckpt_journal_bytes_(tel_.metrics->GetCounter("mm.ckpt.journal_bytes")),
      readpath_hit_(
          tel_.metrics->GetCounter("mm.readpath.fastpath_hit_count")),
      readpath_retry_(tel_.metrics->GetCounter("mm.readpath.retry_count")),
      readpath_fallback_(
          tel_.metrics->GetCounter("mm.readpath.fallback_count")),
      bm_(&service->cluster().node(node_id), grants,
          &service->fault_injector(), options.retry, tel_) {
  bm_.SetTierFailureHandler(
      [this](sim::TierKind kind, const std::vector<storage::BlobId>& lost,
             sim::SimTime now) {
        service_->OnTierFailure(node_id_, kind, lost, now);
      });
  int high = std::max(1, options_.workers_per_node);
  int low = std::max(0, options_.low_latency_workers);
  for (int i = 0; i < high; ++i) {
    high_queues_.push_back(std::make_unique<BlockingQueue<MemoryTask>>());
  }
  for (int i = 0; i < low; ++i) {
    low_queues_.push_back(std::make_unique<BlockingQueue<MemoryTask>>());
  }
  int wid = 0;
  auto spawn = [this, &wid](BlockingQueue<MemoryTask>* q, const char* group,
                            int i) {
    int id = wid++;
    workers_.emplace_back([this, q, id] { WorkerLoop(q, id); });
    // "n<node>-w<i>" (high-latency) or "n<node>-ll<i>" (low-latency), so
    // /proc/<pid>/task/*/comm tells workers from rank threads; names cap
    // at 15 characters.
    char name[16];
    std::snprintf(name, sizeof(name), "n%zu-%s%d", node_id_, group, i);
    pthread_setname_np(workers_.back().native_handle(), name);
  };
  for (int i = 0; i < high; ++i) spawn(high_queues_[i].get(), "w", i);
  for (int i = 0; i < low; ++i) spawn(low_queues_[i].get(), "ll", i);
}

NodeRuntime::~NodeRuntime() { Shutdown(); }

void NodeRuntime::Shutdown() {
  if (shut_down_.exchange(true)) return;
  for (auto& q : high_queues_) q->Close();
  for (auto& q : low_queues_) q->Close();
  for (auto& t : workers_) t.join();
  workers_.clear();
}

sim::SimTime NodeRuntime::Quiesce(sim::SimTime now) {
  // One barrier marker per queue: FIFO order guarantees that by the time a
  // marker's promise resolves, every task enqueued before it has executed.
  // Markers go straight to the queues — not through Submit's digest routing
  // — so every queue in both groups drains, and the depth gauge is mirrored
  // by hand for the same reason.
  std::vector<std::future<TaskOutcome>> pending;
  auto push_marker = [&](BlockingQueue<MemoryTask>* q) {
    MemoryTask marker;
    marker.kind = MemoryTask::Kind::kBarrier;
    marker.issue_time = now;
    marker.promise = std::make_shared<std::promise<TaskOutcome>>();
    std::future<TaskOutcome> fut = marker.promise->get_future();
    if (shut_down_.load(std::memory_order_acquire) ||
        !q->Push(std::move(marker))) {
      // Closed queue: its worker already drained and exited — nothing to
      // wait for (and the unfulfilled promise must not be waited on).
      return;
    }
    queue_depth_->Add(1);
    pending.push_back(std::move(fut));
  };
  for (auto& q : high_queues_) push_marker(q.get());
  for (auto& q : low_queues_) push_marker(q.get());
  sim::SimTime done = now;
  for (auto& fut : pending) {
    done = std::max(done, fut.get().done);
  }
  return done;
}

Status NodeRuntime::Submit(MemoryTask task) {
  bool is_write = task.kind == MemoryTask::Kind::kWritePartial ||
                  task.kind == MemoryTask::Kind::kStageOut ||
                  task.kind == MemoryTask::Kind::kErase;
  // Score batches route by (vector, source node), so every batch a rank
  // sends for a vector lands on one queue and a page's hints stay FIFO per
  // source; everything else routes by page.
  const std::uint64_t digest =
      task.kind == MemoryTask::Kind::kScore
          ? HashCombine(MixU64(task.id.vector_id), task.from_node)
          : task.id.Digest();
  // Writes always go to the (ordered, page-hashed) high-latency group so
  // same-page writes serialize; small reads and scores take the
  // low-latency group to dodge head-of-line blocking (paper §III-B).
  BlockingQueue<MemoryTask>* queue;
  if (!is_write && !low_queues_.empty() &&
      TaskBytes(task) < kLowLatencyThreshold) {
    queue = low_queues_[digest % low_queues_.size()].get();
  } else {
    queue = high_queues_[digest % high_queues_.size()].get();
  }
  // A shutdown race is an orderly rejection, not a crash: Push refuses
  // (without consuming the task) once the queue is closed, and the task's
  // promise — if any — is fulfilled so no waiter hangs.
  if (!shut_down_.load(std::memory_order_acquire) &&
      queue->Push(std::move(task))) {
    queue_depth_->Add(1);
    return Status::Ok();
  }
  Status st = FailedPrecondition("submit after runtime shutdown");
  if (task.promise != nullptr) {
    TaskOutcome out;
    out.status = st;
    out.done = task.issue_time;
    task.promise->set_value(std::move(out));
  }
  return st;
}

void NodeRuntime::WorkerLoop(BlockingQueue<MemoryTask>* queue, int worker_id) {
  // Worker log lines carry the node rank. No virtual-clock callback: tasks
  // carry their own issue times, there is no per-worker clock to sample.
  ScopedLogContext log_ctx(nullptr, static_cast<int>(node_id_));
  while (auto task = queue->Pop()) {
    queue_depth_->Add(-1);
    const MemoryTask::Kind kind = task->kind;
    const sim::SimTime issued = task->issue_time;
    const telemetry::TraceContext tctx = task->tctx;
    TaskOutcome outcome;
    {
      // Ambient context for the duration of the task: nested stager/tier
      // spans join the origin's flow without parameter plumbing.
      telemetry::TraceContextScope flow_scope(tctx);
      outcome = Execute(*task);
    }
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    task_executed_->Inc();
    task_latency_[static_cast<int>(kind)]->Observe((outcome.done - issued) *
                                                   1e9);
    if (tctx.valid()) {
      // Child span of the origin's flow; terminal tasks (async write
      // commits) close the flow, everything else is a plain step.
      tel_.trace->CompleteFlow(TaskKindName(kind), "task", tel_.node,
                               worker_id, issued, outcome.done, tctx,
                               task->trace_terminal ? 'f' : 't');
    } else {
      tel_.trace->Complete(TaskKindName(kind), "task", tel_.node, worker_id,
                           issued, outcome.done);
    }
    // Recycle the request payload (Execute consumed it) whether the task
    // succeeded or failed, so error paths do not leak buffers out of the
    // pool's circulation.
    if (task->data.capacity() > 0) pool_.Release(std::move(task->data));
    if (task->promise != nullptr) {
      task->promise->set_value(std::move(outcome));
    } else if (outcome.data.capacity() > 0) {
      // Fire-and-forget: nobody adopts the outcome, reuse its buffer.
      pool_.Release(std::move(outcome.data));
    }
  }
}

TaskOutcome NodeRuntime::Execute(MemoryTask& task) {
  // Every task pays the software dispatch cost before touching devices.
  task.issue_time += sim::CostModel::Default().task_dispatch_s;
  switch (task.kind) {
    case MemoryTask::Kind::kGetPage:
      return ExecuteGetPage(task);
    case MemoryTask::Kind::kWritePartial:
      return ExecuteWritePartial(task);
    case MemoryTask::Kind::kScore:
      return ExecuteScore(task);
    case MemoryTask::Kind::kStageOut:
      return ExecuteStageOut(task);
    case MemoryTask::Kind::kErase:
      return ExecuteErase(task);
    case MemoryTask::Kind::kBarrier: {
      // Quiesce marker: by FIFO order, every task enqueued before it has
      // executed. Nothing to do but report when the queue drained.
      TaskOutcome out;
      out.done = task.issue_time;
      return out;
    }
  }
  return TaskOutcome{Internal("unknown task kind"), {}, task.issue_time};
}

Status NodeRuntime::BackendIo(bool is_write, VectorMeta& meta,
                              std::uint64_t offset,
                              std::vector<std::uint8_t>* bytes,
                              sim::SimTime now, sim::SimTime* done) {
  sim::Device& pfs = service_->cluster().pfs();
  const std::uint64_t size = bytes->size();
  const char* op = is_write ? "write" : "read";
  sim::SimTime end = now;
  int attempts = 0;
  Status st = RunWithRetry(
      options_.retry, now, &end,
      [&](double start, double* attempt_done) -> Status {
        auto d = service_->fault_injector().OnBackendOp();
        if (d.kind == sim::FaultInjector::Decision::Kind::kPermanent) {
          return Unavailable("PFS backend unavailable");
        }
        if (d.kind == sim::FaultInjector::Decision::Kind::kTransient) {
          double lat = is_write ? pfs.spec().write_latency_s
                                : pfs.spec().read_latency_s;
          *attempt_done = std::max(*attempt_done,
                                   pfs.Stall(start, lat * d.spike_factor));
          return IoError(std::string("injected transient fault on backend ") +
                         op + " of '" + meta.key + "'");
        }
        if (is_write) {
          MM_RETURN_IF_ERROR(
              meta.stager->Write(meta.uri, offset, bytes->data(), size));
        } else {
          MM_RETURN_IF_ERROR(meta.stager->Read(meta.uri, offset, size, bytes));
        }
        sim::SimTime io_end = is_write ? pfs.Write(start, size, d.spike_factor)
                                       : pfs.Read(start, size, d.spike_factor);
        *attempt_done = std::max(*attempt_done, io_end);
        return Status::Ok();
      },
      &attempts);
  Merge(end, done);
  if (!st.ok()) {
    // One warning per retry burst — RunWithRetry already exhausted the
    // per-attempt detail; repeating the URI for every attempt only de-tunes
    // the log. The counter is what the epoch report surfaces.
    stager_errors_->Inc();
    MM_WARN("stager") << "backend " << op << " of '" << meta.key
                      << "' failed after " << attempts
                      << " attempt(s): " << st.ToString();
    return st;
  }
  if (attempts > 1) {
    stager_retries_->Inc(static_cast<std::uint64_t>(attempts - 1));
  }
  (is_write ? stager_write_bytes_ : stager_read_bytes_)->Inc(size);
  tel_.trace->CompleteFlow(is_write ? "stager_write" : "stager_read",
                           "stager", tel_.node, 0, now, end,
                           telemetry::CurrentTraceContext(), 't');
  return st;
}

Status NodeRuntime::JournaledBackendWrite(VectorMeta& meta,
                                          const storage::BlobId& id,
                                          std::uint64_t version,
                                          std::uint32_t page_crc,
                                          std::uint64_t offset,
                                          std::vector<std::uint8_t>* bytes,
                                          sim::SimTime now,
                                          sim::SimTime* done) {
  sim::FaultInjector& inj = service_->fault_injector();
  if (inj.crashed()) {
    // A dead process writes nothing: later flushes of the same run must not
    // touch disk after the armed crash fired.
    return Unavailable("node crashed (simulated)");
  }
  ckpt::Journal* journal = service_->journal(node_id_);  // null: no ckpt.dir
  if (journal != nullptr && meta.stager != nullptr) {
    ckpt::JournalRecord rec;
    rec.id = id;
    rec.version = version;
    rec.offset = offset;
    rec.page_crc = page_crc;
    rec.key = meta.key;
    rec.payload = *bytes;
    if (inj.AtCrashPoint(sim::CrashPoint::kMidJournalAppend)) {
      // Death halfway through the append: a torn record on disk, no
      // in-place write. Recovery must discard the tail and keep the
      // backend's previous page intact.
      // mm-lint: allow(MML005 crash sim drops the torn append's status)
      (void)journal->AppendTorn(rec);
      service_->DumpFlightRecord(
          node_id_, sim::CrashPointName(sim::CrashPoint::kMidJournalAppend),
          now);
      return Unavailable("simulated crash mid journal append");
    }
    MM_RETURN_IF_ERROR(journal->Append(rec));
    // The redo record is real backend I/O: charge a PFS write for it.
    sim::Device& pfs = service_->cluster().pfs();
    const std::uint64_t rec_bytes =
        bytes->size() + ckpt::Journal::kRecordOverheadBytes;
    Merge(pfs.Write(now, rec_bytes), done);
    ckpt_journal_bytes_->Inc(rec_bytes);
    if (inj.AtCrashPoint(sim::CrashPoint::kAfterJournalAppend)) {
      // Record durable, in-place write never starts: recovery replays the
      // record to bring the backend to `version`.
      service_->DumpFlightRecord(
          node_id_, sim::CrashPointName(sim::CrashPoint::kAfterJournalAppend),
          now);
      return Unavailable("simulated crash between journal append and "
                         "in-place write");
    }
    if (inj.AtCrashPoint(sim::CrashPoint::kMidInPlaceWrite)) {
      // Death mid in-place write leaves a torn page on the backend; the
      // durable record above is what heals it during recovery.
      // mm-lint: allow(MML005 crash simulation leaves a deliberately torn page)
      (void)meta.stager->Write(meta.uri, offset, bytes->data(),
                               bytes->size() / 2);
      service_->DumpFlightRecord(
          node_id_, sim::CrashPointName(sim::CrashPoint::kMidInPlaceWrite),
          now);
      return Unavailable("simulated crash mid in-place write");
    }
  }
  return BackendIo(/*is_write=*/true, meta, offset, bytes, now, done);
}

TaskOutcome NodeRuntime::StageInOrZero(VectorMeta& meta,
                                       const storage::BlobId& id,
                                       sim::SimTime now) {
  TaskOutcome out;
  out.done = now;
  // Pooled and explicitly zeroed: a recycled buffer must not leak a
  // previous page's bytes into a logically-fresh page. Ownership travels
  // out as the TaskOutcome payload; the worker recycles it after use.
  out.data = pool_.AcquireZeroed(meta.page_bytes);
  std::uint64_t want = meta.page_extent(id.page_idx);
  if (meta.stager == nullptr || want == 0) return out;
  // Only stage in what the backend actually holds.
  std::uint64_t page_off = id.page_idx * meta.page_bytes;
  bool exists = false;
  std::uint64_t backend_size = 0;
  {
    MutexLock lock(meta.backend_mu);
    exists = meta.backend_ready || meta.stager->Exists(meta.uri);
  }
  if (exists) {
    auto size_or = meta.stager->Size(meta.uri);
    if (size_or.ok()) backend_size = *size_or;
  }
  if (backend_size > page_off) {
    // Read straight into the page's head; regrowing restores the zero tail.
    out.data.resize(std::min<std::uint64_t>(want, backend_size - page_off));
    out.status = BackendIo(/*is_write=*/false, meta, page_off, &out.data, now,
                           &out.done);
    out.data.resize(meta.page_bytes);
  }
  return out;
}

TaskOutcome NodeRuntime::ExecuteGetPage(MemoryTask& task) {
  TaskOutcome out;
  out.done = task.issue_time;
  if (service_->IsDataLost(task.id)) {
    out.status = DataLoss("page " + task.id.ToString() +
                          " lost unstaged modifications");
    return out;
  }
  VectorMeta* meta = service_->FindVectorById(task.id.vector_id);
  if (meta == nullptr) {
    out.status = NotFound("unknown vector for blob " + task.id.ToString());
    return out;
  }
  sim::SimTime dev_done = task.issue_time;
  // Pooled read buffer: travels as the outcome payload on success, returns
  // to the pool (via the guard) on every other path.
  std::vector<std::uint8_t> buf = pool_.Acquire(task.size);
  PoolReturn buf_guard(pool_, buf);
  // A validated copy from this node's own bytes or, for a task routed on
  // stale information, from the recorded owner (DESIGN.md §6).
  Status hit = service_->ReadValidated(*meta, task.id, node_id_,
                                       Service::ReadPolicy::kTask,
                                       task.issue_time, &dev_done, &buf,
                                       &out.version);
  if (hit.ok()) {
    out.data = std::move(buf);
    out.done = dev_done;
    return out;
  }
  if (hit.code() == StatusCode::kUnavailable && service_->IsDataLost(task.id)) {
    // The tier died under this read. The BufferManager already drained it
    // and OnTierFailure reconciled the metadata: this page's modifications
    // went down with the tier.
    hit = DataLoss("page " + task.id.ToString() +
                   " lost unstaged modifications");
  }
  if (hit.code() == StatusCode::kDataLoss ||
      hit.code() == StatusCode::kResourceExhausted) {
    // Lost modifications, or a page that kept changing under every copy:
    // restaging from the backend would serve stale bytes as current.
    out.status = hit;
    out.done = dev_done;
    return out;
  }
  if (hit.code() == StatusCode::kIoError) {
    // Retries exhausted on a live tier. A dirty page cannot be recreated
    // from the backend, so surface the error; a clean copy is dropped and
    // re-staged below.
    auto cur = service_->metadata().Lookup(task.id, node_id_, dev_done,
                                           nullptr);
    if (cur.ok() && cur->dirty) {
      out.status = hit;
      out.done = dev_done;
      return out;
    }
    // The stale frame is replaced by the fresh Put below; a failed erase
    // is corrected by the exact-accounting drop in PutScored.
    (void)bm_.Erase(task.id);
  }
  // Fault through to the backend (or zero-fill a fresh page).
  out = StageInOrZero(*meta, task.id, task.issue_time);
  if (!out.status.ok()) return out;
  const std::uint32_t crc = Crc32(out.data);
  auto prev = service_->metadata().Lookup(task.id, node_id_, out.done,
                                          nullptr);
  // Restored and written-through pages keep a directory entry with a kPfs
  // residency hint and the committed full-page CRC: verify the staged-in
  // bytes against it, so a torn or stale backend page surfaces as typed
  // data loss instead of silently serving wrong bytes (DESIGN.md §12).
  if (meta->stager != nullptr && prev.ok() &&
      prev->tier == sim::TierKind::kPfs && !prev->dirty && prev->crc != 0 &&
      crc != prev->crc) {
    service_->RecordDataLoss(task.id, node_id_, out.done);
    pool_.Release(std::move(out.data));
    out.data.clear();
    out.status = DataLoss("page " + task.id.ToString() +
                          " staged in from the backend does not match its "
                          "recorded checksum");
    return out;
  }
  // Cache the page locally, keeping an existing version (e.g. a page
  // written through to the backend). A full scache is not an error for
  // reads: the page is served through without caching, still at that
  // version.
  storage::BlobLocation loc;
  loc.size = out.data.size();
  loc.score = task.score;
  loc.score_node = task.from_node;
  loc.version = prev.ok() ? prev->version : 0;
  loc.crc = crc;
  out.version = loc.version;
  sim::SimTime put_done = out.done;
  if (PlacePage(task.id, out.data, &loc, out.done, &put_done).ok()) {
    out.done = put_done;
  }
  return out;
}

Status NodeRuntime::PlacePage(const storage::BlobId& id,
                              const std::vector<std::uint8_t>& bytes,
                              storage::BlobLocation* loc, sim::SimTime now,
                              sim::SimTime* done) {
  // The cached copy comes from the pool so the steady-state paths allocate
  // nothing.
  std::vector<std::uint8_t> copy = pool_.Acquire(bytes.size());
  std::copy(bytes.begin(), bytes.end(), copy.begin());
  auto tier = bm_.PutScored(id, std::move(copy), loc->score, now, done);
  if (!tier.ok()) return tier.status();
  loc->node = node_id_;
  loc->tier = bm_.tier(*tier).kind();
  // Directory upsert on the home shard cannot fail; its cost is carried by
  // the task's own timing.
  (void)service_->metadata().Update(id, *loc, node_id_, now, nullptr);
  return Status::Ok();
}

TaskOutcome NodeRuntime::ExecuteWritePartial(MemoryTask& task) {
  TaskOutcome out;
  out.done = task.issue_time;
  VectorMeta* meta = service_->FindVectorById(task.id.vector_id);
  if (meta == nullptr) {
    out.status = NotFound("unknown vector for blob " + task.id.ToString());
    return out;
  }
  sim::SimTime dev_done = task.issue_time;
  auto before =
      service_->metadata().Lookup(task.id, node_id_, dev_done, nullptr);
  // The committed page is produced one of two ways. In place: the resident
  // bytes are patched under the commit protocol (DESIGN.md §14) — the entry
  // is published as unverified (crc 0) before the bytes change, so a
  // reader that sampled the old CRC and copied new bytes sees the entry
  // change and retries instead of declaring the page corrupt. A lost page
  // is never patched: it is rebuilt below or the write fails.
  const bool lost = service_->IsDataLost(task.id);
  Status st;
  if (!lost) {
    const bool cleared = before.ok() && before->crc != 0;
    if (cleared) {
      storage::BlobLocation unverified = *before;
      unverified.crc = 0;
      // Directory upserts cannot fail.
      (void)service_->metadata().Update(task.id, unverified, node_id_,
                                        dev_done, nullptr);
    }
    st = bm_.PutPartial(task.id, task.offset, task.data, task.issue_time,
                        &dev_done);
    if (!st.ok() && cleared) {
      // The bytes did not change: put the old CRC back.
      (void)service_->metadata().Update(task.id, *before, node_id_, dev_done,
                                        nullptr);
    }
  }
  storage::BlobLocation loc;
  // Materialized: the page bytes built here, placed below.
  std::vector<std::uint8_t> page;
  PoolReturn page_guard(pool_, page);
  if (!lost && st.ok()) {
    if (!before.ok()) {
      out.done = dev_done;
      return out;  // resident but never placed: nothing to publish
    }
    loc = *before;
    out.prev_version = loc.version;
    auto crc = bm_.Checksum(task.id);
    loc.crc = crc.ok() ? *crc : 0;
  } else if (lost || st.code() == StatusCode::kNotFound ||
             st.code() == StatusCode::kUnavailable) {
    // Materialized: the page is not resident (or its tier just died), so
    // stage it in (or zero-fill), apply the write and place it. Only a
    // full-page overwrite rebuilds a page whose unstaged modifications were
    // lost (possibly by the tier death during the PutPartial above); a
    // partial rewrite over stale or zero bytes would be silent corruption.
    if (service_->IsDataLost(task.id)) {
      if (task.offset != 0 || task.data.size() < meta->page_bytes) {
        out.status = DataLoss("partial write to page " + task.id.ToString() +
                              " that lost unstaged modifications");
        return out;
      }
      service_->ClearDataLoss(task.id);
    }
    TaskOutcome base = StageInOrZero(*meta, task.id, task.issue_time);
    if (!base.status.ok()) return base;
    page = std::move(base.data);
    MM_CHECK(task.offset + task.data.size() <= page.size());
    std::copy(task.data.begin(), task.data.end(),
              page.begin() + static_cast<std::ptrdiff_t>(task.offset));
    dev_done = base.done;
    auto prev =
        service_->metadata().Lookup(task.id, node_id_, dev_done, nullptr);
    loc.size = meta->page_bytes;
    loc.score = task.score;
    loc.score_node = task.from_node;
    loc.version = prev.ok() ? prev->version : 0;
    loc.crc = Crc32(page);
  } else {
    out.status = st;
    return out;
  }
  // The commit: the next version, the new CRC, dirty until staged out.
  ++loc.version;
  loc.dirty = true;
  if (!page.empty()) {
    Status placed = PlacePage(task.id, page, &loc, dev_done, &dev_done);
    if (placed.ok()) {
      out.version = loc.version;
      out.done = dev_done;
      return out;
    }
    if (meta->stager == nullptr) {
      // Volatile vector with a full scache: the write cannot be held.
      out.status = placed;
      return out;
    }
    // Nonvolatile vector, scache full (or dead) everywhere: write straight
    // through to the backend, journaled under the version being committed —
    // this is the page's only durable copy, so its redo record is what
    // recovery replays if the in-place write tears. Later faults stage the
    // page back in from there.
    Status wt = service_->EnsureBackend(*meta);
    if (wt.ok()) {
      page.resize(meta->page_extent(task.id.page_idx));
      wt = JournaledBackendWrite(*meta, task.id, loc.version, loc.crc,
                                 task.id.page_idx * meta->page_bytes, &page,
                                 dev_done, &dev_done);
    }
    if (!wt.ok()) {
      out.status = wt;
      return out;
    }
    loc.node = node_id_;
    loc.tier = sim::TierKind::kPfs;
    loc.dirty = false;  // already persistent
  }
  // Publish. The upsert cannot fail; the commit's status is what callers
  // see.
  (void)service_->metadata().Update(task.id, loc, node_id_, dev_done,
                                    nullptr);
  out.version = loc.version;
  out.done = dev_done;
  return out;
}

TaskOutcome NodeRuntime::ExecuteScore(MemoryTask& task) {
  TaskOutcome out;
  out.done = task.issue_time;
  bm_.SetScores(task.id.vector_id, task.hints);
  if (options_.enable_organizer) {
    // One sweep per kOrganizeEvery hints: as many as the batch carried the
    // node's running hint count across a multiple of it.
    const std::uint64_t before = score_updates_.fetch_add(
        task.hints.size(), std::memory_order_relaxed);
    const std::uint64_t sweeps =
        (before + task.hints.size()) / kOrganizeEvery - before / kOrganizeEvery;
    for (std::uint64_t i = 0; i < sweeps; ++i) {
      sim::SimTime done = out.done;
      bm_.Rebalance(out.done, &done);
      out.done = done;
    }
  }
  return out;
}

TaskOutcome NodeRuntime::ExecuteStageOut(MemoryTask& task) {
  TaskOutcome out;
  out.done = task.issue_time;
  VectorMeta* meta = service_->FindVectorById(task.id.vector_id);
  if (meta == nullptr || meta->stager == nullptr) {
    out.status = FailedPrecondition("stage-out of volatile/unknown vector");
    return out;
  }
  sim::SimTime read_done = task.issue_time;
  // Pooled staging buffer: read the resident page into it, trim to the
  // logical extent in place, and return it to the pool when done.
  std::vector<std::uint8_t> buf = pool_.Acquire(meta->page_bytes);
  PoolReturn buf_guard(pool_, buf);
  Status got = bm_.GetInto(task.id, &buf, task.issue_time, &read_done);
  if (got.code() == StatusCode::kNotFound) {
    // Nothing resident to persist (already staged or never written).
    return out;
  }
  if (!got.ok()) {
    // A resident page may exist but the tier read failed (kIoError with
    // retries exhausted, kUnavailable after a tier death). Returning OK
    // here would report a dirty page as persisted when it was not —
    // propagate so FlushVector surfaces the failure.
    out.status = got;
    out.done = read_done;
    return out;
  }
  Status eb = service_->EnsureBackend(*meta);
  if (!eb.ok()) {
    out.status = eb;
    return out;
  }
  std::uint64_t want = meta->page_extent(task.id.page_idx);
  if (want == 0) return out;  // page past the logical end
  // The version/CRC this flush persists are fixed before touching the
  // backend: the journal record must promise exactly the committed state a
  // recovered directory entry will carry — the full-page CRC, even when the
  // logical tail trims the payload below. A commit already recorded it;
  // only an entry without one costs a checksum here.
  auto pre = service_->metadata().Lookup(task.id, node_id_, read_done, nullptr);
  std::uint64_t version = pre.ok() ? pre->version : 0;
  std::uint32_t page_crc = pre.ok() && pre->crc != 0 ? pre->crc : Crc32(buf);
  buf.resize(std::min<std::uint64_t>(buf.size(), want));
  out.done = read_done;
  Status st = JournaledBackendWrite(*meta, task.id, version, page_crc,
                                    task.id.page_idx * meta->page_bytes, &buf,
                                    read_done, &out.done);
  if (!st.ok()) {
    out.status = st;
    return out;
  }
  // Clear the dirty flag.
  auto loc = service_->metadata().Lookup(task.id, node_id_, out.done, nullptr);
  if (loc.ok()) {
    storage::BlobLocation updated = *loc;
    updated.dirty = false;
    // Directory upsert cannot fail; staging already reported its status.
    (void)service_->metadata().Update(task.id, updated, node_id_, out.done,
                                      nullptr);
  }
  return out;
}

TaskOutcome NodeRuntime::ExecuteErase(MemoryTask& task) {
  TaskOutcome out;
  out.done = task.issue_time;
  (void)bm_.Erase(task.id);  // absent is fine
  return out;
}

// ---------------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------------

Service::Service(sim::Cluster* cluster, ServiceOptions options)
    : cluster_(cluster), options_(std::move(options)) {
  MM_CHECK_MSG(!options_.tier_grants.empty(),
               "ServiceOptions.tier_grants must be set");
  // Created before the runtimes: every TierStore keeps a pointer into it.
  injector_ = std::make_unique<sim::FaultInjector>(options_.faults);
  metadata_ = std::make_unique<storage::MetadataManager>(cluster->num_nodes(),
                                                         &cluster->network());
  fenced_ = std::vector<std::atomic<bool>>(cluster->num_nodes());
  for (auto& f : fenced_) f.store(false, std::memory_order_relaxed);
  // Telemetry also precedes the runtimes: each NodeRuntime (and the tier
  // stores under it) resolves its metric handles from telemetry_sink(n)
  // during construction.
  for (std::size_t n = 0; n < cluster->num_nodes(); ++n) {
    metrics_.push_back(std::make_unique<telemetry::MetricsRegistry>());
  }
  trace_ = std::make_unique<telemetry::TraceRecorder>(
      static_cast<std::size_t>(options_.telemetry.trace_capacity));
  trace_->set_enabled(!options_.telemetry.trace_path.empty());
  // Flight recorder is independent of the trace switch: the small span
  // ring stays warm in every run so a crash can leave a postmortem.
  if (!options_.telemetry.flightrec_dir.empty()) {
    trace_->set_flight_capacity(kFlightRecCapacity);
  }
  reporter_ =
      std::make_unique<telemetry::EpochReporter>(options_.telemetry.report_path);
  // The checkpoint coordinator precedes the runtimes: workers consult the
  // per-node journals while executing, and startup recovery must heal the
  // backends before any stage-in reads them (DESIGN.md §12).
  ckpt_ = std::make_unique<ckpt::Coordinator>(options_.ckpt,
                                              cluster->num_nodes());
  if (ckpt_->enabled()) {
    std::uint64_t applied = 0, torn = 0;
    Status rec = ckpt_->RecoverOnStartup(&applied, &torn);
    if (!rec.ok()) {
      MM_WARN("ckpt") << "journal recovery failed: " << rec.ToString();
    } else if (applied > 0 || torn > 0) {
      MM_INFO("ckpt") << "journal recovery replayed " << applied
                      << " record(s), discarded " << torn << " torn tail(s)";
    }
    metrics_[0]->GetCounter("mm.ckpt.replayed_count")->Inc(applied);
  }
  for (std::size_t n = 0; n < cluster->num_nodes(); ++n) {
    runtimes_.push_back(std::make_unique<NodeRuntime>(this, n, options_,
                                                      options_.tier_grants));
    // Reserve the DRAM grant against the node budget so MegaMmap's memory
    // consumption is bounded and visible (Figs. 6 and 8).
    for (const auto& grant : options_.tier_grants) {
      if (grant.kind == sim::TierKind::kDram) {
        cluster->node(n).AllocateDram(grant.capacity);
      }
    }
  }
}

Service::~Service() { Shutdown(); }

void Service::Shutdown() {
  if (shut_down_.exchange(true)) return;
  // A crash (ForceCrash or an armed point that fired without reaching a
  // dump site) still leaves a postmortem; explicit dumps closest to the
  // death win over this catch-all.
  if (injector_->crashed() &&
      !flight_dumped_.load(std::memory_order_acquire)) {
    double crash_s;
    {
      MutexLock lock(report_mu_);
      crash_s = last_epoch_s_;
    }
    DumpFlightRecord(0, "shutdown_after_crash", crash_s);
  }
  // Persist every nonvolatile vector before the runtimes die ("during the
  // termination of the runtime, the stager task will be scheduled") — unless
  // the simulated process crashed: a dead process flushes nothing, so
  // on-disk state stays exactly what the crash left for recovery to replay.
  if (!injector_->crashed()) {
    std::vector<VectorMeta*> live = LiveVectors(/*nonvolatile_only=*/true);
    Status st = StageOutDirty(live, 0, 0.0, {}).status;
    if (!st.ok()) {
      MM_WARN("service") << "shutdown flush failed: " << st.ToString();
    }
  }
  for (auto& rt : runtimes_) rt->Shutdown();
  for (std::size_t n = 0; n < runtimes_.size(); ++n) {
    for (const auto& grant : options_.tier_grants) {
      if (grant.kind == sim::TierKind::kDram) {
        cluster_->node(n).FreeDram(grant.capacity);
      }
    }
  }
  // Final telemetry drain, after every worker has quiesced: one closing
  // epoch (stamped at the last reported virtual time) and the Chrome-trace
  // dump.
  double final_s;
  {
    MutexLock lock(report_mu_);
    final_s = last_epoch_s_;
  }
  // The line was already appended to the report file; the returned copy
  // has no reader at shutdown.
  (void)EpochReport(final_s);
  if (!options_.telemetry.trace_path.empty()) {
    Status st = trace_->WriteJson(options_.telemetry.trace_path);
    if (!st.ok()) {
      MM_WARN("service") << "trace dump to '" << options_.telemetry.trace_path
                         << "' failed: " << st.ToString();
    }
  }
}

telemetry::ClusterSnapshot Service::TelemetrySnapshot() {
  // Refresh snapshot-time gauges first: tier occupancy and pool counters
  // are levels sampled from their owners, not events counted at the source.
  for (std::size_t n = 0; n < runtimes_.size(); ++n) {
    telemetry::MetricsRegistry& reg = *metrics_[n];
    auto& bm = runtimes_[n]->buffer();
    for (std::size_t t = 0; t < bm.num_tiers(); ++t) {
      TierUsedGauge(reg, bm.tier(t).kind())
          ->Set(static_cast<std::int64_t>(bm.tier(t).used()));
    }
    PagePool& pool = runtimes_[n]->pool();
    reg.GetGauge("mm.pool.alloc_count")
        ->Set(static_cast<std::int64_t>(pool.allocations()));
    reg.GetGauge("mm.pool.reuse_count")
        ->Set(static_cast<std::int64_t>(pool.reuses()));
    reg.GetGauge("mm.pool.pooled_bytes")
        ->Set(static_cast<std::int64_t>(pool.pooled_bytes()));
  }
  telemetry::ClusterSnapshot snap;
  snap.per_node.reserve(metrics_.size());
  for (auto& reg : metrics_) {
    snap.per_node.push_back(reg->Snapshot());
    snap.totals.Merge(snap.per_node.back());
  }
  return snap;
}

std::string Service::EpochReport(double now_s) {
  UpdateCritpathCounters(now_s);
  telemetry::ClusterSnapshot snap = TelemetrySnapshot();
  {
    MutexLock lock(report_mu_);
    last_epoch_s_ = std::max(last_epoch_s_, now_s);
  }
  return reporter_->Epoch(snap, now_s);
}

void Service::UpdateCritpathCounters(double now_s) {
  // All critpath counters live on node 0's registry: the analyzer works on
  // the cluster-wide trace, so per-node registration would double-count in
  // the aggregated snapshot.
  telemetry::MetricsRegistry& reg = *metrics_[0];
  MutexLock lock(report_mu_);
  const double end_us = now_s * 1e6;
  if (end_us > critpath_last_us_) {
    telemetry::CritpathBreakdown cp = telemetry::AnalyzeCritpath(
        trace_->Snapshot(), critpath_last_us_, end_us);
    reg.GetCounter("mm.critpath.queue_wait_ns")->Inc(cp.queue_wait_ns);
    reg.GetCounter("mm.critpath.network_ns")->Inc(cp.network_ns);
    reg.GetCounter("mm.critpath.device_ns")->Inc(cp.device_ns);
    reg.GetCounter("mm.critpath.coherence_ns")->Inc(cp.coherence_ns);
    critpath_last_us_ = end_us;
  }
  if (critpath_wall_) {
    // Mirror the cumulative clock totals into counters so the epoch
    // reporter's delta machinery applies to wall time too.
    auto [compute, stall] = critpath_wall_();
    telemetry::Counter* c = reg.GetCounter("mm.critpath.compute_ns");
    telemetry::Counter* s = reg.GetCounter("mm.critpath.stall_ns");
    const std::uint64_t c_old = c->value();
    const std::uint64_t s_old = s->value();
    if (compute > c_old) c->Inc(compute - c_old);
    if (stall > s_old) s->Inc(stall - s_old);
  }
}

void Service::SetCritpathWallSource(
    std::function<std::pair<std::uint64_t, std::uint64_t>()> source) {
  MutexLock lock(report_mu_);
  critpath_wall_ = std::move(source);
}

void Service::DumpFlightRecord(std::size_t node, std::string_view reason,
                               double now_s) {
  if (options_.telemetry.flightrec_dir.empty()) return;
  if (node >= metrics_.size()) node = 0;
  flight_dumped_.store(true, std::memory_order_release);
  Status st = telemetry::WriteFlightRecord(
      options_.telemetry.flightrec_dir, static_cast<int>(node), reason, now_s,
      *trace_, *metrics_[node]);
  if (!st.ok()) {
    MM_WARN("telemetry") << "flight record dump failed: " << st.ToString();
  }
}

std::string Service::MaybeEpochReport(double now_s) {
  double interval = options_.telemetry.report_interval_s;
  if (interval <= 0.0) return "";
  {
    MutexLock lock(report_mu_);
    if (reporter_->epochs() > 0 && now_s < last_epoch_s_ + interval) return "";
    last_epoch_s_ = std::max(last_epoch_s_, now_s);
  }
  return EpochReport(now_s);
}

StatusOr<VectorMeta*> Service::RegisterVector(const std::string& key,
                                              std::size_t elem_size,
                                              const VectorOptions& options,
                                              std::uint64_t initial_elems) {
  MM_CHECK(elem_size > 0);
  MutexLock lock(vectors_mu_);
  auto it = vectors_.find(key);
  if (it != vectors_.end()) {
    VectorMeta* meta = it->second.get();
    if (meta->elem_size != elem_size) {
      return InvalidArgument("vector '" + key +
                             "' already registered with a different element "
                             "size");
    }
    return meta;
  }
  auto meta = std::make_unique<VectorMeta>();
  meta->key = key;
  meta->vector_id = Fnv1a64(key);
  meta->elem_size = elem_size;
  meta->options = options;
  meta->mode.store(options.mode);
  std::uint64_t elems_per_page = std::max<std::uint64_t>(
      1, options.page_size / elem_size);
  meta->page_bytes = elems_per_page * elem_size;
  if (options.nonvolatile) {
    MM_ASSIGN_OR_RETURN(auto resolved,
                        storage::StagerRegistry::Default().Resolve(key));
    meta->stager = resolved.first;
    meta->uri = resolved.second;
    if (meta->stager->Exists(meta->uri)) {
      MM_ASSIGN_OR_RETURN(std::uint64_t backend_size,
                          meta->stager->Size(meta->uri));
      meta->size_bytes.store(backend_size);
      // The meta is not yet published, but backend_ready's lock contract is
      // per-field, so honor it here too (and it orders with EnsureBackend).
      MutexLock backend_lock(meta->backend_mu);
      meta->backend_ready = true;
    } else {
      meta->size_bytes.store(initial_elems * elem_size);
    }
  } else {
    meta->size_bytes.store(initial_elems * elem_size);
  }
  VectorMeta* raw = meta.get();
  vectors_by_id_[meta->vector_id] = raw;
  vectors_[key] = std::move(meta);
  return raw;
}

VectorMeta* Service::FindVector(const std::string& key) {
  MutexLock lock(vectors_mu_);
  auto it = vectors_.find(key);
  return it == vectors_.end() ? nullptr : it->second.get();
}

comm::DistributedLock& Service::GetDistributedLock(const std::string& key,
                                                   std::size_t home_node) {
  MutexLock lock(locks_mu_);
  auto it = dlocks_.find(key);
  if (it == dlocks_.end()) {
    it = dlocks_
             .emplace(key, std::make_unique<comm::DistributedLock>(
                               cluster_, home_node))
             .first;
  }
  return *it->second;
}

void Service::SetPgasHint(VectorMeta& meta, VectorMeta::PgasHint hint) {
  MutexLock lock(meta.hint_mu);
  meta.pgas_hint = hint;
}

std::size_t Service::Unfenced(std::size_t node) const {
  if (!NodeFenced(node)) return node;
  // Deterministic ring remap: every survivor computes the same substitute
  // owner without communicating.
  for (std::size_t i = 1; i < fenced_.size(); ++i) {
    std::size_t cand = (node + i) % fenced_.size();
    if (!NodeFenced(cand)) return cand;
  }
  return node;  // everyone fenced: nothing sensible to return
}

void Service::FenceNode(std::size_t node) {
  MM_CHECK(node < fenced_.size());
  fenced_[node].store(true, std::memory_order_release);
}

std::size_t Service::DefaultOwner(VectorMeta& meta,
                                  const storage::BlobId& id) {
  std::optional<VectorMeta::PgasHint> hint;
  {
    MutexLock lock(meta.hint_mu);
    hint = meta.pgas_hint;
  }
  if (!hint.has_value() || hint->n_elems == 0 || hint->nprocs <= 0) {
    return Unfenced(metadata().HomeNode(id));
  }
  // Rank owning the page's first element under the balanced partition of
  // n elements over p ranks captured when the hint was set.
  std::uint64_t elem = id.page_idx * meta.elems_per_page();
  if (elem >= hint->n_elems) return Unfenced(metadata().HomeNode(id));
  std::uint64_t n = hint->n_elems, p = hint->nprocs;
  std::uint64_t base = n / p, rem = n % p;
  std::uint64_t rank;
  if (elem < rem * (base + 1)) {
    rank = elem / (base + 1);
  } else {
    rank = rem + (base > 0 ? (elem - rem * (base + 1)) / base : 0);
  }
  std::size_t node = static_cast<std::size_t>(rank) /
                     static_cast<std::size_t>(hint->ranks_per_node);
  return Unfenced(std::min(node, num_nodes() - 1));
}

void Service::OnTierFailure(std::size_t node, sim::TierKind tier,
                            const std::vector<storage::BlobId>& lost,
                            sim::SimTime now) {
  MM_WARN("service") << "tier " << sim::TierKindName(tier) << " on node "
                     << node << " failed permanently; " << lost.size()
                     << " pages lost, starting recovery";
  for (const storage::BlobId& id : lost) {
    auto loc = metadata().Lookup(id, node, now, nullptr);
    if (!loc.ok()) continue;  // never registered; nothing to reconcile
    if (loc->node != node) {
      // Only a replica died here; the primary is intact elsewhere.
      (void)metadata().RemoveReplica(id, node, node, now, nullptr);
      continue;
    }
    if (loc->dirty) {
      // The resident copy of unstaged modifications went down with the
      // tier, but journaled writeback may have already made those bytes
      // durable (the redo record lands before the in-place write). A
      // journal record at or past the lost version means the backend can
      // be healed — re-apply it and fall through to the clean-primary
      // re-stage below instead of declaring data loss.
      if (!TryJournalRecover(node, id, *loc)) {
        // The only copy is gone. Record typed data loss; accesses surface
        // kDataLoss, not an abort.
        RecordDataLoss(id, node, now);
        // Idempotent drop of the lost page's directory entry; kNotFound on
        // a concurrent removal is fine.
        (void)metadata().Remove(id, node, now, nullptr);
        continue;
      }
    }
    // Clean primary: the backend still has the bytes. Drop the stale
    // mapping and eagerly re-stage so the working set recovers without
    // waiting for the next fault (volatile vectors re-read as zeros).
    (void)metadata().Remove(id, node, now, nullptr);
    VectorMeta* meta = FindVectorById(id.vector_id);
    if (meta == nullptr || meta->stager == nullptr) continue;
    MemoryTask restore;
    restore.kind = MemoryTask::Kind::kGetPage;
    restore.id = id;
    restore.size = meta->page_bytes;
    restore.score = loc->score;
    restore.from_node = node;
    restore.issue_time = now;
    (void)runtime(node).Submit(std::move(restore));  // fire-and-forget
  }
}

Service::RecoveryStats Service::RecoverDeadNode(std::size_t dead_node,
                                                std::size_t from_node,
                                                sim::SimTime now) {
  FenceNode(dead_node);
  RecoveryStats stats;
  for (VectorMeta* meta : LiveVectors(/*nonvolatile_only=*/false)) {
    for (const storage::BlobId& id :
         metadata().BlobsOfVector(meta->vector_id)) {
      ++stats.pages_scanned;
      auto loc = metadata().Lookup(id, from_node, now, nullptr);
      if (!loc.ok()) continue;
      // A replica record pointing at the dead node only costs a remote
      // re-read; unregister it unconditionally (idempotent).
      (void)metadata().RemoveReplica(id, dead_node, from_node, now, nullptr);
      if (loc->node != dead_node) continue;
      if (loc->dirty) {
        // The primary copy of unstaged modifications died with the node.
        // Journaled writeback may have made those bytes durable before the
        // death; replaying the redo record heals the backend. Volatile
        // vectors have no backend or journal: their dirty pages are gone.
        if (meta->stager != nullptr && TryJournalRecover(dead_node, id, *loc)) {
          ++stats.journal_recovered;
        } else {
          RecordDataLoss(id, dead_node, now);
          ++stats.lost;
        }
      } else {
        ++stats.rehomed;
      }
      // Drop the stale mapping (and the dead node's resident bytes, so a
      // later unfencing experiment cannot resurrect them); survivors
      // re-stage from the backend lazily on next touch via the remapped
      // DefaultOwner.
      // Already-absent entries are fine: fencing is idempotent and the
      // page may never have been staged on the dead node.
      (void)runtime(dead_node).buffer().Erase(id);
      (void)metadata().Remove(id, from_node, now, nullptr);  // idempotent
    }
  }
  {
    MutexLock lock(lost_mu_);
    last_recovery_.pages_scanned += stats.pages_scanned;
    last_recovery_.rehomed += stats.rehomed;
    last_recovery_.journal_recovered += stats.journal_recovered;
    last_recovery_.lost += stats.lost;
  }
  telemetry::MetricsRegistry& reg = *metrics_[from_node];
  reg.GetCounter("mm.recovery.pages_scanned_count")->Inc(stats.pages_scanned);
  reg.GetCounter("mm.recovery.rehomed_count")->Inc(stats.rehomed);
  reg.GetCounter("mm.recovery.journal_recovered_count")
      ->Inc(stats.journal_recovered);
  reg.GetCounter("mm.recovery.data_loss_count")->Inc(stats.lost);
  MM_WARN("service") << "node " << dead_node << " fenced and re-homed: "
                     << stats.pages_scanned << " pages scanned, "
                     << stats.rehomed << " re-homed, "
                     << stats.journal_recovered << " journal-recovered, "
                     << stats.lost << " lost";
  return stats;
}

bool Service::TryJournalRecover(std::size_t node, const storage::BlobId& id,
                                const storage::BlobLocation& loc) {
  if (ckpt_ == nullptr) return false;
  ckpt::Journal* journal = ckpt_->journal(node);
  if (journal == nullptr) return false;  // ckpt.dir unset
  auto rec = journal->Latest(id);
  if (!rec.ok() || rec->version < loc.version) return false;
  // Idempotent re-apply: the in-place write may have landed (fully or
  // partially) before the tier died; replaying the record converges the
  // backend to the journaled version either way.
  if (!ckpt::Coordinator::ApplyRecord(*rec).ok()) return false;
  metrics_[node]->GetCounter("mm.ckpt.journal_recovered_count")->Inc();
  MM_WARN("ckpt") << "page " << id.ToString() << " on node " << node
                  << " recovered from its redo journal at version "
                  << rec->version;
  return true;
}

void Service::RecordDataLoss(const storage::BlobId& id, std::size_t node,
                             sim::SimTime now) {
  bool fresh;
  {
    MutexLock lock(lost_mu_);
    fresh = lost_.insert(id).second;
  }
  // First registration of each lost page leaves a postmortem (after
  // releasing lost_mu_ — the dump only takes telemetry leaf locks, but
  // keeping the registry lock tight costs nothing).
  if (fresh) DumpFlightRecord(node, "data_loss", now);
}

bool Service::IsDataLost(const storage::BlobId& id) const {
  MutexLock lock(lost_mu_);
  return lost_.count(id) > 0;
}

void Service::ClearDataLoss(const storage::BlobId& id) {
  MutexLock lock(lost_mu_);
  lost_.erase(id);
}

std::size_t Service::data_loss_count() const {
  MutexLock lock(lost_mu_);
  return lost_.size();
}

VectorMeta* Service::FindVectorById(std::uint64_t vector_id) {
  MutexLock lock(vectors_mu_);
  auto it = vectors_by_id_.find(vector_id);
  return it == vectors_by_id_.end() ? nullptr : it->second;
}

Status Service::EnsureBackend(VectorMeta& meta) {
  if (meta.stager == nullptr) {
    return FailedPrecondition("vector '" + meta.key + "' is volatile");
  }
  MutexLock lock(meta.backend_mu);
  if (meta.backend_ready) return Status::Ok();
  std::uint64_t size = meta.size_bytes.load(std::memory_order_relaxed);
  if (!meta.stager->Exists(meta.uri)) {
    MM_RETURN_IF_ERROR(meta.stager->Create(meta.uri, size));
  }
  meta.backend_ready = true;
  return Status::Ok();
}

StatusOr<std::vector<std::uint8_t>> Service::ReadPage(VectorMeta& meta,
                                                      std::uint64_t page,
                                                      std::size_t from_node,
                                                      sim::SimTime now,
                                                      sim::SimTime* done,
                                                      std::uint64_t* version) {
  storage::BlobId id{meta.vector_id, page};
  if (IsDataLost(id)) {
    return DataLoss("page " + id.ToString() + " lost unstaged modifications");
  }

  // Fast path: the blob (or a replica) is already on this node. The read
  // buffer comes from the node's page pool and travels to the caller on
  // success; the guard hands it back on every other path. A declined copy
  // (incoherent bytes, a clean corrupt copy dropped, persistent races)
  // falls through to the slow path, which heals from the owner/backend.
  if (runtime(from_node).buffer().FindBlob(id).has_value()) {
    PagePool& pool = runtime(from_node).pool();
    std::vector<std::uint8_t> local = pool.Acquire(meta.page_bytes);
    PoolReturn local_guard(pool, local);
    sim::SimTime local_done = now;
    Status st = ReadValidated(meta, id, from_node, ReadPolicy::kLocal, now,
                              &local_done, &local, version);
    if (st.ok() || st.code() == StatusCode::kDataLoss) {
      Merge(local_done, done);
      if (!st.ok()) return st;
      return local;  // implicit move detaches from local_guard
    }
  }

  // Slow path = a service-level page fault: count it here (the fast path
  // above is the pcache's business), and span the whole fault — metadata
  // lookup, task execution, and transfer — on success.
  telemetry::NodeSink sink = telemetry_sink(from_node);
  sink.metrics->GetCounter("mm.service.fault_count")->Inc();

  // Locate the source: a replica under read-only replication, the primary
  // owner, or (for unplaced pages) the deterministic default owner — which
  // every rank computes identically, so concurrent first-touches of one
  // page can never materialize it on two nodes (split-brain).
  sim::SimTime t = now;
  std::size_t owner = ChooseReadSource(meta, id, from_node, now, &t).node;

  // Concurrent faults for the same blob on this node share one fetch.
  InflightKey key{from_node, id};
  std::shared_future<TaskOutcome> fetch;
  bool leader = false;
  // Flow identity of this fault, minted by the leader only: one connected
  // origin → task → stager chain per shared fetch (followers record plain
  // spans so no flow ever has two origins).
  telemetry::TraceContext fault_ctx;
  {
    MutexLock lock(inflight_mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      fetch = it->second;
    } else {
      leader = true;
      fault_ctx = telemetry::TraceRecorder::NewContext(sink.node);
      MemoryTask task;
      task.kind = MemoryTask::Kind::kGetPage;
      task.id = id;
      task.size = meta.page_bytes;
      task.from_node = from_node;
      task.tctx = fault_ctx;
      task.promise = std::make_shared<std::promise<TaskOutcome>>();
      if (owner == from_node) {
        task.issue_time = t;
      } else {
        auto req = cluster().network().Transfer(t, from_node, owner,
                                                kControlBytes);
        task.issue_time = req.delivered;
      }
      fetch = task.promise->get_future().share();
      inflight_[key] = fetch;
      // A shutdown rejection still fulfills the promise, so the shared
      // future below carries the error to every waiter.
      (void)runtime(owner).Submit(std::move(task));
    }
  }
  TaskOutcome outcome = fetch.get();
  if (leader) {
    MutexLock lock(inflight_mu_);
    inflight_.erase(key);
  }
  if (!outcome.status.ok()) {
    // Close the flow on the error path too — the worker already recorded
    // its 't' hop, and a dangling flow would fail trace validation.
    sink.trace->CompleteFlow("page_fault", "fault", sink.node, 0, now,
                             outcome.done, fault_ctx, 's');
    Merge(outcome.done, done);
    return outcome.status;
  }
  if (version != nullptr) *version = outcome.version;
  sim::SimTime complete = outcome.done;
  if (owner != from_node) {
    auto rsp = cluster().network().Transfer(outcome.done, owner, from_node,
                                            outcome.data.size());
    complete = rsp.delivered;
    if (leader) MaybeReplicate(meta, page, outcome.data, from_node, complete);
  }
  sink.metrics
      ->GetHistogram("mm.service.fault_latency_ns",
                     telemetry::LatencyBoundsNs())
      ->Observe((complete - now) * 1e9);
  // Sync origin of the fault's flow (plain span for non-leader sharers):
  // origin → get_page task on the owner → stager, one connected arrow
  // chain across nodes.
  sink.trace->CompleteFlow("page_fault", "fault", sink.node, 0, now, complete,
                           fault_ctx, 's');
  Merge(complete, done);
  return std::move(outcome.data);
}

std::optional<std::vector<std::uint8_t>> Service::TryReadPageOptimistic(
    VectorMeta& meta, std::uint64_t page, std::size_t from_node,
    sim::SimTime now, sim::SimTime* done, std::uint64_t* version,
    int* retries) {
  if (retries != nullptr) *retries = 0;
  if (!options_.enable_optimistic_reads) return std::nullopt;
  if (!AllowsOptimisticReads(meta.mode.load(std::memory_order_relaxed))) {
    return std::nullopt;
  }
  storage::BlobId id{meta.vector_id, page};
  telemetry::NodeSink sink = telemetry_sink(from_node);
  NodeRuntime& rt = runtime(from_node);
  // Copy the bytes straight out of the source scache on this thread — the
  // BufferManager is internally synchronized; no worker queue, no promise,
  // no task allocation. Typed data loss is the slow path's story to tell.
  PagePool& pool = rt.pool();
  std::vector<std::uint8_t> bytes = pool.Acquire(meta.page_bytes);
  PoolReturn pool_guard(pool, bytes);
  sim::SimTime t = now;
  int raced = 0;
  const bool served =
      !IsDataLost(id) && ReadValidated(meta, id, from_node,
                                       ReadPolicy::kOptimistic, now, &t,
                                       &bytes, version, &raced)
                             .ok();
  rt.CountReadpathRetries(static_cast<std::uint64_t>(raced));
  if (retries != nullptr) *retries = raced;
  if (!served) {
    // Every decline lands on the caller's queue fallback: counting it here
    // keeps hits + fallbacks == attempts (DESIGN.md §14).
    rt.CountReadpathFallback();
    sink.trace->Instant("readpath_fallback", "readpath", sink.node, 0, now);
    return std::nullopt;
  }
  rt.CountReadpathHit();
  sink.trace->Instant("readpath_hit", "readpath", sink.node, 0, t);
  Merge(t, done);
  return bytes;  // implicit move detaches from pool_guard (capacity 0 after)
}

Service::ReadSource Service::ChooseReadSource(VectorMeta& meta,
                                              const storage::BlobId& id,
                                              std::size_t from_node,
                                              sim::SimTime now,
                                              sim::SimTime* done) {
  ReadSource src;
  bool local_bytes = runtime(from_node).buffer().FindBlob(id).has_value();
  auto loc = metadata().Lookup(id, from_node, now, done);
  if (!loc.ok()) {
    // Unplaced: only bytes already here (a fault between its scache put and
    // its directory upsert) are servable; everyone else routes to the
    // deterministic default owner, which every rank computes identically,
    // so concurrent first-touches never materialize the page twice.
    src.node = local_bytes ? from_node : DefaultOwner(meta, id);
    src.coherent = local_bytes;
    return src;
  }
  src.loc = *loc;
  src.node = loc->node;
  src.coherent = true;
  // Local bytes count only while the directory maps the blob here or
  // registers this node as a replica: an invalidated replica's bytes linger
  // until the queued erase drains, and serving them would label stale data
  // with the current version.
  if (local_bytes && loc->node == from_node) return src;
  const bool replicated =
      AllowsReplication(meta.mode.load(std::memory_order_relaxed));
  if (local_bytes || replicated) {
    auto replicas = metadata().Replicas(id, from_node, now, nullptr);
    if (local_bytes && std::find(replicas.begin(), replicas.end(),
                                 from_node) != replicas.end()) {
      src.node = from_node;
      return src;
    }
    if (replicated && !replicas.empty()) {
      std::vector<std::size_t> candidates;
      if (!NodeFenced(loc->node)) candidates.push_back(loc->node);
      for (std::size_t r : replicas) {
        if (!NodeFenced(r)) candidates.push_back(r);
      }
      if (!candidates.empty()) {
        src.node = candidates[(id.Digest() ^ from_node) % candidates.size()];
        return src;
      }
    }
  }
  // A fenced owner (directory entry not yet reconciled) is remapped to the
  // next live node, which stages the page in from the backend on demand.
  src.node = Unfenced(loc->node);
  src.coherent = src.node == loc->node;
  return src;
}

Status Service::ReadValidated(VectorMeta& meta, const storage::BlobId& id,
                              std::size_t from_node, ReadPolicy policy,
                              sim::SimTime now, sim::SimTime* done,
                              std::vector<std::uint8_t>* dst,
                              std::uint64_t* version, int* retries) {
  constexpr int kMaxAttempts = 3;
  const bool charged = policy != ReadPolicy::kTask;
  sim::SimTime t = now;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    // v1: the source rule's own directory sample, taken before the copy.
    sim::SimTime looked = t;
    ReadSource src =
        ChooseReadSource(meta, id, from_node, t, charged ? &looked : nullptr);
    const bool eligible =
        policy == ReadPolicy::kLocal ? src.coherent && src.node == from_node
        : policy == ReadPolicy::kOptimistic
            ? src.coherent && src.loc.has_value()
            : src.coherent || src.loc.has_value();
    if (!eligible) {
      return NotFound("no coherent copy of " + id.ToString() + " to read");
    }
    // A task routed around a fenced owner serves through from the recorded
    // owner's bytes.
    const std::size_t source = src.coherent ? src.node : src.loc->node;
    // The local read overlaps its lookup; the optimistic copy follows it.
    sim::SimTime copied = policy == ReadPolicy::kOptimistic ? looked : t;
    MM_RETURN_IF_ERROR(
        runtime(source).buffer().GetInto(id, dst, copied, &copied));
    t = std::max(looked, copied);
    const bool crc_ok = !src.loc.has_value() || src.loc->crc == 0 ||
                        Crc32(*dst) == src.loc->crc;
    if (!crc_ok || policy == ReadPolicy::kOptimistic) {
      // v2: a changed entry means a commit landed since v1 and the copy
      // may mix versions; an unchanged one makes a CRC mismatch corruption.
      sim::SimTime checked = t;
      auto v2 = metadata().Lookup(id, from_node, t,
                                  charged ? &checked : nullptr);
      t = checked;
      if (!v2.ok() || v2->node != src.loc->node ||
          v2->version != src.loc->version || v2->crc != src.loc->crc) {
        if (retries != nullptr) ++*retries;
        continue;
      }
      if (!crc_ok) {
        // Corrupt: drop the bytes and their directory record, the primary
        // entry or the replica registration (idempotent either way). A
        // dirty primary's modifications are gone; anything else re-fetches.
        (void)runtime(source).buffer().Erase(id);
        sim::SimTime* charge = charged ? &t : nullptr;
        const bool primary = src.loc->node == source;
        (void)(primary ? metadata().Remove(id, from_node, t, charge)
                       : metadata().RemoveReplica(id, source, from_node, t,
                                                  charge));
        Merge(t, done);
        if (!primary || !src.loc->dirty) {
          return NotFound("corrupt copy of " + id.ToString() + " dropped");
        }
        RecordDataLoss(id, from_node, t);
        return DataLoss("page " + id.ToString() +
                        " failed CRC check with unstaged modifications");
      }
    }
    if (source != from_node) {
      t = cluster().network().Transfer(t, source, from_node, dst->size())
              .delivered;
    }
    if (version != nullptr) *version = src.loc ? src.loc->version : 0;
    Merge(t, done);
    return Status::Ok();
  }
  return ResourceExhausted("page " + id.ToString() + " changed under " +
                           std::to_string(kMaxAttempts) + " read attempts");
}

void Service::MaybeReplicate(VectorMeta& meta, std::uint64_t page,
                             const std::vector<std::uint8_t>& data,
                             std::size_t from_node, sim::SimTime now) {
  if (!AllowsReplication(meta.mode.load(std::memory_order_relaxed))) return;
  storage::BlobId id{meta.vector_id, page};
  if (runtime(from_node).buffer().FindBlob(id).has_value()) return;
  sim::SimTime put_done = now;
  // Replica bytes come from the pool: the replication path runs on every
  // remote read under read-only mode, so it must not allocate steadily.
  PagePool& pool = runtime(from_node).pool();
  std::vector<std::uint8_t> copy = pool.Acquire(data.size());
  std::copy(data.begin(), data.end(), copy.begin());
  auto tier = runtime(from_node).buffer().PutScored(id, std::move(copy),
                                                    /*score=*/1.0f, now,
                                                    &put_done);
  if (tier.ok()) {
    // Registration cannot fail once the primary entry exists (looked up
    // above); a lost replica record only costs a remote re-read.
    (void)metadata().AddReplica(id, from_node, from_node, now, nullptr);
    telemetry::NodeSink sink = telemetry_sink(from_node);
    sink.metrics->GetCounter("mm.coherence.replicate_count")->Inc();
    sink.trace->Instant("replicate", "coherence", sink.node, 0, now);
  }
}

Service::AsyncRead Service::ReadPageAsync(VectorMeta& meta,
                                          std::uint64_t page,
                                          std::size_t from_node,
                                          sim::SimTime now) {
  storage::BlobId id{meta.vector_id, page};
  std::size_t owner = ChooseReadSource(meta, id, from_node, now, nullptr).node;
  MemoryTask task;
  task.kind = MemoryTask::Kind::kGetPage;
  task.id = id;
  task.size = meta.page_bytes;
  task.from_node = from_node;
  task.promise = std::make_shared<std::promise<TaskOutcome>>();
  if (owner == from_node) {
    task.issue_time = now;
  } else {
    auto req = cluster().network().Transfer(now, from_node, owner,
                                            kControlBytes);
    task.issue_time = req.delivered;
  }
  telemetry::NodeSink sink = telemetry_sink(from_node);
  sink.trace->Instant("prefetch_issue", "prefetch", sink.node, 0, now);
  AsyncRead result{task.promise->get_future().share(), owner};
  // A shutdown rejection still fulfills the promise (error via the future).
  (void)runtime(owner).Submit(std::move(task));
  return result;
}

double Service::EstimateReadSeconds(VectorMeta& meta, std::uint64_t page,
                                    std::uint64_t bytes) {
  storage::BlobId id{meta.vector_id, page};
  auto loc = metadata().Lookup(id, 0, 0.0, nullptr);
  if (!loc.ok()) {
    // Never placed: a fault would stage in from the backend.
    return cluster().pfs().ReadDuration(bytes);
  }
  double dev = runtime(loc->node).buffer().EstimateReadSeconds(id, bytes);
  return dev;
}

std::shared_future<TaskOutcome> Service::WriteRegion(
    VectorMeta& meta, std::uint64_t page, std::uint64_t offset,
    std::vector<std::uint8_t> bytes, std::size_t from_node, sim::SimTime now) {
  storage::BlobId id{meta.vector_id, page};
  // Writes are routed to the page's owner. Unplaced pages go to the blob's
  // deterministic home node so concurrent first-writes serialize on one
  // worker (two producers choosing themselves would fork the page). The
  // Data Organizer can migrate the page toward its writer afterwards
  // (Fig. 3's locality is restored by score locality hints). The lookup is
  // part of the async path, so its cost lands on the network model, not on
  // the caller's clock.
  std::size_t owner = DefaultOwner(meta, id);
  auto loc = metadata().Lookup(id, from_node, now, nullptr);
  if (loc.ok()) owner = loc->node;

  MemoryTask task;
  task.kind = MemoryTask::Kind::kWritePartial;
  task.id = id;
  task.offset = offset;
  task.data = std::move(bytes);
  task.from_node = from_node;
  task.promise = std::make_shared<std::promise<TaskOutcome>>();
  // Async flow origin: the caller does not wait for the commit, so the
  // origin span covers only issue (+ the cross-node transfer). The worker's
  // write_partial span is the terminal hop and closes the flow.
  telemetry::TraceContext wctx =
      telemetry::TraceRecorder::NewContext(static_cast<int>(from_node));
  task.tctx = wctx;
  task.trace_terminal = true;
  if (owner == from_node) {
    task.issue_time = now;
  } else {
    auto xfer =
        cluster().network().Transfer(now, from_node, owner, task.data.size());
    task.issue_time = xfer.delivered;
  }
  telemetry::NodeSink sink = telemetry_sink(from_node);
  sink.trace->CompleteFlow("write_commit", "commit", sink.node, 0, now,
                           task.issue_time, wctx, 'a');
  auto future = task.promise->get_future().share();
  // A shutdown rejection still fulfills the promise (error via the future).
  (void)runtime(owner).Submit(std::move(task));
  return future;
}

void Service::SubmitScores(VectorMeta& meta,
                           const std::vector<storage::ScoreHint>& hints,
                           std::size_t from_node, sim::SimTime now) {
  if (!options_.enable_organizer || hints.empty()) return;
  std::vector<storage::BlobId> ids;
  ids.reserve(hints.size());
  for (const storage::ScoreHint& h : hints) {
    ids.push_back(storage::BlobId{meta.vector_id, h.page_idx});
  }
  auto locs = metadata().LookupBatch(ids, from_node, now, nullptr);
  // One batch per owner node, hints kept in issue order. Pages not placed
  // yet have nothing to organize and are dropped.
  std::vector<MemoryTask> batches(num_nodes());
  for (std::size_t i = 0; i < hints.size(); ++i) {
    if (locs[i].has_value()) batches[locs[i]->node].hints.push_back(hints[i]);
  }
  for (std::size_t node = 0; node < batches.size(); ++node) {
    MemoryTask& task = batches[node];
    if (task.hints.empty()) continue;
    task.kind = MemoryTask::Kind::kScore;
    task.id = storage::BlobId{meta.vector_id, 0};
    task.from_node = from_node;
    task.issue_time = now;
    // Fire-and-forget: a shutdown rejection loses only hints.
    (void)runtime(node).Submit(std::move(task));
  }
}

Status Service::FlushVector(VectorMeta& meta, std::size_t from_node,
                            sim::SimTime now, sim::SimTime* done) {
  if (meta.stager == nullptr) return Status::Ok();  // volatile: no backend
  // One flow for the whole flush: the sync "flush" origin below fans out to
  // every stage_out task span ('t' hops) across the owning nodes.
  telemetry::TraceContext flush_ctx =
      telemetry::TraceRecorder::NewContext(static_cast<int>(from_node));
  StageOutResult r = StageOutDirty({&meta}, from_node, now, flush_ctx);
  if (r.submitted > 0) {
    Merge(r.end, done);
    telemetry::NodeSink sink = telemetry_sink(from_node);
    // `done == nullptr` is the FlushAsync path: the caller's clock never
    // advances to the flush's end, so the flow must be async ('a') or the
    // critical-path analyzer would charge a stall nobody paid.
    sink.trace->CompleteFlow("flush", "flush", sink.node, 0, now, r.end,
                             flush_ctx, done != nullptr ? 's' : 'a');
  }
  return r.status;
}

std::vector<VectorMeta*> Service::LiveVectors(bool nonvolatile_only) {
  // Callers work on the list outside the lock: stage-out workers call
  // FindVectorById, which takes vectors_mu_.
  MutexLock lock(vectors_mu_);
  std::vector<VectorMeta*> out;
  for (auto& [key, meta] : vectors_) {
    if (meta->destroyed.load(std::memory_order_relaxed)) continue;
    if (nonvolatile_only && meta->stager == nullptr) continue;
    out.push_back(meta.get());
  }
  return out;
}

Service::StageOutResult Service::StageOutDirty(
    const std::vector<VectorMeta*>& vectors, std::size_t from_node,
    sim::SimTime now, telemetry::TraceContext tctx) {
  StageOutResult r;
  r.end = now;
  std::vector<std::pair<std::shared_future<TaskOutcome>, std::uint64_t>>
      pending;  // (completion, logical bytes) per submitted page
  for (VectorMeta* meta : vectors) {
    Status eb = EnsureBackend(*meta);
    if (!eb.ok()) {
      if (r.status.ok()) r.status = eb;
      continue;
    }
    for (const auto& id : metadata().BlobsOfVector(meta->vector_id)) {
      auto loc = metadata().Lookup(id, from_node, now, nullptr);
      if (!loc.ok() || !loc->dirty) continue;
      MemoryTask task;
      task.kind = MemoryTask::Kind::kStageOut;
      task.id = id;
      task.from_node = from_node;
      task.issue_time = now;
      task.tctx = tctx;
      task.promise = std::make_shared<std::promise<TaskOutcome>>();
      pending.emplace_back(task.promise->get_future().share(),
                           meta->page_extent(id.page_idx));
      // A shutdown rejection still fulfills the promise collected above.
      (void)runtime(loc->node).Submit(std::move(task));
    }
  }
  r.submitted = pending.size();
  for (auto& [future, bytes] : pending) {
    TaskOutcome outcome = future.get();
    Merge(outcome.done, &r.end);
    if (!outcome.status.ok()) {
      if (r.status.ok()) r.status = outcome.status;
      continue;
    }
    ++r.pages;
    r.bytes += bytes;
  }
  return r;
}

Status Service::ChangePhase(VectorMeta& meta, CoherenceMode new_mode,
                            std::size_t from_node, sim::SimTime now,
                            sim::SimTime* done) {
  CoherenceMode old_mode = meta.mode.exchange(new_mode);
  if (AllowsReplication(old_mode) && !AllowsReplication(new_mode)) {
    // Leaving read-only: all replicas produced during reads are invalidated
    // (paper §III-C "Changing Phases").
    telemetry::NodeSink sink = telemetry_sink(from_node);
    telemetry::Counter* invalidations =
        sink.metrics->GetCounter("mm.coherence.invalidate_count");
    for (const auto& id : metadata().BlobsOfVector(meta.vector_id)) {
      sim::SimTime inval_done = now;
      auto dropped =
          metadata().InvalidateReplicas(id, from_node, now, &inval_done);
      Merge(inval_done, done);
      if (!dropped.empty()) {
        invalidations->Inc(dropped.size());
        // A real span (not an instant): the critical-path analyzer charges
        // coherence stalls by span duration.
        sink.trace->Complete("invalidate", "coherence", sink.node, 0, now,
                             inval_done);
      }
      for (std::size_t node : dropped) {
        MemoryTask task;
        task.kind = MemoryTask::Kind::kErase;
        task.id = id;
        task.from_node = from_node;
        task.issue_time = inval_done;
        // Fire-and-forget replica erase; stale bytes are re-validated by
        // version on the next acquire anyway.
        (void)runtime(node).Submit(std::move(task));
      }
    }
  }
  return Status::Ok();
}

Status Service::DestroyVector(VectorMeta& meta, bool remove_backend) {
  bool expected = false;
  if (!meta.destroyed.compare_exchange_strong(expected, true)) {
    return Status::Ok();  // idempotent
  }
  for (const auto& id : metadata().BlobsOfVector(meta.vector_id)) {
    auto loc = metadata().Lookup(id, 0, 0.0, nullptr);
    if (loc.ok()) {
      // Teardown: the vector is being destroyed, so kNotFound races with
      // concurrent eviction are expected and harmless.
      (void)runtime(loc->node).buffer().Erase(id);
      for (std::size_t node : metadata().Replicas(id, 0, 0.0, nullptr)) {
        // Same teardown race as above.
        (void)runtime(node).buffer().Erase(id);
      }
    }
    // Idempotent directory drop during teardown.
    (void)metadata().Remove(id, 0, 0.0, nullptr);
  }
  if (remove_backend && meta.stager != nullptr &&
      meta.stager->Exists(meta.uri)) {
    MM_RETURN_IF_ERROR(meta.stager->Remove(meta.uri));
  }
  return Status::Ok();
}

std::uint64_t Service::ScacheDramUsed() const {
  std::uint64_t total = 0;
  for (const auto& rt : runtimes_) {
    auto& bm = const_cast<NodeRuntime&>(*rt).buffer();
    for (std::size_t t = 0; t < bm.num_tiers(); ++t) {
      if (bm.tier(t).kind() == sim::TierKind::kDram) {
        total += bm.tier(t).used();
      }
    }
  }
  return total;
}

}  // namespace mm::core
