//! The shared database handle: committed state, publication, commit log,
//! durability.
//!
//! # The commit pipeline
//!
//! Publication used to be one mutex-guarded critical section (validation,
//! WAL append, published-cell swap, feed push, log pruning — all under one
//! lock). It is now a staged pipeline (normative description in
//! ARCHITECTURE.md, "The commit pipeline"):
//!
//! * **Validate** — first-committer-wins probes run against the
//!   [`crate::shard::ConflictIndex`], 16 independently locked shards
//!   visited in ascending index order, so disjoint write-sets validate
//!   concurrently with each other *and* with the fsync of earlier commits.
//! * **Publish** — the short commit **ticket** assigns the commit
//!   sequence, appends the WAL record (buffered — no fsync), updates the
//!   conflict shards and commit log, swaps the
//!   [`mad_storage::EpochCell`]-published image and pushes the
//!   replication feed. Feed order therefore *is* commit order.
//! * **Fsync / replication wait** — outside every lock. While commit `k`
//!   sits in the group-commit fsync window, commit `k+1` validates and
//!   publishes: the WAL stays seq-ordered (appends happen under the
//!   ticket) and acknowledgment still waits for durability.
//!
//! Readers never queue behind any of it: [`DbHandle::committed`] /
//! [`DbHandle::fork`] read the epoch cell, which is wait-free against
//! writers. Commit-log pruning runs off the commit path entirely
//! (amortized into transaction finish, see [`DbHandle::prune_commit_log`]).
//!
//! The pre-pipeline behavior — every attempt serialized start to finish —
//! is preserved behind [`CommitMode::SingleLock`] as an A/B arm and as the
//! oracle for the pipeline's equivalence proptests.

use crate::shard::{ActiveRegistry, ConflictIndex};
use crate::txn::WriteKey;
use mad_model::bin::u64_of_usize;
use mad_model::{FxHashMap, FxHashSet, MadError, Result};
use mad_obs::trace::{StageKind, StageTimer};
use mad_obs::{Counter, Registry};
use mad_storage::{Database, EpochCell};
use mad_wal::{CheckpointStats, FaultPlan, FsyncPolicy, Lsn, RecoveryInfo, TailRead, Wal, WalOp};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A poisoned handle lock means a panic escaped another thread while the
/// shared commit state was mid-update. `Result`-returning paths surface
/// that as a transaction-state error instead of cascading the panic into
/// every client thread; infallible accessors propagate the panic (each
/// such site carries a `check: allow(panic, …)` annotation).
fn poisoned<T>(_: PoisonError<T>) -> MadError {
    MadError::txn_state(
        "handle poisoned: a thread panicked while holding the commit state",
    )
}

/// One published commit: its sequence number and the write-set keys it
/// published. Kept (pruned) for first-committer-wins validation of
/// transactions that began before it.
#[derive(Clone, Debug)]
pub struct CommitRecord {
    /// The commit sequence number this record was published at.
    pub seq: u64,
    /// The pre-existing state the commit overwrote.
    pub keys: Vec<WriteKey>,
}

/// Does (and how does) the handle persist committed transactions?
#[derive(Clone, Debug, Default)]
pub enum Durability {
    /// In-memory only (the default): committed state dies with the
    /// process.
    #[default]
    None,
    /// Write-ahead logging: every commit appends its resolved op log to
    /// the log at `path` before acknowledging, per `fsync`.
    Wal {
        /// The log file.
        path: PathBuf,
        /// When commits wait for stable storage.
        fsync: FsyncPolicy,
    },
}

/// Which commit protocol the handle runs — the A/B knob for the staged
/// pipeline (see the module docs). Both modes publish identical images,
/// abort identical transaction sets and write identical WAL bytes; only
/// the concurrency of the path differs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CommitMode {
    /// The staged pipeline (the default): sharded validation, short
    /// publication ticket, fsync outside all locks.
    #[default]
    Pipelined,
    /// The legacy protocol: every publication attempt serialized start to
    /// finish under one gate. Kept as the benchmark A/B arm and as the
    /// proptest oracle.
    SingleLock,
}

/// When does a commit acknowledge with respect to **replication** — the
/// knob beside [`FsyncPolicy`], governing standbys instead of disks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReplAck {
    /// Acknowledge as soon as the commit is locally durable (the
    /// default); standbys catch up asynchronously. A primary failure can
    /// lose acknowledged commits that no standby had received yet.
    #[default]
    Async,
    /// Acknowledge only after at least `n` registered standbys have
    /// confirmed the commit durably appended to *their* logs — after
    /// promotion of any confirming standby, every acknowledged commit
    /// still exists. Blocks while fewer than `n` standbys are attached;
    /// sealing replication (shutdown, promotion) errors the waiters.
    SyncQuorum(usize),
}

/// One commit as seen by a replication subscriber: the sequence number
/// and the resolved op log exactly as written to the primary's WAL.
#[derive(Clone, Debug)]
pub struct FeedCommit {
    /// The commit sequence number.
    pub seq: u64,
    /// The resolved op log (provisional ids already remapped).
    pub ops: Vec<WalOp>,
}

/// Size/record-count triggers for automatic [`DbHandle::checkpoint`]s, so
/// the log — and with it recovery time and replication-bootstrap images —
/// stays bounded without anyone typing `CHECKPOINT`. Both triggers unset
/// (the default) disables auto-checkpointing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint once the log exceeds this many bytes.
    pub max_bytes: Option<u64>,
    /// Checkpoint once this many commits accumulated since the last one.
    pub max_commits: Option<u64>,
}

impl CheckpointPolicy {
    /// Is any trigger armed?
    pub fn is_enabled(&self) -> bool {
        self.max_bytes.is_some() || self.max_commits.is_some()
    }
}

/// Replication bookkeeping: the ack mode, each registered standby's
/// durably-acknowledged sequence, and the seal.
#[derive(Debug, Default)]
struct ReplState {
    mode: ReplAck,
    /// Standby token → highest sequence that standby confirmed durable.
    standbys: FxHashMap<u64, u64>,
    next_token: u64,
    /// Sealed: no further acknowledgment can arrive (shutdown or
    /// promotion); quorum waiters error instead of blocking forever.
    sealed: bool,
}

/// The commit **ticket**: the one short critical section of the pipeline.
/// Holding it assigns the next commit sequence, orders the WAL append,
/// swaps the epoch cell and pushes the feed — nothing else. It is never
/// held across an fsync, a replay, validation probes or pruning.
#[derive(Debug)]
struct TicketState {
    /// Monotone commit sequence number (0 = the initial load).
    seq: u64,
    /// Live replication subscribers. Commits are pushed here under the
    /// ticket, so feed order **is** commit order; a subscriber whose
    /// receiver is gone is dropped on the next push.
    feeds: Vec<mpsc::Sender<FeedCommit>>,
}

/// The committed image plus the sequence it was published at — the value
/// inside the epoch cell. Cloned out atomically on every read, so the
/// `(db, seq)` pair is always consistent.
#[derive(Clone, Debug)]
struct PublishedImage {
    /// The committed image. Immutable once published; replaced wholesale.
    db: Arc<Database>,
    /// The sequence number `db` was published at.
    seq: u64,
}

#[derive(Debug)]
struct Inner {
    /// The [`CommitMode::SingleLock`] gate: wraps a whole publication
    /// attempt, restoring the pre-pipeline one-at-a-time protocol. Under
    /// [`CommitMode::Pipelined`] it doubles as the straggler contention
    /// gate (see [`DbHandle::contention_gate`]).
    legacy_gate: Mutex<()>,
    /// The commit ticket (see [`TicketState`]).
    ticket: Mutex<TicketState>,
    /// The published image: readers are wait-free against publications.
    published: EpochCell<PublishedImage>,
    /// Active-transaction registry, sharded (see [`ActiveRegistry`]).
    registry: ActiveRegistry,
    /// First-committer-wins conflict index, sharded (see
    /// [`ConflictIndex`]).
    conflict: ConflictIndex,
    /// Commit records newer than the oldest active transaction's begin
    /// (ordered by `seq`, since publication pushes under the ticket).
    /// Pruned off the commit path — see [`DbHandle::prune_commit_log`].
    commit_log: Mutex<Vec<CommitRecord>>,
    /// Mirror of `commit_log.len()` (maintained under the `commit_log`
    /// lock) so finish-path pruning can skip an empty log without
    /// locking it.
    log_records: AtomicUsize,
    /// True when the handle runs [`CommitMode::SingleLock`].
    single_lock: AtomicBool,
    /// The write-ahead log, when the handle is durable.
    wal: Option<Wal>,
    durability: Durability,
    /// What recovery found, when this handle was opened from a log.
    recovery: Option<RecoveryInfo>,
    /// A standby's serving handle: writes are refused at publication (the
    /// replication replayer installs state through
    /// [`DbHandle::install_replicated`] instead).
    read_only: bool,
    /// Replication ack bookkeeping, with its condvar for quorum waits.
    repl: Mutex<ReplState>,
    repl_cv: Condvar,
    /// Auto-checkpoint knob and counters (interior-mutable so the policy
    /// can be set on a running handle).
    ckpt_policy: Mutex<CheckpointPolicy>,
    /// Fast-path gate: true only when a policy is armed on a durable
    /// handle, so undurable/unconfigured commits pay one relaxed load.
    ckpt_armed: AtomicBool,
    /// Commits since the last checkpoint (any kind).
    commits_since_ckpt: AtomicU64,
    /// Claimed by the one committer running an auto-checkpoint, so a
    /// burst of over-threshold commits triggers one rewrite, not many.
    ckpt_claimed: AtomicBool,
    /// Auto-checkpoints completed (monitoring/tests).
    auto_ckpts: AtomicU64,
    /// The deployment-wide metrics registry (see [`mad_obs`]): the WAL,
    /// replication endpoints, sessions and servers over this handle all
    /// register here; `SHOW STATS` renders a snapshot.
    obs: Registry,
    /// Hot-path commit counters (handles into `obs` — increments never
    /// touch the registry map).
    metrics: TxnMetrics,
}

/// Counter handles the commit protocol bumps inline.
#[derive(Debug)]
struct TxnMetrics {
    /// Commits published (`txn.commits`).
    commits: Counter,
    /// First-committer-wins validation failures (`txn.conflicts`).
    conflicts: Counter,
    /// Op-log replays after a stale publication attempt (`txn.replays`).
    replays: Counter,
    /// Commits that lost the publication race repeatedly and escalated to
    /// the contention gate (`txn.escalations`).
    escalations: Counter,
}

/// A cloneable, thread-safe handle to one shared MAD database.
///
/// All sessions of a deployment hold clones of one `DbHandle`. Readers take
/// a consistent frozen image with [`DbHandle::committed`]; writers go
/// through [`crate::Transaction`]. Publication is atomic: the committed
/// `Arc<Database>` is swapped through an [`EpochCell`], in-flight readers
/// keep whatever image they already cloned, and new readers are never
/// blocked behind commit validation or a WAL fsync — not even behind the
/// publication ticket itself.
///
/// A durable handle ([`DbHandle::create_durable`] /
/// [`DbHandle::open_durable`] / [`DbHandle::with_durability`]) additionally
/// appends every commit's resolved op log to a [`Wal`] before
/// acknowledging it, and can [`DbHandle::checkpoint`] the log back down to
/// a bootstrap image.
#[derive(Clone, Debug)]
pub struct DbHandle {
    inner: Arc<Inner>,
}

impl DbHandle {
    /// Wrap a loaded database as commit 0 of a shared, **non-durable**
    /// handle.
    pub fn new(db: Database) -> Self {
        Self::build(db, 0, None, Durability::None, None, false)
    }

    /// Wrap `db` — replicated state at commit sequence `seq` — as a
    /// **read-only** serving handle: sessions read ordinary snapshots,
    /// but any write is refused at publication with
    /// [`mad_model::MadError::TxnState`]. The replication replayer
    /// advances the handle through [`DbHandle::install_replicated`];
    /// durability of the replicated stream is the replayer's own local
    /// WAL, not this handle's.
    pub fn new_read_only(db: Database, seq: u64) -> Self {
        Self::build(db, seq, None, Durability::None, None, true)
    }

    /// Wrap `db` as the bootstrap image of a **new** write-ahead log at
    /// `path` (error if the log already exists — recover with
    /// [`DbHandle::open_durable`] instead).
    pub fn create_durable(
        db: Database,
        path: impl AsRef<Path>,
        fsync: FsyncPolicy,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let wal = Wal::create(&path, &db, fsync)?;
        Ok(Self::build(db, 0, Some(wal), Durability::Wal { path, fsync }, None, false))
    }

    /// Recover the committed state from the write-ahead log at `path`
    /// (error if it does not exist): torn tail truncated, bootstrap image
    /// restored, every complete commit record replayed.
    pub fn open_durable(path: impl AsRef<Path>, fsync: FsyncPolicy) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let (wal, db, info) = Wal::recover(&path, fsync)?;
        Ok(Self::build(
            db,
            info.last_seq,
            Some(wal),
            Durability::Wal { path, fsync },
            Some(info),
            false,
        ))
    }

    /// The `Durability` knob as one constructor: [`Durability::None`]
    /// behaves like [`DbHandle::new`]; [`Durability::Wal`] opens the log
    /// if it exists (recovering from it — `db` is then **ignored** in
    /// favor of the logged state) and otherwise creates it with `db` as
    /// the bootstrap image.
    pub fn with_durability(db: Database, durability: Durability) -> Result<Self> {
        match durability {
            Durability::None => Ok(Self::new(db)),
            Durability::Wal { path, fsync } => {
                if path.exists() {
                    Self::open_durable(path, fsync)
                } else {
                    Self::create_durable(db, path, fsync)
                }
            }
        }
    }

    fn build(
        db: Database,
        seq: u64,
        wal: Option<Wal>,
        durability: Durability,
        recovery: Option<RecoveryInfo>,
        read_only: bool,
    ) -> Self {
        let obs = Registry::new();
        let metrics = TxnMetrics {
            commits: obs.counter("txn.commits"),
            conflicts: obs.counter("txn.conflicts"),
            replays: obs.counter("txn.replays"),
            escalations: obs.counter("txn.escalations"),
        };
        let handle = DbHandle {
            inner: Arc::new(Inner {
                legacy_gate: Mutex::new(()),
                ticket: Mutex::new(TicketState { seq, feeds: Vec::new() }),
                published: EpochCell::new(PublishedImage { db: Arc::new(db), seq }),
                registry: ActiveRegistry::new(),
                conflict: ConflictIndex::new(),
                commit_log: Mutex::new(Vec::new()),
                log_records: AtomicUsize::new(0),
                single_lock: AtomicBool::new(false),
                wal,
                durability,
                recovery,
                read_only,
                repl: Mutex::new(ReplState::default()),
                repl_cv: Condvar::new(),
                ckpt_policy: Mutex::new(CheckpointPolicy::default()),
                ckpt_armed: AtomicBool::new(false),
                commits_since_ckpt: AtomicU64::new(0),
                ckpt_claimed: AtomicBool::new(false),
                auto_ckpts: AtomicU64::new(0),
                obs,
                metrics,
            }),
        };
        handle.register_gauges();
        handle
    }

    /// Register the handle's poll-gauges: the one surface `SHOW STATS`
    /// reads, folding what used to be ad-hoc accessors
    /// ([`DbHandle::commit_log_len`], [`DbHandle::conflict_index_len`],
    /// the WAL stats accessors…) into the registry. Closures capture a
    /// `Weak` so a handle (and its WAL file handles) can still drop
    /// while a server-side registry clone outlives it; each closure
    /// takes at most one ranked lock at a time and nests nothing inside
    /// it (shard sums lock one shard at a time; epoch-cell reads take no
    /// ranked lock at all).
    fn register_gauges(&self) {
        let obs = &self.inner.obs;
        let weak = {
            let w = Arc::downgrade(&self.inner);
            move || w.clone()
        };
        {
            let w = weak();
            obs.gauge("txn.seq", move || w.upgrade().map(|i| i.published.read().seq));
        }
        {
            let w = weak();
            obs.gauge("txn.commit_log", move || {
                w.upgrade().map(|i| u64_of_usize(i.log_records.load(Ordering::Relaxed)))
            });
        }
        {
            let w = weak();
            obs.gauge("txn.conflict_index", move || {
                w.upgrade().map(|i| u64_of_usize(i.conflict.len_total()))
            });
        }
        {
            let w = weak();
            obs.gauge("txn.active", move || {
                w.upgrade().map(|i| u64_of_usize(i.registry.active_total()))
            });
        }
        {
            let w = weak();
            obs.gauge("txn.auto_checkpoints", move || {
                w.upgrade().map(|i| i.auto_ckpts.load(Ordering::Relaxed))
            });
        }
        {
            // pairs re-frozen by the published image's last CSR rebuild
            // (the registry face of `Database::csr_rebuild_stats`).
            // `None` would reap the gauge, so "no rebuild yet" reads 0.
            let w = weak();
            obs.gauge("storage.csr_rebuilt_pairs", move || {
                w.upgrade().map(|i| {
                    let img = i.published.read();
                    let (rebuilt, _) = img.db.csr_rebuild_stats().unwrap_or((0, 0));
                    u64_of_usize(rebuilt)
                })
            });
        }
        {
            let w = weak();
            obs.gauge("storage.csr_pairs", move || {
                w.upgrade().map(|i| {
                    let img = i.published.read();
                    let (_, total) = img.db.csr_rebuild_stats().unwrap_or((0, 0));
                    u64_of_usize(total)
                })
            });
        }
        if self.is_durable() {
            {
                let w = weak();
                obs.gauge("wal.len_bytes", move || {
                    w.upgrade().and_then(|i| i.wal.as_ref().map(Wal::len_bytes))
                });
            }
            {
                let w = weak();
                obs.gauge("wal.fsyncs", move || {
                    w.upgrade().and_then(|i| i.wal.as_ref().map(Wal::fsync_count))
                });
            }
            {
                let w = weak();
                obs.gauge("wal.group_batches", move || {
                    w.upgrade()
                        .and_then(|i| i.wal.as_ref().map(|wal| wal.group_commit_stats().0))
                });
            }
            {
                let w = weak();
                obs.gauge("wal.group_records", move || {
                    w.upgrade()
                        .and_then(|i| i.wal.as_ref().map(|wal| wal.group_commit_stats().1))
                });
            }
        }
        {
            let w = weak();
            obs.text("repl.mode", move || {
                w.upgrade().and_then(|i| {
                    i.repl.lock().ok().map(|r| match r.mode {
                        ReplAck::Async => "async".to_owned(),
                        ReplAck::SyncQuorum(n) => format!("sync_quorum({n})"),
                    })
                })
            });
        }
        {
            let w = weak();
            obs.gauge("repl.sealed", move || {
                w.upgrade().and_then(|i| i.repl.lock().ok().map(|r| u64::from(r.sealed)))
            });
        }
        {
            let w = weak();
            obs.gauge("repl.standbys", move || {
                w.upgrade()
                    .and_then(|i| i.repl.lock().ok().map(|r| u64_of_usize(r.standbys.len())))
            });
        }
        {
            // per-standby replication cursor and lag-in-records — one
            // `repl.standby.<token>.{acked_seq,lag}` row pair per
            // attached standby. The committed seq is read first (epoch
            // cell, no lock) and the repl lock taken after.
            let w = weak();
            obs.multi("repl.standby", move || {
                w.upgrade().and_then(|i| {
                    let seq = i.published.read().seq;
                    let r = i.repl.lock().ok()?;
                    let mut rows = Vec::with_capacity(r.standbys.len() * 2);
                    for (token, &acked) in &r.standbys {
                        rows.push((format!("{token}.acked_seq"), acked));
                        rows.push((format!("{token}.lag"), seq.saturating_sub(acked)));
                    }
                    Some(rows)
                })
            });
        }
    }

    /// The deployment-wide metrics registry. Sessions, servers and
    /// replication endpoints over this handle register their metrics
    /// here; `SHOW STATS` renders a [`Registry::snapshot`]. Snapshots
    /// poll gauges that take the handle's ranked locks, so never call
    /// [`Registry::snapshot`] while holding one.
    pub fn obs(&self) -> &Registry {
        &self.inner.obs
    }

    /// Bump the op-log-replay counter (`txn.replays`) — called by the
    /// contended commit path in [`crate::Transaction`].
    pub(crate) fn count_replay(&self) {
        self.inner.metrics.replays.inc();
    }

    /// The contention gate for straggler commits (ARCHITECTURE.md, "The
    /// commit pipeline"): a pipelined committer that keeps losing the
    /// publication race takes this gate and holds it across its remaining
    /// replay attempts, so stragglers rebuild one at a time instead of
    /// racing each other into O(writers) wasted replays apiece. The mutex
    /// is the [`CommitMode::SingleLock`] whole-pipeline gate; under that
    /// mode [`DbHandle::publish_if`] acquires it itself, so this returns
    /// `None` to keep the non-reentrant lock single-entry (the gate's
    /// serialization already applies to every attempt there). Callers
    /// that got `Some` must pass `gate_held = true` to `publish_if` and
    /// drop the guard *before* any durability or replication wait.
    pub(crate) fn contention_gate(&self) -> Result<Option<MutexGuard<'_, ()>>> {
        if self.inner.single_lock.load(Ordering::Relaxed) {
            return Ok(None);
        }
        self.inner.metrics.escalations.inc();
        self.inner.legacy_gate.lock().map(Some).map_err(poisoned)
    }

    /// How this handle persists commits.
    pub fn durability(&self) -> &Durability {
        &self.inner.durability
    }

    /// Does this handle refuse writes (a standby's serving handle)?
    pub fn is_read_only(&self) -> bool {
        self.inner.read_only
    }

    /// Switch the commit protocol (see [`CommitMode`]). Takes effect for
    /// publication attempts that start afterwards; attempts already in
    /// flight finish under the mode they started with. Both modes are
    /// always safe to mix — the pipeline's ticket and shard locks are
    /// acquired in [`CommitMode::SingleLock`] too, the gate merely
    /// serializes whole attempts on top.
    pub fn set_commit_mode(&self, mode: CommitMode) {
        self.inner
            .single_lock
            .store(mode == CommitMode::SingleLock, Ordering::Relaxed);
    }

    /// The commit protocol currently in effect.
    pub fn commit_mode(&self) -> CommitMode {
        if self.inner.single_lock.load(Ordering::Relaxed) {
            CommitMode::SingleLock
        } else {
            CommitMode::Pipelined
        }
    }

    // ------------------------------------------------------------------
    // replication
    // ------------------------------------------------------------------

    /// Set the replication acknowledgment mode (see [`ReplAck`]). Takes
    /// effect for commits that reach their replication wait afterwards;
    /// loosening to [`ReplAck::Async`] releases current quorum waiters.
    pub fn set_repl_ack(&self, mode: ReplAck) {
        // check: allow(panic, "infallible signature; poison means a panic already escaped mid-update and propagating it is the honest outcome")
        let mut repl = self.inner.repl.lock().unwrap();
        repl.mode = mode;
        self.inner.repl_cv.notify_all();
    }

    /// The current replication acknowledgment mode.
    pub fn repl_ack(&self) -> ReplAck {
        // check: allow(panic, "infallible signature; poison means a panic already escaped mid-update and propagating it is the honest outcome")
        self.inner.repl.lock().unwrap().mode
    }

    /// Subscribe to the commit feed: every commit published from now on
    /// is delivered as a [`FeedCommit`], in exact commit order (the push
    /// happens under the commit ticket, which is what orders
    /// publication). Only durable handles feed subscribers — the stream
    /// *is* the WAL record stream — so a subscription on a non-durable
    /// handle never receives anything. Dropping the receiver
    /// unsubscribes on the next push.
    pub fn subscribe_commits(&self) -> mpsc::Receiver<FeedCommit> {
        let (tx, rx) = mpsc::channel();
        // check: allow(panic, "infallible signature; poison means a panic already escaped mid-update and propagating it is the honest outcome")
        self.inner.ticket.lock().unwrap().feeds.push(tx);
        rx
    }

    /// Read committed records newer than `from_seq` back out of the WAL
    /// — the replication catch-up source (`None` on non-durable handles).
    /// [`TailRead::SnapshotNeeded`] means a checkpoint folded the
    /// requested records away and the subscriber needs a full snapshot.
    pub fn wal_tail_commits(&self, from_seq: u64) -> Result<Option<TailRead>> {
        match &self.inner.wal {
            Some(wal) => wal.tail_commits(from_seq).map(Some),
            None => Ok(None),
        }
    }

    /// Register a standby for quorum accounting; returns its token.
    pub fn register_standby(&self) -> u64 {
        // check: allow(panic, "infallible signature; poison means a panic already escaped mid-update and propagating it is the honest outcome")
        let mut repl = self.inner.repl.lock().unwrap();
        let token = repl.next_token;
        repl.next_token += 1;
        repl.standbys.insert(token, 0);
        token
    }

    /// Record that the standby behind `token` has durably appended every
    /// record up to and including `seq`, waking quorum waiters.
    pub fn standby_ack(&self, token: u64, seq: u64) {
        // check: allow(panic, "infallible signature; poison means a panic already escaped mid-update and propagating it is the honest outcome")
        let mut repl = self.inner.repl.lock().unwrap();
        if let Some(have) = repl.standbys.get_mut(&token) {
            *have = (*have).max(seq);
            self.inner.repl_cv.notify_all();
        }
    }

    /// Deregister a standby (its connection died). Its acknowledgments no
    /// longer count toward quorums.
    pub fn standby_gone(&self, token: u64) {
        // check: allow(panic, "infallible signature; poison means a panic already escaped mid-update and propagating it is the honest outcome")
        let mut repl = self.inner.repl.lock().unwrap();
        repl.standbys.remove(&token);
        self.inner.repl_cv.notify_all();
    }

    /// Seal replication: no further acknowledgment can arrive (server
    /// shutdown, primary demotion). Current and future quorum waiters
    /// error instead of blocking forever — their commits are published
    /// and locally durable, but replication is unknown, the same
    /// post-publication indeterminacy as a failed fsync wait.
    pub fn seal_replication(&self) {
        // check: allow(panic, "infallible signature; poison means a panic already escaped mid-update and propagating it is the honest outcome")
        let mut repl = self.inner.repl.lock().unwrap();
        repl.sealed = true;
        self.inner.repl_cv.notify_all();
    }

    /// Block until `seq` satisfies the [`ReplAck`] mode: immediately for
    /// [`ReplAck::Async`], else until `n` standbys acknowledged `seq` (or
    /// the seal errors the wait).
    pub(crate) fn wait_replicated(&self, seq: u64) -> Result<()> {
        let mut repl = self.inner.repl.lock().map_err(poisoned)?;
        loop {
            let need = match repl.mode {
                ReplAck::Async => return Ok(()),
                ReplAck::SyncQuorum(n) => n,
            };
            if repl.standbys.values().filter(|&&have| have >= seq).count() >= need {
                return Ok(());
            }
            if repl.sealed {
                return Err(MadError::txn_state(format!(
                    "replication sealed before {need} standby(s) acknowledged sequence \
                     {seq}; the commit is published and locally durable but its \
                     replication is unknown"
                )));
            }
            repl = self.inner.repl_cv.wait(repl).map_err(poisoned)?;
        }
    }

    /// Install the next replicated commit's state — the standby
    /// replayer's publication path, valid only on
    /// [`DbHandle::new_read_only`] handles. `seq` must be exactly the
    /// successor of the current sequence: replication replays the commit
    /// history gap-free or not at all.
    pub fn install_replicated(&self, db: Database, seq: u64) -> Result<()> {
        if !self.inner.read_only {
            return Err(MadError::txn_state(
                "install_replicated is the standby path; this handle takes writes \
                 through transactions",
            ));
        }
        let mut t = self.inner.ticket.lock().map_err(poisoned)?;
        if seq != t.seq + 1 {
            return Err(MadError::txn_state(format!(
                "replication gap: handle is at sequence {}, install asked for {seq}",
                t.seq
            )));
        }
        t.seq = seq;
        self.inner.published.publish(PublishedImage { db: Arc::new(db), seq });
        Ok(())
    }

    /// Install a **full replicated snapshot** at `seq` — the standby's
    /// resynchronization path, used when the primary's log no longer
    /// holds the records after the standby's cursor (a checkpoint folded
    /// them away) and replication restarts from a bootstrap image.
    /// Unlike [`DbHandle::install_replicated`] this may jump forward over
    /// a gap — the snapshot *is* the missing history — but never
    /// backwards. Valid only on [`DbHandle::new_read_only`] handles.
    pub fn install_snapshot(&self, db: Database, seq: u64) -> Result<()> {
        if !self.inner.read_only {
            return Err(MadError::txn_state(
                "install_snapshot is the standby path; this handle takes writes \
                 through transactions",
            ));
        }
        let mut t = self.inner.ticket.lock().map_err(poisoned)?;
        if seq < t.seq {
            return Err(MadError::txn_state(format!(
                "replication regression: handle is at sequence {}, snapshot install \
                 asked for {seq}",
                t.seq
            )));
        }
        t.seq = seq;
        self.inner.published.publish(PublishedImage { db: Arc::new(db), seq });
        Ok(())
    }

    // ------------------------------------------------------------------
    // auto-checkpoint
    // ------------------------------------------------------------------

    /// Arm (or, with an empty policy, disarm) automatic checkpointing.
    /// Commits that push the log over a trigger fold it down inline —
    /// one committer at a time — so log size stays bounded without a
    /// manual `CHECKPOINT`. No effect on non-durable handles.
    pub fn set_checkpoint_policy(&self, policy: CheckpointPolicy) {
        // check: allow(panic, "infallible signature; poison means a panic already escaped mid-update and propagating it is the honest outcome")
        *self.inner.ckpt_policy.lock().unwrap() = policy;
        self.inner
            .ckpt_armed
            .store(policy.is_enabled() && self.is_durable(), Ordering::SeqCst);
    }

    /// The current auto-checkpoint policy.
    pub fn checkpoint_policy(&self) -> CheckpointPolicy {
        // check: allow(panic, "infallible signature; poison means a panic already escaped mid-update and propagating it is the honest outcome")
        *self.inner.ckpt_policy.lock().unwrap()
    }

    /// Auto-checkpoints completed since open.
    pub fn auto_checkpoint_count(&self) -> u64 {
        self.inner.auto_ckpts.load(Ordering::Relaxed)
    }

    /// Post-commit trigger check: fold the log if the armed policy says
    /// so. At most one committer runs the rewrite; the rest skip. An
    /// auto-checkpoint failure is **not** the commit's failure (the
    /// commit is already durable) — a genuinely sick log poisons itself
    /// and surfaces on the next commit.
    pub(crate) fn maybe_auto_checkpoint(&self) {
        if !self.inner.ckpt_armed.load(Ordering::Relaxed) {
            return;
        }
        let policy = self.checkpoint_policy();
        let over_bytes = policy
            .max_bytes
            .is_some_and(|m| self.wal_len_bytes().unwrap_or(0) > m);
        let over_commits = policy
            .max_commits
            .is_some_and(|m| self.inner.commits_since_ckpt.load(Ordering::Relaxed) >= m);
        if !(over_bytes || over_commits) {
            return;
        }
        if self.inner.ckpt_claimed.swap(true, Ordering::SeqCst) {
            return; // another committer is already rewriting
        }
        if self.checkpoint().is_ok() {
            self.inner.auto_ckpts.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.ckpt_claimed.store(false, Ordering::SeqCst);
    }

    /// Arm (or, with `None`, clear) deterministic WAL fault injection —
    /// the crash/failover scenarios' hook (see [`FaultPlan`]). Returns
    /// whether a log was armed (`false` on non-durable handles).
    pub fn set_wal_fault_plan(&self, plan: Option<FaultPlan>) -> bool {
        match &self.inner.wal {
            Some(wal) => {
                wal.set_fault_plan(plan);
                true
            }
            None => false,
        }
    }

    /// Is every commit written ahead to a log?
    pub fn is_durable(&self) -> bool {
        self.inner.wal.is_some()
    }

    /// What recovery found when this handle was opened from an existing
    /// log (`None` for fresh or non-durable handles).
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.inner.recovery
    }

    /// Current write-ahead-log size in bytes, summed over its segments
    /// (`None` when not durable).
    pub fn wal_len_bytes(&self) -> Option<u64> {
        self.inner.wal.as_ref().map(Wal::len_bytes)
    }

    /// Fsyncs the log has performed since open (`None` when not durable).
    /// Group commit shows up as `fsyncs ≪ commits`.
    pub fn wal_fsync_count(&self) -> Option<u64> {
        self.inner.wal.as_ref().map(Wal::fsync_count)
    }

    /// Fold the log into a fresh bootstrap image of the current committed
    /// state and drop every commit record, bounding log size and recovery
    /// time. Commits (and replicated installs) are held off for the whole
    /// rewrite by the commit ticket; snapshot readers and transaction
    /// begins are not. Errors on a non-durable handle.
    pub fn checkpoint(&self) -> Result<CheckpointStats> {
        let Some(wal) = &self.inner.wal else {
            return Err(MadError::wal(
                "CHECKPOINT requires a durable handle (no write-ahead log attached)",
            ));
        };
        // hold the commit ticket so no commit appends mid-rewrite; the
        // epoch cell is read under it, so (db, seq) is the final word
        let _t = self.inner.ticket.lock().map_err(poisoned)?;
        let img = self.inner.published.read();
        // check: allow(lock, "resolves to Wal::checkpoint (sync/files), not DbHandle::checkpoint; the name-keyed call graph conflates them")
        let stats = wal.checkpoint(&img.db, img.seq)?;
        self.inner.commits_since_ckpt.store(0, Ordering::Relaxed);
        Ok(stats)
    }

    /// The current committed image. The returned `Arc` is a consistent
    /// snapshot: it never changes, no matter what commits afterwards.
    ///
    /// This is an epoch-cell read off the publication fast path: it holds
    /// no ranked lock at all, so a reader is never blocked behind commit
    /// validation, the publication ticket, op-log replay or a WAL fsync.
    pub fn committed(&self) -> Arc<Database> {
        self.inner.published.read().db
    }

    /// The current commit sequence number (how many commits have been
    /// published). Sessions use it to detect that their cached fork of the
    /// committed state is stale.
    pub fn commit_seq(&self) -> u64 {
        self.inner.published.read().seq
    }

    /// A copy-on-write fork of the committed image plus the sequence number
    /// it was taken at — the cheap way for a session to get a *mutable*
    /// working copy (e.g. for per-statement query scratch space).
    ///
    /// The fork starts CSR-warm. The first fork of a published image builds
    /// that image's CSR snapshot — incrementally from the one it inherited,
    /// under the image's own cache mutex, so concurrent first readers wait
    /// for one build instead of each rebuilding a private copy — and every
    /// later fork of the image shares it.
    pub fn fork(&self) -> (Database, u64) {
        let img = self.inner.published.read();
        drop(img.db.csr_snapshot());
        ((*img.db).clone(), img.seq)
    }

    /// How many commit records the first-committer-wins log currently
    /// retains (bounded by in-flight contention; exposed for tests and
    /// monitoring).
    pub fn commit_log_len(&self) -> usize {
        // check: allow(panic, "monitoring accessor; poison means a panic already escaped mid-update and propagating it is the honest outcome")
        self.inner.commit_log.lock().unwrap().len()
    }

    /// How many distinct write keys the commit-validation hash index
    /// currently covers (pruned together with the commit log; exposed for
    /// tests and monitoring).
    pub fn conflict_index_len(&self) -> usize {
        self.inner.conflict.len_total()
    }

    /// Begin bookkeeping: returns `(committed image, begin_seq, registry
    /// shard)` — the transaction registers as active in one registry
    /// shard and the image is read inside that shard's critical section
    /// (what makes pruning's cutoff sound; see
    /// [`ActiveRegistry::register_begin`]).
    pub(crate) fn begin_txn(&self) -> (Arc<Database>, u64, usize) {
        self.inner.registry.register_begin(|| {
            let img = self.inner.published.read();
            (img.db, img.seq)
        })
    }

    /// Drop an active transaction's registration (abort, or the cleanup
    /// half of commit) and prune the commit log. Idempotence lives one
    /// level up: [`crate::Transaction`] releases its registration exactly
    /// once (its `finish` is called on commit, abort **and** plain drop —
    /// early return, panic, a disconnected client), so a leaked
    /// registration can never pin the log forever.
    pub(crate) fn finish_txn(&self, begin_seq: u64, reg_shard: usize) {
        self.inner.registry.unregister_begin(reg_shard, begin_seq);
        self.prune();
    }

    /// Prune dead commit records and their conflict-index entries — the
    /// amortized cleanup the commit critical path no longer carries. Runs
    /// automatically on every transaction finish; public so operators and
    /// tests can force it. Touches the registry shards, the commit log
    /// and the conflict shards, but **never** the commit ticket: a pinned
    /// 10k-record log costs committers nothing beyond their own probes.
    pub fn prune_commit_log(&self) {
        self.prune();
    }

    fn prune(&self) {
        if self.inner.log_records.load(Ordering::Relaxed) == 0 {
            return;
        }
        // every active transaction with begin b validates against records
        // with seq > b, so records at or below the oldest begin are dead;
        // with no active transactions everything up to the current
        // sequence is (see `ActiveRegistry::oldest_begin` for why no
        // concurrent begin can observe a sequence below the cutoff)
        let cutoff = self.inner.registry.oldest_begin(|| self.inner.published.read().seq);
        let dead = {
            // check: allow(panic, "infallible cleanup; poison means a panic already escaped mid-update and propagating it is the honest outcome")
            let mut log = self.inner.commit_log.lock().unwrap();
            // the log is seq-ordered (pushes happen under the ticket):
            // split off the dead prefix — O(log n) and no allocation when
            // a pinned transaction keeps everything alive
            let keep_from = log.partition_point(|r| r.seq <= cutoff);
            if keep_from == 0 {
                return;
            }
            let mut dead = std::mem::take(&mut *log);
            let live = dead.split_off(keep_from);
            *log = live;
            self.inner.log_records.store(log.len(), Ordering::Relaxed);
            dead
        };
        // index entries die outside the log lock; per-(key, seq) checks
        // keep this safe against concurrent publications of the same key
        self.inner.conflict.remove_dead(&dead);
    }

    /// One optimistic publication attempt — the **Validate** and
    /// **Publish** stages of the pipeline (module docs). Validation
    /// probes the sharded conflict index without any global lock; the
    /// ticket is then held only for sequence assignment, the buffered WAL
    /// append, the index/log updates and the epoch-cell swap. Fsync
    /// waiting and op-log replay happen in the caller, outside
    /// everything, which is what lets commit `k+1` validate while commit
    /// `k` fsyncs.
    ///
    /// The transaction's registration is **not** touched here: on every
    /// outcome the caller still owns it and releases it through
    /// [`DbHandle::finish_txn`] (commit success/failure, abort, or drop).
    ///
    /// * `Err(TxnConflict)` — first-committer-wins validation failed;
    ///   nothing was published. A WAL append failure reports the same way
    ///   (as its own error): nothing was published.
    /// * `Ok(Published { .. })` — `candidate` was built against `expected`
    ///   and `expected` is still the committed state: record logged (when
    ///   durable) and published. The caller must still await `lsn` per the
    ///   fsync policy before acknowledging.
    /// * `Ok(Stale(current))` — another commit landed since `expected` was
    ///   observed; the caller must replay against `current` and try again.
    ///   (A conflicting commit that lands between our shard probes and the
    ///   ticket also lands here: it necessarily swapped the published
    ///   image, so the retry re-validates against its index entries.)
    ///
    /// `gate_held` — the caller already holds the contention gate (see
    /// [`DbHandle::contention_gate`]); skip acquiring it here even if the
    /// handle switched to [`CommitMode::SingleLock`] mid-commit, since the
    /// gate and the single-lock gate are the same (non-reentrant) mutex.
    pub(crate) fn publish_if(
        &self,
        begin_seq: u64,
        expected: &Arc<Database>,
        keys: &FxHashSet<WriteKey>,
        candidate: Database,
        wal_ops: Option<&[WalOp]>,
        gate_held: bool,
    ) -> Result<PublishOutcome> {
        if self.inner.read_only {
            // the hard guarantee under the Session-level nicety: nothing
            // publishes through a standby's serving handle
            return Err(MadError::txn_state(
                "this handle serves a read-only standby; writes must go to the primary",
            ));
        }
        if self.inner.wal.is_some() && wal_ops.is_none() {
            // a durable handle was handed no ops — a caller bug, and
            // publishing would silently lose the commit on restart
            return Err(MadError::wal(
                "durable publication without a serialized op log",
            ));
        }
        let _legacy = if self.inner.single_lock.load(Ordering::Relaxed) && !gate_held {
            Some(self.inner.legacy_gate.lock().map_err(poisoned)?)
        } else {
            None
        };
        // Validate: first-committer-wins — any committed write since our
        // begin that overlaps our write-set aborts us. One hash probe per
        // key of OUR write-set against its conflict shard; disjoint
        // write-sets never serialize here.
        let vt = StageTimer::start(StageKind::Validate);
        let probes = u64_of_usize(keys.len());
        if let Some((key, seq)) = self.inner.conflict.find_conflict(keys.iter(), begin_seq) {
            self.inner.metrics.conflicts.inc();
            vt.finish_info(&[("probes", probes), ("conflict", 1)]);
            return Err(MadError::txn_conflict(format!(
                "write-write conflict on {key} with the transaction committed at sequence {seq}"
            )));
        }
        vt.finish_info(&[("probes", probes)]);
        // Publish: the short ticket. Publication is ordered here, so the
        // staleness check under it is the final word on `expected`.
        let mut t = self.inner.ticket.lock().map_err(poisoned)?;
        let current = self.inner.published.read();
        if !Arc::ptr_eq(&current.db, expected) {
            return Ok(PublishOutcome::Stale(current.db));
        }
        let seq = t.seq + 1;
        // write-ahead: the record must be in the log (buffered) before the
        // state becomes visible; an append failure publishes nothing —
        // the conflict index and commit log are untouched at this point
        let lsn = match (&self.inner.wal, wal_ops) {
            (Some(wal), Some(ops)) => Some(wal.append_commit(seq, ops)?),
            _ => None,
        };
        let pt = StageTimer::start(StageKind::Publish);
        self.inner.conflict.publish_keys(keys.iter(), seq);
        {
            // check: allow(panic, "infallible once the record is appended; poison means a panic already escaped mid-update and propagating it is the honest outcome")
            let mut log = self.inner.commit_log.lock().unwrap();
            log.push(CommitRecord { seq, keys: keys.iter().cloned().collect() });
            self.inner.log_records.store(log.len(), Ordering::Relaxed);
        }
        t.seq = seq;
        self.inner.published.publish(PublishedImage { db: Arc::new(candidate), seq });
        // feed replication subscribers under the same ticket that ordered
        // the publication, so the stream is the commit order, gap-free;
        // only durable commits carry the resolved ops the stream needs
        if !t.feeds.is_empty() {
            if let Some(ops) = wal_ops {
                t.feeds.retain(|tx| {
                    tx.send(FeedCommit {
                        seq,
                        ops: ops.to_vec(),
                    })
                    .is_ok()
                });
            }
        }
        pt.finish_info(&[("keys", probes)]);
        drop(t);
        self.inner.commits_since_ckpt.fetch_add(1, Ordering::Relaxed);
        self.inner.metrics.commits.inc();
        Ok(PublishOutcome::Published { seq, lsn })
    }

    /// Wait for the WAL record at `lsn` per the fsync policy (no-op for
    /// non-durable handles).
    pub(crate) fn wait_durable(&self, lsn: Option<Lsn>) -> Result<()> {
        match (&self.inner.wal, lsn) {
            (Some(wal), Some(lsn)) => wal.wait_durable(lsn),
            _ => Ok(()),
        }
    }

    /// Test hook: hold the commit ticket, proving reads stay unblocked
    /// while a commit (or fsync stall) owns the publication path.
    #[cfg(test)]
    pub(crate) fn lock_publication_for_test(&self) -> std::sync::MutexGuard<'_, impl Sized> {
        self.inner.ticket.lock().unwrap()
    }
}

/// Result of one [`DbHandle::publish_if`] attempt.
pub(crate) enum PublishOutcome {
    /// Published at this commit sequence; the transaction is finished.
    /// `lsn` is the WAL position to await (durable handles only).
    Published {
        /// The published commit sequence.
        seq: u64,
        /// WAL position of the record, if the handle is durable.
        lsn: Option<Lsn>,
    },
    /// The committed state moved; replay against the carried image and
    /// retry.
    Stale(Arc<Database>),
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Poison the commit ticket by panicking a thread that holds it, then
    /// check the fallible standby paths surface the poison as a
    /// transaction-state error instead of cascading the panic.
    #[test]
    fn poisoned_handle_errors_on_fallible_paths() {
        let handle = DbHandle::new_read_only(Database::empty(), 0);
        let poisoner = {
            let handle = handle.clone();
            std::thread::spawn(move || {
                let _guard = handle.lock_publication_for_test();
                panic!("poisoning the commit ticket");
            })
        };
        assert!(poisoner.join().is_err());

        let err = handle
            .install_replicated(Database::empty(), 1)
            .expect_err("install through a poisoned handle must error");
        assert!(
            err.to_string().contains("handle poisoned"),
            "unexpected error: {err}"
        );
        let err = handle
            .install_snapshot(Database::empty(), 1)
            .expect_err("snapshot install through a poisoned handle must error");
        assert!(err.to_string().contains("handle poisoned"), "{err}");
    }

    /// The A/B knob: both modes publish, and the mode reads back.
    #[test]
    fn commit_mode_round_trips() {
        let handle = DbHandle::new(Database::empty());
        assert_eq!(handle.commit_mode(), CommitMode::Pipelined);
        handle.set_commit_mode(CommitMode::SingleLock);
        assert_eq!(handle.commit_mode(), CommitMode::SingleLock);
        handle.set_commit_mode(CommitMode::Pipelined);
        assert_eq!(handle.commit_mode(), CommitMode::Pipelined);
    }
}
