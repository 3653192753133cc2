//! The traced run: per-layer metrics by peeling.
//!
//! The same seeded statement stream (segment 0, rounds `0..R`) is
//! replayed at successively lower public entry points, each on a fresh
//! deployment built from the same fixture:
//!
//! | level | entry point |
//! |---|---|
//! | untraced | `mad_net::Client::execute`, no spans (the overhead base) |
//! | served | `mad_net::Client::execute`, spans recorded |
//! | session | `Session::execute_rendered` on `Session::shared`, same durability and standby |
//! | session_nondurable | the same on a non-durable handle (commit self time) |
//! | session_async | the same at `ReplAck::Async` (`mixed_replicated`; ack wait) |
//! | parse | `mad_mql::parse` |
//! | derive | `mad_core::derive::derive_molecules` on the committed image |
//! | csr | `Database::csr_snapshot` on each newly published image, and on a session's stale fork just before its read (session level) |
//! | fork | `DbHandle::fork` |
//! | wal | `Wal::append_commit` + `Wal::wait_durable` on a scratch log under group fsync, fed the session level's commit feed by two writers |
//!
//! A layer's self time is its level's time minus the time of the levels
//! below it. Registry counters are read as deltas around the served level.

use crate::drive::{req_id, Round, Span, Target};
use crate::metrics::{self, nearest_rank, Ratio};
use crate::report::{self, Report};
use crate::run::{self, Pooled};
use crate::workload::{self, DeployOpts, Deployment, Fixture, Kind, Op, PEEL_FSYNC};
use crate::Args;
use mad_core::derive::{derive_molecules, DeriveOptions, Strategy};
use mad_model::{MadError, Result, Value};
use mad_mql::analyze::analyze_structure;
use mad_mql::ast::{FromClause, Statement};
use mad_obs::Registry;
use mad_storage::Database;
use mad_txn::{FeedCommit, ReplAck};
use mad_wal::{apply_op, Wal};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Bound;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn p50_us(samples: &[u64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_unstable();
    nearest_rank(&s, 0.5).map(|v| v as f64 / 1e3)
}

/// Counter and gauge readings of a registry, by name.
fn counters(reg: &Registry) -> HashMap<String, u64> {
    reg.snapshot(None)
        .into_iter()
        .filter_map(|(k, v)| v.as_u64().map(|v| (k, v)))
        .collect()
}

fn delta(before: &HashMap<String, u64>, after: &HashMap<String, u64>, name: &str) -> f64 {
    let b = before.get(name).copied().unwrap_or(0);
    after.get(name).copied().unwrap_or(0).saturating_sub(b) as f64
}

/// What every level of the peel shares.
struct Peel<'a> {
    kind: Kind,
    fx: &'a Fixture,
    seed: u64,
    dir: &'a Path,
    epoch: Instant,
}

/// An in-process level: a fresh deployment over the fixture, warmed up
/// like the served one, then the stream replayed through sessions.
struct Level {
    pooled: Pooled,
    slots: HashMap<u64, u64>,
    csr_rebuild_reads: u64,
    /// Session CSR rebuilds timed before their reads, by request id.
    csr_rebuilds: HashMap<u64, u64>,
    csr_pairs_last: usize,
    feed: Vec<FeedCommit>,
    dep: Deployment,
}

fn in_process(peel: &Peel<'_>, opts: DeployOpts, name: &'static str) -> Result<Level> {
    let Peel {
        kind,
        fx,
        seed,
        dir,
        epoch,
    } = *peel;
    let dep = workload::deploy(fx.db.clone(), dir, name, opts)?;
    let feed_rx = opts.durable.then(|| dep.handle.subscribe_commits());
    let target = Target::InProcess(dep.handle.clone());
    run::warm_up(&target, kind, fx, seed, 0)?;
    let mut rs = run::rounds(&target, kind, fx, seed, 0, Some((name, epoch)))?;
    keep_spans(&mut rs);
    let mut slots = HashMap::new();
    let mut csr_rebuilds = HashMap::new();
    let (mut csr_rebuild_reads, mut csr_pairs_last) = (0, 0);
    for r in &rs {
        for c in &r.conns {
            slots.extend(c.slots.iter().copied());
            csr_rebuilds.extend(c.csr_rebuilds.iter().copied());
            csr_rebuild_reads += c.csr_rebuild_reads;
            csr_pairs_last = csr_pairs_last.max(c.csr_pairs_last);
        }
    }
    let mut pooled = Pooled::default();
    pooled.add(rs, &mut Default::default(), &mut Vec::new());
    let feed = feed_rx
        .map(|rx| rx.try_iter().collect())
        .unwrap_or_default();
    Ok(Level {
        pooled,
        slots,
        csr_rebuild_reads,
        csr_rebuilds,
        csr_pairs_last,
        feed,
        dep,
    })
}

thread_local! {
    /// Spans of the traced run, written out when it ends.
    static SPANS: std::cell::RefCell<Vec<Span>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// What the WAL peel measured.
struct WalPeel {
    append: Vec<u64>,
    wait: Vec<u64>,
    /// `(group batches, records they covered, fsyncs)`.
    groups: (u64, u64, u64),
}

/// Append the commit feed to a scratch log under [`PEEL_FSYNC`] from
/// [`workload::CONNECTIONS`] writer threads, as the served commits
/// arrive: each writer appends its share in commit order, then waits
/// for durability while the other appends, so group commit can batch.
fn wal_peel(path: &Path, image: &Database, feed: &[FeedCommit], epoch: Instant) -> Result<WalPeel> {
    let wal = Wal::create(path, image, PEEL_FSYNC)?;
    let turn = (Mutex::new(0usize), Condvar::new());
    let writers = workload::CONNECTIONS;
    let per_writer = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..writers)
            .map(|w| {
                let (wal, turn) = (&wal, &turn);
                scope.spawn(move || -> Result<Vec<(u64, Instant, Instant, Instant)>> {
                    let mut out = Vec::new();
                    for (i, fc) in feed.iter().enumerate().skip(w).step_by(writers) {
                        let mut next = turn.0.lock().expect("turn lock");
                        while *next != i {
                            next = turn.1.wait(next).expect("turn lock");
                        }
                        let t = Instant::now();
                        let appended = wal.append_commit(fc.seq, &fc.ops);
                        let m = Instant::now();
                        *next += 1;
                        drop(next);
                        turn.1.notify_all();
                        wal.wait_durable(appended?)?;
                        out.push((fc.seq, t, m, Instant::now()));
                    }
                    Ok(out)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .map_err(|_| MadError::wal("wal peel writer panicked"))?
            })
            .collect::<Result<Vec<_>>>()
    })?;
    let mut peel = WalPeel {
        append: Vec::new(),
        wait: Vec::new(),
        groups: (0, 0, wal.fsync_count()),
    };
    (peel.groups.0, peel.groups.1) = wal.group_commit_stats();
    for (seq, t, m, e) in per_writer.into_iter().flatten() {
        peel.append.push(ns(m - t));
        peel.wait.push(ns(e - m));
        span("wal", "mad_wal::Wal::append_commit", seq, epoch, t, m);
        span("wal", "mad_wal::Wal::wait_durable", seq, epoch, m, e);
    }
    Ok(peel)
}

/// Move the rounds' recorded spans into the run's span log.
fn keep_spans(rounds: &mut [Round]) {
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        for c in rounds.iter_mut().flat_map(|r| r.conns.iter_mut()) {
            s.append(&mut c.spans);
        }
    });
}

fn span(
    level: &'static str,
    name: &'static str,
    req: u64,
    epoch: Instant,
    start: Instant,
    end: Instant,
) {
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        let id = s.len() as u64 + 1;
        s.push(Span {
            id,
            parent: 0,
            req,
            level,
            name,
            start_ns: ns(start.duration_since(epoch)),
            end_ns: ns(end.duration_since(epoch)),
        });
    });
}

/// The derivation a read asks for: its structure and its roots, looked
/// up through the fixture's indexes.
fn derivation(
    db: &Database,
    stmt: &str,
) -> Result<(mad_core::MoleculeStructure, Vec<mad_model::AtomId>)> {
    let Statement::Select(sel) = mad_mql::parse(stmt)? else {
        return Err(MadError::Analysis {
            detail: format!("not a SELECT: {stmt}"),
        });
    };
    let FromClause::Inline { structure, .. } = &sel.from else {
        return Err(MadError::Analysis {
            detail: format!("not an inline structure: {stmt}"),
        });
    };
    let md = analyze_structure(db.schema(), structure)?;
    let roots = if let Some(name) = stmt.split('\'').nth(1) {
        let state = db.schema().atom_type_id("state")?;
        let sname = db
            .schema()
            .atom_type(state)
            .attr_index("sname")
            .expect("state.sname");
        db.lookup_eq(state, sname, &Value::Text(name.to_owned()))
            .map(<[_]>::to_vec)
            .unwrap_or_default()
    } else {
        let x: f64 = stmt
            .rsplit("> ")
            .next()
            .and_then(|x| x.trim().parse().ok())
            .unwrap_or(f64::MAX);
        let river = db.schema().atom_type_id("river")?;
        let length = db
            .schema()
            .atom_type(river)
            .attr_index("length")
            .expect("river.length");
        db.lookup_range(
            river,
            length,
            Bound::Excluded(&Value::Float(x)),
            Bound::Unbounded,
        )
        .unwrap_or_default()
    };
    Ok((md, roots))
}

/// The traced run.
pub fn traced(args: &Args, dir: &Path, out: &Path) -> Result<Report> {
    let (kind, seed) = (args.kind, args.seed);
    let epoch = Instant::now();
    let mut rep = Report::default();
    let mut checks = Vec::new();

    // untraced served level: the base of trace_overhead
    let rounds = kind.rounds_per_segment();
    let a = run::setup(kind, seed, 0, dir, "untraced")?;
    let (rounds_a, _) = probed(kind, &a, seed, None)?;
    let (untraced, t) = run::finish_segment(kind, a, rounds_a)?;
    checks.extend(t.checks);

    // traced served level, with registry deltas around it
    let b = run::setup(kind, seed, 0, dir, "served")?;
    let reg = b.dep.handle.obs().clone();
    let before = counters(&reg);
    let (rounds_b, lag) = probed(kind, &b, seed, Some(("served", epoch)))?;
    let after = counters(&reg);
    let mut rounds_b = rounds_b;
    keep_spans(&mut rounds_b);
    let (served, t) = run::finish_segment(kind, b, rounds_b)?;
    checks.extend(t.checks);

    // in-process levels over one fresh fixture
    let fx = workload::fixture(seed)?;
    let _ = fx.db.csr_snapshot();
    let peel = Peel {
        kind,
        fx: &fx,
        seed,
        dir,
        epoch,
    };
    let mut session = in_process(&peel, DeployOpts::of(kind, false), "session")?;
    let nondurable = if kind.durable() {
        let opts = DeployOpts {
            serve: false,
            durable: false,
            standby: None,
        };
        Some(in_process(&peel, opts, "session_nondurable")?)
    } else {
        None
    };
    let asynchronous = if kind == Kind::MixedReplicated {
        let opts = DeployOpts {
            serve: false,
            durable: true,
            standby: Some(ReplAck::Async),
        };
        Some(in_process(&peel, opts, "session_async")?)
    } else {
        None
    };
    let commit_level = nondurable.as_ref().unwrap_or(&session);
    let commit_self = commit_level.pooled.commits.clone();
    let mut commit_reqs = std::collections::HashSet::new();

    // parse, derive and fork, statement by statement over the same stream
    let image = session.dep.handle.committed();
    let _ = image.csr_snapshot();
    let (mut parse, mut derive, mut fork) = (Vec::new(), Vec::new(), Vec::new());
    let mut derive_slots: HashMap<u64, u64> = HashMap::new();
    let mut atoms = 0u64;
    let mut md_cache: HashMap<String, (mad_core::MoleculeStructure, Vec<mad_model::AtomId>)> =
        HashMap::new();
    for r in 0..rounds {
        let (streams, prepared) = run::round_inputs(kind, &fx, seed, 0, r);
        for (c, stream) in streams.iter().enumerate() {
            for (i, op) in stream.iter().enumerate() {
                for (k, stmt) in op.statements().iter().enumerate() {
                    let req = req_id(r, c, i, k);
                    if *stmt == "COMMIT" {
                        commit_reqs.insert(req);
                    }
                    let t = Instant::now();
                    let parsed = mad_mql::parse(stmt);
                    let e = Instant::now();
                    std::hint::black_box(&parsed);
                    parse.push(ns(e - t));
                    span("parse", "mad_mql::parse", req, epoch, t, e);
                }
                if op.is_read() {
                    let asked = match op {
                        Op::Execute => prepared[c].as_str(),
                        Op::Point(s) | Op::Scan(s) => s.as_str(),
                        _ => unreachable!("reads only"),
                    };
                    if !md_cache.contains_key(asked) {
                        md_cache.insert(asked.to_owned(), derivation(&image, asked)?);
                    }
                    let (md, roots) = &md_cache[asked];
                    let opts = DeriveOptions {
                        strategy: Strategy::Bitset,
                        roots: Some(roots.clone()),
                    };
                    let t = Instant::now();
                    let molecules = derive_molecules(&image, md, &opts)?;
                    let e = Instant::now();
                    atoms += molecules
                        .iter()
                        .map(|m| m.atom_set().len() as u64)
                        .sum::<u64>();
                    derive.push(ns(e - t));
                    derive_slots.insert(req_id(r, c, i, 0), ns(e - t));
                    span(
                        "derive",
                        "mad_core::derive_molecules",
                        req_id(r, c, i, 0),
                        epoch,
                        t,
                        e,
                    );
                }
                let t = Instant::now();
                let forked = session.dep.handle.fork();
                let e = Instant::now();
                drop(forked);
                fork.push(ns(e - t));
                span(
                    "fork",
                    "mad_txn::DbHandle::fork",
                    req_id(r, c, i, 0),
                    epoch,
                    t,
                    e,
                );
            }
        }
    }

    let commit_slots: HashMap<u64, u64> = commit_level
        .slots
        .iter()
        .filter(|(req, _)| commit_reqs.contains(*req))
        .map(|(k, v)| (*k, *v))
        .collect();

    // CSR rebuild on each newly published image, and the WAL on a
    // scratch log: both fed the session level's own commit feed
    let feed = std::mem::take(&mut session.feed);
    let mut csr = Vec::new();
    let mut image_db = fx.db.clone();
    for fc in &feed {
        for op in &fc.ops {
            apply_op(&mut image_db, op)?;
        }
        let t = Instant::now();
        let snap = image_db.csr_snapshot();
        let e = Instant::now();
        drop(snap);
        csr.push(ns(e - t));
        span(
            "csr",
            "mad_storage::Database::csr_snapshot",
            fc.seq,
            epoch,
            t,
            e,
        );
    }
    let wal = wal_peel(&dir.join("peel-scratch.wal"), &fx.db, &feed, epoch)?;
    let (append, wait) = (&wal.append, &wal.wait);

    // ---- per-layer metrics
    let sum = |v: &[u64]| v.iter().sum::<u64>() as f64;
    let served_total = sum(&served.stmts);
    let session_total = sum(&session.pooled.stmts);
    let net_self = served_total - session_total;
    let p = |v: &[u64]| p50_us(v);
    let diff = |a: Option<f64>, b: Option<f64>| a.zip(b).map(|(a, b)| a - b);
    rep.add(
        "net.self_us_p50",
        diff(p(&served.stmts), p(&session.pooled.stmts)),
        "us",
        "p50(served stmt) - p50(in-process session stmt)",
    );
    rep.ratio(
        "net.parallel_efficiency",
        Ratio::new(
            metrics::median(&served.round_rates).unwrap_or(0.0),
            metrics::median(&session.pooled.round_rates).unwrap_or(0.0),
        ),
        "ratio",
    );
    rep.ratio(
        "net.wakeups_per_stmt",
        Ratio::new(
            delta(&before, &after, "net.poll.wakeups"),
            delta(&before, &after, "net.requests"),
        ),
        "ratio",
    );
    rep.add(
        "mql.parse_us_p50",
        p(&parse),
        "us",
        format!("n={}", parse.len()),
    );
    // per statement: session time minus the derive, session CSR rebuild
    // and commit peels of the same request, then the median
    let mut mql_self: Vec<i64> = session
        .slots
        .iter()
        .map(|(req, t)| {
            *t as i64
                - *derive_slots.get(req).unwrap_or(&0) as i64
                - *session.csr_rebuilds.get(req).unwrap_or(&0) as i64
                - *commit_slots.get(req).unwrap_or(&0) as i64
        })
        .collect();
    mql_self.sort_unstable();
    let mql_p50 =
        (!mql_self.is_empty()).then(|| mql_self[mql_self.len().div_ceil(2) - 1] as f64 / 1e3);
    rep.add(
        "mql.self_us_p50",
        mql_p50,
        "us",
        format!(
            "p50 over {} statements of session - derive - session csr rebuild - commit peel",
            mql_self.len()
        ),
    );
    let (hits, misses) = (
        delta(&before, &after, "mql.prepared.hits"),
        delta(&before, &after, "mql.prepared.misses"),
    );
    rep.ratio(
        "mql.prepared_hit_ratio",
        Ratio::new(hits, hits + misses),
        "ratio",
    );
    rep.add(
        "core.derive_us_p50",
        p(&derive),
        "us",
        format!("n={}", derive.len()),
    );
    rep.ratio(
        "core.atoms_per_read",
        Ratio::new(atoms as f64, derive.len() as f64),
        "count",
    );
    rep.add(
        "storage.csr_rebuild_us_p50",
        p(&csr),
        "us",
        format!("n={} published images", csr.len()),
    );
    let session_csr: Vec<u64> = session.csr_rebuilds.values().copied().collect();
    rep.add(
        "storage.session_csr_rebuild_us_p50",
        p(&session_csr),
        "us",
        format!(
            "n={} stale session CSR snapshots rebuilt before their reads",
            session_csr.len()
        ),
    );
    rep.ratio(
        "storage.csr_rebuilds_per_read",
        Ratio::new(
            session.csr_rebuild_reads as f64,
            session.pooled.reads.len() as f64,
        ),
        "ratio",
    );
    rep.add(
        "storage.csr_pairs_last",
        Some(session.csr_pairs_last as f64),
        "count",
        "link-type CSR pairs of an in-process session's last rebuild",
    );
    rep.add(
        "txn.fork_us_p50",
        p(&fork),
        "us",
        format!("n={}", fork.len()),
    );
    rep.add(
        "txn.commit_self_us_p50",
        p(&commit_self),
        "us",
        format!(
            "n={} COMMIT statements on a non-durable handle",
            commit_self.len()
        ),
    );
    let (commits, conflicts) = (
        delta(&before, &after, "txn.commits"),
        delta(&before, &after, "txn.conflicts"),
    );
    rep.ratio(
        "txn.conflict_ratio",
        Ratio::new(conflicts, commits + conflicts),
        "ratio",
    );
    rep.ratio(
        "txn.replays_per_commit",
        Ratio::new(delta(&before, &after, "txn.replays"), commits),
        "ratio",
    );
    rep.add(
        "txn.escalations",
        Some(delta(&before, &after, "txn.escalations")),
        "count",
        "registry delta",
    );
    rep.add(
        "wal.append_us_p50",
        p(append),
        "us",
        format!("n={}", append.len()),
    );
    rep.add(
        "wal.durable_wait_us_p50",
        p(wait),
        "us",
        format!(
            "n={}, {:?} on the scratch log; the served logs skip this wait",
            wait.len(),
            PEEL_FSYNC
        ),
    );
    let (batches, batched, fsyncs) = wal.groups;
    rep.ratio(
        "wal.records_per_fsync",
        Ratio::new(batched as f64, batches as f64),
        "ratio",
    );
    rep.ratio(
        "wal.fsyncs_per_commit",
        Ratio::new(fsyncs as f64, feed.len() as f64),
        "ratio",
    );
    let ack_wait = asynchronous
        .as_ref()
        .and_then(|a| diff(p(&session.pooled.commits), p(&a.pooled.commits)));
    rep.add(
        "repl.ack_wait_us_p50",
        ack_wait,
        "us",
        "p50(COMMIT at SyncQuorum(1)) - p50(COMMIT at Async), in-process",
    );
    let mut lag = lag;
    lag.sort_unstable();
    rep.add(
        "repl.lag_commits_p99",
        nearest_rank(&lag, 0.99).map(|v| v as f64),
        "count",
        format!("n={} polls of commit_seq - replicated_seq", lag.len()),
    );
    // attributed time: net by subtraction, every other layer by its peel
    let repl_total = asynchronous.as_ref().map_or(0.0, |a| {
        (sum(&session.pooled.commits) - sum(&a.pooled.commits)).max(0.0)
    });
    let commits_in_stream = session.pooled.commits.len() + session.pooled.writes.len();
    let fork_total = p(&fork).unwrap_or(0.0) * 1e3 * commits_in_stream as f64;
    let layers = [
        ("net", net_self),
        ("mql.parse", sum(&parse)),
        ("core", sum(&derive)),
        // the rebuilds inside session time; the published-image peel is
        // a separate replay
        ("storage", sum(&session_csr)),
        ("txn", fork_total + sum(&commit_self)),
        // the served logs do not wait for fsync: only the append counts
        ("wal", sum(append)),
        ("repl", repl_total),
    ];
    let selfs: Vec<f64> = layers.iter().map(|(_, v)| v.max(0.0)).collect();
    rep.add(
        "unattributed_share",
        metrics::unattributed_share(served_total, &selfs),
        "ratio",
        format!(
            "served {:.1} ms; the rest is mql work other than parsing, and CSR rebuilds after a re-fork",
            served_total / 1e6
        ),
    );
    for (name, v) in layers {
        rep.add(
            &format!("self_share.{name}"),
            Some(v / served_total.max(1.0)),
            "ratio",
            format!("{:.1} ms", v / 1e6),
        );
    }
    rep.add(
        "self_share.mql",
        Some(
            (session_total
                - sum(&derive)
                - sum(&session_csr)
                - fork_total
                - sum(&commit_self)
                - sum(append)
                - repl_total)
                / served_total.max(1.0),
        ),
        "ratio",
        "session time minus the lower peels (includes parsing)",
    );
    rep.add(
        "trace_overhead",
        diff(p(&served.stmts), p(&untraced.stmts))
            .zip(p(&untraced.stmts))
            .map(|(d, base)| d / base),
        "ratio",
        "p50(traced served stmt) / p50(untraced served stmt) - 1",
    );
    rep.add(
        "read_drift",
        metrics::run_drift(&served.conn_reads),
        "ratio",
        format!(
            "served level, median over {} connections",
            served.conn_reads.len()
        ),
    );
    rep.latency("served.stmt", &served.stmts);
    rep.latency("session.stmt", &session.pooled.stmts);
    rep.notes.push(format!(
        "peel: {rounds} rounds replayed at every level; {} commits fed to the csr and wal peels",
        feed.len()
    ));

    // correctness of every level
    for level in [&untraced, &served]
        .into_iter()
        .chain([&session.pooled])
        .chain(nondurable.iter().map(|l| &l.pooled))
        .chain(asynchronous.iter().map(|l| &l.pooled))
    {
        rep.attempted += level.attempted;
        rep.failed += level.failed;
        if rep.errors.len() < 5 {
            rep.errors.extend(level.errors.iter().cloned());
        }
    }
    for (name, c) in checks {
        rep.check(&name, c);
    }
    rep.samples = vec![
        ("read", served.reads.len()),
        ("write", served.writes.len()),
        ("txn", served.txns.len()),
        ("stmt", served.stmts.len()),
        ("parse", parse.len()),
        ("derive", derive.len()),
        ("csr", csr.len()),
        ("fork", fork.len()),
        ("wal", append.len()),
    ];
    rep.add(
        "rss_peak_mb",
        report::rss_peak_mb(),
        "MB",
        "VmHWM of the benchmark process",
    );
    for mut level in [Some(session), nondurable, asynchronous]
        .into_iter()
        .flatten()
    {
        level.dep.stop();
    }
    let path = out.join(format!("spans-{}-seed{}.jsonl", kind.name(), seed));
    let written = write_spans(&path)?;
    rep.notes
        .push(format!("spans: {written} written to {}", path.display()));
    Ok(rep)
}

/// Serve segment 0's rounds on a served set-up; for `mixed_replicated`
/// a probe polls the standby's lag meanwhile (on the untraced level too,
/// so both levels carry the probe's cost alike).
fn probed(
    kind: Kind,
    s: &run::Setup,
    seed: u64,
    trace: Option<(&'static str, Instant)>,
) -> Result<(Vec<Round>, Vec<u64>)> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let probe = s.dep.standby.as_ref().map(|standby| {
            let (handle, stop) = (&s.dep.handle, &stop);
            scope.spawn(move || {
                let mut lag = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    lag.push(handle.commit_seq().saturating_sub(standby.replicated_seq()));
                    std::thread::sleep(Duration::from_millis(1));
                }
                lag
            })
        });
        let rounds = run::rounds(&run::served(s), kind, &s.fx, seed, 0, trace);
        stop.store(true, Ordering::Release);
        let lag = probe
            .map(|p| p.join().unwrap_or_default())
            .unwrap_or_default();
        Ok((rounds?, lag))
    })
}

/// Write the spans as JSON lines, renumbered so ids are unique across
/// levels (each level numbers its own spans).
fn write_spans(path: &Path) -> Result<usize> {
    let mut text = String::new();
    let n = SPANS.with(|s| {
        let s = s.borrow();
        let ids: HashMap<(&str, u64), u64> =
            s.iter().enumerate().map(|(i, sp)| ((sp.level, sp.id), i as u64 + 1)).collect();
        for sp in s.iter() {
            let parent = ids.get(&(sp.level, sp.parent)).copied().unwrap_or(0);
            let _ = writeln!(
                text,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"level\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                ids[&(sp.level, sp.id)], parent, sp.req, sp.level, sp.name, sp.start_ns, sp.end_ns
            );
        }
        s.len()
    });
    std::fs::write(path, text)
        .map_err(|e| MadError::wal(format!("writing {}: {e}", path.display())))?;
    Ok(n)
}
