//! The untraced run: end-to-end metrics.
//!
//! A run repeats independent segments until `--seconds` of measured time
//! have passed (at least [`MIN_SEGMENTS`]). Each segment sets up from
//! scratch (fixture, indexes, server, standby, warm-up — timed as one
//! `setup_s` sample), serves a fixed number of rounds, then stops serving
//! and verifies. A round opens fresh connections, each serving a fixed
//! count of operations from its seeded stream.
//!
//! Segments alternate between the two ways a user reaches the database:
//! over TCP through `mad_net::Client` (the served metrics), or through
//! in-process `Session::shared` sessions on the same kind of deployment
//! (the `session_` metrics). Each way gets half of the measured time, and
//! the k-th segment of each way replays the same statements.
//!
//! Everything inside a segment is count-bounded: latency in this system
//! grows with the statements a session has served and with the data a
//! segment has written, so a time-bounded segment would let throughput
//! change the latency it measures. Time only decides how many identical
//! segments a run repeats.

use crate::drive::{self, Round, RoundSpec, Target};
use crate::metrics::{self, Ratio};
use crate::report::{self, Report};
use crate::verify::{self, Expected};
use crate::workload::{self, DeployOpts, Deployment, Fixture, Kind, Op, CONNECTIONS, FSYNC};
use crate::Args;
use mad_model::Result;
use mad_txn::DbHandle;
use std::path::Path;
use std::time::Instant;

/// Fewest segments of each way (served, in-process) in a run.
pub const MIN_SEGMENTS: u64 = 2;

/// Warm-up operations per connection, served before timing starts.
const WARMUP_OPS: usize = 20;

/// The round number of the warm-up (kept apart from measured rounds).
const WARMUP_ROUND: u64 = 1 << 20;

/// The streams and prepared reads of one round.
pub fn round_inputs(
    kind: Kind,
    fx: &Fixture,
    seed: u64,
    segment: u64,
    round: u64,
) -> (Vec<Vec<Op>>, Vec<String>) {
    let streams = (0..CONNECTIONS)
        .map(|c| workload::stream(kind, fx, seed, segment, round, c))
        .collect();
    let prepared = (0..CONNECTIONS)
        .map(|c| workload::prepared_body(fx, seed, round, c))
        .collect();
    (streams, prepared)
}

/// A served deployment, warmed up, with its set-up time.
pub struct Setup {
    /// The fixture (the image every deployment starts from).
    pub fx: Fixture,
    /// The deployment.
    pub dep: Deployment,
    /// Seconds the set-up took.
    pub setup_s: f64,
    /// Log bytes of the bootstrap image, before any commit.
    pub bootstrap_bytes: u64,
    /// Writes the warm-up acknowledged.
    pub expected: Expected,
    /// The answers of warm-up reads.
    pub answers: Vec<(String, u64)>,
    /// Operations (and failures) of the warm-up.
    pub attempted: u64,
    /// Failed warm-up operations.
    pub failed: u64,
}

/// Generate the fixture, deploy, warm up.
pub fn setup(kind: Kind, seed: u64, segment: u64, dir: &Path, tag: &str) -> Result<Setup> {
    let started = Instant::now();
    let fx = workload::fixture(seed)?;
    // build the CSR once: every fork of the image starts warm
    let _ = fx.db.csr_snapshot();
    let dep = workload::deploy(fx.db.clone(), dir, tag, DeployOpts::of(kind, true))?;
    let bootstrap_bytes = dep.handle.wal_len_bytes().unwrap_or(0);
    let addr = dep.server.as_ref().expect("served deployment").local_addr();
    let warm = warm_up(&Target::Served(addr), kind, &fx, seed, segment)?;
    let mut expected = Expected::default();
    let mut answers = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for c in warm.conns {
        expected.record(&c.acked);
        answers.extend(c.answers);
        attempted += c.attempted;
        failed += c.failed;
    }
    Ok(Setup {
        fx,
        dep,
        setup_s: started.elapsed().as_secs_f64(),
        bootstrap_bytes,
        expected,
        answers,
        attempted,
        failed,
    })
}

/// Serve the warm-up round: the first [`WARMUP_OPS`] operations of a
/// stream kept apart from the measured rounds.
pub fn warm_up(
    target: &Target,
    kind: Kind,
    fx: &Fixture,
    seed: u64,
    segment: u64,
) -> Result<Round> {
    let (mut streams, prepared) = round_inputs(kind, fx, seed, segment, WARMUP_ROUND);
    for s in &mut streams {
        s.truncate(WARMUP_OPS);
    }
    let spec = RoundSpec {
        round: WARMUP_ROUND,
        streams: &streams,
        prepared: &prepared,
        trace: None,
    };
    drive::round(target, &spec)
}

/// Run a segment's measured rounds `0..kind.rounds_per_segment()`
/// against `target`.
pub fn rounds(
    target: &Target,
    kind: Kind,
    fx: &Fixture,
    seed: u64,
    segment: u64,
    trace: Option<(&'static str, Instant)>,
) -> Result<Vec<Round>> {
    (0..kind.rounds_per_segment())
        .map(|r| {
            let (streams, prepared) = round_inputs(kind, fx, seed, segment, r);
            let spec = RoundSpec {
                round: r,
                streams: &streams,
                prepared: &prepared,
                trace,
            };
            drive::round(target, &spec)
        })
        .collect()
}

/// The served target of a set-up.
pub fn served(s: &Setup) -> Target {
    Target::Served(
        s.dep
            .server
            .as_ref()
            .expect("served deployment")
            .local_addr(),
    )
}

/// What a segment's teardown measured and checked.
#[derive(Default)]
pub struct Teardown {
    /// `(log bytes written after the bootstrap image, commits)`.
    pub log: Option<(u64, u64)>,
    /// `(µs to reopen the log, commits replayed)`.
    pub recovery: Option<(f64, u64)>,
    /// The checks, by name.
    pub checks: Vec<(String, verify::Checked)>,
}

/// Stop serving and verify: serve_read against the reference session,
/// durable_write against the reopened log, mixed_replicated by comparing
/// the primary's, the standby's and the reopened log's images.
pub fn teardown(
    kind: Kind,
    s: Setup,
    answers: &[(String, u64)],
    expected: &Expected,
) -> Result<Teardown> {
    let Setup {
        fx,
        mut dep,
        bootstrap_bytes: s_bootstrap,
        ..
    } = s;
    let mut out = Teardown::default();
    if kind == Kind::ServeRead {
        dep.stop();
        out.checks.push((
            "reads_match_reference".into(),
            verify::reads_match_reference(&fx.db, answers)?,
        ));
        return Ok(out);
    }
    let bootstrap = s_bootstrap;

    if let Some(server) = dep.server.take() {
        server.shutdown();
    }
    let commits = dep.handle.commit_seq();
    out.log = Some((
        dep.handle
            .wal_len_bytes()
            .unwrap_or(0)
            .saturating_sub(bootstrap),
        commits,
    ));
    let standby_image = match dep.standby.as_ref() {
        Some(standby) => {
            let deadline = Instant::now() + std::time::Duration::from_secs(20);
            while standby.replicated_seq() < commits && Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Some(verify::image(&standby.handle().committed()))
        }
        None => None,
    };
    let primary = dep.handle.committed();
    dep.stop();
    let wal = dep.wal_path.clone().expect("durable deployment");
    drop(dep);
    let t = Instant::now();
    let reopened = DbHandle::open_durable(&wal, FSYNC)?;
    let us = t.elapsed().as_secs_f64() * 1e6;
    let replayed = reopened.recovery_info().map_or(0, |i| i.commits_replayed);
    out.recovery = Some((us, replayed));
    let reopened_db = reopened.committed();
    match standby_image {
        Some(standby) => {
            let re = verify::image(&reopened_db);
            out.checks.push((
                "images_agree".into(),
                verify::images_agree(&primary, &standby, &re)?,
            ));
        }
        None => out.checks.push((
            "log_holds_acked".into(),
            verify::log_holds_acked(&reopened_db, expected)?,
        )),
    }
    Ok(out)
}

/// Pooled samples of a set of rounds.
#[derive(Default)]
pub struct Pooled {
    /// Read latencies, ns.
    pub reads: Vec<u64>,
    /// Autocommit write latencies, ns.
    pub writes: Vec<u64>,
    /// Group latencies, ns.
    pub txns: Vec<u64>,
    /// Statement latencies, ns.
    pub stmts: Vec<u64>,
    /// COMMIT latencies, ns.
    pub commits: Vec<u64>,
    /// Per-connection reads in order (for drift).
    pub conn_reads: Vec<Vec<u64>>,
    /// Statements per second of each round.
    pub round_rates: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Conflict retries.
    pub retries: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
}

impl Pooled {
    /// Fold rounds in; acknowledged writes go to `expected`, read answers
    /// to `answers`.
    pub fn add(
        &mut self,
        rounds: Vec<Round>,
        expected: &mut Expected,
        answers: &mut Vec<(String, u64)>,
    ) {
        for r in rounds {
            let stmts: usize = r.conns.iter().map(|c| c.stmts.len()).sum();
            self.round_rates.push(stmts as f64 / r.wall_s);
            for c in r.conns {
                self.reads.extend(&c.reads);
                self.writes.extend(&c.writes);
                self.txns.extend(&c.txns);
                self.stmts.extend(&c.stmts);
                self.commits.extend(&c.commits);
                self.conn_reads.push(c.reads);
                self.attempted += c.attempted;
                self.failed += c.failed;
                self.retries += c.retries;
                answers.extend(c.answers);
                expected.record(&c.acked);
                if self.errors.len() < 5 {
                    self.errors.extend(c.errors);
                }
            }
        }
    }

    /// Fold another pool in.
    pub fn absorb(&mut self, other: Pooled) {
        self.reads.extend(other.reads);
        self.writes.extend(other.writes);
        self.txns.extend(other.txns);
        self.stmts.extend(other.stmts);
        self.commits.extend(other.commits);
        self.conn_reads.extend(other.conn_reads);
        self.round_rates.extend(other.round_rates);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.retries += other.retries;
        if self.errors.len() < 5 {
            self.errors.extend(other.errors);
        }
    }
}

/// Add the end-to-end metrics of pooled rounds to a report.
pub fn end_to_end(rep: &mut Report, p: &Pooled) {
    rep.add(
        "stmts_per_s",
        metrics::median(&p.round_rates),
        "1/s",
        format!(
            "median of {} rounds, {} connections each",
            p.round_rates.len(),
            CONNECTIONS
        ),
    );
    rep.latency("stmt", &p.stmts);
    if !p.reads.is_empty() {
        rep.latency("read", &p.reads);
        rep.add(
            "read_drift",
            metrics::run_drift(&p.conn_reads),
            "ratio",
            format!(
                "median over {} connections of p50(last tenth) / p50(first tenth)",
                p.conn_reads.len()
            ),
        );
    }
    if !p.writes.is_empty() {
        rep.latency("write", &p.writes);
    }
    if !p.txns.is_empty() {
        rep.latency("txn", &p.txns);
        rep.ratio(
            "txn_retries_per_group",
            Ratio::new(p.retries as f64, p.txns.len() as f64),
            "ratio",
        );
    }
    rep.samples = vec![
        ("read", p.reads.len()),
        ("write", p.writes.len()),
        ("txn", p.txns.len()),
        ("stmt", p.stmts.len()),
    ];
}

/// The untraced run.
pub fn untraced(args: &Args, dir: &Path) -> Result<Report> {
    let kind = args.kind;
    let mut rep = Report::default();
    // served segments, and in-process ones
    let mut pooled = Pooled::default();
    let mut session = Pooled::default();
    let mut setups = Vec::new();
    let (mut log_bytes, mut log_commits) = (0u64, 0u64);
    let mut recovery = Vec::new();
    let mut checks: Vec<(String, verify::Checked)> = Vec::new();
    // measured seconds and segments, served and in-process
    let (mut served_s, mut session_s) = (0.0, 0.0);
    let (mut served_n, mut session_n) = (0, 0);
    let mut segment = 0;
    while served_n.min(session_n) < MIN_SEGMENTS || served_s + session_s < args.seconds {
        let tag = format!("seg{segment}");
        let in_process = session_s < served_s;
        let pair = if in_process { session_n } else { served_n };
        let s = setup(kind, args.seed, pair, dir, &tag)?;
        setups.push(s.setup_s);
        let target = if in_process {
            Target::InProcess(s.dep.handle.clone())
        } else {
            served(&s)
        };
        let rounds = rounds(&target, kind, &s.fx, args.seed, pair, None)?;
        let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
        if in_process {
            (session_s, session_n) = (session_s + wall, session_n + 1);
        } else {
            (served_s, served_n) = (served_s + wall, served_n + 1);
        }
        let (seg, t) = finish_segment(kind, s, rounds)?;
        if let Some((b, c)) = t.log {
            log_bytes += b;
            log_commits += c;
        }
        if let Some((us, n)) = t.recovery {
            if n > 0 {
                recovery.push(us / n as f64);
            }
        }
        checks.extend(t.checks);
        if in_process {
            session.absorb(seg);
        } else {
            pooled.absorb(seg);
        }
        discard_logs(dir, &tag);
        segment += 1;
    }
    rep.add(
        "setup_s",
        metrics::median(&setups),
        "s",
        format!("median of {} set-ups: {setups:?}", setups.len()),
    );
    end_to_end(&mut rep, &pooled);
    rep.add(
        "session_stmts_per_s",
        metrics::median(&session.round_rates),
        "1/s",
        format!(
            "in-process Session::shared, median of {} rounds, {} sessions each",
            session.round_rates.len(),
            CONNECTIONS
        ),
    );
    rep.latency("session_stmt", &session.stmts);
    if kind.durable() {
        rep.ratio(
            "log_bytes_per_commit",
            Ratio::new(log_bytes as f64, log_commits as f64),
            "B",
        );
        rep.add(
            "recovery_us_per_commit",
            metrics::median(&recovery),
            "us",
            format!(
                "median over {} reopened logs of open_durable time / commits replayed",
                recovery.len()
            ),
        );
    }
    rep.samples.push(("session_stmt", session.stmts.len()));
    rep.attempted = pooled.attempted + session.attempted;
    rep.failed = pooled.failed + session.failed;
    rep.errors = pooled.errors;
    rep.errors.extend(session.errors);
    for (name, c) in checks {
        rep.check(&name, c);
    }
    rep.ratio(
        "error_ratio",
        Ratio::new(rep.failed as f64, rep.attempted as f64),
        "ratio",
    );
    rep.add(
        "rss_peak_mb",
        report::rss_peak_mb(),
        "MB",
        "VmHWM of the benchmark process",
    );
    Ok(rep)
}

/// Delete a finished segment's logs and flush the file system, so that
/// their write-back and the discards of their blocks land here, between
/// segments, and not in the next set-up's log-creation fsyncs.
fn discard_logs(dir: &Path, tag: &str) {
    let prefix = format!("{tag}-");
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
    crate::settle_disk();
}

/// Serve a set-up's measured rounds (already run), then tear it down and
/// verify: the segment's pooled samples and its teardown.
pub fn finish_segment(kind: Kind, s: Setup, rounds: Vec<Round>) -> Result<(Pooled, Teardown)> {
    let mut expected = s.expected.clone();
    let mut pooled = Pooled {
        attempted: s.attempted,
        failed: s.failed,
        ..Pooled::default()
    };
    let mut answers = s.answers.clone();
    pooled.add(rounds, &mut expected, &mut answers);
    let t = teardown(kind, s, &answers, &expected)?;
    Ok((pooled, t))
}
