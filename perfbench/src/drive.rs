//! The closed-loop client: runs one round of streams over CONNECTIONS
//! client threads against a served or an in-process target, timing every
//! statement and recording what verification and the peel need.

use crate::workload::{Op, CONNECTIONS};
use mad_model::{MadError, Result};
use mad_mql::Session;
use mad_net::Client;
use mad_txn::DbHandle;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::Instant;

/// Conflict retries allowed per operation, on average, before a group
/// counts as failed.
const MAX_RETRIES: u64 = 50;

/// Where a round's statements go.
#[derive(Clone)]
pub enum Target {
    /// `mad_net::Client::execute` against a served handle.
    Served(SocketAddr),
    /// `mad_mql::Session::execute_rendered` on `Session::shared`.
    InProcess(DbHandle),
}

/// One statement executor: a connection or an in-process session.
enum Conn {
    Client(Box<Client>),
    Session(Box<Session>),
}

impl Conn {
    fn open(target: &Target) -> Result<Conn> {
        Ok(match target {
            Target::Served(addr) => Conn::Client(Box::new(Client::connect(addr)?)),
            Target::InProcess(handle) => Conn::Session(Box::new(Session::shared(handle.clone()))),
        })
    }

    fn execute(&mut self, stmt: &str) -> Result<String> {
        match self {
            Conn::Client(c) => c.execute(stmt),
            Conn::Session(s) => s.execute_rendered(stmt),
        }
    }

    /// The shared handle's commit sequence (in-process sessions only).
    fn commit_seq(&self) -> Option<u64> {
        match self {
            Conn::Client(_) => None,
            Conn::Session(s) => s.handle().map(DbHandle::commit_seq),
        }
    }
}

/// A recorded span: one statement, or one operation around its
/// statements, at one level of the peel. Spans of one statement share
/// `req` across levels.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id, unique within its level (renumbered when written out).
    pub id: u64,
    /// The enclosing span (0 = none).
    pub parent: u64,
    /// Per-statement request id, the same at every level.
    pub req: u64,
    /// Which peel level recorded it.
    pub level: &'static str,
    /// What was timed.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
}

/// The request id of statement `stmt` of operation `op` on `conn` in
/// `round`.
pub fn req_id(round: u64, conn: usize, op: usize, stmt: usize) -> u64 {
    ((round * CONNECTIONS as u64 + conn as u64) << 32) | ((op as u64) << 8) | stmt as u64
}

/// A write acknowledged to the client (what `durable_write` verification
/// checks against the reopened log).
#[derive(Clone, Debug)]
pub enum Acked {
    /// `UPDATE state[sname='S<key>'] SET hectare = <value>` committed.
    Hectare(usize, f64),
    /// `INSERT ATOM city (cname = <name>, population = <pop>)` committed.
    City(String, i64),
}

/// Everything one connection recorded in one round.
#[derive(Default)]
pub struct ConnRecord {
    /// Read round trips in the order served, ns.
    pub reads: Vec<u64>,
    /// Autocommit DML round trips, ns.
    pub writes: Vec<u64>,
    /// Whole BEGIN … COMMIT groups including retries, ns.
    pub txns: Vec<u64>,
    /// Every statement round trip, ns.
    pub stmts: Vec<u64>,
    /// Round trips of COMMIT statements, ns.
    pub commits: Vec<u64>,
    /// Time per (op, stmt) slot, summed over retries, in stream order —
    /// lines up across levels that replay the same stream.
    pub slots: Vec<(u64, u64)>,
    /// Operations attempted (reads, writes, groups).
    pub attempted: u64,
    /// Operations failed: an error other than a retried conflict, or a
    /// response of the wrong shape.
    pub failed: u64,
    /// Groups retried after a first-committer-wins conflict.
    pub retries: u64,
    /// `(statement read, hash of its normalized response)` per read.
    pub answers: Vec<(String, u64)>,
    /// Writes acknowledged, in the order acknowledged.
    pub acked: Vec<Acked>,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Spans, when tracing.
    pub spans: Vec<Span>,
    /// In-process reads that found their session's CSR snapshot stale,
    /// so the read rebuilt it.
    pub csr_rebuild_reads: u64,
    /// `(request id, ns)` of each stale session CSR snapshot rebuilt just
    /// before its read (see [`run_stream`]); the time is also part of the
    /// read's statement time.
    pub csr_rebuilds: Vec<(u64, u64)>,
    /// Link-type CSR pairs of the session's last rebuild, at the end.
    pub csr_pairs_last: usize,
}

impl ConnRecord {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// One round: every connection's record plus the round's wall clock.
pub struct Round {
    /// Per-connection records.
    pub conns: Vec<ConnRecord>,
    /// Seconds from the start barrier until the last connection finished.
    pub wall_s: f64,
}

/// What a round needs besides its streams.
pub struct RoundSpec<'a> {
    /// Round number (part of request ids).
    pub round: u64,
    /// The stream of each connection.
    pub streams: &'a [Vec<Op>],
    /// The prepared point read of each connection (`EXECUTE q`).
    pub prepared: &'a [String],
    /// Record spans at this level, with times relative to this epoch.
    pub trace: Option<(&'static str, Instant)>,
}

/// Run one round against `target`.
pub fn round(target: &Target, spec: &RoundSpec<'_>) -> Result<Round> {
    let barrier = Barrier::new(CONNECTIONS + 1);
    std::thread::scope(|scope| {
        let joins: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || -> Result<ConnRecord> {
                    let opened = Conn::open(target).and_then(|mut conn| {
                        if spec.streams[c].iter().any(|op| matches!(op, Op::Execute)) {
                            conn.execute(&format!("PREPARE q AS {}", spec.prepared[c]))?;
                        }
                        Ok(conn)
                    });
                    barrier.wait();
                    let mut conn = opened?;
                    let mut rec = ConnRecord::default();
                    run_stream(&mut conn, spec, c, &mut rec);
                    Ok(rec)
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let mut conns = Vec::with_capacity(CONNECTIONS);
        for j in joins {
            conns.push(
                j.join()
                    .map_err(|_| MadError::txn_state("client thread panicked"))??,
            );
        }
        Ok(Round {
            conns,
            wall_s: started.elapsed().as_secs_f64(),
        })
    })
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Serve one connection's stream.
///
/// An in-process read whose session CSR snapshot is stale would rebuild
/// it inside derivation. In a traced run the rebuild is done (and timed)
/// just before the statement instead, so the storage layer's share of
/// session time is measured rather than left inside the statement — but
/// only when no commit landed since the previous statement began: then
/// the session keeps its fork, and the rebuilt snapshot is the one the
/// read uses. Otherwise the session re-forks first and the rebuild stays
/// inside the statement.
fn run_stream(conn: &mut Conn, spec: &RoundSpec<'_>, c: usize, rec: &mut ConnRecord) {
    let mut next_span = ((spec.round * CONNECTIONS as u64 + c as u64) << 32) + 1;
    // the commit sequence seen before and after the previous statement,
    // when the two agreed
    let mut quiet: Option<u64> = None;
    for (i, op) in spec.streams[c].iter().enumerate() {
        rec.attempted += 1;
        let stmts = op.statements();
        let slot0 = rec.slots.len();
        rec.slots
            .extend((0..stmts.len()).map(|k| (req_id(spec.round, c, i, k), 0)));
        let op_start = Instant::now();
        let op_span = next_span;
        next_span += 1;
        let mut pending = Vec::new();
        'attempt: loop {
            for (k, stmt) in stmts.iter().enumerate() {
                let stale = match &*conn {
                    Conn::Session(s) if op.is_read() => !s.db().csr_is_warm(),
                    _ => false,
                };
                let seq = conn.commit_seq();
                let t = Instant::now();
                let mut rebuilt = None;
                if let Conn::Session(s) = &*conn {
                    let traced = spec.trace.is_some();
                    if traced && stale && seq.is_some() && quiet == seq && !s.in_transaction() {
                        drop(s.db().csr_snapshot());
                        rebuilt = Some(Instant::now());
                    }
                }
                let result = conn.execute(stmt);
                let end = Instant::now();
                let after = conn.commit_seq();
                quiet = if after == seq { seq } else { None };
                if let Conn::Session(s) = &*conn {
                    rec.csr_rebuild_reads += u64::from(stale);
                    if let Some((_, pairs)) = s.csr_rebuild_stats() {
                        rec.csr_pairs_last = pairs;
                    }
                }
                let ns = u64::try_from(end.duration_since(t).as_nanos()).unwrap_or(u64::MAX);
                rec.stmts.push(ns);
                rec.slots[slot0 + k].1 += ns;
                let req = req_id(spec.round, c, i, k);
                if let Some(r) = rebuilt {
                    let csr = u64::try_from(r.duration_since(t).as_nanos()).unwrap_or(u64::MAX);
                    rec.csr_rebuilds.push((req, csr));
                }
                if let Some((level, epoch)) = spec.trace {
                    rec.spans.push(Span {
                        id: next_span,
                        parent: op_span,
                        req,
                        level,
                        name: "statement",
                        start_ns: ns_since(epoch, t),
                        end_ns: ns_since(epoch, end),
                    });
                    if let Some(r) = rebuilt {
                        rec.spans.push(Span {
                            id: next_span + 1,
                            parent: next_span,
                            req,
                            level,
                            name: "mad_storage::Database::csr_snapshot",
                            start_ns: ns_since(epoch, t),
                            end_ns: ns_since(epoch, r),
                        });
                        next_span += 1;
                    }
                    next_span += 1;
                }
                match op {
                    Op::Point(_) | Op::Execute | Op::Scan(_) => rec.reads.push(ns),
                    Op::Write(_) => rec.writes.push(ns),
                    Op::Group(_) if *stmt == "COMMIT" => rec.commits.push(ns),
                    Op::Group(_) => {}
                }
                match result {
                    Ok(text) => {
                        if let Err(why) = check_response(op, stmt, &text, &mut pending) {
                            rec.fail(why);
                            if matches!(op, Op::Group(_)) && *stmt != "COMMIT" {
                                let _ = conn.execute("ABORT");
                            }
                            break 'attempt;
                        }
                        if op.is_read() {
                            let asked = match op {
                                Op::Execute => spec.prepared[c].clone(),
                                _ => stmt.to_string(),
                            };
                            rec.answers.push((asked, answer_hash(&text)));
                        }
                    }
                    Err(e) if e.is_conflict() && matches!(op, Op::Group(_)) => {
                        // first-committer-wins: the group is retried whole
                        if *stmt != "COMMIT" {
                            let _ = conn.execute("ABORT");
                        }
                        rec.retries += 1;
                        pending.clear();
                        if rec.retries > MAX_RETRIES * rec.attempted {
                            rec.fail(format!("{stmt}: still conflicting after retries: {e}"));
                            break 'attempt;
                        }
                        continue 'attempt;
                    }
                    Err(e) => {
                        rec.fail(format!("{stmt}: {e}"));
                        if matches!(op, Op::Group(_)) && *stmt != "COMMIT" {
                            let _ = conn.execute("ABORT");
                        }
                        break 'attempt;
                    }
                }
            }
            rec.acked.append(&mut pending);
            break;
        }
        let op_end = Instant::now();
        if let Op::Group(_) = op {
            rec.txns.push(
                u64::try_from(op_end.duration_since(op_start).as_nanos()).unwrap_or(u64::MAX),
            );
        }
        if let Some((level, epoch)) = spec.trace {
            rec.spans.push(Span {
                id: op_span,
                parent: 0,
                req: req_id(spec.round, c, i, 0),
                level,
                name: if op.is_read() {
                    "read"
                } else if matches!(op, Op::Group(_)) {
                    "txn"
                } else {
                    "write"
                },
                start_ns: ns_since(epoch, op_start),
                end_ns: ns_since(epoch, op_end),
            });
        }
    }
}

/// Check one response's shape; on success queue what an acknowledged
/// write promises (it counts once the write, or its group, commits).
fn check_response(
    op: &Op,
    stmt: &str,
    text: &str,
    pending: &mut Vec<Acked>,
) -> std::result::Result<(), String> {
    let bad = || {
        Err(format!(
            "{stmt}: unexpected response {:?}",
            text.lines().next().unwrap_or("")
        ))
    };
    match op {
        Op::Point(_) | Op::Execute => {
            if !text.starts_with("molecule type `result`: 1 molecule(s)") {
                return bad();
            }
        }
        Op::Scan(_) => {
            if !text.starts_with("molecule type `result`: ") || text.contains(": 0 molecule(s)") {
                return bad();
            }
        }
        Op::Write(_) | Op::Group(_) => {
            let ok = match stmt.split_whitespace().next().unwrap_or("") {
                "BEGIN" => text == "transaction started\n",
                "COMMIT" => text.starts_with("committed "),
                "UPDATE" => text == "updated 1 atom(s)\n",
                "INSERT" => text.starts_with("inserted atom "),
                "CONNECT" => text == "connected\n" || text == "already connected\n",
                "DISCONNECT" => text == "disconnected\n" || text == "no such link\n",
                _ => false,
            };
            if !ok {
                return bad();
            }
            if let Some(acked) = promised(stmt) {
                pending.push(acked);
            }
        }
    }
    Ok(())
}

/// What a successful UPDATE of a state's hectare or INSERT of a city
/// promises to the reopened log.
fn promised(stmt: &str) -> Option<Acked> {
    if let Some(rest) = stmt.strip_prefix("UPDATE state[sname='S") {
        let (key, rest) = rest.split_once('\'')?;
        let value = rest.rsplit_once("= ")?.1;
        return Some(Acked::Hectare(key.parse().ok()?, value.parse().ok()?));
    }
    if let Some(rest) = stmt.strip_prefix("INSERT ATOM city (cname = '") {
        let (name, rest) = rest.split_once('\'')?;
        let pop = rest.rsplit_once("= ")?.1.trim_end_matches(')');
        return Some(Acked::City(name.to_owned(), pop.parse().ok()?));
    }
    None
}

/// Hash of a rendered answer with session-local atom-type numbers
/// blanked: a session writes derived types into its working fork, so the
/// same atom renders as `a7.0` in one session and `a11.0` in another.
/// The slot (after the dot) and everything else must match exactly.
pub fn answer_hash(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    normalize(text).hash(&mut h);
    h.finish()
}

fn normalize(text: &str) -> String {
    let b = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < b.len() {
        let boundary = i == 0 || matches!(b[i - 1], b' ' | b'^' | b'\n' | b'(' | b',');
        if boundary && b[i] == b'a' {
            let digits = b[i + 1..].iter().take_while(|c| c.is_ascii_digit()).count();
            if digits > 0 && b.get(i + 1 + digits) == Some(&b'.') {
                out.push_str("a*");
                i += 1 + digits;
                continue;
            }
        }
        let ch = text[i..].chars().next().expect("in bounds");
        out.push(ch);
        i += ch.len_utf8();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_compare_without_session_type_numbers() {
        let a = "state a7.0 <'S7', 1.5>\n  point ^a10.1\n";
        let b = "state a11.0 <'S7', 1.5>\n  point ^a14.1\n";
        let c = "state a11.1 <'S7', 1.5>\n  point ^a14.1\n";
        assert_eq!(answer_hash(a), answer_hash(b));
        assert_ne!(answer_hash(a), answer_hash(c));
        // text that merely contains an `a` followed by digits is kept
        assert_eq!(normalize("area a3.2 <7>"), "area a*.2 <7>");
        assert_eq!(normalize("ba1.2"), "ba1.2");
    }

    #[test]
    fn acknowledged_writes_are_parsed_back() {
        match promised("UPDATE state[sname='S42'] SET hectare = 1234.5") {
            Some(Acked::Hectare(42, v)) => assert_eq!(v, 1234.5),
            other => panic!("{other:?}"),
        }
        match promised("INSERT ATOM city (cname = 'w0-1-0-7', population = 7)") {
            Some(Acked::City(name, 7)) => assert_eq!(name, "w0-1-0-7"),
            other => panic!("{other:?}"),
        }
        assert!(promised("CONNECT city[cname='C1'] TO point[x=1.5] VIA city-point").is_none());
    }
}
