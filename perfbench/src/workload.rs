//! The fixture, the three deployments and the seeded statement streams.

use mad_model::{Result, Value};
use mad_net::{Server, ServerConfig};
use mad_repl::{ReplPrimary, Standby, StandbyConfig};
use mad_storage::{Database, IndexKind};
use mad_txn::{DbHandle, FsyncPolicy, ReplAck};
use mad_workload::rng::StdRng;
use mad_workload::{generate_geo, GeoParams};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Client connections of every workload, one client thread each.
pub const CONNECTIONS: usize = 2;

/// Fsync policy of the served logs (primary and standby). Every commit
/// still appends its record to the log and is recovered from it; only
/// the wait for stable storage is skipped. On a shared 2-vCPU virtual
/// machine, group-fsync latency swings by 2x within minutes: run medians
/// of `durable_write` statement latency read 610-1600 us under `Group`
/// and 526-558 us under `Never`, and no bound can hold the former. The
/// traced run measures the fsync layer on its own, under [`PEEL_FSYNC`].
pub const FSYNC: FsyncPolicy = FsyncPolicy::Never;

/// Fsync policy of the traced run's scratch log, where the WAL layer is
/// peeled: group commit, as a deployment would run it.
pub const PEEL_FSYNC: FsyncPolicy = FsyncPolicy::Group;

/// States of the hot set `mixed_replicated` updates under contention.
pub const HOT_STATES: usize = 16;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Non-durable handle, read only.
    ServeRead,
    /// Durable handle, writes only.
    DurableWrite,
    /// Durable primary plus one sync-quorum standby, reads beside writes.
    MixedReplicated,
}

impl Kind {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "serve_read" => Some(Kind::ServeRead),
            "durable_write" => Some(Kind::DurableWrite),
            "mixed_replicated" => Some(Kind::MixedReplicated),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeRead => "serve_read",
            Kind::DurableWrite => "durable_write",
            Kind::MixedReplicated => "mixed_replicated",
        }
    }

    /// Does the workload run on a write-ahead log?
    pub fn durable(self) -> bool {
        self != Kind::ServeRead
    }

    /// Operations each connection serves per round. A connection serves
    /// a fixed count, never a fixed time: a session's read latency grows
    /// with the statements it has served, so a time-bounded connection
    /// would couple latency to throughput.
    pub fn ops_per_connection(self) -> usize {
        match self {
            Kind::ServeRead => 400,
            Kind::DurableWrite => 150,
            Kind::MixedReplicated => 150,
        }
    }
}

impl Kind {
    /// Rounds in one segment: enough for a few seconds of work.
    pub fn rounds_per_segment(self) -> u64 {
        match self {
            Kind::ServeRead => 3,
            Kind::DurableWrite => 8,
            Kind::MixedReplicated => 5,
        }
    }
}

/// The fixture's generator parameters (the workload seed is added).
pub fn geo_params(seed: u64) -> GeoParams {
    GeoParams {
        states: 2000,
        edges_per_state: 8,
        rivers: 200,
        edges_per_river: 12,
        share: 0.5,
        cities: 500,
        seed,
    }
}

/// The generated database plus the facts the statement streams draw on.
pub struct Fixture {
    /// The image every deployment of a run starts from.
    pub db: Database,
    /// River lengths, ascending (range-scan thresholds come from here).
    pub river_lengths: Vec<f64>,
    /// `x` literals of points whose `x` is unique, so `point[x=…]`
    /// selects exactly one atom.
    pub point_xs: Vec<String>,
    /// Cities in the fixture (`C0` … `C<n-1>`).
    pub cities: usize,
    /// States in the fixture (`S0` … `S<n-1>`).
    pub states: usize,
}

/// Generate the fixture and add the deployment's indexes: a hash index
/// on `state.sname` and an ordered index on `river.length`.
pub fn fixture(seed: u64) -> Result<Fixture> {
    let params = geo_params(seed);
    let (mut db, h) = generate_geo(&params)?;
    db.create_index(h.state, "sname", IndexKind::Hash)?;
    db.create_index(h.river, "length", IndexKind::Ordered)?;
    let length = db
        .schema()
        .atom_type(h.river)
        .attr_index("length")
        .expect("river.length");
    let mut river_lengths: Vec<f64> = db
        .atoms_of(h.river)
        .filter_map(|(_, t)| match t[length] {
            Value::Float(v) => Some(v),
            _ => None,
        })
        .collect();
    river_lengths.sort_by(f64::total_cmp);
    let x = db
        .schema()
        .atom_type(h.point)
        .attr_index("x")
        .expect("point.x");
    let mut xs: Vec<String> = db
        .atoms_of(h.point)
        .filter_map(|(_, t)| match t[x] {
            Value::Float(v) => Some(format!("{v:?}")),
            _ => None,
        })
        .collect();
    xs.sort();
    let point_xs = xs
        .iter()
        .enumerate()
        .filter(|(i, v)| {
            (*i == 0 || xs[i - 1] != **v) && xs.get(i + 1).is_none_or(|next| next != *v)
        })
        .map(|(_, v)| v.clone())
        .collect();
    Ok(Fixture {
        db,
        river_lengths,
        point_xs,
        cities: params.cities,
        states: params.states,
    })
}

/// One served deployment: the handle, its server, and for
/// `mixed_replicated` the replication primary and the standby.
pub struct Deployment {
    /// The primary's handle.
    pub handle: DbHandle,
    /// The TCP server, when the deployment is served.
    pub server: Option<Server>,
    /// The replication primary (`mixed_replicated`).
    pub repl: Option<ReplPrimary>,
    /// The standby (`mixed_replicated`).
    pub standby: Option<Standby>,
    /// The primary's log (durable workloads).
    pub wal_path: Option<PathBuf>,
}

/// How a deployment is built: served or in-process, durable or not, and
/// which replication acknowledgement the primary runs.
#[derive(Clone, Copy, Debug)]
pub struct DeployOpts {
    /// Start a TCP server over the handle.
    pub serve: bool,
    /// Put the handle on a write-ahead log.
    pub durable: bool,
    /// Attach a standby; `Some(ack)` sets the primary's acknowledgement.
    pub standby: Option<ReplAck>,
}

impl DeployOpts {
    /// The deployment a workload is measured on.
    pub fn of(kind: Kind, serve: bool) -> Self {
        DeployOpts {
            serve,
            durable: kind.durable(),
            standby: (kind == Kind::MixedReplicated).then_some(ReplAck::SyncQuorum(1)),
        }
    }
}

/// Build a deployment over `db` with its logs under `dir` (`tag` keeps
/// the file names of several deployments in one directory apart).
pub fn deploy(db: Database, dir: &Path, tag: &str, opts: DeployOpts) -> Result<Deployment> {
    let wal_path = opts.durable.then(|| dir.join(format!("{tag}-primary.wal")));
    let handle = match &wal_path {
        Some(path) => DbHandle::create_durable(db, path, FSYNC)?,
        None => DbHandle::new(db),
    };
    let (repl, standby) = match opts.standby {
        Some(ack) => {
            let repl = ReplPrimary::start(handle.clone(), "127.0.0.1:0")?;
            let standby = Standby::start(StandbyConfig::new(
                repl.local_addr().to_string(),
                dir.join(format!("{tag}-standby.wal")),
                FSYNC,
            ))?;
            wait_attached(&repl)?;
            handle.set_repl_ack(ack);
            (Some(repl), Some(standby))
        }
        None => (None, None),
    };
    let server = if opts.serve {
        Some(Server::serve_with(
            handle.clone(),
            "127.0.0.1:0",
            ServerConfig::default(),
        )?)
    } else {
        None
    };
    Ok(Deployment {
        handle,
        server,
        repl,
        standby,
        wal_path,
    })
}

fn wait_attached(repl: &ReplPrimary) -> Result<()> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while repl.standby_count() == 0 {
        if Instant::now() > deadline {
            return Err(mad_model::MadError::txn_state("standby never attached"));
        }
        // a fine poll: the attach is part of the timed set-up
        std::thread::sleep(Duration::from_micros(50));
    }
    Ok(())
}

impl Deployment {
    /// Stop serving: drain the server, stop replication, stop the
    /// standby's ingest. The handles stay readable.
    pub fn stop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        if let Some(repl) = self.repl.as_mut() {
            repl.shutdown();
        }
        if let Some(standby) = self.standby.as_mut() {
            standby.stop_ingest();
        }
    }
}

/// One operation of a stream.
#[derive(Clone, Debug)]
pub enum Op {
    /// A point molecule read (`SELECT … WHERE state.sname = …`).
    Point(String),
    /// `EXECUTE` of the connection's prepared point read.
    Execute,
    /// A range scan over rivers.
    Scan(String),
    /// An autocommit DML statement.
    Write(String),
    /// `BEGIN`, the statements, `COMMIT`; retried whole on a
    /// first-committer-wins conflict.
    Group(Vec<String>),
}

impl Op {
    /// The statements the operation sends, in order.
    pub fn statements(&self) -> Vec<&str> {
        match self {
            Op::Point(s) | Op::Scan(s) | Op::Write(s) => vec![s],
            Op::Execute => vec!["EXECUTE q"],
            Op::Group(body) => std::iter::once("BEGIN")
                .chain(body.iter().map(String::as_str))
                .chain(std::iter::once("COMMIT"))
                .collect(),
        }
    }

    /// Is this a read?
    pub fn is_read(&self) -> bool {
        matches!(self, Op::Point(_) | Op::Execute | Op::Scan(_))
    }
}

/// The prepared point read of connection `conn` in round `round`.
pub fn prepared_body(fx: &Fixture, seed: u64, round: u64, conn: usize) -> String {
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, u64::MAX, round, conn));
    point(fx, &mut rng)
}

/// The stream of one connection: `ops` operations, deterministic in
/// (`seed`, `segment`, `round`, `conn`).
pub fn stream(
    kind: Kind,
    fx: &Fixture,
    seed: u64,
    segment: u64,
    round: u64,
    conn: usize,
) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, segment, round, conn));
    let tag = format!("{segment}-{round}-{conn}");
    let n = kind.ops_per_connection();
    let mut out = Vec::with_capacity(n + n / 8);
    for i in 0..n {
        let roll = rng.gen_range(0..100u32);
        let v = |j| value(segment, round, conn, i, j);
        match kind {
            Kind::ServeRead => out.push(match roll {
                0..=69 => Op::Point(point(fx, &mut rng)),
                70..=89 => Op::Execute,
                _ => Op::Scan(scan(fx, &mut rng)),
            }),
            Kind::DurableWrite => {
                // keys are split by connection parity: uniform within a
                // connection's half, disjoint across connections, so each
                // key has one writer and its last acked value is the one
                // that must survive
                let mut key = || 2 * rng.gen_range(0..fx.states / 2) + conn;
                out.push(match roll {
                    0..=59 => Op::Write(update(key(), v(0))),
                    60..=79 => Op::Write(format!(
                        "INSERT ATOM city (cname = 'w{tag}-{i}', population = {i})"
                    )),
                    _ => Op::Group(vec![update(key(), v(0)), update(key(), v(1))]),
                });
            }
            Kind::MixedReplicated => match roll {
                0..=49 => out.push(Op::Point(point(fx, &mut rng))),
                50..=59 => out.push(Op::Scan(scan(fx, &mut rng))),
                60..=72 => {
                    let aid = area_id(segment, round, conn, i);
                    let state = rng.gen_range(0..fx.states);
                    out.push(Op::Group(vec![
                        format!("INSERT ATOM area (aid = {aid})"),
                        format!(
                            "CONNECT state[sname='S{state}'] TO area[aid={aid}] VIA state-area"
                        ),
                    ]));
                }
                73..=84 => {
                    let city = rng.gen_range(0..fx.cities);
                    let x = &fx.point_xs[rng.gen_range(0..fx.point_xs.len())];
                    let pair = format!("city[cname='C{city}'] TO point[x={x}] VIA city-point");
                    out.push(Op::Write(format!("CONNECT {pair}")));
                    out.push(Op::Write(format!("DISCONNECT {pair}")));
                }
                _ => {
                    let a = rng.gen_range(0..HOT_STATES);
                    let b = rng.gen_range(0..HOT_STATES);
                    out.push(Op::Group(vec![update(a, v(0)), update(b, v(1))]));
                }
            },
        }
    }
    out
}

fn point(fx: &Fixture, rng: &mut StdRng) -> String {
    let k = rng.gen_range(0..fx.states);
    format!("SELECT ALL FROM state-area-edge-point WHERE state.sname = 'S{k}'")
}

fn scan(fx: &Fixture, rng: &mut StdRng) -> String {
    // thresholds between the 94th and 96th percentile: about 5% of rivers
    let n = fx.river_lengths.len();
    let at = rng.gen_range(n * 94 / 100..n * 96 / 100 + 1).min(n - 1);
    let x = fx.river_lengths[at];
    format!("SELECT ALL FROM river-net-edge-point WHERE river.length > {x:?}")
}

fn update(key: usize, v: f64) -> String {
    format!("UPDATE state[sname='S{key}'] SET hectare = {v:?}")
}

/// An `area.aid` unique to one statement of one run.
fn area_id(segment: u64, round: u64, conn: usize, i: usize) -> u64 {
    10_000_000 + ((segment * 10_000 + round) * 4 + conn as u64) * 10_000 + i as u64
}

/// A hectare value unique to one statement of one run.
fn value(segment: u64, round: u64, conn: usize, i: usize, j: usize) -> f64 {
    (((segment * 10_000 + round) * 4 + conn as u64) * 10_000 + (i * 2 + j) as u64) as f64 + 0.5
}

fn stream_seed(seed: u64, segment: u64, round: u64, conn: usize) -> u64 {
    // splitmix-style mixing of the four coordinates
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(segment.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(round.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(conn as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
