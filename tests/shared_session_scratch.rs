//! Regression: a shared session's working image is per-statement scratch.
//!
//! Every query result is a molecule type over an enlarged database DB′
//! (`prop`, Def. 9). In a `Session::shared` that DB′ is the session's fork
//! of the committed image, and it must not outlive the session's next
//! statement: otherwise a read-only session piles up derived types and
//! every statement slows the next one. Over a long stream of reads and
//! prepared EXECUTEs with no commit, this checks that
//!
//! * the working image never holds more than the committed types plus one
//!   statement's propagation;
//! * every answer equals an engine-level reference (a plain `Engine` in
//!   which derived types accumulate, as in the paper's algebra), with the
//!   derived-type numbers blanked;
//! * the prepared-plan cache keeps hitting across the re-forks;
//! * a result still renders from `Session::db` after `execute()`;
//! * a commit from another session is visible on the next read.

use mad::algebra::ops::Engine;
use mad::algebra::structure::MoleculeStructure;
use mad::model::FxHashMap;
use mad::mql::ast::Statement;
use mad::mql::exec::execute;
use mad::mql::format::render_result;
use mad::mql::{Session, StatementResult};
use mad::storage::Database;
use mad::txn::DbHandle;
use mad::workload::brazil::brazil_database;

/// The reference: the molecule algebra driven directly — a plain `Engine`
/// over the fixture plus a catalog, through `mad_mql::exec::execute`.
/// `PREPARE` keeps the parsed body and `EXECUTE` runs that body. Derived
/// types accumulate in the engine's database, as in the paper's algebra,
/// so the reference shares no fork, refresh or plan-cache code with the
/// session it checks.
struct Reference {
    engine: Engine,
    catalog: FxHashMap<String, MoleculeStructure>,
    prepared: FxHashMap<String, Statement>,
}

impl Reference {
    fn new(db: Database) -> Self {
        Reference {
            engine: Engine::new(db),
            catalog: FxHashMap::default(),
            prepared: FxHashMap::default(),
        }
    }

    /// Execute one statement and render its answer.
    fn execute(&mut self, mql: &str) -> String {
        let stmt = match mad::mql::parse(mql).unwrap() {
            Statement::Prepare { name, body } => {
                self.prepared.insert(name, *body);
                return String::new();
            }
            Statement::ExecutePrepared { name, .. } => self.prepared[&name].clone(),
            stmt => stmt,
        };
        let result = execute(&mut self.engine, &mut self.catalog, &stmt).unwrap();
        render_result(self.engine.db(), &result)
    }
}

/// The statement stream: point reads, a scan, EXPLAIN and prepared
/// EXECUTEs, in a fixed rotation.
fn statement(i: usize) -> String {
    const STATES: [&str; 3] = ["SP", "MG", "RJ"];
    match i % 6 {
        0 => format!(
            "SELECT ALL FROM state-area-edge-point WHERE state.sname = '{}'",
            STATES[i / 6 % STATES.len()]
        ),
        1 => "EXECUTE sp".to_owned(),
        2 => "SELECT ALL FROM state-area".to_owned(),
        3 => "EXECUTE points".to_owned(),
        4 => format!(
            "EXPLAIN SELECT ALL FROM state-area WHERE state.sname = '{}'",
            STATES[i % 3]
        ),
        _ => format!(
            "SELECT ALL FROM area-edge WHERE EXISTS(edge: edge.eid > {})",
            i % 7
        ),
    }
}

const PREPARES: [&str; 2] = [
    "PREPARE sp AS SELECT ALL FROM state-area-edge WHERE state.sname = 'SP'",
    "PREPARE points AS SELECT ALL FROM edge-point",
];

/// Blank the numbers of session-local derived types: atoms render as
/// `a<type>.<slot>` (`^a<type>.<slot>` for a repeated one), and a result's
/// atoms live in derived types whose ids depend on how many types the
/// image had accumulated.
fn blank_type_numbers(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut prev = ' ';
    let mut rest = text;
    while let Some(c) = rest.chars().next() {
        rest = &rest[c.len_utf8()..];
        out.push(c);
        if c == 'a' && (prev == ' ' || prev == '^') {
            let digits = rest.len() - rest.trim_start_matches(|d: char| d.is_ascii_digit()).len();
            if digits > 0 && rest[digits..].starts_with('.') {
                out.push('_');
                rest = &rest[digits..];
            }
        }
        prev = c;
    }
    out
}

#[test]
fn shared_session_scratch_does_not_pile_up() {
    let (db, _) = brazil_database().unwrap();
    let committed_types = db.schema().atom_type_count();
    let handle = DbHandle::new(db.clone());
    let mut shared = Session::shared(handle.clone());
    let mut reference = Reference::new(db);
    for p in PREPARES {
        shared.execute(p).unwrap();
        reference.execute(p);
    }
    // one statement's propagation, measured on a fresh session per
    // statement kind: the bound on what the working image may hold
    let mut per_statement = 0;
    for i in 0..6 {
        let mut fresh = Session::shared(handle.clone());
        for p in PREPARES {
            fresh.execute(p).unwrap();
        }
        fresh.execute(&statement(i)).unwrap();
        per_statement = per_statement.max(fresh.db().schema().atom_type_count() - committed_types);
    }
    assert!(per_statement > 0, "reads propagate into DB′");

    let hits = shared.obs().counter("mql.prepared.hits");
    let mut last_hits = hits.get();
    for i in 0..1_000 {
        let stmt = statement(i);
        let got = shared.execute(&stmt).unwrap();
        // rendering reads the result's derived types from the working image
        let got_text = render_result(shared.db(), &got);
        let want_text = reference.execute(&stmt);
        assert_eq!(
            blank_type_numbers(&got_text),
            blank_type_numbers(&want_text),
            "statement {i}: {stmt}"
        );
        let held = shared.db().schema().atom_type_count();
        assert!(
            held <= committed_types + per_statement,
            "statement {i}: working image holds {held} atom types, \
             committed {committed_types} + one statement's {per_statement}"
        );
        if stmt.starts_with("EXECUTE") {
            let now = hits.get();
            assert!(
                now > last_hits,
                "statement {i}: EXECUTE missed the plan cache"
            );
            last_hits = now;
        }
    }

    // a result's derived types stay readable until the next statement
    let r = shared
        .execute("SELECT ALL FROM state-area WHERE state.sname = 'SP'")
        .unwrap();
    let StatementResult::Molecules(mt) = &r else {
        panic!("expected molecules, got {r:?}")
    };
    let root_ty = mt.structure.root_node().ty;
    assert!(
        root_ty.0 as usize >= committed_types,
        "the result lives in DB′"
    );
    assert!(shared
        .db()
        .schema()
        .atom_type(root_ty)
        .derived_from
        .is_some());
    assert!(render_result(shared.db(), &r).contains("SP"));

    // a commit from another session is visible on the next read
    let mut writer = Session::shared(handle.clone());
    writer
        .execute("INSERT ATOM state (sname = 'XX', fullname = 'X', hectare = 1.0)")
        .unwrap();
    let r = shared
        .execute("SELECT ALL FROM state WHERE state.sname = 'XX'")
        .unwrap();
    let StatementResult::Molecules(mt) = r else {
        panic!("expected molecules")
    };
    assert_eq!(mt.len(), 1, "the other session's commit is visible");
    assert!(shared.db().schema().atom_type_count() <= committed_types + per_statement);
}
