//! Correctness checks, one per workload, each with a negative self-test
//! that corrupts one expected answer or image and confirms the check
//! catches it. Every mismatch counts as a failed operation.

use crate::drive::Acked;
use mad_model::{Result, Value};
use mad_mql::Session;
use mad_storage::Database;
use mad_storage::DatabaseSnapshot;
use std::collections::HashMap;

/// Outcome of one check: mismatches found, and whether the corrupted
/// copy was caught.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checked {
    /// Items compared.
    pub compared: u64,
    /// Items that did not match.
    pub mismatches: u64,
    /// The self-test's corruption was detected.
    pub self_test_caught: bool,
}

/// `serve_read`: every served answer must equal the answer of an
/// in-memory reference `Session::new` over the same fixture.
pub fn reads_match_reference(fixture: &Database, answers: &[(String, u64)]) -> Result<Checked> {
    let mut expected: HashMap<&str, u64> = HashMap::new();
    let mut reference = Session::new(fixture.clone());
    for (stmt, _) in answers {
        if expected.contains_key(stmt.as_str()) {
            continue;
        }
        // a session's working fork grows with every query it answers;
        // a fresh reference now and then keeps the check's cost flat
        if expected.len() % 200 == 199 {
            reference = Session::new(fixture.clone());
        }
        let text = reference.execute_rendered(stmt)?;
        expected.insert(stmt, crate::drive::answer_hash(&text));
    }
    let mismatches = |expected: &HashMap<&str, u64>| {
        answers
            .iter()
            .filter(|(stmt, got)| expected.get(stmt.as_str()) != Some(got))
            .count() as u64
    };
    let found = mismatches(&expected);
    // self-test: corrupt the first expected answer
    let caught = match answers.first() {
        Some((stmt, _)) => {
            let mut corrupted = expected.clone();
            let text = reference.execute_rendered(stmt)? + "corrupted";
            corrupted.insert(stmt, crate::drive::answer_hash(&text));
            mismatches(&corrupted) > found
        }
        None => false,
    };
    Ok(Checked {
        compared: answers.len() as u64,
        mismatches: found,
        self_test_caught: caught,
    })
}

/// The state of the writes a client had acknowledged, as the reopened
/// log must hold it: the last hectare per key, every inserted city.
#[derive(Clone, Debug, Default)]
pub struct Expected {
    hectare: HashMap<usize, f64>,
    cities: HashMap<String, i64>,
}

impl Expected {
    /// Fold acknowledged writes in, in acknowledgement order (each key has
    /// one writer, so acknowledgement order is commit order).
    pub fn record(&mut self, acked: &[Acked]) {
        for a in acked {
            match a {
                Acked::Hectare(key, v) => {
                    self.hectare.insert(*key, *v);
                }
                Acked::City(name, pop) => {
                    self.cities.insert(name.clone(), *pop);
                }
            }
        }
    }

    fn mismatches(&self, db: &Database) -> Result<(u64, u64)> {
        let state = db.schema().atom_type_id("state")?;
        let city = db.schema().atom_type_id("city")?;
        let sname = attr(db, "state", "sname")?;
        let hectare = attr(db, "state", "hectare")?;
        let (cname, population) = (attr(db, "city", "cname")?, attr(db, "city", "population")?);
        let mut bad = 0;
        for (key, want) in &self.hectare {
            let found = db
                .lookup_eq(state, sname, &Value::Text(format!("S{key}")))
                .and_then(|ids| ids.first().copied())
                .and_then(|id| db.atom_value(id, hectare).ok().cloned());
            if found != Some(Value::Float(*want)) {
                bad += 1;
            }
        }
        let mut stored: HashMap<&str, Vec<&Value>> = HashMap::new();
        for (_, tuple) in db.atoms_of(city) {
            if let Value::Text(name) = &tuple[cname] {
                stored
                    .entry(name.as_str())
                    .or_default()
                    .push(&tuple[population]);
            }
        }
        for (name, pop) in &self.cities {
            if stored.get(name.as_str()).map(Vec::as_slice) != Some(&[&Value::Int(*pop)]) {
                bad += 1;
            }
        }
        Ok(((self.hectare.len() + self.cities.len()) as u64, bad))
    }
}

fn attr(db: &Database, ty: &str, name: &str) -> Result<usize> {
    let id = db.schema().atom_type_id(ty)?;
    db.schema()
        .atom_type(id)
        .attr_index(name)
        .ok_or_else(|| mad_model::MadError::Analysis {
            detail: format!("{ty} has no attribute {name}"),
        })
}

/// `durable_write`: the reopened log holds every acknowledged write.
pub fn log_holds_acked(reopened: &Database, expected: &Expected) -> Result<Checked> {
    let (compared, mismatches) = expected.mismatches(reopened)?;
    // self-test: one expected hectare that no client ever wrote
    let mut corrupted = expected.clone();
    let caught = match corrupted.hectare.iter_mut().next() {
        Some((_, v)) => {
            *v = -1.0;
            corrupted.mismatches(reopened)?.1 > mismatches
        }
        None => match corrupted.cities.iter_mut().next() {
            Some((_, pop)) => {
                *pop = -1;
                corrupted.mismatches(reopened)?.1 > mismatches
            }
            None => false,
        },
    };
    Ok(Checked {
        compared,
        mismatches,
        self_test_caught: caught,
    })
}

/// A canonical rendering of a committed image.
pub fn image(db: &Database) -> String {
    DatabaseSnapshot::capture(db).to_json_string()
}

/// `mixed_replicated`: the standby's final image equals the primary's
/// and the reopened log's.
pub fn images_agree(primary: &Database, standby: &str, reopened: &str) -> Result<Checked> {
    let p = image(primary);
    let mismatches = u64::from(p != standby) + u64::from(p != reopened);
    // self-test: the primary's image with one attribute changed
    let mut corrupted = primary.clone();
    let state = corrupted.schema().atom_type_id("state")?;
    let hectare = attr(&corrupted, "state", "hectare")?;
    let caught = match corrupted.atom_ids_of(state).first() {
        Some(&id) => {
            corrupted.update_attr(id, hectare, Value::Float(-1.0))?;
            image(&corrupted) != standby
        }
        None => false,
    };
    Ok(Checked {
        compared: 2,
        mismatches,
        self_test_caught: caught,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mad_workload::{generate_geo, GeoParams};

    fn small() -> Database {
        let (mut db, h) = generate_geo(&GeoParams::default()).unwrap();
        db.create_index(h.state, "sname", mad_storage::IndexKind::Hash)
            .unwrap();
        db
    }

    #[test]
    fn reference_check_accepts_true_answers_and_catches_a_false_one() {
        let db = small();
        let q = "SELECT ALL FROM state-area-edge-point WHERE state.sname = 'S3'";
        let mut served = Session::new(db.clone());
        // a second query first, so the served session's type numbers
        // differ from the reference's
        served
            .execute_rendered("SELECT ALL FROM state-area WHERE state.sname = 'S1'")
            .unwrap();
        let right = crate::drive::answer_hash(&served.execute_rendered(q).unwrap());
        let c = reads_match_reference(&db, &[(q.to_owned(), right)]).unwrap();
        assert_eq!((c.compared, c.mismatches, c.self_test_caught), (1, 0, true));
        let wrong = crate::drive::answer_hash("molecule type `result`: 0 molecule(s)\n");
        let c =
            reads_match_reference(&db, &[(q.to_owned(), right), (q.to_owned(), wrong)]).unwrap();
        assert_eq!(c.mismatches, 1);
    }

    #[test]
    fn log_check_finds_a_lost_write_and_its_self_test_bites() {
        let db = small();
        let hectare = attr(&db, "state", "hectare").unwrap();
        let state = db.schema().atom_type_id("state").unwrap();
        let s2 = db.atom_ids_of(state)[2];
        let Value::Float(v) = db.atom_value(s2, hectare).unwrap().clone() else {
            panic!()
        };
        let mut expected = Expected::default();
        expected.record(&[Acked::Hectare(2, v), Acked::City("C0".into(), 0)]);
        // C0's population is random: only the hectare can match
        let c = log_holds_acked(&db, &expected).unwrap();
        assert_eq!((c.compared, c.mismatches, c.self_test_caught), (2, 1, true));
        let mut exact = Expected::default();
        exact.record(&[Acked::Hectare(2, v)]);
        let c = log_holds_acked(&db, &exact).unwrap();
        assert_eq!((c.mismatches, c.self_test_caught), (0, true));
        // a later acknowledged value for the same key replaces the earlier
        exact.record(&[Acked::Hectare(2, v + 1.0)]);
        assert_eq!(log_holds_acked(&db, &exact).unwrap().mismatches, 1);
    }

    #[test]
    fn image_check_compares_all_three_and_its_self_test_bites() {
        let db = small();
        let same = image(&db);
        let c = images_agree(&db, &same, &same).unwrap();
        assert_eq!((c.mismatches, c.self_test_caught), (0, true));
        let mut other = db.clone();
        let state = other.schema().atom_type_id("state").unwrap();
        let id = other.atom_ids_of(state)[1];
        other
            .update_attr(
                id,
                attr(&db, "state", "hectare").unwrap(),
                Value::Float(0.25),
            )
            .unwrap();
        let c = images_agree(&db, &same, &image(&other)).unwrap();
        assert_eq!(c.mismatches, 1);
    }
}
