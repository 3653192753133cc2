//! An interactive MQL shell over the Brazil database of Fig. 1/4.
//!
//! ```text
//! cargo run --example mql_repl
//! mql> SELECT ALL FROM state-area-edge WHERE state.sname = 'SP';
//! mql> DEFINE MOLECULE pn AS point-edge-(area-state,net-river);
//! mql> SELECT ALL FROM pn WHERE point.pname = 'p0';
//! mql> .schema        -- meta commands: .schema .stats .catalog .help .quit
//! ```
//!
//! Also works non-interactively: `echo "SELECT ALL FROM state;" | cargo run
//! --example mql_repl`.

use mad::mql::{format::render_result, Session};
use mad::storage::DatabaseStats;
use mad::workload::brazil_database;
use std::io::{BufRead, Write};

fn main() -> mad::model::Result<()> {
    let (db, _) = brazil_database()?;
    println!(
        "MAD/MQL shell — GEO_DB loaded ({} atoms, {} links). Type .help for help.",
        db.total_atoms(),
        db.total_links()
    );
    let mut session = Session::new(db);
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("mql> ");
        } else {
            print!("...> ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() {
            match trimmed {
                ".quit" | ".exit" => break,
                ".help" => {
                    println!(
                        "statements: SELECT … FROM structure [WHERE …];  EXPLAIN SELECT …;\n\
                         \x20           DEFINE MOLECULE n AS …;\n\
                         \x20           INSERT ATOM t (a = v, …);  CONNECT t[a=v] TO t[a=v] VIA link;\n\
                         \x20           DISCONNECT …;  DELETE ATOM t[a=v];  UPDATE t[a=v] SET a = v;\n\
                         \x20           SELECT ALL FROM RECURSIVE t VIA link [DOWN|UP|BOTH] [DEPTH n];\n\
                         meta:       .schema  .stats  .catalog  .help  .quit"
                    );
                    continue;
                }
                ".schema" => {
                    print!("{}", session.db().schema().render());
                    continue;
                }
                ".stats" => {
                    // outside a transaction, the committed image: the
                    // session's working image catches up with a DML only
                    // at its next statement
                    let stats = if session.in_transaction() {
                        DatabaseStats::collect(session.db())
                    } else {
                        let handle = session.handle().expect("every session has a handle");
                        DatabaseStats::collect(&handle.committed())
                    };
                    print!("{}", stats.render());
                    continue;
                }
                ".catalog" => {
                    let names = session.catalog_names();
                    if names.is_empty() {
                        println!("(no molecule types defined yet)");
                    } else {
                        for n in names {
                            let md = session.catalog_get(n).unwrap();
                            println!("{n} = {}", md.render_compact(session.db().schema()));
                        }
                    }
                    continue;
                }
                "" => continue,
                _ => {}
            }
        }
        buffer.push_str(&line);
        // execute once a statement terminator arrives
        if !buffer.trim_end().ends_with(';') {
            continue;
        }
        let stmt = std::mem::take(&mut buffer);
        match session.execute(stmt.trim()) {
            Ok(result) => print!("{}", render_result(session.db(), &result)),
            Err(e) => eprintln!("error: {e}"),
        }
    }
    println!("bye");
    Ok(())
}
