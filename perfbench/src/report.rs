//! The report: run metadata, every metric with its unit, the checks, and
//! the final JSON line.

use crate::metrics::{Ratio, Tail};
use crate::verify::Checked;
use crate::workload::{self, Kind};
use crate::Args;
use mad_model::json::Json;
use std::fmt::Write as _;
use std::process::Command;

/// The file that names the metrics of the final JSON line, read from the
/// directory the benchmark runs in (the repository root).
pub const BENCHMARK_JSON: &str = "BENCHMARK.json";

/// `(name, unit)` of every metric `BENCHMARK.json` lists for this kind of
/// run: its `per_layer` list for traced runs, `end_to_end` otherwise.
pub fn listed(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(BENCHMARK_JSON)
        .map_err(|e| format!("cannot read {BENCHMARK_JSON}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let list = doc
        .get(key)
        .and_then(Json::as_arr)
        .map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    list.iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Ok(Json::Str(name)), Ok(Json::Str(unit))) => Ok((name.clone(), unit.clone())),
            _ => Err(format!(
                "{BENCHMARK_JSON}: every `{key}` entry needs a string name and unit"
            )),
        })
        .collect()
}

/// One reported metric.
pub struct Metric {
    /// Name, as in `BENCHMARK.json` where it is listed there.
    pub name: String,
    /// Value; `None` when the workload has no samples for it.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
    /// Sample count, percentile, ratio base — whatever the value needs.
    pub note: String,
}

/// A whole run's report.
#[derive(Default)]
pub struct Report {
    /// Every metric the run measured.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (errors and wrong answers).
    pub failed: u64,
    /// The verification checks run.
    pub checks: Vec<(String, Checked)>,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Samples per op type.
    pub samples: Vec<(&'static str, usize)>,
    /// Extra metadata lines.
    pub notes: Vec<String>,
}

impl Report {
    /// Add a metric.
    pub fn add(
        &mut self,
        name: &str,
        value: Option<f64>,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Add a ratio, its base in the note.
    pub fn ratio(&mut self, name: &str, r: Ratio, unit: &'static str) {
        self.add(name, Some(r.value()), unit, format!("= {r}"));
    }

    /// Add a latency p50 and tail pair in µs from ns samples.
    pub fn latency(&mut self, prefix: &str, samples: &[u64]) {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let p50 = crate::metrics::nearest_rank(&sorted, 0.5).map(|v| v as f64 / 1e3);
        self.add(&format!("{prefix}_p50_us"), p50, "us", format!("n={n}"));
        let tail: Option<Tail> = crate::metrics::tail(&sorted);
        let note = match tail {
            Some(t) => format!("{} of n={}, {} samples beyond", t.label(), t.n, t.beyond),
            None => format!("n={n}: too few samples for a tail"),
        };
        self.add(
            &format!("{prefix}_tail_us"),
            tail.map(|t| t.value as f64 / 1e3),
            "us",
            note,
        );
    }

    /// Count a failing check's mismatches, and a missed self-test, as
    /// failed operations.
    pub fn check(&mut self, name: &str, c: Checked) {
        self.failed += c.mismatches + u64::from(!c.self_test_caught);
        if c.mismatches > 0 {
            self.errors.push(format!(
                "{name}: {} of {} compared items differ",
                c.mismatches, c.compared
            ));
        }
        if !c.self_test_caught {
            self.errors.push(format!(
                "{name}: the self-test's corruption went undetected"
            ));
        }
        self.checks.push((name.to_owned(), c));
    }

    /// Did every operation and every check pass?
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.checks.is_empty()
    }

    fn value(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The final JSON line over the `listed` metrics. A listed metric the
    /// run did not measure, or measured in another unit, is an error; one
    /// measured without samples (an idle layer) reads 0.
    pub fn json_line(&self, listed: &[(String, String)]) -> Result<String, String> {
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in listed.iter().enumerate() {
            let m = self.value(name).ok_or(format!(
                "{BENCHMARK_JSON} lists `{name}`, which this run does not measure"
            ))?;
            if m.unit != unit {
                return Err(format!(
                    "{BENCHMARK_JSON} gives `{name}` the unit `{unit}`, the run measures it in `{}`",
                    m.unit
                ));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                finite(m.value.unwrap_or(0.0))
            );
        }
        json.push_str("}}");
        Ok(json)
    }

    /// Print the report, then the JSON line over the `listed` metrics last.
    pub fn print(&self, args: &Args, listed: &[(String, String)]) -> Result<(), String> {
        let json = self.json_line(listed)?;
        let mut out = String::new();
        for line in metadata(args) {
            let _ = writeln!(out, "# {line}");
        }
        for line in &self.notes {
            let _ = writeln!(out, "# {line}");
        }
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, n)| format!("{k}={n}"))
            .collect();
        let _ = writeln!(out, "# samples per op type: {}", samples.join(" "));
        for (name, c) in &self.checks {
            let _ = writeln!(
                out,
                "# check {name}: {} compared, {} mismatched, self-test {}",
                c.compared,
                c.mismatches,
                if c.self_test_caught {
                    "caught its corruption"
                } else {
                    "MISSED its corruption"
                }
            );
        }
        for e in &self.errors {
            let _ = writeln!(out, "# error: {e}");
        }
        for m in &self.metrics {
            let value = m.value.map_or("n/a".to_owned(), |v| format!("{v}"));
            let _ = writeln!(out, "{:<34} {:>18} {:<6} {}", m.name, value, m.unit, m.note);
        }
        println!("{out}{json}");
        Ok(())
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Host and run metadata, printed with every report.
fn metadata(args: &Args) -> Vec<String> {
    let par = std::thread::available_parallelism().map_or(0, usize::from);
    let g = workload::geo_params(args.seed);
    vec![
        format!(
            "workload {} seed {} seconds {} trace {}",
            args.kind.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!(
            "host available_parallelism={par} git={} rustc={}",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown (not a git checkout)".into()),
            command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        ),
        format!(
            "fsync={} connections={} (even segments over TCP, odd ones in-process) ops_per_connection={} fixture states={} edges_per_state={} rivers={} \
             edges_per_river={} share={} cities={} seed={}",
            if args.kind == Kind::ServeRead {
                "none (non-durable)".to_owned()
            } else {
                format!(
                    "{:?} (served logs; the traced run's WAL peel uses {:?})",
                    workload::FSYNC,
                    workload::PEEL_FSYNC
                )
            },
            workload::CONNECTIONS,
            args.kind.ops_per_connection(),
            g.states,
            g.edges_per_state,
            g.rivers,
            g.edges_per_river,
            g.share,
            g.cities,
            g.seed
        ),
    ]
}

/// First line of a command's standard output; the child is waited for.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(str::to_owned)
}

/// `(steal, total)` CPU ticks of the whole machine since boot, from the
/// `cpu` line of `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<std::result::Result<_, _>>()
        .ok()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user time
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// The note on how much CPU time the host took from this machine between
/// two [`cpu_ticks`] readings.
pub fn steal_note(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> String {
    match before.zip(after) {
        Some(((s0, t0), (s1, t1))) if t1 > t0 => format!(
            "host steal during the run: {:.1}% of CPU time ({} / {} ticks)",
            100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64,
            s1.saturating_sub(s0),
            t1 - t0
        ),
        _ => "host steal during the run: unknown".to_owned(),
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(names: &[(&str, &str)]) -> Vec<(String, String)> {
        names
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn the_json_line_holds_exactly_the_listed_metrics() {
        let mut rep = Report::default();
        rep.add("setup_s", Some(0.5), "s", "");
        rep.add("stmt_p50_us", Some(700.25), "us", "");
        rep.add("idle_us_p50", None, "us", "n=0");
        rep.add("unlisted", Some(1.0), "count", "");
        let line = rep
            .json_line(&listed(&[
                ("stmt_p50_us", "us"),
                ("setup_s", "s"),
                ("idle_us_p50", "us"),
            ]))
            .expect("every listed metric is measured");
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"stmt_p50_us\": {\"value\": 700.25, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"idle_us_p50\": {\"value\": 0, \"unit\": \"us\"}}}"
        );
    }

    #[test]
    fn the_steal_note_gives_its_base() {
        assert_eq!(
            steal_note(Some((10, 1000)), Some((30, 2000))),
            "host steal during the run: 2.0% of CPU time (20 / 1000 ticks)"
        );
        assert_eq!(
            steal_note(None, Some((30, 2000))),
            "host steal during the run: unknown"
        );
    }

    #[test]
    fn a_listed_metric_the_run_lacks_or_measures_otherwise_is_an_error() {
        let mut rep = Report::default();
        rep.add("setup_s", Some(0.5), "s", "");
        let missing = rep.json_line(&listed(&[("setup_s", "s"), ("stmts_per_s", "1/s")]));
        assert!(missing.unwrap_err().contains("`stmts_per_s`"));
        let unit = rep.json_line(&listed(&[("setup_s", "ms")]));
        assert!(unit.unwrap_err().contains("`ms`"));
    }
}
