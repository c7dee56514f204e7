//! The experiment driver: what an experiment is given ([`Ctx`]), what it
//! hands back ([`Outcome`]), and the one place that prints, writes the
//! `--json` document and decides the exit status ([`drive`]).

use std::io::Write;
use std::time::Instant;

use nm_analysis::{Json, Table};

use crate::experiments::{Experiment, EXPERIMENTS};
use crate::Scale;

/// What every experiment reads its settings from; the environment is
/// consulted once, in [`drive`].
pub struct Ctx {
    /// `NM_SCALE` (`quick` | `full`).
    pub scale: Scale,
}

enum Block {
    Text(String),
    Table(String, Table),
}

/// What one experiment produced: its report in print order (prose lines
/// and named tables), named scalars for the JSON document, and the checks
/// that failed. An experiment never prints or exits; it fills this in.
#[derive(Default)]
pub struct Outcome {
    report: Vec<Block>,
    scalars: Vec<(String, Json)>,
    failures: Vec<String>,
}

impl Outcome {
    /// Appends a line (or a pre-broken paragraph) of prose to the report.
    pub fn say(&mut self, text: impl Into<String>) {
        self.report.push(Block::Text(text.into()));
    }

    /// Appends a table; `name` keys its rows in the JSON document.
    pub fn table(&mut self, name: &str, table: Table) {
        self.report.push(Block::Table(name.to_string(), table));
    }

    /// Records a machine-readable value that no table cell carries.
    pub fn scalar(&mut self, name: &str, value: impl Into<Json>) {
        self.scalars.push((name.to_string(), value.into()));
    }

    /// Records a failed check unless `ok`; the run continues either way so
    /// the report and the JSON document still show what was measured.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// The check every end-to-end experiment makes: two engines must have
    /// produced identical per-packet results on the measured trace.
    pub fn same_results(&mut self, name_a: &str, a: u64, name_b: &str, b: u64) {
        self.check(a == b, || {
            format!("{name_a} and {name_b} disagree on the trace — correctness bug")
        });
    }

    /// The failed checks so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    fn print(&self, out: &mut dyn Write) -> std::io::Result<()> {
        for block in &self.report {
            match block {
                Block::Text(text) => writeln!(out, "{text}")?,
                Block::Table(_, table) => write!(out, "{}", table.render())?,
            }
        }
        for failure in &self.failures {
            writeln!(out, "FAIL: {failure}")?;
        }
        out.flush()
    }

    fn json(&self, name: &str, seconds: f64) -> Json {
        let tables = self.report.iter().filter_map(|b| match b {
            Block::Table(name, table) => Some((name.clone(), Json::from(table))),
            Block::Text(_) => None,
        });
        Json::obj([
            ("name", Json::from(name)),
            ("seconds", Json::num(seconds, 1)),
            ("scalars", Json::Obj(self.scalars.clone())),
            ("tables", Json::obj(tables)),
            ("failures", Json::Arr(self.failures.iter().cloned().map(Json::Str).collect())),
        ])
    }
}

fn usage(problem: &str) -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    format!(
        "{problem}\nusage: nm-bench [--json PATH] <experiment>... | all | --list\n\
         experiments: {}",
        names.join(" ")
    )
}

/// Runs the experiments `args` names (`all` = every one, `--list` = print
/// the names instead), printing each report to `out` as its experiment
/// finishes and writing one JSON document for the whole invocation to
/// `--json PATH`. `Ok(true)` when every check passed, `Ok(false)` when an
/// experiment recorded a failure, `Err(usage)` when `args` made no sense.
pub fn drive(args: &[String], out: &mut dyn Write) -> Result<bool, String> {
    let mut json_path = None;
    let mut picked: Vec<&Experiment> = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                for (name, _) in EXPERIMENTS {
                    writeln!(out, "{name}").map_err(|e| e.to_string())?;
                }
                return Ok(true);
            }
            "--json" => json_path = Some(args.next().ok_or_else(|| usage("--json needs a path"))?),
            "all" => picked.extend(EXPERIMENTS),
            name => picked.push(
                EXPERIMENTS
                    .iter()
                    .find(|(known, _)| *known == name)
                    .ok_or_else(|| usage(&format!("unknown experiment '{name}'")))?,
            ),
        }
    }
    if picked.is_empty() {
        return Err(usage("no experiment named"));
    }
    let name = std::env::var("NM_SCALE").unwrap_or_default();
    let scale = Scale::named(&name)
        .ok_or_else(|| usage(&format!("NM_SCALE must be quick or full, not '{name}'")))?;
    let ctx = Ctx { scale };
    let mut documents = Vec::new();
    let mut passed = true;
    for (name, run) in picked {
        let t0 = Instant::now();
        let outcome = run(&ctx);
        outcome.print(out).map_err(|e| e.to_string())?;
        passed &= outcome.failures.is_empty();
        documents.push(outcome.json(name, t0.elapsed().as_secs_f64()));
    }
    if let Some(path) = json_path {
        let doc = Json::obj([
            ("scale", Json::from(if ctx.scale.full { "full" } else { "quick" })),
            ("experiments", Json::Arr(documents)),
        ]);
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> (Result<bool, String>, String) {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let mut out = Vec::new();
        let result = drive(&args, &mut out);
        (result, String::from_utf8(out).unwrap())
    }

    const PARENT_BINARIES: [&str; 20] = [
        "ablation",
        "batch",
        "contention",
        "fields",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig17",
        "fig7",
        "fig8",
        "fig9",
        "search_dist",
        "shard",
        "table1",
        "table2",
        "table3",
        "update",
    ];

    #[test]
    fn list_prints_the_20_unique_experiment_names() {
        let (result, out) = run(&["--list"]);
        assert_eq!(result, Ok(true));
        let names: Vec<&str> = out.lines().collect();
        assert_eq!(names, PARENT_BINARIES, "update_bench -> update is the one rename");
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), 20);
    }

    #[test]
    fn unknown_or_missing_arguments_are_usage_errors_that_list_the_experiments() {
        for args in [&["nope"][..], &[], &["fig7", "--json"]] {
            let (result, out) = run(args);
            let usage = result.expect_err("must not run anything");
            assert!(out.is_empty(), "{args:?} printed {out}");
            for name in PARENT_BINARIES {
                assert!(usage.contains(name), "{args:?}: usage omits {name}: {usage}");
            }
        }
        assert!(run(&["nope"]).0.unwrap_err().contains("unknown experiment 'nope'"));
    }

    #[test]
    fn nm_scale_is_unset_quick_or_full_and_nothing_else() {
        assert!(!Scale::named("").unwrap().full);
        assert!(!Scale::named("quick").unwrap().full);
        assert!(Scale::named("full").unwrap().full);
        for typo in ["ful", "Full", "quick ", "500k"] {
            assert!(Scale::named(typo).is_none(), "NM_SCALE={typo:?} must be refused");
        }
    }

    #[test]
    fn a_run_prints_the_report_and_writes_one_json_document() {
        let path = std::env::temp_dir().join(format!("nm-bench-{}.json", std::process::id()));
        let (result, out) = run(&["--json", path.to_str().unwrap(), "fig7", "fig7"]);
        assert_eq!(result, Ok(true));
        assert_eq!(out.matches("Figure 7: normalized throughput over time").count(), 2);
        let doc = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(doc.starts_with(r#"{"scale":""#), "{doc}");
        assert_eq!(doc.matches(r#"{"name":"fig7","seconds":"#).count(), 2, "{doc}");
        assert!(doc.contains(r#""sustained_updates_per_s":"#), "{doc}");
        assert!(doc.contains(r#""failures":[]"#) && doc.ends_with("}\n"), "{doc}");
    }

    #[test]
    fn a_failed_check_is_printed_recorded_and_fails_the_run() {
        let mut outcome = Outcome::default();
        outcome.say("measured");
        outcome.same_results("tm", 1, "nm", 1);
        assert!(outcome.failures().is_empty());
        outcome.same_results("tm", 1, "nm", 2);
        let mut out = Vec::new();
        outcome.print(&mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert_eq!(out, "measured\nFAIL: tm and nm disagree on the trace — correctness bug\n");
        assert!(outcome.json("x", 0.0).to_string().contains(r#""failures":["tm and nm disagree"#));
    }
}
