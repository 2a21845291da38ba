//! `BENCH_summary.json` as data: one table of `(section, key, value)`
//! rows, each *gated* (a virtual number, compared as text) or *host*
//! (a host measurement: only its key is compared). One writer renders
//! the file, one checker compares a fresh table with the committed
//! file, and one printer lists the rows on stdout.

use std::fmt::Display;
use std::time::Instant;

/// One field of the summary. The empty section is the top level.
#[derive(Debug)]
pub struct Row {
    pub section: &'static str,
    pub key: String,
    pub value: String,
    pub host: bool,
}

/// `section.key`, or `key` at the top level.
fn name(section: &str, key: &str) -> String {
    if section.is_empty() {
        key.to_string()
    } else {
        format!("{section}.{key}")
    }
}

impl Row {
    /// The row's dotted name, `section.key`.
    pub fn name(&self) -> String {
        name(self.section, &self.key)
    }
}

/// The rows of a summary in the order they are written. Each timed
/// section's host seconds become a row of the `host_wall` section,
/// written before the first untimed section.
#[derive(Debug, Default)]
pub struct Table {
    rows: Vec<Row>,
    section: &'static str,
    walls: Vec<Row>,
    clock: Option<(&'static str, Instant)>,
}

impl Table {
    /// Start section `name`, timed as `host_wall.{wall}_host_wall_s`.
    pub fn timed(&mut self, name: &'static str, wall: &'static str) {
        self.stop_clock();
        self.section = name;
        self.clock = Some((wall, Instant::now()));
    }

    /// Start the untimed section `name`, after the `host_wall` section
    /// of the timed ones before it.
    pub fn untimed(&mut self, name: &'static str) {
        self.stop_clock();
        self.rows.append(&mut self.walls);
        self.section = name;
    }

    fn stop_clock(&mut self) {
        if let Some((wall, t0)) = self.clock.take() {
            self.walls.push(Row {
                section: "host_wall",
                key: format!("{wall}_host_wall_s"),
                value: format!("{:.4}", t0.elapsed().as_secs_f64()),
                host: true,
            });
        }
    }

    fn push(&mut self, key: impl Into<String>, value: String, host: bool) {
        self.rows.push(Row {
            section: self.section,
            key: key.into(),
            value,
            host,
        });
    }

    /// A virtual value, gated as the text it displays as.
    pub fn gated(&mut self, key: impl Into<String>, value: impl Display) {
        self.push(key, value.to_string(), false);
    }

    /// Virtual seconds, gated at microsecond precision.
    pub fn secs(&mut self, key: impl Into<String>, secs: f64) {
        self.push(key, format!("{secs:.6}"), false);
    }

    /// Host seconds: the key is gated, the value is not.
    pub fn host_secs(&mut self, key: impl Into<String>, secs: f64) {
        self.push(key, format!("{secs:.4}"), true);
    }

    /// Every row, the `host_wall` section included.
    ///
    /// # Panics
    ///
    /// If two rows share a section and key.
    pub fn into_rows(mut self) -> Vec<Row> {
        self.untimed("");
        let mut names: Vec<String> = self.rows.iter().map(Row::name).collect();
        names.sort();
        if let Some(twice) = names.windows(2).find(|w| w[0] == w[1]) {
            panic!("summary row {} written twice", twice[0]);
        }
        self.rows
    }
}

/// Render `rows` as the summary file: the top-level rows and one
/// object per section, in row order, two spaces per level.
pub fn render(rows: &[Row]) -> String {
    let field = |r: &Row| format!("\"{}\": {}", r.key, r.value);
    let items: Vec<String> = rows
        .chunk_by(|a, b| a.section == b.section)
        .flat_map(|run| match run[0].section {
            "" => run.iter().map(field).collect(),
            section => {
                let fields: Vec<String> = run.iter().map(field).collect();
                vec![format!(
                    "\"{section}\": {{\n    {}\n  }}",
                    fields.join(",\n    ")
                )]
            }
        })
        .collect();
    format!("{{\n  {}\n}}\n", items.join(",\n  "))
}

/// Read back the `(name, value)` fields of a file [`render`] wrote, in
/// file order, each named as [`Row::name`] names it.
pub fn parse(json: &str) -> Vec<(String, String)> {
    let mut section = "";
    let mut fields = Vec::new();
    for line in json.lines().map(str::trim) {
        if line.starts_with('}') {
            section = "";
        } else if let Some((key, value)) = line.strip_prefix('"').and_then(|l| l.split_once("\": "))
        {
            match value {
                "{" => section = key,
                _ => fields.push((
                    name(section, key),
                    value.strip_suffix(',').unwrap_or(value).to_string(),
                )),
            }
        }
    }
    fields
}

/// How the committed file differs from a fresh table: a changed gated
/// value, a row it lacks, a field no row writes any more, or fields
/// out of order. No committed file is drift too.
pub fn drift(committed: Option<&str>, rows: &[Row]) -> Vec<String> {
    let Some(json) = committed else {
        return vec!["no committed summary to check against".to_string()];
    };
    let old = parse(json);
    let names: Vec<String> = rows.iter().map(Row::name).collect();
    let mut out = Vec::new();
    for (r, name) in rows.iter().zip(&names) {
        match old.iter().find(|(k, _)| k == name) {
            None => out.push(format!("{name} missing from the committed file")),
            Some((_, v)) if !r.host && *v != r.value => {
                out.push(format!("{name} committed {v} vs measured {}", r.value))
            }
            Some(_) => {}
        }
    }
    for (k, _) in &old {
        if !names.contains(k) {
            out.push(format!("{k} committed but no longer written"));
        }
    }
    if out.is_empty() && !old.iter().map(|(k, _)| k).eq(&names) {
        out.push("committed fields are out of order or repeated".to_string());
    }
    out
}

/// One line per row: the dotted name, the value, and `(host)` for
/// host values.
pub fn print(rows: &[Row]) {
    for r in rows {
        let tag = if r.host { "  (host)" } else { "" };
        println!("{:<48} {}{tag}", r.name(), r.value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table in the summary's shape: a top-level field, two timed
    /// sections with a host row, the walls and an untimed section.
    fn table() -> Vec<Row> {
        let mut t = Table::default();
        t.timed("", "quickstart");
        t.gated("quickstart_ms", format!("{:.4}", 4.06612));
        t.timed("sor", "sor");
        t.secs("lots_s", 0.160571);
        t.gated("lots_access_checks", 66816);
        t.timed("weak", "weak");
        t.secs("sor_p4_s", 0.00353);
        t.host_secs("sor_p4_host_wall_s", 0.00071);
        t.untimed("access_check_ns");
        t.gated("modeled", 22);
        t.into_rows()
    }

    /// `json` with the line holding `needle` taken out.
    fn without(json: &str, needle: &str) -> String {
        json.lines()
            .filter(|l| !l.contains(needle))
            .map(|l| format!("{l}\n"))
            .collect()
    }

    #[test]
    fn render_writes_the_summary_layout() {
        let json = render(&table());
        let head = "{\n  \"quickstart_ms\": 4.0661,\n  \"sor\": {\n    \"lots_s\": 0.160571,\n";
        assert!(json.starts_with(head), "{json}");
        assert!(json.contains("\"host_wall\": {\n    \"quickstart_host_wall_s\": "));
        assert!(json.ends_with("  \"access_check_ns\": {\n    \"modeled\": 22\n  }\n}\n"));
    }

    #[test]
    fn parse_reads_back_every_rendered_row() {
        let rows = table();
        let expect: Vec<(String, String)> =
            rows.iter().map(|r| (r.name(), r.value.clone())).collect();
        assert_eq!(parse(&render(&rows)), expect);
    }

    #[test]
    #[should_panic(expected = "summary row sor.lots_s written twice")]
    fn a_key_written_twice_panics() {
        let mut t = Table::default();
        t.timed("sor", "sor");
        t.secs("lots_s", 0.1);
        t.secs("lots_s", 0.2);
        t.into_rows();
    }

    #[test]
    fn an_identical_file_or_one_with_other_host_values_is_no_drift() {
        let rows = table();
        let json = render(&rows);
        assert_eq!(drift(Some(&json), &rows), Vec::<String>::new());
        let other_host = json.replace(
            "\"sor_p4_host_wall_s\": 0.0007",
            "\"sor_p4_host_wall_s\": 9.5",
        );
        assert_ne!(other_host, json);
        assert_eq!(drift(Some(&other_host), &rows), Vec::<String>::new());
    }

    #[test]
    fn each_difference_in_the_committed_file_is_drift() {
        let rows = table();
        let json = render(&rows);
        let changed = json.replace(
            "\"lots_access_checks\": 66816",
            "\"lots_access_checks\": 66817",
        );
        let extra = json.replace("\"modeled\": 22", "\"modeled\": 22,\n    \"gone\": 1");
        let moved = json.replace("\"sor\": {\n    \"lots_s\"", "\"sor\": {\n    \"lots_x\"");
        for (case, committed, says) in [
            (
                "changed gated value",
                Some(changed),
                "sor.lots_access_checks committed 66817 vs measured 66816",
            ),
            (
                "missing gated key",
                Some(without(&json, "lots_s")),
                "sor.lots_s missing from the committed file",
            ),
            (
                "missing host key",
                Some(without(&json, "sor_p4_host_wall")),
                "weak.sor_p4_host_wall_s missing",
            ),
            (
                "extra committed key",
                Some(extra),
                "access_check_ns.gone committed but no longer written",
            ),
            (
                "key in another place",
                Some(moved),
                "sor.lots_x committed but no longer written",
            ),
            ("no committed file", None, "no committed summary"),
        ] {
            let found = drift(committed.as_deref(), &rows);
            assert!(
                found.iter().any(|d| d.starts_with(says)),
                "{case}: {found:?}"
            );
        }
    }

    #[test]
    fn reordered_or_repeated_fields_are_drift() {
        let rows = table();
        let json = render(&rows);
        let swapped = json.replace(
            "\"lots_s\": 0.160571,\n    \"lots_access_checks\": 66816",
            "\"lots_access_checks\": 66816,\n    \"lots_s\": 0.160571",
        );
        let repeated = json.replace("\"modeled\": 22", "\"modeled\": 22,\n    \"modeled\": 22");
        for committed in [swapped, repeated] {
            assert_ne!(committed, json);
            assert_eq!(
                drift(Some(&committed), &rows),
                ["committed fields are out of order or repeated"]
            );
        }
    }
}
