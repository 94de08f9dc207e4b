//! Tiny `--key value` argument parsing shared by the figure binaries
//! (keeps the workspace free of CLI dependencies), plus the epilogue
//! and list-parsing helpers every binary used to copy-paste.
//!
//! Every getter records the key it was asked for. A binary reads all of
//! its flags up front and then calls [`CliArgs::finish`], which exits on
//! any `--key` nothing read and on any positional argument — so a
//! misspelled or removed flag fails the run instead of silently
//! measuring the default configuration.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

use ts_workload::{Report, SchemeKind, StructureKind};

/// Parsed `--key value` arguments.
pub struct CliArgs {
    map: HashMap<String, String>,
    /// Arguments that are neither a `--key` nor a key's value.
    positional: Vec<String>,
    /// Keys some getter has asked for.
    read: RefCell<BTreeSet<String>>,
}

impl CliArgs {
    /// Parses `std::env::args()`, accepting `--key value` and `--flag`.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (tests).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut map = HashMap::new();
        let mut positional = Vec::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next().unwrap(),
                    _ => "true".to_string(),
                };
                map.insert(key.to_string(), value);
            } else {
                positional.push(arg);
            }
        }
        Self {
            map,
            positional,
            read: RefCell::new(BTreeSet::new()),
        }
    }

    /// String value for `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.read.borrow_mut().insert(key.to_string());
        self.map.get(key).map(String::as_str)
    }

    /// The arguments no getter has asked for so far: every unread
    /// `--key` (sorted), then every positional argument.
    fn unread(&self) -> Vec<String> {
        let read = self.read.borrow();
        let mut keys: Vec<String> = self
            .map
            .keys()
            .filter(|k| !read.contains(k.as_str()))
            .map(|k| format!("--{k}"))
            .collect();
        keys.sort();
        keys.extend(self.positional.iter().cloned());
        keys
    }

    /// Ends the argument block: exits with status 2 and an
    /// `unknown flag(s): ...` message if any `--key` was given that no
    /// getter has read, or if any positional argument was given. Call it
    /// after the binary's last flag read and before its first cell runs.
    pub fn finish(&self) {
        let unread = self.unread();
        if !unread.is_empty() {
            eprintln!("unknown flag(s): {}", unread.join(" "));
            std::process::exit(2);
        }
    }

    /// `usize` value with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects a number, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// `f64` value with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects a number, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// Boolean flag. Panics on a value that is not a boolean, such as a
    /// positional argument the parser took for the flag's value
    /// (`--quick stray`), rather than reading it as "off".
    pub fn get_flag(&self, key: &str) -> bool {
        match self.get(key) {
            None | Some("false" | "0" | "no") => false,
            Some("true" | "1" | "yes") => true,
            Some(v) => panic!("--{key} is a flag, got value {v:?}"),
        }
    }

    /// Comma-separated usize list with a default.
    pub fn get_usize_list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        match self.get(key) {
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("--{key} expects numbers, got {s:?}"))
                })
                .collect(),
            None => default.to_vec(),
        }
    }

    /// Comma-separated f64 list with a default (QPS ladders).
    pub fn get_f64_list(&self, key: &str, default: &[f64]) -> Vec<f64> {
        match self.get(key) {
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("--{key} expects numbers, got {s:?}"))
                })
                .collect(),
            None => default.to_vec(),
        }
    }

    /// Comma-separated scheme labels (see
    /// [`SchemeKind::label`]) with a default, e.g.
    /// `--schemes leaky,threadscan`.
    pub fn get_schemes(&self, key: &str, default: &[SchemeKind]) -> Vec<SchemeKind> {
        match self.get(key) {
            Some(list) => list
                .split(',')
                .map(|s| {
                    SchemeKind::parse(s.trim())
                        .unwrap_or_else(|| panic!("--{key}: unknown scheme {s:?}"))
                })
                .collect(),
            None => default.to_vec(),
        }
    }

    /// Comma-separated structure labels (see
    /// [`StructureKind::label`]) with a default, e.g.
    /// `--structures list,hash,skiplist`.
    pub fn get_structures(&self, key: &str, default: &[StructureKind]) -> Vec<StructureKind> {
        match self.get(key) {
            Some(list) => list
                .split(',')
                .map(|s| {
                    StructureKind::parse(s.trim())
                        .unwrap_or_else(|| panic!("--{key}: unknown structure {s:?}"))
                })
                .collect(),
            None => default.to_vec(),
        }
    }

    /// Whether this invocation asked for telemetry: an explicit
    /// `--telemetry` flag, or implicitly via `--trace-out` (a trace
    /// cannot be produced without the sink installed). Reads both keys.
    pub fn telemetry_requested(&self) -> bool {
        let flag = self.get_flag("telemetry");
        self.trace_out().is_some() || flag
    }

    /// The `--trace-out <file.json>` destination, if given.
    pub fn trace_out(&self) -> Option<&str> {
        self.get("trace-out")
    }

    /// The `--trace-out` epilogue shared by the figure binaries: renders
    /// everything the event rings captured as one chrome://tracing /
    /// Perfetto document and writes it where `--trace-out` pointed.
    /// No-op without the flag. Call once, after the measured runs.
    pub fn write_trace(&self) {
        let Some(path) = self.trace_out() else {
            return;
        };
        let json = ts_telemetry::render_chrome_trace();
        std::fs::write(path, json).expect("write chrome trace");
        println!("# chrome trace written to {path} (load in chrome://tracing or ui.perfetto.dev)");
    }
}

/// The `--json <path>` epilogue every figure binary shares: writes the
/// report's JSON lines to `json` (the binary's hoisted `args.get("json")`)
/// if the flag was given.
pub fn write_json_report(json: Option<&str>, report: &Report) {
    if let Some(path) = json {
        report
            .write_json(std::path::Path::new(path))
            .expect("write json");
        println!("# json written to {path}");
    }
}

/// Default thread ladder for throughput sweeps: powers of two through
/// `2 × hardware threads` (the paper sweeps 1→80 on a 40-core × 2 SMT
/// box; we scale to whatever this machine has).
pub fn thread_ladder() -> Vec<usize> {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut ladder = vec![1usize];
    let mut t = 2;
    while t <= hw * 2 {
        ladder.push(t);
        t *= 2;
    }
    if ladder.last() != Some(&(hw * 2)) {
        ladder.push(hw * 2);
    }
    ladder.dedup();
    ladder
}

/// Oversubscription ladder: 1× to 8× hardware threads. The paper's
/// Figure 4 runs to 200 threads on an 80-thread machine (2.5×); the
/// heavy-traffic goal wants the deep-oversubscription regime too, where
/// descheduled reclaimers dominate latency tails.
pub fn oversub_ladder() -> Vec<usize> {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let steps = [1.0f64, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0];
    let mut out: Vec<usize> = steps
        .iter()
        .map(|s| ((hw as f64) * s).round().max(2.0) as usize)
        .collect();
    out.dedup();
    out
}

/// Machine description for result metadata.
pub fn machine_info() -> String {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "{} hardware threads, {} {}",
        hw,
        std::env::consts::ARCH,
        std::env::consts::OS
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> CliArgs {
        CliArgs::from_args(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn telemetry_is_requested_by_flag_or_trace_out() {
        assert!(!args(&["--quick"]).telemetry_requested());
        assert!(args(&["--telemetry"]).telemetry_requested());
        let a = args(&["--trace-out", "t.json"]);
        assert!(a.telemetry_requested());
        assert_eq!(a.trace_out(), Some("t.json"));
        assert_eq!(args(&[]).trace_out(), None);
    }

    #[test]
    fn parses_key_values_and_flags() {
        let a = args(&["--duration", "2.5", "--quick", "--threads", "1,2,4"]);
        assert_eq!(a.get_f64("duration", 1.0), 2.5);
        assert!(a.get_flag("quick"));
        assert_eq!(a.get_usize_list("threads", &[9]), vec![1, 2, 4]);
        assert_eq!(a.get_usize("missing", 7), 7);
    }

    #[test]
    fn finish_passes_when_every_argument_was_read() {
        let a = args(&["--quick", "--threads", "1,2"]);
        a.get_flag("quick");
        a.get_usize_list("threads", &[4]);
        a.get_usize("repeats", 1); // read but absent: fine
        assert!(a.unread().is_empty());
    }

    #[test]
    fn finish_rejects_a_removed_flag() {
        let a = args(&["--quick", "--ts-sort-threads", "4"]);
        a.get_flag("quick");
        assert_eq!(a.unread(), vec!["--ts-sort-threads"]);
    }

    #[test]
    fn finish_rejects_a_misspelled_flag() {
        let a = args(&["--durration", "2.0", "--quick"]);
        a.get_flag("quick");
        assert_eq!(a.get_f64("duration", 0.25), 0.25);
        assert_eq!(a.unread(), vec!["--durration"]);
    }

    #[test]
    fn finish_rejects_a_stray_positional() {
        let a = args(&["--threads", "2", "stray"]);
        assert_eq!(a.get_usize("threads", 4), 2);
        assert_eq!(a.unread(), vec!["stray"]);
    }

    #[test]
    fn telemetry_request_reads_both_of_its_keys() {
        let a = args(&["--telemetry", "--trace-out", "t.json"]);
        assert!(a.telemetry_requested());
        assert!(a.unread().is_empty());
    }

    #[test]
    fn ladders_are_sane() {
        let l = thread_ladder();
        assert_eq!(l[0], 1);
        assert!(l.windows(2).all(|w| w[0] < w[1]));
        let o = oversub_ladder();
        assert!(o.iter().all(|&t| t >= 2));
    }

    #[test]
    #[should_panic(expected = "is a flag")]
    fn flag_swallowing_a_positional_panics() {
        args(&["--quick", "stray"]).get_flag("quick");
    }

    #[test]
    #[should_panic(expected = "expects a number")]
    fn bad_number_panics() {
        args(&["--n", "abc"]).get_usize("n", 0);
    }
}
