//! Wall-clock benchmark of the Auric stack on the medium fleet
//! (28 markets, 6,956 carriers, 38,304 X2 pairs).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet_build|serve_hot_ingest> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every timed call goes through the public API of `netgen`, `model`,
//! `core`, `kpi` and `serve`. A run checks its outputs (see each
//! workload's gate), prints an info line, then one JSON result line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics and
//! the tracing overhead with `--trace 1`. Traced runs also write their
//! spans to `.bench_out/`. A gate violation exits 1; bad arguments or a
//! debug build exit 2.

mod affinity;
mod fleet;
mod report;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use auric_netgen::{NetScale, TuningKnobs};
use report::Level;
use trace::Tracer;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 2] = ["fleet_build", "serve_hot_ingest"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The medium fleet every workload runs on. The seed never changes the
/// fleet, only what the workload does with it, so runs with different
/// seeds time the same amount of model work.
pub fn medium() -> (NetScale, TuningKnobs) {
    (NetScale::medium(), TuningKnobs::default())
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let valid = WORKLOADS.contains(&args.workload.as_str())
        && args.seconds.is_finite()
        && args.seconds > 0.0;
    if !valid {
        usage();
    }
    args
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Page faults and context switches of the whole process so far, from
/// `/proc/self/stat` and `/proc/self/status`, as a JSON object.
fn process_counters() -> String {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; minflt and majflt
    // are fields 10 and 12 of the whole line.
    let rest: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, r)| r.split_whitespace().collect());
    let field = |i: usize| rest.get(i - 3).copied().unwrap_or("null");
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .map_or("null".to_string(), |v| v.trim().to_string())
    };
    format!(
        "{{\"minor_faults\": {}, \"major_faults\": {}, \"voluntary_switches\": {}, \
         \"involuntary_switches\": {}}}",
        field(10),
        field(12),
        line("voluntary_ctxt_switches:"),
        line("nonvoluntary_ctxt_switches:")
    )
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to time a debug build; build with --release");
        std::process::exit(2);
    }
    let args = parse_args();
    let tracer = Tracer::new(args.trace);
    let mut report = match args.workload.as_str() {
        "fleet_build" => fleet::run(&args, &tracer),
        _ => serving::run(&args, &tracer),
    };

    let (scale, _) = medium();
    report.info("workload", report::quote(&args.workload));
    report.info("seed", args.seed);
    report.info("seconds", args.seconds);
    report.info("trace", u8::from(args.trace));
    report.info(
        "scale",
        format!(
            "{{\"name\": \"medium\", \"markets\": {}, \"enbs_per_market\": {}, \"fleet_seed\": {}}}",
            scale.n_markets, scale.enbs_per_market, scale.seed
        ),
    );
    report.info(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    report.info("process", process_counters());
    if args.trace {
        let path = PathBuf::from(".bench_out")
            .join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
        match tracer.write_tsv(&path) {
            Ok(()) => report.info("trace_file", report::quote(&path.display().to_string())),
            Err(e) => report
                .errors
                .push(format!("writing {}: {e}", path.display())),
        }
        report.info("trace_spans", tracer.n_spans());
    }

    let level = if args.trace {
        Level::Layer
    } else {
        Level::EndToEnd
    };
    let result = report.result_line(level);
    println!("{}", report.info_line());
    println!("{result}");
    if !report.errors.is_empty() {
        for e in &report.errors {
            eprintln!("perfbench: CHECK FAILED: {e}");
        }
        std::process::exit(1);
    }
}
