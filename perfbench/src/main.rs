//! The symgmc benchmark: three workloads from one process.
//!
//! ```text
//! perfbench --workload compile|execute|serve --seed N --seconds S --trace 0|1
//!           [--gmcc PATH] [--work DIR] [--cold-setup 0|1]
//! ```
//!
//! `--trace 0` measures the named workload and prints every end-to-end
//! metric; `--trace 1` runs the traced measurement of all three layer
//! groups on the seed's inputs (a third of `--seconds` each) and prints
//! every per-layer metric. `--cold-setup 1` (which the `compile` workload
//! passes to its own child processes) times one cold start of the
//! compiler and prints only its seconds. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md` for the workloads and metric definitions.

mod alloc;
mod check;
mod compile;
mod execute;
mod gen;
mod json;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub gmcc: PathBuf,
    pub work: PathBuf,
    pub cold_setup: bool,
}

/// Operation counts, check failures and metrics of one run.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn error(&mut self, e: impl Into<String>) {
        let e = e.into();
        // One bad output can repeat on every pass; keep the first few.
        if self.errors.len() < 20 {
            self.errors.push(e);
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        gmcc: PathBuf::from(".bench_build/release/gmcc"),
        work: PathBuf::from(".bench_build/perfbench-run"),
        cold_setup: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = Duration::from_secs(number()?.max(1)),
            "--trace" => args.trace = number()? != 0,
            "--gmcc" => args.gmcc = PathBuf::from(&value),
            "--work" => args.work = PathBuf::from(&value),
            "--cold-setup" => args.cold_setup = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["compile", "execute", "serve"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// CPU model, `nproc` and the SIMD rung the selection engine runs on.
fn host() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "host: cpu=\"{cpu}\" nproc={nproc} simd={:?}",
        gmc_core::simd::active_level()
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.cold_setup {
        match compile::cold_setup() {
            Ok(secs) => println!("{secs}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        std::process::exit(1);
    }
    println!("{}", host());
    let mut report = Report::default();
    if let Err(e) = check::self_test() {
        report.error(e);
    }
    let outcome = if args.trace {
        let mut tracer = trace::Tracer::new();
        let budget = args.seconds / 3;
        let group = |name: &str, report: &Report, before: (u64, u64)| {
            println!(
                "traced {name}: attempted={} failed={}",
                report.attempted - before.0,
                report.failed - before.1
            );
            (report.attempted, report.failed)
        };
        compile::trace(&args, budget, &mut report, &mut tracer);
        let counts = group("compile", &report, (0, 0));
        execute::trace(&args, budget, &mut report, &mut tracer)
            .and_then(|()| {
                let counts = group("execute", &report, counts);
                serve::trace(&args, budget, &mut report, &mut tracer)?;
                group("serve", &report, counts);
                Ok(())
            })
            .and_then(|()| {
                let path = args.work.join(format!("spans-seed{}.jsonl", args.seed));
                tracer.write(&path).map_err(|e| e.to_string())?;
                println!("spans: {}", path.display());
                Ok(())
            })
    } else {
        match args.workload.as_str() {
            "compile" => compile::run(&args, &mut report),
            "execute" => execute::run(&args, &mut report),
            _ => serve::run(&args, &mut report),
        }
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    for e in &report.errors {
        eprintln!("check failed: {e}");
    }
    println!(
        "workload {}: attempted={} failed={}",
        args.workload, report.attempted, report.failed
    );
    println!("{}", report.json());
}
