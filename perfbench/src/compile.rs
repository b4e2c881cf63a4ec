//! `compile`: one fresh `CompileSession` per pass over a seeded stream of
//! distinct chains, each read as `.gmc` source, compiled with default
//! options and emitted as Rust and C++.

use crate::stats::{
    cpu_now, fast_passes, fast_setup, fnv, mean, median, setup_due, Rng, Timed,
};
use crate::trace::Tracer;
use crate::{alloc, check, gen, Args, Report};
use gmc_codegen::{emit_cpp_into, emit_rust_into};
use gmc_core::{
    fanning_out_set, select_base_set, CompileOptions, CompileSession, CompiledChain, CostMatrix,
    ParenTree, Stage, StageProfile, Variant,
};
use gmc_ir::grammar::parse_program;
use gmc_ir::InstanceSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Chain lengths of one round: every length from 3 to 11 once. Lengths up
/// to 9 take the enumeration path, 10 and 11 the DP-backed one. An odd
/// number of lengths puts the median chain inside one length group, not
/// on the gap between two (the `n = 7` chains here take a third of the
/// time of the `n = 8` ones).
const ROUND: std::ops::RangeInclusive<usize> = 3..=11;
/// Rounds per pass.
const ROUNDS: usize = 12;
/// The tail percentile. The `n = 9` chains (the largest enumerated pool)
/// are a ninth of the chains and make up the top of the distribution:
/// p90 falls on the edge of that group, p95 inside it.
const TAIL: f64 = 0.95;
/// The fewest chains the reported figures pool, so that p95 has ten
/// chains beyond it.
const TAIL_OPS: usize = 200;
/// Cold set-ups per run, spread over the run.
const SETUP_REPS: usize = 11;
/// `CompileSession` enumerates the whole pool of a chain with at most
/// this many variants (capped further by `variant_cap`); past it,
/// `compile` takes the DP-backed fanning-out path. The constant is
/// private to `gmc-core`; the staged run's selection check catches a
/// change to it.
const ENUMERATION_CAP: u128 = 4096;

/// Chain lengths of one pass, in stream order: `ROUNDS` rounds of `ROUND`,
/// so every length occurs equally often and the mix does not depend on
/// the seed.
pub fn lengths() -> Vec<usize> {
    (0..ROUNDS).flat_map(|_| ROUND).collect()
}

/// The seeded stream as `(chain, source)` pairs.
pub fn inputs(seed: u64) -> Vec<(gen::Chain, String)> {
    let mut rng = Rng::new(seed);
    gen::chain_stream(&mut rng, &lengths())
        .into_iter()
        .map(|c| {
            let s = gen::source(&c);
            (c, s)
        })
        .collect()
}

struct Pass {
    /// Wall seconds, for the traced run's comparison with its spans.
    secs: f64,
    /// CPU seconds of the pass and of each chain (see [`cpu_now`]).
    cpu_secs: f64,
    per_chain: Vec<f64>,
    hashes: Vec<u64>,
    code_bytes: usize,
    compiled: Vec<Option<CompiledChain>>,
    failed: u64,
    alloc: alloc::Totals,
    /// The session's own stage profile (`gmc_obs`), for the traced run's
    /// cross-check of the staged timings.
    profile: StageProfile,
}

/// One pass with a fresh session: parse, compile and emit every chain.
fn pass(inputs: &[(gen::Chain, String)], keep: bool) -> Pass {
    let mut per_chain = Vec::with_capacity(inputs.len());
    let mut hashes = Vec::with_capacity(inputs.len());
    let mut compiled = Vec::with_capacity(inputs.len());
    let mut out = String::with_capacity(1 << 20);
    let (mut code_bytes, mut failed) = (0, 0);
    alloc::take();
    let mut profile = StageProfile::new();
    let start = Instant::now();
    let cpu_start = cpu_now();
    alloc::measure(|| {
        let mut session = CompileSession::new();
        for (_, src) in inputs {
            let t = cpu_now();
            let result = session
                .parse(src)
                .map_err(|e| e.to_string())
                .and_then(|(p, _)| session.compile(p.shape()).map_err(|e| e.to_string()));
            if let Ok(chain) = &result {
                out.clear();
                emit_rust_into(&mut out, chain, "chain");
                emit_cpp_into(&mut out, chain, "chain");
            }
            per_chain.push(cpu_now() - t);
            match result {
                Ok(chain) => {
                    hashes.push(fnv(out.as_bytes()));
                    code_bytes += out.len();
                    if keep {
                        compiled.push(Some(chain));
                    }
                }
                Err(e) => {
                    eprintln!("compile: {e}");
                    failed += 1;
                    hashes.push(0);
                    if keep {
                        compiled.push(None);
                    }
                }
            }
        }
        profile = session.take_stage_profile();
    });
    Pass {
        cpu_secs: cpu_now() - cpu_start,
        secs: start.elapsed().as_secs_f64(),
        per_chain,
        hashes,
        code_bytes,
        compiled,
        failed,
        alloc: alloc::take(),
        profile,
    }
}

/// Theorem checks on the compiled sets; returns the held-out ratios.
fn quality(
    seed: u64,
    inputs: &[(gen::Chain, String)],
    compiled: &[Option<CompiledChain>],
    report: &mut Report,
) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ 0x4e1d);
    let mut session = CompileSession::new();
    let mut ratios = Vec::new();
    for ((chain, _), c) in inputs.iter().zip(compiled) {
        let Some(c) = c else { continue };
        match check::held_out(&mut session, chain, c.shape(), c, &mut rng, 16) {
            Ok(r) => ratios.extend(r),
            Err(e) => report.error(format!("compile: {e}")),
        }
    }
    ratios
}

/// The program's cold start, run in a fresh process (`--cold-setup 1`):
/// a new session parses, compiles and emits one round, one chain of
/// every length, paying every one-time cost (lazy statics, SIMD
/// detection, first page faults) on the way. Returns its CPU seconds. The
/// round is the same in every run (the stream of seed 0): one n = 9
/// chain takes 20 to 75 ms depending on its operands, so a seeded round
/// would make the set-up time a property of the seed.
pub fn cold_setup() -> Result<f64, String> {
    let inputs = inputs(0);
    let round = &inputs[..ROUND.count()];
    let mut out = String::new();
    let start = cpu_now();
    let mut session = CompileSession::new();
    for (_, src) in round {
        let (program, _) = session.parse(src).map_err(|e| e.to_string())?;
        let chain = session
            .compile(program.shape())
            .map_err(|e| e.to_string())?;
        out.clear();
        emit_rust_into(&mut out, &chain, "chain");
        emit_cpp_into(&mut out, &chain, "chain");
    }
    Ok(cpu_now() - start)
}

/// One cold set-up in a child process of this benchmark; waits for it.
fn spawn_setup() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", "compile", "--cold-setup", "1"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cold set-up: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(secs) if out.status.success() => Ok(secs),
        _ => Err(format!("cold set-up: {} {}", out.status, text.trim())),
    }
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let inputs = inputs(args.seed);
    let mut setups = vec![spawn_setup()?];
    // The first pass warms this process up and keeps the compiled sets
    // for the checks; it is not timed.
    let warm = pass(&inputs, true);
    report.ops(inputs.len() as u64, warm.failed);
    let (mut passes, mut peak) = (Vec::new(), 0);
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < args.seconds {
        if setup_due(setups.len(), SETUP_REPS, start.elapsed(), args.seconds) {
            setups.push(spawn_setup()?);
            continue;
        }
        let p = pass(&inputs, false);
        report.ops(inputs.len() as u64, p.failed);
        if let Err(e) = check::identical(&warm.hashes, &p.hashes) {
            report.error(format!("compile: {e}"));
        }
        peak = peak.max(p.alloc.peak_bytes);
        passes.push(Timed {
            secs: p.cpu_secs,
            latencies: p.per_chain,
        });
    }
    while setups.len() < SETUP_REPS {
        setups.push(spawn_setup()?);
    }
    let ratios = quality(args.seed, &inputs, &warm.compiled, report);

    let fast = fast_passes("compile", &passes, TAIL_OPS, TAIL);
    report.metric("setup_s", fast_setup("compile", &setups), "s");
    report.metric("throughput_ops_s", fast.rate, "1/s");
    report.metric("latency_p50_ms", fast.p50_ms, "ms");
    report.metric("latency_tail_ms", fast.tail_ms, "ms");
    report.metric("peak_mem_mb", peak as f64 / (1 << 20) as f64, "MiB");
    report.metric("flop_ratio_mean", mean(&ratios), "ratio");
    report.metric(
        "code_kb",
        warm.code_bytes as f64 / inputs.len() as f64 / 1024.0,
        "KiB",
    );
    Ok(())
}

/// Counts gathered over the traced passes, and the cost matrix the DP
/// path fills, reused from chain to chain as the session reuses its own.
#[derive(Default)]
struct Staged {
    variants: usize,
    dp_chains: usize,
    frag_hits: u64,
    frag_lookups: u64,
    allocs: u64,
    matrix: CostMatrix,
}

/// Compile one chain stage by stage through the public functions, the
/// way `CompileSession::compile` does it with default options.
fn staged_chain(
    session: &mut CompileSession,
    tracer: &mut Tracer,
    src: &str,
    req: u64,
    out: &mut String,
    acc: &mut Staged,
) -> Result<Vec<ParenTree>, String> {
    let options = CompileOptions::default();
    let program = tracer
        .span("parse", req, || alloc::measure(|| parse_program(src)))
        .map_err(|e| e.to_string())?;
    let shape = program.shape().clone();
    let training = tracer.span("sample", req, || {
        alloc::measure(|| {
            let mut rng = StdRng::seed_from_u64(options.seed);
            InstanceSampler::new(&shape, options.size_lo, options.size_hi)
                .sample_many(&mut rng, options.training_instances.max(1))
        })
    });
    let jobs = session.jobs();
    let cap = ENUMERATION_CAP.min(u128::from(session.variant_cap()));
    let base = if ParenTree::count(shape.len()) <= cap {
        let pool = tracer
            .span("enumerate", req, || {
                alloc::measure(|| session.all_variants(&shape))
            })
            .map_err(|e| e.to_string())?;
        tracer.span("select", req, || {
            alloc::measure(|| {
                let matrix = session.cost_matrix(&pool, &training);
                select_base_set(&shape, &training, matrix.optimal())
            })
        })
    } else {
        acc.dp_chains += 1;
        let pool: Vec<Variant> = tracer
            .span("enumerate", req, || {
                alloc::measure(|| fanning_out_set(&shape))
            })
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        let optimal = tracer
            .span("dp", req, || {
                alloc::measure(|| {
                    let solver = session.solver(&shape);
                    training
                        .iter()
                        .map(|q| solver.optimal_cost(q))
                        .collect::<Result<Vec<f64>, _>>()
                })
            })
            .map_err(|e| e.to_string())?;
        tracer.span("select", req, || {
            alloc::measure(|| {
                let matrix = &mut acc.matrix;
                matrix.fill_flops_with_optimal(&pool, &training, optimal, jobs);
                select_base_set(&shape, &training, matrix.optimal())
            })
        })
    }
    .map_err(|e| e.to_string())?;
    acc.variants += base.variants.len();
    let parens = base.variants.iter().map(|v| v.paren().clone()).collect();
    let chain = CompiledChain::from_variants(shape, base.variants);
    tracer.span("emit", req, || {
        alloc::measure(|| {
            out.clear();
            emit_rust_into(out, &chain, "chain");
            emit_cpp_into(out, &chain, "chain");
        })
    });
    Ok(parens)
}

/// The traced run: staged passes alternate with untraced ones, so the
/// stage sum can be reconciled with the end-to-end time and the tracing
/// overhead measured, in one process.
pub fn trace(args: &Args, budget: Duration, report: &mut Report, tracer: &mut Tracer) {
    let inputs = inputs(args.seed);
    let setup = pass(&inputs, true);
    report.ops(inputs.len() as u64, setup.failed);
    let ratios = quality(args.seed, &inputs, &setup.compiled, report);

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut library = StageProfile::new();
    let mut acc = Staged::default();
    let mut out = String::with_capacity(1 << 20);
    let mut req = 0u64;
    let start = Instant::now();
    while traced.is_empty() || start.elapsed() < budget {
        let p = pass(&inputs, false);
        report.ops(inputs.len() as u64, p.failed);
        untraced.push(p.secs);
        library.merge(&p.profile);

        alloc::take();
        let t = Instant::now();
        let mut session = CompileSession::new();
        let mut sets = Vec::with_capacity(inputs.len());
        let mut failed = 0;
        for (_, src) in &inputs {
            let id = tracer.open("chain", req);
            match staged_chain(&mut session, tracer, src, req, &mut out, &mut acc) {
                Ok(parens) => sets.push(Some(parens)),
                Err(e) => {
                    eprintln!("compile: {e}");
                    failed += 1;
                    sets.push(None);
                }
            }
            tracer.close(id);
            req += 1;
        }
        traced.push(t.elapsed().as_secs_f64());
        report.ops(inputs.len() as u64, failed);
        let frags = session.fragment_cache_stats();
        acc.frag_hits += frags.hits;
        acc.frag_lookups += frags.hits + frags.misses;
        acc.allocs += alloc::take().count;
        if traced.len() == 1 {
            // The staged path selects exactly what `compile` selects.
            for (set, compiled) in sets.iter().zip(&setup.compiled) {
                let want = compiled
                    .as_ref()
                    .map(|c| c.variants().iter().map(|v| v.paren().clone()).collect());
                if *set != want {
                    report.error("compile: staged selection differs from CompileSession::compile");
                }
            }
        }
    }

    let passes = traced.len() as f64;
    let chains = inputs.len() as f64 * passes;
    let totals = tracer.totals();
    let stage = |name: &str| totals.get(name).map_or(0.0, |t| t.self_s);
    let stages = ["parse", "sample", "enumerate", "dp", "select", "emit"];
    let stage_sum: f64 = stages.iter().map(|s| stage(s)).sum::<f64>() / passes;
    let e2e = median(&untraced);
    // The same three stages as `compile` times them itself (its
    // `gmc_obs` stage profile over the untraced passes), per pass.
    let own = [Stage::Enumerate, Stage::Dp, Stage::Select]
        .iter()
        .map(|&s| library.stage_us(s) as f64 * 1e-6)
        .sum::<f64>()
        / untraced.len() as f64;
    let staged = (stage("enumerate") + stage("dp") + stage("select")) / passes;
    report.metric(
        "compile.parse_us",
        stage("parse") / chains * 1e6,
        "us/chain",
    );
    report.metric(
        "compile.sample_ms",
        stage("sample") / chains * 1e3,
        "ms/chain",
    );
    report.metric(
        "compile.enumerate_ms",
        stage("enumerate") / chains * 1e3,
        "ms/chain",
    );
    report.metric(
        "compile.dp_ms",
        stage("dp") / (acc.dp_chains as f64).max(1.0) * 1e3,
        "ms/chain",
    );
    report.metric(
        "compile.select_ms",
        stage("select") / chains * 1e3,
        "ms/chain",
    );
    report.metric("compile.emit_us", stage("emit") / chains * 1e6, "us/chain");
    report.metric(
        "compile.frag_hit_rate",
        acc.frag_hits as f64 / (acc.frag_lookups as f64).max(1.0),
        "ratio",
    );
    report.metric(
        "compile.variants_per_chain",
        acc.variants as f64 / chains,
        "count",
    );
    report.metric(
        "compile.flop_ratio_max",
        ratios.iter().copied().fold(0.0, f64::max),
        "ratio",
    );
    report.metric(
        "compile.allocs_per_chain",
        acc.allocs as f64 / chains,
        "count",
    );
    report.metric(
        "compile.unattributed_pct",
        (e2e - stage_sum) / e2e * 100.0,
        "%",
    );
    report.metric("compile.profile_gap_pct", (staged - own) / own * 100.0, "%");
    report.metric(
        "compile.trace_overhead_pct",
        (median(&traced) - e2e) / e2e * 100.0,
        "%",
    );
}
