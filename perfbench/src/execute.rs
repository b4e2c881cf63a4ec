//! `execute`: 32 chains of length 7 drawn as in Fig. 6 are compiled
//! in the set-up; the timed phase evaluates a seeded stream of size
//! instances through `CompileSession::evaluate` on matrices generated
//! before timing starts.

use crate::stats::{cpu_now, fast_passes, fast_setup, mean, median, setup_due, Rng, Timed};
use crate::trace::Tracer;
use crate::{alloc, check, gen, Args, Report};
use gmc_codegen::{emit_cpp_into, emit_rust_into};
use gmc_core::{CompileSession, CompiledChain, DpSolver};
use gmc_kernels::{cost_flops, Kernel};
use gmc_linalg::{GemmWorkspace, Matrix};
use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

const CHAIN_LEN: usize = 7;
const CHAINS: usize = 32;
/// Each chain is evaluated on one instance per base size. The paper's
/// sizes, `[50, 1000]`, are scaled down so that a run evaluates thousands
/// of instances; every free size is its base times a factor in
/// `[0.7, 1.3)`, except on the largest base, where all sizes are equal so
/// that the memory high-water mark does not hinge on one draw. An odd
/// number of bases puts the median evaluation inside the middle base's
/// group rather than on the sparse stretch between two groups, where it
/// moved with the seed's size draws.
const BASES: [u64; 5] = [32, 56, 80, 104, 128];
/// Set-ups per run, spread over the run.
const SETUP_REPS: usize = 15;

struct Op {
    chain: usize,
    leaves: Vec<Matrix>,
    v: Vec<f64>,
}

struct Inputs {
    chains: Vec<gen::Chain>,
    sources: Vec<String>,
    ops: Vec<Op>,
    /// Stream order over `ops`.
    order: Vec<usize>,
}

/// Chains drawn as in Fig. 6, stratified: the operands of the whole set
/// are half the rectangular option and the nine square options equally
/// often, dealt at random into chains, so that the seed changes which
/// chains are built but not the mix of operands they are built from.
fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed ^ 0xe8ec);
    let total = CHAINS * CHAIN_LEN;
    let mut operands: Vec<u8> = (0..total)
        .map(|i| {
            if i < total / 2 {
                0
            } else {
                1 + ((i - total / 2) % 9) as u8
            }
        })
        .collect();
    let chains: Vec<gen::Chain> = loop {
        rng.shuffle(&mut operands);
        let chains: Vec<gen::Chain> = operands.chunks(CHAIN_LEN).map(<[u8]>::to_vec).collect();
        let distinct: HashSet<&gen::Chain> = chains.iter().collect();
        if distinct.len() == CHAINS && chains.iter().all(|c| c.contains(&0)) {
            break chains;
        }
    };
    let mut ops = Vec::new();
    for (ci, c) in chains.iter().enumerate() {
        for (k, &base) in BASES.iter().enumerate() {
            let q = if k + 1 == BASES.len() {
                vec![base; CHAIN_LEN + 1]
            } else {
                gen::sizes(&mut rng, c, |r| {
                    (base as f64 * (0.7 + 0.6 * r.unit())).round() as u64
                })
            };
            let leaves = gen::leaves(&mut rng, c, &q);
            let v = (0..q[CHAIN_LEN]).map(|_| rng.signed()).collect();
            ops.push(Op {
                chain: ci,
                leaves,
                v,
            });
        }
    }
    let mut order: Vec<usize> = (0..ops.len()).collect();
    rng.shuffle(&mut order);
    let sources = chains.iter().map(|c| gen::source(c)).collect();
    Inputs {
        chains,
        sources,
        ops,
        order,
    }
}

/// The set-up: compile the chain set in a fresh session, then evaluate
/// each chain once. Returns (set-up CPU seconds, compile CPU seconds,
/// session, compiled chains).
fn setup(inputs: &Inputs) -> Result<(f64, f64, CompileSession, Vec<CompiledChain>), String> {
    let start = cpu_now();
    let mut session = CompileSession::new();
    let mut chains = Vec::with_capacity(inputs.sources.len());
    for src in &inputs.sources {
        let (program, _) = session.parse(src).map_err(|e| e.to_string())?;
        chains.push(
            session
                .compile(program.shape())
                .map_err(|e| e.to_string())?,
        );
    }
    let compile_s = cpu_now() - start;
    for (ci, chain) in chains.iter().enumerate() {
        let op = inputs
            .ops
            .iter()
            .find(|o| o.chain == ci)
            .expect("every chain has instances");
        session
            .evaluate(chain, &op.leaves)
            .map_err(|e| e.to_string())?;
    }
    Ok((cpu_now() - start, compile_s, session, chains))
}

/// One untraced pass over the stream: per-op CPU seconds, failures, the
/// pass's wall time (for the traced run's comparison with its spans) and
/// its CPU time.
fn pass(
    inputs: &Inputs,
    session: &mut CompileSession,
    chains: &[CompiledChain],
) -> (Vec<f64>, u64, f64, f64) {
    let mut per_op = Vec::with_capacity(inputs.ops.len());
    let mut failed = 0;
    let start = Instant::now();
    let cpu_start = cpu_now();
    for &i in &inputs.order {
        let op = &inputs.ops[i];
        let t = cpu_now();
        let result = alloc::measure(|| session.evaluate(&chains[op.chain], &op.leaves));
        per_op.push(cpu_now() - t);
        if let Err(e) = result {
            eprintln!("execute: {e}");
            failed += 1;
        }
    }
    (
        per_op,
        failed,
        start.elapsed().as_secs_f64(),
        cpu_now() - cpu_start,
    )
}

/// Output checks and the dispatch quality: `X v` against the reference
/// for every op, and dispatched FLOPs ÷ DP optimum.
fn quality(
    inputs: &Inputs,
    session: &mut CompileSession,
    chains: &[CompiledChain],
    report: &mut Report,
) -> Vec<f64> {
    let mut solvers: Vec<DpSolver> = chains.iter().map(|c| DpSolver::new(c.shape())).collect();
    let mut ratios = Vec::with_capacity(inputs.ops.len());
    for op in &inputs.ops {
        let chain = &chains[op.chain];
        match session.evaluate(chain, &op.leaves) {
            Ok(x) => {
                if let Err(e) = check::product(&x, &inputs.chains[op.chain], &op.leaves, &op.v) {
                    report.error(format!("execute: chain {}: {e}", op.chain));
                }
            }
            Err(e) => report.error(format!("execute: {e}")),
        }
        let Ok(q) = chain.instance_of(&op.leaves) else {
            report.error("execute: inconsistent instance");
            continue;
        };
        let (_, cost) = chain.dispatch(&q);
        match solvers[op.chain].optimal_cost(&q) {
            Ok(optimal) => ratios.push(cost / optimal),
            Err(e) => report.error(format!("execute: {e}")),
        }
    }
    ratios
}

/// The median over chains of the heap high-water mark of one evaluation
/// on the largest base, where every size is equal. Measured after the
/// timed passes, so the session's workspaces have reached their size.
fn peak_mb(inputs: &Inputs, session: &mut CompileSession, chains: &[CompiledChain]) -> f64 {
    let peaks: Vec<f64> = inputs
        .ops
        .iter()
        .skip(BASES.len() - 1)
        .step_by(BASES.len())
        .map(|op| {
            alloc::take();
            let _ = alloc::measure(|| session.evaluate(&chains[op.chain], &op.leaves));
            alloc::take().peak_bytes as f64 / (1 << 20) as f64
        })
        .collect();
    median(&peaks)
}

fn code_kb(chains: &[CompiledChain]) -> f64 {
    let mut out = String::new();
    let mut bytes = 0;
    for c in chains {
        out.clear();
        emit_rust_into(&mut out, c, "chain");
        emit_cpp_into(&mut out, c, "chain");
        bytes += out.len();
    }
    bytes as f64 / chains.len() as f64 / 1024.0
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let inputs = inputs(args.seed);
    let (first, _, mut session, chains) = setup(&inputs)?;
    let mut setups = vec![first];
    let n_ops = inputs.ops.len();
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < args.seconds {
        if setup_due(setups.len(), SETUP_REPS, start.elapsed(), args.seconds) {
            setups.push(setup(&inputs)?.0);
            continue;
        }
        let (per_op, failed, _, cpu_secs) = pass(&inputs, &mut session, &chains);
        report.ops(n_ops as u64, failed);
        passes.push(Timed {
            secs: cpu_secs,
            latencies: per_op,
        });
    }
    while setups.len() < SETUP_REPS {
        setups.push(setup(&inputs)?.0);
    }
    let ratios = quality(&inputs, &mut session, &chains, report);

    let fast = fast_passes("execute", &passes, 0, 0.9);
    report.metric("setup_s", fast_setup("execute", &setups), "s");
    report.metric("throughput_ops_s", fast.rate, "1/s");
    report.metric("latency_p50_ms", fast.p50_ms, "ms");
    report.metric("latency_tail_ms", fast.tail_ms, "ms");
    report.metric(
        "peak_mem_mb",
        peak_mb(&inputs, &mut session, &chains),
        "MiB",
    );
    report.metric("flop_ratio_mean", mean(&ratios), "ratio");
    report.metric("code_kb", code_kb(&chains), "KiB");
    Ok(())
}

/// Kernels whose time and rate the traced run reports. The ten operand
/// options of the paper never produce a symmetric coefficient that is not
/// SPD, so the `SY..SV` solves do not occur, and no traced stream here
/// called `SYSYMM`; a kernel a seed's stream does not call reads 0.
pub const KERNELS: [Kernel; 14] = [
    Kernel::Gemm,
    Kernel::Symm,
    Kernel::Trmm,
    Kernel::Trsymm,
    Kernel::Trtrmm,
    Kernel::Gegesv,
    Kernel::Gesysv,
    Kernel::Getrsv,
    Kernel::Pogesv,
    Kernel::Posysv,
    Kernel::Potrsv,
    Kernel::Trsm,
    Kernel::Trsysv,
    Kernel::Trtrsv,
];

#[derive(Default, Clone, Copy)]
struct KernelTotals {
    secs: f64,
    flops: f64,
}

pub fn trace(
    args: &Args,
    budget: Duration,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let inputs = inputs(args.seed);
    let mut compiles = Vec::new();
    let (_, compile_s, mut session, chains) = setup(&inputs)?;
    compiles.push(compile_s);
    for _ in 0..2 {
        compiles.push(setup(&inputs)?.1);
    }
    let compile_s = median(&compiles);
    let n_ops = inputs.ops.len();
    let mut ws = GemmWorkspace::default();
    let mut kernels: BTreeMap<Kernel, KernelTotals> = BTreeMap::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut evals, mut alloc_bytes) = (0u64, 0u64);
    let mut req = 0u64;
    let start = Instant::now();
    while traced.is_empty() || start.elapsed() < budget {
        let (_, failed, secs, _) = pass(&inputs, &mut session, &chains);
        report.ops(n_ops as u64, failed);
        untraced.push(secs);

        alloc::take();
        let mut failed = 0;
        let t = Instant::now();
        for &i in &inputs.order {
            let op = &inputs.ops[i];
            let chain = &chains[op.chain];
            let eval = tracer.open("eval", req);
            let dispatched = tracer.span("dispatch", req, || {
                chain
                    .instance_of(&op.leaves)
                    .map(|q| (chain.dispatch(&q).0, q))
            });
            let result = dispatched.map_err(|e| e.to_string()).and_then(|(idx, q)| {
                let variant = &chain.variants()[idx];
                let steps = variant.steps();
                let mut k = 0;
                alloc::measure(|| {
                    variant.execute_observed(&mut ws, &op.leaves, |kernel, d| {
                        let end = Instant::now();
                        tracer.record(kernel.name(), req, end - d, end);
                        let s = &steps[k];
                        let (a, b, c) = s.triplet;
                        let e = kernels.entry(kernel).or_default();
                        e.secs += d.as_secs_f64();
                        e.flops += cost_flops(kernel, s.side, s.cheap, q.q(a), q.q(b), q.q(c));
                        k += 1;
                    })
                })
                .map_err(|e| e.to_string())
            });
            tracer.close(eval);
            if let Err(e) = result {
                eprintln!("execute: {e}");
                failed += 1;
            }
            evals += 1;
            req += 1;
        }
        traced.push(t.elapsed().as_secs_f64());
        report.ops(n_ops as u64, failed);
        alloc_bytes += alloc::take().bytes;
    }

    let passes = traced.len() as f64;
    let totals = tracer.totals();
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_s);
    let kernel_s: f64 = kernels.values().map(|k| k.secs).sum();
    let kernel_flops: f64 = kernels.values().map(|k| k.flops).sum();
    let e2e = median(&untraced);
    report.metric(
        "execute.dispatch_us",
        total("dispatch") / evals as f64 * 1e6,
        "us/eval",
    );
    report.metric(
        "execute.kernel_gflops",
        kernel_flops / kernel_s / 1e9,
        "GFLOP/s",
    );
    for k in KERNELS {
        let t = kernels.get(&k).copied().unwrap_or_default();
        report.metric(
            format!("execute.{}.ms", k.name()),
            t.secs / passes * 1e3,
            "ms/pass",
        );
        let rate = if t.secs > 0.0 {
            t.flops / t.secs / 1e9
        } else {
            0.0
        };
        report.metric(format!("execute.{}.gflops", k.name()), rate, "GFLOP/s");
    }
    report.metric(
        "execute.overhead_pct",
        (total("eval") - kernel_s) / total("eval") * 100.0,
        "%",
    );
    report.metric(
        "execute.alloc_mb_per_eval",
        alloc_bytes as f64 / evals as f64 / (1 << 20) as f64,
        "MiB",
    );
    report.metric("execute.setup_compile_ms", compile_s * 1e3, "ms");
    let stage_sum = (total("dispatch") + kernel_s) / passes;
    report.metric(
        "execute.unattributed_pct",
        (e2e - stage_sum) / e2e * 100.0,
        "%",
    );
    report.metric(
        "execute.trace_overhead_pct",
        (median(&traced) - e2e) / e2e * 100.0,
        "%",
    );
    Ok(())
}
