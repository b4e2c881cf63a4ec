//! Output checks that do not depend on the code under test, and a
//! self-test that shows each of them fails on a corrupted output.

use crate::gen;
use crate::stats::Rng;
use gmc_core::{shape_penalty_bound, CompileSession, CompiledChain, DpSolver};
use gmc_ir::{Instance, Shape};
use gmc_linalg::Matrix;
use std::collections::HashMap;

/// `M v` for a column-major `M`.
pub fn matvec(m: &Matrix, v: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; m.rows()];
    for (j, &vj) in v.iter().enumerate() {
        for (yi, mij) in y.iter_mut().zip(m.col(j)) {
            *yi += mij * vj;
        }
    }
    y
}

/// Solve `M x = b` by Gaussian elimination with partial pivoting.
pub fn lu_solve(m: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = m.rows();
    let mut a: Vec<Vec<f64>> = (0..n).map(|i| m.row(i)).collect();
    let mut x = b.to_vec();
    for k in 0..n {
        let p = (k..n)
            .max_by(|&i, &j| a[i][k].abs().total_cmp(&a[j][k].abs()))
            .expect("non-empty pivot column");
        a.swap(k, p);
        x.swap(k, p);
        let (top, below) = a.split_at_mut(k + 1);
        let pivot = &top[k];
        let xk = x[k];
        for (row, xi) in below.iter_mut().zip(&mut x[k + 1..]) {
            let f = row[k] / pivot[k];
            if f != 0.0 {
                for (r, p) in row[k..].iter_mut().zip(&pivot[k..]) {
                    *r -= f * p;
                }
                *xi -= f * xk;
            }
        }
    }
    for k in (0..n).rev() {
        let s: f64 = (k + 1..n).map(|j| a[k][j] * x[j]).sum();
        x[k] = (x[k] - s) / a[k][k];
    }
    x
}

/// The chain applied to `v` right to left: a mat-vec per plain operand,
/// a dense solve per inverted one.
pub fn reference(chain: &[u8], leaves: &[Matrix], v: &[f64]) -> Vec<f64> {
    let mut x = v.to_vec();
    for (&o, m) in chain.iter().zip(leaves).rev() {
        x = if gen::is_inverted(o) {
            lu_solve(m, &x)
        } else {
            matvec(m, &x)
        };
    }
    x
}

/// `X v` equals the reference to a relative tolerance of `1e-9`.
pub fn product(x: &Matrix, chain: &[u8], leaves: &[Matrix], v: &[f64]) -> Result<(), String> {
    let got = matvec(x, v);
    let want = reference(chain, leaves, v);
    if got.len() != want.len() {
        return Err(format!(
            "result has {} rows, expected {}",
            got.len(),
            want.len()
        ));
    }
    let scale = want
        .iter()
        .fold(0.0f64, |m, w| m.max(w.abs()))
        .max(f64::MIN_POSITIVE);
    let err = got
        .iter()
        .zip(&want)
        .fold(0.0f64, |m, (g, w)| m.max((g - w).abs()));
    if err <= 1e-9 * scale {
        Ok(())
    } else {
        Err(format!(
            "X v differs from the reference by {:.3e} (relative)",
            err / scale
        ))
    }
}

/// Theorem 2: the base set has at most `n + 1` variants.
pub fn theorem2(n: usize, set_size: usize) -> Result<(), String> {
    if set_size >= 1 && set_size <= n + 1 {
        Ok(())
    } else {
        Err(format!(
            "{set_size} variants for a chain of {n} (bound n + 1)"
        ))
    }
}

/// Theorem 1: the best variant in the set is within `1 + rho` of optimal.
pub fn theorem1(best: f64, optimal: f64, rho: f64) -> Result<(), String> {
    if best <= (1.0 + rho) * optimal * (1.0 + 1e-12) {
        Ok(())
    } else {
        Err(format!(
            "best-in-set {best} exceeds (1 + {rho}) x optimum {optimal}"
        ))
    }
}

/// The DP optimum equals the brute-force minimum.
pub fn dp_exact(dp: f64, brute: f64) -> Result<(), String> {
    if (dp - brute).abs() <= 1e-12 * brute.abs() {
        Ok(())
    } else {
        Err(format!("DP optimum {dp} != brute-force minimum {brute}"))
    }
}

/// Two passes emitted byte-identical code (compared by hash).
pub fn identical(first: &[u64], again: &[u64]) -> Result<(), String> {
    match first.iter().zip(again).position(|(a, b)| a != b) {
        None if first.len() == again.len() => Ok(()),
        None => Err("passes emitted different numbers of chains".into()),
        Some(i) => Err(format!("chain {i} emitted different code on a later pass")),
    }
}

/// A response arrived for an id that is in flight, and only once.
pub fn answered_once<T>(in_flight: &mut HashMap<u64, T>, id: u64) -> Result<T, String> {
    in_flight
        .remove(&id)
        .ok_or_else(|| format!("response for id {id}, which is not in flight"))
}

/// Every request of a pass was answered.
pub fn all_answered<T>(in_flight: &HashMap<u64, T>) -> Result<(), String> {
    if in_flight.is_empty() {
        Ok(())
    } else {
        Err(format!("{} requests were never answered", in_flight.len()))
    }
}

/// A response line reports success.
pub fn response_ok(line: &str) -> Result<(), String> {
    if line.contains("\"ok\":true") {
        Ok(())
    } else {
        Err(format!(
            "failed response: {}",
            line.chars().take(200).collect::<String>()
        ))
    }
}

/// All responses to one source carry the same artifacts.
pub fn same_artifacts(first: u64, again: u64) -> Result<(), String> {
    if first == again {
        Ok(())
    } else {
        Err("two responses to one source carry different artifacts".into())
    }
}

/// Best-in-set ÷ optimum on `count` held-out instances of `chain`,
/// checking Theorems 1 and 2 and, for `n <= 6`, the DP optimum against
/// the brute-force minimum over the full pool. `rho` comes from
/// `shape_penalty_bound` where the pool can be enumerated (`n <= 9`),
/// and is the paper's global 15 otherwise.
pub fn held_out(
    session: &mut CompileSession,
    chain: &[u8],
    shape: &Shape,
    compiled: &CompiledChain,
    rng: &mut Rng,
    count: usize,
) -> Result<Vec<f64>, String> {
    let n = shape.len();
    theorem2(n, compiled.variants().len())?;
    let pool = if n <= 9 {
        session.all_variants(shape).map_err(|e| e.to_string())?
    } else {
        Vec::new()
    };
    let rho = if n <= 9 {
        shape_penalty_bound(&pool).to_f64()
    } else {
        15.0
    };
    let mut solver = DpSolver::new(shape);
    let mut ratios = Vec::with_capacity(count);
    for _ in 0..count {
        let q = Instance::new(gen::sizes(rng, chain, |r| r.range(2, 1000)));
        let optimal = solver.optimal_cost(&q).map_err(|e| e.to_string())?;
        let best = compiled
            .variants()
            .iter()
            .map(|v| v.flops(&q))
            .fold(f64::INFINITY, f64::min);
        theorem1(best, optimal, rho)?;
        if n <= 6 {
            let brute = pool
                .iter()
                .map(|v| v.flops(&q))
                .fold(f64::INFINITY, f64::min);
            dp_exact(optimal, brute)?;
        }
        ratios.push(best / optimal);
    }
    Ok(ratios)
}

fn must_fail(name: &str, outcome: Result<(), String>) -> Result<(), String> {
    match outcome {
        Err(_) => Ok(()),
        Ok(()) => Err(format!(
            "self-test: the {name} check passed a corrupted output"
        )),
    }
}

/// Each check passes on a good output and fails on a corrupted one.
pub fn self_test() -> Result<(), String> {
    let mut rng = Rng::new(7);
    // Product: X built column by column from the reference itself.
    let chain: Vec<u8> = vec![0, 3, 6, 9, 1, 0];
    let q = gen::sizes(&mut rng, &chain, |r| r.range(3, 9));
    let leaves = gen::leaves(&mut rng, &chain, &q);
    let (rows, cols) = (q[0] as usize, q[chain.len()] as usize);
    let columns: Vec<Vec<f64>> = (0..cols)
        .map(|j| {
            let e: Vec<f64> = (0..cols).map(|i| f64::from(u8::from(i == j))).collect();
            reference(&chain, &leaves, &e)
        })
        .collect();
    let mut x = Matrix::from_fn(rows, cols, |i, j| columns[j][i]);
    let v: Vec<f64> = (0..cols).map(|_| rng.signed()).collect();
    product(&x, &chain, &leaves, &v)?;
    let j = (0..cols)
        .max_by(|&a, &b| v[a].abs().total_cmp(&v[b].abs()))
        .unwrap_or(0);
    let scale = x.as_slice().iter().fold(0.0f64, |m, e| m.max(e.abs()));
    x.set(0, j, x.get(0, j) + 1e-3 * scale);
    must_fail("product", product(&x, &chain, &leaves, &v))?;

    theorem2(5, 6)?;
    must_fail("Theorem 2", theorem2(5, 7))?;
    theorem1(3.0, 2.0, 0.5)?;
    must_fail("Theorem 1", theorem1(3.1, 2.0, 0.5))?;
    dp_exact(1e6, 1e6)?;
    must_fail("DP optimum", dp_exact(1e6, 1e6 * (1.0 + 1e-9)))?;
    identical(&[1, 2, 3], &[1, 2, 3])?;
    must_fail("byte-identical code", identical(&[1, 2, 3], &[1, 2, 4]))?;

    let mut in_flight: HashMap<u64, ()> = [(1, ()), (2, ())].into_iter().collect();
    answered_once(&mut in_flight, 1)?;
    must_fail("exactly-once", answered_once(&mut in_flight, 1).map(|_| ()))?;
    must_fail("all answered", all_answered(&in_flight))?;
    response_ok("{\"id\":1,\"ok\":true}")?;
    must_fail(
        "ok",
        response_ok("{\"id\":1,\"ok\":false,\"kind\":\"parse\"}"),
    )?;
    same_artifacts(9, 9)?;
    must_fail("same artifacts", same_artifacts(9, 10))
}
