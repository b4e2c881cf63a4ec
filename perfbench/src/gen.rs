//! Seeded inputs: chains drawn from the paper's ten operand options,
//! their `.gmc` source, size instances and concrete matrices.

use crate::stats::Rng;
use gmc_linalg::Matrix;
use std::collections::HashSet;

/// One of the ten options of Sec. VII-A: `(structure, property, inverted)`.
/// Option 0 is the only rectangular one.
pub const OPTIONS: [(&str, &str, bool); 10] = [
    ("General", "Singular", false),
    ("General", "NonSingular", true),
    ("Symmetric", "SPD", false),
    ("Symmetric", "SPD", true),
    ("LowerTri", "Singular", false),
    ("LowerTri", "NonSingular", false),
    ("LowerTri", "NonSingular", true),
    ("UpperTri", "Singular", false),
    ("UpperTri", "NonSingular", false),
    ("UpperTri", "NonSingular", true),
];

/// A chain as option indices, left to right.
pub type Chain = Vec<u8>;

pub fn is_square(option: u8) -> bool {
    option != 0
}

pub fn is_inverted(option: u8) -> bool {
    OPTIONS[option as usize].2
}

/// The chain as a one-line `.gmc` program.
pub fn source(chain: &[u8]) -> String {
    let mut decls = String::new();
    let mut terms = Vec::with_capacity(chain.len());
    for (i, &o) in chain.iter().enumerate() {
        let (structure, property, inverted) = OPTIONS[o as usize];
        decls.push_str(&format!("Matrix M{i} <{structure}, {property}>; "));
        terms.push(format!("M{i}{}", if inverted { "^-1" } else { "" }));
    }
    format!("{decls}X := {};", terms.join(" * "))
}

/// One option: the rectangular one with probability `rect_prob`, else one
/// of the nine square ones uniformly.
fn draw_option(rng: &mut Rng, rect_prob: f64) -> u8 {
    if rng.unit() < rect_prob {
        0
    } else {
        1 + rng.below(9) as u8
    }
}

/// A chain of length `n` with at least one rectangular operand.
pub fn draw_chain(rng: &mut Rng, n: usize, rect_prob: f64) -> Chain {
    loop {
        let chain: Chain = (0..n).map(|_| draw_option(rng, rect_prob)).collect();
        if chain.iter().any(|&o| !is_square(o)) {
            return chain;
        }
    }
}

/// Distinct chains with the lengths `lengths`, options uniform over the
/// ten (Fig. 5). Every second chain copies a sub-chain of at least two
/// operands from an earlier chain, so the stream shares sub-chains the
/// way related programs do.
pub fn chain_stream(rng: &mut Rng, lengths: &[usize]) -> Vec<Chain> {
    let mut seen: HashSet<Chain> = HashSet::new();
    let mut out: Vec<Chain> = Vec::with_capacity(lengths.len());
    for (i, &n) in lengths.iter().enumerate() {
        let chain = loop {
            let mut chain = draw_chain(rng, n, 0.1);
            if i % 2 == 1 {
                let donor = &out[rng.below(out.len())];
                let room = donor.len().min(n);
                let len = (room / 2 + 1).clamp(2, room);
                let from = rng.below(donor.len() - len + 1);
                let to = rng.below(n - len + 1);
                chain[to..to + len].copy_from_slice(&donor[from..from + len]);
            }
            if chain.iter().any(|&o| !is_square(o)) && !seen.contains(&chain) {
                break chain;
            }
        };
        seen.insert(chain.clone());
        out.push(chain);
    }
    out
}

/// Sizes `q_0..q_n`, equal across every square operand; each free size
/// comes from `draw`.
pub fn sizes(rng: &mut Rng, chain: &[u8], mut draw: impl FnMut(&mut Rng) -> u64) -> Vec<u64> {
    let mut q = vec![draw(rng)];
    for &o in chain {
        let next = if is_square(o) {
            q[q.len() - 1]
        } else {
            draw(rng)
        };
        q.push(next);
    }
    q
}

/// A matrix realizing option `option` with `rows × cols` entries: dense
/// entries in `[-1, 1)`, structure imposed by zeroing or mirroring, and
/// a diagonal of `rows` added where the option is nonsingular, which
/// keeps inverted operands well conditioned.
pub fn matrix(rng: &mut Rng, option: u8, rows: usize, cols: usize) -> Matrix {
    let (structure, property, _) = OPTIONS[option as usize];
    let mut m = Matrix::from_fn(rows, cols, |_, _| rng.signed());
    match structure {
        "Symmetric" => m = Matrix::from_fn(rows, cols, |i, j| m.get(i.min(j), i.max(j))),
        "LowerTri" => m = Matrix::from_fn(rows, cols, |i, j| if j > i { 0.0 } else { m.get(i, j) }),
        "UpperTri" => m = Matrix::from_fn(rows, cols, |i, j| if j < i { 0.0 } else { m.get(i, j) }),
        _ => {}
    }
    if property != "Singular" {
        for d in 0..rows {
            m.set(d, d, m.get(d, d) + rows as f64);
        }
    }
    m
}

/// The chain's operands on sizes `q`.
pub fn leaves(rng: &mut Rng, chain: &[u8], q: &[u64]) -> Vec<Matrix> {
    chain
        .iter()
        .enumerate()
        .map(|(i, &o)| matrix(rng, o, q[i] as usize, q[i + 1] as usize))
        .collect()
}
