//! Secret-sharing-based two-party computation with Beaver triples.
//!
//! Implements the SMPC baseline the paper argues against (§I, §II-A):
//! client input and server model are additively shared over `Z_{2^64}`,
//! linear layers use one Beaver multiplication per MAC, and the protocol's
//! communication (bytes + rounds) is tracked in a [`CostLedger`].
//!
//! Both simulated parties live in one process, so multiplications are
//! *executed* (and verified against plaintext in the tests) while the
//! network is *accounted*. The ReLU comparison uses a functionality-level
//! shortcut with garbled-circuit cost accounting (Yao-style 64-bit
//! comparison ≈ 2 KiB + 2 rounds per layer) — see README.md ("Substitutions
//! and calibration") for the substitution note; communication volume, not
//! comparison internals, is what the reproduction measures.

use omg_crypto::rng::ChaChaRng;
use rand::Rng;

use crate::error::{BaselineError, Result};
use crate::network::CostLedger;

/// Bytes each party sends per Beaver multiplication (`d_i`, `e_i`).
pub const BYTES_PER_MULT: u64 = 32;
/// Offline bytes per distributed triple (three shares for two parties).
pub const BYTES_PER_TRIPLE_OFFLINE: u64 = 48;
/// Online bytes per garbled 64-bit comparison (ReLU), per element.
pub const BYTES_PER_RELU: u64 = 2048;
/// Bytes to open one shared value to one party.
pub const BYTES_PER_OPEN: u64 = 16;

/// A vector additively shared between party 0 and party 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedVec {
    s0: Vec<u64>,
    s1: Vec<u64>,
}

impl SharedVec {
    /// Number of shared elements.
    pub fn len(&self) -> usize {
        self.s0.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.s0.is_empty()
    }
}

/// The semi-honest dealer that precomputes Beaver triples (the "trusted
/// third party" of Chameleon-style frameworks, ref \[20\]).
#[derive(Debug)]
pub struct BeaverDealer {
    rng: ChaChaRng,
    budget: Option<u64>,
}

impl BeaverDealer {
    /// Creates a dealer with unlimited triple supply.
    pub fn new(seed: u64) -> Self {
        BeaverDealer {
            rng: ChaChaRng::seed_from_u64(seed ^ 0xBEA7E5),
            budget: None,
        }
    }

    /// Creates a dealer that refuses to issue more than `budget` triples.
    pub fn with_budget(seed: u64, budget: u64) -> Self {
        BeaverDealer {
            rng: ChaChaRng::seed_from_u64(seed ^ 0xBEA7E5),
            budget: Some(budget),
        }
    }

    /// One triple: shares of `a`, `b`, `c = a·b`.
    #[allow(clippy::type_complexity)]
    fn triple(&mut self) -> Result<((u64, u64), (u64, u64), (u64, u64))> {
        if let Some(budget) = &mut self.budget {
            if *budget == 0 {
                return Err(BaselineError::OutOfTriples);
            }
            *budget -= 1;
        }
        let a: u64 = self.rng.gen();
        let b: u64 = self.rng.gen();
        let c = a.wrapping_mul(b);
        let a0: u64 = self.rng.gen();
        let b0: u64 = self.rng.gen();
        let c0: u64 = self.rng.gen();
        Ok((
            (a0, a.wrapping_sub(a0)),
            (b0, b.wrapping_sub(b0)),
            (c0, c.wrapping_sub(c0)),
        ))
    }
}

/// The two-party engine: executes shared arithmetic, charges the ledger.
#[derive(Debug)]
pub struct TwoPartyEngine {
    dealer: BeaverDealer,
    rng: ChaChaRng,
    ledger: CostLedger,
}

impl TwoPartyEngine {
    /// Creates an engine with the given seed.
    pub fn new(seed: u64) -> Self {
        TwoPartyEngine {
            dealer: BeaverDealer::new(seed),
            rng: ChaChaRng::seed_from_u64(seed ^ 0x325043), // "2PC"
            ledger: CostLedger::new(),
        }
    }

    /// The accumulated cost ledger.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Shares a private input vector (the sharing party sends one share to
    /// the other: 8 bytes per element, 1 round for the whole vector).
    pub fn share(&mut self, values: &[i64]) -> SharedVec {
        let mut s0 = Vec::with_capacity(values.len());
        let mut s1 = Vec::with_capacity(values.len());
        for &v in values {
            let r: u64 = self.rng.gen();
            s0.push(r);
            s1.push((v as u64).wrapping_sub(r));
        }
        self.ledger.add_online(8 * values.len() as u64);
        self.ledger.add_round();
        SharedVec { s0, s1 }
    }

    /// Reconstructs a shared vector (each party reveals its share).
    pub fn reconstruct(&mut self, x: &SharedVec) -> Vec<i64> {
        self.ledger.add_online(BYTES_PER_OPEN * x.len() as u64);
        self.ledger.add_round();
        x.s0.iter()
            .zip(&x.s1)
            .map(|(&a, &b)| a.wrapping_add(b) as i64)
            .collect()
    }

    /// Share-local addition.
    pub fn add(&self, x: &SharedVec, y: &SharedVec) -> Result<SharedVec> {
        if x.len() != y.len() {
            return Err(BaselineError::LengthMismatch {
                expected: x.len(),
                got: y.len(),
            });
        }
        Ok(SharedVec {
            s0: x
                .s0
                .iter()
                .zip(&y.s0)
                .map(|(&a, &b)| a.wrapping_add(b))
                .collect(),
            s1: x
                .s1
                .iter()
                .zip(&y.s1)
                .map(|(&a, &b)| a.wrapping_add(b))
                .collect(),
        })
    }

    /// Element-wise Beaver multiplication of two shared vectors; one
    /// communication round for the whole batch.
    ///
    /// # Errors
    ///
    /// [`BaselineError::LengthMismatch`]; [`BaselineError::OutOfTriples`].
    pub fn mul_vec(&mut self, x: &SharedVec, y: &SharedVec) -> Result<SharedVec> {
        if x.len() != y.len() {
            return Err(BaselineError::LengthMismatch {
                expected: x.len(),
                got: y.len(),
            });
        }
        let n = x.len();
        let mut z0 = Vec::with_capacity(n);
        let mut z1 = Vec::with_capacity(n);
        for i in 0..n {
            let ((a0, a1), (b0, b1), (c0, c1)) = self.dealer.triple()?;
            // Parties broadcast d_i = x_i - a_i, e_i = y_i - b_i.
            let d = x.s0[i]
                .wrapping_sub(a0)
                .wrapping_add(x.s1[i].wrapping_sub(a1));
            let e = y.s0[i]
                .wrapping_sub(b0)
                .wrapping_add(y.s1[i].wrapping_sub(b1));
            // z_i = c_i + d·b_i + e·a_i (+ d·e for party 0).
            z0.push(
                c0.wrapping_add(d.wrapping_mul(b0))
                    .wrapping_add(e.wrapping_mul(a0))
                    .wrapping_add(d.wrapping_mul(e)),
            );
            z1.push(
                c1.wrapping_add(d.wrapping_mul(b1))
                    .wrapping_add(e.wrapping_mul(a1)),
            );
        }
        self.ledger.consume_triples(n as u64);
        self.ledger.add_offline(BYTES_PER_TRIPLE_OFFLINE * n as u64);
        self.ledger.add_online(BYTES_PER_MULT * n as u64);
        self.ledger.add_round();
        Ok(SharedVec { s0: z0, s1: z1 })
    }

    /// Secure dot products: for each `(xs, ys)` pair of equal-length shared
    /// gather lists, multiplies element-wise and sums locally. All
    /// multiplications across all dot products share one round.
    ///
    /// # Errors
    ///
    /// Propagates multiplication errors.
    pub fn dot_batch(&mut self, pairs: &[(SharedVec, SharedVec)]) -> Result<SharedVec> {
        let mut out0 = Vec::with_capacity(pairs.len());
        let mut out1 = Vec::with_capacity(pairs.len());
        let mut total_mults = 0u64;
        for (xs, ys) in pairs {
            if xs.len() != ys.len() {
                return Err(BaselineError::LengthMismatch {
                    expected: xs.len(),
                    got: ys.len(),
                });
            }
            let mut acc0 = 0u64;
            let mut acc1 = 0u64;
            for i in 0..xs.len() {
                let ((a0, a1), (b0, b1), (c0, c1)) = self.dealer.triple()?;
                let d = xs.s0[i]
                    .wrapping_sub(a0)
                    .wrapping_add(xs.s1[i].wrapping_sub(a1));
                let e = ys.s0[i]
                    .wrapping_sub(b0)
                    .wrapping_add(ys.s1[i].wrapping_sub(b1));
                acc0 = acc0
                    .wrapping_add(c0)
                    .wrapping_add(d.wrapping_mul(b0))
                    .wrapping_add(e.wrapping_mul(a0))
                    .wrapping_add(d.wrapping_mul(e));
                acc1 = acc1
                    .wrapping_add(c1)
                    .wrapping_add(d.wrapping_mul(b1))
                    .wrapping_add(e.wrapping_mul(a1));
            }
            total_mults += xs.len() as u64;
            out0.push(acc0);
            out1.push(acc1);
        }
        self.ledger.consume_triples(total_mults);
        self.ledger
            .add_offline(BYTES_PER_TRIPLE_OFFLINE * total_mults);
        self.ledger.add_online(BYTES_PER_MULT * total_mults);
        self.ledger.add_round();
        Ok(SharedVec { s0: out0, s1: out1 })
    }

    /// Shared ReLU with garbled-comparison cost accounting (2 rounds per
    /// batch, [`BYTES_PER_RELU`] per element). The comparison result is
    /// computed at functionality level and re-shared.
    pub fn relu(&mut self, x: &SharedVec) -> SharedVec {
        let values: Vec<i64> =
            x.s0.iter()
                .zip(&x.s1)
                .map(|(&a, &b)| a.wrapping_add(b) as i64)
                .collect();
        let mut s0 = Vec::with_capacity(x.len());
        let mut s1 = Vec::with_capacity(x.len());
        for v in values {
            let out = v.max(0) as u64;
            let r: u64 = self.rng.gen();
            s0.push(r);
            s1.push(out.wrapping_sub(r));
        }
        self.ledger.add_online(BYTES_PER_RELU * x.len() as u64);
        self.ledger.add_round();
        self.ledger.add_round();
        SharedVec { s0, s1 }
    }

    /// Gathers elements of a shared vector by index (share-local), using
    /// zero shares for out-of-range (padding) positions.
    pub fn gather(&self, x: &SharedVec, indices: &[Option<usize>]) -> SharedVec {
        let mut s0 = Vec::with_capacity(indices.len());
        let mut s1 = Vec::with_capacity(indices.len());
        for &idx in indices {
            match idx {
                Some(i) => {
                    s0.push(x.s0[i]);
                    s1.push(x.s1[i]);
                }
                None => {
                    s0.push(0);
                    s1.push(0);
                }
            }
        }
        SharedVec { s0, s1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_reconstruct_roundtrip() {
        let mut engine = TwoPartyEngine::new(1);
        let values = vec![0i64, 1, -1, 123_456, -999_999, i64::MAX / 4, i64::MIN / 4];
        let shared = engine.share(&values);
        assert_eq!(engine.reconstruct(&shared), values);
    }

    #[test]
    fn beaver_multiplication_is_correct() {
        let mut engine = TwoPartyEngine::new(2);
        let xs = vec![3i64, -4, 1000, -20_000, 0];
        let ys = vec![7i64, 9, -30, -40, 12345];
        let sx = engine.share(&xs);
        let sy = engine.share(&ys);
        let product = engine.mul_vec(&sx, &sy).unwrap();
        let got = engine.reconstruct(&product);
        let want: Vec<i64> = xs.iter().zip(&ys).map(|(a, b)| a * b).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn dot_batch_matches_plaintext() {
        let mut engine = TwoPartyEngine::new(3);
        let x1 = engine.share(&[1, 2, 3]);
        let w1 = engine.share(&[4, 5, 6]);
        let x2 = engine.share(&[-1, -2]);
        let w2 = engine.share(&[10, 100]);
        let dots = engine.dot_batch(&[(x1, w1), (x2, w2)]).unwrap();
        assert_eq!(engine.reconstruct(&dots), vec![32, -210]);
    }

    #[test]
    fn relu_on_shares() {
        let mut engine = TwoPartyEngine::new(4);
        let x = engine.share(&[5, -5, 0, -1, 100]);
        let y = engine.relu(&x);
        assert_eq!(engine.reconstruct(&y), vec![5, 0, 0, 0, 100]);
    }

    #[test]
    fn add_is_free_and_correct() {
        let mut engine = TwoPartyEngine::new(5);
        let x = engine.share(&[1, 2]);
        let y = engine.share(&[10, -20]);
        let before = *engine.ledger();
        let z = engine.add(&x, &y).unwrap();
        assert_eq!(engine.ledger().online_bytes, before.online_bytes); // local
        assert_eq!(engine.reconstruct(&z), vec![11, -18]);
    }

    #[test]
    fn ledger_accounts_communication() {
        let mut engine = TwoPartyEngine::new(6);
        let x = engine.share(&[1i64; 100]); // 800 bytes, 1 round
        let y = engine.share(&[2i64; 100]);
        let _ = engine.mul_vec(&x, &y).unwrap(); // 3200 bytes, 1 round, 100 triples
        let ledger = engine.ledger();
        assert_eq!(ledger.triples_used, 100);
        assert_eq!(ledger.online_bytes, 800 + 800 + BYTES_PER_MULT * 100);
        assert_eq!(ledger.online_rounds, 3);
        assert_eq!(ledger.offline_bytes, BYTES_PER_TRIPLE_OFFLINE * 100);
    }

    #[test]
    fn triple_budget_exhausts() {
        let mut engine = TwoPartyEngine::new(7);
        engine.dealer = BeaverDealer::with_budget(7, 3);
        let x = engine.share(&[1i64; 4]);
        let y = engine.share(&[1i64; 4]);
        assert!(matches!(
            engine.mul_vec(&x, &y),
            Err(BaselineError::OutOfTriples)
        ));
    }

    #[test]
    fn gather_with_padding() {
        let mut engine = TwoPartyEngine::new(8);
        let x = engine.share(&[10, 20, 30]);
        let g = engine.gather(&x, &[Some(2), None, Some(0)]);
        assert_eq!(engine.reconstruct(&g), vec![30, 0, 10]);
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut engine = TwoPartyEngine::new(9);
        let x = engine.share(&[1, 2]);
        let y = engine.share(&[1, 2, 3]);
        assert!(matches!(
            engine.mul_vec(&x, &y),
            Err(BaselineError::LengthMismatch { .. })
        ));
        assert!(engine.add(&x, &y).is_err());
    }
}
