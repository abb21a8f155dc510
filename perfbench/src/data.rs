//! Seeded inputs and the result comparisons every correctness check uses.
//!
//! All inputs come from `progxe_datagen` (the generator behind the paper's
//! experiments and `progxe_server::synthetic`), seeded from the run's
//! `--seed` only. A run spreads its operations over several datasets so
//! that one unlucky dataset cannot move a whole run's medians.

use progxe_core::source::SourceData;
use progxe_core::stats::ResultTuple;
use progxe_datagen::{Distribution, WorkloadSpec};
use progxe_query::{Catalog, TableSchema};
use progxe_server::WireTuple;

/// The `k`-th dataset seed derived from a run seed (SplitMix64), so
/// datasets of one run differ and runs with different seeds share none.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((k as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Registers one anti-correlated `rows`-row, `dims`-attribute table pair
/// with join selectivity `sigma` as tables `r_name` and `t_name` (columns
/// `a0…`, join key `k`) — the layout of `progxe_server::synthetic`.
pub fn register_pair(
    cat: &mut Catalog,
    (r_name, t_name): (&str, &str),
    rows: usize,
    dims: usize,
    sigma: f64,
    seed: u64,
) {
    let workload = WorkloadSpec::new(rows, dims, Distribution::AntiCorrelated, sigma)
        .with_seed(seed)
        .generate();
    let columns: Vec<String> = (0..dims).map(|d| format!("a{d}")).collect();
    for (name, rel) in [(r_name, &workload.r), (t_name, &workload.t)] {
        let rows: Vec<(&[f64], u32)> = (0..rel.len())
            .map(|i| (rel.attrs_of(i), rel.join_key_of(i)))
            .collect();
        cat.register(
            TableSchema::new(name, columns.clone(), "k"),
            SourceData::from_rows(dims, &rows),
        );
    }
}

/// The canonical Pareto query (`progxe_server::synthetic::query_sql`)
/// over table pair `R{pair}`/`T{pair}`.
pub fn pareto_sql(dims: usize, pair: usize) -> String {
    progxe_server::synthetic::query_sql(dims)
        .replace("FROM R R, T T", &format!("FROM R{pair} R, T{pair} T"))
}

/// The weight constraint the flexible-skyline workload adds.
pub const FLEX_WEIGHTS: &str = " WITH WEIGHTS (w0, w1, w2) CONSTRAIN w0 >= 0.2 AND w0 <= 0.6";

/// One result tuple in comparable form: row ids and the bit patterns of
/// its output values.
pub type Canon = (u32, u32, Vec<u64>);

/// Canonical sorted form of engine results.
pub fn canon(results: &[ResultTuple]) -> Vec<Canon> {
    sorted(results.iter().map(|t| (t.r_idx, t.t_idx, bits(&t.values))))
}

/// Canonical sorted form of wire results.
pub fn canon_wire(results: &[WireTuple]) -> Vec<Canon> {
    sorted(results.iter().map(|t| (t.r_idx, t.t_idx, bits(&t.values))))
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn sorted(it: impl Iterator<Item = Canon>) -> Vec<Canon> {
    let mut v: Vec<Canon> = it.collect();
    v.sort_unstable();
    v
}

/// `Ok` when two canonical result sets are equal; otherwise a one-line
/// description of the first difference.
pub fn same_set(what: &str, got: &[Canon], want: &[Canon]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let missing = want.iter().find(|t| got.binary_search(t).is_err());
    let extra = got.iter().find(|t| want.binary_search(t).is_err());
    Err(format!(
        "{what}: {} results, reference has {}; first missing {:?}, first extra {:?}",
        got.len(),
        want.len(),
        missing.map(|t| (t.0, t.1)),
        extra.map(|t| (t.0, t.1)),
    ))
}

/// Alters one output value of the first tuple: the hook the package's
/// tests use to prove the correctness checks catch a wrong result.
pub fn corrupt(values: &mut [f64]) {
    if let Some(v) = values.first_mut() {
        *v += 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
    }

    #[test]
    fn pair_sql_names_the_pair() {
        let sql = pareto_sql(2, 3);
        assert!(sql.contains("FROM R3 R, T3 T"), "{sql}");
    }

    #[test]
    fn same_set_reports_differences() {
        let a = vec![(1, 2, vec![3]), (4, 5, vec![6])];
        assert!(same_set("x", &a, &a).is_ok());
        let err = same_set("x", &a[..1], &a).unwrap_err();
        assert!(err.contains("first missing Some((4, 5))"), "{err}");
    }
}
