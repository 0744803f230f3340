//! Ready-made network environments used by the paper's evaluation (§IV).

use bft_sim_core::dist::Dist;

/// The four network environments of Fig. 3, from "fast and stable" to "slow
/// and unstable": `N(250, 50)`, `N(500, 100)`, `N(1000, 300)`,
/// `N(1000, 1000)`.
pub fn fig3_environments() -> [Dist; 4] {
    [
        Dist::normal(250.0, 50.0),
        Dist::normal(500.0, 100.0),
        Dist::normal(1000.0, 300.0),
        Dist::normal(1000.0, 1000.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_environments_are_ordered_by_mean() {
        let envs = fig3_environments();
        let means: Vec<f64> = envs.iter().map(|d| d.mean()).collect();
        assert_eq!(means, vec![250.0, 500.0, 1000.0, 1000.0]);
    }
}
