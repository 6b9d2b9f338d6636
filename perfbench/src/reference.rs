//! Recorded reference outcomes at the measured size.
//!
//! Simulated results repeat exactly, so a run's outcome is compared with
//! the one recorded here for the default seed and for one held-out seed
//! (a seed not used while tuning the benchmark). Other seeds are checked
//! against an independent computation only (see each workload's
//! `verify`). `paper-sweep` is checked against the committed goldens
//! instead.

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of benchmark tuning.
pub const HELD_OUT_SEED: u64 = 20_201_017;

/// `(workload, seed, requests per simulation, outcome)`.
pub const RECORDED: &[(&str, u64, usize, &str)] = &[
    (
        "chip-bursty",
        DEFAULT_SEED,
        5_000,
        "sims=40 requests=200000 fingerprint=0x6734bcd5af75036c",
    ),
    (
        "chip-bursty",
        HELD_OUT_SEED,
        5_000,
        "sims=40 requests=200000 fingerprint=0x9753d0e8be227c24",
    ),
    (
        "fleet-stream",
        DEFAULT_SEED,
        25_000,
        "sims=40 requests=1000000 fingerprint=0x253b81400e72bb09",
    ),
    (
        "fleet-stream",
        HELD_OUT_SEED,
        25_000,
        "sims=40 requests=1000000 fingerprint=0xe31b53b874446f97",
    ),
];

/// Compares `outcome` with the recorded one for this workload, seed and
/// size, if any.
pub fn check(workload: &str, seed: u64, requests: usize, outcome: &str) -> Result<(), String> {
    match RECORDED
        .iter()
        .find(|r| r.0 == workload && r.1 == seed && r.2 == requests)
    {
        Some(r) if r.3 != outcome => Err(format!(
            "{workload} seed {seed}: {outcome} != recorded {}",
            r.3
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_outcomes_are_enforced() {
        let (w, seed, n, outcome) = RECORDED[0];
        assert!(check(w, seed, n, outcome).is_ok());
        assert!(check(w, seed, n, "sims=40 requests=200000 fingerprint=0x0").is_err());
        // Unrecorded seeds and sizes rely on the independent path alone.
        assert!(check(w, seed + 1, n, "anything").is_ok());
        assert!(check(w, seed, n + 1, "anything").is_ok());
    }
}
