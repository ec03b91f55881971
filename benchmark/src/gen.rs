//! Workload inputs, generated from the workload seed.
//!
//! Every generated manifest is a registry manifest with only
//! `[run] base_seed` and `[run] replicates` changed, rendered to TOML:
//! the program receives nothing but that text. Seeds are derived so
//! that no two jobs of one run share a (scenario, seed) pair, which is
//! what keeps every point of a cold job a cache miss.

use pas_scenario::registry;
use pas_server::hash::{hex, Sha256};

/// The six registry scenarios of the `batch` mix.
pub const BATCH_MIX: [&str; 6] = [
    "paper-default",
    "paper-alert",
    "predictor-shootout",
    "gas-leak-city",
    "plume-monitoring",
    "wildfire-front",
];

/// Scenarios of the mix that keep their registry seed. Poisson-disk
/// deployment panics with "region saturated" for about one seed in nine
/// of plume-monitoring's 60-nodes-at-6-m layout (568 of 5000 seeds
/// probed), so reseeding it would fail a third of all runs on that
/// defect rather than measure anything. It runs at its golden-pinned
/// registry seed until deployment can no longer fail.
pub const REGISTRY_SEEDED: [&str; 1] = ["plume-monitoring"];

/// Scenario every served job runs.
pub const SERVED_SCENARIO: &str = "paper-default";

/// Distance between consecutive jobs' base seeds; larger than any
/// replicate count used, so seed ranges never overlap.
const SEED_STRIDE: u64 = 64;

/// Jobs hashed into the recorded digest of an open-ended job sequence.
pub const DIGEST_JOBS: usize = 64;

/// Input sizes of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Replicates of each `batch` scenario (`None` = registry value).
    pub batch_replicates: Option<u64>,
    /// Replicates of each fresh-seed (`dist-cold`) job.
    pub cold_replicates: u64,
    /// Grids in the warm pool.
    pub warm_pool: usize,
    /// Replicates of each warm grid (`None` = registry value).
    pub warm_replicates: Option<u64>,
}

impl Size {
    /// The benchmark's sizes.
    pub const FULL: Size = Size {
        batch_replicates: None,
        cold_replicates: 4,
        warm_pool: 6,
        warm_replicates: None,
    };
    /// Smallest inputs that still take every path, for self-tests.
    pub const TINY: Size = Size {
        batch_replicates: Some(1),
        cold_replicates: 1,
        warm_pool: 2,
        warm_replicates: Some(2),
    };
}

/// SplitMix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Base seed of input stream `stream` for workload seed `seed`. Kept
/// below 2^40 so it fits a TOML integer with room for the stride.
pub fn base_seed(seed: u64, stream: u64) -> u64 {
    mix(seed ^ mix(stream)) >> 24
}

/// A registry manifest with its base seed and replicate count replaced,
/// as TOML.
pub fn manifest_toml(name: &str, base_seed: u64, replicates: Option<u64>) -> String {
    let mut m = registry::builtin(name).expect("scenario is in the registry");
    m.run.base_seed = base_seed;
    if let Some(r) = replicates {
        m.run.replicates = r;
    }
    m.to_toml()
}

/// SHA-256 over length-prefixed texts, as hex.
pub fn digest<'a>(texts: impl IntoIterator<Item = &'a str>) -> String {
    let mut h = Sha256::new();
    for t in texts {
        h.update(&(t.len() as u64).to_be_bytes());
        h.update(t.as_bytes());
    }
    hex(&h.finish())
}

/// The `batch` workload's six manifests.
pub fn batch_manifests(seed: u64, size: Size) -> Vec<String> {
    BATCH_MIX
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let base = match REGISTRY_SEEDED.contains(name) {
                true => {
                    registry::builtin(name)
                        .expect("scenario is in the registry")
                        .run
                        .base_seed
                }
                false => base_seed(seed, 100 + i as u64),
            };
            manifest_toml(name, base, size.batch_replicates)
        })
        .collect()
}

/// One served job's input.
#[derive(Debug, Clone)]
pub struct JobInput {
    /// Position in the job sequence.
    pub index: usize,
    /// Which distinct input this is: the job index for fresh-seed jobs,
    /// the pool grid for warm jobs. References are computed per input.
    pub input: usize,
    /// The manifest the client submits.
    pub toml: String,
}

/// The sequence of jobs the clients submit.
#[derive(Debug, Clone)]
pub enum Jobs {
    /// A fresh base seed per job, so every point misses the cache.
    Fresh {
        /// Base seed of job 0.
        base: u64,
        /// Replicates per job.
        replicates: u64,
    },
    /// Jobs cycle through a pool of full grids already in the cache.
    Pool(Vec<String>),
}

impl Jobs {
    /// The fresh-seed sequence of `dist-cold`.
    pub fn fresh(seed: u64, size: Size) -> Jobs {
        Jobs::Fresh {
            base: base_seed(seed, 1),
            replicates: size.cold_replicates,
        }
    }

    /// The warm pool of `submit-warm`.
    pub fn pool(seed: u64, size: Size) -> Jobs {
        let base = base_seed(seed, 2);
        Jobs::Pool(
            (0..size.warm_pool)
                .map(|g| {
                    manifest_toml(
                        SERVED_SCENARIO,
                        base + g as u64 * SEED_STRIDE,
                        size.warm_replicates,
                    )
                })
                .collect(),
        )
    }

    /// Job `index` of the sequence.
    pub fn job(&self, index: usize) -> JobInput {
        match self {
            Jobs::Fresh { base, replicates } => JobInput {
                index,
                input: index,
                toml: manifest_toml(
                    SERVED_SCENARIO,
                    base + index as u64 * SEED_STRIDE,
                    Some(*replicates),
                ),
            },
            Jobs::Pool(pool) => JobInput {
                index,
                input: index % pool.len(),
                toml: pool[index % pool.len()].clone(),
            },
        }
    }

    /// Digest of the sequence: the whole pool, or the first
    /// [`DIGEST_JOBS`] fresh jobs.
    pub fn digest(&self) -> String {
        match self {
            Jobs::Fresh { .. } => {
                let tomls: Vec<String> = (0..DIGEST_JOBS).map(|i| self.job(i).toml).collect();
                digest(tomls.iter().map(String::as_str))
            }
            Jobs::Pool(pool) => digest(pool.iter().map(String::as_str)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_scenario::Manifest;

    #[test]
    fn generated_manifests_change_only_seed_and_replicates() {
        let reg = registry::builtin("paper-default").unwrap();
        let job = Jobs::fresh(7, Size::FULL).job(3);
        let mut got = Manifest::parse(&job.toml).unwrap();
        assert_eq!(got.run.replicates, 4);
        assert_ne!(got.run.base_seed, reg.run.base_seed);
        got.run.base_seed = reg.run.base_seed;
        got.run.replicates = reg.run.replicates;
        assert_eq!(got.to_toml(), reg.to_toml());
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(
            Jobs::fresh(1, Size::FULL).digest(),
            Jobs::fresh(1, Size::FULL).digest()
        );
        assert_ne!(
            Jobs::fresh(1, Size::FULL).digest(),
            Jobs::fresh(2, Size::FULL).digest()
        );
        assert_eq!(
            batch_manifests(5, Size::FULL),
            batch_manifests(5, Size::FULL)
        );
        assert_ne!(
            Jobs::pool(1, Size::FULL).digest(),
            Jobs::pool(2, Size::FULL).digest()
        );
    }

    #[test]
    fn fresh_jobs_never_share_a_seed() {
        let jobs = Jobs::fresh(9, Size::FULL);
        let seeds = |i| Manifest::parse(&jobs.job(i).toml).unwrap().run;
        let (a, b) = (seeds(0), seeds(1));
        assert!(a.base_seed + a.replicates <= b.base_seed);
        assert!(base_seed(u64::MAX, u64::MAX) < 1 << 40);
    }

    #[test]
    fn pool_jobs_cycle() {
        let jobs = Jobs::pool(3, Size::TINY);
        assert_eq!(jobs.job(0).input, 0);
        assert_eq!(jobs.job(3).input, 1);
        assert_eq!(jobs.job(2).toml, jobs.job(0).toml);
    }
}
