//! One-call city dataset generation.

use crate::city::{City, CityConfig};
use crate::crowd::{generate_mlab_chunked, generate_ookla_chunked};
use crate::mba::generate_mba_chunked;
use crate::par;
use crate::population::{mlab_tier_weights, tier_weights, Population};
use rand::rngs::StdRng;
use rand::SeedableRng;
use st_speedtest::Measurement;

/// A complete generated dataset for one city: the two crowdsourced
/// campaigns plus the matching state's MBA panel.
#[derive(Debug, Clone)]
pub struct CityDataset {
    /// The configuration used.
    pub config: CityConfig,
    /// The Ookla subscriber population.
    pub population: Population,
    /// Ookla measurements (all platforms).
    pub ookla: Vec<Measurement>,
    /// M-Lab NDT measurements (paired download+upload).
    pub mlab: Vec<Measurement>,
    /// MBA panel measurements (with ground truth).
    pub mba: Vec<Measurement>,
}

impl CityDataset {
    /// Generate the dataset for `city` at `scale` of the paper's sizes,
    /// deterministically from `seed`.
    pub fn generate(city: City, scale: f64, seed: u64) -> Self {
        Self::generate_with_parallelism(city, scale, seed, 1)
    }

    /// Like [`CityDataset::generate`], fanning each campaign's per-test
    /// loop out over up to `parallelism` worker threads.
    ///
    /// The chunked scheme of [`crate::par`] is canonical at every
    /// parallelism level: the output is identical for `parallelism` 1
    /// and N given the same `(city, scale, seed)`.
    pub fn generate_with_parallelism(
        city: City,
        scale: f64,
        seed: u64,
        parallelism: usize,
    ) -> Self {
        let config = CityConfig::at_scale(city, scale);
        let master = seed ^ (city.index() as u64) << 32;

        // Populations are cheap relative to the campaigns; they draw
        // sequentially from their own sub-stream.
        let mut rng = StdRng::seed_from_u64(par::stream_seed(master, par::tags::POPULATION));

        // Population sized so the mean tests/user matches the paper's
        // ~1.3 native tests per user per year, bounded for tiny scales.
        let n_users = (config.ookla_tests / 3).clamp(50, 200_000);
        let tech = |tier: usize| crate::catalogs::technology_for(city, tier);
        let population = Population::generate_with_technology(
            &config.catalog,
            &tier_weights(city),
            n_users,
            tech,
            &mut rng,
        );
        let n_mlab_users = (config.mlab_tests / 3).clamp(50, 200_000);
        let mlab_population = Population::generate_with_technology(
            &config.catalog,
            &mlab_tier_weights(city),
            n_mlab_users,
            tech,
            &mut rng,
        );

        let ookla = generate_ookla_chunked(
            &config,
            &population,
            par::stream_seed(master, par::tags::OOKLA),
            parallelism,
        );
        let mlab = generate_mlab_chunked(
            &config,
            &mlab_population,
            par::stream_seed(master, par::tags::MLAB),
            parallelism,
        );
        let mba =
            generate_mba_chunked(&config, par::stream_seed(master, par::tags::MBA), parallelism);

        CityDataset { config, population, ookla, mlab, mba }
    }

    /// All crowdsourced measurements (Ookla + M-Lab).
    pub fn crowdsourced(&self) -> Vec<&Measurement> {
        self.ookla.iter().chain(self.mlab.iter()).collect()
    }

    /// Record how many measurements each scenario stream generated, as
    /// `datagen.records{campaign,city}` counters, a
    /// `datagen.users{city}` population gauge, and a
    /// `datagen.down_mbps{campaign,city}` download-throughput histogram
    /// whose bucket-interpolated p50/p90/p99 surface in the report's
    /// `## Metrics` section (deterministic class, DESIGN.md §13). Pure
    /// post-generation read — calling it never changes the dataset.
    pub fn observe(&self, reg: &st_obs::Registry) {
        if !reg.is_enabled() {
            return;
        }
        // Decades-ish edges spanning dial-up to multi-gigabit fiber.
        const DOWN_MBPS_BOUNDS: &[f64] =
            &[1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0];
        let city = self.config.city.label();
        for (campaign, records) in
            [("ookla", &self.ookla), ("mlab", &self.mlab), ("mba", &self.mba)]
        {
            let labels = [("campaign", campaign), ("city", city)];
            reg.add("datagen.records", &labels, records.len() as u64);
            for m in records.iter() {
                reg.observe("datagen.down_mbps", &labels, m.down_mbps, DOWN_MBPS_BOUNDS);
            }
        }
        reg.set_gauge("datagen.users", &[("city", city)], self.population.users().len() as f64);
    }

    /// Record ground-truth corruption counts returned by
    /// [`CityDataset::inject_dirty`] as
    /// `datagen.corrupted{campaign,city,kind}` counters.
    pub fn observe_dirty(&self, reg: &st_obs::Registry, labels: &[Vec<crate::faults::DirtyLabel>]) {
        if !reg.is_enabled() {
            return;
        }
        let city = self.config.city.label();
        for (campaign, campaign_labels) in ["ookla", "mlab", "mba"].iter().zip(labels) {
            for kind in crate::faults::DirtyKind::all() {
                let n = campaign_labels.iter().filter(|l| l.kind == kind).count() as u64;
                if n > 0 {
                    reg.add(
                        "datagen.corrupted",
                        &[("campaign", campaign), ("city", city), ("kind", kind.label())],
                        n,
                    );
                }
            }
        }
    }

    /// Corrupt all three campaigns in place with `scenario`, seeded by
    /// `seed` through the same per-stream derivation as generation, so
    /// the corruption is byte-identical at every parallelism level.
    /// Returns the ground-truth labels per campaign, in (Ookla, M-Lab,
    /// MBA) order.
    pub fn inject_dirty(
        &mut self,
        scenario: &crate::faults::DirtyScenario,
        seed: u64,
    ) -> [Vec<crate::faults::DirtyLabel>; 3] {
        let master = seed ^ (self.config.city.index() as u64) << 32;
        [
            crate::faults::inject_dirty(
                &mut self.ookla,
                scenario,
                par::stream_seed(master, par::tags::DIRTY_OOKLA),
            ),
            crate::faults::inject_dirty(
                &mut self.mlab,
                scenario,
                par::stream_seed(master, par::tags::DIRTY_MLAB),
            ),
            crate::faults::inject_dirty(
                &mut self.mba,
                scenario,
                par::stream_seed(master, par::tags::DIRTY_MBA),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_produces_all_three_datasets() {
        let ds = CityDataset::generate(City::A, 0.002, 7);
        assert!(ds.ookla.len() >= 100);
        assert!(!ds.mlab.is_empty());
        assert!(ds.mba.len() >= 100);
        assert_eq!(ds.crowdsourced().len(), ds.ookla.len() + ds.mlab.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CityDataset::generate(City::B, 0.001, 42);
        let b = CityDataset::generate(City::B, 0.001, 42);
        assert_eq!(a.ookla, b.ookla);
        assert_eq!(a.mlab, b.mlab);
        assert_eq!(a.mba, b.mba);
    }

    #[test]
    fn parallel_generation_matches_sequential() {
        let seq = CityDataset::generate_with_parallelism(City::C, 0.001, 11, 1);
        let par = CityDataset::generate_with_parallelism(City::C, 0.001, 11, 4);
        assert_eq!(seq.ookla, par.ookla);
        assert_eq!(seq.mlab, par.mlab);
        assert_eq!(seq.mba, par.mba);
        // And the default entry point is the parallelism-1 stream.
        let default = CityDataset::generate(City::C, 0.001, 11);
        assert_eq!(default.ookla, par.ookla);
    }

    #[test]
    fn different_seeds_differ() {
        let a = CityDataset::generate(City::A, 0.001, 1);
        let b = CityDataset::generate(City::A, 0.001, 2);
        assert_ne!(a.ookla, b.ookla);
    }
}
