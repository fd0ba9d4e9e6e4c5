//! The benchmark's workloads and the detection events they feed the fleet.
//!
//! Why each workload exists, and which layer it should expose, is recorded
//! in `perfbench/README.md`; the constants here are the definitions.

use std::time::Duration;

use qkd_manager::LinkSpec;
use qkd_simulator::{detection_events, CorrelatedKeySource, WorkloadPreset};
use qkd_types::{BitVec, DetectionEvent};

/// How the producer thread offers epochs to the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Closed loop: keep the link's backlog at the fleet's admission cap.
    Saturate,
    /// A pool distilled before timing starts, then a fixed number of
    /// closed-loop pickups while epochs keep arriving every `period`.
    Pickup {
        /// Time between epoch due times during the pickups.
        period: Duration,
        /// Pickups per measured second at the seed commit; the run makes
        /// `pairs_per_second * seconds` timed pickups.
        pairs_per_second: usize,
    },
}

/// One workload: a single link, its load shape and its SAE pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Channel preset of the link.
    pub preset: WorkloadPreset,
    /// Sifted block size in bits.
    pub block_bits: usize,
    /// Pipeline shards the link may autoscale to.
    pub max_shards: usize,
    /// Blocks in one epoch.
    pub blocks_per_epoch: usize,
    /// Most keys of [`KEY_BITS`] per `enc_keys`/`dec_keys` pickup.
    pub keys_per_pickup: usize,
    /// Load shape.
    pub load: Load,
}

/// Size of every key the SAE pair asks for.
pub const KEY_BITS: usize = 256;

/// Pre-shared authentication key per link: each block signs five 128-bit
/// tags, so this covers ~13k blocks, far more than any run distils.
pub const AUTH_POOL_BITS: usize = 1 << 23;

/// Every workload the benchmark knows.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "bulk-metro-16k",
        preset: WorkloadPreset::Metro,
        block_bits: 16_384,
        max_shards: 2,
        blocks_per_epoch: 2,
        keys_per_pickup: 16,
        load: Load::Saturate,
    },
    Workload {
        name: "pickup-metro-4k",
        preset: WorkloadPreset::Metro,
        block_bits: 4096,
        max_shards: 1,
        blocks_per_epoch: 1,
        keys_per_pickup: 1,
        load: Load::Pickup {
            period: Duration::from_millis(50),
            pairs_per_second: 480,
        },
    },
];

impl Workload {
    /// The workload named `name`.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The link this workload runs, seeded from the command line.
    pub fn spec(&self, seed: u64) -> LinkSpec {
        let mut spec = LinkSpec::from_preset(self.preset, self.block_bits, seed)
            .with_max_shards(self.max_shards);
        spec.auth_pool_bits = AUTH_POOL_BITS;
        spec
    }

    /// Most bits one pickup moves to each SAE.
    pub fn pickup_bits(&self) -> usize {
        self.keys_per_pickup * KEY_BITS
    }
}

/// The next epoch of `blocks` correlated blocks from `source`, as detection
/// events: exactly the input `LinkManager::submit_epoch` would build, made
/// outside the system so that the fleet sees only generated events.
pub fn epoch_events(source: &mut CorrelatedKeySource, blocks: usize) -> Vec<DetectionEvent> {
    let mut alice = BitVec::new();
    let mut bob = BitVec::new();
    for _ in 0..blocks {
        let block = source.next_block();
        alice.extend_from(&block.alice);
        bob.extend_from(&block.bob);
    }
    detection_events(&alice, &bob)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_well_formed() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(crate::output::valid_name(w.name), "{}", w.name);
            assert_eq!(Workload::find(w.name), Some(&WORKLOADS[i]));
            w.spec(1).validate().unwrap();
        }
        assert_eq!(Workload::find("nope"), None);
    }
}
