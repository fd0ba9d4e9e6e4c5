//! Replays of the admitted epochs outside the fleet.
//!
//! The solo replay runs a `LinkSpec::solo_processor` over the same events
//! the producer submitted: its key stream is what the SAE pair must have
//! received, bit for bit. In a traced run each epoch is also pushed through
//! the engine's stages one public call at a time (sift, estimate, LDPC
//! reconcile, verify, amplify, sign), so every stage is timed on the host.
//! Stage times are never read from `BlockResult::stage_times`: under the
//! default cost-model placement those hold modeled accelerator times.

use qkd_auth::{AuthConfig, Authenticator, KeyPool};
use qkd_core::{verify_keys, BlockResult, PostProcessingConfig, SessionAccounting};
use qkd_ldpc::LdpcReconciler;
use qkd_manager::LinkSpec;
use qkd_privacy::PrivacyAmplifier;
use qkd_sifting::{estimate_qber, sift, SiftingConfig};
use qkd_types::rng::derive_block_rng;
use qkd_types::{BitVec, BlockId, DetectionEvent};

use crate::system::Epoch;
use crate::trace::Recorder;
use crate::workload::epoch_events;

/// Names of the stage spans, in engine order.
pub const STAGE_SPANS: [&str; 6] = [
    "sifting.sift",
    "sifting.estimate",
    "ldpc.reconcile",
    "core.verify_keys",
    "privacy.amplify",
    "auth.sign",
];

/// Counters from the stage-by-stage replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounts {
    /// Decoder iterations of the successful LDPC attempts.
    pub ldpc_iterations: u64,
    /// LDPC decode attempts (rate-ladder steps).
    pub ldpc_attempts: u64,
    /// Blocks whose stage-by-stage key differs from the engine's.
    pub mismatches: u64,
}

/// What the solo engine distilled from the admitted epochs.
#[derive(Debug)]
pub struct Replay {
    /// Secret bits per admitted epoch, in admission order.
    pub epoch_bits: Vec<u64>,
    /// The concatenated key stream.
    pub stream: BitVec,
    /// The solo session's accounting.
    pub accounting: SessionAccounting,
    /// Blocks the solo engine attempted.
    pub blocks: u64,
    /// Stage counters (traced runs only).
    pub stages: Option<StageCounts>,
}

/// Replays every generated epoch of `epochs` (rejected ones only advance the
/// key source, as they did in the fleet) through a solo engine, and through
/// the stage calls too when `stages` is set.
pub fn replay(
    spec: &LinkSpec,
    epochs: &[Epoch],
    stages: bool,
    rec: &mut Recorder,
) -> Result<Replay, String> {
    let mut solo = spec.solo_processor().map_err(|e| e.to_string())?;
    let mut source = spec.key_source().map_err(|e| e.to_string())?;
    let mut staged = if stages {
        Some(Stages::new(spec)?)
    } else {
        None
    };
    let mut epoch_bits = Vec::new();
    let mut stream = BitVec::new();
    let mut blocks = 0u64;
    for (id, epoch) in epochs.iter().enumerate() {
        let id = id as u64;
        let events = rec.time("simulator.generate", id, || {
            epoch_events(&mut source, epoch.blocks)
        });
        if !epoch.admitted {
            continue;
        }
        let results = rec
            .time("core.process_detections", id, || {
                solo.process_detections(&events)
            })
            .map_err(|e| format!("solo replay: {e}"))?;
        let mut bits = 0u64;
        for result in &results {
            stream.extend_from(result.secret_key.bits.expose());
            bits += result.secret_key.bits.len() as u64;
        }
        epoch_bits.push(bits);
        blocks += epoch.blocks as u64;
        if let Some(staged) = staged.as_mut() {
            staged.epoch(&events, &results, rec, id)?;
        }
    }
    Ok(Replay {
        epoch_bits,
        stream,
        accounting: solo.summary().accounting(),
        blocks,
        stages: staged.map(|s| s.counts),
    })
}

/// The engine's sequential block path, rebuilt from the stage crates'
/// public functions with the engine's own configuration and per-block RNG
/// streams.
struct Stages {
    config: PostProcessingConfig,
    seed: u64,
    ldpc: LdpcReconciler,
    amplifier: PrivacyAmplifier,
    auth: Authenticator,
    next_block: u64,
    counts: StageCounts,
}

impl Stages {
    fn new(spec: &LinkSpec) -> Result<Self, String> {
        let config = spec.engine_config();
        // Same library as the fleet's engine: a cache hit, not a rebuild.
        let ldpc = LdpcReconciler::new(config.ldpc.clone()).map_err(|e| e.to_string())?;
        let amplifier = PrivacyAmplifier::new(config.finite_key, config.toeplitz_strategy);
        let pool = KeyPool::with_random_key(config.auth_pool_bits, spec.seed ^ 0xA07);
        Ok(Self {
            auth: Authenticator::new(AuthConfig::default(), pool),
            config,
            seed: spec.seed,
            ldpc,
            amplifier,
            next_block: 0,
            counts: StageCounts::default(),
        })
    }

    /// Runs one epoch's blocks stage by stage. A block the engine aborted
    /// aborts here at the same stage and is skipped.
    fn epoch(
        &mut self,
        events: &[DetectionEvent],
        engine: &[BlockResult],
        rec: &mut Recorder,
        id: u64,
    ) -> Result<(), String> {
        let sifted = rec.time("sifting.sift", id, || {
            sift(events, &SiftingConfig::default())
        });
        let n = self.config.block_size;
        let blocks = sifted.alice_bits.len() / n;
        if blocks * n != sifted.alice_bits.len() {
            return Err("an epoch did not sift into whole blocks".into());
        }
        for i in 0..blocks {
            let alice = sifted.alice_bits.slice(i * n, (i + 1) * n);
            let bob = sifted.bob_bits.slice(i * n, (i + 1) * n);
            let block = BlockId::new(0, self.next_block);
            self.next_block += 1;
            let mut rng = derive_block_rng(self.seed, "post-processor/block", block.as_u64());
            let Ok(est) = rec.time("sifting.estimate", id, || {
                estimate_qber(&alice, &bob, &self.config.sampling, &mut rng)
            }) else {
                continue;
            };
            let reconciled = rec.time("ldpc.reconcile", id, || {
                self.ldpc.reconcile(
                    &est.alice_remaining,
                    &est.bob_remaining,
                    est.reconciliation_qber().max(1e-4),
                )
            });
            let Ok(ldpc) = reconciled else { continue };
            self.counts.ldpc_iterations += ldpc.iterations as u64;
            self.counts.ldpc_attempts += ldpc.attempts as u64;
            let verified = rec.time("core.verify_keys", id, || {
                verify_keys(
                    &est.alice_remaining,
                    &ldpc.corrected,
                    &self.config.verification,
                    &mut rng,
                )
            });
            let Ok(verified) = verified else { continue };
            if !verified.matched {
                continue;
            }
            // The engine's phase-error bound: corrected error rate plus the
            // block-level sampling deviation.
            let len = est.alice_remaining.len().max(1) as f64;
            let deviation = ((1.0 / self.config.finite_key.epsilon_pe).ln() / (2.0 * len)).sqrt();
            let phase_error = (ldpc.corrected_errors as f64 / len + deviation).clamp(1e-4, 0.5);
            let amplified = rec.time("privacy.amplify", id, || {
                self.amplifier.amplify(
                    &est.alice_remaining,
                    phase_error,
                    ldpc.leaked_bits,
                    verified.disclosed_bits,
                    &mut rng,
                )
            });
            let Ok(amplified) = amplified else { continue };
            let engine_block = engine.iter().find(|r| r.block == block);
            if engine_block.is_none_or(|r| r.secret_key.bits != amplified.bits) {
                self.counts.mismatches += 1;
            }
            // The engine signs one message per round trip plus one.
            let messages = engine_block.map_or(5, |r| r.channel_usage.round_trips + 1);
            for m in 0..messages {
                let transcript = format!("block {} message {m}", block.as_u64());
                rec.time("auth.sign", id, || self.auth.sign(transcript.as_bytes()))
                    .map_err(|e| format!("auth replay: {e}"))?;
            }
        }
        Ok(())
    }
}
