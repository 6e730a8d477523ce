//! The dynamic-churn scenario: replay a delta stream, measure resilience
//! before and after each re-optimization.
//!
//! The paper evaluates *static* deployments. Real networks churn — and the
//! operational question for a diversity service is whether re-optimizing
//! after each change actually buys resilience over just carrying the old
//! assignment forward. [`run_churn`] answers it empirically: it drives
//! either engine through its [`WriterCore`] with bursts drawn from a
//! [`Bursts`] source and, at each step, estimates the mean time to
//! compromise (MTTC, paper §VII-C2) of
//!
//! * the **carried** assignment — the old products projected onto the new
//!   network, what a non-reoptimizing deployment would run, and
//! * the **re-optimized** assignment the engine's warm re-solve produced,
//!
//! plus the **defender-lag**: the part of that MTTC gain forfeited while
//! the stale assignment kept serving during the re-solve ([`LagModel`],
//! [`defender_lag`]).
//!
//! The three sources:
//!
//! * [`Bursts::Random`] — seeded random deltas against a fixed worm whose
//!   entry and target are protected from removal. Churn comes in two modes
//!   ([`ChurnMode`]): **sequential** — one delta per step — and
//!   **batched** — a Poisson-sized burst per step, absorbed by one
//!   `apply_batch`: one rebuild and one localized re-solve per burst.
//! * [`Bursts::Adaptive`] — the same stream, but before every step the
//!   attacker re-aims at the committed assignment's largest monoculture
//!   cluster.
//! * [`Bursts::Cve`] — heavy-tailed advisory bursts hitting correlated
//!   product families together ([`CveFeed`]).

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use netmodel::catalog::{Catalog, ProductSimilarity};
use netmodel::delta::{random_delta, NetworkDelta};
use netmodel::network::Network;
use netmodel::{HostId, ProductId, ServiceId};

use sim::attacker::{adaptive_entry_target, monoculture_clusters, AttackerStrategy};
use sim::mttc::{estimate_mttc, MttcEstimate, MttcOptions};
use sim::scenario::Scenario;

use crate::serve::{EngineReport, WriterCore};
use crate::Result;

/// How each churn step feeds random deltas to the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnMode {
    /// One delta per step.
    Sequential,
    /// A burst of deltas per step — burst sizes drawn from a Poisson
    /// distribution with the given mean, clamped to at least 1 — absorbed
    /// via one `apply_batch` call each.
    Batched {
        /// Mean burst size (the Poisson λ).
        mean_burst: f64,
    },
}

/// Parameters of a churn replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Number of steps to replay (one delta per step in sequential mode,
    /// one burst per step otherwise).
    pub steps: usize,
    /// Seed for the random delta stream and its burst sizes (a [`CveFeed`]
    /// carries its own).
    pub seed: u64,
    /// MTTC batch options per evaluation (two evaluations per step).
    pub mttc: MttcOptions,
    /// Exploit success scale for the simulator.
    pub exploit_success: f64,
    /// Residual zero-day rate for the simulator.
    pub baseline_rate: f64,
    /// Tick budget per simulated run.
    pub max_ticks: u32,
    /// Sequential or batched delta feeding.
    pub mode: ChurnMode,
}

impl Default for ChurnConfig {
    fn default() -> ChurnConfig {
        ChurnConfig {
            steps: 10,
            seed: 0xC4A6,
            mttc: MttcOptions {
                runs: 200,
                ..MttcOptions::default()
            },
            exploit_success: 0.9,
            baseline_rate: 0.02,
            max_ticks: 2_000,
            mode: ChurnMode::Sequential,
        }
    }
}

/// The MTTC effect of re-optimizing after a churn step, censoring-aware.
///
/// An MTTC estimate is *censored* when no simulated run compromised the
/// target within the tick budget — the worm failed entirely. The old
/// `Option<f64>` gain collapsed two opposite outcomes into `None`: the
/// carried assignment being censored (re-optimization has nothing left to
/// demonstrate) and the re-optimized assignment being censored (the best
/// possible outcome). This enum keeps them apart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MttcGain {
    /// Both sides have a mean: `mttc_after − mttc_before` in ticks
    /// (positive: re-optimizing slowed the worm down).
    Gain(f64),
    /// The *carried* assignment already stopped the worm within the budget;
    /// the re-optimized one did not. Re-optimization cannot show a gain
    /// here — and, on this sample, looks like a regression.
    CarriedCensored,
    /// The *re-optimized* assignment stopped the worm within the budget
    /// while the carried one was compromised — the best outcome.
    ReoptCensored,
    /// Neither assignment was compromised within the budget; the step is
    /// uninformative about the gain.
    BothCensored,
}

impl MttcGain {
    /// The numeric gain, when both sides were compromised.
    pub fn gain(self) -> Option<f64> {
        match self {
            MttcGain::Gain(g) => Some(g),
            _ => None,
        }
    }

    /// Whether this outcome is evidence *for* re-optimizing: a positive
    /// numeric gain, or the re-optimized assignment stopping the worm the
    /// carried one let through.
    pub fn favors_reopt(self) -> bool {
        match self {
            MttcGain::Gain(g) => g > 0.0,
            MttcGain::ReoptCensored => true,
            MttcGain::CarriedCensored | MttcGain::BothCensored => false,
        }
    }
}

impl fmt::Display for MttcGain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MttcGain::Gain(g) => write!(f, "{g:+.1}"),
            MttcGain::CarriedCensored => write!(f, "carried censored"),
            MttcGain::ReoptCensored => write!(f, "reopt censored (worm stopped)"),
            MttcGain::BothCensored => write!(f, "both censored"),
        }
    }
}

/// One step of a churn replay.
#[derive(Debug, Clone)]
pub struct ChurnStep {
    /// Step index (0-based).
    pub step: usize,
    /// The worm's entry host this step: fixed for the random and CVE
    /// sources, re-picked every step by the adaptive attacker.
    pub entry: HostId,
    /// The worm's target host this step.
    pub target: HostId,
    /// What the source saw or picked when it drew the burst.
    pub drawn: Drawn,
    /// The delta burst that was applied (length 1 in sequential mode).
    pub deltas: Vec<NetworkDelta>,
    /// The engine's report for the step.
    pub report: EngineReport,
    /// MTTC of the carried (non-reoptimized) assignment on the new network.
    pub mttc_before: MttcEstimate,
    /// MTTC of the re-optimized assignment on the new network.
    pub mttc_after: MttcEstimate,
    /// The defender-lag window this step (see [`LagModel`]).
    pub lag_ticks: f64,
    /// MTTC gain forfeited to re-solve latency (see [`defender_lag`]).
    pub defender_lag: f64,
}

impl ChurnStep {
    /// MTTC effect of re-optimizing after this step, in ticks, with the
    /// censored outcomes told apart (see [`MttcGain`]).
    pub fn mttc_gain(&self) -> MttcGain {
        classify_gain(&self.mttc_before, &self.mttc_after)
    }
}

/// What a [`Bursts`] source saw or picked when it drew one step's burst,
/// beyond the deltas themselves.
#[derive(Debug, Clone, PartialEq)]
pub enum Drawn {
    /// A seeded random burst.
    Random,
    /// The adaptive attacker's survey of the committed assignment.
    Recon {
        /// Size of the largest monoculture cluster the attacker saw.
        cluster_size: usize,
        /// Total number of monoculture clusters (live hosts partition).
        cluster_count: usize,
    },
    /// The advisory a CVE-feed burst reacts to (see [`CveBurst`]).
    Advisory {
        /// The service the advisory is against.
        service: ServiceId,
        /// The product named by the advisory.
        advisory: ProductId,
        /// The correlated product family (always contains `advisory`).
        family: Vec<ProductId>,
    },
}

/// Where a churn replay's bursts come from (module docs).
#[derive(Debug, Clone)]
pub enum Bursts {
    /// Seeded random deltas ([`ChurnConfig::seed`], [`ChurnConfig::mode`])
    /// against a fixed worm `entry → target`; both hosts are protected
    /// from removal. On a sharded core an `AddHost` delta usually joins a
    /// random existing zone, but roughly one in four opens a brand-new
    /// `zone-dyn*` zone, so the router creates a shard for it on the spot.
    Random {
        /// The worm's entry host.
        entry: HostId,
        /// The worm's target host.
        target: HostId,
    },
    /// The adversary in the loop: before every step the attacker surveys
    /// the committed assignment and picks entry and target from its
    /// largest monoculture cluster ([`adaptive_entry_target`]); the random
    /// stream then churns the network with those two hosts protected, and
    /// the step's MTTC is estimated under [`AttackerStrategy::Adaptive`].
    /// Each re-optimization breaks the cluster the attacker just aimed at,
    /// and the attacker re-aims at whatever monoculture the next commit
    /// leaves standing.
    Adaptive,
    /// CVE-shaped bursts from a [`CveFeed`] against a fixed worm
    /// `entry → target` (protected from quarantine link cuts).
    Cve {
        /// The worm's entry host.
        entry: HostId,
        /// The worm's target host.
        target: HostId,
        /// The seeded advisory stream.
        feed: CveFeed,
    },
}

/// Classifies the before/after MTTC pair into an [`MttcGain`] (total: every
/// combination of censored and uncensored estimates maps somewhere).
pub(crate) fn classify_gain(before: &MttcEstimate, after: &MttcEstimate) -> MttcGain {
    match (before.mean_ticks(), after.mean_ticks()) {
        (Some(before), Some(after)) => MttcGain::Gain(after - before),
        (None, Some(_)) => MttcGain::CarriedCensored,
        (Some(_), None) => MttcGain::ReoptCensored,
        (None, None) => MttcGain::BothCensored,
    }
}

/// Draws from a Poisson distribution with mean `mean` (Knuth's product
/// method; fine for the small burst means churn uses). Capped at 64 to
/// bound the loop for extreme means.
fn poisson(rng: &mut StdRng, mean: f64) -> usize {
    let threshold = (-mean).exp();
    let mut k = 0usize;
    let mut p: f64 = rng.gen_range(0.0..1.0);
    while p > threshold && k < 64 {
        k += 1;
        p *= rng.gen_range(0.0..1.0);
    }
    k
}

/// Replays `config.steps` bursts from `bursts` through `core`, estimating
/// MTTC for the carried and re-optimized assignment after each, plus the
/// step's defender-lag under the default [`LagModel::SweptWork`] (module
/// docs). Deterministic for fixed seeds.
///
/// Runs a cold solve first if the core has none.
///
/// # Panics
///
/// With [`Bursts::Adaptive`], panics if the network has fewer than two
/// live hosts.
///
/// # Errors
///
/// See [`WriterCore::apply_batch`]; the replay stops at the first failing
/// step (generated deltas validate by construction, so only constraint
/// infeasibility can fail).
pub fn run_churn(
    core: &mut WriterCore,
    bursts: &mut Bursts,
    config: &ChurnConfig,
) -> Result<Vec<ChurnStep>> {
    if core.assignment().is_none() {
        core.solve()?;
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut fresh_zones = 0usize;
    let mut steps = Vec::with_capacity(config.steps);
    for step in 0..config.steps {
        let mut attacker = AttackerStrategy::Sophisticated;
        let (entry, target, drawn, deltas) = match bursts {
            Bursts::Random { entry, target } => {
                let protect = [*entry, *target];
                let deltas = random_burst(core, &mut rng, config.mode, &protect, &mut fresh_zones);
                (*entry, *target, Drawn::Random, deltas)
            }
            Bursts::Adaptive => {
                // Attacker recon against the committed assignment.
                let assignment = core.assignment().expect("core solved above");
                let clusters = monoculture_clusters(core.network(), assignment);
                let (entry, target) = adaptive_entry_target(core.network(), assignment)
                    .expect("adaptive churn needs at least two live hosts");
                let drawn = Drawn::Recon {
                    cluster_size: clusters.first().map_or(0, Vec::len),
                    cluster_count: clusters.len(),
                };
                attacker = AttackerStrategy::Adaptive;
                // The attacker's picks survive the step: the scenario stays
                // well-posed while the network churns under it.
                let protect = [entry, target];
                let deltas = random_burst(core, &mut rng, config.mode, &protect, &mut fresh_zones);
                (entry, target, drawn, deltas)
            }
            Bursts::Cve {
                entry,
                target,
                feed,
            } => {
                let protect = [*entry, *target];
                let burst =
                    feed.next_burst(core.network(), core.catalog(), core.similarity(), &protect);
                let drawn = Drawn::Advisory {
                    service: burst.service,
                    advisory: burst.advisory,
                    family: burst.family,
                };
                (*entry, *target, drawn, burst.deltas)
            }
        };
        let report = core.apply_batch(&deltas)?;
        let scenario = Scenario::new(entry, target)
            .with_attacker(attacker)
            .with_exploit_success(config.exploit_success)
            .with_baseline_rate(config.baseline_rate)
            .with_max_ticks(config.max_ticks);
        let carried = report
            .carried()
            .expect("warm step always carries the previous assignment");
        let mttc_before = estimate_mttc(
            core.network(),
            carried,
            core.similarity(),
            &scenario,
            &config.mttc,
        );
        let mttc_after = estimate_mttc(
            core.network(),
            core.assignment().expect("step solved"),
            core.similarity(),
            &scenario,
            &config.mttc,
        );
        let lag_ticks = LagModel::default().lag_ticks(&report);
        let defender_lag = defender_lag(&mttc_before, &mttc_after, lag_ticks, config.max_ticks);
        steps.push(ChurnStep {
            step,
            entry,
            target,
            drawn,
            deltas,
            report,
            mttc_before,
            mttc_after,
            lag_ticks,
            defender_lag,
        });
    }
    Ok(steps)
}

/// Draws one random burst against `core`'s network: one delta in
/// sequential mode, a Poisson-sized burst in batched mode. Each delta is
/// generated against a scratch copy holding its predecessors — the same
/// staging `apply_batch` validates against — so the burst cannot be
/// rejected. Hosts in `protect` are never removed. On a sharded core an
/// `AddHost` joins a random existing zone or, one in four, a fresh
/// `zone-dyn*` one ([`Bursts::Random`]).
fn random_burst(
    core: &WriterCore,
    rng: &mut StdRng,
    mode: ChurnMode,
    protect: &[HostId],
    fresh_zones: &mut usize,
) -> Vec<NetworkDelta> {
    let size = match mode {
        ChurnMode::Sequential => 1,
        ChurnMode::Batched { mean_burst } => poisson(rng, mean_burst).max(1),
    };
    let mut scratch = core.network().clone();
    let mut deltas = Vec::with_capacity(size);
    for _ in 0..size {
        let mut delta = random_delta(&scratch, core.catalog(), rng, protect);
        if let (NetworkDelta::AddHost { zone, .. }, WriterCore::Sharded(engine)) =
            (&mut delta, core)
        {
            if rng.gen_range(0..4) == 0 {
                *fresh_zones += 1;
                *zone = Some(format!("zone-dyn{fresh_zones}"));
            } else {
                let shards = engine.partition().shards();
                *zone = shards[rng.gen_range(0..shards.len())].zone.clone();
            }
        }
        scratch
            .apply_delta(&delta, core.catalog())
            .expect("generated deltas are valid against their staging state");
        deltas.push(delta);
    }
    deltas
}

/// How the **defender-lag window** — the stretch of ticks during which the
/// stale (carried) assignment is still serving while the engine re-solves —
/// is derived from the re-solve telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LagModel {
    /// Deterministic work proxy: the window is `ticks_per_kvar` simulator
    /// ticks per thousand solver variables swept during the re-solve.
    /// Seed-reproducible (the same stream sweeps the same variables), so
    /// trajectories can be diffed across runs — the default, and what CI
    /// asserts on.
    SweptWork {
        /// Ticks of exposure per 1000 swept solver variables.
        ticks_per_kvar: f64,
    },
    /// Measured wall clock: the window is `ticks_per_ms` ticks per
    /// millisecond of rebuild + solve wall time. Ties defender-lag to the
    /// real re-solve latency (the perf work), but is *not* reproducible
    /// across runs or machines — report it in summaries, not in diffed
    /// trajectories.
    ResolveWall {
        /// Ticks of exposure per millisecond of re-solve wall time.
        ticks_per_ms: f64,
    },
}

impl Default for LagModel {
    fn default() -> LagModel {
        LagModel::SweptWork {
            ticks_per_kvar: 50.0,
        }
    }
}

impl LagModel {
    /// The defender-lag window in ticks for one re-solve, per this model.
    pub fn lag_ticks(&self, report: &EngineReport) -> f64 {
        match *self {
            LagModel::SweptWork { ticks_per_kvar } => {
                ticks_per_kvar * report.swept_vars() as f64 / 1000.0
            }
            LagModel::ResolveWall { ticks_per_ms } => {
                ticks_per_ms * report.resolve_wall().as_secs_f64() * 1e3
            }
        }
    }
}

/// The **defender-lag** of one churn step: the portion of the
/// re-optimization's MTTC gain forfeited because the stale assignment kept
/// serving for `lag_ticks` while the engine re-solved.
///
/// Let `gain = max(0, mttc_after − mttc_before)` (a re-opt-censored `after`
/// stands in conservatively as `max_ticks`) and let the *exposure fraction*
/// be `min(1, lag_ticks / mttc_before)` — if the attacker's expected
/// compromise time on the stale assignment fits inside the lag window, the
/// whole gain is forfeited. Defender-lag is `gain × exposure`, in ticks.
///
/// A carried-censored or both-censored step returns `0.0`: the stale
/// assignment already stops the worm, so re-solve latency costs nothing.
/// The result is always finite and non-NaN for finite `lag_ticks` (CI gates
/// on this).
pub fn defender_lag(
    before: &MttcEstimate,
    after: &MttcEstimate,
    lag_ticks: f64,
    max_ticks: u32,
) -> f64 {
    let Some(before_mean) = before.mean_ticks() else {
        return 0.0;
    };
    let after_mean = after.mean_ticks().unwrap_or(max_ticks as f64);
    let gain = (after_mean - before_mean).max(0.0);
    let exposure = (lag_ticks.max(0.0) / before_mean.max(1.0)).min(1.0);
    gain * exposure
}

/// Parameters of the CVE-feed burst generator (see [`CveFeed`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CveFeedConfig {
    /// Pareto tail index of the burst-size distribution; smaller is
    /// heavier-tailed (1.3 reproduces the occasional monster advisory
    /// batch among mostly-small ones).
    pub pareto_alpha: f64,
    /// Minimum burst size (the Pareto scale `x_m`); ≥ 1.
    pub min_burst: usize,
    /// Burst sizes are clamped here (keeps the Knuth tail bounded).
    pub max_burst: usize,
    /// Products of the advisory's service whose similarity to the advisory
    /// product reaches this threshold are hit together — the "same code
    /// base, same CVE" product family.
    pub family_threshold: f64,
    /// Roughly one in this many deltas is a quarantine (`RemoveLink` on an
    /// affected host) instead of a patch-shaped slot delta.
    pub quarantine_weight: u32,
}

impl Default for CveFeedConfig {
    fn default() -> CveFeedConfig {
        CveFeedConfig {
            pareto_alpha: 1.3,
            min_burst: 1,
            max_burst: 24,
            family_threshold: 0.15,
            quarantine_weight: 4,
        }
    }
}

/// One CVE-shaped burst: an advisory against one product drags its whole
/// similarity family along, and every delta in the burst reacts to that
/// family on some affected host.
#[derive(Debug, Clone)]
pub struct CveBurst {
    /// The service the advisory is against.
    pub service: ServiceId,
    /// The product named by the advisory.
    pub advisory: ProductId,
    /// The correlated product family (always contains `advisory`).
    pub family: Vec<ProductId>,
    /// The generated deltas, valid in order against the network the burst
    /// was generated for.
    pub deltas: Vec<NetworkDelta>,
}

/// A seeded CVE-feed burst stream: heavy-tailed (Pareto) burst sizes,
/// correlated product families hit together (module docs of
/// [`crate::churn`]). Bursts are validated delta-by-delta against a staged
/// copy of the network they are generated for, so
/// [`Network::apply_batch`] never rejects them.
#[derive(Debug, Clone)]
pub struct CveFeed {
    config: CveFeedConfig,
    rng: StdRng,
}

impl CveFeed {
    /// Creates a feed with its own seeded randomness.
    ///
    /// # Panics
    ///
    /// Panics if `min_burst == 0`, `max_burst < min_burst`, or
    /// `pareto_alpha` is not strictly positive and finite.
    pub fn new(config: CveFeedConfig, seed: u64) -> CveFeed {
        assert!(config.min_burst >= 1, "min_burst must be at least 1");
        assert!(
            config.max_burst >= config.min_burst,
            "max_burst must be at least min_burst"
        );
        assert!(
            config.pareto_alpha.is_finite() && config.pareto_alpha > 0.0,
            "pareto_alpha must be positive and finite"
        );
        CveFeed {
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws the next burst against `network`. Hosts in `protect` are never
    /// the subject of a quarantine link removal. The returned deltas are
    /// valid in order: applying them through [`Network::apply_batch`] on
    /// `network` cannot be rejected.
    pub fn next_burst(
        &mut self,
        network: &Network,
        catalog: &Catalog,
        similarity: &ProductSimilarity,
        protect: &[HostId],
    ) -> CveBurst {
        let rng = &mut self.rng;
        // Heavy-tailed burst size: Pareto(x_m = min_burst, α), clamped.
        let u: f64 = rng.gen_range(0.0..1.0);
        let raw = self.config.min_burst as f64 / (1.0 - u).powf(1.0 / self.config.pareto_alpha);
        let size = (raw as usize).clamp(self.config.min_burst, self.config.max_burst);

        // The advisory: one product of one service, plus its similarity
        // family — correlated products patched (or quarantined) together.
        let services: Vec<ServiceId> = catalog
            .iter_services()
            .map(|(sid, _)| sid)
            .filter(|&sid| !catalog.products_of(sid).is_empty())
            .collect();
        let service = services[rng.gen_range(0..services.len())];
        let products = catalog.products_of(service);
        let advisory = products[rng.gen_range(0..products.len())];
        let family: Vec<ProductId> = products
            .iter()
            .copied()
            .filter(|&q| {
                q == advisory || similarity.get(advisory, q) >= self.config.family_threshold
            })
            .collect();

        // Stage every delta against a scratch copy — the same state
        // apply_batch validates against — so the burst cannot be rejected.
        let mut scratch = network.clone();
        let mut deltas = Vec::with_capacity(size);
        for _ in 0..size {
            let affected: Vec<HostId> = scratch
                .iter_hosts()
                .filter(|(_, host)| !host.is_removed())
                .filter(|(_, host)| {
                    host.candidates_for(service)
                        .is_some_and(|cands| cands.iter().any(|p| family.contains(p)))
                })
                .map(|(id, _)| id)
                .collect();
            let delta = if affected.is_empty() {
                // The family is already everywhere eradicated; the advisory
                // still triggers re-planning somewhere.
                let live: Vec<HostId> = scratch
                    .iter_hosts()
                    .filter(|(_, host)| !host.is_removed() && !host.services().is_empty())
                    .map(|(id, _)| id)
                    .collect();
                let host = live[rng.gen_range(0..live.len())];
                let inst = &scratch.host(host).expect("live host").services()[0];
                NetworkDelta::unfix_slot(
                    host,
                    inst.service(),
                    catalog.products_of(inst.service()).to_vec(),
                )
            } else {
                let host = affected[rng.gen_range(0..affected.len())];
                let quarantine = rng.gen_range(0..self.config.quarantine_weight.max(1)) == 0
                    && !protect.contains(&host);
                let removable: Vec<HostId> = scratch
                    .neighbors(host)
                    .iter()
                    .copied()
                    .filter(|peer| !protect.contains(peer))
                    .collect();
                let cands = scratch
                    .host(host)
                    .expect("affected host is live")
                    .candidates_for(service)
                    .expect("affected host runs the service")
                    .to_vec();
                let off_family: Vec<ProductId> = cands
                    .iter()
                    .copied()
                    .filter(|p| !family.contains(p))
                    .collect();
                if quarantine && !removable.is_empty() {
                    // Quarantine: cut one of the affected host's links.
                    let peer = removable[rng.gen_range(0..removable.len())];
                    NetworkDelta::remove_link(host, peer)
                } else if !off_family.is_empty() && cands.len() > 1 {
                    // Emergency mandate: pin the slot to a product outside
                    // the vulnerable family.
                    NetworkDelta::fix_slot(
                        host,
                        service,
                        off_family[rng.gen_range(0..off_family.len())],
                    )
                } else {
                    let missing: Vec<ProductId> = catalog
                        .products_of(service)
                        .iter()
                        .copied()
                        .filter(|p| !cands.contains(p))
                        .collect();
                    if missing.is_empty() {
                        // Vendor ships fixed versions: re-plan with full
                        // freedom (valid even if candidates are already
                        // full).
                        NetworkDelta::unfix_slot(
                            host,
                            service,
                            catalog.products_of(service).to_vec(),
                        )
                    } else {
                        // Widen the slot so the optimizer can leave the
                        // family.
                        NetworkDelta::extend_candidates(host, service, missing)
                    }
                }
            };
            scratch
                .apply_delta(&delta, catalog)
                .expect("CVE-feed deltas are staged against their own state");
            deltas.push(delta);
        }
        CveBurst {
            service,
            advisory,
            family,
            deltas,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::topology::{generate, RandomNetworkConfig, TopologyKind};

    /// Which engine a driver-table row replays on.
    #[derive(Debug, Clone, Copy)]
    enum Engine {
        Single,
        Sharded,
    }

    /// The driver table's one checker: replays `steps` bursts from `source`
    /// in `mode` on `engine` and holds the replay to the contract every row
    /// shares — every drawn delta is committed, a re-solve never loses to
    /// carrying forward, protected hosts survive, `AddHost` zones land in a
    /// shard without a from-scratch re-partition, defender-lag stays
    /// finite, and a second run from the same seeds reproduces the stream,
    /// the MTTC estimates and the lag.
    fn check_replay(source: &str, mode: ChurnMode, engine: Engine) {
        use crate::engine::DiversityEngine;
        use crate::shard::ShardedEngine;
        use netmodel::topology::{generate_zoned, ZonedNetworkConfig};

        let (entry, target) = (HostId(0), HostId(19));
        let row = format!("{source} {mode:?} on {engine:?}");
        let config = ChurnConfig {
            steps: 4,
            mttc: MttcOptions {
                runs: 25,
                ..MttcOptions::default()
            },
            max_ticks: 300,
            mode,
            ..ChurnConfig::default()
        };
        let replay = || {
            let g = generate_zoned(
                &ZonedNetworkConfig {
                    zones: 2,
                    hosts_per_zone: 10,
                    gateway_links: 2,
                    mean_degree: 3,
                    services: 2,
                    products_per_service: 3,
                    vendors_per_service: 2,
                    topology: TopologyKind::Random,
                },
                6,
            );
            let mut core = match engine {
                Engine::Single => {
                    WriterCore::Single(DiversityEngine::new(g.network, g.catalog, g.similarity))
                }
                Engine::Sharded => {
                    WriterCore::Sharded(ShardedEngine::new(g.network, g.catalog, g.similarity))
                }
            };
            let mut bursts = match source {
                "adaptive" => Bursts::Adaptive,
                "cve" => Bursts::Cve {
                    entry,
                    target,
                    feed: CveFeed::new(CveFeedConfig::default(), 9),
                },
                _ => Bursts::Random { entry, target },
            };
            let steps = run_churn(&mut core, &mut bursts, &config).unwrap();
            (core, steps)
        };
        let (core, steps) = replay();
        assert_eq!(steps.len(), config.steps, "{row}");
        let total_deltas: usize = steps.iter().map(|s| s.deltas.len()).sum();
        assert_eq!(
            core.revision() as usize,
            total_deltas,
            "{row}: every burst delta must have been committed"
        );
        if source == "random" {
            match mode {
                ChurnMode::Sequential => {
                    assert!(steps.iter().all(|s| s.deltas.len() == 1), "{row}")
                }
                ChurnMode::Batched { .. } => assert!(
                    steps.iter().any(|s| s.deltas.len() > 1),
                    "{row}: Poisson(3) bursts should exceed 1 delta at least once"
                ),
            }
        }
        for s in &steps {
            // Re-optimizing never loses objective vs. carrying forward.
            assert!(
                s.report.improvement().unwrap() >= -1e-9,
                "{row} step {}",
                s.step
            );
            assert!(s.lag_ticks.is_finite() && s.lag_ticks >= 0.0, "{row}");
            assert!(
                s.defender_lag.is_finite() && s.defender_lag >= 0.0,
                "{row}: defender-lag must be finite and non-negative"
            );
            // The gain classification is total: every step maps somewhere.
            if let MttcGain::Gain(g) = s.mttc_gain() {
                assert!(g.is_finite(), "{row}");
            }
            match &s.drawn {
                Drawn::Random => {}
                Drawn::Recon {
                    cluster_size,
                    cluster_count,
                } => {
                    assert_ne!(s.entry, s.target, "{row} step {}", s.step);
                    assert!(*cluster_size >= 1 && *cluster_count >= 1, "{row}");
                }
                Drawn::Advisory {
                    advisory, family, ..
                } => assert!(family.contains(advisory), "{row}"),
            }
            match (&s.report, &core) {
                (EngineReport::Single(r), WriterCore::Single(_)) => {
                    assert_eq!(r.deltas_applied, s.deltas.len(), "{row}");
                    assert!(r.warm_started, "{row}");
                }
                (EngineReport::Sharded(r), WriterCore::Sharded(engine)) => {
                    assert_eq!(r.deltas_applied, s.deltas.len(), "{row}");
                    // Every AddHost zone — existing or freshly
                    // opened — ends up owned by a shard.
                    for d in &s.deltas {
                        if let NetworkDelta::AddHost { zone, .. } = d {
                            let owner = engine.partition().shard_of_zone(zone.as_deref());
                            assert!(owner.is_some(), "{row}");
                        }
                    }
                }
                _ => panic!("{row}: the report came from the other engine"),
            }
        }
        if let WriterCore::Sharded(engine) = &core {
            // The stream never triggered a from-scratch re-partition.
            assert_eq!(engine.partition_recomputes(), 0, "{row}");
        }
        let last = steps.last().unwrap();
        for host in [last.entry, last.target] {
            let live = !core.network().host(host).unwrap().is_removed();
            assert!(live, "{row}: protected host {host} was removed");
        }
        core.assignment().unwrap().validate(core.network()).unwrap();
        // Same seeds, same stream, same estimates, same lag.
        let (_, again) = replay();
        for (a, b) in steps.iter().zip(&again) {
            assert_eq!((a.entry, a.target), (b.entry, b.target), "{row}");
            assert_eq!(a.drawn, b.drawn, "{row}");
            assert_eq!(a.deltas, b.deltas, "{row}");
            assert_eq!(a.mttc_before, b.mttc_before, "{row}");
            assert_eq!(a.mttc_after, b.mttc_after, "{row}");
            assert_eq!(a.lag_ticks, b.lag_ticks, "{row}");
            assert_eq!(a.defender_lag, b.defender_lag, "{row}");
        }
    }

    // The driver table: every burst source on both engines, one row each,
    // grouped into one test per source (and per engine for random bursts).

    #[test]
    fn churn_replay_is_deterministic_and_sound() {
        check_replay("random", ChurnMode::Sequential, Engine::Single);
    }

    #[test]
    fn batched_churn_absorbs_bursts() {
        check_replay(
            "random",
            ChurnMode::Batched { mean_burst: 3.0 },
            Engine::Single,
        );
    }

    #[test]
    fn sharded_churn_replays_bursts_across_zones() {
        check_replay("random", ChurnMode::Sequential, Engine::Sharded);
        check_replay(
            "random",
            ChurnMode::Batched { mean_burst: 3.0 },
            Engine::Sharded,
        );
    }

    #[test]
    fn adaptive_churn_co_evolves_and_is_deterministic() {
        for engine in [Engine::Single, Engine::Sharded] {
            check_replay("adaptive", ChurnMode::Batched { mean_burst: 2.0 }, engine);
        }
    }

    #[test]
    fn cve_churn_replay_reports_gains() {
        for engine in [Engine::Single, Engine::Sharded] {
            check_replay("cve", ChurnMode::Sequential, engine);
        }
    }

    #[test]
    fn mttc_gain_tells_censored_outcomes_apart() {
        use sim::mttc::MttcEstimate;
        let compromised = |mean: f64| MttcEstimate::from_parts(10, 10, mean * 10.0);
        let censored = MttcEstimate::from_parts(10, 0, 0.0);
        assert_eq!(
            classify_gain(&compromised(5.0), &compromised(8.0)),
            MttcGain::Gain(30.0)
        );
        assert_eq!(
            classify_gain(&censored, &compromised(8.0)),
            MttcGain::CarriedCensored
        );
        assert_eq!(
            classify_gain(&compromised(5.0), &censored),
            MttcGain::ReoptCensored
        );
        assert_eq!(classify_gain(&censored, &censored), MttcGain::BothCensored);
        assert!(MttcGain::ReoptCensored.favors_reopt());
        assert!(!MttcGain::CarriedCensored.favors_reopt());
        assert_eq!(MttcGain::Gain(30.0).gain(), Some(30.0));
        assert_eq!(MttcGain::BothCensored.gain(), None);
    }

    #[test]
    fn defender_lag_is_finite_and_censoring_aware() {
        let compromised = |mean: f64| MttcEstimate::from_parts(10, 10, mean);
        let censored = MttcEstimate::from_parts(10, 0, 0.0);
        // Plain gain, partial exposure: gain 100 × (50 / 200) = 25.
        let dl = defender_lag(&compromised(200.0), &compromised(300.0), 50.0, 2000);
        assert!((dl - 25.0).abs() < 1e-9, "got {dl}");
        // Lag window dwarfs the stale MTTC: the whole gain is forfeited.
        let dl = defender_lag(&compromised(200.0), &compromised(300.0), 1e6, 2000);
        assert!((dl - 100.0).abs() < 1e-9, "got {dl}");
        // Re-opt censored: max_ticks stands in, still finite.
        let dl = defender_lag(&compromised(200.0), &censored, 100.0, 2000);
        assert!(dl.is_finite() && dl > 0.0);
        // Carried censored: nothing forfeited.
        assert_eq!(
            defender_lag(&censored, &compromised(300.0), 100.0, 2000),
            0.0
        );
        assert_eq!(defender_lag(&censored, &censored, 100.0, 2000), 0.0);
        // Negative gain (re-opt worse on this sample) clamps to zero.
        assert_eq!(
            defender_lag(&compromised(300.0), &compromised(200.0), 100.0, 2000),
            0.0
        );
    }

    #[test]
    fn cve_feed_bursts_are_heavy_tailed_and_always_valid() {
        let g = generate(
            &RandomNetworkConfig {
                hosts: 20,
                mean_degree: 3,
                services: 2,
                products_per_service: 4,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            4,
        );
        let mut feed = CveFeed::new(CveFeedConfig::default(), 17);
        let mut network = g.network.clone();
        let mut sizes = Vec::new();
        for _ in 0..40 {
            let burst = feed.next_burst(&network, &g.catalog, &g.similarity, &[HostId(0)]);
            assert!(burst.family.contains(&burst.advisory));
            assert!(!burst.deltas.is_empty());
            sizes.push(burst.deltas.len());
            // The guarantee under test: apply_batch never rejects a burst
            // generated for this network state.
            network
                .apply_batch(&burst.deltas, &g.catalog)
                .expect("generated burst must be valid");
        }
        // Pareto(α=1.3) over 40 draws: mostly minimal, at least one spike.
        assert!(sizes.iter().filter(|&&s| s <= 2).count() >= sizes.len() / 3);
        assert!(*sizes.iter().max().unwrap() >= 3, "no heavy tail seen");
    }

    #[test]
    fn poisson_sampler_is_sane() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = 4000;
        let mean = 3.0;
        let total: usize = (0..n).map(|_| poisson(&mut rng, mean)).sum();
        let empirical = total as f64 / n as f64;
        assert!(
            (empirical - mean).abs() < 0.25,
            "empirical mean {empirical} too far from {mean}"
        );
        // Degenerate mean: always 0 (callers clamp to ≥ 1 for bursts).
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }
}
