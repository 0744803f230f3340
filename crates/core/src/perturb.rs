//! One roll → log → replay mechanism for every seeded source of
//! perturbation. The randomized adversary (`bft_sim_attacks::randomized`)
//! and the fault catalog ([`crate::buggify`]) are policies over a
//! [`Perturber`]: each keeps only its action kinds and its draws.
//!
//! A policy visits its sites (an honest transmission; a wire transmission,
//! a timer arming, a node dispatch) in the order the run seed fixes. In
//! generate mode a visit below the cap rolls the policy's *own* seeded RNG,
//! the same draws in the same order at every visit, so the sequence depends
//! only on the policy's seed and the visit order and keeps its meaning when
//! shrunk. In scripted mode a visit applies what a log recorded at that site
//! and index. Either way every applied action is logged as an [`Action`]
//! against its site's visit index, so a generated log re-runs verbatim as a
//! script: that is what lets the `simcheck` shrinker delete actions and
//! re-test, and what keeps repro files replayable byte for byte.

use std::sync::{Arc, Mutex};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::fasthash::FastMap;
use crate::json::{self, Fields, Json};

/// One logged perturbation: `kind` applied at the `index`-th visit (0-based)
/// of its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Action<K> {
    /// 0-based visit index at the action's site.
    pub index: u64,
    /// What was applied.
    pub kind: K,
}

/// What a visit hands its policy to decide on.
#[derive(Debug)]
pub enum Draw<'a, K> {
    /// Generate mode, below the cap: roll the policy's seeded RNG.
    Roll(&'a mut SmallRng),
    /// Scripted mode: the action the script holds for this visit.
    Script(K),
}

#[derive(Debug)]
enum Source<K> {
    Generate {
        rng: SmallRng,
        cap: u64,
    },
    /// Keyed by (site, index).
    Script(FastMap<(usize, u64), K>),
}

/// The mechanism: where a policy's actions come from, one visit counter per
/// site, and the log of what was applied. The log is published to its
/// [`ActionLog`] when the perturber is dropped (when `Simulation::run`
/// returns), so a visit takes no lock.
#[derive(Debug)]
pub struct Perturber<K, const SITES: usize> {
    source: Source<K>,
    visits: [u64; SITES],
    log: Vec<Action<K>>,
    published: ActionLog<K>,
}

impl<K: Copy, const SITES: usize> Perturber<K, SITES> {
    /// A generating perturber with its own RNG seeded from `seed`, applying
    /// at most `cap` actions.
    pub fn generate(seed: u64, cap: u64) -> Self {
        Perturber::new(Source::Generate {
            rng: SmallRng::seed_from_u64(seed),
            cap,
        })
    }

    /// A scripted perturber that re-applies exactly `actions`, each at the
    /// site `site` names. Duplicates at one site and index keep the last.
    pub fn scripted(actions: &[Action<K>], site: impl Fn(K) -> usize) -> Self {
        let by_visit = actions.iter().map(|a| ((site(a.kind), a.index), a.kind));
        Perturber::new(Source::Script(by_visit.collect()))
    }

    fn new(source: Source<K>) -> Self {
        Perturber {
            source,
            visits: [0; SITES],
            log: Vec::new(),
            published: ActionLog::default(),
        }
    }

    /// A handle onto the log; clone it out before the policy moves into a
    /// `SimulationBuilder`.
    pub fn log_handle(&self) -> ActionLog<K> {
        self.published.clone()
    }

    /// Visits `site`. In generate mode below the cap `pick` rolls the action;
    /// in scripted mode it vets the one the script holds for this visit, and
    /// a visit without one is skipped. What `pick` returns is applied: logged
    /// against this visit and returned.
    pub fn visit(&mut self, site: usize, pick: impl FnOnce(Draw<'_, K>) -> Option<K>) -> Option<K> {
        let index = self.visits[site];
        self.visits[site] += 1;
        let draw = match &mut self.source {
            // The cap comes first: the adversary visits every honest
            // transmission of every run, budget or not.
            Source::Generate { rng, cap } if (self.log.len() as u64) < *cap => Draw::Roll(rng),
            Source::Generate { .. } => return None,
            Source::Script(script) => Draw::Script(*script.get(&(site, index))?),
        };
        let kind = pick(draw)?;
        self.log.push(Action { index, kind });
        Some(kind)
    }
}

impl<K, const SITES: usize> Drop for Perturber<K, SITES> {
    fn drop(&mut self) {
        if let Ok(mut slot) = self.published.shared.lock() {
            *slot = std::mem::take(&mut self.log);
        }
    }
}

/// Shared handle onto a [`Perturber`]'s log, readable after
/// `Simulation::run` has consumed the perturber.
#[derive(Debug, Clone)]
pub struct ActionLog<K> {
    shared: Arc<Mutex<Vec<Action<K>>>>,
}

impl<K> Default for ActionLog<K> {
    fn default() -> Self {
        ActionLog {
            shared: Arc::default(),
        }
    }
}

impl<K> ActionLog<K> {
    /// Every applied action in application order, once the perturber is
    /// dropped; empty before that, and after the first call.
    pub fn take(&self) -> Vec<Action<K>> {
        std::mem::take(&mut *self.shared.lock().expect("action log lock"))
    }
}

/// A log as a JSON array of `{"<index_key>": index, "kind": kind}` objects.
pub fn to_json<K: Copy>(
    actions: &[Action<K>],
    index_key: &'static str,
    kind: impl Fn(K) -> Json,
) -> Json {
    let entry =
        |a: &Action<K>| Json::obj([(index_key, Json::from(a.index)), ("kind", kind(a.kind))]);
    Json::Arr(actions.iter().map(entry).collect())
}

/// Parses [`to_json`]'s format; `what` names one entry in messages.
///
/// # Errors
///
/// Malformed per [`crate::json`]'s artifact parsing policy; the message
/// names the offending entry's index.
pub fn from_json<K>(
    json: &Json,
    index_key: &'static str,
    what: &str,
    kind: impl Fn(&Json) -> Result<K, String>,
) -> Result<Vec<Action<K>>, String> {
    json::list(|entry| {
        let mut f = Fields::of(entry, what)?;
        let index = f.req(index_key, json::int)?;
        let kind = f.req("kind", &kind)?;
        f.finish()?;
        Ok(Action { index, kind })
    })(json)
}
