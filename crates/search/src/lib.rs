//! Monte-Carlo Tree Search (UCT) over sequential decision problems.
//!
//! RankMap explores the mapping space — one component choice per
//! schedulable unit — with MCTS (§IV-E): selection and expansion by upper
//! confidence bounds, simulation by random completion of the partial
//! mapping, and the trained throughput estimator as the terminal reward.
//! This crate hosts the search machinery, generic over a
//! [`DecisionProblem`] so the same code drives RankMap, OmniBoost, and the
//! toy problems in the tests.
//!
//! # Batched search
//!
//! The estimator-in-the-loop search spends nearly all of its time in
//! terminal evaluations, so the search collects `K =`
//! [`MctsConfig::batch`] leaves per round under a **virtual loss** (each
//! selected path is temporarily penalized so the next selection in the
//! round explores elsewhere), then scores the whole round through one
//! [`DecisionProblem::evaluate_batch`] call — which oracles fan out across
//! the thread pool and run as stacked matmuls. A **transposition cache**
//! (see [`DecisionProblem::transposition_key`]) makes revisited terminal
//! states free. With `K = 1` the batched machinery reduces exactly to the
//! classic sequential loop — same RNG stream, same trajectory, same
//! result — and this crate's tests hold it to that loop, kept there as an
//! executable reference.
//!
//! # Warm-started search
//!
//! A dynamic workload manager re-searches on every arrival/departure, and
//! most of the decision vector is unchanged between consecutive events.
//! [`Mcts::search_warm`] takes a [`WarmStart`] — a per-depth action guide
//! distilled from the incumbent solution plus a bias probability — and
//! (a) evaluates the incumbent completion first, so the warm search can
//! never return a reward below the incumbent's, and (b) biases every
//! rollout step toward the guide action with probability
//! [`WarmStart::bias`], so the budget concentrates on re-deciding the
//! delta instead of rediscovering the unchanged placements.
//!
//! # Example
//!
//! ```
//! use rankmap_search::{DecisionProblem, Mcts, MctsConfig};
//!
//! /// Maximize the number of 1-bits in a 6-bit string.
//! struct OneMax;
//! impl DecisionProblem for OneMax {
//!     type State = Vec<usize>;
//!     fn root(&self) -> Vec<usize> { Vec::new() }
//!     fn action_count(&self, s: &Vec<usize>) -> usize {
//!         if s.len() >= 6 { 0 } else { 2 }
//!     }
//!     fn apply(&self, s: &Vec<usize>, a: usize) -> Vec<usize> {
//!         let mut t = s.clone();
//!         t.push(a);
//!         t
//!     }
//!     fn evaluate(&self, s: &Vec<usize>) -> f64 {
//!         s.iter().sum::<usize>() as f64
//!     }
//! }
//!
//! let result = Mcts::new(MctsConfig { iterations: 400, ..Default::default() })
//!     .search(&OneMax);
//! assert_eq!(result.best_state, vec![1, 1, 1, 1, 1, 1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A finite-horizon sequential decision problem with a terminal reward.
pub trait DecisionProblem {
    /// Search state (a partial decision vector).
    type State: Clone;

    /// The empty/initial state.
    fn root(&self) -> Self::State;

    /// Number of actions available in `state`; `0` marks a terminal state.
    fn action_count(&self, state: &Self::State) -> usize;

    /// Applies action `a` (in `0..action_count`) to a state.
    fn apply(&self, state: &Self::State, a: usize) -> Self::State;

    /// Applies action `a` in place — the rollout fast path. The default
    /// delegates to [`DecisionProblem::apply`]; growable states (decision
    /// vectors) should override with a push to kill the per-step clone.
    fn apply_in_place(&self, state: &mut Self::State, a: usize) {
        *state = self.apply(state, a);
    }

    /// Reward of a terminal state (may be `f64::NEG_INFINITY` for
    /// disqualified states, per RankMap's starvation threshold).
    fn evaluate(&self, state: &Self::State) -> f64;

    /// Rewards for a whole round of terminal states. The default maps
    /// [`DecisionProblem::evaluate`]; oracle-backed problems override this
    /// with one batched oracle query fanned out across the thread pool.
    fn evaluate_batch(&self, states: &[Self::State]) -> Vec<f64> {
        states.iter().map(|s| self.evaluate(s)).collect()
    }

    /// Stable 64-bit key identifying a terminal state for the
    /// transposition cache, or `None` (the default) to disable caching.
    /// States with equal keys must have equal rewards.
    fn transposition_key(&self, _state: &Self::State) -> Option<u64> {
        None
    }
}

/// MCTS hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MctsConfig {
    /// Search budget: number of select→expand→simulate→backpropagate
    /// iterations ("a predefined computational budget", §IV-E).
    pub iterations: usize,
    /// UCT exploration constant.
    pub exploration: f64,
    /// RNG seed (search is deterministic given the seed).
    pub seed: u64,
    /// Leaves evaluated per batched round (`K`). `1` reproduces the
    /// sequential search exactly; larger values trade per-round tree
    /// freshness for batched oracle evaluation.
    pub batch: usize,
    /// Virtual-loss weight applied to a selected path while its rollout
    /// awaits evaluation (only observable when `batch > 1`).
    pub virtual_loss: f64,
}

impl Default for MctsConfig {
    fn default() -> Self {
        Self { iterations: 2_000, exploration: 1.3, seed: 0, batch: 1, virtual_loss: 1.0 }
    }
}

/// Incumbent-derived guidance for a warm-started search.
///
/// `guide[d]` names the incumbent action at decision depth `d` (the number
/// of actions applied from the root), or `None` where the warm start has
/// no opinion — e.g. the units of a freshly arrived DNN, which the search
/// must decide from scratch. When every depth of a terminal path is
/// guided, the incumbent completion is evaluated as the very first
/// iteration, so the search's best reward starts at the incumbent's.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart {
    /// Incumbent action per depth (`None` = unguided, re-decide freely).
    pub guide: Vec<Option<usize>>,
    /// Probability that a rollout step follows the guide action instead of
    /// sampling uniformly. `0.0` disables the bias (the seeded incumbent
    /// evaluation still happens); values near `1.0` pin guided depths to
    /// their incumbent choice.
    pub bias: f64,
}

impl WarmStart {
    /// Builds a fully guided warm start from a flat incumbent decision
    /// vector.
    pub fn pinned(actions: impl IntoIterator<Item = usize>, bias: f64) -> Self {
        Self { guide: actions.into_iter().map(Some).collect(), bias }
    }

    /// Whether every depth in `0..len` has a guide action.
    pub fn is_complete(&self, len: usize) -> bool {
        self.guide.len() >= len && self.guide.iter().take(len).all(Option::is_some)
    }
}

/// Outcome of a search.
#[derive(Debug, Clone)]
pub struct SearchResult<S> {
    /// Best terminal state ever simulated.
    pub best_state: S,
    /// Its raw reward.
    pub best_reward: f64,
    /// Number of terminal evaluations performed (cache hits included —
    /// this is the iteration budget actually spent).
    pub evaluations: usize,
    /// Terminal evaluations that reached the problem's (oracle's)
    /// `evaluate`/`evaluate_batch` — i.e. not served by the cache.
    pub oracle_evals: usize,
    /// Terminal evaluations served by the transposition cache.
    pub cache_hits: usize,
}

struct Node<S> {
    state: S,
    parent: Option<usize>,
    children: Vec<usize>,
    /// Next untried action index (actions expand in order; rollouts cover
    /// the rest stochastically).
    next_action: usize,
    action_count: usize,
    /// Number of actions applied from the root (the warm-start guide is
    /// indexed by this depth).
    depth: usize,
    visits: f64,
    /// Sum of min-max normalized rewards.
    value: f64,
}

/// One collected rollout awaiting (batched) evaluation.
struct PendingRollout<S> {
    leaf: usize,
    state: PendingState<S>,
    key: Option<u64>,
}

/// Where a pending rollout's reward comes from.
enum PendingState<S> {
    /// Served by the transposition cache (state kept for best-tracking).
    Cached { state: S, reward: f64 },
    /// Index into this round's deduplicated fresh-evaluation list; round
    /// duplicates share one entry, so the oracle sees each distinct
    /// terminal at most once per round.
    Fresh(usize),
}

/// UCT Monte-Carlo Tree Search.
#[derive(Debug, Clone)]
pub struct Mcts {
    config: MctsConfig,
}

impl Mcts {
    /// Creates a search instance.
    pub fn new(config: MctsConfig) -> Self {
        Self { config }
    }

    /// Runs the search and returns the best terminal state found.
    ///
    /// Rewards of `NEG_INFINITY` (disqualified mappings) are clamped to
    /// the running minimum for tree statistics, so the tree steers away
    /// from them without poisoning the averages.
    pub fn search<P: DecisionProblem>(&self, problem: &P) -> SearchResult<P::State> {
        self.search_batched(problem, None)
    }

    /// Runs the search warm-started from an incumbent solution: the
    /// incumbent completion (when fully guided) is evaluated first, and
    /// rollouts follow the guide with probability [`WarmStart::bias`].
    ///
    /// The returned best reward is therefore never below the incumbent's
    /// when the guide covers a full terminal path.
    pub fn search_warm<P: DecisionProblem>(
        &self,
        problem: &P,
        warm: &WarmStart,
    ) -> SearchResult<P::State> {
        self.search_batched(problem, Some(warm))
    }

    /// Batched virtual-loss search: collect up to `K` rollouts per round,
    /// score them through one `evaluate_batch` call, then backpropagate.
    fn search_batched<P: DecisionProblem>(
        &self,
        problem: &P,
        warm: Option<&WarmStart>,
    ) -> SearchResult<P::State> {
        let batch = self.config.batch.max(1);
        let vl = self.config.virtual_loss;
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let root_state = problem.root();
        let root_actions = problem.action_count(&root_state);
        let mut nodes: Vec<Node<P::State>> = vec![Node {
            state: root_state.clone(),
            parent: None,
            children: Vec::new(),
            next_action: 0,
            action_count: root_actions,
            depth: 0,
            visits: 0.0,
            value: 0.0,
        }];
        let mut best_state: Option<P::State> = None;
        let mut best_reward = f64::NEG_INFINITY;
        let mut reward_min = f64::INFINITY;
        let mut reward_max = f64::NEG_INFINITY;
        let mut evaluations = 0usize;
        let mut oracle_evals = 0usize;
        let mut cache_hits = 0usize;
        let mut transpositions: HashMap<u64, f64> = HashMap::new();
        // Reusable rollout buffer: apply_in_place into it instead of
        // cloning a fresh state per rollout step.
        let mut sim = root_state.clone();

        let mut remaining = self.config.iterations;

        // Warm start, part one: evaluate the incumbent completion before
        // anything else, so the search's running best can only improve on
        // it (spends one iteration of the budget).
        if let Some(w) = warm {
            if remaining > 0 {
                if let Some(incumbent) = complete_with_guide(problem, &root_state, w) {
                    let raw = problem.evaluate(&incumbent);
                    evaluations += 1;
                    oracle_evals += 1;
                    remaining -= 1;
                    if let Some(k) = problem.transposition_key(&incumbent) {
                        transpositions.insert(k, raw);
                    }
                    if raw > best_reward {
                        best_reward = raw;
                        best_state = Some(incumbent);
                    }
                    let norm = normalize_reward(raw, &mut reward_min, &mut reward_max);
                    backpropagate(&mut nodes, 0, norm, 1.0);
                }
            }
        }
        while remaining > 0 {
            let round = batch.min(remaining);
            remaining -= round;
            let mut pending: Vec<PendingRollout<P::State>> = Vec::with_capacity(round);
            let mut fresh: Vec<P::State> = Vec::with_capacity(round);
            // Terminals already scheduled this round, by transposition key.
            let mut round_index: HashMap<u64, usize> = HashMap::new();
            for _ in 0..round {
                let leaf = select_and_expand(problem, &mut nodes, self.config.exploration);
                // Virtual loss: visits go up with no value, discouraging
                // the next in-round selection from piling onto this path.
                apply_virtual_loss(&mut nodes, leaf, vl);
                // Rollout into the shared buffer. Warm start, part two:
                // guided depths follow the incumbent action with
                // probability `bias` instead of sampling uniformly.
                sim.clone_from(&nodes[leaf].state);
                let mut depth = nodes[leaf].depth;
                loop {
                    let k = problem.action_count(&sim);
                    if k == 0 {
                        break;
                    }
                    let a = match warm
                        .and_then(|w| w.guide.get(depth).copied().flatten().map(|g| (g, w.bias)))
                    {
                        Some((g, bias)) if g < k && rng.gen_bool(bias) => g,
                        _ => rng.gen_range(0..k),
                    };
                    problem.apply_in_place(&mut sim, a);
                    depth += 1;
                }
                let key = problem.transposition_key(&sim);
                let state = match key {
                    Some(k) => {
                        if let Some(&r) = transpositions.get(&k) {
                            PendingState::Cached { state: sim.clone(), reward: r }
                        } else if let Some(&idx) = round_index.get(&k) {
                            PendingState::Fresh(idx)
                        } else {
                            round_index.insert(k, fresh.len());
                            fresh.push(sim.clone());
                            PendingState::Fresh(fresh.len() - 1)
                        }
                    }
                    None => {
                        fresh.push(sim.clone());
                        PendingState::Fresh(fresh.len() - 1)
                    }
                };
                pending.push(PendingRollout { leaf, state, key });
            }
            // One oracle call for everything the caches could not answer.
            let fresh_rewards =
                if fresh.is_empty() { Vec::new() } else { problem.evaluate_batch(&fresh) };
            assert_eq!(
                fresh_rewards.len(),
                fresh.len(),
                "evaluate_batch must return one reward per state"
            );
            oracle_evals += fresh.len();
            cache_hits += round - fresh.len();
            // Revert virtual losses, then backpropagate the real rewards in
            // collection order (identical statistics to the sequential loop
            // at K = 1).
            for p in &pending {
                revert_virtual_loss(&mut nodes, p.leaf, vl);
            }
            for p in pending {
                let raw = match &p.state {
                    PendingState::Cached { reward, .. } => *reward,
                    PendingState::Fresh(idx) => {
                        let r = fresh_rewards[*idx];
                        if let Some(k) = p.key {
                            transpositions.insert(k, r);
                        }
                        r
                    }
                };
                evaluations += 1;
                if raw > best_reward {
                    best_reward = raw;
                    best_state = Some(match p.state {
                        PendingState::Cached { state, .. } => state,
                        PendingState::Fresh(idx) => fresh[idx].clone(),
                    });
                }
                let norm = normalize_reward(raw, &mut reward_min, &mut reward_max);
                backpropagate(&mut nodes, p.leaf, norm, 1.0);
            }
        }

        SearchResult {
            best_state: best_state.unwrap_or(root_state),
            best_reward,
            evaluations,
            oracle_evals,
            cache_hits,
        }
    }
}

/// UCT descent while fully expanded and non-terminal, then one-action
/// expansion; returns the leaf to roll out from.
fn select_and_expand<P: DecisionProblem>(
    problem: &P,
    nodes: &mut Vec<Node<P::State>>,
    exploration: f64,
) -> usize {
    let mut cur = 0usize;
    loop {
        let n = &nodes[cur];
        if n.action_count == 0 || n.next_action < n.action_count {
            break;
        }
        let ln = n.visits.max(1.0).ln();
        let mut best_child = n.children[0];
        let mut best_ucb = f64::NEG_INFINITY;
        for &c in &n.children {
            let ch = &nodes[c];
            let mean = if ch.visits > 0.0 { ch.value / ch.visits } else { 0.5 };
            let ucb = mean + exploration * (ln / ch.visits.max(1e-9)).sqrt();
            if ucb > best_ucb {
                best_ucb = ucb;
                best_child = c;
            }
        }
        cur = best_child;
    }
    if nodes[cur].action_count > 0 {
        let a = nodes[cur].next_action;
        nodes[cur].next_action += 1;
        let child_state = problem.apply(&nodes[cur].state, a);
        let child_actions = problem.action_count(&child_state);
        let child = Node {
            state: child_state,
            parent: Some(cur),
            children: Vec::new(),
            next_action: 0,
            action_count: child_actions,
            depth: nodes[cur].depth + 1,
            visits: 0.0,
            value: 0.0,
        };
        nodes.push(child);
        let id = nodes.len() - 1;
        nodes[cur].children.push(id);
        id
    } else {
        cur
    }
}

/// Replays the warm-start guide from `root` to a terminal state, or `None`
/// when a depth is unguided or its action is out of range (the guide no
/// longer matches the problem's shape).
fn complete_with_guide<P: DecisionProblem>(
    problem: &P,
    root: &P::State,
    warm: &WarmStart,
) -> Option<P::State> {
    let mut state = root.clone();
    let mut depth = 0usize;
    loop {
        let k = problem.action_count(&state);
        if k == 0 {
            return Some(state);
        }
        match warm.guide.get(depth).copied().flatten() {
            Some(a) if a < k => problem.apply_in_place(&mut state, a),
            _ => return None,
        }
        depth += 1;
    }
}

/// Folds a raw reward into the running min/max and returns its min-max
/// normalization (disqualified rewards normalize to 0).
fn normalize_reward(raw: f64, reward_min: &mut f64, reward_max: &mut f64) -> f64 {
    let clamped = if raw.is_finite() { raw } else { reward_min.min(0.0) };
    if clamped.is_finite() {
        *reward_min = reward_min.min(clamped);
        *reward_max = reward_max.max(clamped);
    }
    let span = (*reward_max - *reward_min).max(1e-12);
    if raw.is_finite() {
        (raw - *reward_min) / span
    } else {
        0.0
    }
}

fn backpropagate<S>(nodes: &mut [Node<S>], leaf: usize, norm: f64, visits: f64) {
    let mut up = Some(leaf);
    while let Some(i) = up {
        nodes[i].visits += visits;
        nodes[i].value += norm;
        up = nodes[i].parent;
    }
}

fn apply_virtual_loss<S>(nodes: &mut [Node<S>], leaf: usize, vl: f64) {
    let mut up = Some(leaf);
    while let Some(i) = up {
        nodes[i].visits += vl;
        up = nodes[i].parent;
    }
}

fn revert_virtual_loss<S>(nodes: &mut [Node<S>], leaf: usize, vl: f64) {
    let mut up = Some(leaf);
    while let Some(i) = up {
        nodes[i].visits -= vl;
        up = nodes[i].parent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    impl Mcts {
        /// The classic one-rollout-per-iteration loop, kept verbatim as the
        /// executable reference: `search` with `batch == 1` must reproduce its
        /// trajectory exactly.
        fn search_sequential<P: DecisionProblem>(&self, problem: &P) -> SearchResult<P::State> {
            let mut rng = StdRng::seed_from_u64(self.config.seed);
            let root_state = problem.root();
            let root_actions = problem.action_count(&root_state);
            let mut nodes: Vec<Node<P::State>> = vec![Node {
                state: root_state.clone(),
                parent: None,
                children: Vec::new(),
                next_action: 0,
                action_count: root_actions,
                depth: 0,
                visits: 0.0,
                value: 0.0,
            }];
            let mut best_state = None;
            let mut best_reward = f64::NEG_INFINITY;
            let mut reward_min = f64::INFINITY;
            let mut reward_max = f64::NEG_INFINITY;
            let mut evaluations = 0;

            for _ in 0..self.config.iterations {
                let leaf = select_and_expand(problem, &mut nodes, self.config.exploration);
                // Simulation: random completion from the leaf.
                let mut sim = nodes[leaf].state.clone();
                loop {
                    let k = problem.action_count(&sim);
                    if k == 0 {
                        break;
                    }
                    let a = rng.gen_range(0..k);
                    sim = problem.apply(&sim, a);
                }
                let raw = problem.evaluate(&sim);
                evaluations += 1;
                if raw > best_reward {
                    best_reward = raw;
                    best_state = Some(sim);
                }
                let norm = normalize_reward(raw, &mut reward_min, &mut reward_max);
                backpropagate(&mut nodes, leaf, norm, 1.0);
            }

            SearchResult {
                best_state: best_state.unwrap_or(root_state),
                best_reward,
                evaluations,
                oracle_evals: evaluations,
                cache_hits: 0,
            }
        }
    }

    #[test]
    fn search_machinery_is_send() {
        // The fleet's shard-parallel executor runs one warm-started
        // search per shard on a worker thread: the search engine, its
        // config, the warm-start guide, and results must all be movable
        // across threads.
        fn assert_send<T: Send>() {}
        assert_send::<Mcts>();
        assert_send::<MctsConfig>();
        assert_send::<WarmStart>();
        assert_send::<SearchResult<Vec<usize>>>();
    }

    /// Maximize Σ bits over a fixed-length binary string.
    struct OneMax(usize);

    impl DecisionProblem for OneMax {
        type State = Vec<usize>;
        fn root(&self) -> Vec<usize> {
            Vec::new()
        }
        fn action_count(&self, s: &Vec<usize>) -> usize {
            if s.len() >= self.0 {
                0
            } else {
                2
            }
        }
        fn apply(&self, s: &Vec<usize>, a: usize) -> Vec<usize> {
            let mut t = s.clone();
            t.push(a);
            t
        }
        fn evaluate(&self, s: &Vec<usize>) -> f64 {
            s.iter().sum::<usize>() as f64
        }
    }

    /// A deceptive problem with a disqualification trap: any string
    /// containing a `2` is rejected (−∞), the rest score Σ bits.
    struct Trapped(usize);

    impl DecisionProblem for Trapped {
        type State = Vec<usize>;
        fn root(&self) -> Vec<usize> {
            Vec::new()
        }
        fn action_count(&self, s: &Vec<usize>) -> usize {
            if s.len() >= self.0 {
                0
            } else {
                3
            }
        }
        fn apply(&self, s: &Vec<usize>, a: usize) -> Vec<usize> {
            let mut t = s.clone();
            t.push(a);
            t
        }
        fn evaluate(&self, s: &Vec<usize>) -> f64 {
            if s.contains(&2) {
                f64::NEG_INFINITY
            } else {
                s.iter().sum::<usize>() as f64
            }
        }
    }

    /// OneMax with in-place application, a transposition key, and an
    /// oracle-call counter — the shape of the real mapping problem.
    struct CountedOneMax {
        len: usize,
        oracle_calls: Cell<usize>,
    }

    impl DecisionProblem for CountedOneMax {
        type State = Vec<usize>;
        fn root(&self) -> Vec<usize> {
            Vec::new()
        }
        fn action_count(&self, s: &Vec<usize>) -> usize {
            if s.len() >= self.len {
                0
            } else {
                2
            }
        }
        fn apply(&self, s: &Vec<usize>, a: usize) -> Vec<usize> {
            let mut t = s.clone();
            t.push(a);
            t
        }
        fn apply_in_place(&self, s: &mut Vec<usize>, a: usize) {
            s.push(a);
        }
        fn evaluate(&self, s: &Vec<usize>) -> f64 {
            self.oracle_calls.set(self.oracle_calls.get() + 1);
            s.iter().sum::<usize>() as f64
        }
        fn transposition_key(&self, s: &Vec<usize>) -> Option<u64> {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &b in s {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            Some(h)
        }
    }

    #[test]
    fn finds_onemax_optimum() {
        let r = Mcts::new(MctsConfig { iterations: 600, ..Default::default() })
            .search(&OneMax(8));
        assert_eq!(r.best_reward, 8.0);
        assert_eq!(r.best_state, vec![1; 8]);
    }

    #[test]
    fn survives_disqualification_traps() {
        let r = Mcts::new(MctsConfig { iterations: 1500, seed: 1, ..Default::default() })
            .search(&Trapped(6));
        assert!(r.best_reward.is_finite(), "must find a qualified state");
        assert_eq!(r.best_reward, 6.0, "should still find the optimum");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = MctsConfig { iterations: 300, seed: 9, ..Default::default() };
        let a = Mcts::new(cfg).search(&OneMax(6));
        let b = Mcts::new(cfg).search(&OneMax(6));
        assert_eq!(a.best_state, b.best_state);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn budget_controls_evaluations() {
        let r = Mcts::new(MctsConfig { iterations: 123, ..Default::default() })
            .search(&OneMax(4));
        assert_eq!(r.evaluations, 123);
    }

    #[test]
    fn more_budget_no_worse() {
        let small = Mcts::new(MctsConfig { iterations: 20, seed: 3, ..Default::default() })
            .search(&OneMax(12));
        let large = Mcts::new(MctsConfig { iterations: 2_000, seed: 3, ..Default::default() })
            .search(&OneMax(12));
        assert!(large.best_reward >= small.best_reward);
    }

    #[test]
    fn handles_root_terminal() {
        let r = Mcts::new(MctsConfig { iterations: 10, ..Default::default() })
            .search(&OneMax(0));
        assert_eq!(r.best_reward, 0.0);
        assert!(r.best_state.is_empty());
    }

    #[test]
    fn batched_k1_reproduces_sequential_trajectory() {
        for seed in 0..8 {
            let cfg = MctsConfig { iterations: 400, seed, batch: 1, ..Default::default() };
            let seq = Mcts::new(cfg).search_sequential(&OneMax(10));
            let bat = Mcts::new(cfg).search(&OneMax(10));
            assert_eq!(seq.best_state, bat.best_state, "seed {seed}: states diverged");
            assert_eq!(seq.best_reward, bat.best_reward, "seed {seed}: rewards diverged");
            assert_eq!(seq.evaluations, bat.evaluations, "seed {seed}: budgets diverged");
        }
    }

    #[test]
    fn batched_k1_reproduces_sequential_on_traps() {
        for seed in [0u64, 3, 11] {
            let cfg = MctsConfig { iterations: 900, seed, batch: 1, ..Default::default() };
            let seq = Mcts::new(cfg).search_sequential(&Trapped(6));
            let bat = Mcts::new(cfg).search(&Trapped(6));
            assert_eq!(seq.best_state, bat.best_state, "seed {seed}: states diverged");
            assert_eq!(seq.best_reward, bat.best_reward);
        }
    }

    #[test]
    fn batched_deterministic_and_budgeted_at_any_k() {
        for &k in &[2usize, 8, 32] {
            let cfg = MctsConfig { iterations: 500, seed: 4, batch: k, ..Default::default() };
            let a = Mcts::new(cfg).search(&OneMax(10));
            let b = Mcts::new(cfg).search(&OneMax(10));
            assert_eq!(a.best_state, b.best_state, "K={k} must stay deterministic");
            assert_eq!(a.evaluations, 500, "K={k} must spend the exact budget");
            assert_eq!(a.best_reward, 10.0, "K={k} should still solve OneMax(10)");
        }
    }

    #[test]
    fn transposition_cache_spares_oracle_calls() {
        // A 4-bit space has only 16 terminals; a 600-iteration search must
        // revisit, and revisits must not reach the oracle.
        let p = CountedOneMax { len: 4, oracle_calls: Cell::new(0) };
        let r = Mcts::new(MctsConfig { iterations: 600, seed: 2, ..Default::default() })
            .search(&p);
        assert_eq!(r.evaluations, 600);
        assert_eq!(r.oracle_evals, p.oracle_calls.get());
        assert!(
            p.oracle_calls.get() <= 16,
            "at most one oracle call per distinct terminal, got {}",
            p.oracle_calls.get()
        );
        assert_eq!(r.cache_hits, 600 - p.oracle_calls.get());
        assert_eq!(r.best_reward, 4.0);
    }

    #[test]
    fn round_duplicates_deduplicate_before_the_oracle() {
        // A 2-bit space has 4 terminals; a 16-wide round must hit
        // duplicates within the round, and they must not reach the oracle
        // even before the transposition cache is populated.
        let p = CountedOneMax { len: 2, oracle_calls: Cell::new(0) };
        let r = Mcts::new(MctsConfig { iterations: 64, seed: 5, batch: 16, ..Default::default() })
            .search(&p);
        assert_eq!(r.evaluations, 64);
        assert!(
            p.oracle_calls.get() <= 4,
            "at most one oracle call per distinct terminal, got {}",
            p.oracle_calls.get()
        );
        assert_eq!(r.oracle_evals, p.oracle_calls.get());
        assert_eq!(r.cache_hits, 64 - p.oracle_calls.get());
        assert_eq!(r.best_reward, 2.0);
    }

    #[test]
    fn warm_start_never_regresses_the_incumbent() {
        // Give the search a strong incumbent and a starvation budget: the
        // seeded evaluation must keep the incumbent's reward as the floor.
        for seed in 0..6u64 {
            let warm = WarmStart::pinned(vec![1usize; 12], 0.9);
            let r = Mcts::new(MctsConfig { iterations: 10, seed, ..Default::default() })
                .search_warm(&OneMax(12), &warm);
            assert!(
                r.best_reward >= 12.0,
                "seed {seed}: warm search fell below the incumbent: {}",
                r.best_reward
            );
            assert_eq!(r.best_state, vec![1; 12]);
        }
    }

    #[test]
    fn warm_start_rediscovers_the_delta() {
        // Guide the first 8 depths to 1 and leave the last 4 unguided: the
        // incumbent completion is impossible (guide incomplete), but the
        // bias concentrates the budget on the open suffix.
        let mut guide: Vec<Option<usize>> = vec![Some(1); 8];
        guide.extend(std::iter::repeat_n(None, 4));
        let warm = WarmStart { guide, bias: 0.95 };
        let r = Mcts::new(MctsConfig { iterations: 200, seed: 2, ..Default::default() })
            .search_warm(&OneMax(12), &warm);
        assert_eq!(r.best_reward, 12.0, "biased search should solve the suffix");
    }

    #[test]
    fn warm_start_spends_the_same_budget() {
        let warm = WarmStart::pinned(vec![1usize; 6], 0.8);
        let r = Mcts::new(MctsConfig { iterations: 77, seed: 1, ..Default::default() })
            .search_warm(&OneMax(6), &warm);
        assert_eq!(r.evaluations, 77, "the seeded evaluation counts against the budget");
    }

    #[test]
    fn warm_start_deterministic_given_seed() {
        let warm = WarmStart::pinned(vec![1usize, 0, 1, 0, 1, 0], 0.7);
        let cfg = MctsConfig { iterations: 150, seed: 8, batch: 4, ..Default::default() };
        let a = Mcts::new(cfg).search_warm(&OneMax(6), &warm);
        let b = Mcts::new(cfg).search_warm(&OneMax(6), &warm);
        assert_eq!(a.best_state, b.best_state);
        assert_eq!(a.best_reward, b.best_reward);
    }

    #[test]
    fn warm_start_ignores_out_of_range_guides() {
        // A guide action outside the action space must not be followed (or
        // crash) — the rollout falls back to uniform sampling.
        let warm = WarmStart::pinned(vec![7usize; 6], 1.0);
        let r = Mcts::new(MctsConfig { iterations: 300, seed: 3, ..Default::default() })
            .search_warm(&OneMax(6), &warm);
        assert_eq!(r.best_reward, 6.0);
    }

    #[test]
    fn virtual_loss_diversifies_rounds_without_breaking_search() {
        let cfg = MctsConfig {
            iterations: 800,
            seed: 6,
            batch: 16,
            virtual_loss: 2.0,
            ..Default::default()
        };
        let r = Mcts::new(cfg).search(&Trapped(6));
        assert_eq!(r.best_reward, 6.0, "batched search must still dodge the traps");
    }
}
