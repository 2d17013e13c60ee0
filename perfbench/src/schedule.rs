//! The seeded open-loop request schedule of `serve-mix`.
//!
//! Requests are due at fixed spacing (`i / rate`). In every block of
//! [`FRESH_EVERY`] requests, one at a seeded position is a fresh
//! `/v1/experiments` key (app × model × consistency × window × width)
//! drawn without replacement across the whole run, so no fresh key is
//! ever answered from the service's memo; the others are seeded picks
//! from the warmed hot set. Every field of a fresh key is dealt from a
//! seeded shuffled deck (windows by bin), so every run has the same mix
//! of cheap and expensive fresh work and a seed moves only which keys
//! and when.
//! The same seed gives the same schedule.

use crate::config::FRESH_EVERY;
use lookahead_isa::rng::XorShift64;
use lookahead_workloads::App;
use std::collections::HashSet;
use std::time::Duration;

/// One `/v1/experiments` query, as the service canonicalizes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Experiment {
    pub app: &'static str,
    pub model: &'static str,
    pub consistency: &'static str,
    pub window: usize,
    pub width: usize,
}

impl Experiment {
    pub fn target(&self) -> String {
        format!(
            "/v1/experiments?app={}&model={}&consistency={}&window={}&width={}",
            self.app, self.model, self.consistency, self.window, self.width
        )
    }
}

const MODELS: [&str; 3] = ["ssbr", "ss", "ds"];
const CONSISTENCY: [&str; 4] = ["SC", "PC", "WO", "RC"];
/// Fresh windows: a dealt bin of [`WINDOW_BIN`] sizes from 16 up, then
/// a seeded size within it (DS cost grows with the window).
const WINDOW_BINS: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
const WINDOW_BIN: usize = 30;
const WIDTHS: [usize; 3] = [1, 2, 4];

/// The hot `/v1/experiments` keys; set-up warms them.
const HOT_EXPERIMENTS: [Experiment; 4] = [
    Experiment {
        app: "LU",
        model: "ds",
        consistency: "RC",
        window: 64,
        width: 1,
    },
    Experiment {
        app: "MP3D",
        model: "ds",
        consistency: "RC",
        window: 128,
        width: 1,
    },
    Experiment {
        app: "OCEAN",
        model: "ss",
        consistency: "PC",
        window: 64,
        width: 1,
    },
    Experiment {
        app: "PTHOR",
        model: "ds",
        consistency: "SC",
        window: 32,
        width: 2,
    },
];

/// The hot set: every application's Figure 3, the §7 summary, and a
/// few experiment keys.
pub fn hot_targets() -> Vec<String> {
    let mut hot: Vec<String> = App::ALL
        .iter()
        .map(|a| format!("/v1/figure3?app={}", a.name()))
        .collect();
    hot.push("/v1/summary".to_string());
    hot.extend(HOT_EXPERIMENTS.iter().map(Experiment::target));
    hot
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// When it is due, from the start of its phase.
    pub due: Duration,
    pub target: String,
    /// Index into [`hot_targets`], or `None` for a fresh key.
    pub hot: Option<usize>,
}

/// Draws phases of requests from one seeded stream, never repeating a
/// fresh key within a run.
pub struct Schedule {
    rng: XorShift64,
    hot: Vec<String>,
    drawn: HashSet<Experiment>,
    apps: Vec<&'static str>,
    models: Vec<&'static str>,
    consistency: Vec<&'static str>,
    bins: Vec<usize>,
    widths: Vec<usize>,
}

/// Takes the next card, reshuffling a full deck when it runs out.
fn deal<T: Copy>(rng: &mut XorShift64, deck: &mut Vec<T>, full: &[T]) -> T {
    if deck.is_empty() {
        deck.extend_from_slice(full);
        for i in (1..deck.len()).rev() {
            deck.swap(i, rng.range_usize(i + 1));
        }
    }
    deck.pop().expect("a refilled deck is not empty")
}

impl Schedule {
    pub fn new(seed: u64) -> Schedule {
        Schedule {
            rng: XorShift64::seed_from_u64(seed),
            hot: hot_targets(),
            drawn: HOT_EXPERIMENTS.iter().copied().collect(),
            apps: Vec::new(),
            models: Vec::new(),
            consistency: Vec::new(),
            bins: Vec::new(),
            widths: Vec::new(),
        }
    }

    fn fresh(&mut self) -> Experiment {
        let rng = &mut self.rng;
        let app = deal(rng, &mut self.apps, &App::ALL.map(App::name));
        let model = deal(rng, &mut self.models, &MODELS);
        let consistency = deal(rng, &mut self.consistency, &CONSISTENCY);
        let bin = deal(rng, &mut self.bins, &WINDOW_BINS);
        let width = deal(rng, &mut self.widths, &WIDTHS);
        loop {
            let e = Experiment {
                app,
                model,
                consistency,
                window: 16 + bin * WINDOW_BIN + rng.range_usize(WINDOW_BIN),
                width,
            };
            if self.drawn.insert(e) {
                return e;
            }
        }
    }

    /// `count` requests due at `rate` per second.
    pub fn phase(&mut self, rate: f64, count: usize) -> Vec<Request> {
        let mut fresh_at = 0;
        (0..count)
            .map(|i| {
                if i % FRESH_EVERY == 0 {
                    fresh_at = i + self.rng.range_usize(FRESH_EVERY);
                }
                let due = Duration::from_secs_f64(i as f64 / rate);
                if i == fresh_at {
                    Request {
                        due,
                        target: self.fresh().target(),
                        hot: None,
                    }
                } else {
                    let h = self.rng.range_usize(self.hot.len());
                    Request {
                        due,
                        target: self.hot[h].clone(),
                        hot: Some(h),
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64) -> Vec<Request> {
        let mut s = Schedule::new(seed);
        let mut all = s.phase(100.0, 500);
        all.extend(s.phase(400.0, 500));
        all
    }

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn fresh_keys_never_repeat_and_never_hit_the_hot_set() {
        let all = run(3);
        let hot = hot_targets();
        let fresh: Vec<&str> = all
            .iter()
            .filter(|r| r.hot.is_none())
            .map(|r| r.target.as_str())
            .collect();
        let unique: HashSet<&str> = fresh.iter().copied().collect();
        assert_eq!(unique.len(), fresh.len());
        assert!(fresh.iter().all(|t| !hot.iter().any(|h| h == t)));
        // Exactly one request in FRESH_EVERY is fresh.
        assert_eq!(fresh.len() * FRESH_EVERY, all.len());
    }

    #[test]
    fn fresh_keys_deal_every_app_and_model_evenly() {
        let mut s = Schedule::new(5);
        let fresh: Vec<Experiment> = (0..30).map(|_| s.fresh()).collect();
        for app in App::ALL {
            assert_eq!(fresh.iter().filter(|e| e.app == app.name()).count(), 6);
        }
        for model in MODELS {
            assert_eq!(fresh.iter().filter(|e| e.model == model).count(), 10);
        }
    }

    #[test]
    fn requests_are_due_at_fixed_spacing() {
        let mut s = Schedule::new(1);
        let p = s.phase(200.0, 3);
        let due: Vec<Duration> = p.iter().map(|r| r.due).collect();
        assert_eq!(due, [0, 5, 10].map(Duration::from_millis).to_vec());
    }
}
