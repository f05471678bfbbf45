//! The Fig. 12 benchmark: `argo::init()` + `argo::finalize()` wall time.

use ibsim_event::{Engine, SimTime};
use ibsim_verbs::Cluster;

use crate::config::DsmConfig;
use crate::dsm::Dsm;

/// Runs one init+finalize trial and returns its wall-clock time.
///
/// # Panics
///
/// Panics if the simulation drains before `finalize` completes.
pub fn init_finalize_once(cfg: DsmConfig) -> SimTime {
    let mut eng = Engine::new();
    let mut cl = Cluster::new(cfg.seed);
    let dsm = Dsm::build(&mut eng, &mut cl, cfg);
    let finished = std::rc::Rc::new(std::cell::Cell::new(SimTime::ZERO));
    let fin = finished.clone();
    let dsm2 = dsm.clone();
    dsm.init(&mut eng, &mut cl, move |eng, cl, _| {
        let fin = fin.clone();
        dsm2.finalize(eng, cl, move |_, _, at| fin.set(at));
    });
    eng.run(&mut cl);
    let t = finished.get();
    assert!(t > SimTime::ZERO, "benchmark did not finish");
    t
}

/// Runs `trials` init+finalize trials with distinct seeds — the Fig. 12
/// histogram data.
pub fn init_finalize_histogram(cfg: &DsmConfig, trials: u64) -> Vec<SimTime> {
    (0..trials)
        .map(|t| {
            let mut c = cfg.clone();
            c.seed = cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(t + 1);
            init_finalize_once(c)
        })
        .collect()
}

/// Mean of a sample.
pub fn mean(samples: &[SimTime]) -> SimTime {
    if samples.is_empty() {
        return SimTime::ZERO;
    }
    samples.iter().copied().sum::<SimTime>() / samples.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_odp_time_is_compute_bound() {
        let cfg = DsmConfig {
            odp: false,
            compute_base: SimTime::from_ms(100),
            compute_jitter: SimTime::from_ms(10),
            ..Default::default()
        };
        let t = init_finalize_once(cfg);
        assert!(
            (SimTime::from_ms(100)..SimTime::from_ms(130)).contains(&t),
            "compute-bound: {t}"
        );
    }

    #[test]
    fn with_odp_some_trials_dam() {
        // With the damming-prone gap distribution, trials split into a
        // fast group and a ~2 s (transport timeout) slower group.
        let cfg = DsmConfig {
            odp: true,
            compute_base: SimTime::from_ms(100),
            compute_jitter: SimTime::from_ms(10),
            lock_gap_max: SimTime::from_ms(8),
            ..Default::default()
        };
        let samples = init_finalize_histogram(&cfg, 12);
        let slow = samples
            .iter()
            .filter(|t| **t > SimTime::from_ms(1000))
            .count();
        let fast = samples.len() - slow;
        assert!(slow > 0, "some trials hit the timeout: {samples:?}");
        assert!(fast > 0, "some trials stay fast: {samples:?}");
        // The slow group sits ~T_o(18) ≈ 2 s above the fast group.
        let slow_min = samples
            .iter()
            .filter(|t| **t > SimTime::from_ms(1000))
            .min();
        assert!(*slow_min.unwrap() > SimTime::from_ms(1900));
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), SimTime::ZERO);
        assert_eq!(
            mean(&[SimTime::from_ms(1), SimTime::from_ms(3)]),
            SimTime::from_ms(2)
        );
    }
}
