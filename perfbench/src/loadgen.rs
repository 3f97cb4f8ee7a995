//! Open-loop query schedule and due-time accounting for `serve`.
//!
//! Queries are due on a seeded Poisson schedule, independent of how fast
//! the service answers: independent operators polling a live service do
//! not wait for each other. They share one persistent connection, so a
//! slow answer delays the queries due behind it; every query is timed
//! from its *due* time, which charges that wait to the service. The
//! generator's own lateness is how long after it could have sent (the
//! later of the due time and the moment the connection was free) it did
//! send: thread wake-up delay, which says whether the latencies measure
//! the service or the load generator.

use st_bench::splitmix64;

/// One query of the fixed mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Global counters.
    Status,
    /// One partition's detail, by city index.
    City(usize),
    /// Warm headline figures and tables.
    Headline,
    /// Sanitize taxonomy.
    Quarantine,
    /// The full metrics snapshot.
    Metrics,
}

/// The mix, in per-mille: status 300, city 300, headline 200,
/// quarantine 100, metrics 100.
const MIX: [(u64, Query); 5] = [
    (300, Query::Status),
    (300, Query::City(0)),
    (200, Query::Headline),
    (100, Query::Quarantine),
    (100, Query::Metrics),
];

impl Query {
    /// The `kind` the server answers with.
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Status => "status",
            Query::City(_) => "city",
            Query::Headline => "headline",
            Query::Quarantine => "quarantine",
            Query::Metrics => "metrics",
        }
    }

    /// The request line (without the newline).
    pub fn request(&self, cities: &[&str]) -> String {
        match self {
            Query::City(i) => format!("{{\"cmd\":\"city\",\"city\":\"{}\"}}", cities[*i]),
            other => format!("{{\"cmd\":\"{}\"}}", other.kind()),
        }
    }
}

/// Seeded Poisson arrivals with the fixed query mix.
#[derive(Debug, Clone)]
pub struct Schedule {
    state: u64,
    rate_per_s: f64,
    cities: usize,
    due_s: f64,
}

impl Schedule {
    /// Arrivals at `rate_per_s` on average, city queries spread over
    /// `cities` partitions.
    pub fn new(seed: u64, rate_per_s: f64, cities: usize) -> Schedule {
        assert!(rate_per_s > 0.0 && cities > 0, "a schedule needs a rate and a city");
        Schedule { state: seed ^ 0x71e5_7a11_5eed_0001, rate_per_s, cities, due_s: 0.0 }
    }

    fn unit(&mut self) -> f64 {
        (splitmix64(&mut self.state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The next query and its due time, seconds from the phase start.
    pub fn next_query(&mut self) -> (f64, Query) {
        self.due_s += -(1.0 - self.unit()).ln() / self.rate_per_s;
        let mut pick = splitmix64(&mut self.state) % 1000;
        let mut query = Query::Status;
        for (weight, q) in MIX {
            if pick < weight {
                query = q;
                break;
            }
            pick -= weight;
        }
        if let Query::City(_) = query {
            query = Query::City((splitmix64(&mut self.state) % self.cities as u64) as usize);
        }
        (self.due_s, query)
    }
}

/// Timestamps of one query, seconds from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the schedule said to send it.
    pub due: f64,
    /// When the connection finished the previous query.
    pub free: f64,
    /// When the request was written.
    pub sent: f64,
    /// When the answer (or the error) came back.
    pub done: f64,
}

impl Timing {
    /// Latency charged to the service: from the due time to the answer.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator itself sent: after the due time and after
    /// the connection was free, whichever was later.
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due.max(self.free)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time_and_charges_queueing_to_the_service() {
        // Due at 1.0 but the connection was busy until 1.5: the wait is
        // the service's, not the generator's.
        let t = Timing { due: 1.0, free: 1.5, sent: 1.5002, done: 1.6 };
        assert!((t.latency() - 0.6).abs() < 1e-12);
        assert!((t.lateness() - 0.0002).abs() < 1e-12);
        // On time with a free connection: latency is the round trip and
        // lateness is the wake-up delay.
        let t = Timing { due: 2.0, free: 1.6, sent: 2.001, done: 2.003 };
        assert!((t.latency() - 0.003).abs() < 1e-12);
        assert!((t.lateness() - 0.001).abs() < 1e-12);
        // A send before the due time is never negative lateness.
        let t = Timing { due: 3.0, free: 1.0, sent: 2.9999, done: 3.001 };
        assert_eq!(t.lateness(), 0.0);
    }

    #[test]
    fn schedule_is_seeded_increasing_and_matches_its_rate_and_mix() {
        let mut a = Schedule::new(7, 200.0, 4);
        let mut b = Schedule::new(7, 200.0, 4);
        let draws: Vec<(f64, Query)> = (0..20_000).map(|_| a.next_query()).collect();
        for d in &draws[..100] {
            assert_eq!(*d, b.next_query(), "same seed, same schedule");
        }
        assert!(draws.windows(2).all(|w| w[1].0 > w[0].0), "due times increase");
        let span = draws.last().unwrap().0;
        let rate = draws.len() as f64 / span;
        assert!((rate - 200.0).abs() < 6.0, "mean rate {rate}");
        let share = |k: &str| {
            draws.iter().filter(|(_, q)| q.kind() == k).count() as f64 / draws.len() as f64
        };
        assert!((share("status") - 0.3).abs() < 0.02);
        assert!((share("city") - 0.3).abs() < 0.02);
        assert!((share("metrics") - 0.1).abs() < 0.02);
        assert!(draws.iter().any(|(_, q)| *q == Query::City(3)));
        assert!(draws.iter().all(|(_, q)| !matches!(q, Query::City(i) if *i >= 4)));
        assert_ne!(draws[0], Schedule::new(8, 200.0, 4).next_query());
    }

    #[test]
    fn requests_are_one_json_object_each() {
        assert_eq!(Query::Status.request(&["A"]), "{\"cmd\":\"status\"}");
        assert_eq!(Query::City(1).request(&["A", "B"]), "{\"cmd\":\"city\",\"city\":\"B\"}");
    }
}
