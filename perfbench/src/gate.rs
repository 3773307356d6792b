//! The correctness gate.
//!
//! Every response the server sends must be byte-identical to a fresh
//! in-process `wire::process_batch` rendering of the same lines (ids
//! included).  Each reference response is validated once when it is made:
//! an `ok` makespan must be at least every lower bound the response itself
//! reports, and a returned schedule must replay through
//! `cr_core::Schedule::makespan` to exactly the reported makespan.  A
//! mismatch is an error, never a slow sample.

use crate::workload::Flush;
use cr_core::Schedule;
use cr_service::{wire, SolverService};
use serde::{Deserialize, Value};
use std::collections::HashMap;

/// Error kinds by which the serving tier refuses a request without
/// solving it.  Refusals count as failed and skip the identity check.
const REFUSALS: [&str; 4] = ["overloaded", "draining", "quota_exceeded", "idle_timeout"];

/// Splits a response line `{"id":N,…` into `N` and the bytes after it.
fn split_id(line: &str) -> Option<(u64, &str)> {
    let rest = line.strip_prefix(r#"{"id":"#)?;
    let end = rest.find(',')?;
    Some((rest[..end].parse().ok()?, &rest[end..]))
}

/// Whether a response line answers `ok` (rather than an error).
pub fn is_ok(response: &str) -> bool {
    !response.contains(r#","ok":null,"#)
}

/// Whether a response line is a refusal by the serving tier.
fn is_refusal(response: &str) -> bool {
    REFUSALS
        .iter()
        .any(|kind| response.contains(&format!(r#""error":{{"kind":"{kind}""#)))
}

/// The integer a JSON value holds, if it is one.
pub fn int(value: &Value) -> Option<i128> {
    match value {
        Value::Number(n) => n.as_i128(),
        _ => None,
    }
}

fn number(value: &Value, key: &str) -> Option<i128> {
    value.get(key).and_then(int)
}

/// Validates one reference response against the request line it answers.
fn validate(request: &str, response: &str) -> Result<(), String> {
    let value: Value =
        serde_json::from_str(response).map_err(|e| format!("response is not JSON: {e}"))?;
    let Some(ok) = value.get("ok").filter(|ok| !matches!(ok, Value::Null)) else {
        return Ok(());
    };
    let Some(makespan) = number(ok, "makespan") else {
        return Ok(());
    };
    let bounds = ok
        .get("lower_bounds")
        .ok_or("ok response without lower_bounds")?;
    for key in ["workload", "chain", "volume_chain", "trivial", "best"] {
        if let Some(bound) = number(bounds, key) {
            if makespan < bound {
                return Err(format!("makespan {makespan} below its {key} bound {bound}"));
            }
        }
    }
    if let Some(schedule) = ok.get("schedule").filter(|s| !matches!(s, Value::Null)) {
        let schedule = Schedule::deserialize(schedule).map_err(|e| format!("schedule: {e}"))?;
        let instance = wire::parse_request(request, 0)?.request.instance;
        let replayed = schedule
            .makespan(&instance)
            .map_err(|e| format!("returned schedule is infeasible: {e}"))?;
        if i128::try_from(replayed).ok() != Some(makespan) {
            return Err(format!(
                "schedule replays to makespan {replayed}, response says {makespan}"
            ));
        }
    }
    Ok(())
}

/// The in-process reference and the cache of already-validated
/// references of repeating flushes.
pub struct Gate {
    service: SolverService,
    /// Id-stripped reference responses by flush key.
    cache: HashMap<usize, Vec<String>>,
}

impl Gate {
    /// A gate over a fresh service with the standard registry.
    pub fn new() -> Gate {
        Gate {
            service: SolverService::with_standard_registry(),
            cache: HashMap::new(),
        }
    }

    /// Renders and validates the reference of `flush`, ids stripped.
    fn render(&self, flush: &Flush) -> Result<Vec<String>, String> {
        let responses = wire::process_batch(&self.service, &flush.lines, 0);
        flush
            .lines
            .iter()
            .zip(&responses)
            .map(|(request, response)| {
                validate(request, response).map_err(|e| format!("{e}\n  request: {request}"))?;
                split_id(response)
                    .map(|(_, rest)| rest.to_string())
                    .ok_or_else(|| format!("reference response without id: {response}"))
            })
            .collect()
    }

    /// Renders the references of a repeating flush ahead of time, so that
    /// checking it later costs a comparison only.
    pub fn prime(&mut self, flush: &Flush) -> Result<(), String> {
        if let Some(key) = flush.key {
            if !self.cache.contains_key(&key) {
                let reference = self.render(flush)?;
                self.cache.insert(key, reference);
            }
        }
        Ok(())
    }

    /// Checks the server's `responses` to `flush`, whose first line the
    /// server numbered `first_id`.  Refusals are not compared.
    pub fn check(
        &mut self,
        flush: &Flush,
        first_id: u64,
        responses: &[String],
    ) -> Result<(), String> {
        if responses.len() != flush.lines.len() {
            return Err(format!(
                "{} responses to {} requests",
                responses.len(),
                flush.lines.len()
            ));
        }
        self.prime(flush)?;
        let fresh;
        let reference = match flush.key {
            Some(key) => &self.cache[&key],
            None => {
                fresh = self.render(flush)?;
                &fresh
            }
        };
        for (i, (response, expected)) in responses.iter().zip(reference).enumerate() {
            if is_refusal(response) {
                continue;
            }
            let id = first_id + i as u64;
            match split_id(response) {
                Some((got, rest)) if got == id && rest == expected => {}
                _ => {
                    return Err(format!(
                        "response differs from the in-process reference\n  request:  {}\n  got:      {response}\n  expected: {{\"id\":{id}{expected}",
                        flush.lines[i]
                    ))
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_split_off_the_front() {
        assert_eq!(
            split_id(r#"{"id":12,"method":"OptM"}"#),
            Some((12, r#","method":"OptM"}"#))
        );
        assert_eq!(split_id(r#"{"control":"stats"}"#), None);
    }

    #[test]
    fn a_tampered_response_fails_the_gate() {
        let _global = crate::global_obs_lock();
        let flush = Flush {
            lines: vec![
                r#"{"method":"GreedyBalance","want_schedule":true,"rows":[[60,40],[40,60]]}"#
                    .to_string(),
            ],
            key: None,
        };
        let mut gate = Gate::new();
        let good = wire::process_batch(&SolverService::with_standard_registry(), &flush.lines, 5);
        gate.check(&flush, 5, &good).expect("the reference passes");
        assert!(gate.check(&flush, 6, &good).is_err(), "wrong id");
        let bad = vec![good[0].replacen("\"makespan\":", "\"makespan\":1", 1)];
        assert!(gate.check(&flush, 5, &bad).is_err(), "wrong makespan");
    }

    #[test]
    fn refusals_count_as_failed_not_as_mismatches() {
        let _global = crate::global_obs_lock();
        let flush = Flush {
            lines: vec![r#"{"method":"Bounds","rows":[[50]]}"#.to_string()],
            key: None,
        };
        let refusal = wire::render_item(&wire::BatchItem::rejected(0, "overloaded", "busy"));
        assert!(!is_ok(&refusal));
        assert_eq!(Gate::new().check(&flush, 0, &[refusal]), Ok(()));
    }

    #[test]
    fn a_wrong_schedule_fails_validation() {
        let _global = crate::global_obs_lock();
        let request = r#"{"method":"GreedyBalance","want_schedule":true,"rows":[[60,40],[40,60]]}"#;
        let service = SolverService::with_standard_registry();
        let good = wire::process_batch(&service, &[request.to_string()], 0);
        assert_eq!(validate(request, &good[0]), Ok(()));
        let claimed = number(
            serde_json::from_str::<Value>(&good[0])
                .expect("json")
                .get("ok")
                .expect("ok"),
            "makespan",
        )
        .expect("makespan");
        let lie = good[0].replacen(
            &format!("\"makespan\":{claimed}"),
            &format!("\"makespan\":{}", claimed + 1),
            1,
        );
        assert!(validate(request, &lie).is_err());
    }
}
