//! Problem instances of the CRSharing problem.
//!
//! An [`Instance`] is a set of `m` processors, each with a fixed, ordered
//! sequence of [`Job`]s.  The scheduler may *only* decide how the shared
//! continuous resource is split among the processors at each discrete time
//! step; job-to-processor assignment and per-processor job order are part of
//! the input (this is the defining restriction of the paper's model compared
//! to general discrete-continuous scheduling).

use crate::error::InstanceError;
use crate::job::{Job, JobId};
use crate::rational::Ratio;
use serde::{Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::fmt;

/// A CRSharing problem instance.
///
/// ## Multi-resource instances
///
/// The paper's base model shares **one** continuous resource; this
/// representation optionally carries `k − 1` *extra* resource layers so the
/// whole pipeline can speak the `k`-resource generalization (memory
/// bandwidth, bus, cache slices, …).  Job `(i, j)` then has the requirement
/// vector `(r⁰_ij, r¹_ij, …)`: layer `0` is [`Job::requirement`] and layer
/// `r ≥ 1` is `extra[r − 1][i][j]`, all sharing the job's single volume.
/// `k = 1` instances keep `extra` empty and are represented (and
/// serialized) exactly as before the generalization — the scalar model is
/// the fast path, not a special case bolted on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// `jobs[i]` is the ordered job sequence of processor `i`.
    jobs: Vec<Vec<Job>>,
    /// `extra[r − 1][i][j]` is the requirement of job `(i, j)` on resource
    /// `r`; empty for single-resource instances.
    extra: Vec<Vec<Vec<Ratio>>>,
}

// The vendored serde derive has no `#[serde(default)]` support, and the
// multi-resource extension must keep old single-resource JSON parsing (and
// old byte-identical serialization for `k = 1`), so both directions are
// spelled out by hand: `extra` is omitted when empty and optional on input.
impl Serialize for Instance {
    fn serialize(&self) -> Value {
        let mut fields = vec![("jobs".to_string(), self.jobs.serialize())];
        if !self.extra.is_empty() {
            fields.push(("extra".to_string(), self.extra.serialize()));
        }
        Value::Object(fields)
    }
}

impl<'de> Deserialize<'de> for Instance {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        let jobs: Vec<Vec<Job>> = serde::de_field(value, "jobs")?;
        let extra: Vec<Vec<Vec<Ratio>>> = match value.get("extra") {
            Some(v) => Deserialize::deserialize(v)?,
            None => Vec::new(),
        };
        // Like the derived impl this performs no model validation; consumers
        // that accept untrusted input re-validate via `Instance::new` /
        // `Instance::with_resources` (see `cr-service`'s sanitizer).
        Ok(Instance { jobs, extra })
    }
}

impl Instance {
    /// Creates an instance from explicit per-processor job sequences and
    /// validates it.
    ///
    /// # Errors
    ///
    /// Returns an error if there are no processors, a requirement lies
    /// outside `[0, 1]`, or a volume is not strictly positive.  Processors
    /// with empty job sequences are allowed (they are simply never active).
    pub fn new(jobs: Vec<Vec<Job>>) -> Result<Self, InstanceError> {
        if jobs.is_empty() {
            return Err(InstanceError::NoProcessors);
        }
        for (i, row) in jobs.iter().enumerate() {
            for (j, job) in row.iter().enumerate() {
                if !job.requirement.in_unit_interval() {
                    return Err(InstanceError::RequirementOutOfRange {
                        job: JobId::new(i, j),
                        requirement: job.requirement,
                    });
                }
                if !job.volume.is_positive() {
                    return Err(InstanceError::NonPositiveVolume {
                        job: JobId::new(i, j),
                        volume: job.volume,
                    });
                }
            }
        }
        Ok(Instance {
            jobs,
            extra: Vec::new(),
        })
    }

    /// Creates a **multi-resource** instance: the base job matrix plus
    /// `k − 1` extra resource layers, where `extra[r − 1][i][j]` is the
    /// requirement of job `(i, j)` on resource `r` (layer `0` being the
    /// jobs' own requirements).  An empty `extra` yields a plain
    /// single-resource instance.
    ///
    /// # Errors
    ///
    /// Returns an error if the base matrix is invalid (see
    /// [`Instance::new`]), a layer does not mirror the job matrix shape, or
    /// an extra requirement lies outside `[0, 1]`.
    pub fn with_resources(
        jobs: Vec<Vec<Job>>,
        extra: Vec<Vec<Vec<Ratio>>>,
    ) -> Result<Self, InstanceError> {
        let mut instance = Instance::new(jobs)?;
        for (e, layer) in extra.iter().enumerate() {
            let resource = e + 1;
            if layer.len() != instance.processors() {
                return Err(InstanceError::ResourceLayerProcessorMismatch {
                    resource,
                    expected: instance.processors(),
                    found: layer.len(),
                });
            }
            for (i, row) in layer.iter().enumerate() {
                if row.len() != instance.jobs_on(i) {
                    return Err(InstanceError::ResourceLayerJobsMismatch {
                        resource,
                        processor: i,
                        expected: instance.jobs_on(i),
                        found: row.len(),
                    });
                }
                for (j, &requirement) in row.iter().enumerate() {
                    if !requirement.in_unit_interval() {
                        return Err(InstanceError::ResourceRequirementOutOfRange {
                            resource,
                            job: JobId::new(i, j),
                            requirement,
                        });
                    }
                }
            }
        }
        instance.extra = extra;
        Ok(instance)
    }

    /// Builds a **unit-size multi-resource** instance from per-resource
    /// requirement grids: `layers[r][i][j]` is the requirement of job
    /// `(i, j)` on resource `r`.  Layer `0` defines the jobs themselves
    /// (unit volume); later layers become extra resources.
    ///
    /// # Errors
    ///
    /// Returns [`InstanceError::NoProcessors`] when `layers` is empty and
    /// any validation error of [`Instance::with_resources`].
    pub fn multi_unit_from_requirements(
        mut layers: Vec<Vec<Vec<Ratio>>>,
    ) -> Result<Self, InstanceError> {
        if layers.is_empty() {
            return Err(InstanceError::NoProcessors);
        }
        let extra = layers.split_off(1);
        let jobs = layers
            .remove(0)
            .into_iter()
            .map(|row| row.into_iter().map(Job::unit).collect())
            .collect();
        Instance::with_resources(jobs, extra)
    }

    /// Builds a **unit-size** instance from per-processor requirement lists.
    ///
    /// # Panics
    ///
    /// Panics if validation fails; use [`Instance::new`] for fallible
    /// construction.
    #[must_use]
    pub fn unit_from_requirements(reqs: Vec<Vec<Ratio>>) -> Self {
        let jobs = reqs
            .into_iter()
            .map(|row| row.into_iter().map(Job::unit).collect())
            .collect();
        Instance::new(jobs).expect("invalid unit-size instance")
    }

    /// Builds a unit-size instance from integer percentages, matching the
    /// notation of the paper's figures (e.g. Figure 1 uses rows
    /// `[20, 10, 10, 10]`, `[50, 55, 90, 55, 10]`, `[50, 40, 95]`).
    ///
    /// # Panics
    ///
    /// Panics if a percentage lies outside `[0, 100]`.
    #[must_use]
    pub fn unit_from_percentages(rows: &[&[i64]]) -> Self {
        let reqs = rows
            .iter()
            .map(|row| row.iter().map(|&p| Ratio::from_percent(p)).collect())
            .collect();
        Instance::unit_from_requirements(reqs)
    }

    /// Number of processors `m`.
    #[must_use]
    pub fn processors(&self) -> usize {
        self.jobs.len()
    }

    /// Number of jobs `nᵢ` on processor `i`.
    #[must_use]
    pub fn jobs_on(&self, processor: usize) -> usize {
        self.jobs[processor].len()
    }

    /// The maximum chain length `n = maxᵢ nᵢ`.
    #[must_use]
    pub fn max_chain_length(&self) -> usize {
        self.jobs.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Total number of jobs over all processors.
    #[must_use]
    pub fn total_jobs(&self) -> usize {
        self.jobs.iter().map(Vec::len).sum()
    }

    /// Returns the job `(i, j)`.
    #[must_use]
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.processor][id.index]
    }

    /// Returns the job sequence of processor `i`.
    #[must_use]
    pub fn processor_jobs(&self, processor: usize) -> &[Job] {
        &self.jobs[processor]
    }

    /// Iterates over all `(JobId, &Job)` pairs in processor-major order.
    pub fn iter_jobs(&self) -> impl Iterator<Item = (JobId, &Job)> + '_ {
        self.jobs.iter().enumerate().flat_map(|(i, row)| {
            row.iter()
                .enumerate()
                .map(move |(j, job)| (JobId::new(i, j), job))
        })
    }

    /// `M_j`: the set of processors having at least `j + 1` jobs (i.e. having
    /// a job at zero-based position `j`).  Matches the paper's `M_j` for
    /// one-based `j = j_zero_based + 1`.
    #[must_use]
    pub fn machines_with_job(&self, index: usize) -> Vec<usize> {
        (0..self.processors())
            .filter(|&i| self.jobs_on(i) > index)
            .collect()
    }

    /// Whether all jobs have unit size (the case analyzed by the paper).
    #[must_use]
    pub fn is_unit_size(&self) -> bool {
        self.iter_jobs().all(|(_, job)| job.is_unit())
    }

    /// Total workload `Σ_ij r_ij · p_ij` in the alternative model
    /// interpretation — the left-hand side of Observation 1.
    #[must_use]
    pub fn total_workload(&self) -> Ratio {
        self.iter_jobs().map(|(_, job)| job.workload()).sum()
    }

    /// Workload of column `j` restricted to `M_j`, i.e. `Σ_{i ∈ M_j} r_ij·p_ij`.
    /// Used by the RoundRobin analysis (Theorem 3).
    #[must_use]
    pub fn column_workload(&self, index: usize) -> Ratio {
        self.machines_with_job(index)
            .into_iter()
            .map(|i| self.jobs[i][index].workload())
            .sum()
    }

    /// The largest single resource requirement in the instance.
    #[must_use]
    pub fn max_requirement(&self) -> Ratio {
        self.iter_jobs()
            .map(|(_, job)| job.requirement)
            .max()
            .unwrap_or(Ratio::ZERO)
    }

    /// Number of shared resources `k` (`1` plus the number of extra
    /// layers).  Single-resource instances — the paper's model and the fast
    /// path everywhere — report `1`.
    #[must_use]
    pub fn resources(&self) -> usize {
        1 + self.extra.len()
    }

    /// The extra resource layers (`extra[r − 1][i][j]`); empty for
    /// single-resource instances.
    #[must_use]
    pub fn extra_layers(&self) -> &[Vec<Vec<Ratio>>] {
        &self.extra
    }

    /// Requirement of job `id` on resource `resource` (`0` is the base
    /// resource, i.e. [`Job::requirement`]).
    #[must_use]
    pub fn requirement_on(&self, resource: usize, id: JobId) -> Ratio {
        if resource == 0 {
            self.job(id).requirement
        } else {
            self.extra[resource - 1][id.processor][id.index]
        }
    }

    /// Total workload `Σ_ij r^resource_ij · p_ij` on one resource — the
    /// per-resource generalization of [`Instance::total_workload`].
    #[must_use]
    pub fn total_workload_on(&self, resource: usize) -> Ratio {
        self.iter_jobs()
            .map(|(id, job)| self.requirement_on(resource, id) * job.volume)
            .sum()
    }

    /// The largest requirement on one resource.
    #[must_use]
    pub fn max_requirement_on(&self, resource: usize) -> Ratio {
        self.iter_jobs()
            .map(|(id, _)| self.requirement_on(resource, id))
            .max()
            .unwrap_or(Ratio::ZERO)
    }

    /// Consumes the instance and returns the raw job matrix, discarding any
    /// extra resource layers.
    #[must_use]
    pub fn into_jobs(self) -> Vec<Vec<Job>> {
        self.jobs
    }

    /// The single-resource projection onto `resource`: an instance whose
    /// job requirements are the chosen layer (volumes kept).  Used by the
    /// per-resource lower bounds and the layer-wise heuristics.
    #[must_use]
    pub fn project_resource(&self, resource: usize) -> Instance {
        let jobs = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, row)| {
                row.iter()
                    .enumerate()
                    .map(|(j, job)| {
                        Job::new(self.requirement_on(resource, JobId::new(i, j)), job.volume)
                    })
                    .collect()
            })
            .collect();
        Instance {
            jobs,
            extra: Vec::new(),
        }
    }

    /// The instance a single-resource [`Schedule`](crate::Schedule) is read
    /// against: the instance itself when it has one resource, its
    /// base-resource [projection](Self::project_resource) otherwise.
    #[must_use]
    pub fn base_resource(&self) -> Cow<'_, Instance> {
        if self.extra.is_empty() {
            Cow::Borrowed(self)
        } else {
            Cow::Owned(self.project_resource(0))
        }
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "CRSharing instance: m = {}, n = {}, total workload = {}",
            self.processors(),
            self.max_chain_length(),
            self.total_workload()
        )?;
        if self.resources() > 1 {
            writeln!(f, "  shared resources: k = {}", self.resources())?;
        }
        for (i, row) in self.jobs.iter().enumerate() {
            write!(f, "  p{i}:")?;
            for job in row {
                if job.is_unit() {
                    write!(f, " {}", job.requirement)?;
                } else {
                    write!(f, " {}x{}", job.requirement, job.volume)?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Incremental builder for instances, convenient in generators and tests.
///
/// # Examples
///
/// ```
/// use cr_core::{InstanceBuilder, Ratio};
///
/// let inst = InstanceBuilder::new()
///     .processor([Ratio::new(1, 2), Ratio::new(1, 4)])
///     .processor([Ratio::ONE])
///     .build();
/// assert_eq!(inst.processors(), 2);
/// assert_eq!(inst.total_jobs(), 3);
/// ```
#[derive(Debug, Default, Clone)]
pub struct InstanceBuilder {
    jobs: Vec<Vec<Job>>,
    extra: Vec<Vec<Vec<Ratio>>>,
}

impl InstanceBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a processor with the given unit-size job requirements.
    #[must_use]
    pub fn processor<I: IntoIterator<Item = Ratio>>(mut self, requirements: I) -> Self {
        self.jobs
            .push(requirements.into_iter().map(Job::unit).collect());
        self
    }

    /// Adds a processor with explicit jobs (arbitrary volumes).
    #[must_use]
    pub fn processor_jobs<I: IntoIterator<Item = Job>>(mut self, jobs: I) -> Self {
        self.jobs.push(jobs.into_iter().collect());
        self
    }

    /// Adds an empty processor (no jobs).
    #[must_use]
    pub fn empty_processor(mut self) -> Self {
        self.jobs.push(Vec::new());
        self
    }

    /// Adds an extra resource layer: `rows[i][j]` is the requirement of job
    /// `(i, j)` on the new resource.  The shape must mirror the processors
    /// added so far (checked at `build` time).
    #[must_use]
    pub fn extra_layer<I, R>(mut self, rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: IntoIterator<Item = Ratio>,
    {
        self.extra
            .push(rows.into_iter().map(|r| r.into_iter().collect()).collect());
        self
    }

    /// Finalizes the instance.
    ///
    /// # Panics
    ///
    /// Panics if validation fails.
    #[must_use]
    pub fn build(self) -> Instance {
        Instance::with_resources(self.jobs, self.extra).expect("invalid instance")
    }

    /// Finalizes the instance, returning validation errors.
    pub fn try_build(self) -> Result<Instance, InstanceError> {
        Instance::with_resources(self.jobs, self.extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::ratio;

    fn fig1_instance() -> Instance {
        Instance::unit_from_percentages(&[&[20, 10, 10, 10], &[50, 55, 90, 55, 10], &[50, 40, 95]])
    }

    #[test]
    fn construction_and_stats() {
        let inst = fig1_instance();
        assert_eq!(inst.processors(), 3);
        assert_eq!(inst.jobs_on(0), 4);
        assert_eq!(inst.jobs_on(1), 5);
        assert_eq!(inst.jobs_on(2), 3);
        assert_eq!(inst.max_chain_length(), 5);
        assert_eq!(inst.total_jobs(), 12);
        assert!(inst.is_unit_size());
        // 0.2+0.1+0.1+0.1 + 0.5+0.55+0.9+0.55+0.1 + 0.5+0.4+0.95 = 4.95
        assert_eq!(inst.total_workload(), ratio(495, 100));
    }

    #[test]
    fn machines_with_job_matches_mj() {
        let inst = fig1_instance();
        assert_eq!(inst.machines_with_job(0), vec![0, 1, 2]);
        assert_eq!(inst.machines_with_job(2), vec![0, 1, 2]);
        assert_eq!(inst.machines_with_job(3), vec![0, 1]);
        assert_eq!(inst.machines_with_job(4), vec![1]);
        assert!(inst.machines_with_job(5).is_empty());
    }

    #[test]
    fn column_workload() {
        let inst = fig1_instance();
        assert_eq!(inst.column_workload(0), ratio(120, 100));
        assert_eq!(inst.column_workload(4), ratio(10, 100));
    }

    #[test]
    fn validation_rejects_bad_requirement() {
        let err = Instance::new(vec![vec![Job::unit(ratio(3, 2))]]).unwrap_err();
        assert!(matches!(err, InstanceError::RequirementOutOfRange { .. }));
    }

    #[test]
    fn validation_rejects_bad_volume() {
        let err = Instance::new(vec![vec![Job::new(ratio(1, 2), Ratio::ZERO)]]).unwrap_err();
        assert!(matches!(err, InstanceError::NonPositiveVolume { .. }));
    }

    #[test]
    fn validation_rejects_empty() {
        assert!(matches!(
            Instance::new(vec![]).unwrap_err(),
            InstanceError::NoProcessors
        ));
    }

    #[test]
    fn empty_processor_is_allowed() {
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 2)])
            .empty_processor()
            .build();
        assert_eq!(inst.processors(), 2);
        assert_eq!(inst.jobs_on(1), 0);
        assert_eq!(inst.max_chain_length(), 1);
    }

    #[test]
    fn builder_with_volumes() {
        let inst = InstanceBuilder::new()
            .processor_jobs([Job::new(ratio(1, 2), ratio(3, 1))])
            .processor([ratio(1, 4)])
            .build();
        assert!(!inst.is_unit_size());
        assert_eq!(inst.total_workload(), ratio(3, 2) + ratio(1, 4));
    }

    #[test]
    fn iter_jobs_order() {
        let inst = fig1_instance();
        let ids: Vec<JobId> = inst.iter_jobs().map(|(id, _)| id).collect();
        assert_eq!(ids[0], JobId::new(0, 0));
        assert_eq!(ids[4], JobId::new(1, 0));
        assert_eq!(ids.len(), 12);
    }

    #[test]
    fn display_contains_rows() {
        let inst = fig1_instance();
        let text = inst.to_string();
        assert!(text.contains("p0:"));
        assert!(text.contains("p2:"));
        assert!(text.contains("m = 3"));
    }

    #[test]
    fn serde_roundtrip() {
        let inst = fig1_instance();
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(back, inst);
    }

    #[test]
    fn max_requirement() {
        assert_eq!(fig1_instance().max_requirement(), ratio(95, 100));
    }

    fn two_resource_instance() -> Instance {
        Instance::multi_unit_from_requirements(vec![
            vec![vec![ratio(1, 2), ratio(1, 4)], vec![ratio(3, 4)]],
            vec![vec![ratio(1, 10), ratio(9, 10)], vec![Ratio::ZERO]],
        ])
        .unwrap()
    }

    #[test]
    fn multi_resource_construction_and_accessors() {
        let inst = two_resource_instance();
        assert_eq!(inst.resources(), 2);
        assert_eq!(inst.extra_layers().len(), 1);
        assert_eq!(inst.requirement_on(0, JobId::new(0, 1)), ratio(1, 4));
        assert_eq!(inst.requirement_on(1, JobId::new(0, 1)), ratio(9, 10));
        assert_eq!(inst.total_workload_on(0), inst.total_workload());
        assert_eq!(inst.total_workload_on(1), ratio(1, 1));
        assert_eq!(inst.max_requirement_on(1), ratio(9, 10));
        assert!(inst.to_string().contains("k = 2"));
    }

    #[test]
    fn single_resource_instances_report_one_resource() {
        let inst = fig1_instance();
        assert_eq!(inst.resources(), 1);
        assert!(inst.extra_layers().is_empty());
        assert_eq!(inst.total_workload_on(0), inst.total_workload());
        assert!(!inst.to_string().contains("k ="));
    }

    #[test]
    fn multi_resource_validation_rejects_bad_shapes() {
        // Layer with the wrong number of processor rows.
        let err = Instance::multi_unit_from_requirements(vec![
            vec![vec![ratio(1, 2)], vec![ratio(1, 4)]],
            vec![vec![ratio(1, 2)]],
        ])
        .unwrap_err();
        assert!(matches!(
            err,
            InstanceError::ResourceLayerProcessorMismatch {
                resource: 1,
                expected: 2,
                found: 1
            }
        ));
        // Row with the wrong number of job entries.
        let err = Instance::multi_unit_from_requirements(vec![
            vec![vec![ratio(1, 2), ratio(1, 4)]],
            vec![vec![ratio(1, 2)]],
        ])
        .unwrap_err();
        assert!(matches!(
            err,
            InstanceError::ResourceLayerJobsMismatch {
                resource: 1,
                processor: 0,
                expected: 2,
                found: 1
            }
        ));
        // Out-of-range extra requirement.
        let err = Instance::multi_unit_from_requirements(vec![
            vec![vec![ratio(1, 2)]],
            vec![vec![ratio(3, 2)]],
        ])
        .unwrap_err();
        assert!(matches!(
            err,
            InstanceError::ResourceRequirementOutOfRange { resource: 1, .. }
        ));
        assert!(Instance::multi_unit_from_requirements(vec![]).is_err());
    }

    #[test]
    fn builder_extra_layer() {
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 2), ratio(1, 4)])
            .processor([ratio(3, 4)])
            .extra_layer([vec![ratio(1, 10), ratio(9, 10)], vec![Ratio::ZERO]])
            .build();
        assert_eq!(inst, two_resource_instance());
    }

    #[test]
    fn single_resource_serialization_is_unchanged() {
        // `k = 1` must serialize to exactly the pre-multi-resource shape
        // (no `extra` key), and old JSON without the key must parse.
        let inst = fig1_instance();
        let json = serde_json::to_string(&inst).unwrap();
        assert!(!json.contains("extra"));
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(back, inst);
    }

    #[test]
    fn multi_resource_serde_roundtrip() {
        let inst = two_resource_instance();
        let json = serde_json::to_string(&inst).unwrap();
        assert!(json.contains("extra"));
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(back, inst);
    }

    #[test]
    fn project_resource_selects_the_layer() {
        let inst = two_resource_instance();
        let base = inst.project_resource(0);
        assert_eq!(base.resources(), 1);
        assert_eq!(base.job(JobId::new(0, 0)).requirement, ratio(1, 2));
        let second = inst.project_resource(1);
        assert_eq!(second.job(JobId::new(0, 1)).requirement, ratio(9, 10));
        assert_eq!(second.job(JobId::new(1, 0)).requirement, Ratio::ZERO);
        // Volumes are preserved by projection.
        assert!(second.is_unit_size());
    }
}
