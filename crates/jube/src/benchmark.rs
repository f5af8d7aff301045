//! Benchmark definition and execution.
//!
//! A [`Benchmark`] mirrors a JUBE script: parameter sets plus steps.
//! Running it under a tag selection expands the active multi-valued
//! parameters into [`Workpackage`]s (one per parameter permutation),
//! executes each workpackage's steps in dependency order — either
//! sequentially or as jobs on a [`crate::SlurmSim`] partition — and
//! collects every step's result values for the final result table.

use crate::param::{expand, merge_resolved, ParameterSet};
use crate::scheduler::SlurmSim;
use crate::step::{topo_order, Step, StepContext};
use crate::substitute::resolve_all;
use crate::table::ResultTable;
use crate::JubeError;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One expanded parameter permutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workpackage {
    pub id: usize,
    pub params: BTreeMap<String, String>,
}

/// The outcome of one workpackage.
#[derive(Debug, Clone)]
pub struct WorkpackageResult {
    pub id: usize,
    pub params: BTreeMap<String, String>,
    /// Merged result values of every executed step.
    pub values: BTreeMap<String, String>,
    pub error: Option<String>,
}

/// The outcome of a benchmark run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub benchmark: String,
    pub tags: Vec<String>,
    pub workpackages: Vec<WorkpackageResult>,
}

impl RunResult {
    /// Render selected columns (parameters and result values) as a table,
    /// in workpackage order.
    pub fn table(&self, columns: &[&str]) -> ResultTable {
        let mut t = ResultTable::new(columns.iter().map(|c| c.to_string()).collect());
        for wp in &self.workpackages {
            let mut merged = wp.params.clone();
            merged.extend(wp.values.clone());
            if let Some(e) = &wp.error {
                merged.insert("error".into(), e.clone());
            }
            t.push_from(&merged);
        }
        t
    }

    /// Count of failed workpackages.
    pub fn failures(&self) -> usize {
        self.workpackages
            .iter()
            .filter(|w| w.error.is_some())
            .count()
    }
}

/// A declared benchmark.
///
/// ```
/// use jube::{Benchmark, Parameter, ParameterSet, Step};
/// use std::collections::BTreeMap;
///
/// let bench = Benchmark::new("demo")
///     .with_parameter_set(
///         ParameterSet::new("p").with(Parameter::sweep("x", [1, 2, 3])),
///     )
///     .with_step(Step::new("square", |ctx| {
///         let x: u64 = ctx.param("x").unwrap().parse().unwrap();
///         let mut out = BTreeMap::new();
///         out.insert("y".into(), (x * x).to_string());
///         Ok(out)
///     }));
/// let result = bench.run(&[]).unwrap();
/// assert_eq!(result.workpackages.len(), 3);
/// assert_eq!(result.workpackages[2].values["y"], "9");
/// ```
#[derive(Clone, Default)]
pub struct Benchmark {
    pub name: String,
    pub parameter_sets: Vec<ParameterSet>,
    pub steps: Vec<Step>,
}

impl Benchmark {
    pub fn new(name: impl Into<String>) -> Self {
        Benchmark {
            name: name.into(),
            parameter_sets: Vec::new(),
            steps: Vec::new(),
        }
    }

    pub fn with_parameter_set(mut self, set: ParameterSet) -> Self {
        self.parameter_sets.push(set);
        self
    }

    pub fn with_step(mut self, step: Step) -> Self {
        self.steps.push(step);
        self
    }

    /// Every tag some parameter or step is gated on: the tags a run of
    /// this benchmark can select (`jube run --tag`), in sorted order.
    pub fn tags(&self) -> BTreeSet<&str> {
        let params = self.parameter_sets.iter().flat_map(|s| &s.parameters);
        params
            .filter_map(|p| p.tag.as_deref())
            .chain(self.steps.iter().filter_map(|s| s.tag.as_deref()))
            .collect()
    }

    /// Expand the workpackages for a tag selection (without running).
    pub fn workpackages(&self, tags: &[String]) -> Vec<Workpackage> {
        let resolved = merge_resolved(&self.parameter_sets, tags);
        expand(&resolved)
            .into_iter()
            .enumerate()
            .map(|(id, params)| Workpackage { id, params })
            .collect()
    }

    /// Execute one workpackage: substitute parameters, then run the
    /// active steps in dependency order.
    fn run_workpackage(
        steps: &[Step],
        order: &[usize],
        tags: &[String],
        wp: Workpackage,
    ) -> WorkpackageResult {
        let params = match resolve_all(&wp.params) {
            Ok(p) => p,
            Err(e) => {
                return WorkpackageResult {
                    id: wp.id,
                    params: wp.params,
                    values: BTreeMap::new(),
                    error: Some(e.to_string()),
                }
            }
        };
        let mut values: BTreeMap<String, String> = BTreeMap::new();
        let mut error = None;
        for &i in order {
            let step = &steps[i];
            if !step.active(tags) {
                continue;
            }
            let ctx = StepContext {
                params: params.clone(),
                inputs: values.clone(),
            };
            match (step.work)(&ctx) {
                Ok(out) => values.extend(out),
                Err(message) => {
                    error = Some(
                        JubeError::StepFailed {
                            step: step.name.clone(),
                            message,
                        }
                        .to_string(),
                    );
                    break;
                }
            }
        }
        WorkpackageResult {
            id: wp.id,
            params,
            values,
            error,
        }
    }

    /// Run every workpackage sequentially in the calling thread.
    pub fn run(&self, tags: &[String]) -> Result<RunResult, JubeError> {
        let order = topo_order(&self.steps)?;
        let results = self
            .workpackages(tags)
            .into_iter()
            .map(|wp| Self::run_workpackage(&self.steps, &order, tags, wp))
            .collect();
        Ok(RunResult {
            benchmark: self.name.clone(),
            tags: tags.to_vec(),
            workpackages: results,
        })
    }

    /// Submit every workpackage as a job on a [`SlurmSim`] partition
    /// (`nodes_per_job` nodes each) and wait for completion. Results come
    /// back in workpackage order regardless of scheduling order.
    pub fn run_on(
        &self,
        slurm: &Arc<SlurmSim>,
        tags: &[String],
        nodes_per_job: u32,
    ) -> Result<RunResult, JubeError> {
        let order = Arc::new(topo_order(&self.steps)?);
        let wps = self.workpackages(tags);
        let results: Arc<Mutex<Vec<Option<WorkpackageResult>>>> =
            Arc::new(Mutex::new(vec![None; wps.len()]));
        let steps = Arc::new(self.steps.clone());
        let tags_owned: Arc<Vec<String>> = Arc::new(tags.to_vec());
        for wp in wps {
            let results = Arc::clone(&results);
            let steps = Arc::clone(&steps);
            let order = Arc::clone(&order);
            let tags_owned = Arc::clone(&tags_owned);
            let slot = wp.id;
            slurm.submit(
                format!("{}_wp{}", self.name, wp.id),
                nodes_per_job,
                move || {
                    let r = Self::run_workpackage(&steps, &order, &tags_owned, wp);
                    let failed = r.error.clone();
                    results.lock()[slot] = Some(r);
                    failed.map_or(Ok(()), Err)
                },
            );
        }
        slurm.wait_all();
        let collected = results
            .lock()
            .iter()
            .cloned()
            .map(|r| r.expect("every workpackage reports"))
            .collect();
        Ok(RunResult {
            benchmark: self.name.clone(),
            tags: tags.to_vec(),
            workpackages: collected,
        })
    }

    /// Partition the workpackages into `shards` contiguous shards and
    /// submit each shard as one multi-node job (`nodes_per_shard` nodes)
    /// on a [`SlurmSim`] partition. Within a shard the workpackages run
    /// sequentially in workpackage order; shards run concurrently as the
    /// scheduler admits them (FIFO), and the per-shard result vectors are
    /// merged back in exact workpackage order, so the result is identical
    /// to [`Benchmark::run`]. Workpackage failures are reported in the
    /// result rows (the shard job itself completes).
    pub fn run_sharded(
        &self,
        slurm: &Arc<SlurmSim>,
        tags: &[String],
        shards: usize,
        nodes_per_shard: u32,
    ) -> Result<RunResult, JubeError> {
        let order = Arc::new(topo_order(&self.steps)?);
        let wps = self.workpackages(tags);
        let steps = Arc::new(self.steps.clone());
        let tags_owned: Arc<Vec<String>> = Arc::new(tags.to_vec());
        let handles: Vec<crate::JobHandle<Vec<WorkpackageResult>>> =
            crate::shard_ranges(wps.len(), shards)
                .into_iter()
                .enumerate()
                .map(|(s, range)| {
                    let chunk: Vec<Workpackage> = wps[range].to_vec();
                    let steps = Arc::clone(&steps);
                    let order = Arc::clone(&order);
                    let tags_owned = Arc::clone(&tags_owned);
                    slurm.submit_job(
                        format!("{}_shard{}", self.name, s),
                        nodes_per_shard,
                        move || {
                            Ok(chunk
                                .into_iter()
                                .map(|wp| Self::run_workpackage(&steps, &order, &tags_owned, wp))
                                .collect())
                        },
                    )
                })
                .collect();
        let mut collected = Vec::with_capacity(wps.len());
        for handle in handles {
            collected.extend(handle.join().map_err(|message| JubeError::StepFailed {
                step: "shard".into(),
                message,
            })?);
        }
        Ok(RunResult {
            benchmark: self.name.clone(),
            tags: tags.to_vec(),
            workpackages: collected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Parameter;
    use crate::JobState;

    fn tags(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// A benchmark computing area = width × height over a sweep.
    fn area_benchmark() -> Benchmark {
        Benchmark::new("area")
            .with_parameter_set(
                ParameterSet::new("dims")
                    .with(Parameter::sweep("width", [2, 3]))
                    .with(Parameter::sweep("height", [10, 20]))
                    .with(Parameter::single("label", "w${width}xh${height}")),
            )
            .with_step(Step::new("compute", |ctx| {
                let w: u64 = ctx.param("width").unwrap().parse().unwrap();
                let h: u64 = ctx.param("height").unwrap().parse().unwrap();
                let mut out = BTreeMap::new();
                out.insert("area".into(), (w * h).to_string());
                Ok(out)
            }))
            .with_step(
                Step::new("double", |ctx| {
                    let a: u64 = ctx.input("area").unwrap().parse().unwrap();
                    let mut out = BTreeMap::new();
                    out.insert("double_area".into(), (2 * a).to_string());
                    Ok(out)
                })
                .after("compute"),
            )
    }

    #[test]
    fn expands_and_runs_all_workpackages() {
        let result = area_benchmark().run(&[]).unwrap();
        assert_eq!(result.workpackages.len(), 4);
        assert_eq!(result.failures(), 0);
        let areas: Vec<&str> = result
            .workpackages
            .iter()
            .map(|w| w.values["area"].as_str())
            .collect();
        let mut sorted: Vec<u64> = areas.iter().map(|a| a.parse().unwrap()).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![20, 30, 40, 60]);
    }

    #[test]
    fn substitution_happens_in_parameters() {
        let result = area_benchmark().run(&[]).unwrap();
        let labels: Vec<&str> = result
            .workpackages
            .iter()
            .map(|w| w.params["label"].as_str())
            .collect();
        assert!(labels.contains(&"w2xh10"));
        assert!(labels.contains(&"w3xh20"));
    }

    #[test]
    fn dependent_steps_see_outputs() {
        let result = area_benchmark().run(&[]).unwrap();
        for wp in &result.workpackages {
            let a: u64 = wp.values["area"].parse().unwrap();
            let d: u64 = wp.values["double_area"].parse().unwrap();
            assert_eq!(d, 2 * a);
        }
    }

    #[test]
    fn result_table_renders_requested_columns() {
        let result = area_benchmark().run(&[]).unwrap();
        let mut table = result.table(&["width", "height", "area"]);
        table.sort_by_column("area");
        assert_eq!(table.num_rows(), 4);
        assert_eq!(
            table.numeric_column("area").unwrap(),
            vec![20.0, 30.0, 40.0, 60.0]
        );
    }

    #[test]
    fn failing_step_marks_workpackage() {
        let b = Benchmark::new("failing")
            .with_parameter_set(ParameterSet::new("p").with(Parameter::sweep("x", [1, 2])))
            .with_step(Step::new("explode", |ctx| {
                if ctx.param("x").unwrap() == "2" {
                    Err("x is two".into())
                } else {
                    Ok(BTreeMap::new())
                }
            }));
        let result = b.run(&[]).unwrap();
        assert_eq!(result.failures(), 1);
        let failed = result
            .workpackages
            .iter()
            .find(|w| w.error.is_some())
            .unwrap();
        assert!(failed.error.as_ref().unwrap().contains("x is two"));
    }

    #[test]
    fn tagged_steps_skipped_without_tag() {
        let b = Benchmark::new("tagged")
            .with_parameter_set(ParameterSet::new("p").with(Parameter::single("x", 1)))
            .with_step(Step::new("always", |_| {
                let mut out = BTreeMap::new();
                out.insert("ran_always".into(), "yes".into());
                Ok(out)
            }))
            .with_step(
                Step::new("ipu_only", |_| {
                    let mut out = BTreeMap::new();
                    out.insert("ran_ipu".into(), "yes".into());
                    Ok(out)
                })
                .tagged("GC200"),
            );
        let plain = b.run(&[]).unwrap();
        assert!(plain.workpackages[0].values.contains_key("ran_always"));
        assert!(!plain.workpackages[0].values.contains_key("ran_ipu"));
        let ipu = b.run(&tags(&["GC200"])).unwrap();
        assert!(ipu.workpackages[0].values.contains_key("ran_ipu"));
    }

    #[test]
    fn tags_lists_every_parameter_and_step_gate_once() {
        let b = Benchmark::new("gated")
            .with_parameter_set(
                ParameterSet::new("p")
                    .with(Parameter::single("x", 1))
                    .with(Parameter::single("x", 2).tagged("H100"))
                    .with(Parameter::single("y", 3).tagged("H100")),
            )
            .with_step(Step::new("ipu_only", |_| Ok(BTreeMap::new())).tagged("GC200"));
        assert_eq!(b.tags().into_iter().collect::<Vec<_>>(), ["GC200", "H100"]);
        assert!(area_benchmark().tags().is_empty());
    }

    #[test]
    fn cyclic_steps_rejected_up_front() {
        let b = Benchmark::new("cyclic")
            .with_step(Step::new("a", |_| Ok(BTreeMap::new())).after("b"))
            .with_step(Step::new("b", |_| Ok(BTreeMap::new())).after("a"));
        assert!(b.run(&[]).is_err());
    }

    #[test]
    fn slurm_execution_matches_sequential() {
        let b = area_benchmark();
        let seq = b.run(&[]).unwrap();
        let slurm = SlurmSim::new(2);
        let par = b.run_on(&slurm, &[], 1).unwrap();
        assert_eq!(par.workpackages.len(), seq.workpackages.len());
        for (p, s) in par.workpackages.iter().zip(&seq.workpackages) {
            assert_eq!(p.id, s.id);
            assert_eq!(p.values, s.values);
        }
        // The scheduler recorded one job per workpackage.
        assert_eq!(slurm.records().len(), 4);
    }

    #[test]
    fn sharded_execution_matches_sequential() {
        let b = area_benchmark();
        let seq = b.run(&[]).unwrap();
        let slurm = SlurmSim::new(4);
        let mut jobs_so_far = 0;
        for shards in [1usize, 2, 3, 4, 7] {
            let sharded = b.run_sharded(&slurm, &[], shards, 2).unwrap();
            assert_eq!(sharded.workpackages.len(), seq.workpackages.len());
            for (p, s) in sharded.workpackages.iter().zip(&seq.workpackages) {
                assert_eq!(p.id, s.id, "merge preserves workpackage order");
                assert_eq!(p.values, s.values);
            }
            // One shard job per non-empty range (4 workpackages cap it).
            jobs_so_far += shards.min(4);
            assert_eq!(slurm.records().len(), jobs_so_far);
        }
        assert!(slurm
            .records()
            .iter()
            .all(|r| r.state == JobState::Completed && r.nodes == 2));
    }

    #[test]
    fn sharded_run_reports_workpackage_failures_in_rows() {
        let b = Benchmark::new("failing")
            .with_parameter_set(ParameterSet::new("p").with(Parameter::sweep("x", [1, 2, 3, 4])))
            .with_step(Step::new("explode", |ctx| {
                if ctx.param("x").unwrap() == "3" {
                    Err("x is three".into())
                } else {
                    Ok(BTreeMap::new())
                }
            }));
        let slurm = SlurmSim::new(2);
        let result = b.run_sharded(&slurm, &[], 2, 1).unwrap();
        assert_eq!(result.workpackages.len(), 4);
        assert_eq!(result.failures(), 1);
        // The shard job carrying the failing workpackage still completes;
        // the failure lives in the result row.
        assert!(slurm
            .records()
            .iter()
            .all(|r| r.state == JobState::Completed));
    }

    #[test]
    fn tag_selection_changes_parameters() {
        let b = Benchmark::new("sys")
            .with_parameter_set(
                ParameterSet::new("system")
                    .with(Parameter::single("gpus", 4))
                    .with(Parameter::single("gpus", 1).tagged("GH200")),
            )
            .with_step(Step::new("echo", |ctx| {
                let mut out = BTreeMap::new();
                out.insert("seen_gpus".into(), ctx.param("gpus").unwrap().into());
                Ok(out)
            }));
        assert_eq!(b.run(&[]).unwrap().workpackages[0].values["seen_gpus"], "4");
        assert_eq!(
            b.run(&tags(&["GH200"])).unwrap().workpackages[0].values["seen_gpus"],
            "1"
        );
    }
}
