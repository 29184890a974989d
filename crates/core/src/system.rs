//! Fused evaluation of polynomial *systems* with a shared Jacobian schedule.
//!
//! The paper's motivating application (Newton's method on systems of
//! polynomials at power series, Section 1) needs, at every iteration, the
//! values of all `m` equations **and** the full `m × n` Jacobian.  Evaluating
//! the system one polynomial at a time costs `m` schedules, `m` data arenas
//! and `m` pool launches per job layer — exactly the launch-starvation
//! pattern the batched engine (see [`crate::batch`]) was built to kill,
//! only across equations instead of across evaluation points.
//!
//! [`SystemSchedule`] amortizes the shared structure once:
//!
//! * the monomial sets of all equations are **merged and deduplicated**: a
//!   monomial appearing (with the same variables and the same coefficient
//!   series) in several equations gets its forward/backward/cross products
//!   scheduled and computed **once**;
//! * all constants, coefficients, inputs and products live in **one flat
//!   coefficient arena** described by a single [`SystemLayout`];
//! * each job layer runs as **one** [`WorkerPool`] launch covering every
//!   equation, so the launch count is the layer count of the merged schedule,
//!   independent of `m`;
//! * one pass produces all `m` values plus the full `m × n` Jacobian of
//!   power series.
//!
//! For an equation that shares no monomials with the others, the merged
//! schedule reproduces that equation's single-polynomial
//! [`Schedule`](crate::Schedule) job-for-job, so its value and gradient row
//! are bitwise identical to the single-polynomial plan's output.
//!
//! ```
//! use psmd_core::{Engine, Monomial, Polynomial};
//! use psmd_multidouble::Dd;
//! use psmd_series::Series;
//!
//! // f1 = 1 + 3 x0 x1,  f2 = x0 + x1, at z0 = 1 + t, z1 = 1 - t.
//! let d = 2;
//! let c = |x: f64| Series::constant(Dd::from_f64(x), d);
//! let f1 = Polynomial::new(2, c(1.0), vec![Monomial::new(c(3.0), vec![0, 1])]);
//! let f2 = Polynomial::new(
//!     2,
//!     c(0.0),
//!     vec![Monomial::new(c(1.0), vec![0]), Monomial::new(c(1.0), vec![1])],
//! );
//! let z = vec![
//!     Series::<Dd>::from_f64_coeffs(&[1.0, 1.0, 0.0]),
//!     Series::<Dd>::from_f64_coeffs(&[1.0, -1.0, 0.0]),
//! ];
//! let engine = Engine::builder().threads(0).build();
//! let plan = engine.compile(vec![f1, f2]);
//! let eval = plan.request(&z).sequential().run().into_system();
//! assert_eq!(eval.values[0].coeff(0).to_f64(), 4.0);       // 1 + 3
//! assert_eq!(eval.values[0].coeff(2).to_f64(), -3.0);      // -3 t^2
//! assert_eq!(eval.values[1].coeff(0).to_f64(), 2.0);       // (1+t) + (1-t)
//! assert_eq!(eval.jacobian[0][0].coeff(1).to_f64(), -3.0); // d f1/dx0 = 3 z1
//! assert_eq!(eval.jacobian[1][1].coeff(0).to_f64(), 1.0);  // d f2/dx1 = 1
//! ```

use crate::evaluate::{coeff_lane_width, evaluate_naive, execute_schedule, Evaluation};
use crate::options::EvalOptions;
use crate::polynomial::Polynomial;
use crate::schedule::{
    derivative_slot_in, extract_location_into, schedule_monomial_convolutions,
    schedule_output_sums, validate_job_layers, AddJob, ConvJob, OutputSum, ResultLocation,
};
use crate::workspace::Workspace;
use psmd_multidouble::Coeff;
use psmd_runtime::{CancelToken, KernelTimings, SharedSlice, Stopwatch, WorkerPool};
use psmd_series::Series;
use std::collections::HashMap;

/// Positions of every series of a polynomial *system* in one flat data
/// array: the constant term of each equation, the coefficient of each unique
/// monomial, the shared input series, then the forward/backward/cross
/// products of each unique monomial, then any scratch accumulators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemLayout {
    /// Truncation degree `d`.
    pub degree: usize,
    /// Total number of series slots.
    pub num_slots: usize,
    /// Slot of each equation's constant term.
    pub constant_slots: Vec<usize>,
    /// Slot of each unique monomial's coefficient series.
    pub coefficient_slots: Vec<usize>,
    /// Slot of each input series `z_i` (shared by every equation).
    pub input_slots: Vec<usize>,
    /// Forward product slots per unique monomial.
    pub forward_slots: Vec<Vec<usize>>,
    /// Backward product slots per unique monomial.
    pub backward_slots: Vec<Vec<usize>>,
    /// Cross product slots per unique monomial.
    pub cross_slots: Vec<Vec<usize>>,
    /// Scratch accumulator slots of the addition stage.
    pub scratch_slots: Vec<usize>,
}

impl SystemLayout {
    /// Number of coefficients per slot.
    pub fn coeffs_per_slot(&self) -> usize {
        self.degree + 1
    }

    /// Offset (in coefficients) of a slot in the flat data array.
    pub fn offset(&self, slot: usize) -> usize {
        slot * self.coeffs_per_slot()
    }

    /// Total number of coefficients of the data array.
    pub fn total_coefficients(&self) -> usize {
        self.num_slots * self.coeffs_per_slot()
    }

    /// Rebases a slot into the arena region of one batch instance: instance
    /// `i` occupies the slot range `i * num_slots .. (i + 1) * num_slots`,
    /// mirroring [`DataLayout::batch_slot`](crate::DataLayout::batch_slot)
    /// for system schedules.
    pub fn batch_slot(&self, instance: usize, slot: usize) -> usize {
        instance * self.num_slots + slot
    }

    /// Offset (in coefficients) of a batch instance's arena region.
    pub fn batch_instance_offset(&self, instance: usize) -> usize {
        instance * self.total_coefficients()
    }

    /// Total number of coefficients of a batched data array.
    pub fn batch_total_coefficients(&self, instances: usize) -> usize {
        instances * self.total_coefficients()
    }
}

/// One unique monomial of the merged system: its variable tuple, the
/// representative `(equation, monomial)` pair its coefficient is read from,
/// and how many instances across the system map to it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct UniqueMonomial {
    variables: Vec<usize>,
    representative: (usize, usize),
    instances: usize,
}

/// The complete two-stage job schedule of a polynomial system: one merged
/// set of convolution and addition layers covering every equation, plus the
/// locations of all `m` values and all `m × n` Jacobian entries.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSchedule {
    /// The merged data layout the job indices refer to.
    pub layout: SystemLayout,
    /// Convolution jobs grouped in layers (one kernel launch per layer for
    /// the whole system).
    pub convolution_layers: Vec<Vec<ConvJob>>,
    /// Addition jobs grouped in layers.
    pub addition_layers: Vec<Vec<AddJob>>,
    /// Location of each equation's value after the addition stage.
    pub value_locations: Vec<ResultLocation>,
    /// Location of each Jacobian entry `d f_i / d x_j` after the addition
    /// stage (`jacobian_locations[i][j]`).
    pub jacobian_locations: Vec<Vec<ResultLocation>>,
    /// Map from `(equation, monomial)` to the unique-monomial index.
    monomial_map: Vec<Vec<usize>>,
    /// The unique monomials of the merged schedule.
    uniques: Vec<UniqueMonomial>,
    /// Total number of monomial instances across all equations.
    total_monomials: usize,
}

impl SystemSchedule {
    /// Builds the merged schedule of a system of polynomials over the same
    /// variables and truncation degree.
    ///
    /// # Panics
    ///
    /// Panics when the system is empty or when the equations disagree on the
    /// number of variables or the truncation degree.
    pub fn build<C: Coeff>(polys: &[Polynomial<C>]) -> Self {
        assert!(!polys.is_empty(), "a system needs at least one equation");
        let n = polys[0].num_variables();
        let degree = polys[0].degree();
        for (i, p) in polys.iter().enumerate() {
            assert_eq!(
                p.num_variables(),
                n,
                "equation {i}: all equations must share the variable count"
            );
            assert_eq!(
                p.degree(),
                degree,
                "equation {i}: all equations must share the truncation degree"
            );
        }
        // Stage 1: merge the monomial sets.  Two monomials are the same job
        // when they have the same variable tuple AND the same coefficient
        // series; the first occurrence becomes the representative.
        let mut uniques: Vec<UniqueMonomial> = Vec::new();
        let mut by_vars: HashMap<Vec<usize>, Vec<usize>> = HashMap::new();
        let mut monomial_map: Vec<Vec<usize>> = Vec::with_capacity(polys.len());
        let mut total_monomials = 0usize;
        for (i, p) in polys.iter().enumerate() {
            let mut map = Vec::with_capacity(p.num_monomials());
            for (k, m) in p.monomials().iter().enumerate() {
                total_monomials += 1;
                let bucket = by_vars.entry(m.variables.clone()).or_default();
                let found = bucket.iter().copied().find(|&u| {
                    let rep = uniques[u].representative;
                    polys[rep.0].monomials()[rep.1].coefficient == m.coefficient
                });
                let uid = match found {
                    Some(uid) => {
                        uniques[uid].instances += 1;
                        uid
                    }
                    None => {
                        let uid = uniques.len();
                        uniques.push(UniqueMonomial {
                            variables: m.variables.clone(),
                            representative: (i, k),
                            instances: 1,
                        });
                        bucket.push(uid);
                        uid
                    }
                };
                map.push(uid);
            }
            monomial_map.push(map);
        }
        // Stage 2: lay out the arena — constants per equation, coefficients
        // and products per unique monomial, inputs shared.
        let mut next = 0usize;
        let mut take = |count: usize| {
            let start = next;
            next += count;
            (start..start + count).collect::<Vec<usize>>()
        };
        let constant_slots = take(polys.len());
        let coefficient_slots = take(uniques.len());
        let input_slots = take(n);
        let mut forward_slots = Vec::with_capacity(uniques.len());
        let mut backward_slots = Vec::with_capacity(uniques.len());
        let mut cross_slots = Vec::with_capacity(uniques.len());
        for u in &uniques {
            let nk = u.variables.len();
            forward_slots.push(take(nk));
            backward_slots.push(take(if nk >= 2 { (nk - 2).max(1) } else { 0 }));
            cross_slots.push(take(nk.saturating_sub(2)));
        }
        let mut layout = SystemLayout {
            degree,
            num_slots: next,
            constant_slots,
            coefficient_slots,
            input_slots,
            forward_slots,
            backward_slots,
            cross_slots,
            scratch_slots: Vec::new(),
        };
        // Stage 3: convolution layers — every unique monomial is scheduled
        // once, so shared products are computed once for the whole system.
        let mut convolution_layers: Vec<Vec<ConvJob>> = Vec::new();
        for (u, unique) in uniques.iter().enumerate() {
            let z_slots: Vec<usize> = unique
                .variables
                .iter()
                .map(|&v| layout.input_slots[v])
                .collect();
            schedule_monomial_convolutions(
                layout.coefficient_slots[u],
                &z_slots,
                &layout.forward_slots[u],
                &layout.backward_slots[u],
                &layout.cross_slots[u],
                &mut convolution_layers,
            );
        }
        // Stage 4: addition layers.  A unique monomial used by exactly one
        // instance keeps its product slots writable (in-place tree summation,
        // exactly like the single-polynomial schedule); a monomial shared by
        // several instances must keep its products intact for every reader,
        // so its contributions become read-only and the tree runs on scratch
        // accumulators instead.
        let writable = |uid: usize| uniques[uid].instances == 1;
        let mut outputs: Vec<OutputSum> = Vec::with_capacity(polys.len() * (1 + n));
        for (i, p) in polys.iter().enumerate() {
            // The equation value: constant plus every monomial's last forward
            // product.
            let mut targets = Vec::new();
            let mut read_only = vec![layout.constant_slots[i]];
            for &uid in &monomial_map[i] {
                let f = &layout.forward_slots[uid];
                let slot = f[f.len() - 1];
                if writable(uid) {
                    targets.push(slot);
                } else {
                    read_only.push(slot);
                }
            }
            outputs.push(OutputSum { targets, read_only });
            // The Jacobian row d f_i / d x_j for every variable.
            for v in 0..n {
                let mut targets = Vec::new();
                let mut read_only = Vec::new();
                for (k, m) in p.monomials().iter().enumerate() {
                    if let Some(pos) = m.position_of(v) {
                        let uid = monomial_map[i][k];
                        match derivative_slot_in(
                            m.num_variables(),
                            pos,
                            &layout.forward_slots[uid],
                            &layout.backward_slots[uid],
                            &layout.cross_slots[uid],
                        ) {
                            Some(slot) if writable(uid) => targets.push(slot),
                            Some(slot) => read_only.push(slot),
                            None => read_only.push(layout.coefficient_slots[uid]),
                        }
                    }
                }
                outputs.push(OutputSum { targets, read_only });
            }
        }
        let (addition_layers, locations) =
            schedule_output_sums(outputs, &mut layout.num_slots, &mut layout.scratch_slots);
        let mut value_locations = Vec::with_capacity(polys.len());
        let mut jacobian_locations = Vec::with_capacity(polys.len());
        let mut it = locations.into_iter();
        for _ in 0..polys.len() {
            value_locations.push(it.next().expect("value location"));
            jacobian_locations.push(
                (0..n)
                    .map(|_| it.next().expect("jacobian location"))
                    .collect(),
            );
        }
        let schedule = Self {
            layout,
            convolution_layers,
            addition_layers,
            value_locations,
            jacobian_locations,
            monomial_map,
            uniques,
            total_monomials,
        };
        debug_assert!(schedule.validate_layers().is_ok());
        schedule
    }

    /// Number of equations.
    pub fn num_equations(&self) -> usize {
        self.value_locations.len()
    }

    /// Number of variables.
    pub fn num_variables(&self) -> usize {
        self.layout.input_slots.len()
    }

    /// Total number of convolution jobs of the merged schedule.
    pub fn convolution_jobs(&self) -> usize {
        self.convolution_layers.iter().map(Vec::len).sum()
    }

    /// Total number of addition jobs of the merged schedule.
    pub fn addition_jobs(&self) -> usize {
        self.addition_layers.iter().map(Vec::len).sum()
    }

    /// Blocks per convolution kernel launch.
    pub fn convolution_layer_sizes(&self) -> Vec<usize> {
        self.convolution_layers.iter().map(Vec::len).collect()
    }

    /// Blocks per addition kernel launch.
    pub fn addition_layer_sizes(&self) -> Vec<usize> {
        self.addition_layers.iter().map(Vec::len).collect()
    }

    /// Number of unique monomials after merging.
    pub fn unique_monomials(&self) -> usize {
        self.uniques.len()
    }

    /// Total number of monomial instances across all equations.
    pub fn total_monomials(&self) -> usize {
        self.total_monomials
    }

    /// Monomial instances whose products are shared with an earlier
    /// occurrence instead of being recomputed (`total - unique`).
    pub fn deduplicated_monomials(&self) -> usize {
        self.total_monomials - self.uniques.len()
    }

    /// Checks the layer invariants (the same invariants as
    /// [`Schedule::validate_layers`](crate::Schedule::validate_layers)):
    /// within one layer, outputs are pairwise distinct and no job reads a
    /// slot another job of the same layer writes.
    pub fn validate_layers(&self) -> Result<(), String> {
        validate_job_layers(&self.convolution_layers, &self.addition_layers)
    }

    /// Populates the flat data array: each equation's constant, each unique
    /// monomial's coefficient (from its representative) and the shared input
    /// series; product and scratch slots are left zero.
    pub fn fill_data_array<C: Coeff>(
        &self,
        polys: &[Polynomial<C>],
        inputs: &[Series<C>],
        data: &mut [C],
    ) {
        assert_eq!(
            polys.len(),
            self.num_equations(),
            "wrong number of equations"
        );
        assert_eq!(inputs.len(), self.num_variables(), "wrong number of inputs");
        assert_eq!(
            data.len(),
            self.layout.total_coefficients(),
            "data slice does not match the layout"
        );
        let per = self.layout.coeffs_per_slot();
        let write_slot = |slot: usize, series: &Series<C>, data: &mut [C]| {
            assert_eq!(series.degree(), self.layout.degree, "degree mismatch");
            let off = slot * per;
            data[off..off + per].copy_from_slice(series.coeffs());
        };
        for (i, p) in polys.iter().enumerate() {
            write_slot(self.layout.constant_slots[i], p.constant(), data);
        }
        for (u, unique) in self.uniques.iter().enumerate() {
            let (i, k) = unique.representative;
            write_slot(
                self.layout.coefficient_slots[u],
                &polys[i].monomials()[k].coefficient,
                data,
            );
        }
        for (j, z) in inputs.iter().enumerate() {
            write_slot(self.layout.input_slots[j], z, data);
        }
    }

    /// Extracts a result series from the populated data array.
    pub fn extract<C: Coeff>(&self, data: &[C], location: ResultLocation) -> Series<C> {
        let per = self.layout.coeffs_per_slot();
        match location {
            ResultLocation::Zero => Series::zero(self.layout.degree),
            ResultLocation::Slot(slot) => {
                let off = slot * per;
                Series::from_coeffs(data[off..off + per].to_vec())
            }
        }
    }

    /// Extracts a result series into `out`, reusing its buffer — the
    /// allocation-free counterpart of [`SystemSchedule::extract`] used by
    /// the workspace-reusing evaluation paths.
    pub fn extract_into<C: Coeff>(
        &self,
        data: &[C],
        location: ResultLocation,
        out: &mut Series<C>,
    ) {
        extract_location_into(
            data,
            location,
            self.layout.coeffs_per_slot(),
            self.layout.degree,
            out,
        );
    }
}

/// The result of one fused system evaluation: all equation values, the full
/// Jacobian of power series, and the aggregate kernel timings of the shared
/// launches.
#[derive(Debug, Clone)]
pub struct SystemEvaluation<C> {
    /// `f_i(z)` for every equation `i`, truncated at the common degree.
    pub values: Vec<Series<C>>,
    /// `d f_i / d x_j (z)` for every equation `i` and variable `j`
    /// (`jacobian[i][j]`).
    pub jacobian: Vec<Vec<Series<C>>>,
    /// Aggregate timings: one convolution/addition launch per merged layer
    /// for the whole system.
    pub timings: KernelTimings,
}

impl<C: Coeff> SystemEvaluation<C> {
    /// An empty system evaluation to be filled by an `*_into` run; its
    /// buffers are grown on first use and reused afterwards.
    pub fn empty() -> Self {
        Self {
            values: Vec::new(),
            jacobian: Vec::new(),
            timings: KernelTimings::new(),
        }
    }

    /// Number of equations.
    pub fn num_equations(&self) -> usize {
        self.values.len()
    }

    /// Largest coefficient-wise difference between two system evaluations
    /// (values and Jacobian), as a double estimate.  Returns
    /// [`f64::INFINITY`] when the shapes differ.
    pub fn max_difference(&self, other: &SystemEvaluation<C>) -> f64 {
        if self.values.len() != other.values.len() || self.jacobian.len() != other.jacobian.len() {
            return f64::INFINITY;
        }
        let mut worst = 0.0f64;
        for (a, b) in self.values.iter().zip(other.values.iter()) {
            if a.degree() != b.degree() {
                return f64::INFINITY;
            }
            worst = worst.max(a.distance(b));
        }
        for (ra, rb) in self.jacobian.iter().zip(other.jacobian.iter()) {
            if ra.len() != rb.len() {
                return f64::INFINITY;
            }
            for (a, b) in ra.iter().zip(rb.iter()) {
                if a.degree() != b.degree() {
                    return f64::INFINITY;
                }
                worst = worst.max(a.distance(b));
            }
        }
        worst
    }

    /// The evaluation of one equation (its value and Jacobian row), for
    /// comparisons against single-polynomial evaluators.
    pub fn equation(&self, i: usize) -> Evaluation<C> {
        Evaluation {
            value: self.values[i].clone(),
            gradient: self.jacobian[i].clone(),
            timings: KernelTimings::new(),
        }
    }
}

/// The fused system evaluations of one batch, plus the aggregate kernel
/// timings of the shared launches.
///
/// A batched system run is the tracker's workhorse: the same merged
/// [`SystemSchedule`] serves every instance (same equations, different
/// evaluation points), so one kernel launch per merged layer covers
/// `batch × jobs_per_layer` blocks.  The per-instance
/// [`SystemEvaluation::timings`] are empty for the same reason as in
/// [`BatchEvaluation`](crate::BatchEvaluation): launches are shared, so
/// counts and times are only meaningful for the batch as a whole.
#[derive(Debug, Clone)]
pub struct SystemBatchEvaluation<C> {
    /// All values and the full Jacobian of every batch instance, in input
    /// order.
    pub instances: Vec<SystemEvaluation<C>>,
    /// Aggregate timings: one convolution/addition launch per merged layer
    /// for the whole batch.
    pub timings: KernelTimings,
}

impl<C> SystemBatchEvaluation<C> {
    /// Number of instances in the batch.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}

impl<C: Coeff> SystemBatchEvaluation<C> {
    /// An empty batched system evaluation to be filled by an `*_into` run;
    /// its buffers are grown on first use and reused afterwards.
    pub fn empty() -> Self {
        Self {
            instances: Vec::new(),
            timings: KernelTimings::new(),
        }
    }
}

impl<C: Coeff> Default for SystemBatchEvaluation<C> {
    fn default() -> Self {
        Self::empty()
    }
}

/// Evaluates a whole batch of input vectors through one system's merged
/// schedule — the shared internal of the engine's system
/// [`Plan`](crate::Plan) under batched inputs, and the coalesced corrector
/// sweep of the path tracker.  Every instance is staged back-to-back in one
/// flat arena ([`SystemLayout::batch_slot`]), so the whole batch runs as one
/// launch per merged layer, exactly like
/// [`run_batch`](crate::batch) does for single polynomials.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_system_batch<C: Coeff>(
    polys: &[Polynomial<C>],
    schedule: &SystemSchedule,
    options: EvalOptions,
    batch: &[Vec<Series<C>>],
    pool: Option<&WorkerPool>,
    cancel: Option<&CancelToken>,
    ws: &mut Workspace<C>,
    out: &mut SystemBatchEvaluation<C>,
) {
    let wall = Stopwatch::start();
    let mut timings = KernelTimings::new();
    if batch.is_empty() {
        out.instances.clear();
        timings.wall_clock = wall.elapsed();
        out.timings = timings;
        return;
    }
    // System batches run scalar on both lane axes.
    timings.simd_width = 1;
    let layout = &schedule.layout;
    let per = layout.coeffs_per_slot();
    let stride = layout.total_coefficients();
    let participants = pool.map_or(1, WorkerPool::parallelism);
    let (arena, scratch) = ws.parts(layout.batch_total_coefficients(batch.len()), participants);
    // Stage 0: lay every instance out back-to-back in the flat arena.  The
    // constants and merged coefficients are replicated per instance so each
    // region is self-contained (jobs only ever read within their region).
    for (i, inputs) in batch.iter().enumerate() {
        let off = layout.batch_instance_offset(i);
        schedule.fill_data_array(polys, inputs, &mut arena[off..off + stride]);
    }
    let completed = {
        let shared = SharedSlice::new(&mut *arena);
        execute_schedule(
            &schedule.convolution_layers,
            &schedule.addition_layers,
            &shared,
            per,
            options.kernel,
            pool,
            scratch,
            &mut timings,
            batch.len(),
            1,
            cancel,
            |instance, slot| layout.batch_slot(instance, slot),
        )
    };
    if !completed {
        // Abandoned mid-schedule: every instance region holds partial
        // results, so skip extraction and flag the whole batch instead.
        timings.cancelled = true;
        timings.wall_clock = wall.elapsed();
        out.timings = timings;
        return;
    }
    let m = schedule.num_equations();
    let n = schedule.num_variables();
    out.instances
        .resize_with(batch.len(), SystemEvaluation::empty);
    for (i, instance) in out.instances.iter_mut().enumerate() {
        let off = layout.batch_instance_offset(i);
        let region = &arena[off..off + stride];
        instance.values.resize_with(m, || Series::zero(0));
        for (&loc, v) in schedule
            .value_locations
            .iter()
            .zip(instance.values.iter_mut())
        {
            schedule.extract_into(region, loc, v);
        }
        instance.jacobian.resize_with(m, Vec::new);
        for (row_locs, row) in schedule
            .jacobian_locations
            .iter()
            .zip(instance.jacobian.iter_mut())
        {
            row.resize_with(n, || Series::zero(0));
            for (&loc, entry) in row_locs.iter().zip(row.iter_mut()) {
                schedule.extract_into(region, loc, entry);
            }
        }
        instance.timings = KernelTimings::new();
    }
    timings.wall_clock = wall.elapsed();
    out.timings = timings;
}

/// Evaluates a whole system through its merged schedule, writing all values
/// and the full Jacobian into `out` — the shared internal of the engine's
/// system [`Plan`](crate::Plan) and of the Newton iteration.  All
/// evaluation memory is borrowed from `ws`, so a warm workspace makes the
/// run allocation-free.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_system<C: Coeff>(
    polys: &[Polynomial<C>],
    schedule: &SystemSchedule,
    options: EvalOptions,
    inputs: &[Series<C>],
    pool: Option<&WorkerPool>,
    cancel: Option<&CancelToken>,
    ws: &mut Workspace<C>,
    out: &mut SystemEvaluation<C>,
) {
    let wall = Stopwatch::start();
    let mut timings = KernelTimings::new();
    let per = schedule.layout.coeffs_per_slot();
    let lane_width = coeff_lane_width::<C>(options, per);
    timings.simd_width = lane_width;
    let participants = pool.map_or(1, WorkerPool::parallelism);
    let (arena, scratch) = ws.parts(schedule.layout.total_coefficients(), participants);
    schedule.fill_data_array(polys, inputs, arena);
    // The whole system — every equation's deduplicated products plus all m
    // values and m×n Jacobian sums — runs through the shared executor: one
    // launch per merged layer.
    let completed = {
        let shared = SharedSlice::new(&mut *arena);
        execute_schedule(
            &schedule.convolution_layers,
            &schedule.addition_layers,
            &shared,
            per,
            options.kernel,
            pool,
            scratch,
            &mut timings,
            1,
            lane_width,
            cancel,
            |_, slot| slot,
        )
    };
    if !completed {
        // Abandoned mid-schedule: the arena holds partial results, so skip
        // extraction of values and Jacobian and flag the run instead.
        timings.cancelled = true;
        timings.wall_clock = wall.elapsed();
        out.timings = timings;
        return;
    }
    let m = schedule.num_equations();
    let n = schedule.num_variables();
    out.values.resize_with(m, || Series::zero(0));
    for (&loc, v) in schedule.value_locations.iter().zip(out.values.iter_mut()) {
        schedule.extract_into(arena, loc, v);
    }
    out.jacobian.resize_with(m, Vec::new);
    for (row_locs, row) in schedule
        .jacobian_locations
        .iter()
        .zip(out.jacobian.iter_mut())
    {
        row.resize_with(n, || Series::zero(0));
        for (&loc, entry) in row_locs.iter().zip(row.iter_mut()) {
            schedule.extract_into(arena, loc, entry);
        }
    }
    timings.wall_clock = wall.elapsed();
    out.timings = timings;
}

/// Evaluates a system equation by equation with the naive baseline
/// ([`evaluate_naive`]): the correctness oracle for the fused system plan.
pub fn evaluate_naive_system<C: Coeff>(
    polys: &[Polynomial<C>],
    inputs: &[Series<C>],
) -> SystemEvaluation<C> {
    let wall = Stopwatch::start();
    let mut values = Vec::with_capacity(polys.len());
    let mut jacobian = Vec::with_capacity(polys.len());
    for p in polys {
        let e = evaluate_naive(p, inputs);
        values.push(e.value);
        jacobian.push(e.gradient);
    }
    let mut timings = KernelTimings::new();
    timings.wall_clock = wall.elapsed();
    SystemEvaluation {
        values,
        jacobian,
        timings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Plan};
    use crate::generators::{random_inputs, random_polynomial};
    use crate::monomial::Monomial;
    use crate::schedule::Schedule;
    use psmd_multidouble::{Dd, Qd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn coeff(c: f64, d: usize) -> Series<Qd> {
        Series::constant(Qd::from_f64(c), d)
    }

    /// The example polynomial of Equation (4) plus two companions over the
    /// same six variables.
    fn paper_system(d: usize) -> Vec<Polynomial<Qd>> {
        let f1 = Polynomial::new(
            6,
            coeff(0.5, d),
            vec![
                Monomial::new(coeff(1.0, d), vec![0, 2, 5]),
                Monomial::new(coeff(2.0, d), vec![0, 1, 4, 5]),
                Monomial::new(coeff(3.0, d), vec![1, 2, 3]),
            ],
        );
        let f2 = Polynomial::new(
            6,
            coeff(-1.0, d),
            vec![
                Monomial::new(coeff(4.0, d), vec![1, 3, 5]),
                Monomial::new(coeff(0.5, d), vec![0, 4]),
            ],
        );
        let f3 = Polynomial::new(
            6,
            coeff(2.0, d),
            vec![
                Monomial::new(coeff(-1.0, d), vec![2]),
                Monomial::new(coeff(1.5, d), vec![0, 1, 2, 3]),
            ],
        );
        vec![f1, f2, f3]
    }

    fn random_z(n: usize, d: usize, seed: u64) -> Vec<Series<Qd>> {
        let mut rng = StdRng::seed_from_u64(seed);
        random_inputs::<Qd, _>(n, d, &mut rng)
    }

    fn compile_system(system: &[Polynomial<Qd>], threads: usize) -> (Engine, Arc<Plan<Qd>>) {
        let engine = Engine::builder().threads(threads).build();
        let plan = engine.compile(system.to_vec());
        (engine, plan)
    }

    #[test]
    fn system_matches_per_equation_scheduled_bitwise_without_sharing() {
        let d = 5;
        let system = paper_system(d);
        let z = random_z(6, d, 7);
        let engine = Engine::builder().threads(0).build();
        let fused = engine
            .compile(system.clone())
            .request(&z)
            .sequential()
            .run()
            .into_system();
        for (i, p) in system.iter().enumerate() {
            let single = engine
                .compile(p.clone())
                .request(&z)
                .sequential()
                .run()
                .into_single();
            // No monomial is shared between equations, so the merged schedule
            // reproduces each equation's own schedule job-for-job: results
            // are bitwise identical.
            assert_eq!(fused.values[i], single.value, "value of equation {i}");
            assert_eq!(fused.jacobian[i], single.gradient, "row {i}");
        }
    }

    #[test]
    fn system_matches_naive_oracle() {
        let d = 4;
        let system = paper_system(d);
        let z = random_z(6, d, 11);
        let (_engine, plan) = compile_system(&system, 0);
        let fused = plan.request(&z).sequential().run().into_system();
        let naive = evaluate_naive_system(&system, &z);
        let diff = fused.max_difference(&naive);
        assert!(diff < 1e-55, "difference {diff}");
    }

    #[test]
    fn parallel_system_matches_sequential_bitwise() {
        let d = 6;
        let system = paper_system(d);
        let z = random_z(6, d, 3);
        let (_engine, plan) = compile_system(&system, 3);
        let seq = plan.request(&z).sequential().run().into_system();
        let par = plan.request(&z).run().into_system();
        assert_eq!(seq.values, par.values);
        assert_eq!(seq.jacobian, par.jacobian);
    }

    #[test]
    fn one_launch_per_layer_for_the_whole_system() {
        let d = 3;
        let system = paper_system(d);
        let z = random_z(6, d, 5);
        let (_engine, plan) = compile_system(&system, 2);
        let result = plan.request(&z).run().into_system();
        let schedule = plan.system_schedule().expect("system plan");
        // Exactly one pool launch per shared layer — independent of the
        // number of equations.
        assert_eq!(
            result.timings.convolution_launches,
            schedule.convolution_layers.len()
        );
        assert_eq!(
            result.timings.addition_launches,
            schedule.addition_layers.len()
        );
        assert_eq!(
            result.timings.convolution_blocks,
            schedule.convolution_jobs()
        );
        assert_eq!(result.timings.addition_blocks, schedule.addition_jobs());
        // The merged convolution layer count is the max over the equations,
        // not the sum: layers of different equations fuse.
        let max_layers = system
            .iter()
            .map(|p| Schedule::build(p).convolution_layers.len())
            .max()
            .unwrap();
        assert_eq!(schedule.convolution_layers.len(), max_layers);
    }

    #[test]
    fn shared_monomials_are_scheduled_once() {
        let d = 2;
        // f1 and f2 share the monomial 2 x0 x1 x2 (same coefficient); f2
        // additionally scales x1 differently so the equations differ.
        let shared = |dd| Monomial::new(coeff(2.0, dd), vec![0, 1, 2]);
        let f1 = Polynomial::new(3, coeff(1.0, d), vec![shared(d)]);
        let f2 = Polynomial::new(
            3,
            coeff(0.0, d),
            vec![shared(d), Monomial::new(coeff(5.0, d), vec![1])],
        );
        let system = vec![f1.clone(), f2.clone()];
        let (_engine, plan) = compile_system(&system, 0);
        let schedule = plan.system_schedule().expect("system plan");
        assert_eq!(schedule.total_monomials(), 3);
        assert_eq!(schedule.unique_monomials(), 2);
        assert_eq!(schedule.deduplicated_monomials(), 1);
        // The shared 3-variable monomial costs 6 convolutions once (not
        // twice) plus 1 for the single-variable monomial.
        assert_eq!(schedule.convolution_jobs(), 6 + 1);
        // Results still match the naive per-equation oracle.
        let z = random_z(3, d, 23);
        let fused = plan.request(&z).sequential().run().into_system();
        let naive = evaluate_naive_system(&system, &z);
        assert!(fused.max_difference(&naive) < 1e-58);
    }

    #[test]
    fn duplicate_monomials_within_one_equation_are_summed_twice() {
        let d = 2;
        // f = 2 x0 x1 + 2 x0 x1: the two instances dedup to one unique
        // monomial whose product must be counted twice in the value.
        let m = || Monomial::new(coeff(2.0, d), vec![0, 1]);
        let f = Polynomial::new(2, coeff(0.0, d), vec![m(), m()]);
        let system = vec![f.clone()];
        let (_engine, plan) = compile_system(&system, 0);
        assert_eq!(
            plan.system_schedule()
                .expect("system plan")
                .unique_monomials(),
            1
        );
        let z = random_z(2, d, 31);
        let fused = plan.request(&z).sequential().run().into_system();
        let naive = evaluate_naive_system(&system, &z);
        assert!(fused.max_difference(&naive) < 1e-58);
    }

    #[test]
    fn single_equation_system_matches_single_plan_bitwise() {
        let d = 4;
        let system = paper_system(d);
        let one = vec![system[0].clone()];
        let z = random_z(6, d, 13);
        let engine = Engine::builder().threads(0).build();
        let fused = engine
            .compile(one.clone())
            .request(&z)
            .sequential()
            .run()
            .into_system();
        let single = engine
            .compile(one[0].clone())
            .request(&z)
            .sequential()
            .run()
            .into_single();
        assert_eq!(fused.values[0], single.value);
        assert_eq!(fused.jacobian[0], single.gradient);
    }

    #[test]
    fn random_systems_validate_and_match_naive() {
        let mut rng = StdRng::seed_from_u64(91);
        let engine = Engine::builder().threads(0).build();
        for _ in 0..6 {
            let system: Vec<Polynomial<Dd>> = (0..3)
                .map(|_| random_polynomial(5, 8, 4, 3, &mut rng))
                .collect();
            let z = random_inputs::<Dd, _>(5, 3, &mut rng);
            let plan = engine.compile(system.clone());
            plan.system_schedule()
                .expect("system plan")
                .validate_layers()
                .unwrap();
            let fused = plan.request(&z).sequential().run().into_system();
            let naive = evaluate_naive_system(&system, &z);
            assert!(fused.max_difference(&naive) < 1e-24);
        }
    }

    #[test]
    #[should_panic(expected = "share the variable count")]
    fn mismatched_variable_counts_are_rejected() {
        let d = 1;
        let f1 = Polynomial::new(
            2,
            coeff(0.0, d),
            vec![Monomial::new(coeff(1.0, d), vec![0])],
        );
        let f2 = Polynomial::new(
            3,
            coeff(0.0, d),
            vec![Monomial::new(coeff(1.0, d), vec![2])],
        );
        let _ = SystemSchedule::build(&[f1, f2]);
    }

    #[test]
    #[should_panic(expected = "at least one equation")]
    fn empty_systems_are_rejected() {
        let _ = SystemSchedule::build::<Qd>(&[]);
    }

    #[test]
    fn constant_only_equation_evaluates_to_its_constant() {
        let d = 2;
        let f1 = Polynomial::new(2, coeff(7.0, d), vec![]);
        let f2 = Polynomial::new(
            2,
            coeff(0.0, d),
            vec![Monomial::new(coeff(1.0, d), vec![0, 1])],
        );
        let system = vec![f1, f2];
        let z = random_z(2, d, 41);
        let (_engine, plan) = compile_system(&system, 0);
        let fused = plan.request(&z).sequential().run().into_system();
        assert_eq!(fused.values[0].coeff(0).to_f64(), 7.0);
        assert!(fused.jacobian[0][0].is_zero());
        assert!(fused.jacobian[0][1].is_zero());
    }

    #[test]
    fn max_difference_reports_shape_mismatches_as_infinite() {
        let d = 2;
        let system = paper_system(d);
        let z = random_z(6, d, 2);
        let (_engine, plan) = compile_system(&system, 0);
        let a = plan.request(&z).sequential().run().into_system();
        let mut b = a.clone();
        b.values.pop();
        b.jacobian.pop();
        assert_eq!(a.max_difference(&b), f64::INFINITY);
    }
}
