package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef declares one metric the benchmark prints. Bound is the
// share of the parent's median by which an end-to-end metric may get
// worse before a change counts as a regression; per-layer metrics have
// none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the simulator sees. They are
// measured with tracing off and printed with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"job_s_w1", "s", "lower", 0.25},
	{"job_s_w2", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer are the metrics of single layers, printed with -trace 1.
// Every workload prints every name; a layer the workload bypasses
// reads 0 (all dd.* on qft14_statevec, all svc.* off svc_small_jobs).
// WORKLOADS.md says which end-to-end metric each one should move.
var perLayer = []metricDef{
	{"harness.job_p10_s_w1", "s", "lower", 0},
	{"harness.job_p10_s_w2", "s", "lower", 0},
	{"harness.job_med_s_w1", "s", "lower", 0},
	{"harness.job_med_s_w2", "s", "lower", 0},
	{"harness.job_hi_s_w1", "s", "lower", 0},
	{"harness.job_hi_s_w2", "s", "lower", 0},
	{"harness.cpu_s_per_job_w1", "s", "lower", 0},
	{"harness.cpu_s_per_job_w2", "s", "lower", 0},
	{"harness.scaling_w2", "ratio", "higher", 0},
	{"harness.samples_w1", "count", "higher", 0},
	{"harness.samples_w2", "count", "higher", 0},
	{"harness.trace_overhead_frac", "ratio", "lower", 0},
	{"harness.setup_cold_s", "s", "lower", 0},
	{"harness.worker_mismatch_jobs", "count", "lower", 0},

	{"qasm.parse_us", "us", "lower", 0},
	{"qasm.write_us", "us", "lower", 0},
	{"circuit.moments_us", "us", "lower", 0},
	{"noise.compile_us", "us", "lower", 0},
	{"noise.channel_apps_per_traj", "count", "lower", 0},
	{"noise.self_ns_per_gate", "ns", "lower", 0},

	{"backend.compile_us", "us", "lower", 0},
	{"backend.gate_ns", "ns", "lower", 0},
	{"backend.pauli_ns", "ns", "lower", 0},
	{"backend.damping_ns", "ns", "lower", 0},
	{"backend.kraus2_ns", "ns", "lower", 0},
	{"backend.probone_ns", "ns", "lower", 0},
	{"backend.probability_ns", "ns", "lower", 0},
	{"backend.sample_ns", "ns", "lower", 0},
	{"backend.restore_ns", "ns", "lower", 0},
	{"backend.snapshot_ns", "ns", "lower", 0},
	{"backend.release_us", "us", "lower", 0},

	{"dd.unique_lookups_per_traj", "count", "lower", 0},
	{"dd.unique_hit_rate", "ratio", "higher", 0},
	{"dd.compute_lookups_per_traj", "count", "lower", 0},
	{"dd.compute_hit_rate", "ratio", "higher", 0},
	{"dd.compute_conflicts_per_traj", "count", "lower", 0},
	{"dd.nodes_created_per_traj", "count", "lower", 0},
	{"dd.peak_nodes", "count", "lower", 0},
	{"dd.gc_runs_per_job", "count", "lower", 0},
	{"dd.probe_len_mean", "count", "lower", 0},
	{"dd.probe_len_max", "count", "lower", 0},
	{"dd.unique_load", "ratio", "lower", 0},

	{"stochastic.traj_us", "us", "lower", 0},
	{"stochastic.self_frac", "ratio", "lower", 0},
	{"stochastic.gates_applied_per_traj", "count", "lower", 0},
	{"stochastic.gates_skipped_frac", "ratio", "higher", 0},
	{"stochastic.forks_per_traj", "count", "lower", 0},
	{"stochastic.checkpoints_per_job", "count", "lower", 0},
	{"stochastic.plan_chunks_us", "us", "lower", 0},
	{"stochastic.reduce_us", "us", "lower", 0},
	{"stochastic.empty_job_us", "us", "lower", 0},

	{"engine.allocs_per_job", "count", "lower", 0},
	{"engine.alloc_mb_per_job", "MiB", "lower", 0},
	{"engine.go_gc_cycles_per_job", "count", "lower", 0},

	{"svc.startup_ms", "ms", "lower", 0},
	{"svc.recovery_ms", "ms", "lower", 0},
	{"svc.submit_ms", "ms", "lower", 0},
	{"svc.first_event_ms", "ms", "lower", 0},
	{"svc.queue_wait_ms", "ms", "lower", 0},
	{"svc.simulate_ms", "ms", "lower", 0},
	{"svc.persist_ms", "ms", "lower", 0},
	{"svc.server_e2e_ms", "ms", "lower", 0},
	{"svc.http_overhead_ms", "ms", "lower", 0},
	{"svc.cache_hit_ms", "ms", "lower", 0},
	{"svc.rescache_hit_rate", "ratio", "higher", 0},
	{"svc.wal_appends_per_job", "count", "lower", 0},
	{"svc.timewheel_fired_per_job", "count", "lower", 0},
	{"svc.sse_keepalives", "count", "lower", 0},
	{"svc.rejected_429", "count", "lower", 0},
	{"svc.go_gc_cycles_per_kjob", "count", "lower", 0},
}

// report collects what one run of one workload measured. Operations
// are jobs plus correctness checks; a failed one is counted, logged to
// the report and never aborts the run, so that the final line always
// says how many were attempted.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	failures  []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// op records one attempted operation; a non-nil err counts it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// check records one correctness check.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		r.op(nil)
		return
	}
	r.op(fmt.Errorf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output, the part the driver
// reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints every measured metric by name with its unit, then the
// result line holding exactly the metrics of defs. An end-to-end
// metric that was not measured, or is not a positive finite number, is
// a contract violation and an error; a per-layer metric that was not
// measured reads 0.
func (r *report) emit(w io.Writer, workload string, defs []metricDef, strict bool) error {
	units := map[string]string{}
	var names []string
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
		if _, ok := r.values[d.Name]; ok {
			names = append(names, d.Name)
		}
	}
	for _, n := range names {
		fmt.Fprintf(w, "metric %-16s %-36s %14.6g %s\n", workload, n, r.values[n], units[n])
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED %s: %s\n", workload, f)
	}
	fmt.Fprintf(w, "metric %-16s %-36s %14.6g %s\n", workload, "fail_frac",
		float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
	line := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if strict && (!ok || !(v > 0) || math.IsInf(v, 0)) {
			return fmt.Errorf("%s: end-to-end metric %s = %v (measured %v)", workload, d.Name, v, ok)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if line.Attempted < 1 {
		return fmt.Errorf("%s: nothing attempted", workload)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", out)
	return nil
}
