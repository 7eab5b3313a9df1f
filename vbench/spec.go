package main

import (
	"bytes"
	"encoding/json"
)

// metric describes one reported number. Bound is set for end-to-end
// metrics only (per-layer metrics have none, and omit the key): the
// share of the parent commit's median by which the metric may worsen
// before a change counts as a regression.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, printed by
// every untraced run. The sim_* metrics are simulated outputs: exact
// for a fixed seed, they guard simulated identity. README.md defines
// each one per workload.
var endToEnd = []metric{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.1},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"sim_normexec", "ratio", "lower", 0.1},
	{"sim_peak_reply_krps", "krps", "higher", 0.15},
	{"sim_reply_p99_ms", "ms", "lower", 0.25},
	{"sim_slo_attainment", "ratio", "higher", 0.1},
	{"sim_cost_vcpu_s", "vcpu_s", "lower", 0.1},
}

// perLayer are the single-layer metrics, printed by every traced run.
// A metric a workload does not exercise reads 0 (README.md lists
// which workload feeds which metric).
var perLayer = []metric{
	{"guest.events", "count", "lower", 0},
	{"guest.ns_per_event", "ns", "lower", 0},
	{"guest.time_share", "ratio", "lower", 0},
	{"xen.events", "count", "lower", 0},
	{"xen.ns_per_event", "ns", "lower", 0},
	{"xen.time_share", "ratio", "lower", 0},
	{"httpd.events", "count", "lower", 0},
	{"httpd.ns_per_event", "ns", "lower", 0},
	{"httpd.time_share", "ratio", "lower", 0},
	{"loadgen.events", "count", "lower", 0},
	{"loadgen.ns_per_event", "ns", "lower", 0},
	{"loadgen.time_share", "ratio", "lower", 0},
	{"sim.events", "count", "lower", 0},
	{"sim.scheduled", "count", "lower", 0},
	{"sim.cancelled", "count", "lower", 0},
	{"sim.cancel_ratio", "ratio", "lower", 0},
	{"sim.alloc_b_per_event", "B", "lower", 0},
	{"httpd.alloc_b_per_request", "B", "lower", 0},
	{"guest.avg_active_vcpus", "vcpus", "lower", 0},
	{"guest.resched_ipis_per_vcpu_s", "1/s", "lower", 0},
	{"guest.daemon_decisions", "count", "lower", 0},
	{"xen.vm_wait_frac", "ratio", "lower", 0},
	{"cluster.trace_gen_s", "s", "lower", 0},
	{"cluster.run_s", "s", "lower", 0},
	{"cluster.warm_capture_s", "s", "lower", 0},
	{"cluster.fork_s", "s", "lower", 0},
	{"checkpoint.encode_s", "s", "lower", 0},
	{"checkpoint.decode_s", "s", "lower", 0},
	{"checkpoint.bytes", "B", "lower", 0},
	{"runner.host_busy_s", "s", "lower", 0},
	{"runner.busy_max_over_mean", "ratio", "lower", 0},
	{"runner.utilisation", "ratio", "higher", 0},
	{"cluster.host_ns_per_request", "ns", "lower", 0},
	{"cluster.reconfigs", "count", "lower", 0},
	{"cluster.error_ratio", "ratio", "lower", 0},
	{"cluster.host_util", "ratio", "higher", 0},
	{"migration.count", "count", "lower", 0},
	{"migration.bytes", "B", "lower", 0},
	{"replicaset.created", "count", "lower", 0},
	{"replicaset.failures", "count", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// runSeconds is how long one run measures.
const runSeconds = 20

type namedWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// specJSON renders BENCHMARK.json, the benchmark's definition for the
// repository root, from the catalogues above.
func specJSON() ([]byte, error) {
	spec := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []namedWhy `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{
		Command:    []string{"bash", "vbench/run.sh"},
		Paths:      []string{"vbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, namedWhy{w.name, w.why})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
