// Command vscale-experiments regenerates the tables and figures of the
// vScale paper's evaluation (§5) on the simulated substrate.
//
// Usage:
//
//	vscale-experiments [-run list] [-quick] [-parallel N] [-window seconds]
//
// -run selects a comma-separated subset of the registered experiments
// (see -list); -experiment is an alias for it; the default runs
// everything in registry order. -quick
// shrinks sweeps for a fast smoke pass. -parallel bounds the worker pool
// each experiment fans its independent simulation runs across; the
// printed tables are byte-identical for every worker count.
//
// -policies selects the scaling policies the cluster experiment
// competes, resolved through the cluster policy registry ('all' or a
// comma-separated subset of static, hotplug, vscale, pid, predictive,
// plus anything linked in via cluster.RegisterPolicy).
//
// -benchjson writes the per-experiment run accounting (wall clock, CPU
// time, speedup) to a JSON file; `make bench` uses it to produce
// BENCH_experiments.json. Experiments that publish scalar results (the
// cluster shoot-out's per-policy cost_vcpu_seconds and attainment) carry
// them in the entry's "metrics" map.
//
// -lag sets the cluster fleets' placement-staleness/run-ahead bound
// and -elastic their elasticity layer. -warm-epochs gives every
// cluster fleet a policy-neutral warm-up prefix; -warmfork simulates
// it once per host count and forks each policy from the snapshot
// (bit-identical results, less wall clock); -checkpoint/-restore
// persist and reuse the warm-prefix snapshot (vscale-checkpoint/v1)
// across invocations. See docs/checkpoint.md. These fleet flags are
// shared with vscalesim.
//
// -benchworkers runs the selected experiments once per listed worker
// count, each pass with a fresh config (so memoized sweeps cannot make
// later passes artificially cheap), asserts the passes' stdout is
// byte-identical, and records the wall-clock series under "parallel" in
// the -benchjson file — the multi-worker speedup series.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"vscale/internal/cluster"
	"vscale/internal/experiments"
	"vscale/internal/profiling"
	"vscale/internal/report"
	"vscale/internal/scenario"
	"vscale/internal/sim"
	"vscale/internal/telemetry"
	"vscale/internal/trace"
)

// benchEntry is one experiment's accounting in the -benchjson file.
// The per-run wall spread (min/mean/max) separates "slow because the
// jobs are big" from "slow because one straggler serialized the pool".
type benchEntry struct {
	Name           string  `json:"name"`
	Runs           int     `json:"runs"`
	WallSeconds    float64 `json:"wall_seconds"`
	CPUSeconds     float64 `json:"cpu_seconds"`
	Speedup        float64 `json:"speedup"`
	JobWallMinSecs float64 `json:"job_wall_min_seconds,omitempty"`
	JobWallMeanSec float64 `json:"job_wall_mean_seconds,omitempty"`
	JobWallMaxSecs float64 `json:"job_wall_max_seconds,omitempty"`
	// Metrics carries the experiment's scalar results (for the cluster
	// shoot-out: "{hosts}h/{policy}/cost_vcpu_seconds" and
	// ".../attainment" per competed policy) so benchmark history tracks
	// result quality alongside run cost.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// parallelEntry is one -benchworkers pass: the same experiment
// selection run at a fixed worker count. Speedup is relative to the
// series' first worker count.
type parallelEntry struct {
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_seconds"`
	CPUSeconds  float64 `json:"cpu_seconds"`
	Speedup     float64 `json:"speedup"`
}

// benchFile is the -benchjson schema (vscale-bench/v1).
type benchFile struct {
	Schema      string       `json:"schema"`
	GoMaxProcs  int          `json:"go_max_procs"`
	Workers     int          `json:"workers"`
	Quick       bool         `json:"quick"`
	Experiments []benchEntry `json:"experiments"`
	Total       benchEntry   `json:"total"`
	// Parallel is the -benchworkers series (absent otherwise).
	Parallel []parallelEntry `json:"parallel,omitempty"`
}

func main() {
	runList := flag.String("run", "all", "comma-separated experiments to run (or 'all'; see -list)")
	expList := flag.String("experiment", "", "alias for -run (merged with it)")
	list := flag.Bool("list", false, "list the registered experiments and exit")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast pass")
	parallel := flag.Int("parallel", 0, "worker pool size per experiment (default GOMAXPROCS)")
	window := flag.Float64("window", 20, "Apache measurement window per load level, seconds")
	policies := flag.String("policies", "all", "comma-separated scaling policies for the cluster experiment (or 'all'; registry names)")
	fleet := experiments.BindFleetFlags(flag.CommandLine)
	benchWorkers := flag.String("benchworkers", "", "comma-separated worker counts: run the selection once per count with a fresh config, assert identical stdout, record the speedup series in -benchjson")
	seed := flag.Uint64("seed", 1, "base seed for per-run seed derivation")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of all runs to this path")
	schedstats := flag.Bool("schedstats", false, "print aggregate per-vCPU scheduling statistics")
	tracecap := flag.Int("tracecap", trace.DefaultRingCapacity, "trace ring capacity (events) per run")
	benchJSON := flag.String("benchjson", "", "write run accounting JSON to this path")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this path on exit")
	telemetryAddr := flag.String("telemetry-addr", "", "serve a Prometheus /metrics scrape endpoint on this host:port while experiments run")
	telemetryOut := flag.String("telemetry-out", "", "write deterministic per-epoch telemetry JSONL (vscale-telemetry/v1) to this path")
	telemetryLinger := flag.Duration("telemetry-linger", 0, "keep serving the final telemetry snapshot this long after the experiments finish")
	flag.Parse()

	stopCPU, err := profiling.StartCPU(*cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopCPU()
	defer func() {
		if err := profiling.WriteHeap(*memProfile); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	registry := experiments.Registry()
	if *list {
		for _, e := range registry {
			fmt.Printf("%-10s %s\n%-10s   quick: %s; full: %s\n", e.Name, e.Desc, "", e.QuickParams, e.FullParams)
		}
		return
	}

	// -experiment is an alias for -run; naming either one replaces the
	// "all" default, and explicit selections from both flags merge.
	sel := *runList
	if *expList != "" {
		if sel == "all" {
			sel = *expList
		} else {
			sel += "," + *expList
		}
	}
	selected := map[string]bool{}
	for _, s := range strings.Split(sel, ",") {
		name := strings.TrimSpace(s)
		if name == "" {
			continue
		}
		if name != "all" {
			if _, ok := experiments.Find(name); !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: all, %s\n",
					name, strings.Join(experiments.Names(), ", "))
				os.Exit(2)
			}
		}
		selected[name] = true
	}
	want := func(name string) bool { return selected["all"] || selected[name] }

	pols, err := cluster.ParsePolicies(*policies)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var workerSeries []int
	if *benchWorkers != "" {
		for _, s := range strings.Split(*benchWorkers, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "-benchworkers: bad worker count %q\n", s)
				os.Exit(2)
			}
			workerSeries = append(workerSeries, n)
		}
	}

	// Each pass gets a FRESH config: the memoized shared sweeps
	// (figure6/9/10, figure11/13) must be re-run per pass, or every pass
	// after the first would time reuse instead of work.
	makeCfg := func(workers int) *experiments.Config {
		cfg := experiments.NewConfig()
		cfg.Quick = *quick
		cfg.Window = sim.FromSeconds(*window)
		cfg.Workers = workers
		cfg.BaseSeed = *seed
		cfg.Trace = *traceOut != "" || *schedstats
		cfg.TraceCapacity = *tracecap
		cfg.Policies = pols
		cfg.FleetFlags = *fleet
		return cfg
	}

	// Live telemetry: the scrape endpoint and the JSONL stream both hang
	// off one sink; diagnostics go to stderr so stdout stays
	// byte-identical with telemetry on or off.
	var telemetryFile *os.File
	if *telemetryOut != "" {
		f, err := os.Create(*telemetryOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		telemetryFile = f
	}
	var telemetryW io.Writer
	if telemetryFile != nil {
		telemetryW = telemetryFile
	}
	sink, err := telemetry.NewSink(*telemetryAddr, telemetryW)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if srv := sink.Server(); srv != nil {
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics on http://%s\n", srv.Addr())
	}

	out := os.Stdout
	start := time.Now()

	// runPass executes the selection against one config, writing the
	// section output to w and returning the accounting.
	runPass := func(cfg *experiments.Config, w io.Writer) ([]benchEntry, benchEntry, []*trace.Tracer) {
		var entries []benchEntry
		var total benchEntry
		var tracers []*trace.Tracer
		for _, e := range registry {
			if !want(e.Name) {
				continue
			}
			expStart := time.Now()
			res, err := e.Run(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(w, "\n==================================================================\n%s\n==================================================================\n", e.Title)
			fmt.Fprint(w, res.Text)
			wall := time.Since(expStart)
			entry := benchEntry{Name: e.Name, WallSeconds: wall.Seconds(), Metrics: res.Metrics}
			if rep := res.Report; rep != nil {
				entry.Runs = rep.Jobs
				entry.CPUSeconds = rep.CPU().Seconds()
				entry.JobWallMinSecs = rep.JobWallMin().Seconds()
				entry.JobWallMeanSec = rep.JobWallMean().Seconds()
				entry.JobWallMaxSecs = rep.JobWallMax().Seconds()
				if wall > 0 {
					entry.Speedup = rep.CPU().Seconds() / wall.Seconds()
				}
				tracers = append(tracers, rep.LiveTracers()...)
			}
			entries = append(entries, entry)
			total.Runs += entry.Runs
			total.WallSeconds += entry.WallSeconds
			total.CPUSeconds += entry.CPUSeconds
		}
		total.Name = "total"
		if total.WallSeconds > 0 {
			total.Speedup = total.CPUSeconds / total.WallSeconds
		}
		return entries, total, tracers
	}

	var entries []benchEntry
	var total benchEntry
	var tracers []*trace.Tracer
	var parallelSeries []parallelEntry
	if len(workerSeries) == 0 {
		cfg := makeCfg(*parallel)
		cfg.Telemetry = sink
		entries, total, tracers = runPass(cfg, out)
	} else {
		// First pass streams to stdout and is the reference; every later
		// pass must reproduce it byte for byte. Telemetry attaches to the
		// first pass only, so the JSONL stream holds one copy of the
		// series.
		var ref bytes.Buffer
		cfg := makeCfg(workerSeries[0])
		cfg.Telemetry = sink
		entries, total, tracers = runPass(cfg, io.MultiWriter(out, &ref))
		parallelSeries = append(parallelSeries, parallelEntry{
			Workers: workerSeries[0], WallSeconds: total.WallSeconds,
			CPUSeconds: total.CPUSeconds, Speedup: 1,
		})
		for _, wc := range workerSeries[1:] {
			var buf bytes.Buffer
			_, t, trs := runPass(makeCfg(wc), &buf)
			if !bytes.Equal(buf.Bytes(), ref.Bytes()) {
				fmt.Fprintf(os.Stderr, "benchworkers: stdout at %d workers differs from %d workers\n",
					wc, workerSeries[0])
				os.Exit(1)
			}
			tracers = append(tracers, trs...)
			pe := parallelEntry{Workers: wc, WallSeconds: t.WallSeconds, CPUSeconds: t.CPUSeconds}
			if t.WallSeconds > 0 {
				pe.Speedup = parallelSeries[0].WallSeconds / t.WallSeconds
			}
			parallelSeries = append(parallelSeries, pe)
			fmt.Fprintf(os.Stderr, "benchworkers: %d workers: %.2fs wall (%.2fx vs %d workers), stdout identical\n",
				wc, t.WallSeconds, pe.Speedup, workerSeries[0])
		}
	}

	if *benchJSON != "" {
		workers := *parallel
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		bf := benchFile{
			Schema:      "vscale-bench/v1",
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			Workers:     workers,
			Quick:       *quick,
			Experiments: entries,
			Total:       total,
			Parallel:    parallelSeries,
		}
		data, err := json.MarshalIndent(bf, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*benchJSON, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote run accounting to %s (%d runs, %.2fs wall, %.2fs cpu, %.2fx)\n",
			*benchJSON, total.Runs, total.WallSeconds, total.CPUSeconds, total.Speedup)
	}

	if *traceOut != "" || *schedstats {
		// Each simulation ran with a private tracer; stitch the timelines
		// into one export, run0/, run1/, ... in submission order.
		tr := trace.Merge(tracers...)
		if tr == nil {
			tr = trace.New(trace.Config{RingCapacity: 1})
		}
		end := tr.MaxAt()
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := tr.WriteChrome(f, end); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(out, "\nwrote Chrome trace to %s (%d events recorded, %d dropped)\n",
				*traceOut, tr.Total(), tr.Dropped())
		}
		if *schedstats {
			fmt.Fprintln(out)
			fmt.Fprint(out, report.RenderSchedStats(tr.Snapshot(end)))
		}
	}

	// Timing goes to stderr so stdout stays byte-identical across
	// -parallel settings.
	fmt.Fprintf(os.Stderr, "\nall experiments done in %v (modes: %v)\n",
		time.Since(start).Round(time.Millisecond), scenario.Modes())

	if telemetryFile != nil {
		if err := telemetryFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote telemetry JSONL to %s\n", *telemetryOut)
	}
	if sink.Server() != nil && *telemetryLinger > 0 {
		// Hold the final snapshot up so scrapers (CI, a browser, a
		// Prometheus instance mid-interval) don't race a fast run's exit.
		fmt.Fprintf(os.Stderr, "telemetry: lingering %v on http://%s/metrics\n",
			*telemetryLinger, sink.Server().Addr())
		time.Sleep(*telemetryLinger)
	}
	if err := sink.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}
