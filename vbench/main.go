// Command vbench is the repository benchmark: it runs one of four
// workloads against the simulator's public packages, checks the
// simulated outputs, and prints every metric by name with its unit.
//
//	vbench --workload paper-sync --seed 1 --seconds 20 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) installs a sim.Observer on every engine it can reach
// and reports the per-layer metrics. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --workload all runs every workload in turn; --spec prints the
// benchmark definition (BENCHMARK.json). See README.md.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vscale/internal/experiments"
	"vscale/internal/sim"
	"vscale/internal/workload/npb"
	"vscale/internal/workload/parsec"
)

// size scales the workloads; the smoke test runs them tiny.
type size struct {
	npbApps, parsecApps []string
	spins               []uint64
	webRates            []float64 // K requests/s
	webWindow           sim.Time
	fleetHosts          int
	fleetHorizon        sim.Time
	forkHosts           int
	forkHorizon         sim.Time
	forkWarm            int // warm-prefix epochs
}

func fullSize() size {
	return size{
		npbApps:      npb.Names(),
		parsecApps:   parsec.Names(),
		spins:        experiments.SpinCounts,
		webRates:     []float64{3, 5, 7},
		webWindow:    20 * sim.Second,
		fleetHosts:   24,
		fleetHorizon: 4 * sim.Second,
		forkHosts:    8,
		forkHorizon:  6 * sim.Second,
		forkWarm:     4,
	}
}

func tinySize() size {
	return size{
		npbApps:      []string{"cg"},
		parsecApps:   []string{"swaptions"},
		spins:        []uint64{300_000},
		webRates:     []float64{3},
		webWindow:    sim.Second,
		fleetHosts:   2,
		fleetHorizon: 2 * sim.Second,
		forkHosts:    4,
		forkHorizon:  16 * sim.Second,
		forkWarm:     8,
	}
}

// outcome is what one execution of a workload produced.
type outcome struct {
	setup    time.Duration      // wall time of the set-up phase
	harness  time.Duration      // benchmark-only work inside the run, excluded from wall and CPU
	sim      map[string]float64 // simulated end-to-end metrics
	layer    map[string]float64 // per-layer counters and public-call timings
	requests float64            // requests offered, for per-request ratios
	digest   strings.Builder    // canonical text of every simulated output
	ops      int
	failures []string
}

func newOutcome() outcome {
	return outcome{sim: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// simDigest is the sha256 of the simulated outputs: equal digests mean
// simulated identity.
func (o *outcome) simDigest() string {
	var b strings.Builder
	b.WriteString(o.digest.String())
	names := make([]string, 0, len(o.sim))
	for n := range o.sim {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%s\n", n, fmtFloat(o.sim[n]))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

type workloadDef struct {
	name, why string
	run       func(seed uint64, sz size, lc *layerClock, cal *calib) outcome
}

var workloads = []workloadDef{
	{"paper-sync", "NPB and PARSEC sweeps, all apps x 4 modes x spin counts, serial closed loop: guest sync and the Xen scheduler do the work", paperSync},
	{"web-host", "Figure 14 httpd host under open-loop Poisson load at 3K/5K/7K req/s, Baseline and vScale: the I/O path, httpd and loadgen", webHost},
	{"fleet-vscale", "24-host churn fleet under the vscale policy, bounded-lag executor with one worker per CPU, no warm prefix: control plane and runner pool", fleetVScale},
	{"fork-elastic", "8-host warm-prefix capture, encode and decode, then vertical/horizontal/hybrid forks: the only checkpoint, migration and replicaset user", forkElastic},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sample is one measured execution.
type sample struct {
	out   outcome
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's peak resident set in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// execute runs the workload once from a collected heap and measures it.
func execute(w workloadDef, seed uint64, sz size, lc *layerClock, cal *calib) sample {
	runtime.GC()
	a0, c0, t0 := totalAlloc(), cpuTime(), time.Now()
	out := w.run(seed, sz, lc, cal)
	wall, cpu := time.Since(t0)-out.harness, cpuTime()-c0-out.harness
	return sample{out: out, wall: wall, cpu: cpu, alloc: totalAlloc() - a0}
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's report; it is printed as the last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measurement accumulates executions of one workload into a result.
type measurement struct {
	res      result
	digest   string
	problems []string
	walls    []float64 // per-execution wall seconds, unscaled
	cal      *calib    // reference-kernel times, untraced runs only
}

func (m *measurement) add(s sample, what string) {
	m.res.Attempted += s.out.ops
	if len(s.out.failures) > 0 {
		m.res.Failed += len(s.out.failures)
		for _, f := range s.out.failures {
			m.problems = append(m.problems, what+": "+f)
		}
	}
	d := s.out.simDigest()
	if m.digest == "" {
		m.digest = d
	} else if d != m.digest {
		m.res.Failed++
		m.problems = append(m.problems, fmt.Sprintf("%s: simulated outputs differ (digest %s, first %s)", what, d, m.digest))
	}
}

// measure runs w for about seconds of wall time. Untraced, it repeats
// the workload (at least twice) and reports medians of the end-to-end
// metrics, with times in reference seconds (calibrate.go). Traced, it
// alternates an untraced and a traced execution, checks that both
// simulate identically, and reports the per-layer metrics of the
// traced one.
func measure(w workloadDef, seed uint64, sz size, seconds float64, traced bool) measurement {
	m := measurement{res: result{Metrics: map[string]value{}}}
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var cpus, setups, allocs, overheads []float64
	var plain, tracedRun sample
	var clock *layerClock
	if !traced {
		m.cal = newCalib()
		m.cal.batch()
	}
	for {
		plain = execute(w, seed, sz, nil, m.cal)
		m.add(plain, "run")
		m.walls = append(m.walls, plain.wall.Seconds())
		cpus = append(cpus, plain.cpu.Seconds())
		setups = append(setups, plain.out.setup.Seconds())
		allocs = append(allocs, float64(plain.alloc))
		took := plain.wall
		if !traced {
			m.cal.batch()
		} else {
			clock = newLayerClock()
			tracedRun = execute(w, seed, sz, clock, nil)
			m.add(tracedRun, "traced run")
			overheads = append(overheads, ratio(float64(tracedRun.wall), float64(plain.wall)))
			took += tracedRun.wall
		}
		if (traced || len(m.walls) >= 2) && time.Since(start)+took > budget {
			break
		}
	}
	if traced {
		// Allocation ratios come from the untraced twin, which the
		// observer cannot perturb.
		lm := tracedRun.out.layer
		clock.metrics(lm)
		lm["sim.cancel_ratio"] = ratio(lm["sim.cancelled"], lm["sim.scheduled"])
		lm["sim.alloc_b_per_event"] = ratio(float64(plain.alloc), lm["sim.events"])
		lm["httpd.alloc_b_per_request"] = ratio(float64(plain.alloc), plain.out.requests)
		lm["trace.overhead_ratio"] = median(overheads)
		for _, mt := range perLayer {
			m.res.Metrics[mt.Name] = value{lm[mt.Name], mt.Unit}
		}
	} else {
		e2e := plain.out.sim
		wallScale := refNominal / median(m.cal.wall)
		e2e["wall_s"] = median(m.walls) * wallScale
		e2e["cpu_s"] = median(cpus) * refNominal / median(m.cal.cpu)
		e2e["setup_s"] = median(setups) * wallScale
		e2e["alloc_mb"] = median(allocs) / 1e6
		e2e["peak_rss_mb"] = peakRSS() / 1e6
		for _, mt := range endToEnd {
			m.res.Metrics[mt.Name] = value{e2e[mt.Name], mt.Unit}
		}
	}
	m.res.Correct = m.res.Failed == 0
	return m
}

// environment describes the machine a result was measured on.
func environment(seed uint64) string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), seed)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// report prints a measurement: environment, metric table, digest and
// any failed checks. The caller prints the JSON line.
func report(out io.Writer, name string, seed uint64, traced bool, m measurement) {
	fmt.Fprintf(out, "workload=%s trace=%v %s\n", name, traced, environment(seed))
	names := make([]string, 0, len(m.res.Metrics))
	for n := range m.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := m.res.Metrics[n]
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", n, v.Value, v.Unit)
	}
	fmt.Fprintf(out, "wall samples n=%d:", len(m.walls))
	for _, w := range m.walls {
		fmt.Fprintf(out, " %.4f", w)
	}
	if m.cal != nil {
		fmt.Fprintf(out, "\nreference kernel wall/cpu s:")
		for i := range m.cal.wall {
			fmt.Fprintf(out, " %.4f/%.4f", m.cal.wall[i], m.cal.cpu[i])
		}
	}
	fmt.Fprintf(out, "\nsim-digest %s\n", m.digest)
	for _, p := range m.problems {
		fmt.Fprintf(out, "FAILED %s\n", p)
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames()+" or all")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", runSeconds, "wall seconds to measure for")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	spec := flag.Bool("spec", false, "print the benchmark definition (BENCHMARK.json) and exit")
	flag.Parse()
	if *spec {
		data, err := specJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "vbench:", err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "vbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	traced := *traceFlag == 1
	var run []workloadDef
	if *name == "all" {
		run = workloads
	} else if w, ok := findWorkload(*name); ok {
		run = []workloadDef{w}
	} else {
		fmt.Fprintf(os.Stderr, "vbench: unknown workload %q (want %s or all)\n", *name, workloadNames())
		os.Exit(2)
	}

	final := result{Correct: true, Metrics: map[string]value{}}
	for _, w := range run {
		m := measure(w, *seed, fullSize(), *seconds, traced)
		report(os.Stdout, w.name, *seed, traced, m)
		final.Correct = final.Correct && m.res.Correct
		final.Attempted += m.res.Attempted
		final.Failed += m.res.Failed
		for n, v := range m.res.Metrics {
			if len(run) > 1 {
				n = w.name + "/" + n
			}
			final.Metrics[n] = v
		}
	}
	var line bytes.Buffer
	if err := json.NewEncoder(&line).Encode(final); err != nil {
		fmt.Fprintln(os.Stderr, "vbench:", err)
		os.Exit(1)
	}
	os.Stdout.Write(line.Bytes())
	if !final.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}
