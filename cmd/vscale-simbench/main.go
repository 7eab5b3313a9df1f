// Command vscale-simbench converts `go test -bench` output into the
// BENCH_sim.json accounting file (schema vscale-simbench/v1), so the
// event-core microbenchmark numbers are tracked alongside the
// experiment-level BENCH_experiments.json. `make bench` pipes the
// benchmark run through it:
//
//	go test -run='^$' -bench=. -benchmem ./internal/sim/... | vscale-simbench -o BENCH_sim.json
//
// The parser understands the standard benchmark line shape
//
//	BenchmarkName-8   12345678   90.12 ns/op   0 B/op   0 allocs/op
//
// plus the goos/goarch/pkg/cpu header lines, which are carried into the
// JSON for provenance. The input may concatenate several packages' runs:
// each benchmark records the package of the most recent pkg: line above
// it. Unrecognized lines (PASS, ok ...) pass through to
// stderr so failures stay visible in the make output.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

type benchmark struct {
	Name        string  `json:"name"`
	Package     string  `json:"package"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type benchFile struct {
	Schema     string      `json:"schema"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "BENCH_sim.json", "output JSON path")
	flag.Parse()

	bf, err := parse(os.Stdin, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(bf.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "vscale-simbench: no benchmark lines on stdin")
		os.Exit(1)
	}

	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %d benchmark results to %s\n", len(bf.Benchmarks), *out)
}

// parse reads concatenated `go test -bench` output. Benchmark lines
// become entries tagged with the package of the latest pkg: line;
// lines it does not understand are copied to passthrough.
func parse(r io.Reader, passthrough io.Writer) (benchFile, error) {
	bf := benchFile{Schema: "vscale-simbench/v1"}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			bf.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			bf.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			bf.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBench(line); ok {
				b.Package = pkg
				bf.Benchmarks = append(bf.Benchmarks, b)
			} else {
				fmt.Fprintln(passthrough, line)
			}
		default:
			fmt.Fprintln(passthrough, line)
		}
	}
	return bf, sc.Err()
}

// parseBench decodes one benchmark result line into its measurements.
func parseBench(line string) (benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return benchmark{}, false
	}
	var b benchmark
	b.Name = strings.TrimPrefix(f[0], "Benchmark")
	b.Procs = 1
	if i := strings.LastIndex(b.Name, "-"); i >= 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Procs = p
			b.Name = b.Name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return benchmark{}, false
	}
	b.Iterations = iters
	// The remainder is value/unit pairs: 90.12 ns/op, 0 B/op, 0 allocs/op.
	for i := 2; i+1 < len(f); i += 2 {
		v := f[i]
		switch f[i+1] {
		case "ns/op":
			if b.NsPerOp, err = strconv.ParseFloat(v, 64); err != nil {
				return benchmark{}, false
			}
		case "B/op":
			if b.BytesPerOp, err = strconv.ParseInt(v, 10, 64); err != nil {
				return benchmark{}, false
			}
		case "allocs/op":
			if b.AllocsPerOp, err = strconv.ParseInt(v, 10, 64); err != nil {
				return benchmark{}, false
			}
		}
	}
	return b, true
}
