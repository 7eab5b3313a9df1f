package main

import (
	"strings"
	"testing"
)

func TestParseTagsEachBenchmarkWithItsPackage(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: vscale/internal/sim
cpu: Test CPU
BenchmarkSchedule-2   	 1000	  15.0 ns/op	  0 B/op	  0 allocs/op
PASS
ok  	vscale/internal/sim	1.0s
pkg: vscale/internal/guest
BenchmarkGuestSegment-2   	 500	  1000 ns/op	  0 B/op	  0 allocs/op
PASS
pkg: vscale
BenchmarkRunFleet   	 1	  9.0e+07 ns/op	  100 B/op	  3 allocs/op
`
	var rest strings.Builder
	bf, err := parse(strings.NewReader(in), &rest)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name, pkg string
		procs     int
		allocs    int64
	}{
		{"Schedule", "vscale/internal/sim", 2, 0},
		{"GuestSegment", "vscale/internal/guest", 2, 0},
		{"RunFleet", "vscale", 1, 3},
	}
	if len(bf.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d", len(bf.Benchmarks), len(want))
	}
	for i, w := range want {
		b := bf.Benchmarks[i]
		if b.Name != w.name || b.Package != w.pkg || b.Procs != w.procs || b.AllocsPerOp != w.allocs {
			t.Errorf("benchmark %d = %+v, want %+v", i, b, w)
		}
	}
	if bf.Goos != "linux" || bf.CPU != "Test CPU" {
		t.Errorf("header = %q/%q", bf.Goos, bf.CPU)
	}
	if !strings.Contains(rest.String(), "PASS") {
		t.Errorf("unparsed lines not passed through: %q", rest.String())
	}
}
