// Command vscale-extend is a standalone calculator for Algorithm 1 of
// the paper: given a table of VMs (weight, consumption, optional
// reservation/cap/max-vCPUs), it prints each VM's fair share, CPU
// extendability and optimal vCPU count.
//
// Usage:
//
//	vscale-extend -pcpus 8 -period-ms 10 \
//	    -vm "hpc:512:76ms:4" -vm "desktop:256:3ms:2" ...
//
// Each -vm is name:weight:consumption[:maxVCPUs[:capPCPUs]], where
// consumption is the VM's CPU time over the last period (Go duration
// syntax: 35ms, 1.2ms, ...).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"vscale/internal/core"
	"vscale/internal/report"
	"vscale/internal/sim"
)

type vmFlags []string

func (v *vmFlags) String() string     { return strings.Join(*v, ",") }
func (v *vmFlags) Set(s string) error { *v = append(*v, s); return nil }

func main() {
	pcpus := flag.Int("pcpus", 8, "physical CPUs in the pool")
	periodMs := flag.Float64("period-ms", 10, "extendability period (ms)")
	var vms vmFlags
	flag.Var(&vms, "vm", "VM spec name:weight:consumption[:maxVCPUs[:capPCPUs]] (repeatable)")
	flag.Parse()

	if len(vms) == 0 {
		fmt.Fprintln(os.Stderr, "no VMs given; try: -vm hpc:512:76ms:4 -vm desktop:256:3ms:2")
		os.Exit(2)
	}
	period := sim.FromMillis(*periodMs)
	stats := make([]core.VMStat, 0, len(vms))
	for _, spec := range vms {
		st, err := parseVM(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -vm %q: %v\n", spec, err)
			os.Exit(2)
		}
		stats = append(stats, st)
	}

	res := core.ComputeExtendability(nil, stats, *pcpus, period)
	t := report.NewTable(
		fmt.Sprintf("CPU extendability (P=%d, t=%v)", *pcpus, period),
		"VM", "role", "fair share (pCPUs)", "extendability (pCPUs)", "optimal vCPUs")
	for _, r := range res {
		role := "releaser"
		if r.Competitor {
			role = "competitor"
		}
		t.AddRow(r.ID, role,
			fmt.Sprintf("%.2f", float64(r.FairShare)/float64(period)),
			fmt.Sprintf("%.2f", float64(r.Extend)/float64(period)),
			fmt.Sprint(r.OptimalVCPUs))
	}
	fmt.Print(t.String())
	fmt.Printf("pool slack this period: %.2f pCPUs\n",
		float64(core.PoolSlack(stats, res))/float64(period))
}

func parseVM(spec string) (core.VMStat, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 3 {
		return core.VMStat{}, fmt.Errorf("want name:weight:consumption[:maxVCPUs[:capPCPUs]]")
	}
	w, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return core.VMStat{}, fmt.Errorf("weight: %v", err)
	}
	cons, err := time.ParseDuration(parts[2])
	if err != nil {
		return core.VMStat{}, fmt.Errorf("consumption: %v", err)
	}
	st := core.VMStat{ID: parts[0], Weight: w, Consumption: sim.Time(cons)}
	if len(parts) > 3 {
		n, err := strconv.Atoi(parts[3])
		if err != nil {
			return core.VMStat{}, fmt.Errorf("maxVCPUs: %v", err)
		}
		st.MaxVCPUs = n
		st.UP = n == 1
	}
	if len(parts) > 4 {
		c, err := strconv.ParseFloat(parts[4], 64)
		if err != nil {
			return core.VMStat{}, fmt.Errorf("capPCPUs: %v", err)
		}
		st.CapPCPUs = c
	}
	return st, nil
}
