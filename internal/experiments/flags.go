package experiments

import "flag"

// FleetFlags are the fleet settings both command-line tools expose
// (BindFleetFlags) and the cluster experiments read through Config.
// -policies is not among them: its default and meaning differ between
// the tools.
type FleetFlags struct {
	// LagEpochs bounds placement staleness and host run-ahead (0 =
	// cluster.DefaultLagEpochs).
	LagEpochs int
	// Warm is the policy-neutral warm prefix and its checkpoint handoff
	// (see ClusterWarm). The warmfork and bakeoff experiments read only
	// Warm.Epochs, which overrides their default warm length when > 0.
	Warm ClusterWarm
	// Elastic selects the fleets' elasticity mode (see
	// cluster.ElasticityFor): "" or "none"/"vertical" for the historical
	// vertical-only fleets, "migrate"/"replicas"/"hybrid" to turn on
	// live migration and/or ReplicaSet-style horizontal autoscaling.
	Elastic string
}

// BindFleetFlags registers -lag, -warm-epochs, -warmfork, -checkpoint,
// -restore and -elastic on fs.
func BindFleetFlags(fs *flag.FlagSet) *FleetFlags {
	f := &FleetFlags{}
	fs.IntVar(&f.LagEpochs, "lag", 0, "fleet placement-staleness/run-ahead bound, epochs (0 = default)")
	fs.IntVar(&f.Warm.Epochs, "warm-epochs", 0, "fleet policy-neutral warm-up prefix, epochs (0 = none, or the experiment's default)")
	fs.BoolVar(&f.Warm.Fork, "warmfork", false, "simulate the fleet warm prefix once and fork every policy from the snapshot (requires -warm-epochs)")
	fs.StringVar(&f.Warm.CheckpointPath, "checkpoint", "", "write the fleet warm-prefix snapshot (vscale-checkpoint/v1) to this file")
	fs.StringVar(&f.Warm.RestorePath, "restore", "", "fork the fleet policies from a previously written snapshot instead of simulating the warm prefix")
	fs.StringVar(&f.Elastic, "elastic", "", "fleet elasticity layer: none | migrate | replicas | hybrid (default none; see docs/cluster.md)")
	return f
}

// Set reports whether any fleet flag differs from its default.
func (f *FleetFlags) Set() bool { return *f != FleetFlags{} }
