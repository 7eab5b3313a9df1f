package main

import (
	"strings"
	"time"

	"vscale/internal/sim"
)

// The layers a single-host engine's events are charged to, keyed by
// the event label's prefix ("guest/seg" belongs to guest, "xen/tick"
// to xen). Labels without a known prefix land in other.
const (
	layerGuest = iota
	layerXen
	layerHTTPD
	layerLoadgen
	layerCluster
	layerOther
	numLayers
)

var layerNames = [numLayers]string{"guest", "xen", "httpd", "loadgen", "cluster", "other"}

// reportedLayers are the layers whose split the traced run publishes.
var reportedLayers = []int{layerGuest, layerXen, layerHTTPD, layerLoadgen}

func layerOf(label string) int {
	if i := strings.IndexByte(label, '/'); i >= 0 {
		label = label[:i]
	}
	switch label {
	case "guest":
		return layerGuest
	case "xen":
		return layerXen
	case "httpd":
		return layerHTTPD
	case "loadgen":
		return layerLoadgen
	case "cluster":
		return layerCluster
	}
	return layerOther
}

// layerClock is a sim.Observer that splits an engine's wall time by
// layer. The engine calls it just before each event body runs, so the
// wall time between two calls belongs to the earlier event: its body,
// everything that body called into, and the engine's own pop of the
// next event. A Xen dispatch made from a guest event is charged to
// guest. The clock must be paused whenever control leaves the engine
// (after each RunUntil/RunApp) so harness time between runs is not
// charged to the last event. It never allocates, and it only reads the
// label, so it cannot change simulation results.
type layerClock struct {
	base   time.Time
	last   time.Duration
	cur    int // layer of the event in progress; -1 while paused
	events [numLayers]uint64
	ns     [numLayers]int64
}

func newLayerClock() *layerClock {
	return &layerClock{base: time.Now(), cur: -1}
}

// observe is the clock's sim.Observer.
func (c *layerClock) observe(_ sim.Time, label string) {
	now := time.Since(c.base)
	if c.cur >= 0 {
		c.ns[c.cur] += int64(now - c.last)
	}
	c.last = now
	c.cur = layerOf(label)
	c.events[c.cur]++
}

// pause charges the event in progress up to now and stops the clock
// until the next event. A nil clock is a no-op, so untraced runs can
// call it unconditionally.
func (c *layerClock) pause() {
	if c == nil || c.cur < 0 {
		return
	}
	c.ns[c.cur] += int64(time.Since(c.base) - c.last)
	c.cur = -1
}

// metrics renders the per-layer split: events, wall ns per event and
// share of all attributed event time for every reported layer.
func (c *layerClock) metrics(m map[string]float64) {
	var total int64
	for _, ns := range c.ns {
		total += ns
	}
	for _, l := range reportedLayers {
		name := layerNames[l]
		m[name+".events"] = float64(c.events[l])
		m[name+".ns_per_event"] = ratio(float64(c.ns[l]), float64(c.events[l]))
		m[name+".time_share"] = ratio(float64(c.ns[l]), float64(total))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
