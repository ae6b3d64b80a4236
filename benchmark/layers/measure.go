// Package layers holds the per-layer fixtures: one loop per layer, calling
// the layer's public function on state shaped like the workloads, reporting
// ns/op, allocs/op and B/op the way testing.B does but with a median over
// rounds and a duration the caller chooses. Nothing here touches the program:
// a fixture measures a layer from outside, so a later change to that layer
// moves the fixture's line and — by the share the reconciliation shows — the
// end-to-end metric it is predicted to move.
package layers

import (
	"runtime"
	"time"

	"u1/benchmark/report"
)

// Config sizes a fixture run.
type Config struct {
	// MinTime is how long one round runs at least; Rounds how many rounds
	// the median is taken over. The traced run uses 0.1 s x 5.
	MinTime time.Duration
	Rounds  int
	// Dir is a scratch directory for the fixtures that journal.
	Dir string
}

// Measurement is one fixture's cost per operation.
type Measurement struct {
	NsPerOp     float64
	AllocsPerOp float64
	BytesPerOp  float64
	N           int // operations per round
}

// minus subtracts a baseline loop: the cost of what the fixture adds to it.
func (m Measurement) minus(base Measurement) Measurement {
	return Measurement{
		NsPerOp:     m.NsPerOp - base.NsPerOp,
		AllocsPerOp: m.AllocsPerOp - base.AllocsPerOp,
		BytesPerOp:  m.BytesPerOp - base.BytesPerOp,
		N:           m.N,
	}
}

// measure calibrates n so that fn(n) runs for cfg.MinTime, then takes the
// median of cfg.Rounds rounds. fn must perform exactly n operations and keep
// its memory bounded however large n is.
func measure(cfg Config, fn func(n int)) Measurement {
	n := 1
	for {
		start := time.Now()
		fn(n)
		elapsed := time.Since(start)
		if elapsed >= cfg.MinTime || n >= 1<<30 {
			break
		}
		// Aim a fifth past the target, growing at most 100x per step, as
		// testing.B does.
		next := n * 100
		if elapsed > 0 {
			if predicted := int(1.2 * float64(n) * float64(cfg.MinTime) / float64(elapsed)); predicted < next {
				next = predicted
			}
		}
		if next <= n {
			next = n + 1
		}
		n = next
	}
	ns := make([]float64, cfg.Rounds)
	allocs := make([]float64, cfg.Rounds)
	bytes := make([]float64, cfg.Rounds)
	var before, after runtime.MemStats
	for i := range ns {
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		fn(n)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		ns[i] = float64(elapsed) / float64(n)
		allocs[i] = float64(after.Mallocs-before.Mallocs) / float64(n)
		bytes[i] = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	return Measurement{
		NsPerOp:     report.Median(ns),
		AllocsPerOp: report.Median(allocs),
		BytesPerOp:  report.Median(bytes),
		N:           n,
	}
}
