package analysis

import (
	"fmt"
	"strings"
	"time"

	"u1/internal/plot"
	"u1/internal/protocol"
	"u1/internal/trace"
)

// WhatIf quantifies the §9 improvement opportunities the paper derives from
// its measurements: what the provider would save with delta updates, what
// file-based deduplication saves, how much capacity cold sessions waste, and
// how effective a server-side download cache would be. Each estimate comes
// with the assumption it rests on.
type WhatIf struct {
	// DeltaUpdateSavings is the upload traffic avoidable with delta updates
	// at the assumed DeltaEfficiency (the paper attributes 18.5% of upload
	// traffic to updates sent in full; delta encoding would ship only the
	// changed portion).
	UpdateBytes        uint64
	UploadBytes        uint64
	DeltaEfficiency    float64 // assumed fraction of an update that is unchanged
	DeltaUpdateSavings uint64

	// DedupSavings is the §5.3 storage saving (logical − unique bytes) and
	// its share of the monthly bill at the paper's ≈$20k S3 cost.
	DedupSavings    uint64
	DedupMonthlyUSD float64

	// Cold sessions hold TCP connections without doing data management
	// (§7.3: 94.4% of sessions); ColdConnHours is connection-time spent on
	// them — the resource a pull-mode client would release.
	ColdSessions   int
	TotalSessions  int
	ColdConnHours  float64
	TotalConnHours float64

	// CacheHitRate estimates a server-side LRU over downloads: the share of
	// downloads re-reading content read within the previous CacheWindow
	// (§5.2 motivates caching from the short RAR times and the long tail of
	// reads per file).
	CacheWindow  time.Duration
	CacheHits    uint64
	Downloads    uint64
	CacheHitRate float64

	// SyncDefermentSavings: uploads of intermediate versions that a short
	// deferment window would have coalesced (a WAW within DefermentWindow
	// makes the earlier version's transfer unnecessary).
	DefermentWindow      time.Duration
	IntermediateVersions uint64
	IntermediateBytes    uint64
}

// AnalyzeWhatIf computes the §9 estimates with the stated assumptions.
func AnalyzeWhatIf(t *Trace) WhatIf {
	res := WhatIf{
		DeltaEfficiency: 0.80, // a tag edit rewrites a small fraction of the file
		CacheWindow:     24 * time.Hour,
		DefermentWindow: 30 * time.Second,
	}

	type sess struct {
		started int64
		ops     int
	}
	open := make(map[uint64]*sess)
	lastRead := make(map[uint64]int64)  // node → last download time
	lastWrite := make(map[uint64]int64) // node → last upload time
	lastWriteSize := make(map[uint64]uint64)

	for i := range t.Records {
		r := &t.Records[i]
		switch {
		case r.Kind == trace.KindSession && protocol.Op(r.Op) == protocol.OpAuthenticate:
			if r.Status == uint8(protocol.StatusOK) {
				open[r.Session] = &sess{started: r.Time}
			}
		case r.Kind == trace.KindSession && protocol.Op(r.Op) == protocol.OpCloseSession:
			if s, ok := open[r.Session]; ok {
				hours := float64(r.Time-s.started) / float64(time.Hour)
				res.TotalSessions++
				res.TotalConnHours += hours
				if s.ops == 0 {
					res.ColdSessions++
					res.ColdConnHours += hours
				}
				delete(open, r.Session)
			}
		case isUpload(r):
			if s, ok := open[r.Session]; ok {
				s.ops++
			}
			res.UploadBytes += r.Size
			if r.IsUpdate() {
				res.UpdateBytes += r.Size
			}
			// Sync deferment: a write landing within the window of the
			// previous write to the same node means the previous transfer
			// shipped an intermediate version.
			if prev, ok := lastWrite[r.Node]; ok {
				if time.Duration(r.Time-prev) <= res.DefermentWindow {
					res.IntermediateVersions++
					res.IntermediateBytes += lastWriteSize[r.Node]
				}
			}
			lastWrite[r.Node] = r.Time
			lastWriteSize[r.Node] = r.Size
		case isDownload(r):
			if s, ok := open[r.Session]; ok {
				s.ops++
			}
			res.Downloads++
			if prev, ok := lastRead[r.Node]; ok {
				if time.Duration(r.Time-prev) <= res.CacheWindow {
					res.CacheHits++
				}
			}
			lastRead[r.Node] = r.Time
		}
	}
	res.DeltaUpdateSavings = uint64(float64(res.UpdateBytes) * res.DeltaEfficiency)
	if res.Downloads > 0 {
		res.CacheHitRate = float64(res.CacheHits) / float64(res.Downloads)
	}

	d := AnalyzeDedup(t)
	res.DedupSavings = uint64(d.Ratio * float64(res.UploadBytes))
	res.DedupMonthlyUSD = 20000 * d.Ratio // the paper's ≈$20k monthly bill
	return res
}

// Render produces the §9 block.
func (w WhatIf) Render() string {
	var b strings.Builder
	b.WriteString("§9 what-if estimates (assumptions stated inline)\n")
	fmt.Fprintf(&b, "  delta updates: %sB of %sB upload traffic is updates; at %.0f%% delta\n",
		plot.SI(float64(w.UpdateBytes)), plot.SI(float64(w.UploadBytes)), 100*w.DeltaEfficiency)
	fmt.Fprintf(&b, "    efficiency the client would avoid %sB of transfers\n",
		plot.SI(float64(w.DeltaUpdateSavings)))
	fmt.Fprintf(&b, "  dedup: %sB stored once instead of many times ≈ $%.0f/month at U1's bill\n",
		plot.SI(float64(w.DedupSavings)), w.DedupMonthlyUSD)
	cold := 0.0
	if w.TotalSessions > 0 {
		cold = float64(w.ColdSessions) / float64(w.TotalSessions)
	}
	fmt.Fprintf(&b, "  cold sessions: %.1f%% of sessions holding %.0f of %.0f conn-hours\n",
		100*cold, w.ColdConnHours, w.TotalConnHours)
	fmt.Fprintf(&b, "  download cache (%v window): %.1f%% of downloads re-read recent content (paper: RAR-heavy)\n",
		w.CacheWindow, 100*w.CacheHitRate)
	fmt.Fprintf(&b, "  sync deferment (%v): %d intermediate versions (%sB) were transferred\n",
		w.DefermentWindow, w.IntermediateVersions, plot.SI(float64(w.IntermediateBytes)))
	return b.String()
}
