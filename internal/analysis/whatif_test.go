package analysis

import (
	"strings"
	"testing"
	"time"

	"u1/internal/stats"
)

func TestWhatIf(t *testing.T) {
	tr := testTrace(t)
	w := AnalyzeWhatIf(tr.Sanitize())
	if w.UploadBytes == 0 || w.UpdateBytes == 0 {
		t.Fatalf("whatif = %+v", w)
	}
	if w.DeltaUpdateSavings == 0 || w.DeltaUpdateSavings >= w.UpdateBytes {
		t.Errorf("delta savings = %d of %d", w.DeltaUpdateSavings, w.UpdateBytes)
	}
	if w.DedupSavings == 0 || w.DedupMonthlyUSD <= 0 {
		t.Errorf("dedup savings = %d ($%.0f)", w.DedupSavings, w.DedupMonthlyUSD)
	}
	if w.TotalSessions == 0 || w.ColdSessions == 0 {
		t.Fatalf("sessions: %d cold of %d", w.ColdSessions, w.TotalSessions)
	}
	// Most sessions are cold (paper: 94.4%).
	if frac := float64(w.ColdSessions) / float64(w.TotalSessions); frac < 0.7 {
		t.Errorf("cold session share = %v, want dominant", frac)
	}
	if w.CacheHitRate <= 0 || w.CacheHitRate > 1 {
		t.Errorf("cache hit rate = %v", w.CacheHitRate)
	}
	out := w.Render()
	if !strings.Contains(out, "delta updates") || !strings.Contains(out, "dedup") {
		t.Error("render")
	}
}

// TestHourlyStats pins how ablation studies summarise a per-hour series:
// the box plot of its non-empty bins.
func TestHourlyStats(t *testing.T) {
	ts := stats.NewTimeSeries(time.Unix(0, 0), time.Hour, 4)
	ts.Vals = []float64{0, 2, 4, 6}
	b := stats.NewBoxPlot(ts.NonZero())
	if b.N != 3 || b.Median != 4 {
		t.Errorf("box = %+v", b)
	}
}
