package stats

import (
	"testing"
	"time"
)

var t0 = time.Date(2014, 1, 11, 0, 0, 0, 0, time.UTC) // trace start in the paper

func TestTimeSeriesBinning(t *testing.T) {
	ts := NewTimeSeries(t0, time.Hour, 48)
	ts.Add(t0, 1)
	ts.Add(t0.Add(59*time.Minute), 2)
	ts.Add(t0.Add(time.Hour), 5)
	ts.Add(t0.Add(48*time.Hour), 100) // out of range: ignored
	ts.Add(t0.Add(-time.Minute), 100) // before start: ignored
	if ts.Vals[0] != 3 || ts.Vals[1] != 5 {
		t.Errorf("bins = %v %v", ts.Vals[0], ts.Vals[1])
	}
	if got := ts.BinStart(1); !got.Equal(t0.Add(time.Hour)) {
		t.Errorf("BinStart(1) = %v", got)
	}
	if i, ok := ts.Index(t0.Add(90 * time.Minute)); !ok || i != 1 {
		t.Errorf("Index = %d,%v", i, ok)
	}
	if _, ok := ts.Index(t0.Add(1000 * time.Hour)); ok {
		t.Error("out-of-grid index should be !ok")
	}
}

func TestTimeSeriesHourOfDay(t *testing.T) {
	ts := NewTimeSeries(t0, time.Hour, 72) // 3 days
	for d := 0; d < 3; d++ {
		ts.Add(t0.Add(time.Duration(d)*24*time.Hour).Add(13*time.Hour), 10) // 1pm
	}
	hod := ts.HourOfDay()
	if hod[13] != 10 {
		t.Errorf("hod[13] = %v, want 10", hod[13])
	}
	if hod[3] != 0 {
		t.Errorf("hod[3] = %v, want 0", hod[3])
	}
}
