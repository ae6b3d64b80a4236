package analysis

import (
	"fmt"
	"strings"
	"time"

	"u1/internal/plot"
	"u1/internal/protocol"
	"u1/internal/stats"
	"u1/internal/trace"
)

// DDoS reproduces Fig. 5: hourly request rates by request class, and a
// simple anomaly detector that flags the attack windows. The paper found
// three attacks whose session/auth activity ran 5–15× and whose API activity
// ran 4.6×, 245× and 6.7× above normal.
type DDoS struct {
	SessionReqs *stats.TimeSeries // session management requests per hour
	AuthReqs    *stats.TimeSeries // authentication requests per hour
	StorageReqs *stats.TimeSeries // storage (API data) requests per hour
	Attacks     []AttackWindow
}

// AttackWindow is one detected anomaly.
type AttackWindow struct {
	Day        int
	Hour       int
	Multiplier float64 // auth activity vs series median
	Kind       string  // which series triggered
	// APIMultiplier is the peak storage-request rate over its median during
	// the window (the paper's 4.6x / 245x / 6.7x).
	APIMultiplier float64
}

// AnalyzeDDoS computes Fig. 5 and runs the detector.
func AnalyzeDDoS(t *Trace) DDoS {
	hours := t.Hours()
	res := DDoS{
		SessionReqs: stats.NewTimeSeries(t.Start, time.Hour, hours),
		AuthReqs:    stats.NewTimeSeries(t.Start, time.Hour, hours),
		StorageReqs: stats.NewTimeSeries(t.Start, time.Hour, hours),
	}
	for i := range t.Records {
		r := &t.Records[i]
		at := r.When()
		switch {
		case r.Kind == trace.KindSession && protocol.Op(r.Op) == protocol.OpAuthenticate:
			res.AuthReqs.Add(at, 1)
			res.SessionReqs.Add(at, 1)
		case r.Kind == trace.KindSession:
			res.SessionReqs.Add(at, 1)
		case r.Kind == trace.KindStorage:
			res.StorageReqs.Add(at, 1)
		}
	}
	// The attacks' defining signature is the session/auth storm (§5.4: a
	// single credential distributed to thousands of clients). Detection
	// therefore keys on the auth series; each window is annotated with the
	// API (storage) activity multiplier it carried.
	res.Attacks = detectAttacks(res.AuthReqs, "auth", 3, nil)
	storageMed := stats.Median(res.StorageReqs.NonZero())
	for i := range res.Attacks {
		a := &res.Attacks[i]
		if storageMed <= 0 {
			continue
		}
		var peak float64
		for h := a.Day*24 + a.Hour; h < len(res.StorageReqs.Vals) && h <= a.Day*24+a.Hour+3; h++ {
			if v := res.StorageReqs.Vals[h] / storageMed; v > peak {
				peak = v
			}
		}
		a.APIMultiplier = peak
	}
	return res
}

// detectAttacks flags hours whose rate exceeds threshold× the median of the
// surrounding week, merging consecutive hours into one window. This is the
// automated countermeasure the paper calls for (§5.4: U1's response was
// manual).
func detectAttacks(ts *stats.TimeSeries, kind string, threshold float64, into []AttackWindow) []AttackWindow {
	med := stats.Median(ts.NonZero())
	if med <= 0 {
		return into
	}
	lastHour := -10
	for h, v := range ts.Vals {
		if v > threshold*med {
			if h == lastHour+1 {
				// extend the previous window; keep its peak multiplier
				w := &into[len(into)-1]
				if v/med > w.Multiplier {
					w.Multiplier = v / med
				}
			} else {
				into = append(into, AttackWindow{
					Day:        h / 24,
					Hour:       h % 24,
					Multiplier: v / med,
					Kind:       kind,
				})
			}
			lastHour = h
		}
	}
	return into
}

// Render produces the Fig. 5 block.
func (d DDoS) Render() string {
	var b strings.Builder
	b.WriteString(plot.MultiLine("Fig 5: requests per hour by class", map[string][]float64{
		"session": d.SessionReqs.Vals,
		"auth":    d.AuthReqs.Vals,
		"storage": d.StorageReqs.Vals,
	}, 96, 10))
	if len(d.Attacks) == 0 {
		b.WriteString("  no attacks detected\n")
		return b.String()
	}
	b.WriteString("  detected attack windows:\n")
	for _, a := range d.Attacks {
		fmt.Fprintf(&b, "    day %2d %02d:00  auth %.1fx, API activity %.1fx above median\n",
			a.Day, a.Hour, a.Multiplier, a.APIMultiplier)
	}
	b.WriteString("  (paper: manual countermeasures, decay within an hour)\n")
	return b.String()
}
