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

// OnlineActive reproduces Fig. 6: online vs active users per hour. A user is
// online in an hour if a session of theirs overlaps it; active if they issued
// at least one data-management operation in it (§6.1).
type OnlineActive struct {
	Online, Active *stats.TimeSeries
	// ActiveShare min/max over hours with online users (paper: 3.49%–16.25%).
	MinActiveShare, MaxActiveShare float64
}

// AnalyzeOnlineActive computes Fig. 6 with 1-hour bins.
func AnalyzeOnlineActive(t *Trace) OnlineActive {
	hours := t.Hours()
	online := make([]map[uint64]struct{}, hours)
	active := make([]map[uint64]struct{}, hours)
	for i := range online {
		online[i] = make(map[uint64]struct{})
		active[i] = make(map[uint64]struct{})
	}
	mark := func(sets []map[uint64]struct{}, hour int, user uint64) {
		if hour >= 0 && hour < hours {
			sets[hour][user] = struct{}{}
		}
	}
	// Session intervals: pair Authenticate/CloseSession per session id.
	opened := make(map[uint64]struct {
		user uint64
		at   int64
	})
	hourOf := func(ts int64) int { return int(time.Unix(0, ts).Sub(t.Start) / time.Hour) }

	for i := range t.Records {
		r := &t.Records[i]
		switch {
		case r.Kind == trace.KindSession && protocol.Op(r.Op) == protocol.OpAuthenticate:
			if r.Status == uint8(protocol.StatusOK) {
				opened[r.Session] = struct {
					user uint64
					at   int64
				}{r.User, r.Time}
			}
		case r.Kind == trace.KindSession && protocol.Op(r.Op) == protocol.OpCloseSession:
			if o, ok := opened[r.Session]; ok {
				for h := hourOf(o.at); h <= hourOf(r.Time); h++ {
					mark(online, h, o.user)
				}
				delete(opened, r.Session)
			}
		case r.Kind == trace.KindStorage && protocol.Op(r.Op).IsDataManagement() &&
			r.Status == uint8(protocol.StatusOK):
			mark(active, hourOf(r.Time), r.User)
		}
	}
	// Sessions still open at the window end count as online through it.
	for _, o := range opened {
		for h := hourOf(o.at); h < hours; h++ {
			mark(online, h, o.user)
		}
	}

	res := OnlineActive{
		Online: stats.NewTimeSeries(t.Start, time.Hour, hours),
		Active: stats.NewTimeSeries(t.Start, time.Hour, hours),
	}
	res.MinActiveShare = 1
	for h := 0; h < hours; h++ {
		res.Online.Vals[h] = float64(len(online[h]))
		res.Active.Vals[h] = float64(len(active[h]))
		// The share is only meaningful with a reasonable online population;
		// tiny-sample hours (a simulation-scale artifact) are skipped.
		if len(online[h]) >= 20 {
			share := float64(len(active[h])) / float64(len(online[h]))
			if share < res.MinActiveShare {
				res.MinActiveShare = share
			}
			if share > res.MaxActiveShare {
				res.MaxActiveShare = share
			}
		}
	}
	if res.MinActiveShare > res.MaxActiveShare {
		res.MinActiveShare = 0
	}
	return res
}

// Render produces the Fig. 6 block.
func (oa OnlineActive) Render() string {
	return plot.MultiLine("Fig 6: online vs active users per hour", map[string][]float64{
		"online": oa.Online.Vals,
		"active": oa.Active.Vals,
	}, 96, 10)
}

// OpFrequency reproduces Fig. 7a: request counts per operation type.
type OpFrequency struct {
	Ops    []protocol.Op
	Counts []uint64
}

// AnalyzeOpFrequency counts API operations (successful or not, as the trace
// records requests).
func AnalyzeOpFrequency(t *Trace) OpFrequency {
	counts := make(map[protocol.Op]uint64)
	for i := range t.Records {
		r := &t.Records[i]
		if r.Kind == trace.KindStorage || r.Kind == trace.KindSession {
			counts[protocol.Op(r.Op)]++
		}
	}
	res := OpFrequency{}
	for _, op := range protocol.Ops() {
		if counts[op] > 0 {
			res.Ops = append(res.Ops, op)
			res.Counts = append(res.Counts, counts[op])
		}
	}
	return res
}

// Render produces the Fig. 7a block.
func (of OpFrequency) Render() string {
	labels := make([]string, len(of.Ops))
	values := make([]float64, len(of.Ops))
	for i, op := range of.Ops {
		labels[i] = op.String()
		values[i] = float64(of.Counts[i])
	}
	return plot.Bars("Fig 7a: number of user operations per type", labels, values, 48)
}

// UserTraffic reproduces Fig. 7b/7c and the §6.1 user classification: the
// distribution of per-user traffic, its inequality, and the class mix.
type UserTraffic struct {
	// Up/Down CDFs of bytes across users that moved any data.
	Up, Down *stats.CDF
	// Shares of the population that downloaded/uploaded anything (paper:
	// 14% and 25%).
	DownloadedShare, UploadedShare float64
	// Lorenz/Gini over active users (paper: ≈0.894 up, ≈0.897 down;
	// top 1% of active users → 65.6% of traffic).
	GiniUp, GiniDown float64
	LorenzUp         []stats.LorenzPoint
	Top1Share        float64
	// Class mix per §6.1 (occasional/upload-only/download-only/heavy;
	// paper: 85.82/7.22/2.34/4.62).
	ClassShares map[string]float64
	Users       int
}

// AnalyzeUserTraffic computes Fig. 7b/7c.
func AnalyzeUserTraffic(t *Trace) UserTraffic {
	type ud struct{ up, down float64 }
	perUser := make(map[uint64]*ud)
	seen := func(u uint64) *ud {
		d, ok := perUser[u]
		if !ok {
			d = &ud{}
			perUser[u] = d
		}
		return d
	}
	for i := range t.Records {
		r := &t.Records[i]
		switch {
		case r.Kind == trace.KindSession && protocol.Op(r.Op) == protocol.OpAuthenticate:
			seen(r.User) // online-only users still count in the population
		case isUpload(r):
			seen(r.User).up += float64(r.Size)
		case isDownload(r):
			seen(r.User).down += float64(r.Size)
		}
	}
	var ups, downs, totals []float64
	var withUp, withDown int
	classes := map[string]int{}
	for _, u := range sortedKeys(perUser) {
		d := perUser[u]
		if d.up > 0 {
			ups = append(ups, d.up)
			withUp++
		}
		if d.down > 0 {
			downs = append(downs, d.down)
			withDown++
		}
		if d.up > 0 || d.down > 0 {
			totals = append(totals, d.up+d.down)
		}
		classes[classifyUser(d.up, d.down)]++
	}
	n := len(perUser)
	res := UserTraffic{
		Up:   stats.NewCDF(ups),
		Down: stats.NewCDF(downs),
		// Inequality over users that moved data in that direction, as the
		// paper's "active users".
		GiniUp:   stats.Gini(ups),
		GiniDown: stats.Gini(downs),
		Users:    n,
	}
	if n > 0 {
		res.DownloadedShare = float64(withDown) / float64(n)
		res.UploadedShare = float64(withUp) / float64(n)
	}
	res.LorenzUp = stats.Lorenz(ups)
	res.Top1Share = stats.TopShare(totals, 0.01)
	res.ClassShares = make(map[string]float64, 4)
	for name, c := range classes {
		res.ClassShares[name] = float64(c) / float64(max(1, n))
	}
	return res
}

// classifyUser applies the Drago et al. rule of §6.1: occasional below 10 KB
// total; three orders of magnitude imbalance makes upload-/download-only;
// heavy otherwise.
func classifyUser(up, down float64) string {
	if up+down < 10*1024 {
		return "occasional"
	}
	switch {
	case down == 0 || (up > 0 && up/down >= 1000):
		return "upload-only"
	case up == 0 || (down > 0 && down/up >= 1000):
		return "download-only"
	default:
		return "heavy"
	}
}

// Render produces the Fig. 7b/7c block.
func (ut UserTraffic) Render() string {
	var b strings.Builder
	b.WriteString("Fig 7b: per-user transferred data\n")
	fmt.Fprintf(&b, "  users: %d; downloaded anything: %.1f%%; uploaded: %.1f%%\n",
		ut.Users, 100*ut.DownloadedShare, 100*ut.UploadedShare)
	b.WriteString(plot.CDF("  bytes per user", map[string]*stats.CDF{
		"upload": ut.Up, "download": ut.Down,
	}, 80))
	b.WriteString("Fig 7c: traffic inequality across active users\n")
	return b.String()
}
