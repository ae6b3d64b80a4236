package analysis

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"u1/internal/plot"
	"u1/internal/protocol"
	"u1/internal/stats"
	"u1/internal/trace"
)

// RPCPerf reproduces Fig. 12 (per-RPC service-time distributions) and Fig. 13
// (median service time vs frequency, by RPC class).
type RPCPerf struct {
	// PerRPC holds, for each RPC with traffic, its service-time summary.
	PerRPC []RPCRow
	// TailFractions: share of calls > 4× the median per RPC (paper: 7–22%
	// of service times "very far from the median").
	MinTail, MaxTail float64
	// CascadeToReadRatio compares median cascade vs read service time
	// (paper: more than an order of magnitude).
	CascadeToReadRatio float64
}

// RPCRow is one point of Fig. 13.
type RPCRow struct {
	RPC    protocol.RPC
	Class  protocol.RPCClass
	Group  string // Fig. 12 panel: fs / upload / other
	Count  uint64
	Errs   uint64
	Median float64 // seconds
	P95    float64
	P99    float64
	Tail   float64 // share of calls above 4× median
}

// AnalyzeRPCPerf computes Fig. 12/13 from the streaming RPC aggregate.
func AnalyzeRPCPerf(t *Trace) RPCPerf {
	res := RPCPerf{MinTail: 1}
	if t.RPC == nil {
		return res
	}
	var classMedians [3][]float64
	for _, r := range protocol.RPCs() {
		count := t.RPC.Counts[r]
		if count == 0 {
			continue
		}
		sample := t.RPC.Samples[r].Sample()
		q := stats.Quantiles(sample, 0.5, 0.95, 0.99)
		med := q[0]
		var far int
		for _, x := range sample {
			if x > 4*med {
				far++
			}
		}
		row := RPCRow{
			RPC:    r,
			Class:  r.Class(),
			Group:  r.FigureGroup(),
			Count:  count,
			Errs:   t.RPC.Errs[r],
			Median: med,
			P95:    q[1],
			P99:    q[2],
		}
		if len(sample) > 0 {
			row.Tail = float64(far) / float64(len(sample))
		}
		res.PerRPC = append(res.PerRPC, row)
		classMedians[row.Class] = append(classMedians[row.Class], med)
		if row.Tail < res.MinTail {
			res.MinTail = row.Tail
		}
		if row.Tail > res.MaxTail {
			res.MaxTail = row.Tail
		}
	}
	sort.Slice(res.PerRPC, func(i, j int) bool { return res.PerRPC[i].Count > res.PerRPC[j].Count })
	readMed := stats.Median(classMedians[protocol.ClassRead])
	cascadeMed := stats.Median(classMedians[protocol.ClassCascade])
	if readMed > 0 {
		res.CascadeToReadRatio = cascadeMed / readMed
	}
	if len(res.PerRPC) == 0 {
		res.MinTail = 0
	}
	return res
}

// Render produces the Fig. 12/13 block.
func (rp RPCPerf) Render() string {
	var b strings.Builder
	b.WriteString("Fig 12/13: RPC service times against the metadata store\n")
	b.WriteString("  rpc                              class                 count   median      p95      p99  tail>4xmed\n")
	for _, row := range rp.PerRPC {
		fmt.Fprintf(&b, "  %-32s %-19s %8d %8s %8s %8s   %5.1f%%\n",
			row.RPC, row.Class, row.Count,
			plot.SI(row.Median)+"s", plot.SI(row.P95)+"s", plot.SI(row.P99)+"s", 100*row.Tail)
	}
	return b.String()
}

// LoadBalance reproduces Fig. 14: request dispersion across API servers
// (1-hour bins) and across metadata shards (1-minute bins). High short-term
// dispersion with good long-term balance is the paper's finding.
type LoadBalance struct {
	// APIServerHourCV is the mean coefficient of variation of per-hour
	// request counts across API machines.
	APIServerHourCV float64
	// ShardMinuteCV is the mean CoV of per-minute request counts across
	// shards.
	ShardMinuteCV float64
	// ShardLongTermCV is the CoV of total per-shard load over the whole
	// trace (paper: 4.9%).
	ShardLongTermCV float64
	// Servers/Shards involved.
	Servers, Shards int
}

// AnalyzeLoadBalance computes Fig. 14.
func AnalyzeLoadBalance(t *Trace) LoadBalance {
	res := LoadBalance{}
	// API machines: hourly counts per server index.
	hours := t.Hours()
	perServer := make(map[uint8][]float64)
	for i := range t.Records {
		r := &t.Records[i]
		if r.Kind != trace.KindStorage && r.Kind != trace.KindSession {
			continue
		}
		row, ok := perServer[r.Server]
		if !ok {
			row = make([]float64, hours)
			perServer[r.Server] = row
		}
		h := int(time.Unix(0, r.Time).Sub(t.Start) / time.Hour)
		if h >= 0 && h < hours {
			row[h]++
		}
	}
	res.Servers = len(perServer)
	if res.Servers >= 2 {
		servers := sortedKeys(perServer)
		var covs []float64
		for h := 0; h < hours; h++ {
			var col []float64
			for _, sv := range servers {
				col = append(col, perServer[sv][h])
			}
			if stats.Sum(col) > 0 {
				covs = append(covs, stats.CoefVar(col))
			}
		}
		res.APIServerHourCV = stats.Mean(covs)
	}

	if t.RPC != nil && t.RPC.Shards >= 2 {
		res.Shards = t.RPC.Shards
		// Attack windows are masked: a simulated attack is far larger
		// relative to baseline than the real ones were at 1.29M-user scale,
		// and it lands on a single shard, which would swamp the long-term
		// dispersion the figure measures.
		masked := make(map[int]bool)
		for _, a := range AnalyzeDDoS(t).Attacks {
			for h := a.Day*24 + a.Hour - 1; h <= a.Day*24+a.Hour+3; h++ {
				for m := h * 60; m < (h+1)*60; m++ {
					masked[m] = true
				}
			}
		}
		var covs []float64
		totals := make([]float64, t.RPC.Shards)
		for m := 0; m < t.RPC.Minutes; m++ {
			if masked[m] {
				continue
			}
			var col []float64
			var any bool
			for s := 0; s < t.RPC.Shards; s++ {
				v := float64(t.RPC.ShardMinute[s][m])
				col = append(col, v)
				totals[s] += v
				if v > 0 {
					any = true
				}
			}
			if any {
				covs = append(covs, stats.CoefVar(col))
			}
		}
		res.ShardMinuteCV = stats.Mean(covs)
		res.ShardLongTermCV = stats.CoefVar(totals)
	}
	return res
}

// Render produces the Fig. 14 block.
func (lb LoadBalance) Render() string {
	var b strings.Builder
	b.WriteString("Fig 14: load balancing across API servers and shards\n")
	fmt.Fprintf(&b, "  API servers (%d machines): mean per-hour CoV = %.2f (short-term imbalance)\n",
		lb.Servers, lb.APIServerHourCV)
	fmt.Fprintf(&b, "  shards (%d): mean per-minute CoV = %.2f; whole-trace CoV = %.1f%%\n",
		lb.Shards, lb.ShardMinuteCV, 100*lb.ShardLongTermCV)
	return b.String()
}

// Sessions reproduces Fig. 15 (authentication/session activity) and Fig. 16
// (session lengths and per-session operation counts).
type Sessions struct {
	AuthPerHour *stats.TimeSeries
	// AuthFailShare is the share of failed authentications (paper: 2.76%).
	AuthFailShare float64
	// Diurnal amplitude of auth activity (paper: 50–60% higher at midday).
	AuthDayNight float64
	// MondayBoost compares Monday's peak auth rate to the weekend's (paper:
	// ≈15% higher on Mondays).
	MondayBoost float64
	// Lengths of all/active sessions (Fig. 16 left).
	AllLengths, ActiveLengths *stats.CDF
	Sub1s, Sub8h              float64 // paper: 32% < 1s, 97% < 8h
	// ActiveShare is the fraction of sessions with ≥1 data-management op
	// (paper: 5.57%).
	ActiveShare float64
	// OpsPerActive distribution (Fig. 16 right); Top20OpsShare is the share
	// of storage ops carried by the most active 20% of active sessions
	// (paper: 96.7%).
	OpsPerActive  *stats.CDF
	P80Ops        float64 // paper: 92
	Top20OpsShare float64
	Sessions      int
}

// AnalyzeSessions computes Fig. 15/16.
func AnalyzeSessions(t *Trace) Sessions {
	hours := t.Hours()
	res := Sessions{AuthPerHour: stats.NewTimeSeries(t.Start, time.Hour, hours)}
	var authTotal, authFailed uint64

	type sessInfo struct {
		user    uint64
		started int64
		ops     float64
	}
	open := make(map[uint64]*sessInfo)
	var all, active, opsPerActive []float64

	finish := func(si *sessInfo, endNs int64) {
		length := float64(endNs-si.started) / float64(time.Second)
		all = append(all, length)
		if si.ops > 0 {
			active = append(active, length)
			opsPerActive = append(opsPerActive, si.ops)
		}
	}

	for i := range t.Records {
		r := &t.Records[i]
		switch {
		case r.Kind == trace.KindSession && protocol.Op(r.Op) == protocol.OpAuthenticate:
			authTotal++
			res.AuthPerHour.Add(r.When(), 1)
			if r.Status != uint8(protocol.StatusOK) {
				authFailed++
				continue
			}
			open[r.Session] = &sessInfo{user: r.User, started: r.Time}
		case r.Kind == trace.KindSession && protocol.Op(r.Op) == protocol.OpCloseSession:
			if si, ok := open[r.Session]; ok {
				finish(si, r.Time)
				delete(open, r.Session)
			}
		case r.Kind == trace.KindStorage && protocol.Op(r.Op).IsDataManagement() &&
			r.Status == uint8(protocol.StatusOK):
			if si, ok := open[r.Session]; ok {
				si.ops++
			}
		}
	}
	// Sessions still open at the cut count as lasting through the window.
	endNs := t.End().UnixNano()
	for _, si := range open {
		finish(si, endNs)
	}

	res.Sessions = len(all)
	res.AllLengths = stats.NewCDF(all)
	res.ActiveLengths = stats.NewCDF(active)
	res.Sub1s = res.AllLengths.At(1)
	res.Sub8h = res.AllLengths.At(8 * 3600)
	if len(all) > 0 {
		res.ActiveShare = float64(len(active)) / float64(len(all))
	}
	res.OpsPerActive = stats.NewCDF(opsPerActive)
	res.P80Ops = res.OpsPerActive.Quantile(0.8)
	// Share of ops carried by the top 20% most active sessions.
	if len(opsPerActive) > 0 {
		sorted := append([]float64(nil), opsPerActive...)
		sort.Float64s(sorted)
		cut := int(0.8 * float64(len(sorted)))
		res.Top20OpsShare = stats.Sum(sorted[cut:]) / stats.Sum(sorted)
	}
	if authTotal > 0 {
		res.AuthFailShare = float64(authFailed) / float64(authTotal)
	}

	res.AuthDayNight = dayNight(res.AuthPerHour)
	// Monday boost vs weekend, on daily totals.
	var mondays, weekends []float64
	for d := 0; d < t.Days; d++ {
		day := t.Start.Add(time.Duration(d) * 24 * time.Hour)
		var total float64
		for h := 0; h < 24; h++ {
			total += res.AuthPerHour.Vals[d*24+h]
		}
		switch day.Weekday() {
		case time.Monday:
			mondays = append(mondays, total)
		case time.Saturday, time.Sunday:
			weekends = append(weekends, total)
		}
	}
	if w := stats.Mean(weekends); w > 0 {
		res.MondayBoost = stats.Mean(mondays)/w - 1
	}
	return res
}

// Render produces the Fig. 15/16 block.
func (se Sessions) Render() string {
	var b strings.Builder
	b.WriteString(plot.Line("Fig 15: authentication requests per hour", se.AuthPerHour.Vals, 96, 8))
	b.WriteString("Fig 16: session lengths and per-session activity\n")
	fmt.Fprintf(&b, "  sessions: %d; <1s: %.0f%%; <8h: %.0f%%\n", se.Sessions, 100*se.Sub1s, 100*se.Sub8h)
	b.WriteString(plot.CDF("  session length (s)", map[string]*stats.CDF{
		"all":    se.AllLengths,
		"active": se.ActiveLengths,
	}, 80))
	return b.String()
}
