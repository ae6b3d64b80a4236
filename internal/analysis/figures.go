package analysis

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"u1/internal/plot"
)

// Figures is the paper's evaluation written down once: every figure and
// table this repository reproduces, in the order `u1 analyze -all` prints
// them, with each paper number as a typed target. `u1 analyze`, `u1 sim
// -report`, Table 1 and the figure benchmarks all read it, so a figure or a
// paper number is added here and nowhere else.
//
// Qualitative claims are targets only where the paper's text supports a
// numeric reading: "most" lags outside the band is > 50%, "linear decay" a
// negative slope, "high" probability > 0.5, ">>1" > 1, ">10x" ≥ 10, and
// short-window load "far from the mean" a per-minute CoV > 1.
var Figures = []Figure{
	fig([]string{"table 3"}, "§4.1", cleanTrace, AnalyzeSummary,
		row("T3", "unique users", is(1294794), "count", func(s Summary) float64 { return float64(s.UniqueUsers) }),
		row("T3", "sessions", is(42.5e6), "count", func(s Summary) float64 { return float64(s.Sessions) }),
		row("T3", "transfer operations", is(194.3e6), "count", func(s Summary) float64 { return float64(s.Transfers) }),
		row("T3", "upload traffic", is(105e12), "bytes", func(s Summary) float64 { return float64(s.UploadBytes) }),
		row("T3", "download traffic", is(120e12), "bytes", func(s Summary) float64 { return float64(s.DownloadBytes) }),
		row("§5.1", "updates: % of upload ops", is(0.1005), "%.2f%%", Summary.UpdateOpFraction),
		row("§5.1", "updates: % of upload bytes", is(0.1847), "%.2f%%", Summary.UpdateByteFraction).marked('C')),
	fig([]string{"fig 2a", "fig 2b"}, "§5.1", rawTrace, AnalyzeTraffic,
		row("F2a", "upload day/night amplitude", is(10), "%.1fx", func(r Traffic) float64 { return r.DayNightRatio }),
		row("F2b", ">25MB files: % of upload bytes", is(0.793), "%.1f%%", func(r Traffic) float64 { return r.UpBuckets.WeightFractions()[4] }),
		row("F2b", ">25MB files: % of download bytes", is(0.882), "%.1f%%", func(r Traffic) float64 { return r.DownBuckets.WeightFractions()[4] }),
		row("F2b", "<0.5MB files: % of upload ops", is(0.843), "%.1f%%", func(r Traffic) float64 { return r.UpBuckets.CountFractions()[0] }),
		row("F2b", "<0.5MB files: % of download ops", is(0.890), "%.1f%%", func(r Traffic) float64 { return r.DownBuckets.CountFractions()[0] })),
	fig([]string{"fig 2c"}, "§5.1", rawTrace, AnalyzeRWRatio,
		row("F2c", "R/W ratio median", is(1.14), "%.2f", func(r RWRatio) float64 { return r.Box.Median }),
		row("F2c", "R/W ratio mean", is(1.17), "%.2f", func(r RWRatio) float64 { return r.Box.Mean }),
		row("F2c", "R/W ACF lags outside 95% band", bound(">", 0.5), "%.1f%%",
			func(r RWRatio) float64 { return float64(r.Exceedances) / float64(len(r.ACF)) }),
		row("F2c", "R/W 6am-3pm trend", bound("<", 0), "%.4f/h", func(r RWRatio) float64 { return r.MorningTrend })),
	fig([]string{"fig 3a", "fig 3b"}, "§5.2", cleanTrace, AnalyzeDependencies,
		row("F3a", "WAW share of X-after-write", is(0.44), "%.0f%%", func(d Dependencies) float64 { return d.WAWFrac }),
		row("F3a", "RAW share of X-after-write", is(0.30), "%.0f%%", func(d Dependencies) float64 { return d.RAWFrac }),
		row("F3a", "DAW share of X-after-write", is(0.26), "%.0f%%", func(d Dependencies) float64 { return d.DAWFrac }),
		row("F3a", "WAW gaps under 1 hour", is(0.80), "%.0f%%", func(d Dependencies) float64 { return d.WAWUnderHour }),
		row("F3b", "RAR share of X-after-read", is(0.66), "%.0f%%", func(d Dependencies) float64 { return d.RARFrac }),
		row("F3b", "DAR share of X-after-read", is(0.24), "%.0f%%", func(d Dependencies) float64 { return d.DARFrac }),
		row("F3b", "WAR share of X-after-read", is(0.10), "%.0f%%", func(d Dependencies) float64 { return d.WARFrac }),
		row("F3b", "dying files (idle >1d before delete)", is(0.091), "%.1f%%", func(d Dependencies) float64 { return d.DyingFileShare })),
	fig([]string{"fig 3c"}, "§5.2", cleanTrace, AnalyzeLifetime,
		row("F3c", "files deleted within the month", is(0.289), "%.1f%%", func(l Lifetime) float64 { return l.FileDeadFrac }),
		row("F3c", "dirs deleted within the month", is(0.315), "%.1f%%", func(l Lifetime) float64 { return l.DirDeadFrac }),
		row("F3c", "files deleted within 8 hours", is(0.171), "%.1f%%", func(l Lifetime) float64 { return l.FileDead8hFrac }),
		row("F3c", "dirs deleted within 8 hours", is(0.129), "%.1f%%", func(l Lifetime) float64 { return l.DirDead8hFrac })),
	fig([]string{"fig 4a"}, "§5.3", cleanTrace, AnalyzeDedup,
		row("F4a", "deduplication ratio", is(0.171), "%.3f", func(d Dedup) float64 { return d.Ratio }).marked('C'),
		row("F4a", "contents with a single reference", is(0.80), "%.0f%%", func(d Dedup) float64 { return d.SingletonShare })),
	fig([]string{"fig 4b"}, "§5.3", cleanTrace, AnalyzeSizes,
		row("F4b", "files smaller than 1 MB", is(0.90), "%.0f%%", func(s Sizes) float64 { return s.Sub1MBShare }).marked('P')),
	fig([]string{"fig 4c"}, "§5.3", cleanTrace, AnalyzeTypes,
		row("F4c", "Code: share of files (most numerous)", is(0.27), "%.0f%%", func(t Types) float64 { return t.FileShare[slices.Index(t.Categories, "Code")] }),
		row("F4c", "A/V: share of bytes (largest)", is(0.25), "%.0f%%", func(t Types) float64 { return t.ByteShare[slices.Index(t.Categories, "Audio/Video")] }),
		row("F4c", "Documents: share of files", is(0.101), "%.1f%%", func(t Types) float64 { return t.FileShare[slices.Index(t.Categories, "Documents")] }),
		row("F4c", "Documents: share of bytes", is(0.069), "%.1f%%", func(t Types) float64 { return t.ByteShare[slices.Index(t.Categories, "Documents")] })),
	fig([]string{"fig 5"}, "§5.4", rawTrace, AnalyzeDDoS,
		row("F5", "attacks detected", is(3), "count", func(d DDoS) float64 { return float64(len(d.Attacks)) }).marked('N'),
		row("F5", "attack auth multiplier, lowest", is(5), "%.1fx", attackExtreme(false, false)),
		row("F5", "attack auth multiplier, highest", is(15), "%.1fx", attackExtreme(false, true)),
		row("F5", "attack API multiplier, lowest", is(4.6), "%.1fx", attackExtreme(true, false)),
		row("F5", "attack API multiplier, highest", is(245), "%.1fx", attackExtreme(true, true))),
	fig([]string{"fig 6"}, "§6.1", cleanTrace, AnalyzeOnlineActive,
		row("F6", "active share of online users, lowest hour", is(0.0349), "%.2f%%", func(o OnlineActive) float64 { return o.MinActiveShare }),
		row("F6", "active share of online users, highest hour", is(0.1625), "%.2f%%", func(o OnlineActive) float64 { return o.MaxActiveShare })),
	fig([]string{"fig 7a"}, "§6.1", cleanTrace, AnalyzeOpFrequency),
	fig([]string{"fig 7b", "fig 7c"}, "§6.1", cleanTrace, AnalyzeUserTraffic,
		row("F7b", "users who downloaded anything", is(0.14), "%.1f%%", func(u UserTraffic) float64 { return u.DownloadedShare }),
		row("F7b", "users who uploaded anything", is(0.25), "%.1f%%", func(u UserTraffic) float64 { return u.UploadedShare }),
		row("F7c", "Gini coefficient (upload)", is(0.8943), "%.4f", func(u UserTraffic) float64 { return u.GiniUp }),
		row("F7c", "Gini coefficient (download)", is(0.8966), "%.4f", func(u UserTraffic) float64 { return u.GiniDown }),
		row("F7c", "traffic from top 1% of users", is(0.656), "%.1f%%", func(u UserTraffic) float64 { return u.Top1Share }).marked('P'),
		row("§6.1", "occasional users", is(0.8582), "%.2f%%", func(u UserTraffic) float64 { return u.ClassShares["occasional"] }),
		row("§6.1", "upload-only users", is(0.0722), "%.2f%%", func(u UserTraffic) float64 { return u.ClassShares["upload-only"] }),
		row("§6.1", "download-only users", is(0.0234), "%.2f%%", func(u UserTraffic) float64 { return u.ClassShares["download-only"] }),
		row("§6.1", "heavy users", is(0.0462), "%.2f%%", func(u UserTraffic) float64 { return u.ClassShares["heavy"] })),
	fig([]string{"fig 8"}, "§6.2", cleanTrace, AnalyzeTransitions,
		row("F8", "P(transfer follows transfer)", bound(">", 0.5), "%.2f", func(t Transitions) float64 { return t.TransferSelfLoop }).marked('C')),
	fig([]string{"fig 9"}, "§6.2", cleanTrace, AnalyzeBurstiness,
		row("F9", "upload inter-op power law alpha", is(1.54), "%.2f", func(b Burstiness) float64 { return b.UploadFit.Alpha }).marked('N'),
		row("F9", "upload inter-op power law theta", is(41.4), "%.1fs", func(b Burstiness) float64 { return b.UploadFit.Theta }),
		row("F9", "unlink inter-op power law alpha", is(1.44), "%.2f", func(b Burstiness) float64 { return b.UnlinkFit.Alpha }),
		row("F9", "unlink inter-op power law theta", is(19.5), "%.1fs", func(b Burstiness) float64 { return b.UnlinkFit.Theta }),
		row("F9", "upload inter-op CoV (Poisson=1)", bound(">", 1), "%.1f", func(b Burstiness) float64 { return b.CoVUpload })),
	fig([]string{"fig 10", "fig 11"}, "§6.3", cleanTrace, AnalyzeVolumes,
		row("F10", "Pearson(files, dirs) per volume", is(0.998), "%.3f", func(v Volumes) float64 { return v.Pearson }),
		row("F10", "volumes with ≥1 file", bound(">", 0.6), "%.0f%%", func(v Volumes) float64 { return v.WithFilesShare }),
		row("F10", "volumes with ≥1 dir", is(0.32), "%.0f%%", func(v Volumes) float64 { return v.WithDirsShare }),
		row("F10", "volumes with >1000 files", is(0.05), "%.1f%%", func(v Volumes) float64 { return v.Over1000Share }),
		row("F11", "users with UDFs", is(0.58), "%.0f%%", func(v Volumes) float64 { return v.UDFShare }),
		row("F11", "users with shares", is(0.018), "%.1f%%", func(v Volumes) float64 { return v.SharedShare })),
	fig([]string{"fig 12", "fig 13"}, "§7.1", rpcTrace, AnalyzeRPCPerf,
		row("F12", "RPC tail mass, lowest RPC", is(0.07), "%.1f%%", func(r RPCPerf) float64 { return r.MinTail }).marked('N'),
		row("F12", "RPC tail mass, highest RPC", is(0.22), "%.1f%%", func(r RPCPerf) float64 { return r.MaxTail }).marked('N'),
		row("F13", "cascade/read median service time", bound("≥", 10), "%.1fx", func(r RPCPerf) float64 { return r.CascadeToReadRatio })),
	fig([]string{"fig 14"}, "§7.2", rpcTrace, AnalyzeLoadBalance,
		row("F14", "shard load CoV, per minute", bound(">", 1), "%.2f", func(l LoadBalance) float64 { return l.ShardMinuteCV }).marked('N'),
		row("F14", "shard load CoV, whole trace", is(0.049), "%.1f%%", func(l LoadBalance) float64 { return l.ShardLongTermCV })),
	fig([]string{"fig 15", "fig 16"}, "§7.3", cleanTrace, AnalyzeSessions,
		row("F15", "auth failures", is(0.0276), "%.2f%%", func(s Sessions) float64 { return s.AuthFailShare }),
		row("F15", "auth day/night amplitude", Paper{Lo: 1.5, Hi: 1.6}, "%.1fx", func(s Sessions) float64 { return s.AuthDayNight }),
		row("F15", "Monday auth vs weekend", is(0.15), "%+.0f%%", func(s Sessions) float64 { return s.MondayBoost }),
		row("F16", "sessions under 1 second", is(0.32), "%.0f%%", func(s Sessions) float64 { return s.Sub1s }),
		row("F16", "sessions under 8 hours", is(0.97), "%.0f%%", func(s Sessions) float64 { return s.Sub8h }),
		row("F16", "active sessions", is(0.0557), "%.2f%%", func(s Sessions) float64 { return s.ActiveShare }),
		row("F16", "p80 ops per active session", is(92), "count", func(s Sessions) float64 { return s.P80Ops }),
		row("F16", "ops carried by top 20% active sessions", is(0.967), "%.1f%%", func(s Sessions) float64 { return s.Top20OpsShare })),
	fig([]string{"fig errors"}, "§5.4", rawTrace, AnalyzeErrors),
	fig([]string{"fig whatif"}, "§9", cleanTrace, AnalyzeWhatIf,
		row("§9", "delta updates would avoid (upload bytes)", is(0.15), "%.1f%%",
			func(w WhatIf) float64 { return float64(w.DeltaUpdateSavings) / float64(w.UploadBytes) }),
		row("§9", "dedup saves of the S3 bill", is(0.171), "%.1f%%", func(w WhatIf) float64 { return w.DedupMonthlyUSD / 20000 }),
		row("§9", "dedup savings per month", is(3400), "$%.0f/mo", func(w WhatIf) float64 { return w.DedupMonthlyUSD }),
		row("§7.3", "cold sessions (no data management)", is(0.944), "%.1f%%",
			func(w WhatIf) float64 { return float64(w.ColdSessions) / float64(w.TotalSessions) })),
}

// Figure is one entry of Figures: an analysis, the figures and tables it
// reproduces, and the paper numbers it is measured against.
type Figure struct {
	IDs       []string // the `u1 analyze` selectors: "fig 2a", "table 3"
	Section   string   // the paper section it reproduces
	Sanitized bool     // reads the §4.1-sanitized trace instead of the raw one
	NeedsRPC  bool     // reads the RPC aggregate, which a trace tree holds only when written with -rpc
	Targets   []Target
	run       func(*Trace) (measured []float64, render func() string)
}

// Target is one paper number and the measurement compared with it.
type Target struct {
	Label string // the row's first column: the figure ("F2a") or section ("§5.1")
	Name  string
	Paper Paper
	// Unit is the fmt verb both numbers print with, times 100 when it prints
	// a percentage; "count" prints a whole number, "bytes" an SI byte count.
	Unit string
	// Class is Table 1's marking of the rows it carries: C confirms prior
	// work, P partially aligned, N new observation; 0 for the rest.
	Class byte
}

// Paper is a target's paper value in the unit its analysis returns: a number
// (Lo == Hi), a range, or the bound Rel ("≥", ">" or "<") on Lo that a
// qualitative claim reads as.
type Paper struct {
	Rel    string
	Lo, Hi float64
}

func is(v float64) Paper                { return Paper{Lo: v, Hi: v} }
func bound(rel string, v float64) Paper { return Paper{Rel: rel, Lo: v, Hi: v} }

// target is a Target with its typed extractor from the analysis result.
type target[R any] struct {
	Target
	measure func(R) float64
}

func row[R any](label, name string, paper Paper, unit string, measure func(R) float64) target[R] {
	return target[R]{Target{Label: label, Name: name, Paper: paper, Unit: unit}, measure}
}

// marked puts the target in Table 1 under the paper's class.
func (t target[R]) marked(class byte) target[R] {
	t.Class = class
	return t
}

// The trace an entry reads.
const (
	rawTrace = iota
	cleanTrace
	rpcTrace // the raw trace and its RPC aggregate
)

// fig builds an entry whose analysis returns R; its targets read R through
// typed extractors, so no entry needs a type assertion.
func fig[R interface{ Render() string }](ids []string, section string, reads int, analyze func(*Trace) R, targets ...target[R]) Figure {
	f := Figure{IDs: ids, Section: section, Sanitized: reads == cleanTrace, NeedsRPC: reads == rpcTrace}
	for _, t := range targets {
		f.Targets = append(f.Targets, t.Target)
	}
	f.run = func(t *Trace) ([]float64, func() string) {
		r := analyze(t)
		measured := make([]float64, len(targets))
		for i, tg := range targets {
			measured[i] = tg.measure(r)
		}
		return measured, r.Render
	}
	return f
}

// Result is one entry computed over a trace.
type Result struct {
	*Figure
	Measured []float64 // per target; NaN where the trace cannot say
	render   func() string
}

// Run computes the entry over the raw trace or its sanitized view. Without
// the RPC aggregate an entry that needs it measures nothing and renders one
// line saying how to get it.
func (f *Figure) Run(raw, clean *Trace) Result {
	if f.NeedsRPC && raw.RPC == nil {
		r := Result{Figure: f, Measured: make([]float64, len(f.Targets))}
		for i := range r.Measured {
			r.Measured[i] = math.NaN()
		}
		hint := fmt.Sprintf("%s (%s): the trace has no RPC records; write it with `u1 sim -out DIR -rpc`\n",
			strings.Join(f.IDs, ", "), f.Section)
		r.render = func() string { return hint }
		return r
	}
	t := raw
	if f.Sanitized {
		t = clean
	}
	r := Result{Figure: f}
	r.Measured, r.render = f.run(t)
	return r
}

// Render is the entry's figures or table as terminal text.
func (r Result) Render() string { return r.render() }

// Rows prints every target as a paper-vs-measured line.
func (r Result) Rows() string { return r.rows(false) }

// Table1 is the paper's Table 1, its key findings, as a view of the results'
// class-marked targets: each finding reads the measurement its figure prints.
func Table1(results []Result) string {
	s := "Table 1: key findings (paper vs this reproduction)\n"
	for _, r := range results {
		s += r.rows(true)
	}
	return s
}

func (r Result) rows(table1 bool) string {
	var b strings.Builder
	for i, t := range r.Targets {
		name := t.Name
		if table1 {
			if t.Class == 0 {
				continue
			}
			name = fmt.Sprintf("[%c] %s", t.Class, name)
		}
		p := t.Paper
		paper := p.Rel + format(t.Unit, p.Lo)
		if p.Lo != p.Hi {
			paper += "–" + format(t.Unit, p.Hi)
		}
		b.WriteString(line(t.Label, name, paper, format(t.Unit, r.Measured[i])))
	}
	return b.String()
}

// Header is the column header of the paper-vs-measured lines.
var Header = line("exp", "metric", "paper", "measured")

// line is one paper-vs-measured line; renders print it too, for rows whose
// paper claim has no number.
func line(label, name, paper, measured string) string {
	return fmt.Sprintf("%-5s %-46s %-22s %s\n", label, name, paper, measured)
}

func format(unit string, v float64) string {
	switch {
	case math.IsNaN(v):
		return "n/a"
	case unit == "bytes":
		return plot.SI(v) + "B"
	case unit == "count":
		s := fmt.Sprintf("%.0f", v)
		for i := len(s) - 3; i > 0; i -= 3 {
			s = s[:i] + "," + s[i:]
		}
		return s
	case strings.HasSuffix(unit, "%%"):
		v *= 100
	}
	return fmt.Sprintf(unit, v)
}

// attackExtreme reads the lowest or highest auth (or API) multiplier over the
// detected attacks; NaN when none was detected.
func attackExtreme(api, highest bool) func(DDoS) float64 {
	return func(d DDoS) float64 {
		v := math.NaN()
		for _, a := range d.Attacks {
			x := a.Multiplier
			if api {
				x = a.APIMultiplier
			}
			if math.IsNaN(v) || (x > v) == highest {
				v = x
			}
		}
		return v
	}
}
